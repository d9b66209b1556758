"""The repository benchmark: one command, four workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-trials --seed 1 --seconds 26 --trace 0

``--trace 0`` measures the workload's end-to-end metrics with tracing off,
timing the host-speed reference (``perfbench/reference.py``) all through
the run so that throughput is reported at a fixed host speed.
``--trace 1`` runs the workload untraced for part of the budget, then runs
the same units again with every ``repro`` layer wrapped by the span tracer
(``perfbench/tracer.py``), checks that both passes produced bit-identical
outputs, and reports the per-layer metrics.  Metric names and units come
from ``BENCHMARK.json``; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

``--record`` re-records the default seed's expected outputs into
``perfbench/expected.json`` (run it only after a change that is meant to
alter simulated results).
"""

import time

_PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
EXPECTED_PATH = os.path.join(HERE, "expected.json")

DEFAULT_SEED = 1
#: Child processes that repeat set-up, so setup_s is a median.
SETUP_PROBES = 4
#: Share of a traced run's budget spent on the untraced pass.
TRACE_SHARE = 0.4
#: A run stops after this many budgets even if a phase or case is missing.
OVERRUN = 1.4


def _load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _load_expected() -> dict:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


def run_units(
    workload, budget: float, limit: int | None = None, tracer=None, measured=False
):
    """Run units back to back; returns (results, failed, wall seconds).

    Without ``limit`` the loop stops at the first unit boundary after
    ``budget`` seconds once every phase (every phase and case when
    ``measured``) has a correct sample, or after OVERRUN budgets, whatever
    happened.  With ``limit`` it runs exactly that many units.  A unit that
    raises counts as failed.  ``measured`` also times the host-speed
    reference all through the loop; each unit's seconds then leave those
    timings out, and its ``host`` is the mean reference time around and
    within it.
    """
    from reference import HostSampler

    cases = range(workload.cases if measured else 1)
    wanted = {(phase, case) for phase in workload.bundle for case in cases}
    sampler = HostSampler() if measured else contextlib.nullcontext()
    start = time.perf_counter()
    with sampler:
        results, failed = _loop(workload, budget, limit, tracer, wanted)
    wall = time.perf_counter() - start
    if measured:
        for result in results:
            if result.seconds > 0:
                result.seconds, result.host = sampler.adjust(result.start, result.seconds)
    return results, failed, wall


def _loop(workload, budget, limit, tracer, wanted):
    """The loop of :func:`run_units`; returns (results, failed)."""
    from workloads import UnitResult

    bench_kid = tracer.kind_id("bench", "unit") if tracer is not None else None
    results = []
    failed = 0
    start = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - start
        if limit is not None:
            if index >= limit:
                break
        elif elapsed >= budget:
            sampled = {(r.phase, r.case) for r in results if r.ok}
            if sampled >= wanted or elapsed >= OVERRUN * budget:
                break
        frame = tracer.open(bench_kid) if tracer is not None else None
        try:
            result = workload.unit(index)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            result = UnitResult(phase="", work=0.0, seconds=0.0, ok=False)
        finally:
            if frame is not None:
                tracer.close(frame)
        if not result.ok:
            failed += 1
            print(f"unit {index} ({result.phase or 'raised'}): wrong output",
                  file=sys.stderr)
        results.append(result)
        index += 1
    return results, failed


def _make_workload(args, expected: dict):
    from workloads import WORKLOADS

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    return WORKLOADS[args.workload](args.seed, workdir, expected)


def _setup_probe(args) -> float:
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-only",
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout.strip().splitlines()[-1])


def _print_metric(name: str, value: float, unit: str) -> None:
    print(f"{name:28s} {value:14.6g} {unit}")


def measure(args, bench: dict, expected: dict) -> dict:
    """--trace 0: end-to-end metrics."""
    from reference import NOMINAL_SECONDS

    workload = _make_workload(args, expected)
    setup = time.perf_counter() - _PROCESS_T0
    try:
        results, failed, _wall = run_units(workload, args.seconds, measured=True)
    finally:
        workload.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    setups = [setup] + [_setup_probe(args) for _ in range(SETUP_PROBES)]
    values = {
        "setup_s": statistics.median(setups),
        "norm_work_per_s": workload.work_per_s(results),
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"== {args.workload} seed={args.seed}: {len(results)} units, "
          f"{failed} failed ==")
    for phase in workload.bundle:
        times = sorted(r.seconds for r in results if r.ok and r.phase == phase)
        if times:
            print(f"phase {phase}: {len(times)} units, seconds min {times[0]:.4f}"
                  f" median {statistics.median(times):.4f} max {times[-1]:.4f}")
    hosts = sorted(r.host for r in results)
    print(f"host reference: seconds min {hosts[0]:.4f} median "
          f"{statistics.median(hosts):.4f} max {hosts[-1]:.4f} "
          f"(nominal {NOMINAL_SECONDS})")
    for name, value in workload.named_metrics(results).items():
        _print_metric(name, value, "1/s" if "trials" in name else "MB/s")
    _print_metric("raw_work_per_s", workload.work_per_s(results, normalized=False), "1/s")
    _print_metric("failed_frac", failed / max(1, len(results)), "frac")
    return _result(bench["end_to_end"], values, len(results), failed)


def measure_traced(args, bench: dict, expected: dict) -> dict:
    """--trace 1: untraced pass, traced pass over the same units, layers."""
    from tracer import Tracer, instrument, summarize

    untraced = _make_workload(args, expected)
    untraced.digests = True
    try:
        plain, failed, plain_wall = run_units(untraced, TRACE_SHARE * args.seconds)
    finally:
        untraced.close()

    traced = _make_workload(args, expected)
    traced.digests = True
    tracer = Tracer()
    instrument(tracer)
    try:
        spans, traced_failed, traced_wall = run_units(
            traced, 0.0, limit=len(plain), tracer=tracer
        )
    finally:
        tracer.uninstall()
        traced.close()
    mismatched = sum(
        1 for a, b in zip(plain, spans) if a.digest != b.digest or a.phase != b.phase
    )
    if mismatched:
        print(f"{mismatched} unit(s) differ between traced and untraced passes",
              file=sys.stderr)
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}.bin"))

    values = summarize(tracer, traced_wall)
    values["trace.overhead"] = traced_wall / plain_wall - 1.0
    values.update(untraced.model_metrics(plain))
    named = untraced.named_metrics(plain, normalized=False)
    for name in ("trials_per_s", "cold_trials_per_s", "warm_trials_per_s",
                 "encode_mb_per_s", "repair_mb_per_s"):
        values[f"e2e.{name}"] = named.get(name, 0.0)
    values["e2e.failed_frac"] = failed / max(1, len(plain))
    print(f"== {args.workload} seed={args.seed} traced: {len(plain)} units, "
          f"untraced {plain_wall:.3f} s, traced {traced_wall:.3f} s ==")
    print(f"(paper: EDF cuts LF's runtime by ~33% for RS(20,15); here "
          f"model.edf_vs_lf_reduction = {values['model.edf_vs_lf_reduction']:.3f})")
    attempted = len(plain) + len(spans)
    return _result(
        bench["per_layer"], values, attempted, failed + traced_failed + mismatched
    )


def _result(declared: list, values: dict, attempted: int, failed: int) -> dict:
    metrics = {}
    for metric in declared:
        value = float(values[metric["name"]])
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        _print_metric(metric["name"], value, metric["unit"])
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def record(args) -> None:
    """Store the default seed's makespans and report digest."""
    from workloads import WORKLOADS

    expected: dict = {}
    for name, cls in WORKLOADS.items():
        workload = cls(DEFAULT_SEED, os.path.join(OUT_DIR, "record"), {})
        try:
            if hasattr(workload, "run_trial"):
                entries = {}
                for index in range(len(workload.bundle) * workload.cases):
                    result = workload.unit(index)
                    trial_seed = workload.trial_seed(result.case)
                    entries[f"{result.phase}/{trial_seed}"] = result.makespan
            elif name == "tournament-cache":
                entries = {}
                for case in range(workload.cases):
                    result = workload.unit(case * (1 + workload.WARM_PASSES))
                    entries[f"report/{workload.trial_seed(case)}"] = result.digest
            else:
                continue
        finally:
            workload.close()
        expected[name] = entries
        print(f"recorded {len(entries)} value(s) for {name}")
    with open(EXPECTED_PATH, "w") as handle:
        json.dump(expected, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time imports and input generation, print seconds")
    parser.add_argument("--record", action="store_true",
                        help="re-record the default seed's expected outputs")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no repro package under {SRC}: run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)

    if args.record:
        record(args)
        return 0
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    expected = _load_expected()
    if args.setup_only:
        _make_workload(args, expected)
        print(time.perf_counter() - _PROCESS_T0)
        return 0
    bench = _load_benchmark()
    if args.trace:
        result = measure_traced(args, bench, expected)
    else:
        result = measure(args, bench, expected)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
