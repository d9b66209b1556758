"""The benchmark's four workloads.

Each workload is a closed loop: one caller runs units back to back, and a
unit is one trial, one tournament pass, one file write or one repair.
Units are grouped into *phases* (a trial kind, cold vs warm pass, encode vs
repair), and a phase's units into *cases*: the trial workloads simulate
each kind on ``cases`` inputs made from the workload seed, so that one run
averages over several inputs.  Other tenants of a shared host slow it by a
third or more, so a fixed host-speed reference (``reference.py``) is
timed all through the run, and a unit's normalized cost is its seconds
scaled by ``NOMINAL_SECONDS / host``, ``host`` being the reference's time
around and within the unit.  A phase's cost per unit of
work is the mean over its cases of each case's median normalized cost.
The workload's throughput is that of a fixed bundle of work, one weight
per phase::

    work_per_s = sum(weight) / sum(weight / rate)

so the figure does not depend on where the run's time budget ran out, and
every phase is represented even when its units are rare.  Every unit
checks its own output after its timed region; see README.md for what each
check asserts.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import statistics
import time
from dataclasses import dataclass

from reference import NOMINAL_SECONDS

MB = 1e6
MIB = 1 << 20


@dataclass
class UnitResult:
    """What one unit did: its phase and case, timed work, and verdict."""

    phase: str
    work: float
    seconds: float
    ok: bool
    #: Which of the phase's inputs the unit ran (see ``Workload.cases``).
    case: int = 0
    #: Identity of the program's output (checked equal across traced and
    #: untraced passes); None when the unit has no simulated output.
    digest: str | None = None
    #: Simulated makespan, for model.* metrics.
    makespan: float | None = None
    #: perf_counter() at the start of the timed region.
    start: float = 0.0
    #: Mean host-speed reference seconds around and within the timed
    #: region (see reference.py); 0 when the run timed no reference.
    host: float = 0.0


class Workload:
    """Base: phase weights, unit dispatch, throughput arithmetic."""

    name = ""
    #: Phase -> work per bundle.
    bundle: dict[str, float] = {}
    #: Inputs per phase; a run samples every (phase, case) at least once.
    cases = 1

    def __init__(self, seed: int, workdir: str, expected: dict) -> None:
        self.seed = seed
        self.workdir = workdir
        self.expected = expected.get(self.name, {})
        #: Compute output digests (traced runs compare them).
        self.digests = False

    def trial_seed(self, case: int) -> int:
        """The seed the program is given for one of the phase's cases."""
        return 1000 * self.seed + case

    def unit(self, index: int) -> UnitResult:
        raise NotImplementedError

    def close(self) -> None:
        """Remove what the workload made on disk."""
        shutil.rmtree(self.workdir, ignore_errors=True)

    def phase_rates(
        self, results: list[UnitResult], normalized: bool = True
    ) -> dict[str, float]:
        """Work per second of each phase: the mean over cases of each
        case's median cost per unit of work.

        ``normalized`` scales every unit's seconds by
        ``NOMINAL_SECONDS / host``, its cost on a host where the reference
        takes its nominal time; otherwise the raw seconds are used.
        """
        rates = dict.fromkeys(self.bundle, 0.0)
        for phase in self.bundle:
            costs: dict[int, list[float]] = {}
            for r in results:
                if r.ok and r.phase == phase and r.seconds > 0:
                    scale = NOMINAL_SECONDS / r.host if normalized else 1.0
                    costs.setdefault(r.case, []).append(r.seconds * scale / r.work)
            if costs:
                rates[phase] = 1.0 / statistics.fmean(
                    statistics.median(values) for values in costs.values()
                )
        return rates

    def work_per_s(self, results: list[UnitResult], normalized: bool = True) -> float:
        rates = self.phase_rates(results, normalized)
        if not all(rates.values()):
            return 0.0
        total = sum(self.bundle.values())
        return total / sum(weight / rates[phase] for phase, weight in self.bundle.items())

    def named_metrics(
        self, results: list[UnitResult], normalized: bool = True
    ) -> dict[str, float]:
        """The workload's own end-to-end figures (``trials_per_s`` ...)."""
        raise NotImplementedError

    def model_metrics(self, results: list[UnitResult]) -> dict[str, float]:
        """Simulated statistics of the run's trials (speed-independent)."""
        return {"model.makespan_s": 0.0, "model.edf_vs_lf_reduction": 0.0}


# -- simulated trials -----------------------------------------------------------


def _result_digest(result) -> str:
    from repro.mapreduce.serialization import result_to_json

    return hashlib.sha256(result_to_json(result, indent=None).encode()).hexdigest()


def _trial_ok(result, expected_makespan: float | None) -> bool:
    """Every job finished, shuffle balanced, makespan as recorded.

    Deposits and drains are summed in different orders, so they agree to
    float rounding, not bit for bit.
    """
    import math

    for job in result.jobs.values():
        if job.failed or math.isnan(job.finish_time):
            return False
    for deposited, drained in result.shuffle_totals.values():
        if not math.isclose(deposited, drained, rel_tol=1e-9):
            return False
    return expected_makespan is None or result.total_runtime == expected_makespan


class _TrialWorkload(Workload):
    """Cycles through the trial kinds, then through the cases: case ``c``
    simulates every kind with trial seed ``1000 * seed + c``."""

    def run_trial(self, kind: str, trial_seed: int):
        raise NotImplementedError

    def unit(self, index: int) -> UnitResult:
        kinds = list(self.bundle)
        kind = kinds[index % len(kinds)]
        case = index // len(kinds) % self.cases
        trial_seed = self.trial_seed(case)
        start = time.perf_counter()
        result = self.run_trial(kind, trial_seed)
        seconds = time.perf_counter() - start
        expected = self.expected.get(f"{kind}/{trial_seed}")
        return UnitResult(
            phase=kind,
            work=1.0,
            seconds=seconds,
            ok=_trial_ok(result, expected),
            case=case,
            start=start,
            digest=_result_digest(result) if self.digests else None,
            makespan=result.total_runtime,
        )

    def named_metrics(self, results, normalized=True):
        return {"trials_per_s": self.work_per_s(results, normalized)}

    def model_metrics(self, results):
        first = {}
        for result in results[: len(self.bundle)]:
            if result.ok:
                first[result.phase] = result.makespan
        lf, edf = first.get(self.lf_kind), first.get(self.edf_kind)
        return {
            "model.makespan_s": statistics.fmean(first.values()) if first else 0.0,
            "model.edf_vs_lf_reduction": 1.0 - edf / lf if lf and edf else 0.0,
        }


class PaperTrials(_TrialWorkload):
    """LF, BDF, EDF under single-node failure and EDF under rack failure,
    on the paper's default cluster, with no observer."""

    name = "paper-trials"
    bundle = {
        "LF/single-node": 1.0,
        "BDF/single-node": 1.0,
        "EDF/single-node": 1.0,
        "EDF/rack": 1.0,
    }
    lf_kind, edf_kind = "LF/single-node", "EDF/single-node"
    cases = 3

    def __init__(self, seed, workdir, expected):
        super().__init__(seed, workdir, expected)
        from repro.cluster.failures import FailurePattern
        from repro.mapreduce import simulation
        from repro.mapreduce.config import SimulationConfig

        self._simulation = simulation
        self._configs = {}
        for kind in self.bundle:
            scheduler, failure = kind.split("/")
            self._configs[kind] = SimulationConfig(
                scheduler=scheduler, failure=FailurePattern(failure)
            )

    def run_trial(self, kind, trial_seed):
        config = self._configs[kind].with_seed(trial_seed)
        return self._simulation.run_simulation(config)


class ObservedStream(_TrialWorkload):
    """The Fig. 7(f) ten-job Poisson stream at 240 blocks per job, under LF
    and EDF, each trial with an ObservabilityCollector and check=True."""

    name = "observed-stream"
    bundle = {"LF": 1.0, "EDF": 1.0}
    lf_kind, edf_kind = "LF", "EDF"
    cases = 5
    blocks_per_job = 240

    def __init__(self, seed, workdir, expected):
        super().__init__(seed, workdir, expected)
        from repro.experiments.fig7_simulation import multi_job_config
        from repro.mapreduce import simulation
        from repro.mapreduce.config import JobConfig, SimulationConfig
        from repro.obs import ObservabilityCollector

        self._simulation = simulation
        self._collector = ObservabilityCollector
        self._multi_job_config = multi_job_config
        self._base = SimulationConfig(jobs=(JobConfig(num_blocks=self.blocks_per_job),))

    def run_trial(self, kind, trial_seed):
        config = self._multi_job_config(self._base, trial_seed).with_scheduler(kind)
        return self._simulation.run_simulation(
            config, observer=self._collector(), check=True
        )


# -- tournament with journal and result cache ----------------------------------


class TournamentCache(Workload):
    """Every registered policy x the five default scenarios on the CI smoke
    cluster, one seed, through run_tournament with a journal and a result
    cache.  Each round is one cold pass into a fresh directory, then
    WARM_PASSES passes served from the cache.  Round ``r`` runs the
    tournament of case ``r % cases``, whose one seed is its trial seed."""

    name = "tournament-cache"
    WARM_PASSES = 20
    cases = 5

    def __init__(self, seed, workdir, expected):
        super().__init__(seed, workdir, expected)
        from repro import __version__
        from repro.ec.codec import CodeParams
        from repro.experiments import tournament
        from repro.experiments.cache import ResultCache
        from repro.experiments.campaign import CampaignPolicy, Journal
        from repro.mapreduce.config import JobConfig, SimulationConfig

        self._tournament = tournament
        self._version = __version__
        self._cache_cls = ResultCache
        self._journal_cls = Journal
        self._policy = CampaignPolicy(workers=1)
        base = SimulationConfig(
            num_nodes=12, num_racks=3, code=CodeParams(6, 4),
            jobs=(JobConfig(num_blocks=48),),
        )
        scenarios = tournament.default_scenarios(base)
        self.specs = [
            tournament.TournamentSpec(scenarios=scenarios, seeds=(self.trial_seed(case),))
            for case in range(self.cases)
        ]
        self.trials = len(self.specs[0].grid()[0])
        self.bundle = {"cold": float(self.trials), "warm": float(self.trials * self.WARM_PASSES)}
        self._round_dir: str | None = None
        self._case = 0
        self._cache = None
        self._cold_report: str | None = None
        self._report_makespans: dict[str, float] = {}

    def unit(self, index):
        position = index % (1 + self.WARM_PASSES)
        if position == 0:
            return self._cold(index // (1 + self.WARM_PASSES))
        result = self._warm()
        if position == self.WARM_PASSES:
            shutil.rmtree(self._round_dir, ignore_errors=True)
        return result

    def _cold(self, round_no):
        self._case = round_no % self.cases
        self._round_dir = os.path.join(self.workdir, f"tournament-{round_no}")
        self._cache = self._cache_cls(
            directory=os.path.join(self._round_dir, "cache"), code_version=self._version
        )
        journal_path = os.path.join(self._round_dir, "journal.jsonl")
        start = time.perf_counter()
        report, outcome = self._tournament.run_tournament(
            self.specs[self._case], self._policy, journal_path=journal_path,
            cache=self._cache,
        )
        seconds = time.perf_counter() - start
        text = self._tournament.report_to_json(report)
        digest = hashlib.sha256(text.encode()).hexdigest()
        accounting = report["accounting"]
        journaled = self._journal_cls.load(journal_path).records
        ok = (
            accounting["done"] == accounting["submitted"] == self.trials
            and accounting["failed"] == 0
            and outcome.counters.cached == 0
            and len(journaled) == self.trials
            and all(record["status"] == "done" for record in journaled.values())
            and digest == self.expected.get(f"report/{self.trial_seed(self._case)}", digest)
        )
        self._cold_report = text
        if self._case == 0:
            self._report_makespans = {
                name: row["makespan_mean_s"] for name, row in report["policies"].items()
            }
        return UnitResult(
            "cold", float(self.trials), seconds, ok, case=self._case, digest=digest,
            start=start,
        )

    def _warm(self):
        start = time.perf_counter()
        report, outcome = self._tournament.run_tournament(
            self.specs[self._case], self._policy, cache=self._cache
        )
        seconds = time.perf_counter() - start
        text = self._tournament.report_to_json(report)
        ok = (
            text == self._cold_report
            and outcome.counters.cached == self.trials
            and report["accounting"]["failed"] == 0
        )
        return UnitResult(
            "warm", float(self.trials), seconds, ok, case=self._case, start=start
        )

    def named_metrics(self, results, normalized=True):
        rates = self.phase_rates(results, normalized)
        return {"cold_trials_per_s": rates["cold"], "warm_trials_per_s": rates["warm"]}

    def model_metrics(self, results):
        means = [value for value in self._report_makespans.values() if value is not None]
        lf, edf = self._report_makespans.get("LF"), self._report_makespans.get("EDF")
        return {
            "model.makespan_s": statistics.fmean(means) if means else 0.0,
            "model.edf_vs_lf_reduction": 1.0 - edf / lf if lf and edf else 0.0,
        }


# -- erasure-coded storage with real bytes ---------------------------------------


class EcStorage(Workload):
    """HdfsRaidFilesystem.write_file of a seeded random file with RS(12,10)
    on the testbed layout, then repair_failed_nodes for single-node
    failures in sequence.  Each round writes a fresh FILE_MIB file and
    repairs FAILURES nodes."""

    name = "ec-storage"
    FILE_MIB = 40
    FAILURES = 3

    def __init__(self, seed, workdir, expected):
        super().__init__(seed, workdir, expected)
        from repro.cluster.network import NetworkSpec
        from repro.cluster.topology import ClusterTopology
        from repro.ec.codec import CodeParams
        from repro.sim.rng import RngStreams
        from repro.testbed.engine import TestbedConfig
        from repro.testbed.localfs import HdfsRaidFilesystem
        from repro.testbed.netem import EmulatedNetwork

        testbed = TestbedConfig()
        self.code = CodeParams(12, 10)
        self.topology = ClusterTopology.from_rack_sizes(
            [testbed.nodes_per_rack] * testbed.num_racks,
            map_slots=testbed.map_slots,
            reduce_slots=testbed.reduce_slots,
        )
        self._netem = EmulatedNetwork(
            self.topology, NetworkSpec(rack_download_bw=testbed.rack_bandwidth)
        )
        self._fs_cls = HdfsRaidFilesystem
        self._rng_cls = RngStreams
        # Each node holds one block of every stripe (n = nodes = 12).
        stripes = self.FILE_MIB // self.code.k
        self.bundle = {
            "encode": self.FILE_MIB * MIB / MB,
            "repair": self.FAILURES * stripes * MIB / MB,
        }
        self._fs = None
        self._data = b""
        self._clean: list[int] = []
        self._pick: random.Random | None = None

    def unit(self, index):
        round_no, position = divmod(index, 1 + self.FAILURES)
        if position == 0:
            return self._write(round_no)
        return self._repair()

    def _write(self, round_no):
        round_seed = self.trial_seed(round_no)
        data = random.Random(round_seed).randbytes(self.FILE_MIB * MIB)
        # No newlines, so line-aligned splitting yields exact 1 MiB blocks.
        self._data = data.replace(b"\n", b"\xff")
        self._fs = self._fs_cls(
            self.topology, self.code, MIB, self._netem, rng=self._rng_cls(round_seed)
        )
        start = time.perf_counter()
        block_map = self._fs.write_file(self._data)
        seconds = time.perf_counter() - start
        ok = block_map.num_native_blocks == self.FILE_MIB
        for block in block_map.native_blocks():
            stored = self._fs.stores[block_map.node_of(block)].get(block)
            ok = ok and stored == self._native(block)
        self._clean = sorted(self.topology.node_ids())
        self._pick = random.Random(round_seed)
        return UnitResult("encode", len(self._data) / MB, seconds, ok, start=start)

    def _native(self, block) -> bytes:
        offset = (block.stripe_id * self.code.k + block.position) * MIB
        return self._data[offset : offset + MIB]

    def _repair(self):
        fs = self._fs
        victim = self._pick.choice(self._clean)
        lost = {
            block: fs.stores[victim].get(block)
            for block in fs.block_map.blocks_on_node(victim)
        }
        start = time.perf_counter()
        plan = fs.repair_failed_nodes(frozenset({victim}))
        seconds = time.perf_counter() - start
        rebuilt = 0
        ok = {repair.block for repair in plan.repairs} == set(lost)
        for repair in plan.repairs:
            payload = fs.stores[repair.destination].get(repair.block)
            rebuilt += len(payload)
            ok = ok and payload == lost[repair.block] and repair.destination != victim
            if repair.block.position < self.code.k:
                ok = ok and payload == self._native(repair.block)
        # A node that received a rebuilt block may now hold two units of a
        # stripe; failing it next could exceed the code's two-loss budget.
        self._clean = [
            node for node in self._clean
            if node != victim and node not in {r.destination for r in plan.repairs}
        ]
        return UnitResult("repair", rebuilt / MB, seconds, ok, start=start)

    def named_metrics(self, results, normalized=True):
        rates = self.phase_rates(results, normalized)
        return {"encode_mb_per_s": rates["encode"], "repair_mb_per_s": rates["repair"]}


WORKLOADS = {
    cls.name: cls for cls in (PaperTrials, ObservedStream, TournamentCache, EcStorage)
}
