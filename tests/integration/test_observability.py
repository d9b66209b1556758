"""Instrumentation must observe without perturbing.

The contract of :mod:`repro.obs`: attaching an
:class:`~repro.obs.ObservabilityCollector` to a trial draws no random
numbers and schedules nothing on the event heap, so the serialized
:class:`SimulationResult` is byte-identical with instrumentation on or
off -- while the collector still captures the full event stream.
"""

from __future__ import annotations

import dataclasses
import gc
import json

import pytest

from repro.faults.schedule import FailEvent, FailureSchedule
from repro.mapreduce.config import JobConfig, SimulationConfig
from repro.mapreduce.simulation import run_simulation
from repro.mapreduce.trace import to_json
from repro.obs import ObservabilityCollector, chrome_trace, events_jsonl


def _edf_midrun_failure_config(seed: int = 7) -> SimulationConfig:
    """EDF trial where a node crashes mid-run and is detected by expiry."""
    return SimulationConfig(
        scheduler="EDF",
        seed=seed,
        # Several map waves (400 blocks over 160 slots), so the node killed
        # at t=5 both holds running attempts (-> kill/requeue events) and
        # leaves pending blocks behind (-> degraded tasks).
        jobs=(JobConfig(num_blocks=400, num_reduce_tasks=8),),
        failure_schedule=FailureSchedule(events=(FailEvent(at=5.0, node=3),)),
        heartbeat_expiry=10.0,
    )


@pytest.fixture(scope="module")
def observed_trial():
    config = _edf_midrun_failure_config()
    baseline = run_simulation(config)
    collector = ObservabilityCollector()
    instrumented = run_simulation(config, observer=collector)
    return baseline, instrumented, collector


class TestBitIdentical:
    def test_serialized_results_are_byte_identical(self, observed_trial):
        baseline, instrumented, _ = observed_trial
        assert to_json(baseline) == to_json(instrumented)

    def test_other_schedulers_and_seeds(self):
        for scheduler in ("LF", "BDF"):
            config = dataclasses.replace(
                _edf_midrun_failure_config(seed=11), scheduler=scheduler
            )
            baseline = run_simulation(config)
            instrumented = run_simulation(config, observer=ObservabilityCollector())
            assert to_json(baseline) == to_json(instrumented)


class TestEventStream:
    def test_expected_kinds_present(self, observed_trial):
        _, _, collector = observed_trial
        kinds = collector.bus.counts
        for kind in (
            "job.submit", "job.finish", "heartbeat", "sched.decision",
            "task.launch", "task.finish", "task.kill", "task.requeue",
            "degraded.start", "degraded.end", "failure.detect",
            "flow.start", "flow.end",
        ):
            assert kinds.get(kind, 0) > 0, f"no {kind} events recorded"

    def test_failure_detection_event_matches_result(self, observed_trial):
        _, instrumented, collector = observed_trial
        detections = [
            event for event in collector.events if event.kind == "failure.detect"
        ]
        assert len(detections) == len(instrumented.faults.detections)
        assert detections[0].fields["node"] == 3
        assert detections[0].fields["latency"] > 0

    def test_degraded_events_pair_up(self, observed_trial):
        _, instrumented, collector = observed_trial
        starts = collector.bus.counts["degraded.start"]
        ends = collector.bus.counts["degraded.end"]
        assert starts == ends
        assert starts >= instrumented.job(0).degraded_task_count

    def test_events_jsonl_round_trips(self, observed_trial):
        _, _, collector = observed_trial
        lines = events_jsonl(collector.events).strip().split("\n")
        assert len(lines) == collector.bus.emitted
        for line in lines[:50]:
            record = json.loads(line)
            assert "t" in record and "kind" in record


class TestDecisionTrace:
    def test_every_assignment_traced_with_pacing_state(self, observed_trial):
        _, _, collector = observed_trial
        assigns = [
            decision for decision in collector.decisions
            if decision.fields["action"] == "assign"
        ]
        assert assigns
        for decision in assigns:
            assert decision.fields["scheduler"] == "EDF"
            for key in ("m", "M", "m_d", "M_d", "reason", "node", "job_id"):
                assert key in decision.fields

    def test_degraded_assignments_record_guard_outcomes(self, observed_trial):
        _, _, collector = observed_trial
        degraded = [
            decision for decision in collector.decisions
            if decision.fields.get("reason") == "degraded-first"
        ]
        assert degraded
        for decision in degraded:
            assert decision.fields["slave_ok"] is True
            assert decision.fields["rack_ok"] is True
            assert decision.fields["rejected_by"] is None


class TestChromeTrace:
    def test_trace_structure(self, observed_trial):
        _, instrumented, _ = observed_trial
        trace = chrome_trace(instrumented)
        events = trace["traceEvents"]
        durations = [event for event in events if event["ph"] == "X"]
        assert durations
        for event in durations[:50]:
            assert event["ts"] >= 0
            assert event["dur"] >= 0
            assert isinstance(event["pid"], int)
        # Strict JSON: Perfetto rejects NaN tokens.
        text = json.dumps(trace, allow_nan=False)
        assert "NaN" not in text


@pytest.mark.parametrize(
    "observed, failure",
    [
        (False, {}),
        (True, {}),
        (False, {"failure_schedule": FailureSchedule(events=(FailEvent(at=5.0, node=3),))}),
        (False, {"failure_time": 5.0}),
    ],
    ids=["plain", "observed-checked", "midrun-fail-event", "midrun-failure-time"],
)
def test_finished_trial_leaves_no_reference_cycles(observed, failure):
    # Campaigns run trials back to back: whatever only the cycle collector
    # can free piles up until it runs and sets the campaign's peak memory.
    # A node failing mid-run interrupts processes, whose unhandled
    # Interrupt must not keep its frame alive through its traceback.
    config = SimulationConfig(
        scheduler="EDF", seed=7, jobs=(JobConfig(num_blocks=96, num_reduce_tasks=8),),
        **failure,
    )
    kwargs = {"observer": ObservabilityCollector(), "check": True} if observed else {}
    gc.collect()
    gc.disable()
    try:
        run_simulation(config, **kwargs)
        kwargs.clear()
        assert gc.collect() == 0
    finally:
        gc.enable()
