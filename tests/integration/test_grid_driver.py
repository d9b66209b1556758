"""The campaign grid driver shared by sweeps, tournaments and reliability.

Every campaign kind runs :func:`~repro.experiments.campaign.sweep_trial`
through :func:`~repro.experiments.campaign.run_grid`.  The sha256 pins
below fix the canonical report JSON of one small sweep and one small
reliability campaign; a drift in merge order, row shape or the JSON
writer changes them.  Each pin is checked serially and through the
process pool.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib

import pytest

from repro.cluster.network import mbps
from repro.ec.codec import CodeParams
from repro.experiments import reliability, tournament
from repro.experiments.campaign import (
    CampaignPolicy,
    SweepSpec,
    report_to_json,
    run_grid,
    run_sweep,
    sweep_trial,
)
from repro.faults.models import DAY, HOUR, YEAR, ExponentialLifetimes
from repro.faults.schedule import FailEvent, FailureSchedule
from repro.mapreduce.config import JobConfig, SimulationConfig
from repro.mapreduce.workload import PoissonArrivals
from repro.storage.repair_driver import RepairConfig

SMALL = SimulationConfig(
    num_nodes=12, num_racks=3, code=CodeParams(6, 4), jobs=(JobConfig(num_blocks=48),)
)

SWEEP = SweepSpec(base=SMALL, schedulers=("LF", "EDF"), seeds=(0, 1))
SWEEP_SHA256 = "a0e4815669e348f94a4d059a0e5457c7b18baab130e4acd7045ef8ec7d1e85af"

#: Harsh churn on purpose: two of three windows per policy are data-loss
#: windows (refused trials), so the pin covers the refusal path too.
RELIABILITY = reliability.CampaignConfig(
    model=ExponentialLifetimes(mttf=0.5 * DAY, mttr=12.0 * HOUR),
    arrivals=PoissonArrivals(
        mean_interarrival=120.0,
        templates=(JobConfig(num_blocks=48, num_reduce_tasks=4),),
    ),
    base=SimulationConfig(num_nodes=12, num_racks=3, code=CodeParams(6, 4)),
    horizon=0.02 * YEAR,
    iterations=1,
    num_windows=3,
    window_duration=600.0,
    repair=RepairConfig(bandwidth_cap=mbps(100.0)),
    seed=7,
)
RELIABILITY_SHA256 = "9839e74493d28c2fcd9253a66e3a2c9febbb5e15327d95f3c8ad48b814ec762d"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_report_is_pinned(monkeypatch, workers):
    monkeypatch.setenv("REPRO_WORKERS", workers)
    report, outcome = run_sweep(SWEEP)
    assert outcome.counters.done == 4
    assert _sha256(report_to_json(report)) == SWEEP_SHA256


@pytest.mark.parametrize("workers", ["1", "2"])
def test_reliability_report_is_pinned(monkeypatch, workers):
    monkeypatch.setenv("REPRO_WORKERS", workers)
    report = reliability.run_campaign(RELIABILITY)
    assert all(row["data_loss_windows"] == 2 for row in report["policies"].values())
    assert _sha256(reliability.report_to_json(report)) == RELIABILITY_SHA256


def test_report_writer_is_shared():
    assert tournament.report_to_json is report_to_json
    assert reliability.report_to_json is report_to_json
    with pytest.raises(ValueError):
        report_to_json({"mean": float("nan")})


class TestSweepTrialPayload:
    def test_completed_trial_carries_loss_flag_and_slope(self):
        config = dataclasses.replace(
            SMALL,
            scheduler="LF",
            jobs=(JobConfig(num_blocks=48), JobConfig(num_blocks=48, submit_time=50.0)),
        )
        payload = sweep_trial(config)
        assert payload["refused"] is False
        assert payload["data_loss"] is False
        assert payload["jobs"] == {"submitted": 2, "completed": 2, "failed": 0}
        assert isinstance(payload["slope"], float)
        assert set(payload["digests"]) == {"degraded_read", "sojourn", "makespan"}

    def test_refused_trial_is_a_data_loss_observation(self):
        down = FailureSchedule(
            events=tuple(FailEvent(at=0.0, node=node) for node in range(6))
        )
        payload = sweep_trial(dataclasses.replace(SMALL, failure_schedule=down))
        assert payload == {
            "refused": True,
            "data_loss": True,
            "jobs": None,
            "slope": None,
            "digests": None,
        }


class TestRunGrid:
    def test_rows_follow_group_order_and_count_every_trial(self):
        configs, keys = SWEEP.grid()
        rows, outcome = run_grid(
            configs, keys, ("EDF", "LF"), 0, policy=CampaignPolicy(workers=1)
        )
        assert list(rows) == ["EDF", "LF"]
        for name, row in rows.items():
            assert row.trials == row.to_dict()["done"] == 2
            assert [key for key, _payload in row.payloads] == [(name, 0), (name, 1)]
        assert outcome.counters.consistent()

    def test_tournament_runs_its_module_level_sweep_trial(self, monkeypatch):
        calls = []

        @functools.wraps(sweep_trial)
        def counted(config):
            calls.append(config.scheduler)
            return sweep_trial(config)

        monkeypatch.setattr(tournament, "sweep_trial", counted)
        spec = tournament.TournamentSpec(
            scenarios=(("small", SMALL),), policies=("LF", "EDF"), seeds=(0,)
        )
        report, _outcome = tournament.run_tournament(
            spec, CampaignPolicy(workers=1, on_error="collect")
        )
        assert calls == ["LF", "EDF"]
        assert report["accounting"]["done"] == 2
