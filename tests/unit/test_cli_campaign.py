"""Unit tests for the ``repro campaign`` CLI family and its exit codes."""

from __future__ import annotations

import argparse
import json

import pytest

from repro.cli import _build_parser, main

QUICK = ["--schedulers", "LF", "--seeds", "1", "--blocks", "60", "--backoff", "0.0"]

#: Every campaign subcommand's options as (dest, default, required).  The
#: shared flags are declared once, in argparse parent parsers; this pins that
#: no subcommand gains or loses a flag or changes a default through them.
CAMPAIGN_OPTIONS = {
    "campaign run": {
        "--backoff": ("backoff", 0.5, False),
        "--blocks": ("blocks", 1440, False),
        "--cache-dir": ("cache_dir", None, False),
        "--journal": ("journal_path", None, False),
        "--nodes": ("nodes", 40, False),
        "--report": ("report_path", None, False),
        "--retries": ("retries", 2, False),
        "--schedulers": ("schedulers", "LF,BDF,EDF", False),
        "--seeds": ("seeds", 5, False),
        "--spec": ("spec_path", None, False),
        "--trial-timeout": ("trial_timeout", None, False),
        "--workers": ("workers", None, False),
    },
    "campaign status": {
        "--journal": ("journal_path", None, True),
    },
    "tournament": {
        "--blocks": ("blocks", 1440, False),
        "--cache-dir": ("cache_dir", None, False),
        "--check": ("check", False, False),
        "--code": ("code", "20,15", False),
        "--corpus": ("corpus_dir", None, False),
        "--html": ("html_path", None, False),
        "--journal": ("journal_path", None, False),
        "--json": ("json_path", None, False),
        "--nodes": ("nodes", 40, False),
        "--policies": ("policies", None, False),
        "--racks": ("racks", 4, False),
        "--retries": ("retries", 2, False),
        "--seeds": ("seeds", 3, False),
        "--trial-timeout": ("trial_timeout", None, False),
        "--workers": ("workers", None, False),
    },
    "reliability": {
        "--arrival-mean": ("arrival_mean", 300.0, False),
        "--blocks": ("blocks", 60, False),
        "--cache-dir": ("cache_dir", None, False),
        "--check": ("check", False, False),
        "--horizon-years": ("horizon_years", 1.0, False),
        "--iterations": ("iterations", 3, False),
        "--journal": ("journal_path", None, False),
        "--json": ("json_path", None, False),
        "--lse-mtbc-years": ("lse_mtbc_years", None, False),
        "--model": ("model", "exponential", False),
        "--mttf-days": ("mttf_days", 30.0, False),
        "--mttr-hours": ("mttr_hours", 2.0, False),
        "--seed": ("seed", 0, False),
        "--weibull-shape": ("weibull_shape", 0.7, False),
        "--window-duration": ("window_duration", 1800.0, False),
        "--windows": ("windows", 3, False),
    },
}
CAMPAIGN_OPTIONS["campaign resume"] = CAMPAIGN_OPTIONS["campaign run"]


def _subparser(path: str) -> argparse.ArgumentParser:
    parser = _build_parser()
    for name in path.split():
        action = next(
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        parser = action.choices[name]
    return parser


class TestCampaignFlags:
    @pytest.mark.parametrize("path", sorted(CAMPAIGN_OPTIONS))
    def test_option_snapshot(self, path):
        options = {
            option: (action.dest, action.default, action.required)
            for action in _subparser(path)._actions
            if not isinstance(action, argparse._HelpAction)
            for option in action.option_strings
        }
        assert options == CAMPAIGN_OPTIONS[path]


class TestCampaignRun:
    def test_quick_sweep_exit_zero(self, tmp_path, capsys):
        report_path = str(tmp_path / "report.json")
        code = main(["campaign", "run", *QUICK, "--report", report_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "== campaign ==" in out
        assert "1 submitted, 1 done" in out
        report = json.loads(open(report_path).read())
        assert report["schema"] == "repro.campaign-report/v1"
        assert report["accounting"]["submitted"] == 1
        assert report["schedulers"]["LF"]["done"] == 1

    def test_spec_file_round_trip(self, tmp_path, capsys):
        from repro.experiments.campaign import SweepSpec
        from repro.mapreduce.config import JobConfig, SimulationConfig

        spec = SweepSpec(
            base=SimulationConfig(jobs=(JobConfig(num_blocks=60),)),
            schedulers=("LF",),
            seeds=(0,),
        )
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec.to_dict()))
        code = main(["campaign", "run", "--spec", str(spec_path)])
        assert code == 0
        assert "== campaign ==" in capsys.readouterr().out

    def test_bad_spec_schema_exit_two(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"schema": "wrong/v1"}')
        assert main(["campaign", "run", "--spec", str(spec_path)]) == 2
        assert "bad campaign options" in capsys.readouterr().err

    def test_bad_retries_exit_two(self, capsys):
        assert main(["campaign", "run", *QUICK, "--retries", "-1"]) == 2
        assert "bad campaign options" in capsys.readouterr().err

    def test_empty_schedulers_exit_two(self, capsys):
        assert main(["campaign", "run", "--schedulers", ",", "--seeds", "1"]) == 2
        assert "bad campaign options" in capsys.readouterr().err


class TestCampaignResume:
    def test_resume_without_journal_exit_two(self, capsys):
        assert main(["campaign", "resume", *QUICK]) == 2
        assert "--journal" in capsys.readouterr().err

    def test_resume_missing_journal_exit_two(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.jsonl")
        assert main(["campaign", "resume", *QUICK, "--journal", missing]) == 2
        assert "no journal" in capsys.readouterr().err

    def test_resume_replays_finished_sweep(self, tmp_path, capsys):
        journal = str(tmp_path / "journal.jsonl")
        assert main(["campaign", "run", *QUICK, "--journal", journal]) == 0
        capsys.readouterr()
        assert main(["campaign", "resume", *QUICK, "--journal", journal]) == 0
        assert "1 submitted, 1 done" in capsys.readouterr().out


class TestCampaignStatus:
    def test_status_summarises_journal(self, tmp_path, capsys):
        journal = str(tmp_path / "journal.jsonl")
        assert main(["campaign", "run", *QUICK, "--journal", journal]) == 0
        capsys.readouterr()
        assert main(["campaign", "status", "--journal", journal]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["trials"] == 1
        assert status["done"] == 1
        assert status["failed"] == 0
        assert status["corrupt_lines"] == 0

    def test_status_empty_journal(self, tmp_path, capsys):
        journal = str(tmp_path / "absent.jsonl")
        assert main(["campaign", "status", "--journal", journal]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["trials"] == 0


class TestFuzzCampaignAxis:
    def test_campaign_fuzz_clean_exit_zero(self, capsys, tmp_path):
        code = main(
            [
                "fuzz",
                "--trials",
                "1",
                "--seed",
                "5",
                "--campaign",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "campaign-fuzzed 2 batch(es)" in out
        assert "0 accounting violation(s)" in out


class TestExitCodesDocumented:
    def test_docstring_lists_exit_code_five(self):
        import repro.cli

        assert "``5``" in repro.cli.__doc__
        assert "checkpointed" in repro.cli.__doc__
