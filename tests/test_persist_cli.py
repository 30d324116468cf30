"""The ``repro run``/``repro chaos --replay`` checkpoint CLI, end to end.

Exercises :func:`repro.persist.cli.run_scenario_command` through argparse
namespaces exactly as ``__main__`` builds them: exit codes, crash-point
injection, resume-to-golden, snapshot refusal, signal checkpointing, and
chaos-report replay.
"""

import argparse
import json

import pytest

from repro.persist import cli as pcli
from repro.persist.codec import load_snapshot
from repro.sim.faults import run_chaos
from tests.golden_scenarios import load_golden

GOLDEN = load_golden()


def make_args(experiment, **overrides):
    defaults = dict(
        experiment=experiment, checkpoint=None,
        checkpoint_every=None, resume=None, crash_at=None, digest_out=None,
    )
    defaults.update(overrides)
    return argparse.Namespace(**defaults)


class TestRunScenario:
    def test_unknown_scenario_is_usage_error(self, capsys):
        assert pcli.run_scenario_command(make_args("nope")) == pcli.EXIT_USAGE
        assert "unknown checkpointable scenario" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["e4_phases", "eventloop_mixed"])
    def test_finished_run_emits_golden_digest(self, name, tmp_path, capsys):
        digest_path = str(tmp_path / "digest.txt")
        code = pcli.run_scenario_command(
            make_args(name, digest_out=digest_path))
        assert code == pcli.EXIT_OK
        written = open(digest_path, encoding="utf-8").read().strip()
        assert written == GOLDEN[name]["heap"]
        assert written in capsys.readouterr().out

    def test_scenario_runs_from_the_command_line(self, tmp_path):
        # Through the real parser, which has no eligible-set choice.
        from repro.__main__ import main

        digest_path = str(tmp_path / "digest.txt")
        assert main(["run", "e4_phases",
                     "--digest-out", digest_path]) == pcli.EXIT_OK
        written = open(digest_path, encoding="utf-8").read().strip()
        assert written == GOLDEN["e4_phases"]["heap"]

    def test_drive_crash_then_resume_matches_golden(self, tmp_path, capsys):
        ck = str(tmp_path / "ck.json")
        code = pcli.run_scenario_command(make_args(
            "e4_phases", crash_at="packet:500", checkpoint=ck))
        assert code == pcli.EXIT_CHECKPOINTED
        assert "checkpoint written" in capsys.readouterr().out

        digest_path = str(tmp_path / "digest.txt")
        code = pcli.run_scenario_command(make_args(
            "e4_phases", resume=ck, digest_out=digest_path))
        assert code == pcli.EXIT_OK
        resumed = open(digest_path, encoding="utf-8").read().strip()
        assert resumed == GOLDEN["e4_phases"]["heap"]

    def test_runtime_crash_then_resume_matches_golden(self, tmp_path):
        ck = str(tmp_path / "ck.json")
        code = pcli.run_scenario_command(make_args(
            "eventloop_mixed", crash_at="event:400", checkpoint=ck))
        assert code == pcli.EXIT_CHECKPOINTED

        digest_path = str(tmp_path / "digest.txt")
        code = pcli.run_scenario_command(make_args(
            "eventloop_mixed", resume=ck, digest_out=digest_path))
        assert code == pcli.EXIT_OK
        resumed = open(digest_path, encoding="utf-8").read().strip()
        assert resumed == GOLDEN["eventloop_mixed"]["heap"]

    def test_drive_rejects_event_crash_spec(self, tmp_path, capsys):
        code = pcli.run_scenario_command(make_args(
            "e4_phases", crash_at="event:10",
            checkpoint=str(tmp_path / "ck.json")))
        assert code == pcli.EXIT_USAGE
        assert "packet:K" in capsys.readouterr().err

    def test_crash_without_checkpoint_is_usage_error(self, capsys):
        code = pcli.run_scenario_command(make_args(
            "eventloop_mixed", crash_at="event:10"))
        assert code == pcli.EXIT_USAGE
        assert "--checkpoint" in capsys.readouterr().err

    def test_tampered_snapshot_refused_with_reason(self, tmp_path, capsys):
        ck = str(tmp_path / "ck.json")
        pcli.run_scenario_command(make_args(
            "e4_phases", crash_at="packet:200", checkpoint=ck))
        doc = json.load(open(ck, encoding="utf-8"))
        doc["checksum"] = "sha256:" + "0" * 64
        with open(ck, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code = pcli.run_scenario_command(make_args("e4_phases", resume=ck))
        assert code == pcli.EXIT_USAGE
        assert "snapshot refused [checksum-mismatch]" in capsys.readouterr().err

    def test_resume_into_wrong_scenario_refused(self, tmp_path, capsys):
        ck = str(tmp_path / "ck.json")
        pcli.run_scenario_command(make_args(
            "e4_phases", crash_at="packet:200", checkpoint=ck))
        code = pcli.run_scenario_command(make_args("rt_only", resume=ck))
        assert code == pcli.EXIT_USAGE
        assert "snapshot refused" in capsys.readouterr().err


class FakeSignalRequest:
    """A SignalCheckpointRequest whose signal 'arrived' before the run."""

    requested = True

    def install(self, *signums):
        return self

    def uninstall(self):
        pass


class TestSignalPath:
    def test_drive_signal_stops_at_boundary_resumably(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(pcli, "SignalCheckpointRequest", FakeSignalRequest)
        ck = str(tmp_path / "ck.json")
        code = pcli.run_scenario_command(make_args(
            "e4_phases", checkpoint=ck, checkpoint_every=300))
        assert code == pcli.EXIT_CHECKPOINTED
        assert "signal" in capsys.readouterr().out
        body = load_snapshot(ck)  # valid envelope, resumable
        monkeypatch.undo()
        digest_path = str(tmp_path / "digest.txt")
        code = pcli.run_scenario_command(make_args(
            "e4_phases", resume=ck, digest_out=digest_path))
        assert code == pcli.EXIT_OK
        resumed = open(digest_path, encoding="utf-8").read().strip()
        assert resumed == GOLDEN["e4_phases"]["heap"]
        assert len(body["served"]) == 300  # stopped at the first boundary


class TestChaosReplay:
    def _write_report(self, path, reports):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"runs": reports, "failed": 0}, fh)

    def test_replay_clean_report_matches(self, tmp_path, capsys):
        report = run_chaos(3, duration=4.0, policy="reject").to_report()
        path = str(tmp_path / "chaos.json")
        self._write_report(path, [report])
        args = argparse.Namespace(replay=path)
        assert pcli.replay_chaos_command(args) == 0
        out = capsys.readouterr().out
        assert "replaying all 1" in out
        assert "digest=match" in out

    def test_replay_flags_digest_mismatch(self, tmp_path, capsys):
        report = run_chaos(3, duration=4.0, policy="reject").to_report()
        report["schedule_digest"] = "0" * 64
        # Mark it failing so --replay targets it specifically.
        report["violations"] = [
            {"kind": "invariant", "time": 1.0, "detail": "synthetic"}]
        path = str(tmp_path / "chaos.json")
        self._write_report(path, [report])
        args = argparse.Namespace(replay=path)
        assert pcli.replay_chaos_command(args) == 1
        captured = capsys.readouterr()
        assert "replaying 1 failing run(s)" in captured.out
        assert "MISMATCH" in captured.out

    def test_replay_missing_file_is_usage_error(self, tmp_path, capsys):
        args = argparse.Namespace(replay=str(tmp_path / "absent.json"))
        assert pcli.replay_chaos_command(args) == pcli.EXIT_USAGE

    def test_replay_malformed_report_is_usage_error(self, tmp_path, capsys):
        path = str(tmp_path / "bad.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"not-runs": []}, fh)
        args = argparse.Namespace(replay=path)
        assert pcli.replay_chaos_command(args) == pcli.EXIT_USAGE
        assert "'runs'" in capsys.readouterr().err
