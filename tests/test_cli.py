"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_study_defaults(self):
        args = build_parser().parse_args(["study"])
        assert args.population == 2000
        assert args.days == 42
        assert args.warmup == 56

    def test_attack_args(self):
        args = build_parser().parse_args(
            ["attack", "--population", "300", "--gbps", "500"]
        )
        assert args.gbps == 500.0

    def test_plan_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["purge-probe", "--plan", "platinum"])

    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.population == 2000
        assert args.warmup == 7
        assert args.label is None
        assert args.out is None


class TestCommands:
    def test_attack_command(self, capsys):
        code = main(["attack", "--population", "200", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "path=scrubbed" in out
        assert "path=direct" in out
        assert "site down" in out

    def test_purge_probe_command(self, capsys):
        code = main(["purge-probe", "--population", "120", "--seed", "3",
                     "--trials", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "purged in week 4" in out

    def test_scan_command(self, capsys):
        code = main(["scan", "--population", "800", "--seed", "3",
                     "--warmup", "40"])
        out = capsys.readouterr().out
        assert code == 0
        assert "hidden=" in out

    def test_scan_with_nothing_harvested_exits_1(self, capsys):
        # Three sites carry no Cloudflare delegation: the day's sweep is
        # recorded as skipped and the command says why.
        code = main(["scan", "--population", "3", "--seed", "3",
                     "--warmup", "1"])
        assert code == 1
        assert "no nameservers harvested" in capsys.readouterr().out

    def test_bench_command(self, capsys, tmp_path):
        out_path = tmp_path / "BENCH_clitest.json"
        code = main([
            "bench", "--population", "120", "--seed", "3",
            "--warmup", "2", "--label", "clitest", "--out", str(out_path),
        ])
        printed = capsys.readouterr().out
        assert code == 0
        assert "E1 collection" in printed
        assert f"bench written to {out_path}" in printed
        payload = json.loads(out_path.read_text())
        assert payload["label"] == "clitest"
        assert payload["population"] == 120
        counters = payload["e1_collection"]["counters"]
        assert counters["resolver.queries_sent"] > 0

    def test_bench_default_out_uses_label(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["bench", "--population", "60", "--seed", "3",
                     "--warmup", "1"])
        assert code == 0
        assert (tmp_path / "BENCH_p60.json").exists()

    def test_study_command_small(self, capsys):
        code = main([
            "study", "--population", "250", "--seed", "3",
            "--days", "8", "--warmup", "5",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "Fig. 2" in out and "Table VI" in out


class TestChaosCommand:
    def test_chaos_parser_defaults(self):
        args = build_parser().parse_args(["chaos", "--profile", "lossy-default"])
        assert args.profile == "lossy-default"
        assert args.population == 400
        assert args.seed == 2018
        assert args.warmup == 21
        assert args.out is None

    def test_chaos_profile_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--profile", "nope"])

    def test_chaos_equivalence_profile_passes(self, capsys, tmp_path):
        out_path = tmp_path / "CHAOS_clitest.json"
        code = main([
            "chaos", "--profile", "lossy-default", "--population", "80",
            "--seed", "3", "--warmup", "5", "--out", str(out_path),
        ])
        printed = capsys.readouterr().out
        assert code == 0
        assert "artifacts identical to the fault-free run" in printed
        payload = json.loads(out_path.read_text())
        assert payload["profile"] == "lossy-default"
        assert payload["identical"] is True
        assert payload["passed"] is True
        assert payload["divergences"] == []

    def test_chaos_exits_nonzero_on_divergence(self, capsys, tmp_path, monkeypatch):
        import repro.faults.chaos as chaos_module

        failing = {
            "profile": "lossy-default",
            "description": "stub",
            "expect_equivalence": True,
            "population": 10,
            "seed": 1,
            "warmup_days": 1,
            "identical": False,
            "divergences": ["collection.www.example.com.rcode"],
            "faults_injected": 5,
            "retries": {"resolver": 1, "client": 0, "http": 0},
            "unmeasured_sites": 0,
            "quarantined_nameservers": [],
            "counters": {},
            "passed": False,
        }
        monkeypatch.setattr(chaos_module, "run_chaos", lambda *a, **k: failing)
        monkeypatch.chdir(tmp_path)
        code = main(["chaos", "--profile", "lossy-default"])
        captured = capsys.readouterr()
        assert code == 1
        assert "chaos check FAILED" in captured.err
        assert (tmp_path / "CHAOS_lossy-default.json").exists()


class TestCheckpointCommands:
    def test_resume_parser_defaults(self):
        args = build_parser().parse_args(["resume", "ckpt-dir"])
        assert args.checkpoint == "ckpt-dir"
        assert args.population == 2000
        assert args.seed == 2018
        assert args.days == 42
        assert args.warmup == 56
        assert args.fault_profile is None

    def test_kill_matrix_parser_defaults(self):
        args = build_parser().parse_args(["kill-matrix"])
        assert args.population == 2000
        assert args.days == 4
        assert args.warmup == 10
        assert args.out == "KILLMATRIX.json"
        assert args.workdir is None

    def test_fault_profile_requires_checkpoint(self, capsys):
        code = main([
            "study", "--population", "150", "--seed", "11",
            "--days", "1", "--warmup", "2",
            "--fault-profile", "lossy-default",
        ])
        assert code == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_checkpointed_study_then_resume(self, capsys, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        base = ["--population", "150", "--seed", "11",
                "--days", "2", "--warmup", "4"]
        code = main(["study", "--checkpoint", ckpt] + base)
        assert code == 0
        assert "Table VI" in capsys.readouterr().out

        # Mismatched seed must refuse with a nonzero exit.
        wrong = ["resume", ckpt, "--population", "150", "--seed", "12",
                 "--days", "2", "--warmup", "4"]
        code = main(wrong)
        captured = capsys.readouterr()
        assert code == 1
        assert "seed" in captured.err

        # Matching inputs resume cleanly (the run is already complete).
        code = main(["resume", ckpt] + base)
        assert code == 0
        assert "Table VI" in capsys.readouterr().out

    def test_study_checkpoint_refuses_reuse(self, capsys, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        base = ["--population", "150", "--seed", "11",
                "--days", "1", "--warmup", "2"]
        assert main(["study", "--checkpoint", ckpt] + base) == 0
        capsys.readouterr()
        code = main(["study", "--checkpoint", ckpt] + base)
        captured = capsys.readouterr()
        assert code == 1
        assert "already holds a manifest" in captured.err

    def test_bad_profile_name_refused_before_any_directory(
        self, capsys, tmp_path
    ):
        ckpt = tmp_path / "ckpt"
        code = main([
            "study", "--population", "150", "--seed", "11",
            "--days", "1", "--warmup", "2",
            "--checkpoint", str(ckpt), "--fault-profile", "bogus",
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1
        assert "unknown fault profile 'bogus'" in err
        assert not ckpt.exists()

    def test_fault_profile_none_is_off(self, capsys):
        code = main([
            "study", "--population", "60", "--seed", "5",
            "--days", "1", "--warmup", "1", "--fault-profile", "none",
        ])
        assert code == 0
        assert "Table VI" in capsys.readouterr().out

    def test_slice_dependent_fault_profile_refuses_to_shard(
        self, capsys, tmp_path
    ):
        ckpt = tmp_path / "ckpt"
        code = main([
            "study", "--population", "60", "--days", "1", "--warmup", "1",
            "--shards", "2", "--shard-mode", "inline",
            "--checkpoint", str(ckpt), "--fault-profile", "heavy-loss",
        ])
        assert code == 1
        assert "cannot be sharded" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_kill_matrix_command(self, capsys, tmp_path):
        out_path = tmp_path / "KILLMATRIX.json"
        code = main([
            "kill-matrix", "--population", "150", "--seed", "11",
            "--days", "1", "--warmup", "4",
            "--workdir", str(tmp_path / "work"), "--out", str(out_path),
        ])
        printed = capsys.readouterr().out
        assert code == 0
        assert "3 crash case(s)" in printed
        payload = json.loads(out_path.read_text())
        assert payload["passed"] is True
        assert len(payload["cases"]) == 3


class TestShardFlags:
    def test_study_shard_defaults(self):
        args = build_parser().parse_args(["study"])
        assert args.shards == 1
        assert args.shard_mode == "process"

    def test_kill_matrix_shard_defaults_to_inline(self):
        args = build_parser().parse_args(["kill-matrix"])
        assert args.shards == 1
        assert args.shard_mode == "inline"

    @pytest.mark.parametrize("count", ["0", "-2"])
    @pytest.mark.parametrize("checkpoint", [False, True])
    def test_study_rejects_shard_count_below_one(
        self, capsys, tmp_path, count, checkpoint
    ):
        ckpt = tmp_path / "ckpt"
        code = main(
            ["study", "--population", "60", "--days", "1", "--warmup", "1",
             "--shards", count]
            + (["--checkpoint", str(ckpt)] if checkpoint else [])
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"repro study: --shards must be at least 1, got {count}\n"
        assert not ckpt.exists()

    def test_kill_matrix_rejects_shard_count_below_one(self, capsys, tmp_path):
        out_path = tmp_path / "KILLMATRIX.json"
        code = main([
            "kill-matrix", "--population", "60", "--days", "1",
            "--warmup", "1", "--shards", "0",
            "--workdir", str(tmp_path / "work"), "--out", str(out_path),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "repro kill-matrix: --shards must be at least 1, got 0\n"
        assert not out_path.exists()
        assert not (tmp_path / "work").exists()

    def test_sharded_study_fault_profile_requires_checkpoint(self, capsys):
        code = main([
            "study", "--population", "60", "--days", "1", "--warmup", "1",
            "--shards", "2", "--fault-profile", "lossy-default",
        ])
        assert code == 2
        assert "requires --checkpoint" in capsys.readouterr().err

    def test_sharded_study_command_small(self, capsys, tmp_path):
        export = tmp_path / "report.json"
        code = main([
            "study", "--population", "60", "--seed", "5",
            "--days", "2", "--warmup", "3",
            "--shards", "2", "--shard-mode", "inline",
            "--export", str(export),
        ])
        printed = capsys.readouterr().out
        assert code == 0
        assert "SIX-WEEK STUDY" in printed or "study" in printed.lower()
        assert json.loads(export.read_text())["population_size"] == 60


class TestTrafficFlags:
    def test_traffic_defaults_to_none(self):
        for command in (["study"], ["bench"], ["kill-matrix"]):
            assert build_parser().parse_args(command).traffic is None

    def test_unknown_profile_rejected(self, capsys):
        code = main([
            "study", "--population", "60", "--days", "1", "--warmup", "1",
            "--traffic", "tsunami",
        ])
        assert code == 2
        assert "unknown traffic profile" in capsys.readouterr().err

    def test_traffic_list_command(self, capsys):
        assert main(["traffic"]) == 0
        out = capsys.readouterr().out
        for name in ("steady", "surge", "flood"):
            assert name in out

    def test_traffic_drive_command(self, capsys):
        code = main([
            "traffic", "--profile", "flood",
            "--population", "200", "--days", "3",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "profile flood" in out
        assert "load tier now" in out

    def test_traffic_none_profile_is_a_no_op(self, capsys):
        assert main(["traffic", "--profile", "none"]) == 0
        assert "no background traffic" in capsys.readouterr().out

    def test_study_with_traffic_matches_plain_run_when_steady(
        self, capsys, tmp_path
    ):
        plain, steady = tmp_path / "plain.json", tmp_path / "steady.json"
        base = [
            "study", "--population", "60", "--seed", "5",
            "--days", "2", "--warmup", "3",
        ]
        assert main(base + ["--export", str(plain)]) == 0
        assert main(
            base + ["--traffic", "steady", "--export", str(steady)]
        ) == 0
        capsys.readouterr()
        assert plain.read_text() == steady.read_text()


class TestAttackFlags:
    def test_attacks_defaults_to_none(self):
        for command in (
            ["study"],
            ["bench"],
            ["kill-matrix"],
            ["chaos", "--profile", "lossy-default"],
        ):
            assert build_parser().parse_args(command).attacks is None

    def test_unknown_profile_rejected(self, capsys):
        code = main([
            "study", "--population", "60", "--days", "1", "--warmup", "1",
            "--attacks", "armageddon",
        ])
        assert code == 2
        assert "unknown attack profile" in capsys.readouterr().err

    def test_attacks_list_command(self, capsys):
        assert main(["attacks"]) == 0
        out = capsys.readouterr().out
        for name in ("quiet", "skirmish", "campaign", "blitz"):
            assert name in out

    def test_attacks_drive_command(self, capsys):
        code = main([
            "attacks", "--profile", "campaign",
            "--population", "200", "--days", "42",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "profile campaign: schedule" in out
        assert "OVERWHELMS" in out
        assert "drove 42 day(s)" in out

    def test_attacks_none_profile_is_a_no_op(self, capsys):
        assert main(["attacks", "--profile", "none"]) == 0
        assert "no attacks to drive" in capsys.readouterr().out

    def test_study_with_attacks_matches_plain_run_when_quiet(
        self, capsys, tmp_path
    ):
        import json

        plain, quiet = tmp_path / "plain.json", tmp_path / "quiet.json"
        base = [
            "study", "--population", "60", "--seed", "5",
            "--days", "2", "--warmup", "3",
        ]
        assert main(base + ["--export", str(plain)]) == 0
        assert main(
            base + ["--attacks", "quiet", "--export", str(quiet)]
        ) == 0
        capsys.readouterr()
        plain_payload = json.loads(plain.read_text())
        quiet_payload = json.loads(quiet.read_text())
        assert plain_payload.pop("attacks") is None
        assert quiet_payload.pop("attacks")["events"] == []
        assert plain_payload == quiet_payload
