"""CLI semantics for ``repro lint``: flags, formats, exit codes."""

import json

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def project(tmp_path, monkeypatch):
    """A tiny project directory the CLI runs against (cwd-relative)."""
    monkeypatch.chdir(tmp_path)
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "clean.py").write_text(
        '__all__ = ["api"]\n\n\ndef api():\n    return 1\n\n\n'
        "def entry():\n    return api()\n",
        encoding="utf-8",
    )
    return tmp_path


def write_dirty(project):
    # One REP001 violation; the import is read so REP023 stays quiet.
    (project / "pkg" / "dirty.py").write_text(
        "import random\n_RNG = random\n", encoding="utf-8"
    )


class TestParser:
    def test_lint_defaults(self):
        args = build_parser().parse_args(["lint"])
        assert not args.paths
        assert args.output_format == "text"
        assert args.baseline == "lint-baseline.txt"
        assert args.update_baseline is False

    def test_bad_format_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["lint", "--format", "xml"])
        assert excinfo.value.code == 2


class TestExitCodes:
    def test_clean_tree_exits_zero(self, project, capsys):
        assert main(["lint", "pkg"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, project, capsys):
        write_dirty(project)
        assert main(["lint", "pkg"]) == 1
        out = capsys.readouterr().out
        assert "pkg/dirty.py:1:0: REP001" in out

    def test_unknown_rule_id_exits_two(self, project, capsys):
        assert main(["lint", "pkg", "--select", "REP999"]) == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_missing_path_exits_two(self, project, capsys):
        assert main(["lint", "no/such/dir"]) == 2
        assert "no such file or directory" in capsys.readouterr().err


class TestSelectIgnore:
    def test_select_limits_rules(self, project, capsys):
        write_dirty(project)
        assert main(["lint", "pkg", "--select", "REP010"]) == 0

    def test_ignore_suppresses_rule(self, project, capsys):
        write_dirty(project)
        assert main(["lint", "pkg", "--ignore", "REP001,REP022"]) == 0


class TestJsonFormat:
    def test_json_payload_shape(self, project, capsys):
        write_dirty(project)
        assert main(["lint", "pkg", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["count"] == len(payload["findings"]) == 1
        finding = payload["findings"][0]
        assert finding["rule"] == "REP001"
        assert finding["path"] == "pkg/dirty.py"
        assert finding["line"] == 1
        assert finding["fingerprint"]

    def test_json_clean_tree(self, project, capsys):
        assert main(["lint", "pkg", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 0
        assert payload["findings"] == []


class TestBaselineFlow:
    def test_update_then_clean(self, project, capsys):
        write_dirty(project)
        assert main(["lint", "pkg", "--update-baseline"]) == 0
        assert (project / "lint-baseline.txt").exists()
        capsys.readouterr()
        assert main(["lint", "pkg"]) == 0
        assert "1 baselined" in capsys.readouterr().out

    def test_new_violation_not_masked_by_baseline(self, project, capsys):
        write_dirty(project)
        main(["lint", "pkg", "--update-baseline"])
        (project / "pkg" / "worse.py").write_text(
            "import secrets\n", encoding="utf-8"
        )
        capsys.readouterr()
        assert main(["lint", "pkg"]) == 1
        assert "REP005" in capsys.readouterr().out

    def test_stale_entries_surface_in_text(self, project, capsys):
        write_dirty(project)
        main(["lint", "pkg", "--update-baseline"])
        (project / "pkg" / "dirty.py").unlink()
        capsys.readouterr()
        assert main(["lint", "pkg"]) == 0
        assert "stale baseline entry" in capsys.readouterr().out

    def test_custom_baseline_path(self, project, capsys):
        write_dirty(project)
        target = "allow.txt"
        assert main(
            ["lint", "pkg", "--baseline", target, "--update-baseline"]
        ) == 0
        assert (project / target).exists()
        capsys.readouterr()
        assert main(["lint", "pkg", "--baseline", target]) == 0


class TestDualCoverage:
    """Baseline entries covered by an inline suppression are stale."""

    def write_dual_covered(self, project):
        # The violating line carries its own allow comment; a baseline
        # entry for the same fingerprint is the redundant excuse.
        from repro.analysis import Analyzer

        (project / "pkg" / "dirty.py").write_text(
            "import random  # repro: allow[REP001] -- fixture exception\n"
            "_RNG = random\n",
            encoding="utf-8",
        )
        result = Analyzer(root=str(project), select=["REP001"]).analyze(
            [str(project / "pkg")]
        )
        covered = result.inline_suppressed[0]
        (project / "lint-baseline.txt").write_text(
            f"{covered.rule_id} {covered.path} {covered.fingerprint}"
            "  # redundant copy of the inline justification\n",
            encoding="utf-8",
        )

    def test_report_names_the_inline_coverage(self, project, capsys):
        self.write_dual_covered(project)
        assert main(["lint", "pkg"]) == 0
        out = capsys.readouterr().out
        assert "covered by an inline suppression" in out
        assert "remove the redundant baseline entry" in out
        assert "violation no longer exists" not in out

    def test_json_report_carries_the_reason(self, project, capsys):
        self.write_dual_covered(project)
        main(["lint", "pkg", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        stale = payload["stale_baseline_entries"]
        assert len(stale) == 1
        assert stale[0]["reason"] == "inline"

    def test_update_baseline_drops_and_reports_the_entry(
        self, project, capsys
    ):
        self.write_dual_covered(project)
        assert main(["lint", "pkg", "--update-baseline"]) == 0
        out = capsys.readouterr().out
        assert "1 stale entry(ies) dropped" in out
        text = (project / "lint-baseline.txt").read_text(encoding="utf-8")
        assert "REP001" not in text
        # The regenerated baseline is clean and stays that way.
        assert main(["lint", "pkg"]) == 0
        assert "stale baseline entry" not in capsys.readouterr().out
