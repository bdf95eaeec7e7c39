"""CLI and reporting-engine tests for ``repro analyze``.

Covers the 0/1/2 exit-code contract, ``--format text|json|sarif``,
golden-file schema stability, byte-determinism of reports, and baseline
handling end to end (including malformed baseline files).
"""

import json
from pathlib import Path

import pytest

from repro.api import analyze_tree
from repro.cli import main as cli_main
from repro.tooling.analyzer import analyze_paths
from repro.tooling.analyzer.runner import main as analyzer_main
from repro.tooling.report import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_USAGE,
    Baseline,
    BaselineEntry,
    Finding,
    render_json,
    render_sarif,
)

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "analyzer_fixtures"
REPO_ROOT = HERE.parent
DATA = HERE / "data"

GOLDEN_FINDINGS = [
    Finding(path="src/repro/obs/watch.py", line=11, col=5, code="FB201",
            symbol="repro.obs.watch.Watcher.record",
            message="observability code reaches CLOCK_ADVANCE"),
    Finding(path="src/repro/graph/sampler.py", line=4, col=11, code="FB204",
            symbol="repro.graph.sampler.sample",
            message="direct numpy.random.default_rng() call"),
]
GOLDEN_RULES = {
    "FB201": "observability code reaches CLOCK_ADVANCE/DEVICE_IO",
    "FB204": "direct numpy.random/random primitive outside repro.utils.rng",
}


@pytest.fixture()
def isolated_cwd(tmp_path, monkeypatch):
    """Run CLIs away from the repo root so the committed default baseline
    (analyzer_baseline.json) is not auto-loaded."""
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestExitCodes:
    def test_analyzer_clean_exits_zero(self, isolated_cwd):
        assert analyzer_main([str(FIXTURES / "fb201" / "repro" / "sim")]) == EXIT_CLEAN

    def test_analyzer_findings_exit_one(self, isolated_cwd, capsys):
        assert analyzer_main([str(FIXTURES / "fb204")]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "FB204" in out
        assert out.rstrip().endswith("2 finding(s)")

    def test_analyzer_missing_path_exits_two(self, isolated_cwd, capsys):
        assert analyzer_main(["definitely/not/here"]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_analyzer_bad_baseline_exits_two(self, isolated_cwd, capsys):
        bad = isolated_cwd / "baseline.json"
        bad.write_text('{"schema": "wrong/99", "entries": []}')
        code = analyzer_main(
            [str(FIXTURES / "fb204"), "--baseline", str(bad)]
        )
        assert code == EXIT_USAGE

    def test_single_files_share_the_contract(self, isolated_cwd, capsys):
        clean = isolated_cwd / "clean.py"
        clean.write_text("X = 1\n")
        assert analyzer_main([str(clean)]) == EXIT_CLEAN
        bad = isolated_cwd / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\nT = time.time()\n")
        assert analyzer_main([str(bad)]) == EXIT_FINDINGS
        assert "FB207" in capsys.readouterr().out
        assert analyzer_main(["definitely/not/here"]) == EXIT_USAGE

    def test_repro_cli_subcommands_dispatch(self, isolated_cwd, capsys):
        assert cli_main(["analyze", str(FIXTURES / "fb204")]) == EXIT_FINDINGS
        assert cli_main(["analyze", "--list-rules"]) == 0
        listed = capsys.readouterr().out
        assert "FB102" in listed and "FB109" in listed and "FB206" in listed
        assert (
            cli_main(["analyze", str(REPO_ROOT / "src" / "repro" / "errors.py")])
            == EXIT_CLEAN
        )

    def test_repro_analyze_effects_prints_the_table(self, isolated_cwd, capsys):
        target = str(FIXTURES / "fb201")
        assert cli_main(["analyze", "--effects", target]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "repro.obs.watch.Watcher.record" in out.split("FB201")[0]
        assert "FB201" in out

    @pytest.mark.parametrize("fmt", ["json", "sarif"])
    def test_repro_analyze_effects_with_structured_format_is_a_usage_error(
        self, isolated_cwd, capsys, fmt
    ):
        target = str(FIXTURES / "fb201")
        code = cli_main(["analyze", "--effects", "--format", fmt, target])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err.startswith("error: --effects")
        assert captured.err.count("\n") == 1

    def test_repro_analyze_takes_every_runner_option(self, isolated_cwd, capsys):
        """`fastbfs analyze` hands its argv to the runner's own parser."""
        report = isolated_cwd / "report.json"
        code = cli_main([
            "analyze", "--format=json", "--output", str(report),
            str(FIXTURES / "fb204"),
        ])
        assert code == EXIT_FINDINGS
        assert json.loads(report.read_text())["findings"]
        with pytest.raises(SystemExit) as exc:
            cli_main(["analyze", "-h"])
        assert exc.value.code == 0
        assert "usage: fastbfs analyze" in capsys.readouterr().out


class TestOutputFormats:
    def test_json_document_schema(self, isolated_cwd, capsys):
        analyzer_main([str(FIXTURES / "fb204"), "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "fastbfs-findings/1"
        assert doc["tool"] == "repro.tooling.analyzer"
        assert doc["count"] == 2
        assert set(doc["findings"][0]) == {
            "path", "line", "col", "code", "symbol", "message",
        }
        assert set(doc["rules"]) == {
            "FB102", "FB103", "FB104", "FB105", "FB106", "FB107", "FB108",
            "FB109", "FB200", "FB201", "FB202", "FB203", "FB204", "FB205", "FB206",
            "FB207", "FB208",
        }

    def test_sarif_document_shape(self, isolated_cwd, capsys):
        analyzer_main([str(FIXTURES / "fb204"), "--format", "sarif"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro.tooling.analyzer"
        assert len(run["results"]) == 2
        result = run["results"][0]
        assert result["ruleId"] == "FB204"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert set(region) == {"startLine", "startColumn"}

    def test_json_reports_per_module_rules(self, isolated_cwd, capsys):
        bad = isolated_cwd / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f(x):\n    assert x\n")
        assert analyzer_main([str(bad), "--format", "json"]) == EXIT_FINDINGS
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "fastbfs-findings/1"
        assert doc["tool"] == "repro.tooling.analyzer"
        assert [(f["code"], f["line"]) for f in doc["findings"]] == [("FB102", 2)]
        assert "FB102" in doc["rules"]

    def test_output_flag_writes_file(self, isolated_cwd):
        out = isolated_cwd / "report.sarif"
        analyzer_main(
            [str(FIXTURES / "fb204"), "--format", "sarif", "--output", str(out)]
        )
        assert json.loads(out.read_text())["version"] == "2.1.0"


class TestGoldenFiles:
    """Schema locks: renderer output must match the committed goldens
    byte for byte.  A diff here means the output schema changed — bump
    the schema id and regenerate deliberately."""

    def test_sarif_matches_golden(self):
        rendered = render_sarif(
            GOLDEN_FINDINGS, "repro.tooling.analyzer", GOLDEN_RULES
        )
        golden = (DATA / "golden_findings.sarif").read_text(encoding="utf-8")
        assert rendered == golden

    def test_json_matches_golden(self):
        rendered = render_json(
            GOLDEN_FINDINGS, "repro.tooling.analyzer", GOLDEN_RULES
        )
        golden = (DATA / "golden_findings.json").read_text(encoding="utf-8")
        assert rendered == golden


class TestDeterminism:
    def test_two_runs_render_byte_identical_reports(self, live_analysis):
        first = live_analysis
        second = analyze_paths([str(REPO_ROOT / "src" / "repro")])
        for fmt_render in (render_json, render_sarif):
            assert fmt_render(
                first.findings, "repro.tooling.analyzer", {}
            ) == fmt_render(second.findings, "repro.tooling.analyzer", {})
        assert [str(f) for f in first.findings] == [
            str(f) for f in second.findings
        ]


class TestBaselineFlow:
    def test_explicit_baseline_filters_and_reports_stale(self, isolated_cwd, capsys):
        code = analyzer_main(
            [
                str(FIXTURES / "fb206"),
                "--baseline",
                str(FIXTURES / "fb206" / "baseline.json"),
            ]
        )
        captured = capsys.readouterr()
        assert code == EXIT_CLEAN
        assert "baselined finding(s) suppressed" in captured.err

    def test_stale_entries_warn_on_stderr(self, isolated_cwd, capsys):
        stale = isolated_cwd / "baseline.json"
        stale.write_text(json.dumps({
            "schema": "fastbfs-baseline/1",
            "entries": [{
                "code": "FB206",
                "path": "repro/storage/cachebox.py",
                "symbol": "repro.storage.cachebox.CacheBox.gone",
                "reason": "names an attribute the fixture no longer has",
            }],
        }))
        code = analyzer_main(
            [str(FIXTURES / "fb206"), "--baseline", str(stale)]
        )
        captured = capsys.readouterr()
        assert code == EXIT_FINDINGS
        assert "stale baseline entries" in captured.err
        assert "CacheBox.gone" in captured.err

    def test_entries_for_unanalyzed_files_are_not_stale(self, isolated_cwd, capsys):
        code = analyzer_main(
            [
                str(FIXTURES / "fb201" / "repro" / "sim"),
                "--baseline",
                str(FIXTURES / "fb206" / "baseline.json"),
            ]
        )
        captured = capsys.readouterr()
        assert code == EXIT_CLEAN
        assert "stale" not in captured.err

    def test_partial_run_from_repo_root_has_no_stale_warning(
        self, monkeypatch, capsys
    ):
        monkeypatch.chdir(REPO_ROOT)
        code = cli_main(["analyze", "src/repro/errors.py"])
        captured = capsys.readouterr()
        assert code == EXIT_CLEAN
        assert "stale" not in captured.err

    def test_full_tree_still_flags_a_stale_committed_entry(self, live_analysis):
        baseline = Baseline.load(str(REPO_ROOT / "analyzer_baseline.json"))
        baseline.entries.append(BaselineEntry(
            code="FB206",
            path="repro/storage/machine.py",
            symbol="repro.storage.machine.Machine.no_such_attribute",
            reason="stale on purpose",
        ))
        analyzed = [str(f) for f in (REPO_ROOT / "src" / "repro").rglob("*.py")]
        kept, baselined, unused = baseline.split(
            live_analysis.findings, analyzed=analyzed
        )
        assert kept == [] and len(baselined) == 4
        assert [e.symbol for e in unused] == [
            "repro.storage.machine.Machine.no_such_attribute"
        ]

    @pytest.mark.parametrize(
        "document",
        [
            "[]",
            '{"schema": "fastbfs-baseline/1", "entries": {}}',
            '{"schema": "fastbfs-baseline/1", "entries": [1]}',
        ],
        ids=["non-object-document", "non-list-entries", "non-object-entry"],
    )
    def test_malformed_baseline_is_a_usage_error(
        self, isolated_cwd, capsys, document
    ):
        bad = isolated_cwd / "baseline.json"
        bad.write_text(document)
        code = analyzer_main([str(FIXTURES / "fb204"), "--baseline", str(bad)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.err.startswith("error: baseline file ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_default_baseline_autoloads_from_cwd(self, isolated_cwd, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert analyzer_main([str(REPO_ROOT / "src" / "repro")]) == EXIT_CLEAN

    def test_api_analyze_tree(self):
        result = analyze_tree(
            [str(REPO_ROOT / "src" / "repro")],
            baseline_path=str(REPO_ROOT / "analyzer_baseline.json"),
        )
        assert result.ok
        assert len(result.baselined) == 4
