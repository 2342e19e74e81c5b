"""Tests for :mod:`repro.analysis.static` — the whole-program kernel
effect analyzer: fixture corpus golden findings, the §7.3 acceptance
pair (two-phase flagged / three-phase clean), suppressions, baselines,
manifests, report formats, and CLI exit codes (including the KRN
lint subset).

Tests marked ``static`` form the CI ``static-verify`` gate and can be
run alone with ``pytest --static``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.static import (MANIFEST_PACKAGES, analyze_paths,
                                   apply_baseline, apply_suppressions,
                                   build_manifests, load_baseline,
                                   load_manifests, render_sarif, rule_codes,
                                   run_rules, write_baseline)
from repro.analysis.static.cli import main as static_main

REPO = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "static"


def _fixture_findings():
    program = analyze_paths([str(FIXTURES)])
    assert not program.syntax_errors
    return run_rules(program)


# --------------------------------------------------------------------- #
# fixture corpus golden findings                                        #
# --------------------------------------------------------------------- #
class TestFixtureCorpus:
    @pytest.mark.static
    def test_findings_match_golden_list(self):
        golden = json.loads((FIXTURES / "expected.json").read_text())
        assert golden["format"] == "repro.sta-golden/1"
        by_file: dict[str, list] = {name: [] for name in golden["findings"]}
        for f in _fixture_findings():
            by_file.setdefault(Path(f.path).name, []).append(f)
        for name, expected in golden["findings"].items():
            actual = by_file[name]
            assert [(f.line, f.code) for f in actual] == \
                [(e["line"], e["code"]) for e in expected], name
            for e, f in zip(expected, actual):
                if "array" in e:
                    assert f.array == e["array"]
                if "kernel" in e:
                    assert e["kernel"] in (f.kernel or "")

    @pytest.mark.static
    def test_two_phase_flagged_three_phase_clean(self):
        """The §7.3 acceptance pair: the two-phase marking fixture is
        statically flagged STA201 without executing anything, while the
        structurally-identical three-phase fixture verifies clean."""
        findings = _fixture_findings()
        two_phase = [f for f in findings
                     if f.code == "STA201" and "two_phase" in (f.kernel or "")]
        assert two_phase and two_phase[0].array == "marks"
        assert not any("three_phase" in (f.kernel or "") for f in findings)

    def test_clean_fixture_has_zero_findings(self):
        rc = static_main([str(FIXTURES / "clean_three_phase.py")])
        assert rc == 0


# --------------------------------------------------------------------- #
# whole-tree gate (the CI static-verify step)                           #
# --------------------------------------------------------------------- #
class TestSourceTreeGate:
    @pytest.mark.static
    def test_src_repro_statically_clean(self, monkeypatch):
        """`python -m repro.analysis.static src/repro` exits 0: every
        finding in the real tree is either inline-suppressed with a
        reason or baselined — and the intentional §7.3 two-phase demo
        in core/conflict.py is among the suppressed STA201s."""
        monkeypatch.chdir(REPO)
        program = analyze_paths(["src/repro"])
        assert not program.syntax_errors
        assert len(program.modules) > 50
        findings = run_rules(program,
                             manifests=load_manifests("docs/manifests"))
        sources = {m.path: m.source for m in program.modules}
        kernel_lines = {k.key: k.line for k in program.kernels}
        findings = apply_suppressions(findings, sources, kernel_lines)
        findings = apply_baseline(findings,
                                  load_baseline(".sta-baseline.json"))
        active = [f for f in findings if f.suppressed is None]
        assert active == [], "\n".join(str(f) for f in active)
        assert any(f.code == "STA201" and "two_phase_mark" in (f.kernel or "")
                   for f in findings), \
            "the §7.3 two-phase demo must still be detected (suppressed)"
        assert not any("three_phase_mark" in (f.kernel or "")
                       for f in findings)

    @pytest.mark.static
    def test_checked_in_manifests_are_current(self, monkeypatch):
        """STA205 gate: regenerating the manifests must reproduce the
        checked-in files byte-for-byte (kernel effects are a reviewed
        artifact — regenerate in the same commit as the kernel change)."""
        monkeypatch.chdir(REPO)
        computed = build_manifests(analyze_paths(["src/repro"]))
        for pkg in MANIFEST_PACKAGES:
            checked = json.loads(
                (REPO / "docs" / "manifests" / f"{pkg}.json").read_text())
            assert checked == computed[pkg], \
                f"docs/manifests/{pkg}.json is stale — run " \
                "`python -m repro.analysis.static src/repro " \
                "--write-manifests docs/manifests`"

    def test_manifest_drift_is_flagged(self, monkeypatch):
        monkeypatch.chdir(REPO)
        program = analyze_paths(["src/repro"])
        manifests = load_manifests("docs/manifests")
        key = "src/repro/core/conflict.py::three_phase_mark::conflict3"
        manifests["core"]["kernels"][key]["writes"] = ["ghost"]
        manifests["core"]["kernels"]["src/x.py::gone::gone"] = {}
        findings = [f for f in run_rules(program, codes={"STA205"},
                                         manifests=manifests)]
        messages = [f.message for f in findings]
        assert any("drifted" in m for m in messages)
        assert any("stale manifest entry" in m for m in messages)


# --------------------------------------------------------------------- #
# suppressions and baseline                                             #
# --------------------------------------------------------------------- #
RACY = """\
from repro.vgpu.atomics import scatter_write


def kern(ctr, dest, idx_a, idx_b, vals, rng):
    scatter_write(dest, idx_a, vals, rng)
    {pragma_above}
    scatter_write(dest, idx_b, vals, rng){pragma_trailing}
    ctr.launch("clash", items=4)
"""


class TestSuppressions:
    def _run(self, src, tmp_path):
        path = tmp_path / "racy.py"
        path.write_text(src)
        program = analyze_paths([str(path)])
        findings = run_rules(program)
        return apply_suppressions(
            findings, {m.path: m.source for m in program.modules},
            {k.key: k.line for k in program.kernels})

    def test_unsuppressed_finding_is_active(self, tmp_path):
        src = RACY.format(pragma_above="pass", pragma_trailing="")
        findings = self._run(src, tmp_path)
        assert [f.code for f in findings] == ["STA201"]
        assert findings[0].suppressed is None

    def test_trailing_pragma_suppresses_with_reason(self, tmp_path):
        src = RACY.format(
            pragma_above="pass",
            pragma_trailing="  # sta: ignore[STA201] fixture demo")
        findings = self._run(src, tmp_path)
        assert findings[0].suppressed == "fixture demo"

    def test_pragma_on_comment_line_above_suppresses(self, tmp_path):
        src = RACY.format(
            pragma_above="# sta: ignore[STA201] long-call idiom",
            pragma_trailing="")
        findings = self._run(src, tmp_path)
        assert findings[0].suppressed == "long-call idiom"

    def test_pragma_for_other_code_does_not_suppress(self, tmp_path):
        src = RACY.format(
            pragma_above="pass",
            pragma_trailing="  # sta: ignore[STA204] wrong code")
        findings = self._run(src, tmp_path)
        assert findings[0].suppressed is None

    def test_baseline_round_trip(self, tmp_path):
        findings = _fixture_findings()
        bl = tmp_path / "baseline.json"
        n = write_baseline(findings, bl)
        assert n == len(findings)
        again = apply_baseline(findings, load_baseline(bl))
        assert all(f.suppressed == "baselined" for f in again)
        # fingerprints are line-insensitive: shifting a finding's line
        # does not invalidate the baseline entry.
        assert all(len(e) == 3 for e in load_baseline(bl))


# --------------------------------------------------------------------- #
# report formats and CLI                                                #
# --------------------------------------------------------------------- #
class TestReportsAndCli:
    def test_sarif_is_valid_and_complete(self):
        findings = _fixture_findings()
        doc = json.loads(render_sarif(findings))
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert rule_ids == set(rule_codes())
        assert len(run["results"]) == len(findings)
        for res in run["results"]:
            assert res["ruleId"] in rule_ids
            loc = res["locations"][0]["physicalLocation"]
            assert loc["region"]["startLine"] >= 1

    def test_cli_exit_1_on_findings_and_sarif_output(self, tmp_path,
                                                     capsys):
        out = tmp_path / "report.sarif"
        rc = static_main([str(FIXTURES), "--format", "sarif",
                          "-o", str(out)])
        assert rc == 1
        doc = json.loads(out.read_text())
        assert doc["runs"][0]["results"]
        capsys.readouterr()

    def test_cli_exit_2_on_missing_path(self, capsys):
        assert static_main(["no/such/dir"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_cli_exit_2_on_unknown_rule(self, capsys):
        rc = static_main([str(FIXTURES), "--rules", "STA999"])
        assert rc == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_cli_rule_subset(self, capsys):
        rc = static_main([str(FIXTURES), "--rules", "STA203"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "STA203" in out and "STA201" not in out

    def test_syntax_error_exits_2_with_path(self, tmp_path, capsys):
        """KRN000 regression: an unparseable file reports its path on
        stderr and exits 2 — distinct from rule findings (exit 1)."""
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        rc = static_main([str(bad)])
        err = capsys.readouterr().err
        assert rc == 2
        assert str(bad) in err and "KRN000" in err


# --------------------------------------------------------------------- #
# the KRN lint subset (what the removed lint alias CLI ran)             #
# --------------------------------------------------------------------- #
class TestLintAlias:
    def test_lint_cli_clean_run_exits_0(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("X = 1\n")
        rc = static_main([str(good), "--rules",
                          "KRN101,KRN102,KRN103,KRN104"])
        assert rc == 0
        capsys.readouterr()
