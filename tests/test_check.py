"""The checker checks itself: fixture files must fail/pass per rule,
suppressions must scope exactly, and the real tree must be clean.

Each fixture under ``tests/fixtures/check/`` declares the repo path it
pretends to live at in a ``# virtual-path:`` header, so a fixture can
exercise a path-scoped rule without living inside ``src/``.  The
fixture directory is skipped by the engine's file walk (and excluded
from ruff) because its contents violate rules on purpose.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import typing
from collections import Counter
from pathlib import Path

import pytest

from tools.check import ALL_RULES, check_source, run_paths

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "tests" / "fixtures" / "check"

RULE_CODES = tuple(rule.code for rule in ALL_RULES)


def fixture_findings(name: str):
    source = (FIXTURES / name).read_text(encoding="utf-8")
    header = source.splitlines()[0]
    assert header.startswith("# virtual-path: "), name
    virtual_path = header.removeprefix("# virtual-path: ").strip()
    return check_source(source, virtual_path, ALL_RULES)


class TestRuleCatalogue:
    def test_codes_unique_and_complete(self):
        assert sorted(RULE_CODES) == [
            "REP001",
            "REP002",
            "REP003",
            "REP004",
            "REP005",
            "REP006",
            "REP007",
            "REP008",
            "REP009",
        ]

    def test_every_rule_has_summary(self):
        for rule in ALL_RULES:
            assert rule.summary


class TestSeededFixtures:
    """One failing and one passing fixture per rule."""

    # rule -> (fail fixture, expected finding count)
    EXPECTED: typing.ClassVar[dict[str, tuple[str, int]]] = {
        "REP001": ("rep001_fail.py", 2),
        "REP002": ("rep002_fail.py", 4),
        "REP003": ("rep003_fail.py", 5),
        "REP004": ("rep004_fail.py", 4),
        "REP005": ("rep005_fail.py", 3),
        "REP006": ("rep006_fail.py", 3),
        "REP007": ("rep007_fail.py", 2),
        "REP008": ("rep008_fail.py", 6),
        "REP009": ("rep009_fail.py", 4),
    }

    @pytest.mark.parametrize("code", RULE_CODES)
    def test_fail_fixture_fires_exactly_its_rule(self, code):
        name, count = self.EXPECTED[code]
        findings = fixture_findings(name)
        by_rule = Counter(f.rule for f in findings)
        assert by_rule[code] == count, findings
        # Seeded fixtures are single-rule: nothing else may fire, so a
        # rule regression can't hide behind another rule's findings.
        assert set(by_rule) == {code}, findings

    def test_rep001_covers_codes(self):
        findings = fixture_findings("rep001_fail_codes.py")
        assert [f.rule for f in findings] == ["REP001", "REP001"], findings
        assert findings[0].render().startswith("src/repro/codes/bad_distance.py:3:")

    @pytest.mark.parametrize("code", RULE_CODES)
    def test_pass_fixture_is_clean(self, code):
        name = f"{code.lower()}_pass.py"
        assert fixture_findings(name) == []

    def test_findings_carry_location_and_message(self):
        findings = fixture_findings("rep003_fail.py")
        for f in findings:
            assert f.line > 1
            assert f.col >= 1
            assert "Generator" in f.message or "numpy" in f.message
            assert f.render().startswith("src/repro/sim/bad_rng.py:")


class TestSuppressions:
    def test_line_suppression_is_per_rule(self):
        findings = fixture_findings("suppress_line.py")
        # The correctly-bracketed suppression removes one REP004; the
        # wrong-code suppression leaves the other REP004 standing.
        assert [f.rule for f in findings] == ["REP004"]
        # ...and it is the un-suppressed second call site that fires.
        assert findings[0].line > 10

    def test_file_suppression_is_per_rule(self):
        findings = fixture_findings("suppress_file.py")
        assert [f.rule for f in findings] == ["REP004"]

    def test_bare_line_ignore_suppresses_everything(self):
        source = textwrap.dedent(
            """\
            import numpy as np

            def f(w, k):
                return np.argpartition(w, k)  # repcheck: ignore
            """
        )
        assert check_source(source, "src/repro/decode/x.py", ALL_RULES) == []

    def test_rules_scope_by_path(self):
        source = "import networkx as nx\n"
        assert check_source(source, "src/repro/decode/x.py", ALL_RULES) != []
        assert check_source(source, "src/repro/codes/x.py", ALL_RULES) != []
        assert check_source(source, "src/repro/deform/x.py", ALL_RULES) != []
        assert check_source(source, "src/repro/layout/x.py", ALL_RULES) == []
        assert check_source(source, "tests/test_x.py", ALL_RULES) == []


class TestCleanTree:
    def test_repo_is_clean(self):
        findings = run_paths(
            [REPO / "src", REPO / "benchmarks", REPO / "tests"],
            ALL_RULES,
            root=REPO,
        )
        assert findings == [], "\n".join(f.render() for f in findings)


class TestCli:
    """End-to-end through ``python -m tools.check`` on a temp tree."""

    def run_cli(self, cwd, *args):
        return subprocess.run(
            [sys.executable, "-m", "tools.check", *args],
            cwd=cwd,
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(REPO)},
        )

    def test_exit_codes_and_json(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "decode" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import networkx\n", encoding="utf-8")
        ok = tmp_path / "src" / "repro" / "layout" / "ok.py"
        ok.parent.mkdir(parents=True)
        ok.write_text("import networkx\n", encoding="utf-8")

        result = self.run_cli(tmp_path, "src", "--json", "findings.json")
        assert result.returncode == 1
        assert "REP001" in result.stdout
        assert "src/repro/decode/bad.py:1:" in result.stdout
        assert "REP001" in (tmp_path / "findings.json").read_text()

        bad.write_text("import numpy as np\n", encoding="utf-8")
        result = self.run_cli(tmp_path, "src")
        assert result.returncode == 0
        assert result.stdout == ""

    def test_missing_path_is_usage_error(self, tmp_path):
        result = self.run_cli(tmp_path, "no-such-dir")
        assert result.returncode == 2

    def test_syntax_error_is_usage_error(self, tmp_path):
        broken = tmp_path / "src" / "repro" / "decode" / "broken.py"
        broken.parent.mkdir(parents=True)
        broken.write_text("def f(:\n", encoding="utf-8")
        result = self.run_cli(tmp_path, "src")
        assert result.returncode == 2
        assert "cannot parse" in result.stderr

    def test_list_rules(self, tmp_path):
        result = self.run_cli(tmp_path, "--list-rules")
        assert result.returncode == 0
        for code in RULE_CODES:
            assert code in result.stdout
