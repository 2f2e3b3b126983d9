"""Suppression comments and the CLI exit-code contract."""

import json

import pytest

from repro.cli import main
from repro.lint import Finding
from repro.lint.suppress import collect_suppressions, is_suppressed

BAD_SET_ITER = """\
def endpoints(u, v, out):
    for w in {u, v}:
        out.append(w)
"""

BAD_SET_ITER_SAMELINE = """\
def endpoints(u, v, out):
    for w in {u, v}:  # repro: lint-ignore[determinism]
        out.append(w)
"""

BAD_SET_ITER_ABOVE = """\
def endpoints(u, v, out):
    # hash order is irrelevant here: out is re-sorted by the caller
    # repro: lint-ignore[determinism]
    for w in {u, v}:
        out.append(w)
"""


class TestSuppressionParsing:
    def test_same_line_and_comment_above(self):
        lines = [
            "x = 1  # repro: lint-ignore[determinism]",
            "# repro: lint-ignore[worker-purity, process-safety]",
            "",
            "y = 2",
        ]
        supp = collect_suppressions(lines)
        assert supp[1] == {"determinism"}
        assert supp[4] == {"worker-purity", "process-safety"}

    def test_is_suppressed_matches_rule_and_line(self):
        supp = {3: {"determinism"}}
        hit = Finding(rule="determinism", path="a.py", line=3, col=0, message="m")
        miss_rule = Finding(rule="worker-purity", path="a.py", line=3, col=0, message="m")
        miss_line = Finding(rule="determinism", path="a.py", line=4, col=0, message="m")
        assert is_suppressed(hit, supp)
        assert not is_suppressed(miss_rule, supp)
        assert not is_suppressed(miss_line, supp)


class TestSuppressionThroughEngine:
    def test_both_comment_styles_silence(self, lint_tree):
        report = lint_tree(
            {
                "partition/a.py": BAD_SET_ITER_SAMELINE,
                "partition/b.py": BAD_SET_ITER_ABOVE,
            },
            rules=["determinism"],
        )
        assert report.findings == []
        assert len(report.suppressed) == 2
        assert report.exit_code == 0


class TestCliExitCodes:
    """Suppressed -> 0, any finding -> 1, usage error -> 2; nothing is written."""

    def _write(self, tmp_path, name, source):
        path = tmp_path / "partition"
        path.mkdir(exist_ok=True)
        (path / name).write_text(source, encoding="utf-8")
        return tmp_path

    def test_suppressed_finding_exits_zero(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        root = self._write(tmp_path, "a.py", BAD_SET_ITER_SAMELINE)
        assert main(["lint", str(root)]) == 0
        assert "0 finding(s) (1 suppressed)" in capsys.readouterr().out
        assert [p.name for p in tmp_path.iterdir()] == ["partition"]

    def test_json_report_shape(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        root = self._write(tmp_path, "a.py", BAD_SET_ITER)
        assert main(["lint", str(root), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload) == sorted([
            "version", "root", "rules", "files_scanned", "exit_code", "findings", "suppressed",
        ])
        assert payload["version"] == 2
        assert payload["exit_code"] == 1
        assert payload["findings"][0]["rule"] == "determinism"
        assert payload["findings"][0]["path"] == "partition/a.py"

    def test_usage_error_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "--rules", "determinism"])
        assert excinfo.value.code == 2
