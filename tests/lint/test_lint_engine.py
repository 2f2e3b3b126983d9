"""Engine behavior: parse errors, and self-lint of the real tree."""

from repro.lint import run_lint


class TestParseErrors:
    def test_syntax_error_becomes_finding(self, lint_tree):
        report = lint_tree({"apps/broken.py": "def f(:\n"})
        assert [f.rule for f in report.findings] == ["parse-error"]
        assert report.exit_code == 1


class TestSelfLint:
    def test_src_repro_is_clean_at_head(self):
        """The acceptance bar: every rule runs and the shipped tree lints clean."""
        report = run_lint()
        assert report.findings == [], "\n".join(f.render() for f in report.findings)
        assert report.exit_code == 0
        assert report.files_scanned > 80
        assert report.rule_ids == [
            "determinism", "process-safety", "program-statelessness", "worker-purity",
        ]
        # The audited exception list: a new inline suppression is reviewed here.
        assert [(f.rule, f.path) for f in report.suppressed] == [
            ("worker-purity", "runtime/__init__.py")
        ]
