"""Shared fixtures for the lint suite: tiny on-disk package trees.

Rules scope themselves by path prefix relative to the lint root
(``apps/``, ``runtime/``, ...), so fixture files are written into a
temporary tree that mimics the ``src/repro`` layout and linted with the
tree root as the scan root.  Every rule runs on every fixture; a test
about one rule passes ``rules=`` to see only that rule's findings.
"""

import textwrap

import pytest
from lintutil import only

from repro.lint import run_lint


@pytest.fixture
def lint_tree(tmp_path):
    """Write ``{relpath: source}`` files under a temp tree and lint it."""

    def _lint(files, rules=None):
        for rel, source in files.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source), encoding="utf-8")
        report = run_lint(tmp_path)
        return report if rules is None else only(report, rules)

    _lint.root = tmp_path
    return _lint
