"""repro.lint — domain-aware static analysis for this repository.

Generic linters check style; this package checks the *contracts the
reproduction depends on*: programs are stateless across supersteps
(checkpoint bit-identity), hot paths are deterministic (seeded RNG, no
wall-clock, no unordered-set iteration), runtime workers are pure
(spawn-safe, RPC-ready), and nothing unpicklable or leaky crosses a
process boundary.

Entry points: ``repro lint`` / ``python -m repro lint`` (CLI), or
:func:`run_lint` in-process.  One uncached pass runs every rule in
:data:`RULES`; inline ``# repro: lint-ignore[rule-id]`` comments are
the only exception mechanism.  Adding a rule: subclass
:class:`LintRule` and append it to :data:`RULES`.
"""

from .base import LintRule, ModuleContext
from .engine import LintReport, default_root, iter_python_files, run_lint
from .findings import Finding
from .reporters import render_json, render_text
from .rules import RULES

__all__ = [
    "Finding",
    "LintReport",
    "LintRule",
    "ModuleContext",
    "RULES",
    "default_root",
    "iter_python_files",
    "render_json",
    "render_text",
    "run_lint",
]
