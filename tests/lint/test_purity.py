"""worker-purity: no module globals in runtime/, stage-local session writes."""

from lintutil import rule_ids

RULE = ["worker-purity"]


class TestFires:
    def test_global_statement(self, lint_tree):
        report = lint_tree(
            {
                "runtime/counters.py": """\
                _CALLS = 0

                def bump():
                    global _CALLS
                    _CALLS += 1
                """
            },
            rules=RULE,
        )
        assert "worker-purity" in rule_ids(report)

    def test_mutable_global_used_in_function(self, lint_tree):
        report = lint_tree(
            {
                "runtime/cachey.py": """\
                _CACHE = {}

                def lookup(key):
                    return _CACHE.get(key)
                """
            },
            rules=RULE,
        )
        assert rule_ids(report) == ["worker-purity"]
        assert "_CACHE" in report.findings[0].message

    def test_session_array_write_outside_stages(self, lint_tree):
        report = lint_tree(
            {
                "runtime/sneaky.py": """\
                from repro.runtime.base import BackendSession

                class _Sneaky(BackendSession):
                    def compute_stage(self, superstep=0):
                        self.state.values[0][:] = 1.0

                    def poke(self):
                        self.state.values[0][:] = 0.0
                """
            },
            rules=RULE,
        )
        assert rule_ids(report) == ["worker-purity"]
        assert "poke" in report.findings[0].message


class TestExchangeStageAllowance:
    """Regression: sessions now *really* implement ``exchange_stage``.

    Since PR 7 the exchange stage is a backend responsibility, so the
    rule's stage allowance is load-bearing: state writes inside
    ``exchange_stage`` must pass, while the same write in any sibling
    helper (the shape a botched refactor would naturally produce —
    e.g. an exchange helper that skips the stage method) must fire.
    """

    def test_real_session_shape_passes_and_helper_write_fires(self, lint_tree):
        report = lint_tree(
            {
                "runtime/twostage.py": """\
                import numpy as np

                from repro.runtime.base import BackendSession, allocate_state


                class _TwoStageSession(BackendSession):
                    def __init__(self, dgraph, program):
                        self.state = allocate_state(dgraph, program)

                    def compute_stage(self, superstep=0):
                        self.state.changed[0][:] = False
                        return np.zeros(1)

                    def exchange_stage(self, superstep=0):
                        # Worker-side pull: exchange writes are stage writes.
                        self.state.values[0][:] = self.state.values[1][:1]
                        self.state.active[0][:] = True
                        return None

                    def _exchange_helper(self):
                        # Identical write outside the stage methods: flagged.
                        self.state.values[0][:] = 0.0
                """
            },
            rules=RULE,
        )
        assert rule_ids(report) == ["worker-purity"]
        assert "_exchange_helper" in report.findings[0].message
        assert "exchange_stage" not in report.findings[0].message.split("(")[0]

    def test_shipped_sessions_are_clean(self):
        """The real runtime/ sessions implement exchange_stage lint-clean."""
        from pathlib import Path

        from repro.lint import run_lint

        src = Path(__file__).resolve().parents[2] / "src" / "repro"
        report = run_lint(src)
        offenders = [f for f in report.findings if f.rule == "worker-purity"]
        assert offenders == []


class TestQuiet:
    def test_stage_methods_may_write(self, lint_tree):
        report = lint_tree(
            {
                "runtime/good.py": """\
                from repro.runtime.base import BackendSession

                class _Good(BackendSession):
                    def __init__(self, state):
                        self.state = state

                    def compute_stage(self, superstep=0):
                        self.state.changed[0][:] = False
                        return None

                    def exchange_stage(self):
                        self.state.values[0][:] = 0.0
                """
            },
            rules=RULE,
        )
        assert report.findings == []

    def test_immutable_globals_and_all_pass(self, lint_tree):
        report = lint_tree(
            {
                "runtime/consts.py": """\
                __all__ = ["TIMEOUT", "flavors"]

                TIMEOUT = 5.0
                _NAMES = ("serial", "thread")

                def flavors():
                    return _NAMES
                """
            },
            rules=RULE,
        )
        assert report.findings == []

    def test_outside_runtime_exempt(self, lint_tree):
        report = lint_tree(
            {
                "analysis/tallies.py": """\
                _CACHE = {}

                def lookup(key):
                    return _CACHE.get(key)
                """
            },
            rules=RULE,
        )
        assert report.findings == []


class TestKernelObsFree:
    """runtime/worker.py must never import the obs package."""

    def test_plain_import_fires(self, lint_tree):
        report = lint_tree(
            {
                "runtime/worker.py": """\
                import repro.obs

                def compute_kernel(state):
                    return state
                """
            },
            rules=RULE,
        )
        assert rule_ids(report) == ["worker-purity"]
        assert "observability-free" in report.findings[0].message

    def test_relative_from_import_fires(self, lint_tree):
        report = lint_tree(
            {
                "runtime/worker.py": """\
                from ..obs import NULL_RECORDER

                def compute_kernel(state):
                    return state
                """
            },
            rules=RULE,
        )
        assert rule_ids(report) == ["worker-purity"]

    def test_submodule_import_fires(self, lint_tree):
        report = lint_tree(
            {
                "runtime/worker.py": """\
                from repro.obs.trace import TraceRecorder
                """
            },
            rules=RULE,
        )
        assert rule_ids(report) == ["worker-purity"]

    def test_obs_free_worker_is_quiet(self, lint_tree):
        report = lint_tree(
            {
                "runtime/worker.py": """\
                import numpy as np

                def compute_kernel(state):
                    return np.zeros(1)
                """
            },
            rules=RULE,
        )
        assert report.findings == []

    def test_other_runtime_modules_may_import_obs(self, lint_tree):
        """Sessions hold the recorder; the ban is on the kernel module only."""
        report = lint_tree(
            {
                "runtime/base.py": """\
                from ..obs import NULL_RECORDER

                CONSTANT = 1
                """
            },
            rules=RULE,
        )
        assert report.findings == []

    def test_module_merely_named_obs_like_is_quiet(self, lint_tree):
        """Only the obs package path component triggers, not substrings."""
        report = lint_tree(
            {
                "runtime/worker.py": """\
                import observability_notes_for_humans as notes
                """
            },
            rules=RULE,
        )
        assert report.findings == []
