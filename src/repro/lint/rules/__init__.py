"""The shipped domain rules.

:data:`RULES` is every rule class :func:`repro.lint.run_lint` runs;
adding a rule means appending its class here.
"""

from .determinism import DeterminismRule
from .process_safety import ProcessSafetyRule
from .purity import WorkerPurityRule
from .statelessness import ProgramStatelessnessRule

__all__ = [
    "DeterminismRule",
    "ProcessSafetyRule",
    "ProgramStatelessnessRule",
    "RULES",
    "WorkerPurityRule",
]

RULES = (DeterminismRule, ProcessSafetyRule, ProgramStatelessnessRule, WorkerPurityRule)
