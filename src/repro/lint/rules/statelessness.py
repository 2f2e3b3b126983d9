"""program-statelessness: SubgraphProgram instances must be stateless.

The PR-5 bug class: :class:`~repro.bsp.program.SubgraphProgram`
subclasses that cache anything on ``self`` outside ``__init__``
(CC's old hidden ``_built`` flag) silently break checkpoint/resume —
the engine re-instantiates programs when resuming, so any behaviour
keyed on accumulated instance state diverges from an uninterrupted run
and the bit-identity contract is lost.  The rule flags every
``self.<attr>`` write (assign, augmented assign, annotated assign,
``del``) in any method of a program class except ``__init__``,
including writes from functions nested inside methods.

Program classes are recognized syntactically: any class whose base list
names ``SubgraphProgram`` (possibly dotted), or that derives from such
a class defined in the same module.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List, Set, Tuple

from ..base import LintRule, ModuleContext
from ..findings import Finding
from ._util import base_names, receiver_name

__all__ = ["ProgramStatelessnessRule"]

_PROGRAM_BASE = "SubgraphProgram"


def _program_classes(tree: ast.Module) -> List[ast.ClassDef]:
    """Classes deriving (transitively, within this module) from SubgraphProgram."""
    classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    program_names: Set[str] = {_PROGRAM_BASE}
    # Fixpoint over in-module inheritance chains (Program -> Base -> SubgraphProgram).
    changed = True
    while changed:
        changed = False
        for cls in classes:
            if cls.name in program_names:
                continue
            if any(base in program_names for base in base_names(cls)):
                program_names.add(cls.name)
                changed = True
    return [cls for cls in classes if cls.name in program_names and cls.name != _PROGRAM_BASE]


def _attribute_writes(fn: ast.FunctionDef, receiver: str) -> Iterator[Tuple[ast.AST, str, str]]:
    """Yield ``(node, attr, verb)`` for every write to ``<receiver>.<attr>``."""

    def is_receiver_attr(target: ast.AST) -> bool:
        # Peel subscripts: ``self.cache[k] = v`` mutates self.cache too.
        while isinstance(target, ast.Subscript):
            target = target.value
        return (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == receiver
        )

    def attr_of(target: ast.AST) -> str:
        while isinstance(target, ast.Subscript):
            target = target.value
        assert isinstance(target, ast.Attribute)
        return target.attr

    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                for elt in target.elts if isinstance(target, (ast.Tuple, ast.List)) else [target]:
                    if is_receiver_attr(elt):
                        yield node, attr_of(elt), "assigns"
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            if is_receiver_attr(node.target):
                yield node, attr_of(node.target), "assigns"
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if is_receiver_attr(target):
                    yield node, attr_of(target), "deletes"


class ProgramStatelessnessRule(LintRule):
    """No ``self.<attr>`` writes in SubgraphProgram methods outside ``__init__``."""

    id = "program-statelessness"

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for cls in _program_classes(ctx.tree):
            for item in cls.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if item.name == "__init__":
                    continue
                receiver = receiver_name(item)
                if receiver is None:
                    continue
                for node, attr, verb in _attribute_writes(item, receiver):
                    yield self.finding(
                        ctx,
                        node,
                        f"program class {cls.name} {verb} {receiver}.{attr} in "
                        f"{item.name}(); SubgraphProgram instances must be stateless "
                        "outside __init__ — checkpoint resume re-instantiates programs, "
                        "so hidden instance state breaks bit-identical restarts "
                        "(the PR-5 '_built' bug class)",
                    )
