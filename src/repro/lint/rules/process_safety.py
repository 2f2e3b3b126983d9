"""process-safety: nothing unpicklable is handed to another process.

A ``lambda`` or a function defined inside another function cannot be
pickled, so passing one as ``Process(target=...)`` /
``ProcessPoolExecutor.submit(...)`` works under the fork start method
and explodes under spawn (macOS/Windows default, and the only option
across hosts).  Module-level functions and bound methods of picklable
objects pass.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Set

from ..base import LintRule, ModuleContext
from ..findings import Finding
from ._util import attr_chain

__all__ = ["ProcessSafetyRule"]

#: call names that hand work to another *process*.
_PROCESS_CTORS = {"Process", "ProcessPoolExecutor"}
_SUBMIT_METHODS = {"submit", "map", "apply", "apply_async", "starmap"}


def _local_function_names(fn: ast.AST) -> Set[str]:
    """Names of functions defined directly inside ``fn`` (closures)."""
    names: Set[str] = set()
    for node in ast.walk(fn):
        if node is fn:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
    return names


def _call_name(node: ast.Call) -> str:
    chain = attr_chain(node.func)
    return chain[-1] if chain else ""


class ProcessSafetyRule(LintRule):
    """Nothing unpicklable to process pools."""

    id = "process-safety"

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        # Scopes nest (Module > FunctionDef), so the same call node can
        # surface in several walks; report each offending target once.
        reported: Set[int] = set()
        for fn in ast.walk(ctx.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)):
                continue
            local_fns = _local_function_names(fn) if not isinstance(fn, ast.Module) else set()
            # Names bound to ProcessPoolExecutor instances in this scope.
            pool_names: Set[str] = set()
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                    if _call_name(node.value) == "ProcessPoolExecutor":
                        for target in node.targets:
                            if isinstance(target, ast.Name):
                                pool_names.add(target.id)
                elif isinstance(node, ast.withitem) and isinstance(node.context_expr, ast.Call):
                    if (
                        _call_name(node.context_expr) == "ProcessPoolExecutor"
                        and isinstance(node.optional_vars, ast.Name)
                    ):
                        pool_names.add(node.optional_vars.id)

            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                name = _call_name(node)
                candidates: List[ast.AST] = []
                if name in _PROCESS_CTORS:
                    candidates = [kw.value for kw in node.keywords if kw.arg == "target"]
                elif name in _SUBMIT_METHODS and isinstance(node.func, ast.Attribute):
                    receiver = node.func.value
                    if isinstance(receiver, ast.Name) and receiver.id in pool_names:
                        candidates = list(node.args[:1])
                for candidate in candidates:
                    if id(candidate) in reported:
                        continue
                    if isinstance(candidate, ast.Lambda):
                        reported.add(id(candidate))
                        yield self.finding(
                            ctx,
                            candidate,
                            "lambda passed as a process-pool target; lambdas cannot "
                            "be pickled, so this breaks under the spawn start "
                            "method — use a module-level function",
                        )
                    elif (
                        isinstance(candidate, ast.Name)
                        and candidate.id in local_fns
                    ):
                        reported.add(id(candidate))
                        yield self.finding(
                            ctx,
                            candidate,
                            f"closure '{candidate.id}' (defined inside "
                            f"{getattr(fn, 'name', '<module>')}()) passed as a "
                            "process-pool target; nested functions cannot be "
                            "pickled under the spawn start method — move it to "
                            "module level",
                        )
