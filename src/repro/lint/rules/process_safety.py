"""process-safety: nothing unpicklable crosses a process boundary, no leaked shm.

Two failure modes specific to the process backend (and to any future
multi-node backend) are caught statically:

* **closure-captured unpicklables** — a ``lambda`` or a function
  defined inside another function cannot be pickled, so passing one as
  ``Process(target=...)`` / ``ProcessPoolExecutor.submit(...)`` works
  under the fork start method and explodes under spawn (macOS/Windows
  default, and the only option across hosts).  Module-level functions
  and bound methods of picklable objects pass.
* **unpaired shared memory** — every module that allocates
  ``multiprocessing.shared_memory`` (directly via
  ``SharedMemory(create=True)`` or through
  :func:`repro.runtime.shm.create_shared_array`) must also contain the
  matching release calls (``close``/``unlink`` or
  ``destroy_shared_array``), and every attach must be matched by a
  ``close``.  A module that allocates and never releases leaks
  ``/dev/shm`` segments on every crash — the resource tracker only
  papers over it with warnings.

The pairing check is per-module by design: ownership of an shm block
must not silently escape the module that created it, which is exactly
the discipline :mod:`repro.runtime.shm` documents.
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
    """Nothing unpicklable to process pools; every shm allocation paired with release."""

    id = "process-safety"

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        yield from self._check_unpicklable_targets(ctx)
        yield from self._check_shm_pairing(ctx)

    # ------------------------------------------------------------------
    # Closure / lambda shipped to a process
    # ------------------------------------------------------------------

    def _check_unpicklable_targets(self, ctx) -> Iterable[Finding]:
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

    # ------------------------------------------------------------------
    # Shared-memory allocation / release pairing
    # ------------------------------------------------------------------

    def _check_shm_pairing(self, ctx) -> Iterable[Finding]:
        creates: List[ast.Call] = []
        attaches: List[ast.Call] = []
        helper_creates: List[ast.Call] = []
        helper_attaches: List[ast.Call] = []
        has_close = has_unlink = has_destroy = False

        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name == "SharedMemory":
                if any(
                    kw.arg == "create"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                    for kw in node.keywords
                ):
                    creates.append(node)
                else:
                    attaches.append(node)
            elif name == "create_shared_array":
                helper_creates.append(node)
            elif name == "attach_shared_array":
                helper_attaches.append(node)
            elif name == "close":
                has_close = True
            elif name == "unlink":
                has_unlink = True
            elif name == "destroy_shared_array":
                has_destroy = True

        released = has_destroy or (has_close and has_unlink)
        for node in creates:
            if not released:
                yield self.finding(
                    ctx,
                    node,
                    "SharedMemory(create=True) allocation with no close()+unlink() "
                    "(or destroy_shared_array) anywhere in this module; a crash "
                    "here leaks /dev/shm segments",
                )
        for node in helper_creates:
            if not released:
                yield self.finding(
                    ctx,
                    node,
                    "create_shared_array(...) with no destroy_shared_array (or "
                    "close()+unlink()) anywhere in this module; parent-owned "
                    "blocks must be unlinked by the module that creates them",
                )
        for node in attaches + helper_attaches:
            if not (has_close or has_destroy):
                yield self.finding(
                    ctx,
                    node,
                    "shared-memory attach with no close() anywhere in this module; "
                    "child mappings must be closed or the segment count only grows",
                )
