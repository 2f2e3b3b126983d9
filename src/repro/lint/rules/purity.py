"""worker-purity: runtime workers and backends stay free of shared state.

The runtime package's bit-identity guarantee rests on two structural
facts: (1) the only state a stage touches is the per-worker arrays
:func:`~repro.runtime.shard.worker_arrays` allocates, and (2) nothing in
``runtime/`` communicates through module-level mutable globals — a
global that works by accident on the fork start method is a silent
wrong-answer on spawn, and a distributed-correctness bug the moment a
backend crosses a host boundary (the ROADMAP's RPC backend).

Three checks over every module in ``runtime/``:

* **no module-level mutable globals** — a module-level name bound to a
  list/dict/set (display, comprehension, or constructor call) must not
  be read or written from inside any function, and ``global``
  statements are banned outright.  Module-level constants of immutable
  type are fine.
* **session arrays are stage-local** — inside ``BackendSession``
  subclasses, ``self.state`` (kind -> per-worker arrays) and the
  arrays hanging off it may only be
  written in ``__init__`` (allocation), ``compute_stage`` or an
  ``exchange_stage`` (the two BSP stages).  Any other method mutating
  session arrays is bypassing the superstep contract the checkpoint
  machinery snapshots around.
* **kernels stay observability-free** — ``runtime/worker.py`` must not
  import :mod:`repro.obs` (or read a clock; the determinism rule covers
  that).  Sessions bracket kernel calls with monotonic reads and feed
  the windows to the attached recorder via ``finish_compute_stage`` /
  ``finish_exchange_stage``; a recorder reference inside a kernel would
  have to cross the process-backend pickle boundary and would let
  tracing perturb the bit-identical hot path.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Set

from ..base import LintRule, ModuleContext
from ..findings import Finding
from ._util import base_names, receiver_name

__all__ = ["WorkerPurityRule"]

_SESSION_BASE = "BackendSession"
#: methods allowed to mutate session arrays (allocation + BSP stages).
_STAGE_METHODS = {"__init__", "compute_stage", "exchange_stage"}
#: the shared-kernel module that must never import the obs package.
_KERNEL_MODULE = "runtime/worker.py"
_MUTABLE_CALLS = {"list", "dict", "set", "defaultdict", "OrderedDict", "Counter", "deque"}


def _mutable_global_names(tree: ast.Module) -> Dict[str, int]:
    """Module-level names bound to mutable containers -> binding line."""

    def is_mutable(value: ast.AST) -> bool:
        if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(value, ast.Call):
            func = value.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            return name in _MUTABLE_CALLS
        return False

    names: Dict[str, int] = {}
    for node in tree.body:
        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        else:
            continue
        if not is_mutable(value):
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id != "__all__":
                names[target.id] = node.lineno
    return names


def _session_classes(tree: ast.Module) -> List[ast.ClassDef]:
    classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    session_names: Set[str] = {_SESSION_BASE}
    changed = True
    while changed:
        changed = False
        for cls in classes:
            if cls.name in session_names:
                continue
            if any(base in session_names for base in base_names(cls)):
                session_names.add(cls.name)
                changed = True
    return [cls for cls in classes if cls.name in session_names and cls.name != _SESSION_BASE]


def _roots_at_state(target: ast.AST, receiver: str) -> bool:
    """Whether a store target's chain is rooted at ``<receiver>.state``."""
    node = target
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "state"
            and isinstance(node.value, ast.Name)
            and node.value.id == receiver
        ):
            return True
        node = node.value
    return False


class WorkerPurityRule(LintRule):
    """No mutable module globals in runtime/; session arrays mutate only in stages."""

    id = "worker-purity"

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.rel.startswith("runtime/") or ctx.rel == "runtime.py"

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        if ctx.rel == _KERNEL_MODULE:
            yield from self._check_kernel_obs_free(ctx)
        mutable_globals = _mutable_global_names(ctx.tree)

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Global):
                yield self.finding(
                    ctx,
                    node,
                    f"'global {', '.join(node.names)}' in a runtime module; workers "
                    "must not communicate through module state (breaks on spawn "
                    "start method and across hosts)",
                )

        if mutable_globals:
            for fn in ast.walk(ctx.tree):
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                seen: Set[str] = set()
                for node in ast.walk(fn):
                    if (
                        isinstance(node, ast.Name)
                        and node.id in mutable_globals
                        and node.id not in seen
                    ):
                        seen.add(node.id)
                        yield self.finding(
                            ctx,
                            node,
                            f"function {fn.name}() touches module-level mutable "
                            f"global '{node.id}' (bound at line "
                            f"{mutable_globals[node.id]}); runtime workers and "
                            "backends must keep all mutable state in the worker "
                            "arrays (runtime.shard.worker_arrays) or on the session",
                        )

        yield from self._check_session_classes(ctx)

    def _check_kernel_obs_free(self, ctx: ModuleContext) -> Iterable[Finding]:
        """The shared-kernel module must not import repro.obs."""
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            for module in modules:
                if "obs" in module.split("."):
                    yield self.finding(
                        ctx,
                        node,
                        f"{_KERNEL_MODULE} imports {module or 'obs'!s}; worker "
                        "kernels must stay observability-free — the session "
                        "brackets each kernel call with monotonic reads and "
                        "hands the windows to its attached recorder "
                        "(finish_compute_stage / finish_exchange_stage)",
                    )
                    break

    def _check_session_classes(self, ctx: ModuleContext) -> Iterable[Finding]:
        for cls in _session_classes(ctx.tree):
            for item in cls.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if item.name in _STAGE_METHODS:
                    continue
                receiver = receiver_name(item)
                if receiver is None:
                    continue
                for node in ast.walk(item):
                    targets: List[ast.AST] = []
                    if isinstance(node, ast.Assign):
                        targets = node.targets
                    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                        targets = [node.target]
                    for target in targets:
                        if _roots_at_state(target, receiver):
                            yield self.finding(
                                ctx,
                                node,
                                f"session class {cls.name} mutates {receiver}.state "
                                f"in {item.name}(); session arrays may only be "
                                "written during allocation (__init__) or the "
                                "compute/exchange stage methods — anything else "
                                "races the engine's superstep contract",
                            )
