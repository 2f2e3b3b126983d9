"""determinism: no unseeded randomness, wall-clock values, or unordered iteration.

Everything this reproduction claims — bit-identical results across
serial/thread/process backends, crash/resume equivalence, byte-stable
golden artifacts — assumes the hot paths are pure functions of their
inputs and seeds.  Three nondeterminism sources are flagged in the
kernel/app/partitioner packages:

* **global / unseeded RNGs** — ``random.random()``-style module-level
  draws and ``np.random.<fn>`` global-state calls; ``default_rng()`` /
  ``RandomState()`` / ``Random()`` constructed *without* a seed.
  Seeded generators (``np.random.default_rng(seed)``) are the blessed
  idiom and pass.
* **wall-clock reads** — ``time.time()``, ``datetime.now()`` and
  friends, plus ``uuid.uuid4``/``os.urandom``.  Interval timing via
  ``perf_counter``/``monotonic`` is *not* flagged: measured stage walls
  are recorded output, never an input to results.  A short audited
  allowlist (:data:`WALL_CLOCK_EXEMPTIONS`) admits individual calls
  whose value is provably recorded metadata — each entry names the
  exact module and call and states why it can never feed a result;
  anything not on the list is flagged as usual.
* **iteration over unordered sets** — ``for x in set(...)``,
  comprehensions over set expressions, and ``list()``/``tuple()``/
  ``enumerate()`` of a set: the iteration order is interpreter-
  dependent, so any ordered output derived from it is nondeterministic.
  Wrapping in ``sorted()`` (or any order-insensitive consumer: ``min``,
  ``max``, ``sum``, ``any``, ``all``, ``len``, ``set``) passes.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Set

from ..base import LintRule, ModuleContext
from ..findings import Finding
from ._util import attr_chain

__all__ = ["DeterminismRule"]

#: packages whose modules feed results (not just reports/plots).  The
#: obs package is included deliberately: the trace recorder runs inside
#: every traced superstep, so a wall-clock read there is one audited
#: exemption away from leaking into an artifact.
HOT_PREFIXES = (
    "apps/",
    "partition/",
    "runtime/",
    "bsp/",
    "stream/",
    "checkpoint/",
    "graph/",
    "frameworks/",
    "obs/",
)

#: audited wall-clock/entropy exemptions: ``(module rel path, dotted
#: call)`` -> why this specific value can never influence a result.
#: Grow this list only with a matching justification; the lint tests
#: pin both the mechanism and the current contents.
WALL_CLOCK_EXEMPTIONS = {
    ("obs/trace.py", "time.time"): (
        "trace-header wall stamp: written once into exported trace "
        "metadata so a human can date the file; never an input to "
        "results, fingerprints, or cost accounting"
    ),
}

#: np.random attributes that are constructors, not global-state draws.
_NP_RANDOM_OK = {"default_rng", "Generator", "RandomState", "SeedSequence", "BitGenerator",
                 "PCG64", "Philox", "MT19937", "SFC64"}
#: RNG constructors that must be called with an explicit seed.
_SEED_REQUIRED = {"default_rng", "RandomState", "Random"}
#: wall-clock / entropy calls, by dotted suffix.
_WALL_CLOCK = {
    ("time", "time"),
    ("time", "time_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
    ("uuid", "uuid1"),
    ("uuid", "uuid4"),
    ("os", "urandom"),
}
#: builtins whose result does not depend on argument order.
_ORDER_INSENSITIVE = {"sorted", "min", "max", "sum", "any", "all", "len", "set", "frozenset"}
#: builtins that materialize their argument's order.
_ORDER_SENSITIVE = {"list", "tuple", "enumerate", "iter", "reversed"}


def _module_imports(tree: ast.Module) -> Dict[str, str]:
    """Map local alias -> imported module path for plain imports."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = alias.name
    return aliases


def _from_imports(tree: ast.Module) -> Dict[str, str]:
    """Map local name -> ``module.name`` for from-imports."""
    names: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return names


def _is_unordered(node: ast.AST) -> bool:
    """Whether ``node`` evaluates to a value with no defined iteration order."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        chain = attr_chain(node.func)
        if chain and chain[-1] in ("set", "frozenset"):
            return True
        # s.union(t), s.intersection(t), ... on an unordered receiver
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in ("union", "intersection", "difference", "symmetric_difference")
            and _is_unordered(node.func.value)
        ):
            return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)):
        return _is_unordered(node.left) or _is_unordered(node.right)
    return False


class DeterminismRule(LintRule):
    """No unseeded RNGs, wall-clock reads, or unordered-set iteration in hot paths."""

    id = "determinism"

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.rel.startswith(HOT_PREFIXES)

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        imports = _module_imports(ctx.tree)
        from_names = _from_imports(ctx.tree)
        # Comprehensions that are the direct argument of an
        # order-insensitive consumer are exempt from the set-iteration
        # check: sorted(x for x in s) is deterministic.
        exempt_comps: Set[int] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                chain = attr_chain(node.func)
                if chain and chain[-1] in _ORDER_INSENSITIVE:
                    for arg in node.args:
                        if isinstance(arg, (ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp)):
                            exempt_comps.add(id(arg))

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(ctx, node, imports, from_names)
                yield from self._check_order_sensitive_call(ctx, node)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                if _is_unordered(node.iter):
                    yield self._unordered(ctx, node.iter, "a for-loop")
            elif isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.DictComp)):
                if id(node) in exempt_comps:
                    continue
                for comp in node.generators:
                    if _is_unordered(comp.iter):
                        yield self._unordered(ctx, comp.iter, "a comprehension")

    # ------------------------------------------------------------------

    def _check_call(self, ctx, node: ast.Call, imports, from_names) -> Iterable[Finding]:
        chain = attr_chain(node.func)
        if not chain:
            return
        root_module = imports.get(chain[0])
        dotted = from_names.get(chain[0])
        # Wall-clock / entropy reads.  Only chains rooted at an imported
        # module (``time.time()``) or a from-imported name
        # (``datetime.now()`` after ``from datetime import datetime``)
        # are flagged — ``self.date.today()`` is somebody's method.
        rooted = root_module is not None or dotted is not None
        if len(chain) >= 2 and (chain[-2], chain[-1]) in _WALL_CLOCK and rooted:
            # Resolve through the import alias so ``import time as t;
            # t.time()`` cannot dodge (or accidentally claim) an exemption.
            resolved = ".".join((root_module, *chain[1:])) if root_module else ".".join(chain)
            if (ctx.rel, resolved) in WALL_CLOCK_EXEMPTIONS:
                return
            yield self.finding(
                ctx,
                node,
                f"wall-clock/entropy call {'.'.join(chain)}(); results in hot "
                "paths must be a pure function of inputs and seeds (interval "
                "timing belongs to perf_counter/monotonic)",
            )
            return
        if dotted and len(chain) == 1:
            mod, _, name = dotted.rpartition(".")
            if (mod.rsplit(".", 1)[-1], name) in _WALL_CLOCK:
                if (ctx.rel, dotted) in WALL_CLOCK_EXEMPTIONS:
                    return
                yield self.finding(
                    ctx,
                    node,
                    f"wall-clock/entropy call {chain[0]}() (imported from {mod}); "
                    "results in hot paths must be a pure function of inputs and seeds",
                )
                return
        # Unseeded RNG constructors ---------------------------------------
        if chain[-1] in _SEED_REQUIRED and not node.args and not node.keywords:
            qualified = ".".join(chain)
            is_np_rng = len(chain) >= 2 and chain[-2] == "random"
            is_stdlib_rng = chain[-1] == "Random" and (
                (len(chain) == 2 and root_module == "random")
                or (len(chain) == 1 and dotted == "random.Random")
            )
            if is_np_rng or is_stdlib_rng or chain[-1] == "default_rng":
                yield self.finding(
                    ctx,
                    node,
                    f"unseeded RNG constructor {qualified}(); pass an explicit seed "
                    "so runs are reproducible",
                )
                return
        # Global-state RNG draws ------------------------------------------
        if len(chain) >= 3 and chain[-2] == "random" and imports.get(chain[0]) == "numpy":
            if chain[-1] not in _NP_RANDOM_OK:
                yield self.finding(
                    ctx,
                    node,
                    f"global numpy RNG call {'.'.join(chain)}(); use a seeded "
                    "np.random.default_rng(seed) generator instead of shared "
                    "global state",
                )
                return
        if len(chain) == 2 and root_module == "random" and chain[-1] not in ("Random", "SystemRandom"):
            yield self.finding(
                ctx,
                node,
                f"global stdlib RNG call {'.'.join(chain)}(); use a seeded "
                "random.Random(seed) instance instead of the shared module RNG",
            )
            return
        if chain[-1] == "SystemRandom":
            yield self.finding(
                ctx,
                node,
                "SystemRandom draws OS entropy and can never be seeded; hot paths "
                "must use a seeded RNG",
            )

    def _check_order_sensitive_call(self, ctx, node: ast.Call) -> Iterable[Finding]:
        chain = attr_chain(node.func)
        if not chain or chain[-1] not in _ORDER_SENSITIVE or len(chain) != 1:
            return
        for arg in node.args:
            if _is_unordered(arg):
                yield self._unordered(ctx, arg, f"{chain[-1]}()")

    def _unordered(self, ctx, node: ast.AST, where: str) -> Finding:
        return self.finding(
            ctx,
            node,
            f"iteration over an unordered set expression in {where}; set order is "
            "interpreter-dependent, so any ordered output derived from it is "
            "nondeterministic — sort first (sorted(...)) or iterate a "
            "deterministic sequence",
        )
