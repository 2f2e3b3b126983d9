"""Generic component registry and the ``"name?key=val,..."`` spec grammar.

Every pluggable component family (partitioners, apps, graph generators,
experiment drivers) is addressed through one :class:`Registry`: a named
mapping from canonical component names (plus aliases) to zero-or-more-
argument factories.  Components are referenced by *spec strings*::

    "ebv"                            # bare name
    "ebv?alpha=2,sort_order=input"   # name + constructor kwargs
    "powerlaw?vertices=20000,eta=2.2"

so that any component is addressable from config files, CLI flags and
JSON pipeline specs without hard-coded dispatch tables.  Values are
coerced ``int`` → ``float`` → ``bool``/``none`` → ``str``, which covers
every constructor in the code base.

Registries reject duplicate names, resolve lookups case-insensitively,
and raise :class:`UnknownComponentError` listing the available names so
CLI and spec errors are self-documenting.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, Mapping, Optional, Tuple

__all__ = [
    "Registry",
    "RegistryError",
    "DuplicateComponentError",
    "UnknownComponentError",
    "parse_spec",
    "format_spec",
]


class RegistryError(ValueError):
    """Base error for registry lookups and spec parsing."""


class DuplicateComponentError(RegistryError):
    """A name or alias was registered twice."""


class UnknownComponentError(RegistryError):
    """A spec referenced a name no registry entry answers to."""


def _coerce(text: str) -> Any:
    """Parse one spec value: int, then float, then bool/none, else str.

    Quoting opts out of coercion: ``path='123'`` stays the string
    ``"123"`` (for file paths or names that look like numbers).
    """
    if len(text) >= 2 and text[0] == text[-1] and text[0] in ("'", '"'):
        return text[1:-1]
    lowered = text.lower()
    if lowered in ("true", "yes", "on"):
        return True
    if lowered in ("false", "no", "off"):
        return False
    if lowered in ("none", "null"):
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _render(value: Any) -> str:
    """Inverse of :func:`_coerce` for round-trippable spec strings."""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "none"
    if isinstance(value, str) and not isinstance(_coerce(value), str):
        return f"'{value}'"  # would coerce to a non-string: quote it
    return str(value)


def parse_spec(spec: str) -> Tuple[str, Dict[str, Any]]:
    """Split ``"name?key=val,key2=val2"`` into ``(name, kwargs)``.

    Raises :class:`RegistryError` with a precise message on malformed
    input: empty name, dangling ``?``, or an option without ``=``.
    """
    if not isinstance(spec, str):
        raise RegistryError(f"component spec must be a string, got {type(spec).__name__}")
    name, sep, rest = spec.partition("?")
    name = name.strip().lower()
    if not name:
        raise RegistryError(f"component spec {spec!r} has an empty name")
    kwargs: Dict[str, Any] = {}
    if sep:
        if not rest.strip():
            raise RegistryError(f"component spec {spec!r} has a dangling '?'")
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            key = key.strip()
            if not eq or not key:
                raise RegistryError(
                    f"malformed option {item!r} in spec {spec!r}; expected key=value"
                )
            kwargs[key] = _coerce(value.strip())
    return name, kwargs


def format_spec(name: str, kwargs: Optional[Mapping[str, Any]] = None) -> str:
    """Canonical spec string for ``(name, kwargs)``: sorted, lower-cased.

    ``parse_spec(format_spec(*parse_spec(s)))`` is idempotent, which is
    what makes :class:`~repro.pipeline.spec.PipelineSpec` round-trips
    byte-stable.
    """
    name = name.strip().lower()
    if not kwargs:
        return name
    options = ",".join(f"{k}={_render(kwargs[k])}" for k in sorted(kwargs))
    return f"{name}?{options}"


class Registry:
    """A named family of component factories addressable by spec string.

    Parameters
    ----------
    kind:
        Human-readable family name ("partitioner", "app", ...) used in
        error messages.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self._factories: Dict[str, Callable[..., Any]] = {}
        self._aliases: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register(
        self,
        name: str,
        factory: Optional[Callable[..., Any]] = None,
        *,
        aliases: Tuple[str, ...] = (),
    ):
        """Register ``factory`` under ``name`` (plus optional aliases).

        Usable directly (``reg.register("ebv", EBVPartitioner)``) or as a
        decorator (``@reg.register("file")``).  Duplicate names or
        aliases raise :class:`DuplicateComponentError`.
        """
        if factory is None:
            def decorator(fn: Callable[..., Any]) -> Callable[..., Any]:
                self.register(name, fn, aliases=aliases)
                return fn

            return decorator
        canonical = name.strip().lower()
        if not canonical:
            raise RegistryError(f"cannot register an empty {self.kind} name")
        for candidate in (canonical, *[a.strip().lower() for a in aliases]):
            if candidate in self._factories or candidate in self._aliases:
                raise DuplicateComponentError(
                    f"{self.kind} {candidate!r} is already registered"
                )
        self._factories[canonical] = factory
        for alias in aliases:
            self._aliases[alias.strip().lower()] = canonical
        return factory

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def canonical(self, name: str) -> str:
        """Resolve a name or alias (case-insensitive) to its canonical form."""
        key = name.strip().lower()
        if key in self._factories:
            return key
        if key in self._aliases:
            return self._aliases[key]
        raise UnknownComponentError(
            f"unknown {self.kind} {name!r}; available: {', '.join(self.names())}"
        )

    def get(self, name: str) -> Callable[..., Any]:
        """The factory registered under ``name`` (or one of its aliases)."""
        return self._factories[self.canonical(name)]

    def create(self, spec: str, *args: Any, **overrides: Any) -> Any:
        """Parse ``spec`` and instantiate: ``factory(*args, **kwargs)``.

        Keyword arguments given directly override same-named options
        parsed from the spec string.
        """
        name, kwargs = parse_spec(spec)
        kwargs.update(overrides)
        return self.get(name)(*args, **kwargs)

    def names(self) -> Tuple[str, ...]:
        """Sorted canonical names (aliases excluded)."""
        return tuple(sorted(self._factories))

    def __contains__(self, name: object) -> bool:
        if not isinstance(name, str):
            return False
        try:
            self.canonical(name)
        except UnknownComponentError:
            return False
        return True

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._factories)

    def items(self):
        """``(canonical name, factory)`` pairs, sorted by name."""
        return [(name, self._factories[name]) for name in self.names()]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry(kind={self.kind!r}, names={list(self.names())})"
