"""Shared-memory numpy arrays for the process backend.

Thin, careful wrappers over :mod:`multiprocessing.shared_memory`:

* the parent creates each block and owns unlinking — children only ever
  ``close()`` their mappings.  Children spawned by ``multiprocessing``
  inherit the parent's ``resource_tracker`` (its fd is part of the
  spawn/fork preparation data), so a child attach registers the name
  with the *same* tracker the parent used — a set-level no-op — and the
  parent's ``unlink()`` unregisters it exactly once;
* zero-length arrays are backed by a 1-byte block because POSIX shared
  memory rejects ``size=0``.

Cleanup is belt-and-braces: :func:`destroy_shared_array` swallows
"already gone" errors so session teardown is idempotent even after a
worker crash.

Because parent and children map the *same* blocks, two things come for
free.  Checkpoint restore
(:meth:`~repro.runtime.base.BackendSession.push_state`) needs no
shm-specific code: the engine copies snapshot arrays through
the parent's views and every child observes the restored state exactly
as it observes its siblings' compute-stage writes.  And the worker-side
replica exchange needs no inter-child messaging: every child maps every
worker's blocks, so an exchange phase is just each child pulling from
its siblings' arrays through memory the parent allocated once.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Tuple

import numpy as np

__all__ = [
    "SharedArraySpec",
    "create_shared_array",
    "attach_shared_array",
    "destroy_shared_array",
]


@dataclass(frozen=True)
class SharedArraySpec:
    """Everything a child needs to map one parent-created array."""

    name: str
    shape: Tuple[int, ...]
    dtype: str


def _as_array(shm: shared_memory.SharedMemory, spec: SharedArraySpec) -> np.ndarray:
    return np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf)


def create_shared_array(
    template: np.ndarray,
) -> Tuple[shared_memory.SharedMemory, np.ndarray, SharedArraySpec]:
    """Create a shared block holding a copy of ``template``.

    Returns the block (keep it referenced — its ``buf`` backs the
    array), the parent's array view, and the spec to ship to children.
    """
    template = np.ascontiguousarray(template)
    size = max(1, template.nbytes)
    shm = shared_memory.SharedMemory(create=True, size=size)
    spec = SharedArraySpec(
        name=shm.name, shape=tuple(template.shape), dtype=template.dtype.str
    )
    array = _as_array(shm, spec)
    array[...] = template
    return shm, array, spec


def attach_shared_array(
    spec: SharedArraySpec,
) -> Tuple[shared_memory.SharedMemory, np.ndarray]:
    """Map a parent-created block in a child process.

    The child never owns the block's lifetime (see module docstring);
    it only ever calls ``shm.close()`` on the returned block.
    """
    shm = shared_memory.SharedMemory(name=spec.name)
    return shm, _as_array(shm, spec)


def destroy_shared_array(shm: shared_memory.SharedMemory) -> None:
    """Close and unlink one parent-owned block, tolerating prior cleanup."""
    try:
        shm.close()
    except Exception:  # pragma: no cover
        pass
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already unlinked
        pass
    except Exception:  # pragma: no cover
        pass
