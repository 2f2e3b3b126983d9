"""C99 kernels built on first use and cached beside the bytecode.

A kernel is one ``.c`` file in the package.  :func:`load_library`
compiles it with the interpreter's configured compiler into the
directory where the bytecode of a module beside it would go
(``__pycache__``, or under ``sys.pycache_prefix``), named by a hash of
the source and :data:`KERNEL_COMMAND`, and loads it with ``ctypes``.
There is no separate build step and no fallback: a missing compiler or
a source it rejects raises :class:`KernelBuildError`.

A leaf module: it imports the standard library only, so every layer
that owns a kernel can load it without importing another.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib.util
import os
import shlex
import subprocess
import sysconfig
import tempfile
from pathlib import Path
from typing import List, Tuple

__all__ = ["KERNEL_COMMAND", "KernelBuildError", "kernel_build", "load_library"]

#: the interpreter's configured compiler and fixed flags, part of every
#: library's cache key; ``-ffp-contract=off`` keeps ``a * b + c`` two
#: roundings, as in Python and numpy
KERNEL_COMMAND = (
    *shlex.split(sysconfig.get_config_var("CC") or "cc"),
    "-O2", "-std=c99", "-ffp-contract=off", "-fPIC", "-shared", "-pipe",
)


class KernelBuildError(RuntimeError):
    """The C compiler is missing or rejected a kernel's source."""


def kernel_build(source: Path) -> Tuple[Path, List[str]]:
    """``(library path, compile command)`` for the kernel ``source``.

    The library is ``<stem>.<hash>.so`` in the bytecode cache of the
    source's directory; the hash covers the source and
    :data:`KERNEL_COMMAND`, so an edit to either builds a new file.
    """
    command = list(KERNEL_COMMAND)
    key = hashlib.sha256(source.read_bytes())
    key.update("\0".join(command).encode())
    cache = Path(importlib.util.cache_from_source(str(source))).parent
    return cache / f"{source.stem}.{key.hexdigest()[:16]}.so", command


def load_library(source: Path, label: str) -> ctypes.CDLL:
    """The compiled ``source``, building the library if it is missing.

    The build writes a temporary name in the cache directory and
    renames it into place, so concurrent builders each load a whole
    library.  Raises :class:`KernelBuildError` naming the ``label``
    kernel, the command and the compiler's stderr when the build fails.
    """
    path, command = kernel_build(source)
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=f"{path.name}.", suffix=".tmp", dir=path.parent)
        os.close(fd)
        argv = command + [str(source), "-o", tmp]
        try:
            try:
                proc = subprocess.run(argv, capture_output=True, text=True)
            except OSError as exc:
                raise KernelBuildError(
                    f"cannot build the {label} kernel: `{shlex.join(argv)}`: {exc}"
                ) from exc
            if proc.returncode:
                raise KernelBuildError(
                    f"cannot build the {label} kernel: `{shlex.join(argv)}` exited "
                    f"{proc.returncode}:\n{proc.stderr.strip()}"
                )
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return ctypes.CDLL(str(path))
