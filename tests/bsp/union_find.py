"""Reference implementations the vectorised layout caches are tested against.

Not production code.  :func:`union_find_roots` is
``LocalSubgraph.cc_roots`` as it stood before the min-hook +
pointer-jumping pass replaced it: a per-edge Python union-find that
always hooks the larger root under the smaller, so every component's
root is its lowest local index.  ``test_cc_roots.py`` requires the
vectorised pass to return the same array and count.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def union_find_roots(num_vertices: int, src, dst) -> Tuple[np.ndarray, int]:
    """``(roots, count)``: each vertex's component root and the number of roots."""
    parent = np.arange(num_vertices, dtype=np.int64)

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, int(parent[x])
        return root

    for u, v in zip(np.asarray(src).tolist(), np.asarray(dst).tolist()):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    roots = np.fromiter(
        (find(x) for x in range(num_vertices)), dtype=np.int64, count=num_vertices
    )
    return roots, int(np.unique(roots).size)
