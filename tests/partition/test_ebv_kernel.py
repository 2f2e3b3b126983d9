"""The compiled EBV loop: its argument checks.

``EBVCore.assign`` hands raw pointers to C, so every shape, dtype and
index is checked first; a failure is a ``ValueError`` and leaves the
state untouched.  The build cache both kernels share is
``tests/test_ckernel.py``'s.
"""

import numpy as np
import pytest

from repro.partition.ebv import EBVCore


def _args(**override):
    """One ``assign``'s arguments for a 4-vertex, 2-part core, with ``override``."""
    args = dict(
        src=np.array([0, 1, 2], dtype=np.int64),
        dst=np.array([1, 2, 3], dtype=np.int64),
        order=np.array([2, 0, 1], dtype=np.int64),
        out=np.full(3, -1, dtype=np.int64),
        trace=np.zeros(3, dtype=np.int64),
    )
    args.update(override)
    return args


def _read_only(array):
    array.flags.writeable = False
    return array


def test_a_valid_call_assigns_every_edge():
    core = EBVCore(2, 1.0, 1.0, 3, 4)
    args = _args()
    core.assign(**args)
    assert ((args["out"] >= 0) & (args["out"] < 2)).all()
    assert args["trace"][-1] == core.vertices_covered > 0


@pytest.mark.parametrize(
    "override,message",
    [
        (dict(src=np.array([0, 1, 4], dtype=np.int64)), r"src vertex ids must lie in \[0, 4\)"),
        (dict(dst=np.array([1, -1, 3], dtype=np.int64)), r"dst vertex ids"),
        (dict(order=np.array([2, 0, 3], dtype=np.int64)), r"order must lie in \[0, 3\)"),
        (dict(order=np.array([-1], dtype=np.int64), trace=None), r"order must lie"),
        (dict(src=np.array([0, 1, 2], dtype=np.int32)), "src must be a C-contiguous 1-D int64"),
        (dict(out=np.zeros(3, dtype=np.float64)), "out must be"),
        (dict(order=np.arange(6, dtype=np.int64)[::2]), "order must be a C-contiguous"),
        (dict(out=np.full(2, -1, dtype=np.int64)), "must be equally long"),
        (dict(trace=np.zeros(2, dtype=np.int64)), "trace must be as long as order"),
        (dict(out=_read_only(np.full(3, -1, dtype=np.int64))), "out must be a writeable"),
    ],
    ids=["id-past-rows", "negative-id", "order-past-end", "negative-order", "int32-src",
         "float-out", "strided-order", "short-out", "short-trace", "read-only-out"],
)
def test_bad_arguments_raise_before_the_kernel_runs(override, message):
    core = EBVCore(2, 1.0, 1.0, 3, 4)
    args = _args(**override)
    out = args["out"].copy()
    with pytest.raises(ValueError, match=message):
        core.assign(**args)
    assert not (core.member.any() or core.ecount.any() or core.vcount.any())
    assert np.array_equal(args["out"], out)


def test_replaced_state_is_checked():
    core = EBVCore(2, 1.0, 1.0, 3, 4)
    core.ecount = np.zeros(2, dtype=np.int32)
    with pytest.raises(ValueError, match="ecount must be"):
        core.assign(*(np.zeros(1, dtype=np.int64) for _ in range(4)))
