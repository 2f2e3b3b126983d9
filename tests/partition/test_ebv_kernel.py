"""The compiled EBV loop: its argument checks and its build cache.

``EBVCore.assign`` hands raw pointers to C, so every shape, dtype and
index is checked first; a failure is a ``ValueError`` and leaves the
state untouched.  The library is built on first use into the bytecode
cache — here ``sys.pycache_prefix`` points at ``tmp_path`` — and named
by the hash of its source and compile command.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import cli
from repro.graph import Graph, write_edge_list
from repro.partition import ebv as ebv_module
from repro.partition.ebv import EBVCore, KernelBuildError

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


def _libraries(cache):
    """Kernel files in the cache directory (bytecode may sit there too)."""
    return sorted(p.name for p in cache.glob("ebv_kernel*"))


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


# ----------------------------------------------------------------------
# The build cache
# ----------------------------------------------------------------------


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """An empty bytecode cache; returns the directory the library goes to."""
    monkeypatch.setattr(sys, "pycache_prefix", str(tmp_path))
    path, _ = ebv_module.kernel_build()
    assert tmp_path in path.parents and not path.exists()
    return path.parent


def _count_compiles(monkeypatch):
    calls = []
    run = subprocess.run

    def counting(argv, **kwargs):
        calls.append(argv)
        return run(argv, **kwargs)

    monkeypatch.setattr(ebv_module.subprocess, "run", counting)
    return calls


def test_an_empty_cache_builds_once(cache, monkeypatch):
    calls = _count_compiles(monkeypatch)
    ebv_module.load_kernel()
    ebv_module.load_kernel()
    assert len(calls) == 1
    assert _libraries(cache) == [ebv_module.kernel_build()[0].name]


#: loads the kernel and partitions a small graph; with ``NO_COMPILE`` set,
#: any subprocess fails the run
CHILD = textwrap.dedent(
    """
    import os, subprocess, sys, time, zlib
    if os.environ.get("NO_COMPILE"):
        def refuse(*args, **kwargs):
            raise AssertionError("compiled")
        subprocess.run = refuse
    go = os.environ.get("GO_FILE")
    while go and not os.path.exists(go):
        time.sleep(0.001)
    from repro.graph import generate_graph
    from repro.partition import EBVPartitioner
    parts = EBVPartitioner().partition(generate_graph("powerlaw", vertices=300, seed=5), 4)
    print(zlib.crc32(parts.edge_parts.tobytes()))
    """
)


def _child(prefix, **env):
    env = dict(os.environ, PYTHONPATH=SRC_DIR, PYTHONPYCACHEPREFIX=str(prefix), **env)
    return subprocess.Popen(
        [sys.executable, "-c", CHILD], env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
    )


def _finish(proc):
    stdout, stderr = proc.communicate(timeout=120)
    assert proc.returncode == 0, stderr
    return stdout


def test_a_second_process_loads_without_compiling(cache, tmp_path):
    ebv_module.load_kernel()
    built = ebv_module.kernel_build()[0]
    stamp = built.stat().st_mtime_ns
    _finish(_child(tmp_path, NO_COMPILE="1"))
    assert _libraries(cache) == [built.name]
    assert built.stat().st_mtime_ns == stamp


def test_concurrent_builders_both_load(cache, tmp_path):
    go = tmp_path / "go"
    procs = [_child(tmp_path, GO_FILE=str(go)) for _ in range(2)]
    go.touch()
    first, second = (_finish(proc) for proc in procs)
    assert first == second
    assert _libraries(cache) == [ebv_module.kernel_build()[0].name]


def test_a_compile_error_raises_the_typed_error(cache, tmp_path, monkeypatch):
    broken = tmp_path / "ebv_kernel.c"
    broken.write_text("#error this source does not compile\n")
    monkeypatch.setattr(ebv_module, "KERNEL_SOURCE", broken)
    with pytest.raises(KernelBuildError, match="this source does not compile") as info:
        ebv_module.load_kernel()
    assert "-ffp-contract=off" in str(info.value) and str(broken) in str(info.value)
    assert _libraries(cache) == []


def test_a_missing_compiler_raises_the_typed_error(cache, monkeypatch):
    command = ("/nonexistent/cc",) + ebv_module.KERNEL_COMMAND[1:]
    monkeypatch.setattr(ebv_module, "KERNEL_COMMAND", command)
    with pytest.raises(KernelBuildError, match="/nonexistent/cc"):
        ebv_module.load_kernel()
    assert _libraries(cache) == []


def test_the_cli_reports_a_failed_build(cache, tmp_path, monkeypatch, capsys):
    broken = tmp_path / "ebv_kernel.c"
    broken.write_text("#error no kernel today\n")
    monkeypatch.setattr(ebv_module, "KERNEL_SOURCE", broken)
    monkeypatch.setattr(ebv_module, "_kernel", ebv_module.load_kernel)
    graph_file = tmp_path / "g.txt"
    write_edge_list(Graph.from_edges([(0, 1), (1, 2)], num_vertices=3), str(graph_file))
    assert cli.main(["partition", str(graph_file), "--method", "ebv", "--parts", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot build the EBV kernel") and "no kernel today" in err
    assert "Traceback" not in err
