"""The build-on-first-use cache every C kernel shares (``repro.ckernel``).

Each library is built on first use into the bytecode cache — here
``sys.pycache_prefix`` points at ``tmp_path`` — and named by the hash of
its source and compile command.  Every case runs for every kernel: EBV's
loop, the edge-list block parser, PageRank's edge pass and the process
backend's superstep barrier.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro import ckernel, cli
from repro.apps import pagerank as pagerank_module
from repro.graph import Graph, io as graph_io, write_edge_list
from repro.partition import KernelBuildError
from repro.partition import ebv as ebv_module
from repro.runtime import process as process_module

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

#: ``(module that loads it, label in its build errors, CLI verb that loads it)``
KERNELS = {
    "ebv": (ebv_module, "EBV", ["partition", "--method", "ebv", "--parts", "2"]),
    "edge-list": (graph_io, "edge-list", ["stats"]),
    "pagerank": (pagerank_module, "PageRank", ["run", "--app", "pr"]),
    "barrier": (process_module, "barrier", ["run", "--app", "cc", "--backend", "process"]),
}


@pytest.fixture(params=sorted(KERNELS))
def kernel(request):
    return KERNELS[request.param]


def _libraries(cache, source):
    """Kernel files in the cache directory (bytecode may sit there too)."""
    return sorted(p.name for p in cache.glob(f"{source.stem}*"))


def test_importing_the_builder_loads_no_other_repro_module():
    code = (
        "import sys, repro.ckernel\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro')))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "['repro', 'repro.ckernel']"


def test_both_fronts_raise_the_one_error_class():
    assert KernelBuildError is ckernel.KernelBuildError is ebv_module.KernelBuildError


@pytest.fixture
def cache(tmp_path, monkeypatch, kernel):
    """An empty bytecode cache; returns the directory the library goes to."""
    monkeypatch.setattr(sys, "pycache_prefix", str(tmp_path))
    path, _ = ckernel.kernel_build(kernel[0].KERNEL_SOURCE)
    assert tmp_path in path.parents and not path.exists()
    return path.parent


def _count_compiles(monkeypatch):
    calls = []
    run = subprocess.run

    def counting(argv, **kwargs):
        calls.append(argv)
        return run(argv, **kwargs)

    monkeypatch.setattr(ckernel.subprocess, "run", counting)
    return calls


def test_an_empty_cache_builds_once(cache, kernel, monkeypatch):
    module, label, _ = kernel
    calls = _count_compiles(monkeypatch)
    ckernel.load_library(module.KERNEL_SOURCE, label)
    ckernel.load_library(module.KERNEL_SOURCE, label)
    assert len(calls) == 1
    assert _libraries(cache, module.KERNEL_SOURCE) == [
        ckernel.kernel_build(module.KERNEL_SOURCE)[0].name
    ]


#: reads an edge list and partitions it with EBV, then loads the other
#: two kernels, so every kernel loads; with ``NO_COMPILE`` set, any
#: subprocess fails the run
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
    from repro.graph import read_edge_list
    from repro.partition import EBVPartitioner
    parts = EBVPartitioner().partition(read_edge_list(os.environ["GRAPH_FILE"]), 4)
    from repro.apps import pagerank
    from repro.runtime import process
    pagerank._kernel(), process._kernel()
    print(zlib.crc32(parts.edge_parts.tobytes()))
    """
)


@pytest.fixture
def graph_file(tmp_path, small_road):
    path = tmp_path / "road.txt"
    write_edge_list(small_road, str(path))
    return str(path)


def _child(prefix, graph_file, **env):
    # The inherited path stays behind ours: a ``sitecustomize`` on it
    # (the sanitized-kernel job's) must reach the child too.
    path = os.pathsep.join(filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")]))
    env = dict(
        os.environ, PYTHONPATH=path, PYTHONPYCACHEPREFIX=str(prefix), GRAPH_FILE=graph_file, **env
    )
    return subprocess.Popen(
        [sys.executable, "-c", CHILD], env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
    )


def _finish(proc):
    stdout, stderr = proc.communicate(timeout=120)
    assert proc.returncode == 0, stderr
    return stdout


def _built():
    """Every library's path in the current cache."""
    return [ckernel.kernel_build(module.KERNEL_SOURCE)[0] for module, _, _ in KERNELS.values()]


def _alone(path):
    """``path`` is the only build of its kernel in its directory."""
    return sorted(p.name for p in path.parent.glob(path.name.split(".")[0] + "*")) == [path.name]


def test_a_second_process_loads_without_compiling(tmp_path, monkeypatch, graph_file):
    monkeypatch.setattr(sys, "pycache_prefix", str(tmp_path))
    for module, label, _ in KERNELS.values():
        ckernel.load_library(module.KERNEL_SOURCE, label)
    stamps = [(path, path.stat().st_mtime_ns) for path in _built()]
    _finish(_child(tmp_path, graph_file, NO_COMPILE="1"))
    for path, stamp in stamps:
        assert _alone(path) and path.stat().st_mtime_ns == stamp


def test_concurrent_builders_both_load(tmp_path, monkeypatch, graph_file):
    monkeypatch.setattr(sys, "pycache_prefix", str(tmp_path))
    go = tmp_path / "go"
    procs = [_child(tmp_path, graph_file, GO_FILE=str(go)) for _ in range(2)]
    go.touch()
    first, second = (_finish(proc) for proc in procs)
    assert first == second
    assert all(_alone(path) for path in _built())


def test_a_compile_error_raises_the_typed_error(cache, kernel, tmp_path):
    module, label, _ = kernel
    broken = tmp_path / module.KERNEL_SOURCE.name
    broken.write_text("#error this source does not compile\n")
    with pytest.raises(KernelBuildError, match="this source does not compile") as info:
        ckernel.load_library(broken, label)
    message = str(info.value)
    assert message.startswith(f"cannot build the {label} kernel: ")
    assert "-ffp-contract=off" in message and str(broken) in message
    assert _libraries(cache, broken) == []


def test_a_missing_compiler_raises_the_typed_error(cache, kernel, monkeypatch):
    module, label, _ = kernel
    command = ("/nonexistent/cc",) + ckernel.KERNEL_COMMAND[1:]
    monkeypatch.setattr(ckernel, "KERNEL_COMMAND", command)
    with pytest.raises(KernelBuildError, match=f"the {label} kernel: .*/nonexistent/cc"):
        ckernel.load_library(module.KERNEL_SOURCE, label)
    assert _libraries(cache, module.KERNEL_SOURCE) == []


def test_the_cli_reports_a_failed_build(cache, kernel, tmp_path, monkeypatch, capsys):
    module, label, verb = kernel
    broken = tmp_path / module.KERNEL_SOURCE.name
    broken.write_text("#error no kernel today\n")
    monkeypatch.setattr(module, "KERNEL_SOURCE", broken)
    monkeypatch.setattr(module, "_kernel", module._kernel.__wrapped__)
    graph_file = tmp_path / "g.txt"
    write_edge_list(Graph.from_edges([(0, 1), (1, 2)], num_vertices=3), str(graph_file))
    assert cli.main(verb[:1] + [str(graph_file)] + verb[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot build the {label} kernel") and "no kernel today" in err
    assert "Traceback" not in err
