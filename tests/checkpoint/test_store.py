"""Snapshot store unit tests: atomicity, retention, corruption rejection.

Torn writes, bit flips, truncated payloads, hand-edited manifests and
wrong-format directories must all be *rejected* with a clear
:class:`~repro.checkpoint.CheckpointError` — a damaged checkpoint is
never silently resumed (acceptance criterion #4).
"""

import json
import os

import numpy as np
import pytest

from repro.bsp.engine import SuperstepStats
from repro.checkpoint import (
    CheckpointError,
    CheckpointWriter,
    latest_snapshot_dir,
    list_snapshots,
    load_snapshot,
    write_snapshot,
)

FINGERPRINT = {"fingerprint_version": 1, "graph": {"name": "t", "edges_crc": 7}}
META = {
    "program": "CC",
    "partition_method": "ebv",
    "graph_name": "t",
    "num_workers": 2,
    "backend": "serial",
}


def _stats(p=2):
    return SuperstepStats(
        work=np.array([1.5, 2.5]),
        sent=np.array([3, 4], dtype=np.int64),
        received=np.array([4, 3], dtype=np.int64),
        comp_seconds=np.array([0.1, 0.2]),
        comm_seconds=np.array([0.01, 0.02]),
        real_seconds={"compute": 0.5, "exchange": 0.25},
    )


def _arrays():
    return {
        "values": [np.array([1.0, 2.0, np.inf]), np.array([4.0])],
        "changed": [np.array([True, False, True]), np.array([False])],
        "active": [np.array([False, True, False]), np.array([True])],
    }


def _write(root, superstep=2, done=False, keep=None):
    return write_snapshot(
        str(root),
        superstep=superstep,
        done=done,
        fingerprint=FINGERPRINT,
        meta=META,
        arrays=_arrays(),
        supersteps=[_stats() for _ in range(superstep)],
        keep=keep,
    )


def test_round_trip_is_bit_identical(tmp_path):
    snap_dir = _write(tmp_path)
    snap = load_snapshot(snap_dir)
    assert snap.superstep == 2
    assert snap.done is False
    assert snap.fingerprint == FINGERPRINT
    assert snap.meta == META
    want = _arrays()
    assert set(snap.arrays) == set(want)
    for kind, worker_arrays in want.items():
        for got, exp in zip(snap.arrays[kind], worker_arrays):
            assert got.dtype == exp.dtype
            assert np.array_equal(got, exp)
    assert len(snap.supersteps) == 2
    ref = _stats()
    for s in snap.supersteps:
        for f in ("work", "sent", "received", "comp_seconds", "comm_seconds"):
            assert np.array_equal(getattr(s, f), getattr(ref, f))
        assert s.real_seconds == ref.real_seconds


def test_load_from_root_resolves_newest(tmp_path):
    _write(tmp_path, superstep=1)
    _write(tmp_path, superstep=3)
    assert latest_snapshot_dir(str(tmp_path)).endswith("step-000003")
    assert load_snapshot(str(tmp_path)).superstep == 3


def test_stale_staging_dirs_are_ignored_and_collected(tmp_path):
    (tmp_path / ".tmp-step-000009-123").mkdir()
    _write(tmp_path, superstep=1)
    assert load_snapshot(str(tmp_path)).superstep == 1
    # Staging garbage from a crashed writer is removed by the next write.
    assert not [d for d in os.listdir(tmp_path) if d.startswith(".tmp-")]


def test_keep_prunes_oldest_snapshots(tmp_path):
    for k in (1, 2, 3, 4):
        _write(tmp_path, superstep=k, keep=2)
    names = [os.path.basename(d) for d in list_snapshots(str(tmp_path))]
    assert names == ["step-000003", "step-000004"]


def test_keep_none_retains_everything(tmp_path):
    for k in (1, 2, 3):
        _write(tmp_path, superstep=k, keep=None)
    assert len(list_snapshots(str(tmp_path))) == 3


def test_missing_directory_is_rejected(tmp_path):
    with pytest.raises(CheckpointError, match="does not exist"):
        load_snapshot(str(tmp_path / "nope"))


def test_empty_root_is_rejected(tmp_path):
    with pytest.raises(CheckpointError, match="no checkpoint snapshots"):
        load_snapshot(str(tmp_path))


def test_truncated_payload_is_rejected_as_torn(tmp_path):
    snap_dir = _write(tmp_path)
    state = os.path.join(snap_dir, "payload.bin")
    with open(state, "r+b") as fh:
        fh.truncate(os.path.getsize(state) - 7)
    with pytest.raises(CheckpointError, match="torn"):
        load_snapshot(snap_dir)


def test_flipped_byte_fails_the_checksum(tmp_path):
    snap_dir = _write(tmp_path)
    state = os.path.join(snap_dir, "payload.bin")
    raw = bytearray(open(state, "rb").read())
    raw[len(raw) // 2] ^= 0xFF
    open(state, "wb").write(bytes(raw))
    with pytest.raises(CheckpointError, match="[Cc]hecksum"):
        load_snapshot(snap_dir)


def test_missing_payload_is_rejected(tmp_path):
    snap_dir = _write(tmp_path)
    os.remove(os.path.join(snap_dir, "payload.bin"))
    with pytest.raises(CheckpointError, match="missing"):
        load_snapshot(snap_dir)


@pytest.mark.parametrize("content", [b'{"format": "repro-checkpoint", ', b'{"format": "\xff"}'],
                         ids=["torn", "not-utf8"])
def test_invalid_manifest_json_is_rejected(tmp_path, content):
    snap_dir = _write(tmp_path)
    with open(os.path.join(snap_dir, "manifest.json"), "wb") as fh:
        fh.write(content)  # torn mid-write, or a flipped byte
    with pytest.raises(CheckpointError, match="corrupted checkpoint manifest"):
        load_snapshot(snap_dir)


def test_foreign_manifest_format_is_rejected(tmp_path):
    snap_dir = _write(tmp_path)
    path = os.path.join(snap_dir, "manifest.json")
    manifest = json.load(open(path))
    manifest["format"] = "something-else"
    json.dump(manifest, open(path, "w"))
    with pytest.raises(CheckpointError, match="not a repro-checkpoint manifest"):
        load_snapshot(snap_dir)


def test_future_version_is_rejected(tmp_path):
    snap_dir = _write(tmp_path)
    path = os.path.join(snap_dir, "manifest.json")
    manifest = json.load(open(path))
    manifest["version"] = 99
    json.dump(manifest, open(path, "w"))
    with pytest.raises(CheckpointError, match="unsupported checkpoint version"):
        load_snapshot(snap_dir)


def test_superstep_count_mismatch_is_rejected(tmp_path):
    snap_dir = _write(tmp_path, superstep=2)
    path = os.path.join(snap_dir, "manifest.json")
    manifest = json.load(open(path))
    manifest["superstep"] = 5  # claims more progress than it recorded
    json.dump(manifest, open(path, "w"))
    with pytest.raises(CheckpointError, match="claims boundary"):
        load_snapshot(snap_dir)


def test_rewriting_a_boundary_replaces_the_snapshot(tmp_path):
    _write(tmp_path, superstep=2, done=False)
    _write(tmp_path, superstep=2, done=True)
    assert len(list_snapshots(str(tmp_path))) == 1
    assert load_snapshot(str(tmp_path)).done is True


def test_write_snapshot_rejects_zero_retention(tmp_path):
    """Direct write_snapshot calls validate keep too — keep=0 would prune
    every snapshot a recovery could restore from."""
    for bad in (0, -1, True):
        with pytest.raises(CheckpointError, match="keep"):
            _write(tmp_path, superstep=1, keep=bad)
    assert list_snapshots(str(tmp_path)) == []  # nothing was published


def test_writer_validates_configuration(tmp_path):
    with pytest.raises(CheckpointError, match="checkpoint_every"):
        CheckpointWriter(str(tmp_path), every=0)
    with pytest.raises(CheckpointError, match="checkpoint_every"):
        CheckpointWriter(str(tmp_path), every=True)
    with pytest.raises(CheckpointError, match="checkpoint_keep"):
        CheckpointWriter(str(tmp_path), keep=0)
    with pytest.raises(CheckpointError, match="directory"):
        CheckpointWriter("")
    writer = CheckpointWriter(str(tmp_path), every=3)
    assert [k for k in range(1, 8) if writer.due(k)] == [3, 6]


def test_clear_snapshots_removes_everything(tmp_path):
    from repro.checkpoint import clear_snapshots

    for k in (1, 2):
        _write(tmp_path, superstep=k)
    (tmp_path / ".old-step-000001-99").mkdir()
    assert clear_snapshots(str(tmp_path)) == 2
    assert list_snapshots(str(tmp_path)) == []
    assert not any(d.startswith(".old-") for d in os.listdir(tmp_path))
    assert clear_snapshots(str(tmp_path / "missing")) == 0


def test_root_load_falls_back_when_newest_is_damaged(tmp_path):
    _write(tmp_path, superstep=1)
    newest = _write(tmp_path, superstep=2)
    state = os.path.join(newest, "payload.bin")
    with open(state, "r+b") as fh:
        fh.truncate(os.path.getsize(state) - 3)
    snap = load_snapshot(str(tmp_path))
    assert snap.superstep == 1
    # Explicitly naming the damaged snapshot never falls back.
    with pytest.raises(CheckpointError, match="torn"):
        load_snapshot(newest)


def test_root_load_reports_every_failure_when_all_damaged(tmp_path):
    for k in (1, 2):
        snap_dir = _write(tmp_path, superstep=k)
        os.remove(os.path.join(snap_dir, "payload.bin"))
    with pytest.raises(CheckpointError, match="every snapshot .* failed"):
        load_snapshot(str(tmp_path))


@pytest.mark.parametrize("missing_key", ["superstep", "done"])
def test_manifest_missing_required_key_is_checkpoint_error(tmp_path, missing_key):
    snap_dir = _write(tmp_path)
    path = os.path.join(snap_dir, "manifest.json")
    manifest = json.load(open(path))
    del manifest[missing_key]
    json.dump(manifest, open(path, "w"))
    with pytest.raises(CheckpointError, match=f"'{missing_key}'"):
        load_snapshot(snap_dir)


@pytest.mark.parametrize(
    "edit",
    [lambda m: {k: v for k, v in m.items() if k != "superstep"},
     lambda m: ["not", "an", "object"],
     lambda m: {**m, "array_kinds": 3},
     lambda m: {**m, "real_seconds": [1, 2]},
     lambda m: {**m, "meta": {**m["meta"], "num_workers": "x"}}],
    ids=["keyless", "list", "int-array-kinds", "real-seconds-not-objects", "str-num-workers"],
)
def test_root_load_falls_back_past_a_keyless_manifest(tmp_path, edit):
    """A junk manifest must not abort the root fallback scan."""
    _write(tmp_path, superstep=1)
    newest = _write(tmp_path, superstep=2)
    path = os.path.join(newest, "manifest.json")
    json.dump(edit(json.load(open(path))), open(path, "w"))
    with pytest.raises(CheckpointError):
        load_snapshot(newest)
    assert load_snapshot(str(tmp_path)).superstep == 1


# ----------------------------------------------------------------------
# The array table is outside input: validated before any np.frombuffer
# ----------------------------------------------------------------------


def _edit_manifest(snap_dir, edit):
    path = os.path.join(snap_dir, "manifest.json")
    manifest = json.load(open(path))
    edit(manifest)
    json.dump(manifest, open(path, "w"))


def _set_entry(index, field, value):
    def edit(manifest):
        manifest["arrays"][index][field] = value

    return edit


def _repeat_first_name(manifest):
    # active_00001 has active_00000's name: same byte total, one name twice.
    manifest["arrays"][1][0] = manifest["arrays"][0][0]


BAD_TABLES = {
    "missing": lambda m: m.pop("arrays"),
    "not-a-list": lambda m: m.update(arrays={"values_00000": ["<f8", [3]]}),
    "entry-not-a-list": lambda m: m["arrays"].insert(0, "active_00000"),
    "entry-too-short": lambda m: m["arrays"][0].pop(),
    "entry-too-long": lambda m: m["arrays"][0].append(0),
    "name-not-str": _set_entry(0, 0, 7),
    "dtype-not-str": _set_entry(0, 1, None),  # np.dtype(None) would be float64
    "shape-not-list": _set_entry(0, 2, 3),
    "negative-dim": _set_entry(0, 2, [-3]),
    "float-dim": _set_entry(0, 2, [3.0]),
    "bool-dim": _set_entry(0, 2, [True, 3]),
    "unknown-dtype": _set_entry(0, 1, "nonsense"),
    "object-dtype": _set_entry(0, 1, "|O"),
    "void-dtype": _set_entry(0, 1, "|V1"),
    "bytes-dtype": _set_entry(0, 1, "|S1"),
    "str-dtype": _set_entry(0, 1, "<U1"),
    "structured-dtype": _set_entry(0, 1, "i1,i1"),
    "complex-dtype": _set_entry(0, 1, "<c8"),
    "datetime-dtype": _set_entry(0, 1, "<M8[s]"),
    "repeated-name": _repeat_first_name,
    "total-too-long": _set_entry(0, 2, [4]),
    "total-too-short": lambda m: m["arrays"].pop(),
    "total-huge": _set_entry(0, 2, [2**62, 2**62]),
    # Zero bytes in total, but no numpy shape: reshape itself would fail.
    "empty-dim-too-big": lambda m: m["arrays"].append(["extra", "<i8", [0, 10**30]]),
    "empty-size-too-big": lambda m: m["arrays"].append(["extra", "<i8", [2**62, 0]]),
}


@pytest.mark.parametrize("case", sorted(BAD_TABLES))
def test_invalid_array_table_is_rejected_before_slicing(tmp_path, monkeypatch, case):
    _write(tmp_path, superstep=1)
    snap_dir = _write(tmp_path, superstep=2)
    _edit_manifest(snap_dir, BAD_TABLES[case])

    def no_slicing(*args, **kwargs):
        raise AssertionError("np.frombuffer ran on an unvalidated table")

    with monkeypatch.context() as patch:
        patch.setattr(np, "frombuffer", no_slicing)
        with pytest.raises(CheckpointError, match="invalid array table") as excinfo:
            load_snapshot(snap_dir)
    assert snap_dir in str(excinfo.value)
    # The root load skips it like any other damaged snapshot.
    assert load_snapshot(str(tmp_path)).superstep == 1


def test_table_naming_too_few_arrays_is_rejected(tmp_path):
    """A consistent table that lacks an array the manifest promises."""
    snap_dir = _write(tmp_path)

    def rename(manifest):
        manifest["arrays"][0][0] = "bogus_00000"

    _edit_manifest(snap_dir, rename)
    with pytest.raises(CheckpointError, match="lacks array 'active_00000'"):
        load_snapshot(snap_dir)


# ----------------------------------------------------------------------
# Old layouts are refused by name, never mis-read
# ----------------------------------------------------------------------


def _write_version_1(root, superstep=3):
    """A hand-built snapshot in the retired two-archive layout."""
    snap_dir = os.path.join(str(root), f"step-{superstep:06d}")
    os.makedirs(snap_dir)
    np.savez(os.path.join(snap_dir, "state.npz"), values_00000=np.zeros(3))
    np.savez(os.path.join(snap_dir, "supersteps.npz"), work=np.zeros((superstep, 2)))
    manifest = {
        "format": "repro-checkpoint",
        "version": 1,
        "superstep": superstep,
        "done": False,
        "fingerprint": FINGERPRINT,
        "meta": META,
        "array_kinds": ["values"],
        "real_seconds": [{}] * superstep,
        "files": {
            name: {"sha256": "0" * 64, "bytes": os.path.getsize(os.path.join(snap_dir, name))}
            for name in ("state.npz", "supersteps.npz")
        },
    }
    with open(os.path.join(snap_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return snap_dir


OLD_LAYOUT = "unsupported checkpoint version 1 .*older build.*not migrated.*re-run"


def test_version_1_snapshot_is_refused_by_name(tmp_path):
    with pytest.raises(CheckpointError, match=OLD_LAYOUT):
        load_snapshot(_write_version_1(tmp_path))


def test_version_1_snapshot_is_refused_through_the_engine(
    tmp_path, ckpt_graph, ckpt_dgraphs
):
    from repro.bsp import BSPEngine
    from repro.pipeline import APPS

    old = _write_version_1(tmp_path)
    with pytest.raises(CheckpointError, match=OLD_LAYOUT):
        BSPEngine().run(ckpt_dgraphs[2], APPS.create("cc", ckpt_graph), resume_from=old)


def test_root_load_falls_back_past_a_version_1_snapshot(tmp_path):
    _write(tmp_path, superstep=2)
    _write_version_1(tmp_path, superstep=3)  # newest, unreadable by this build
    assert load_snapshot(str(tmp_path)).superstep == 2


# ----------------------------------------------------------------------
# Degenerate shapes and the I/O budget
# ----------------------------------------------------------------------


def test_round_trip_with_empty_worker_array_and_no_supersteps(tmp_path):
    """A worker that owns nothing and a boundary-0 snapshot: zero-length
    buffers keep their table entries and contribute no payload bytes."""
    arrays = {
        "values": [np.array([1.0, 2.0]), np.empty(0)],
        "changed": [np.array([True, False]), np.empty(0, dtype=bool)],
    }
    snap_dir = write_snapshot(
        str(tmp_path), superstep=0, done=False, fingerprint=FINGERPRINT,
        meta=META, arrays=arrays, supersteps=[], keep=None,
    )  # fmt: skip
    manifest = json.load(open(os.path.join(snap_dir, "manifest.json")))
    table = {name: (dtype, shape) for name, dtype, shape in manifest["arrays"]}
    assert table["values_00001"] == ("<f8", [0])
    assert table["changed_00001"] == ("|b1", [0])
    assert table["work"] == ("<f8", [0, 2]) and table["sent"] == ("<i8", [0, 2])
    assert os.path.getsize(os.path.join(snap_dir, "payload.bin")) == 2 * 8 + 2

    snap = load_snapshot(snap_dir)
    assert snap.superstep == 0 and snap.supersteps == []
    for kind, worker_arrays in arrays.items():
        for got, want in zip(snap.arrays[kind], worker_arrays):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)


def test_snapshot_io_budget(tmp_path, monkeypatch):
    """Three fsyncs per write, the payload opened once to write and never
    to read; one read of it per load."""
    from repro.checkpoint import store

    fsyncs = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: fsyncs.append(fd) or real_fsync(fd))
    opened = []

    def counting_open(path, mode="r", *args, **kwargs):
        opened.append((os.path.basename(path), mode))
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(store, "open", counting_open, raising=False)
    snap_dir = _write(tmp_path)
    assert len(fsyncs) == 3
    assert opened == [("payload.bin", "wb"), ("manifest.json", "w")]

    # Replacing an existing boundary costs the same three.
    del fsyncs[:], opened[:]
    _write(tmp_path)
    assert len(fsyncs) == 3
    assert [entry for entry in opened if entry[0] == "payload.bin"] == [("payload.bin", "wb")]

    del fsyncs[:], opened[:]
    load_snapshot(snap_dir)
    assert opened == [("manifest.json", "r"), ("payload.bin", "rb")]
    assert fsyncs == []


def test_manifest_is_one_compact_line(tmp_path):
    snap_dir = _write(tmp_path)
    text = open(os.path.join(snap_dir, "manifest.json")).read()
    manifest = json.loads(text)
    assert text == json.dumps(manifest, sort_keys=True, separators=(",", ":")) + "\n"
    assert manifest["version"] == 2
    assert list(manifest["files"]) == ["payload.bin"]
    names = [name for name, _, _ in manifest["arrays"]]
    state = [n for n in names if n[-5:].isdigit()]
    assert state == sorted(state) and names[len(state):] == [
        "work", "sent", "received", "comp_seconds", "comm_seconds"
    ]  # fmt: skip
