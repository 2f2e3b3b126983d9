"""Snapshot storage: atomic directories, one checksummed raw payload.

A checkpoint *root* holds one subdirectory per snapshot plus nothing
else the store depends on (pipeline-level callers drop ``pipeline.json``
and a ``spill/`` directory next to the snapshots)::

    root/
      step-000002/
        manifest.json     # superstep, fingerprint, array table, payload checksum
        payload.bin       # every array's raw C-contiguous buffer, back to back
      step-000004/

Payload: the per-worker state arrays in sorted ``kind_wwwww`` order,
then the five stacked ``(k, p)`` superstep arrays; no header or padding.
The manifest's ordered :mod:`repro.arraytable` table ``"arrays"`` says
what the bytes are; its byte total equals the payload's length.
``real_seconds`` (measured walls) stays in the manifest, outside the
hashed payload, so the same job writes byte-identical payloads on every
backend, traced or not.

Integrity: each buffer is fed to a running SHA-256 *as it is written*,
never re-read.  :func:`load_snapshot` reads the payload once and checks
its length ("torn") and digest ("checksum") against the manifest before
it interprets a single array; the table is outside input, validated by
:func:`repro.arraytable.views` before a byte is read as an array.

Atomicity: staged in ``root/.tmp-step-*`` (payload written and fsynced,
then the manifest), renamed into place, root fsynced: three fsyncs.  A
crash leaves either the previous snapshots untouched plus at most one
``.tmp-*`` directory (swept by later writes), or the new one complete.

Versions: 1 was two numpy zip archives (``state.npz``, ``supersteps.npz``);
2 is this layout.  Snapshots are scratch state of one run, so an older
layout is refused by version, never migrated.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from ..arraytable import ArrayTableError, describe, views

__all__ = [
    "CheckpointError",
    "Snapshot",
    "write_snapshot",
    "load_snapshot",
    "latest_snapshot_dir",
    "list_snapshots",
]

SNAPSHOT_FORMAT = "repro-checkpoint"
SNAPSHOT_VERSION = 2

_MANIFEST = "manifest.json"
_PAYLOAD = "payload.bin"
_STEP_RE = re.compile(r"^step-(\d{6,})$")
#: the stacked per-superstep record arrays, in manifest order.
_SUPERSTEP_FIELDS = ("work", "sent", "received", "comp_seconds", "comm_seconds")


class CheckpointError(RuntimeError):
    """A checkpoint is missing, corrupt, torn, or belongs to another run."""


def _step_dirname(superstep: int) -> str:
    return f"step-{superstep:06d}"


@dataclass
class Snapshot:
    """One loaded, checksum-verified snapshot.

    ``arrays`` maps array kind (the program mode's
    :data:`repro.runtime.shard.SNAPSHOT_KINDS`) to the per-worker list;
    ``supersteps`` is the reconstructed
    :class:`~repro.bsp.engine.SuperstepStats` list for every superstep
    completed before the snapshot was taken.
    """

    directory: str
    superstep: int
    done: bool
    fingerprint: Dict[str, Any]
    meta: Dict[str, Any]
    arrays: Dict[str, List[np.ndarray]]
    supersteps: List  # List[SuperstepStats]; typed loosely to avoid an import cycle


def list_snapshots(root: str) -> List[str]:
    """Valid-looking snapshot directories under ``root``, oldest first.

    Only checks naming (``step-NNNNNN`` with a manifest present);
    integrity is verified by :func:`load_snapshot`.
    """
    if not os.path.isdir(root):
        return []
    found = []
    for name in os.listdir(root):
        match = _STEP_RE.match(name)
        path = os.path.join(root, name)
        if match and os.path.isfile(os.path.join(path, _MANIFEST)):
            found.append((int(match.group(1)), path))
    return [path for _, path in sorted(found)]


def clear_snapshots(root: str) -> int:
    """Remove every snapshot (and staging leftovers) under ``root``.

    Called by the engine when a *fresh* checkpointed run starts: stale
    snapshots from a previous run would otherwise poison retention
    pruning (they count toward ``keep``) and resume (the stale final
    snapshot shadows the new run's progress).  Returns the number of
    snapshots removed.
    """
    removed = 0
    if not os.path.isdir(root):
        return removed
    for path in list_snapshots(root):
        shutil.rmtree(path, ignore_errors=True)
        removed += 1
    for name in os.listdir(root):
        if name.startswith(".tmp-step-") or name.startswith(".old-step-"):
            shutil.rmtree(os.path.join(root, name), ignore_errors=True)
    return removed


def latest_snapshot_dir(root: str) -> str:
    """The newest snapshot directory under ``root`` (highest superstep)."""
    snaps = list_snapshots(root)
    if not snaps:
        raise CheckpointError(
            f"{root!r} contains no checkpoint snapshots (expected step-NNNNNN "
            "directories with a manifest.json)"
        )
    return snaps[-1]


def write_snapshot(
    root: str,
    *,
    superstep: int,
    done: bool,
    fingerprint: Dict[str, Any],
    meta: Dict[str, Any],
    arrays: Dict[str, List[np.ndarray]],
    supersteps: List,
    keep: Optional[int] = 2,
) -> str:
    """Atomically persist one snapshot; return its final directory.

    ``keep`` prunes all but the newest ``keep`` snapshots after a
    successful write (``None`` keeps everything — the crash-matrix test
    harness resumes from every boundary of one run).  It must be an
    integer >= 1 or ``None``: ``keep=0`` would make the post-write
    prune delete every snapshot except the one just published — and the
    final snapshot is useless for mid-run recovery, so retention of 0
    silently breaks ``max_recoveries`` and ``repro resume``.
    """
    if keep is not None and (isinstance(keep, bool) or not isinstance(keep, int) or keep < 1):
        raise CheckpointError(
            f"snapshot retention 'keep' must be an integer >= 1 or None "
            f"(keep all), got {keep!r}; keep=0 would prune every snapshot "
            "a recovery or resume could restore from"
        )
    os.makedirs(root, exist_ok=True)
    final_dir = os.path.join(root, _step_dirname(superstep))
    tmp_dir = os.path.join(root, f".tmp-{_step_dirname(superstep)}-{os.getpid()}")
    if os.path.isdir(tmp_dir):
        shutil.rmtree(tmp_dir)
    os.makedirs(tmp_dir)
    try:
        named = {
            f"{kind}_{w:05d}": np.ascontiguousarray(arr)
            for kind, worker_arrays in sorted(arrays.items())
            for w, arr in enumerate(worker_arrays)
        }
        named.update(_stack_supersteps(supersteps, meta["num_workers"]))
        # The payload must be durable before the rename publishes the
        # snapshot — otherwise power loss after the rename commits can
        # leave a published snapshot whose data never reached disk.
        digest = hashlib.sha256()
        with open(os.path.join(tmp_dir, _PAYLOAD), "wb") as fh:
            for arr in named.values():
                digest.update(arr)
                fh.write(arr)
            size = fh.tell()
            fh.flush()
            os.fsync(fh.fileno())

        manifest = {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "superstep": int(superstep),
            "done": bool(done),
            "fingerprint": fingerprint,
            "meta": dict(meta),
            "array_kinds": sorted(arrays),
            "arrays": describe(named),
            "real_seconds": [
                {k: float(v) for k, v in s.real_seconds.items()} for s in supersteps
            ],
            "files": {_PAYLOAD: {"sha256": digest.hexdigest(), "bytes": size}},
        }
        with open(os.path.join(tmp_dir, _MANIFEST), "w", encoding="utf-8") as fh:
            fh.write(json.dumps(manifest, sort_keys=True, separators=(",", ":")) + "\n")
            fh.flush()
            os.fsync(fh.fileno())

        # Re-checkpointing a boundary that already has a snapshot (a
        # resumed run overtaking its pre-crash snapshots) replaces it
        # with two atomic renames — old aside, new in — never by
        # deleting first: a crash can lose this one boundary only in
        # the two-syscall window between the renames, instead of the
        # whole serialize-and-hash window a rmtree-then-write would
        # leave open.  The retired copy is garbage-collected afterwards
        # (and by the next write's stale-dir sweep if we crash here).
        retired = None
        if os.path.isdir(final_dir):
            retired = os.path.join(root, f".old-{_step_dirname(superstep)}-{os.getpid()}")
            if os.path.isdir(retired):
                shutil.rmtree(retired)
            os.rename(final_dir, retired)
        os.rename(tmp_dir, final_dir)
        if retired is not None:
            shutil.rmtree(retired, ignore_errors=True)
    except BaseException:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        raise
    _fsync_dir(root)
    _prune(root, keep=keep, protect=final_dir)
    return final_dir


def _fsync_dir(path: str) -> None:
    """Best-effort durability for the rename itself."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(fd)


def _prune(root: str, keep: Optional[int], protect: str) -> None:
    """Drop old snapshots and stale staging dirs after a successful write."""
    for name in os.listdir(root):
        if name.startswith(".tmp-step-") or name.startswith(".old-step-"):
            shutil.rmtree(os.path.join(root, name), ignore_errors=True)
    if keep is None:
        return
    snaps = list_snapshots(root)
    for path in snaps[: max(0, len(snaps) - keep)]:
        if os.path.abspath(path) != os.path.abspath(protect):
            shutil.rmtree(path, ignore_errors=True)


def _stack_supersteps(supersteps: List, num_workers: int) -> Dict[str, np.ndarray]:
    """Stack the per-superstep record into (k, p) arrays, in payload order."""
    payload: Dict[str, np.ndarray] = {}
    for fieldname in _SUPERSTEP_FIELDS:
        dtype = np.int64 if fieldname in ("sent", "received") else np.float64
        rows = [np.asarray(getattr(s, fieldname)) for s in supersteps]
        payload[fieldname] = np.stack(rows) if rows else np.empty((0, num_workers), dtype)
    return payload


def _load_manifest(directory: str) -> Dict[str, Any]:
    manifest_path = os.path.join(directory, _MANIFEST)
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise CheckpointError(f"{directory!r} is not a checkpoint snapshot: {exc}") from exc
    except ValueError as exc:  # bad JSON or UTF-8
        raise CheckpointError(f"corrupted checkpoint manifest {manifest_path!r}: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != SNAPSHOT_FORMAT:
        raise CheckpointError(f"{manifest_path!r} is not a {SNAPSHOT_FORMAT} manifest")
    version = manifest.get("version")
    if version != SNAPSHOT_VERSION:
        hint = ""
        if type(version) is int and version < SNAPSHOT_VERSION:
            hint = "; an older build wrote it: snapshots are not migrated, re-run the job"
        raise CheckpointError(
            f"unsupported checkpoint version {version!r} in {manifest_path!r} "
            f"(this build reads version {SNAPSHOT_VERSION}){hint}"
        )
    superstep = manifest.get("superstep")
    if isinstance(superstep, bool) or not isinstance(superstep, int) or superstep < 0:
        raise CheckpointError(
            f"checkpoint manifest {manifest_path!r} lacks a valid 'superstep' "
            f"entry (got {superstep!r})"
        )
    if not isinstance(manifest.get("done"), bool):
        raise CheckpointError(f"checkpoint manifest {manifest_path!r} lacks a valid 'done' entry")
    return manifest


def load_snapshot(path: str) -> Snapshot:
    """Load and verify one snapshot.

    ``path`` may be a snapshot directory or a checkpoint root.  For a
    root the newest snapshot is loaded, falling back to older ones when
    the newest fails verification — retention keeps more than one
    snapshot precisely so that a snapshot damaged by the crash itself
    does not make the run unresumable.  A *specific* snapshot directory
    is verified strictly: the payload is hashed against the manifest
    before any array is read, and any mismatch (torn write, truncation,
    bit rot) raises :class:`CheckpointError` with no fallback.
    """
    if not os.path.isdir(path):
        raise CheckpointError(f"checkpoint path {path!r} does not exist")
    if not os.path.isfile(os.path.join(path, _MANIFEST)):
        candidates = list_snapshots(path)
        if not candidates:
            latest_snapshot_dir(path)  # raises the canonical empty-root error
        failures = []
        for candidate in reversed(candidates):
            try:
                return _load_snapshot_dir(candidate)
            except CheckpointError as exc:
                failures.append(f"{candidate}: {exc}")
        raise CheckpointError(
            f"every snapshot under {path!r} failed verification:\n  "
            + "\n  ".join(failures)
        )
    return _load_snapshot_dir(path)


def _load_snapshot_dir(path: str) -> Snapshot:
    """Strictly load one specific snapshot directory."""
    manifest = _load_manifest(path)

    files = manifest.get("files")
    if not isinstance(files, dict) or set(files) != {_PAYLOAD}:
        raise CheckpointError(f"checkpoint manifest in {path!r} lists no payload file")
    entry = files[_PAYLOAD] if isinstance(files[_PAYLOAD], dict) else {}
    payload_path = os.path.join(path, _PAYLOAD)
    try:
        with open(payload_path, "rb") as fh:
            payload = fh.read()
    except OSError as exc:
        raise CheckpointError(f"checkpoint payload {payload_path!r} is missing: {exc}") from exc
    if len(payload) != entry.get("bytes"):
        raise CheckpointError(
            f"torn checkpoint payload {payload_path!r}: {len(payload)} bytes on "
            f"disk, manifest promises {entry.get('bytes')}"
        )
    if hashlib.sha256(payload).hexdigest() != entry.get("sha256"):
        raise CheckpointError(
            f"checksum mismatch for checkpoint payload {payload_path!r} "
            "(torn or corrupted write); refusing to resume"
        )
    try:
        items = views(manifest.get("arrays"), payload)
    except ArrayTableError as exc:
        raise CheckpointError(
            f"checkpoint manifest in {path!r} has an invalid array table: {exc}"
        ) from exc

    meta = manifest.get("meta") or {}
    superstep = int(manifest["superstep"])
    try:
        arrays = {
            kind: [items[f"{kind}_{w:05d}"] for w in range(int(meta.get("num_workers", 0)))]
            for kind in manifest.get("array_kinds", [])
        }
        steps = {f: items[f] for f in _SUPERSTEP_FIELDS}
        walls = manifest.get("real_seconds", [])
        real_seconds = [{k: float(v) for k, v in step.items()} for step in walls]
    except KeyError as exc:
        raise CheckpointError(f"checkpoint payload in {path!r} lacks array {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:  # a mistyped manifest field
        raise CheckpointError(f"checkpoint manifest in {path!r} is malformed: {exc}") from exc
    recorded = {len(real_seconds), *(arr.shape[0] if arr.ndim else -1 for arr in steps.values())}
    if recorded != {superstep}:
        raise CheckpointError(
            f"checkpoint in {path!r} records {sorted(recorded)} supersteps "
            f"but claims boundary {superstep}"
        )

    from ..bsp.engine import SuperstepStats  # deferred: engine imports us lazily

    return Snapshot(
        directory=path,
        superstep=superstep,
        done=bool(manifest["done"]),
        fingerprint=manifest.get("fingerprint") or {},
        meta=meta,
        arrays=arrays,
        supersteps=[
            SuperstepStats(
                **{f: arr[i] for f, arr in steps.items()},
                real_seconds=real_seconds[i],
            )
            for i in range(superstep)
        ],
    )
