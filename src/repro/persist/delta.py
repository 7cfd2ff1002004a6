"""Delta snapshots: a base snapshot plus an ordered log of ingested segments.

Full snapshots (:mod:`repro.persist.snapshot`) rewrite every artifact, which
is the wrong cost model for streaming ingest: a deployment appending small
segments every few seconds cannot re-serialise the whole collection each
time.  A :class:`DeltaSnapshotStore` instead keeps

* ``base/`` — an ordinary full snapshot (written by :func:`save_system`,
  validated by the same manifest/checksum machinery), and
* ``deltas/delta-NNNNNN/`` — one directory per streamed segment, holding the
  segment's key frames and frame→scene map (``frames.json.gz``) and its
  encoded patches (``encodings.npz``: ids, boxes, objectness and the float32
  class embeddings, byte-planed by :func:`~repro.utils.serialization.
  save_arrays`), each checksummed in the delta's own ``delta.json``, plus
* ``deltalog.json`` — the ordered list of committed deltas (written last per
  append, so a crash mid-append leaves an orphan directory that is simply
  ignored).

Warm start (:meth:`load_system`) restores the base and **replays** the
deltas through :meth:`~repro.core.system.LOVO.ingest_summary` — the same
entry point the live pipeline used — so the recovered system is bit-identical
to the one that crashed.  :meth:`compact` folds the replayed state into a new
base and truncates the log, bounding recovery time.

Deltas are schema version 3.  A delta stores no patch embeddings: replay
inserts only the class embeddings, so a replayed
:class:`~repro.encoders.vision.PatchEncoding` carries ``embedding=None``.
Version-2 deltas (which stored the patch embeddings too) and version-1 deltas
(float64 encodings, indented ``frames.json``) still replay, their patch
embeddings read back as before: the collection rounds class embeddings to
float32 on insert either way, so storing them as float32 loses nothing.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import Any, Dict, List, Mapping

import numpy as np

from repro.core.summary import SummaryOutput
from repro.encoders.vision import PatchEncoding
from repro.errors import PersistenceError, ReproError, SnapshotCorruptionError
from repro.persist.frames import (
    FRAMES_FILENAME,
    frames_filename,
    frames_from_list,
    frames_to_list,
    read_frames,
    write_frames,
)
from repro.persist.manifest import sha256_file
from repro.utils.geometry import BoundingBox
from repro.utils.serialization import load_arrays, load_json, save_arrays, save_json

DELTA_LOG_FILENAME = "deltalog.json"
DELTA_SCHEMA_VERSION = 3
#: Every delta schema this build replays.
SUPPORTED_DELTA_SCHEMA_VERSIONS = (1, 2, 3)


def _encodings_to_arrays(encodings: List[PatchEncoding]) -> Dict[str, np.ndarray]:
    # Replay inserts only the class embeddings (rounded to float32 on insert
    # anyway, so storing them as float32 loses nothing); no patch
    # ``embedding`` is stored, since nothing reads one back.
    return {
        "patch_ids": np.asarray([e.patch_id for e in encodings], dtype=np.str_),
        "frame_ids": np.asarray([e.frame_id for e in encodings], dtype=np.str_),
        "video_ids": np.asarray([e.video_id for e in encodings], dtype=np.str_),
        "patch_index": np.asarray([e.patch_index for e in encodings], dtype=np.int64),
        "class_embeddings": np.stack([e.class_embedding for e in encodings], dtype=np.float32)
        if encodings
        else np.zeros((0, 0), dtype=np.float32),
        "boxes": np.asarray(
            [[e.box.x, e.box.y, e.box.w, e.box.h] for e in encodings], dtype=np.float64
        ).reshape(len(encodings), 4),
        "objectness": np.asarray([e.objectness for e in encodings], dtype=np.float64),
    }


def _encodings_from_arrays(arrays: Mapping[str, np.ndarray]) -> List[PatchEncoding]:
    try:
        count = int(arrays["patch_ids"].shape[0])
        # One exact upcast per matrix; each encoding holds a row view of it.
        class_embeddings = np.asarray(arrays["class_embeddings"], dtype=np.float64)
        # Schema-1 and 2 deltas also stored the patch embeddings.
        embeddings = (
            np.asarray(arrays["embeddings"], dtype=np.float64)
            if "embeddings" in arrays
            else [None] * count
        )
        columns = (
            arrays["patch_ids"].tolist(),
            arrays["frame_ids"].tolist(),
            arrays["video_ids"].tolist(),
            arrays["patch_index"].tolist(),
            embeddings,
            class_embeddings,
            np.asarray(arrays["boxes"], dtype=np.float64).tolist(),
            np.asarray(arrays["objectness"], dtype=np.float64).tolist(),
        )
        if any(len(column) != count for column in columns):
            raise ValueError("columns disagree on the number of encodings")
        return [
            PatchEncoding(
                patch_id=str(patch_id),
                frame_id=str(frame_id),
                video_id=str(video_id),
                patch_index=int(patch_index),
                embedding=embedding,
                class_embedding=class_embedding,
                box=BoundingBox(*box),
                objectness=objectness,
            )
            for (
                patch_id, frame_id, video_id, patch_index, embedding, class_embedding, box,
                objectness,
            ) in zip(*columns)
        ]
    except (KeyError, IndexError, ValueError, TypeError) as error:
        raise SnapshotCorruptionError(
            f"Delta encodings payload is malformed: {error}"
        ) from error


class DeltaSnapshotStore:
    """Base snapshot + ordered segment deltas under one directory.

    Not internally synchronised: the streaming pipeline's single index-stage
    thread is the only writer, and :meth:`compact` is an administrative
    operation run while ingest is paused (or after :meth:`~repro.stream.
    ingestor.StreamingIngestor.drain`).
    """

    def __init__(self, path: str | Path) -> None:
        self._root = Path(path)
        self._base = self._root / "base"
        self._deltas_dir = self._root / "deltas"
        self._log_path = self._root / DELTA_LOG_FILENAME

    @property
    def root(self) -> Path:
        """The store's root directory."""
        return self._root

    @property
    def base_path(self) -> Path:
        """Where the base snapshot lives."""
        return self._base

    def initialize(self, system: "Any") -> None:
        """Write the base snapshot from ``system`` and an empty delta log.

        ``system`` is a :class:`~repro.core.system.LOVO`; works for a system
        with zero ingested segments (a cold streaming deployment snapshots an
        empty base, then accumulates deltas).  Any existing deltas are
        discarded — the base now owns their data only if the caller replayed
        them first (that is exactly what :meth:`compact` does).
        """
        system.save(self._base)
        if self._deltas_dir.exists():
            shutil.rmtree(self._deltas_dir)
        self._write_log([])

    def append(self, dataset_name: str, summary: SummaryOutput) -> Dict[str, Any]:
        """Record one indexed segment as the next delta; returns its log entry.

        The delta's files are written and checksummed first; the log is
        rewritten last, so a crash mid-append never corrupts the store — the
        half-written delta directory is orphaned and ignored.
        """
        entries = self._read_log()
        sequence = len(entries) + 1
        name = f"delta-{sequence:06d}"
        delta_dir = self._deltas_dir / name
        try:
            delta_dir.mkdir(parents=True, exist_ok=True)
            save_arrays(delta_dir / "encodings.npz", _encodings_to_arrays(summary.encodings))
            write_frames(
                delta_dir,
                {
                    "keyframes": frames_to_list(summary.keyframes),
                    "frame_scene": dict(summary.frame_scene),
                },
            )
            save_json(
                delta_dir / "delta.json",
                {
                    "schema_version": DELTA_SCHEMA_VERSION,
                    "sequence": sequence,
                    "dataset": dataset_name,
                    "entities": len(summary.encodings),
                    "keyframes": len(summary.keyframes),
                    "frames_processed": int(summary.frames_processed),
                    "total_frames": int(summary.total_frames),
                    "checksums": {
                        "encodings.npz": sha256_file(delta_dir / "encodings.npz"),
                        FRAMES_FILENAME: sha256_file(delta_dir / FRAMES_FILENAME),
                    },
                },
            )
        except ReproError:
            raise
        except OSError as error:
            raise PersistenceError(
                f"Failed to write delta {name} at {delta_dir}: {error}"
            ) from error
        entry = {"name": name, "sequence": sequence, "dataset": dataset_name}
        self._write_log(entries + [entry])
        return entry

    def deltas(self) -> List[Dict[str, Any]]:
        """The committed delta log entries, in append order."""
        return self._read_log()

    def load_system(self, loader: "Any" = None) -> "Any":
        """Warm start: load the base snapshot, then replay every delta.

        Replaying goes through :meth:`~repro.core.system.LOVO.
        ingest_summary` — the exact call the live pipeline made — so the
        restored system's index state is bit-identical to the state at the
        last committed delta.  ``loader`` defaults to :class:`~repro.core.
        system.LOVO` (injectable for tests).
        """
        if loader is None:
            from repro.core.system import LOVO

            loader = LOVO
        system = loader.load(self._base)
        for entry in self._read_log():
            dataset, summary = self._load_delta(entry)
            system.ingest_summary(dataset, summary)
        return system

    def compact(self, loader: "Any" = None) -> "Any":
        """Fold every delta into a new base snapshot and truncate the log.

        Replays base+deltas into a fresh system, writes it as the new base,
        then clears the delta log — recovery after ``compact`` replays
        nothing.  Returns the compacted system (callers often adopt it).
        The new base is written to a sibling directory and swapped in only
        after it is complete, so a crash mid-compaction leaves the old
        base+deltas intact.
        """
        system = self.load_system(loader)
        staging = self._root / "base.compacting"
        if staging.exists():
            shutil.rmtree(staging)
        system.save(staging)
        previous = self._root / "base.previous"
        if previous.exists():
            shutil.rmtree(previous)
        if self._base.exists():
            self._base.rename(previous)
        staging.rename(self._base)
        shutil.rmtree(previous, ignore_errors=True)
        if self._deltas_dir.exists():
            shutil.rmtree(self._deltas_dir)
        self._write_log([])
        return system

    # ------------------------------------------------------------- internals

    def _load_delta(self, entry: Mapping[str, Any]) -> "tuple[str, SummaryOutput]":
        name = str(entry["name"])
        delta_dir = self._deltas_dir / name
        meta = load_json(delta_dir / "delta.json")
        schema_version = int(meta.get("schema_version", -1))
        if schema_version not in SUPPORTED_DELTA_SCHEMA_VERSIONS:
            raise SnapshotCorruptionError(
                f"Delta {name} has unsupported schema version "
                f"{meta.get('schema_version')!r}"
            )
        checksums = meta.get("checksums", {})
        for filename in ("encodings.npz", frames_filename(schema_version)):
            recorded = checksums.get(filename)
            actual = sha256_file(delta_dir / filename)
            if recorded != actual:
                raise SnapshotCorruptionError(
                    f"Delta artifact {delta_dir / filename} failed its checksum"
                )
        frames_doc = read_frames(delta_dir, schema_version)
        summary = SummaryOutput(
            keyframes=frames_from_list(frames_doc.get("keyframes", [])),
            encodings=_encodings_from_arrays(load_arrays(delta_dir / "encodings.npz")),
            frame_scene={
                str(k): str(v)
                for k, v in dict(frames_doc.get("frame_scene", {})).items()
            },
            frames_processed=int(meta.get("frames_processed", 0)),
            total_frames=int(meta.get("total_frames", 0)),
        )
        return str(meta.get("dataset", entry.get("dataset", ""))), summary

    def _read_log(self) -> List[Dict[str, Any]]:
        if not self._log_path.exists():
            return []
        doc = load_json(self._log_path)
        entries = doc.get("deltas", [])
        for position, entry in enumerate(entries, start=1):
            if int(entry.get("sequence", -1)) != position:
                raise SnapshotCorruptionError(
                    f"Delta log at {self._log_path} is not contiguous at "
                    f"position {position}"
                )
        return [dict(entry) for entry in entries]

    def _write_log(self, entries: List[Dict[str, Any]]) -> None:
        save_json(
            self._log_path,
            {"schema_version": DELTA_SCHEMA_VERSION, "deltas": entries},
        )


__all__ = ["DELTA_LOG_FILENAME", "DELTA_SCHEMA_VERSION", "DeltaSnapshotStore"]
