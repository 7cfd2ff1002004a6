"""Relational metadata store linked to the vector index by patch id.

The paper keeps "supplementary metadata such as key frame identifiers and
bounding box coordinates ... in a relational database" linked to the vector
database "through the shared patch ID" (§V-B).  This module implements that
relational side with SQLite (standard library), storing key frames and patch
records and answering the lookups the query strategy needs: patch → frame and
video (joined onto every search hit, one statement per chunk of ids) and
patch → bounding box.
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import MetadataError, SnapshotCorruptionError
from repro.utils.geometry import BoundingBox
from repro.utils.serialization import load_arrays, save_arrays
from repro.utils.locking import create_rlock


@dataclass(frozen=True)
class PatchRecord:
    """Relational record of one stored patch detection."""

    patch_id: str
    frame_id: str
    video_id: str
    patch_index: int
    box: BoundingBox
    objectness: float


@dataclass(frozen=True)
class FrameRecord:
    """Relational record of one key frame."""

    frame_id: str
    video_id: str
    frame_index: int
    timestamp: float


#: Patch ids bound per ``IN (...)`` lookup statement in
#: :meth:`MetadataStore.patch_frames`; some SQLite builds allow at most 999
#: bound variables in one statement.
LOOKUP_CHUNK = 900


def _string_array(values: Sequence[str]) -> np.ndarray:
    """Unicode NumPy array from ``values`` (empty input stays a string dtype)."""
    if not values:
        return np.zeros(0, dtype="<U1")
    return np.asarray(list(values), dtype=np.str_)


class MetadataStore:
    """SQLite-backed store for key-frame and patch metadata."""

    def __init__(self, path: str | Path | None = None) -> None:
        self._path = str(path) if path is not None else ":memory:"
        # Streaming ingest writes from a background worker thread while query
        # threads read, so the connection must be shareable across threads;
        # the lock serialises every statement on it (sqlite3 connections are
        # not safe for genuinely concurrent use even with the check off).
        self._connection = sqlite3.connect(self._path, check_same_thread=False)
        self._lock = create_rlock("MetadataStore._lock")
        self._connection.execute("PRAGMA journal_mode = MEMORY")
        self._create_tables()

    def close(self) -> None:
        """Close the underlying SQLite connection."""
        with self._lock:
            self._connection.close()

    def __enter__(self) -> "MetadataStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _create_tables(self) -> None:
        with self._lock, self._connection:
            self._connection.execute(
                """
                CREATE TABLE IF NOT EXISTS frames (
                    frame_id TEXT PRIMARY KEY,
                    video_id TEXT NOT NULL,
                    frame_index INTEGER NOT NULL,
                    timestamp REAL NOT NULL
                )
                """
            )
            self._connection.execute(
                """
                CREATE TABLE IF NOT EXISTS patches (
                    patch_id TEXT PRIMARY KEY,
                    frame_id TEXT NOT NULL,
                    video_id TEXT NOT NULL,
                    patch_index INTEGER NOT NULL,
                    x REAL NOT NULL,
                    y REAL NOT NULL,
                    w REAL NOT NULL,
                    h REAL NOT NULL,
                    objectness REAL NOT NULL,
                    FOREIGN KEY (frame_id) REFERENCES frames (frame_id)
                )
                """
            )

    def add_frames(self, frames: Iterable[FrameRecord]) -> None:
        """Insert (or replace) key-frame records."""
        rows = [
            (record.frame_id, record.video_id, record.frame_index, record.timestamp)
            for record in frames
        ]
        with self._lock, self._connection:
            self._connection.executemany(
                "INSERT OR REPLACE INTO frames VALUES (?, ?, ?, ?)", rows
            )

    def add_patches(self, patches: Iterable[PatchRecord]) -> None:
        """Insert (or replace) patch records."""
        rows = [
            (
                record.patch_id,
                record.frame_id,
                record.video_id,
                record.patch_index,
                record.box.x,
                record.box.y,
                record.box.w,
                record.box.h,
                record.objectness,
            )
            for record in patches
        ]
        with self._lock, self._connection:
            self._connection.executemany(
                "INSERT OR REPLACE INTO patches VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)", rows
            )

    def _fetchone(self, sql: str, params: tuple = ()) -> tuple | None:
        with self._lock:
            return self._connection.execute(sql, params).fetchone()

    def _fetchall(self, sql: str, params: tuple = ()) -> List[tuple]:
        with self._lock:
            return self._connection.execute(sql, params).fetchall()

    def get_patch(self, patch_id: str) -> PatchRecord:
        """Fetch one patch record; raises :class:`MetadataError` if missing."""
        row = self._fetchone(
            "SELECT patch_id, frame_id, video_id, patch_index, x, y, w, h, objectness "
            "FROM patches WHERE patch_id = ?",
            (patch_id,),
        )
        if row is None:
            raise MetadataError(f"Patch {patch_id!r} not found in metadata store")
        return self._row_to_patch(row)

    def patch_frames(self, patch_ids: Sequence[str]) -> Dict[str, Tuple[str, str]]:
        """``patch_id -> (frame_id, video_id)`` for every requested id.

        One ``SELECT ... WHERE patch_id IN (...)`` per :data:`LOOKUP_CHUNK`
        ids, all under one lock hold.  Raises :class:`MetadataError` naming
        the first id without a row: a stored vector always has one.
        """
        ids = list(patch_ids)
        found: Dict[str, Tuple[str, str]] = {}
        with self._lock:
            for start in range(0, len(ids), LOOKUP_CHUNK):
                chunk = ids[start:start + LOOKUP_CHUNK]
                rows = self._connection.execute(
                    "SELECT patch_id, frame_id, video_id FROM patches "
                    f"WHERE patch_id IN ({', '.join('?' * len(chunk))})",
                    chunk,
                ).fetchall()
                for patch_id, frame_id, video_id in rows:
                    found[patch_id] = (frame_id, video_id)
        if len(found) < len(set(ids)):
            missing = next(patch_id for patch_id in ids if patch_id not in found)
            raise MetadataError(f"Patch {missing!r} not found in metadata store")
        return found

    def get_frame(self, frame_id: str) -> Optional[FrameRecord]:
        """Fetch a frame record, or ``None`` if it was never stored."""
        row = self._fetchone(
            "SELECT frame_id, video_id, frame_index, timestamp FROM frames WHERE frame_id = ?",
            (frame_id,),
        )
        if row is None:
            return None
        return FrameRecord(
            frame_id=row[0], video_id=row[1], frame_index=int(row[2]), timestamp=float(row[3])
        )

    def list_frames(self) -> List[FrameRecord]:
        """All stored key frames ordered by video and frame index."""
        return [
            FrameRecord(frame_id=row[0], video_id=row[1], frame_index=int(row[2]), timestamp=float(row[3]))
            for row in self._fetchall(
                "SELECT frame_id, video_id, frame_index, timestamp FROM frames "
                "ORDER BY video_id, frame_index"
            )
        ]

    def count_patches(self) -> int:
        """Number of patch records stored."""
        row = self._fetchone("SELECT COUNT(*) FROM patches")
        assert row is not None
        return int(row[0])

    def count_frames(self) -> int:
        """Number of key-frame records stored."""
        row = self._fetchone("SELECT COUNT(*) FROM frames")
        assert row is not None
        return int(row[0])

    def to_arrays(self) -> Dict[str, np.ndarray]:
        """Columnar array form of every frame and patch record.

        One ordered ``SELECT`` per table, split straight into columns: frames
        by video and frame index, patches by frame, patch index and id.  The
        snapshot persistence subsystem stores these in one ``.npz`` archive;
        :meth:`from_arrays` rebuilds an equivalent store (SQLite ``REAL``
        columns are IEEE doubles, so floats round-trip exactly).
        """
        with self._lock:
            frames = self._connection.execute(
                "SELECT frame_id, video_id, frame_index, timestamp FROM frames "
                "ORDER BY video_id, frame_index"
            ).fetchall()
            patches = self._connection.execute(
                "SELECT patch_id, frame_id, video_id, patch_index, x, y, w, h, objectness "
                "FROM patches ORDER BY frame_id, patch_index, patch_id"
            ).fetchall()
        frame_columns = list(zip(*frames)) or [()] * 4
        patch_columns = list(zip(*patches)) or [()] * 9
        return {
            "frame_ids": _string_array(frame_columns[0]),
            "frame_video_ids": _string_array(frame_columns[1]),
            "frame_indexes": np.asarray(frame_columns[2], dtype=np.int64),
            "frame_timestamps": np.asarray(frame_columns[3], dtype=np.float64),
            "patch_ids": _string_array(patch_columns[0]),
            "patch_frame_ids": _string_array(patch_columns[1]),
            "patch_video_ids": _string_array(patch_columns[2]),
            "patch_indexes": np.asarray(patch_columns[3], dtype=np.int64),
            "patch_boxes": np.column_stack(patch_columns[4:8]).astype(np.float64, copy=False),
            "patch_objectness": np.asarray(patch_columns[8], dtype=np.float64),
        }

    @classmethod
    def from_arrays(
        cls, arrays: Dict[str, np.ndarray], path: str | Path | None = None
    ) -> "MetadataStore":
        """Rebuild a store from :meth:`to_arrays` output."""
        required = {
            "frame_ids", "frame_video_ids", "frame_indexes", "frame_timestamps",
            "patch_ids", "patch_frame_ids", "patch_video_ids", "patch_indexes",
            "patch_boxes", "patch_objectness",
        }
        missing = required - set(arrays)
        if missing:
            raise SnapshotCorruptionError(
                f"Metadata arrays are missing columns: {sorted(missing)}"
            )
        num_frames = {int(arrays[name].shape[0]) for name in
                      ("frame_ids", "frame_video_ids", "frame_indexes", "frame_timestamps")}
        num_patches = {int(arrays[name].shape[0]) for name in
                       ("patch_ids", "patch_frame_ids", "patch_video_ids",
                        "patch_indexes", "patch_boxes", "patch_objectness")}
        if len(num_frames) != 1 or len(num_patches) != 1:
            raise SnapshotCorruptionError("Metadata columns disagree on record count")
        store = cls(path)
        # Feed SQLite row tuples straight from the columnar arrays instead of
        # materialising record dataclasses: warm-start load time is dominated
        # by this method for large snapshots.
        frame_rows = list(
            zip(
                (str(value) for value in arrays["frame_ids"].tolist()),
                (str(value) for value in arrays["frame_video_ids"].tolist()),
                arrays["frame_indexes"].tolist(),
                arrays["frame_timestamps"].tolist(),
            )
        )
        boxes = np.asarray(arrays["patch_boxes"], dtype=np.float64).reshape(-1, 4)
        patch_rows = [
            (str(patch_id), str(frame_id), str(video_id), patch_index,
             box[0], box[1], box[2], box[3], objectness)
            for patch_id, frame_id, video_id, patch_index, box, objectness in zip(
                arrays["patch_ids"].tolist(),
                arrays["patch_frame_ids"].tolist(),
                arrays["patch_video_ids"].tolist(),
                arrays["patch_indexes"].tolist(),
                boxes.tolist(),
                arrays["patch_objectness"].tolist(),
            )
        ]
        with store._lock, store._connection:
            store._connection.executemany(
                "INSERT OR REPLACE INTO frames VALUES (?, ?, ?, ?)", frame_rows
            )
            store._connection.executemany(
                "INSERT OR REPLACE INTO patches VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                patch_rows,
            )
        return store

    def save(self, path: str | Path) -> None:
        """Persist every record to one ``.npz`` archive at ``path``."""
        save_arrays(path, self.to_arrays())

    @classmethod
    def load(cls, path: str | Path) -> "MetadataStore":
        """Rebuild an in-memory store from a :meth:`save` archive."""
        return cls.from_arrays(load_arrays(path))

    @staticmethod
    def _row_to_patch(row: tuple) -> PatchRecord:
        return PatchRecord(
            patch_id=row[0],
            frame_id=row[1],
            video_id=row[2],
            patch_index=int(row[3]),
            box=BoundingBox(float(row[4]), float(row[5]), float(row[6]), float(row[7])),
            objectness=float(row[8]),
        )
