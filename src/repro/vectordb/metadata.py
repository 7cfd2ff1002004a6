"""Relational metadata store linked to the vector index by patch id.

The paper keeps "supplementary metadata such as key frame identifiers and
bounding box coordinates ... in a relational database" linked to the vector
database "through the shared patch ID" (§V-B).  This module implements that
relational side as an in-memory columnar table, with no SQLite: a dict from
patch id to row, one column per other patch field (frame and video ids as
lists, numbers as NumPy arrays), and a small dict of key frames by frame
id.  It answers the lookups the query strategy needs: patch → frame and
video (joined onto every search hit, one dict lookup per id) and patch →
bounding box.  A re-added id replaces its row, as ``INSERT OR REPLACE``
would.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

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


class _Numbers(NamedTuple):
    """The numeric columns of the patch table, one row per patch."""

    patch_indexes: np.ndarray  # (n,) int64
    boxes: np.ndarray  # (n, 4) float64 [x, y, w, h]
    objectness: np.ndarray  # (n,) float64


_NO_NUMBERS = _Numbers(
    np.zeros(0, dtype=np.int64), np.zeros((0, 4), dtype=np.float64), np.zeros(0, dtype=np.float64)
)


def _strings(values: List[str]) -> np.ndarray:
    """Unicode NumPy array from ``values`` (empty input stays a string dtype)."""
    return np.asarray(values, dtype=np.str_) if values else np.zeros(0, dtype="<U1")


def _str_list(values: Sequence[str] | np.ndarray) -> List[str]:
    return values.tolist() if isinstance(values, np.ndarray) else list(values)


class MetadataStore:
    """In-memory columnar store for key-frame and patch metadata.

    Patch row ``r`` is the ``r``-th key of the id → row dict (its order is
    row order), ``r`` of the frame- and video-id lists, and ``r`` of each
    numeric column.  Equal frame and video ids share one string object,
    since every patch of a frame repeats them.  Every write and read holds
    one lock, so a reader never sees a half-written batch.
    """

    def __init__(self) -> None:
        self._lock = create_rlock("MetadataStore._lock")
        self._frames: Dict[str, FrameRecord] = {}
        self._rows: Dict[str, int] = {}
        self._frame_ids: List[str] = []
        self._video_ids: List[str] = []
        self._numbers = _NO_NUMBERS
        self._names: Dict[str, str] = {}

    def add_frames(self, frames: Iterable[FrameRecord]) -> None:
        """Insert (or replace) key-frame records."""
        added = {record.frame_id: record for record in frames}
        with self._lock:
            self._frames.update(added)

    def add_patches(  # lovo: ignore[LOVO005] the patch rows ARE the stored corpus
        self,
        ids: Sequence[str] | np.ndarray,
        frame_ids: Sequence[str] | np.ndarray,
        video_ids: Sequence[str] | np.ndarray,
        patch_indexes: Sequence[int] | np.ndarray,
        boxes: Sequence[Sequence[float]] | np.ndarray,
        objectness: Sequence[float] | np.ndarray,
    ) -> None:
        """Insert (or replace) patch rows given column by column; ``boxes`` is
        ``(n, 4)`` ``[x, y, w, h]``."""
        ids, frame_ids, video_ids = _str_list(ids), _str_list(frame_ids), _str_list(video_ids)
        numbers = _Numbers(
            np.asarray(patch_indexes, dtype=np.int64).reshape(-1),
            np.asarray(boxes, dtype=np.float64).reshape(-1, 4),
            np.asarray(objectness, dtype=np.float64).reshape(-1),
        )
        if len({len(ids), len(frame_ids), len(video_ids), *(c.shape[0] for c in numbers)}) != 1:
            raise MetadataError("Patch columns disagree on record count")
        with self._lock:
            names = self._names
            start = len(self._frame_ids)
            self._frame_ids.extend([names.setdefault(name, name) for name in frame_ids])
            self._video_ids.extend([names.setdefault(name, name) for name in video_ids])
            self._numbers = _Numbers(*map(np.concatenate, zip(self._numbers, numbers)))
            self._rows.update(zip(ids, range(start, start + len(ids))))
            if len(self._rows) < len(self._frame_ids):
                self._drop_replaced_rows()

    def _drop_replaced_rows(self) -> None:
        """Keep only each id's last row, as ``INSERT OR REPLACE`` would."""
        live = sorted(self._rows.items(), key=lambda item: item[1])
        rows = [row for _, row in live]
        self._rows = {patch_id: position for position, (patch_id, _) in enumerate(live)}
        self._frame_ids = [self._frame_ids[row] for row in rows]
        self._video_ids = [self._video_ids[row] for row in rows]
        self._numbers = _Numbers(*(column[rows] for column in self._numbers))

    def get_patch(self, patch_id: str) -> PatchRecord:
        """Fetch one patch record; raises :class:`MetadataError` if missing."""
        with self._lock:
            row = self._rows.get(patch_id)
            if row is None:
                raise MetadataError(f"Patch {patch_id!r} not found in metadata store")
            return PatchRecord(
                patch_id=patch_id,
                frame_id=self._frame_ids[row],
                video_id=self._video_ids[row],
                patch_index=int(self._numbers.patch_indexes[row]),
                box=BoundingBox(*self._numbers.boxes[row].tolist()),
                objectness=float(self._numbers.objectness[row]),
            )

    def patch_frames(self, patch_ids: Sequence[str]) -> Dict[str, Tuple[str, str]]:
        """``patch_id -> (frame_id, video_id)`` for every requested id.

        One dict lookup per id, under one lock hold.  Raises
        :class:`MetadataError` naming the first id without a row: a stored
        vector always has one.
        """
        ids = list(patch_ids)
        with self._lock:
            index, frame_ids, video_ids = self._rows, self._frame_ids, self._video_ids
            try:
                rows = [index[patch_id] for patch_id in ids]
            except KeyError as error:
                raise MetadataError(
                    f"Patch {error.args[0]!r} not found in metadata store"
                ) from None
            return {
                patch_id: (frame_ids[row], video_ids[row]) for patch_id, row in zip(ids, rows)
            }

    def get_frame(self, frame_id: str) -> Optional[FrameRecord]:
        """Fetch a frame record, or ``None`` if it was never stored."""
        with self._lock:
            return self._frames.get(frame_id)

    def list_frames(self) -> List[FrameRecord]:
        """All stored key frames ordered by video and frame index (then id)."""
        with self._lock:
            frames = list(self._frames.values())
        return sorted(frames, key=lambda r: (r.video_id, r.frame_index, r.frame_id))

    def count_patches(self) -> int:
        """Number of patch records stored."""
        return len(self._rows)

    def count_frames(self) -> int:
        """Number of key-frame records stored."""
        return len(self._frames)

    def to_arrays(self, patch_ids: Sequence[str]) -> Dict[str, np.ndarray]:
        """Columnar array form of every frame and patch record.

        Frames are ordered by video and frame index (then id); patch rows
        follow ``patch_ids``, which must name every stored patch once (a
        snapshot passes the vector collection's global order, so the ids
        themselves are stored only by the collection).  Raises
        :class:`MetadataError` otherwise.  The snapshot persistence
        subsystem stores these in one ``.npz`` archive; :meth:`from_arrays`
        rebuilds an equivalent store from them and the same ``patch_ids``.
        """
        ids = list(patch_ids)
        with self._lock:
            frames = self.list_frames()
            index = self._rows
            try:
                rows = [index[patch_id] for patch_id in ids]
            except KeyError as error:
                raise MetadataError(
                    f"Patch {error.args[0]!r} not found in metadata store"
                ) from None
            if len(rows) != len(index) or len(set(rows)) != len(rows):
                raise MetadataError(
                    f"The patch order names {len(set(rows))} of the store's "
                    f"{len(index)} patches ({len(rows)} ids given)"
                )
            frame_ids = [self._frame_ids[row] for row in rows]
            video_ids = [self._video_ids[row] for row in rows]
            numbers = self._numbers
        order = np.asarray(rows, dtype=np.int64)
        return {
            "frame_ids": _strings([record.frame_id for record in frames]),
            "frame_video_ids": _strings([record.video_id for record in frames]),
            "frame_indexes": np.asarray(
                [record.frame_index for record in frames], dtype=np.int64
            ),
            "frame_timestamps": np.asarray(
                [record.timestamp for record in frames], dtype=np.float64
            ),
            "patch_frame_ids": _strings(frame_ids),
            "patch_video_ids": _strings(video_ids),
            "patch_indexes": numbers.patch_indexes[order],
            "patch_boxes": numbers.boxes[order],
            "patch_objectness": numbers.objectness[order],
        }

    @classmethod
    def from_arrays(
        cls, arrays: Mapping[str, np.ndarray], patch_ids: Sequence[str] | None = None
    ) -> "MetadataStore":
        """Rebuild a store from :meth:`to_arrays` output and its ``patch_ids``.

        Archives written before snapshot schema 3 carry their own
        ``patch_ids`` column, which is used instead.
        """
        required = {
            "frame_ids", "frame_video_ids", "frame_indexes", "frame_timestamps",
            "patch_frame_ids", "patch_video_ids", "patch_indexes",
            "patch_boxes", "patch_objectness",
        }
        missing = required - set(arrays)
        if missing:
            raise SnapshotCorruptionError(
                f"Metadata arrays are missing columns: {sorted(missing)}"
            )
        if "patch_ids" in arrays:
            patch_ids = arrays["patch_ids"]
        elif patch_ids is None:
            raise SnapshotCorruptionError("Metadata arrays carry no patch ids and none were given")
        num_frames = {int(arrays[name].shape[0]) for name in
                      ("frame_ids", "frame_video_ids", "frame_indexes", "frame_timestamps")}
        num_patches = {len(patch_ids), *(int(arrays[name].shape[0]) for name in
                       ("patch_frame_ids", "patch_video_ids",
                        "patch_indexes", "patch_boxes", "patch_objectness"))}
        if len(num_frames) != 1 or len(num_patches) != 1:
            raise SnapshotCorruptionError("Metadata columns disagree on record count")
        store = cls()
        store.add_frames(
            FrameRecord(*row)
            for row in zip(
                _str_list(arrays["frame_ids"]),
                _str_list(arrays["frame_video_ids"]),
                np.asarray(arrays["frame_indexes"], dtype=np.int64).tolist(),
                np.asarray(arrays["frame_timestamps"], dtype=np.float64).tolist(),
            )
        )
        store.add_patches(
            patch_ids,
            arrays["patch_frame_ids"],
            arrays["patch_video_ids"],
            arrays["patch_indexes"],
            arrays["patch_boxes"],
            arrays["patch_objectness"],
        )
        return store

    def save(self, path: str | Path, patch_ids: Sequence[str]) -> None:
        """Persist every record to one ``.npz`` archive at ``path``, patch
        rows in the order of ``patch_ids`` (see :meth:`to_arrays`)."""
        save_arrays(path, self.to_arrays(patch_ids))

    @classmethod
    def load(cls, path: str | Path, patch_ids: Sequence[str] | None = None) -> "MetadataStore":
        """Rebuild an in-memory store from a :meth:`save` archive and the
        ``patch_ids`` it was saved with."""
        return cls.from_arrays(load_arrays(path), patch_ids)
