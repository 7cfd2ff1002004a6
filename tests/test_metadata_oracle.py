"""The columnar metadata store against a relational oracle.

The paper's relational side (§V-B) is a table of key frames and a table of
patches keyed by id.  :class:`SQLiteOracle` is that schema in SQLite:
``INSERT OR REPLACE`` writes and ordered ``SELECT`` reads, with the column
conversion :meth:`MetadataStore.to_arrays` promises.  Patch ids are not a
column of those arrays: the caller passes the row order (a snapshot passes
the vector collection's), here the oracle's ``ORDER BY`` order.  Random write
sequences (with ids re-added inside and across batches) must leave both with
the same arrays, lookups, counts and missing-id errors.
"""

from __future__ import annotations

import sqlite3
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MetadataError
from repro.utils.geometry import BoundingBox
from repro.vectordb.metadata import FrameRecord, MetadataStore, PatchRecord
from tests.conftest import add_patch_records


def _strings(values) -> np.ndarray:
    return np.asarray(list(values), dtype=np.str_) if values else np.zeros(0, dtype="<U1")


class SQLiteOracle:
    """Key frames and patches as two SQLite tables keyed by id."""

    def __init__(self) -> None:
        self.db = sqlite3.connect(":memory:")
        self.db.execute("CREATE TABLE frames (frame_id TEXT PRIMARY KEY, video_id TEXT, "
                        "frame_index INTEGER, timestamp REAL)")
        self.db.execute("CREATE TABLE patches (patch_id TEXT PRIMARY KEY, frame_id TEXT, "
                        "video_id TEXT, patch_index INTEGER, x REAL, y REAL, w REAL, h REAL, "
                        "objectness REAL)")

    def add_frames(self, frames) -> None:
        self.db.executemany("INSERT OR REPLACE INTO frames VALUES (?, ?, ?, ?)",
                            [astuple(record) for record in frames])

    def add_patches(self, patches) -> None:
        self.db.executemany(
            "INSERT OR REPLACE INTO patches VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            [(r.patch_id, r.frame_id, r.video_id, r.patch_index, *astuple(r.box), r.objectness)
             for r in patches],
        )

    def frames(self) -> list:
        return self.db.execute(
            "SELECT * FROM frames ORDER BY video_id, frame_index, frame_id").fetchall()

    def patches(self, where: str = "", params: tuple = ()) -> list:
        return self.db.execute(f"SELECT * FROM patches {where} "
                               "ORDER BY frame_id, patch_index, patch_id", params).fetchall()

    def patch_order(self) -> list:
        return [row[0] for row in self.patches()]

    def to_arrays(self) -> dict:
        frames = list(zip(*self.frames())) or [()] * 4
        patches = list(zip(*self.patches())) or [()] * 9
        return {
            "frame_ids": _strings(frames[0]), "frame_video_ids": _strings(frames[1]),
            "frame_indexes": np.asarray(frames[2], dtype=np.int64),
            "frame_timestamps": np.asarray(frames[3], dtype=np.float64),
            "patch_frame_ids": _strings(patches[1]),
            "patch_video_ids": _strings(patches[2]),
            "patch_indexes": np.asarray(patches[3], dtype=np.int64),
            "patch_boxes": np.column_stack(patches[4:8]).astype(np.float64, copy=False),
            "patch_objectness": np.asarray(patches[8], dtype=np.float64),
        }

    def get_patch(self, patch_id: str) -> PatchRecord | None:
        rows = self.patches("WHERE patch_id = ?", (patch_id,))
        if not rows:
            return None
        row = rows[0]
        return PatchRecord(row[0], row[1], row[2], row[3], BoundingBox(*row[4:8]), row[8])


# Few, short ids so that writes re-add them; code points on both sides of
# the UTF-16 surrogate range, where UTF-8 byte order (SQLite's BINARY
# collation) and code-point order must agree.
identifiers = st.text(alphabet="aZéĀ￿\U0001d4b3", min_size=0, max_size=3)
finite = st.floats(allow_nan=False, allow_infinity=False)
sizes = st.floats(min_value=0.0, max_value=8.0, allow_nan=False)
integers = st.integers(min_value=-(10**12), max_value=10**12)

frame_records = st.builds(FrameRecord, identifiers, identifiers, integers, finite)
patch_records = st.builds(
    PatchRecord, identifiers, identifiers, identifiers, integers,
    st.builds(BoundingBox, finite, finite, sizes, sizes),
    st.floats(min_value=0.0, max_value=1.0),
)
writes = st.lists(
    st.one_of(
        st.tuples(st.just("frames"), st.lists(frame_records, max_size=6)),
        st.tuples(st.just("patches"), st.lists(patch_records, max_size=6)),
    ),
    max_size=6,
)


@settings(max_examples=150, deadline=None)
@given(writes=writes, requested=st.lists(identifiers, max_size=8))
def test_store_matches_relational_oracle(writes, requested):
    store, oracle = MetadataStore(), SQLiteOracle()
    for kind, records in writes:
        if kind == "frames":
            store.add_frames(records)
            oracle.add_frames(records)
        else:
            add_patch_records(store, records)
            oracle.add_patches(records)

    order = oracle.patch_order()
    got, expected = store.to_arrays(order), oracle.to_arrays()
    assert got.keys() == expected.keys()
    for name in expected:
        assert got[name].dtype == expected[name].dtype, name
        assert got[name].shape == expected[name].shape, name
        assert np.array_equal(got[name], expected[name]), name

    frames = oracle.frames()
    assert store.list_frames() == [FrameRecord(*row) for row in frames]
    assert store.count_frames() == len(frames)
    assert store.count_patches() == len(oracle.patches())
    for frame_id in {row[0] for row in frames} | set(requested):
        stored = [FrameRecord(*row) for row in frames if row[0] == frame_id]
        assert store.get_frame(frame_id) == (stored[0] if stored else None)

    for patch_id in {row[0] for row in oracle.patches()} | set(requested):
        record = oracle.get_patch(patch_id)
        if record is None:
            with pytest.raises(MetadataError, match="not found"):
                store.get_patch(patch_id)
        else:
            assert store.get_patch(patch_id) == record

    rows = {row[0]: (row[1], row[2]) for row in oracle.patches()}
    missing = next((patch_id for patch_id in requested if patch_id not in rows), None)
    if missing is None:
        assert store.patch_frames(requested) == {pid: rows[pid] for pid in requested}
    else:
        with pytest.raises(MetadataError) as raised:
            store.patch_frames(requested)
        assert str(raised.value) == f"Patch {missing!r} not found in metadata store"

    reloaded = MetadataStore.from_arrays(got, order)
    for name, column in reloaded.to_arrays(order).items():
        assert column.dtype == got[name].dtype and np.array_equal(column, got[name]), name


def test_from_arrays_keeps_the_last_row_of_a_repeated_id():
    arrays = MetadataStore().to_arrays([])
    arrays.update(
        patch_ids=np.asarray(["p", "q", "p"]),
        patch_frame_ids=np.asarray(["f-long-frame-id", "f", "g"]),
        patch_video_ids=np.asarray(["v", "v", "w"]),
        patch_indexes=np.asarray([1, 2, 3]),
        patch_boxes=np.tile([0.0, 0.0, 1.0, 1.0], (3, 1)),
        patch_objectness=np.asarray([0.1, 0.2, 0.3]),
    )
    loaded = MetadataStore.from_arrays(arrays)
    assert loaded.count_patches() == 2
    assert loaded.patch_frames(["q", "p"]) == {"q": ("f", "v"), "p": ("g", "w")}
    assert loaded.get_patch("p").objectness == 0.3
    # The replaced row's long frame id no longer sets the column's width.
    assert loaded.to_arrays(["q", "p"])["patch_frame_ids"].dtype == np.dtype("<U1")
