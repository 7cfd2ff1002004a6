"""Snapshot schema 3: the byte-planed array codec and the ids-once layout.

:func:`~repro.utils.serialization.save_arrays` stores a float array as byte
planes when that makes it smaller, and :func:`~repro.utils.serialization.
load_arrays` must give back the same bits for every value and layout.  A
damaged or malformed archive raises
:class:`~repro.errors.SnapshotCorruptionError`, never a bare ``KeyError`` or
``ValueError``.  A schema-3 snapshot stores each patch id once, deltas store
no patch embeddings, and equal systems save to equal bytes.  The recorded
schema-1, schema-2 and schema-3 fixtures still answer as recorded.
"""

from __future__ import annotations

import json
import shutil
import struct
import zipfile
from pathlib import Path
from typing import Dict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import LOVO, LOVOConfig
from repro.config import EncoderConfig, IndexConfig, KeyframeConfig, QueryConfig, ShardConfig
from repro.core.storage import LOVOStorage
from repro.errors import MetadataError, PersistenceError, SnapshotCorruptionError
from repro.persist import DeltaSnapshotStore, read_manifest
from repro.persist.delta import DELTA_SCHEMA_VERSION, SUPPORTED_DELTA_SCHEMA_VERSIONS
from repro.persist.manifest import SNAPSHOT_SCHEMA_VERSION, SUPPORTED_SCHEMA_VERSIONS
from repro.shard.database import ShardedCollection
from repro.utils.serialization import PLANE_SEPARATOR, load_arrays, save_arrays
from repro.vectordb.metadata import MetadataStore
from repro.video.datasets import make_bellevue
from tests.conftest import assert_recorded_answer, fixture_answer

FIXTURES = Path(__file__).resolve().parent / "fixtures"

#: Unsigned integer of each float width, to compare raw bits.
UINTS = {2: np.uint16, 4: np.uint32, 8: np.uint64}


def bits(array: np.ndarray) -> np.ndarray:
    """The raw little-endian bit patterns of a float array."""
    little = np.ascontiguousarray(array, dtype=array.dtype.newbyteorder("<"))
    return little.view(UINTS[array.dtype.itemsize])


def special_values(dtype: np.dtype) -> np.ndarray:
    """NaNs with payloads and signs, signed zeros and infinities, the
    smallest subnormals and the extremes of ``dtype``."""
    info = np.finfo(dtype)
    uint = UINTS[dtype.itemsize]
    exponent_bits = {2: 5, 4: 8, 8: 11}[dtype.itemsize]
    mantissa_bits = 8 * dtype.itemsize - 1 - exponent_bits
    nan = ((1 << exponent_bits) - 1) << mantissa_bits
    payloads = np.asarray(
        [nan | 1, nan | (1 << (mantissa_bits - 1)) | 5, (1 << (8 * dtype.itemsize - 1)) | nan | 3],
        dtype=uint,
    ).view(dtype.newbyteorder("="))
    plain = np.asarray(
        [0.0, -0.0, np.inf, -np.inf, info.max, info.min, info.tiny, info.smallest_subnormal,
         -info.smallest_subnormal, 2 * info.smallest_subnormal],
        dtype=dtype.newbyteorder("="),
    )
    return np.concatenate([payloads, plain])


def make_array(dtype: str, shape, content: str, layout: str, seed: int) -> np.ndarray:
    """An array of ``dtype`` and ``shape`` in the given memory ``layout``."""
    kind = np.dtype(dtype)
    rng = np.random.default_rng(seed)
    size = int(np.prod(shape, dtype=np.int64))
    if content == "bits":
        values = rng.integers(0, np.iinfo(UINTS[kind.itemsize]).max, size=size,
                              dtype=UINTS[kind.itemsize], endpoint=True).view(kind.newbyteorder("="))
    else:
        values = rng.normal(size=size).astype(kind.newbyteorder("="))
        if content == "special" and size:
            specials = special_values(kind)
            positions = rng.integers(0, size, size=min(size, 3 * len(specials)))
            values[positions] = specials[np.arange(positions.size) % len(specials)]
    array = values.astype(kind).reshape(shape)
    if layout == "fortran" and array.ndim > 1:
        return np.asfortranarray(array)
    if layout == "reversed" and array.ndim:
        return array[::-1]
    if layout == "strided" and array.ndim:
        doubled = np.repeat(array, 2, axis=-1)
        return doubled[..., ::2]
    return array


def member_names(path: Path) -> Dict[str, int]:
    """Zip member name -> compression type."""
    with zipfile.ZipFile(path) as archive:
        return {info.filename: info.compress_type for info in archive.infolist()}


def stored_plane_offset(path: Path) -> int:
    """The file offset of a byte inside the data of a stored (not deflated)
    plane member, past its ``.npy`` header."""
    with zipfile.ZipFile(path) as archive:
        info = next(
            info for info in archive.infolist()
            if PLANE_SEPARATOR in info.filename and info.compress_type == zipfile.ZIP_STORED
        )
    with path.open("rb") as handle:
        handle.seek(info.header_offset + 26)
        name_length, extra_length = struct.unpack("<HH", handle.read(4))
    data = info.header_offset + 30 + name_length + extra_length
    return data + 128 + (info.file_size - 128) // 2


def flip_byte(path: Path, offset: int) -> None:
    payload = bytearray(path.read_bytes())
    payload[offset] ^= 0x5A
    path.write_bytes(bytes(payload))


def write_members(path: Path, members: Dict[str, np.ndarray]) -> None:
    """A hand-made archive of ``.npy`` members (which may be malformed)."""
    with zipfile.ZipFile(path, "w") as archive:
        for name, value in members.items():
            with archive.open(f"{name}.npy", "w") as stream:
                np.lib.format.write_array(stream, value, allow_pickle=False)


# ----------------------------------------------------------------- the codec

shapes = st.one_of(
    st.lists(st.integers(min_value=0, max_value=5), min_size=0, max_size=3),
    st.tuples(st.integers(min_value=500, max_value=2500), st.sampled_from([1, 3, 16])).map(list),
)


class TestPlaneRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(
        dtype=st.sampled_from(["<f2", "<f4", "<f8", ">f2", ">f4", ">f8"]),
        shape=shapes,
        content=st.sampled_from(["bits", "normal", "special"]),
        layout=st.sampled_from(["contiguous", "fortran", "reversed", "strided"]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_bits_survive(self, tmp_path_factory, dtype, shape, content, layout, seed):
        array = make_array(dtype, tuple(shape), content, layout, seed)
        path = tmp_path_factory.mktemp("planes") / "a.npz"
        save_arrays(path, {"x": array, "ids": np.asarray(["a", "b"])})
        loaded = load_arrays(path)
        assert sorted(loaded) == ["ids", "x"]
        assert loaded["x"].shape == array.shape
        assert loaded["x"].dtype.kind == "f" and loaded["x"].dtype.itemsize == array.dtype.itemsize
        np.testing.assert_array_equal(bits(loaded["x"]), bits(array))

    @pytest.mark.parametrize("dtype", ["<f2", "<f4", "<f8", ">f4"])
    def test_smooth_floats_are_planed_and_exact(self, tmp_path, dtype):
        array = make_array(dtype, (3000, 16), "special", "contiguous", 7)
        save_arrays(tmp_path / "a.npz", {"vectors": array})
        members = member_names(tmp_path / "a.npz")
        itemsize = np.dtype(dtype).itemsize
        assert sorted(members) == sorted(f"vectors@{k}.npy" for k in range(itemsize))
        # The top byte (sign and exponent) deflates; the lowest mantissa
        # byte is noise and is stored raw.
        assert members[f"vectors@{itemsize - 1}.npy"] == zipfile.ZIP_DEFLATED
        assert members["vectors@0.npy"] == zipfile.ZIP_STORED
        loaded = load_arrays(tmp_path / "a.npz")["vectors"]
        assert loaded.dtype == np.dtype(dtype).newbyteorder("<")
        np.testing.assert_array_equal(bits(loaded), bits(array))

    def test_an_array_that_deflates_better_whole_is_kept_whole(self, tmp_path):
        # Repeats of a few doubles: whole-array deflate finds the repeats,
        # while each byte plane is a stream of near-random bytes.
        pool = np.random.default_rng(3).random(40)
        array = pool[np.random.default_rng(4).integers(0, 40, size=8000)]
        save_arrays(tmp_path / "a.npz", {"objectness": array})
        assert member_names(tmp_path / "a.npz") == {"objectness.npy": zipfile.ZIP_DEFLATED}
        np.testing.assert_array_equal(bits(load_arrays(tmp_path / "a.npz")["objectness"]), bits(array))

    def test_incompressible_members_are_stored_raw(self, tmp_path):
        noise = np.random.default_rng(5).integers(0, 256, size=50000, dtype=np.uint8)
        save_arrays(tmp_path / "a.npz", {"noise": noise, "zeros": np.zeros(50000, np.int64)})
        assert member_names(tmp_path / "a.npz") == {
            "noise.npy": zipfile.ZIP_STORED, "zeros.npy": zipfile.ZIP_DEFLATED,
        }

    def test_equal_data_gives_equal_bytes(self, tmp_path):
        arrays = {"v": make_array("<f4", (2000, 16), "normal", "contiguous", 1),
                  "ids": np.asarray([f"p{i}" for i in range(2000)])}
        save_arrays(tmp_path / "a.npz", arrays)
        save_arrays(tmp_path / "b.npz", dict(arrays))
        assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()

    def test_plain_numpy_archives_still_load(self, tmp_path):
        array = make_array("<f4", (100, 4), "special", "contiguous", 2)
        np.savez_compressed(tmp_path / "old.npz", vectors=array, ids=np.asarray(["a"]))
        loaded = load_arrays(tmp_path / "old.npz")
        np.testing.assert_array_equal(bits(loaded["vectors"]), bits(array))
        assert loaded["ids"].tolist() == ["a"]

    def test_a_name_with_the_plane_separator_is_refused(self, tmp_path):
        with pytest.raises(ValueError, match="plane separator"):
            save_arrays(tmp_path / "a.npz", {"x@0": np.zeros(3)})


class TestHostileArchives:
    @pytest.mark.parametrize(
        "members",
        [
            pytest.param({f"x@{k}": np.zeros(5, np.uint8) for k in (0, 1, 2, 4)}, id="missing-plane"),
            pytest.param({"x@0": np.zeros(5, np.uint8), "x@1": np.zeros(6, np.uint8)},
                         id="unequal-shape"),
            pytest.param({"x@0": np.zeros(5, np.uint8), "x@1": np.zeros(5, np.int8)},
                         id="not-uint8"),
            pytest.param({"x@0": np.zeros(5, np.float32), "x@1": np.zeros(5, np.float32)},
                         id="float-planes"),
            pytest.param({f"x@{k}": np.zeros(5, np.uint8) for k in range(3)}, id="three-planes"),
            pytest.param({f"x@{k}": np.zeros(5, np.uint8) for k in range(16)}, id="sixteen-planes"),
            pytest.param({"x": np.zeros(5), "x@0": np.zeros(5, np.uint8),
                          "x@1": np.zeros(5, np.uint8)}, id="whole-and-planes"),
            pytest.param({"x@a": np.zeros(5, np.uint8), "x@1": np.zeros(5, np.uint8)},
                         id="plane-without-number"),
            pytest.param({"x@0": np.zeros(5, np.uint8), "x@01": np.zeros(5, np.uint8)},
                         id="plane-number-with-a-leading-zero"),
        ],
    )
    def test_malformed_planes_are_corruption(self, tmp_path, members):
        write_members(tmp_path / "a.npz", members)
        with pytest.raises(SnapshotCorruptionError):
            load_arrays(tmp_path / "a.npz")

    def test_a_member_that_is_not_an_array_is_corruption(self, tmp_path):
        with zipfile.ZipFile(tmp_path / "a.npz", "w") as archive:
            archive.writestr("notes.txt", b"hello")
        with pytest.raises(SnapshotCorruptionError):
            load_arrays(tmp_path / "a.npz")

    @pytest.mark.parametrize("cut", [0.5, 0.9])
    def test_truncated_or_garbage_archives_are_corruption(self, tmp_path, cut):
        save_arrays(tmp_path / "a.npz", {"v": make_array("<f4", (2000, 16), "normal", "contiguous", 3)})
        payload = (tmp_path / "a.npz").read_bytes()
        (tmp_path / "a.npz").write_bytes(payload[: int(cut * len(payload))])
        with pytest.raises(SnapshotCorruptionError):
            load_arrays(tmp_path / "a.npz")
        (tmp_path / "b.npz").write_bytes(b"PK\x03\x04" + bytes(100))
        with pytest.raises(SnapshotCorruptionError):
            load_arrays(tmp_path / "b.npz")

    def test_a_flipped_byte_in_a_stored_plane_fails_its_crc(self, tmp_path):
        save_arrays(tmp_path / "a.npz", {"v": make_array("<f4", (2000, 16), "normal", "contiguous", 4)})
        flip_byte(tmp_path / "a.npz", stored_plane_offset(tmp_path / "a.npz"))
        with pytest.raises(SnapshotCorruptionError):
            load_arrays(tmp_path / "a.npz")


# ---------------------------------------------------------- schema-3 systems

def tiny_config(index_type: str = "flat", num_shards: int = 1) -> LOVOConfig:
    return LOVOConfig(
        encoder=EncoderConfig(embedding_dim=32, class_embedding_dim=32, patch_grid=4),
        keyframes=KeyframeConfig(strategy="uniform", uniform_stride=10),
        index=IndexConfig(
            index_type=index_type, num_subspaces=4, num_centroids=8, num_coarse_clusters=4,
            nprobe=2, hnsw_ef_search=256,
        ),
        query=QueryConfig(fast_search_k=32, rerank_n=8, max_candidate_frames=6),
        shard=ShardConfig(num_shards=num_shards),
    )


def tiny_system(index_type: str = "flat", num_shards: int = 1) -> LOVO:
    system = LOVO(tiny_config(index_type, num_shards))
    system.ingest(make_bellevue(num_videos=1, frames_per_video=100, seed=0))
    return system


def file_bytes(root: Path) -> Dict[str, bytes]:
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


class TestSchemaThreeSnapshots:
    @pytest.mark.parametrize("num_shards", [1, 3])
    @pytest.mark.parametrize("index_type", ["flat", "ivfpq", "hnsw"])
    def test_saving_twice_gives_identical_files(self, tmp_path, index_type, num_shards):
        system = tiny_system(index_type, num_shards)
        system.save(tmp_path / "a")
        system.save(tmp_path / "b")
        first, second = file_bytes(tmp_path / "a"), file_bytes(tmp_path / "b")
        assert first.keys() == second.keys()
        assert [name for name in first if first[name] != second[name]] == []

    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_patch_ids_are_stored_once(self, tmp_path, num_shards):
        system = tiny_system("flat", num_shards)
        manifest = system.save(tmp_path / "snapshot")
        assert manifest.schema_version == SNAPSHOT_SCHEMA_VERSION == 3
        ids = set(system.storage.collection.ids())
        holders = []
        for path in sorted((tmp_path / "snapshot").rglob("*.npz")):
            for name, array in load_arrays(path).items():
                if array.dtype.kind == "U" and ids & set(array.tolist()):
                    holders.append((path.relative_to(tmp_path / "snapshot").as_posix(), name))
        # One string array per shard, together holding each id once.
        assert len(holders) == num_shards
        assert all(path.endswith("entities.npz") and name == "ids" for path, name in holders)
        stored = [
            patch_id for path, name in holders
            for patch_id in load_arrays(tmp_path / "snapshot" / path)[name].tolist()
        ]
        assert sorted(stored) == sorted(ids)
        loaded = LOVO.load(tmp_path / "snapshot")
        assert loaded.storage.collection.ids() == system.storage.collection.ids()
        for patch_id in list(ids)[:20]:
            assert loaded.storage.patch_record(patch_id) == system.storage.patch_record(patch_id)

    def test_loaded_metadata_shares_the_collection_id_strings(self, tmp_path):
        tiny_system("flat", 3).save(tmp_path / "snapshot")
        storage = LOVO.load(tmp_path / "snapshot").storage
        assert all(
            stored is listed
            for stored, listed in zip(storage.metadata._rows, storage.collection.ids())
        )

    def test_save_refuses_metadata_and_vectors_with_different_ids(self, tmp_path):
        storage = LOVOStorage(4, IndexConfig(index_type="flat"))
        storage.metadata.add_patches(["p0"], ["f0"], ["v0"], [0], [(0.0, 0.0, 1.0, 1.0)], [0.5])
        storage.collection.insert(["p1"], np.ones((1, 4)))
        with pytest.raises(PersistenceError, match="different patch ids"):
            storage.save(tmp_path / "storage")

    @pytest.mark.parametrize(
        "order", [["p0"], ["p0", "p1", "p1"], ["p0", "p2"], ["p0", "p1", "p2"]]
    )
    def test_metadata_rows_need_every_id_once(self, order):
        store = MetadataStore()
        store.add_patches(["p0", "p1"], ["f", "f"], ["v", "v"], [0, 1], [(0, 0, 1, 1)] * 2, [0.1, 0.2])
        with pytest.raises(MetadataError):
            store.to_arrays(order)

    def test_a_shard_column_that_does_not_match_the_shards_is_corruption(self, tmp_path):
        collection = ShardedCollection("c", 4, IndexConfig(index_type="flat"), ShardConfig(num_shards=2))
        collection.insert([f"p{i}" for i in range(10)], np.random.default_rng(0).normal(size=(10, 4)))
        collection.save(tmp_path / "c")
        arrays = load_arrays(tmp_path / "c" / "sharded.npz")
        assert arrays["c0000_shards"].tolist() == [
            collection.shard_of(f"p{i}") for i in range(10)
        ]
        assert ShardedCollection.load(tmp_path / "c", "c").ids() == collection.ids()
        for column in (arrays["c0000_shards"][:-1], 1 - arrays["c0000_shards"],
                       np.full(10, 2), arrays["c0000_shards"].astype(np.float64)):
            save_arrays(tmp_path / "c" / "sharded.npz", {**arrays, "c0000_shards": column})
            with pytest.raises(SnapshotCorruptionError):
                ShardedCollection.load(tmp_path / "c", "c")

    def test_a_flipped_byte_in_a_stored_plane_fails_the_manifest(self, tmp_path):
        tiny_system().save(tmp_path / "snapshot")
        entities = next((tmp_path / "snapshot").rglob("entities.npz"))
        flip_byte(entities, stored_plane_offset(entities))
        with pytest.raises(SnapshotCorruptionError, match="checksum"):
            LOVO.load(tmp_path / "snapshot")


class TestSchemaThreeDeltas:
    @pytest.fixture
    def store(self, tmp_path) -> DeltaSnapshotStore:
        system = tiny_system()
        store = DeltaSnapshotStore(tmp_path / "store")
        store.initialize(system)
        segment = make_bellevue(num_videos=1, frames_per_video=100, seed=1)
        store.append(segment.name, system.summarizer.summarize(segment))
        return store

    def test_encodings_hold_planed_class_embeddings_and_no_patch_embeddings(self, store):
        delta = store.root / "deltas" / "delta-000001"
        assert json.loads((delta / "delta.json").read_text())["schema_version"] == 3
        arrays = load_arrays(delta / "encodings.npz")
        assert "embeddings" not in arrays
        assert arrays["class_embeddings"].dtype == np.float32
        assert any(name.startswith("class_embeddings@") for name in member_names(delta / "encodings.npz"))
        _, summary = store._load_delta(store.deltas()[0])
        assert summary.encodings and all(e.embedding is None for e in summary.encodings)
        np.testing.assert_array_equal(
            np.stack([e.class_embedding for e in summary.encodings]).astype(np.float32),
            arrays["class_embeddings"],
        )

    def test_a_flipped_byte_in_a_stored_plane_fails_the_delta_checksum(self, store):
        encodings = store.root / "deltas" / "delta-000001" / "encodings.npz"
        flip_byte(encodings, stored_plane_offset(encodings))
        with pytest.raises(SnapshotCorruptionError, match="checksum"):
            store.load_system()


# ---------------------------------------------------------- recorded fixtures

class TestRecordedFixtures:
    """Every recorded layout loads and answers as the release that wrote it."""

    def test_schema_versions(self):
        assert SUPPORTED_SCHEMA_VERSIONS == (1, 2, 3)
        assert SUPPORTED_DELTA_SCHEMA_VERSIONS == (1, 2, 3)
        assert DELTA_SCHEMA_VERSION == 3
        assert read_manifest(FIXTURES / "schema3" / "snapshot").schema_version == 3

    @pytest.mark.parametrize("name", ["schema1", "schema2_flat", "schema3"])
    def test_fixture_answers_as_recorded(self, tmp_path, name):
        shutil.copytree(FIXTURES / name, tmp_path / name)
        root = tmp_path / name
        expected = json.loads((root / "expected.json").read_text())
        assert_recorded_answer(fixture_answer(LOVO.load(root / "snapshot"), expected),
                               expected["snapshot"])
        replayed = DeltaSnapshotStore(root / "deltastore").load_system()
        assert_recorded_answer(fixture_answer(replayed, expected), expected["deltastore"])
