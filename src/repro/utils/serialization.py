"""The canonical JSON / ``.npz`` codec used by snapshot persistence.

Six small helpers — :func:`save_json` / :func:`load_json` for structured
documents, :func:`save_json_gz` / :func:`load_json_gz` for large ones (the
frame registry), and :func:`save_arrays` / :func:`load_arrays` for named
NumPy array payloads.  The :mod:`repro.persist` subsystem is the single
consumer: every snapshot artifact on disk is written and read through these
functions, so there is exactly one place defining how the reproduction
serialises data (UTF-8 JSON with sorted keys, indented or gzip-compressed
compact; ``.npz`` zip archives of ``.npy`` members with ``allow_pickle``
disabled).

Since snapshot schema 3 an archive byte-planes its float arrays, as the
"shuffle" filter of HDF5 and Blosc does: plane ``k`` of a float array holds
byte ``k`` of every little-endian element, so the slowly varying sign and
exponent bytes deflate well and the noisy low mantissa bytes are stored
raw instead of deflated for nothing.  Whether to plane an array and whether
to deflate each member are decided from the data (:func:`save_arrays`);
:func:`load_arrays` reassembles the exact bits and still reads the plain
``np.savez_compressed`` archives of schemas 1 and 2.
"""

from __future__ import annotations

import gzip
import json
import zipfile
import zlib
from pathlib import Path
from typing import Any, Dict, Iterator, Mapping, Tuple

import numpy as np

from repro.errors import PersistenceError, SnapshotCorruptionError


def save_json(path: str | Path, payload: Mapping[str, Any]) -> None:
    """Write ``payload`` to ``path`` as UTF-8 JSON, creating parent dirs.

    Write failures (permissions, disk full) raise
    :class:`~repro.errors.PersistenceError`, mirroring the load side.
    """
    target = Path(path)
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        with target.open("w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True, default=_json_default)
    except OSError as error:
        raise PersistenceError(f"Cannot write snapshot artifact {target}: {error}") from error


def load_json(path: str | Path) -> Dict[str, Any]:
    """Load a JSON document written by :func:`save_json`.

    Raises :class:`~repro.errors.PersistenceError` when the file is missing
    or unreadable and :class:`~repro.errors.SnapshotCorruptionError` when it
    is not valid JSON, so every persistence layer surfaces the typed error
    hierarchy rather than bare ``IOError``/``ValueError``.
    """
    target = Path(path)
    try:
        with target.open("r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError as error:
        raise PersistenceError(f"Snapshot artifact {target} is missing") from error
    except OSError as error:
        raise PersistenceError(f"Cannot read snapshot artifact {target}: {error}") from error
    except json.JSONDecodeError as error:
        raise SnapshotCorruptionError(
            f"Snapshot artifact {target} is not valid JSON"
        ) from error


def save_json_gz(path: str | Path, payload: Mapping[str, Any]) -> None:
    """Write ``payload`` as gzip-compressed compact UTF-8 JSON.

    Sorted keys, no whitespace and a zero gzip timestamp make the bytes a
    function of the payload alone, so re-saving equal data reproduces the
    file and its manifest checksum.  Floats round-trip exactly, as with
    :func:`save_json`.
    """
    target = Path(path)
    document = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=_json_default
    ).encode("utf-8")
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(gzip.compress(document, mtime=0))
    except OSError as error:
        raise PersistenceError(f"Cannot write snapshot artifact {target}: {error}") from error


def load_json_gz(path: str | Path) -> Dict[str, Any]:
    """Load a document written by :func:`save_json_gz`, with the errors of
    :func:`load_json` (a damaged gzip stream is a
    :class:`~repro.errors.SnapshotCorruptionError`)."""
    target = Path(path)
    try:
        return json.loads(gzip.decompress(target.read_bytes()).decode("utf-8"))
    except FileNotFoundError as error:
        raise PersistenceError(f"Snapshot artifact {target} is missing") from error
    except (gzip.BadGzipFile, EOFError, zlib.error, UnicodeDecodeError, ValueError) as error:
        raise SnapshotCorruptionError(
            f"Snapshot artifact {target} is not valid gzip-compressed JSON"
        ) from error
    except OSError as error:
        raise PersistenceError(f"Cannot read snapshot artifact {target}: {error}") from error


def save_arrays(path: str | Path, arrays: Mapping[str, np.ndarray]) -> None:
    """Save named arrays to one ``.npz`` (zip) archive, byte-planing floats.

    Each array is one ``.npy`` zip member, except a float array that byte
    planes make smaller: it is stored as members ``name@0`` .. ``name@{n-1}``
    (:data:`PLANE_SEPARATOR`), plane ``k`` a ``uint8`` array of the array's
    shape holding byte ``k`` of each little-endian element.  The sign and
    exponent bytes of real data vary slowly and deflate well; the low
    mantissa bytes are close to noise and do not.  So every member (a plane
    or a whole array) is deflated only when that shrinks it by at least
    1/64, and stored raw otherwise; and an array is planed only when its
    planes take fewer bytes than the array kept whole (a column of
    repeated values can deflate better whole).  Both choices are made from
    the data, on the first 16 KiB of each member (all of it, for a smaller
    one), so no level or threshold is a setting.  Members are written in
    ``arrays`` order with a fixed timestamp, so equal data gives equal
    bytes.

    Write failures raise :class:`~repro.errors.PersistenceError`, mirroring
    the load side.
    """
    target = Path(path)
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        with zipfile.ZipFile(target, "w", allowZip64=True) as archive:
            for name, value in arrays.items():
                if PLANE_SEPARATOR in name:
                    raise ValueError(
                        f"Array name {name!r} contains the plane separator {PLANE_SEPARATOR!r}"
                    )
                for member, payload, deflate in _members(name, np.asarray(value)):
                    info = zipfile.ZipInfo(f"{member}.npy", date_time=(1980, 1, 1, 0, 0, 0))
                    info.create_system = 3
                    info.external_attr = 0o600 << 16
                    info.compress_type = zipfile.ZIP_DEFLATED if deflate else zipfile.ZIP_STORED
                    with archive.open(info, "w", force_zip64=True) as stream:
                        np.lib.format.write_array(stream, payload, allow_pickle=False)
    except OSError as error:
        raise PersistenceError(f"Cannot write snapshot artifact {target}: {error}") from error


def load_arrays(path: str | Path) -> Dict[str, np.ndarray]:
    """Load all arrays from a ``.npz`` archive into a plain dict.

    Reads both what :func:`save_arrays` writes (byte planes are reassembled
    bit for bit, as little-endian floats) and plain ``np.savez`` archives.
    Missing/unreadable files raise :class:`~repro.errors.PersistenceError`;
    damaged or malformed archives (a bad checksum, a missing plane, planes of
    unequal shape or of another dtype than ``uint8``, an element size that
    is no float's) raise :class:`~repro.errors.SnapshotCorruptionError`.
    """
    target = Path(path)
    try:
        with zipfile.ZipFile(target) as archive:
            members: Dict[str, np.ndarray] = {}
            for member in archive.namelist():
                if not member.endswith(".npy"):
                    raise ValueError(f"member {member!r} is not an .npy array")
                with archive.open(member) as stream:
                    members[member[: -len(".npy")]] = np.lib.format.read_array(
                        stream, allow_pickle=False
                    )
        return _assemble(members)
    except FileNotFoundError as error:
        raise PersistenceError(f"Snapshot artifact {target} is missing") from error
    except (
        ValueError, KeyError, EOFError, NotImplementedError, zlib.error, zipfile.BadZipFile
    ) as error:
        raise SnapshotCorruptionError(
            f"Snapshot artifact {target} is not a valid array archive: {error}"
        ) from error
    except OSError as error:
        raise PersistenceError(f"Cannot read snapshot artifact {target}: {error}") from error


#: Joins an array's name and a plane number in a planed member's name.
PLANE_SEPARATOR = "@"

#: The little-endian float type of each element size that is byte-planed.
_PLANED_FLOATS = {2: np.dtype("<f2"), 4: np.dtype("<f4"), 8: np.dtype("<f8")}

#: How much of a member the store-or-deflate and plane-or-whole choices read.
_SAMPLE_BYTES = 1 << 14

#: What one more member costs in the archive: its ``.npy`` header and its two
#: zip headers, which carry its name.
_MEMBER_BYTES = 256


def _deflate_cost(sample: np.ndarray) -> Tuple[int, bool]:
    """What the bytes of ``sample`` take in the archive, and whether they are
    deflated: only when deflating saves 1/64 of them or more."""
    raw = sample.tobytes()
    deflated = len(zlib.compress(raw))
    if 64 * deflated <= 63 * len(raw):
        return deflated, True
    return len(raw), False


def _members(name: str, array: np.ndarray) -> Iterator[Tuple[str, np.ndarray, bool]]:
    """``(member name, array, deflate?)`` for each zip member of ``array``."""
    dtype = _PLANED_FLOATS.get(array.dtype.itemsize)
    if array.dtype.kind != "f" or dtype is None or array.ndim == 0 or array.size == 0:
        sampled = array.reshape(-1)[: max(1, _SAMPLE_BYTES // max(1, array.itemsize))]
        yield name, array, _deflate_cost(sampled)[1]
        return
    little = np.ascontiguousarray(array, dtype=dtype)
    byte_columns = little.view(np.uint8).reshape(*array.shape, dtype.itemsize)
    sampled = byte_columns.reshape(-1, dtype.itemsize)[: _SAMPLE_BYTES // dtype.itemsize]
    whole_cost, whole_deflate = _deflate_cost(sampled)
    plane_costs = [_deflate_cost(sampled[:, k]) for k in range(dtype.itemsize)]
    extra_members = (dtype.itemsize - 1) * _MEMBER_BYTES * sampled.shape[0] / array.size
    if sum(cost for cost, _ in plane_costs) + extra_members >= whole_cost:
        yield name, array, whole_deflate
        return
    for k, (_, deflate) in enumerate(plane_costs):
        yield f"{name}{PLANE_SEPARATOR}{k}", np.ascontiguousarray(byte_columns[..., k]), deflate


def _assemble(members: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Arrays by name from archive members, reassembling byte planes."""
    arrays: Dict[str, np.ndarray] = {}
    planes: Dict[str, Dict[int, np.ndarray]] = {}
    for member, value in members.items():
        name, separator, number = member.partition(PLANE_SEPARATOR)
        if not separator:
            arrays[name] = value
            continue
        if not (number.isdecimal() and str(int(number)) == number):
            raise ValueError(f"member {member!r} has no plane number")
        planes.setdefault(name, {})[int(number)] = value
    for name, by_number in planes.items():
        if name in arrays:
            raise ValueError(f"array {name!r} is stored both whole and as planes")
        dtype = _PLANED_FLOATS.get(len(by_number))
        if dtype is None:
            raise ValueError(f"array {name!r} has {len(by_number)} planes, no float's size")
        if sorted(by_number) != list(range(len(by_number))):
            raise ValueError(f"array {name!r} is missing a plane: {sorted(by_number)}")
        shape = by_number[0].shape
        if any(plane.dtype != np.uint8 or plane.shape != shape for plane in by_number.values()):
            raise ValueError(f"array {name!r} has planes of unequal shape or not uint8")
        stacked = np.empty((*shape, len(by_number)), dtype=np.uint8)
        for number, plane in by_number.items():
            stacked[..., number] = plane
        arrays[name] = stacked.view(dtype).reshape(shape)
    return arrays


def _json_default(value: Any) -> Any:
    """JSON serialiser for NumPy scalars and arrays."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"Object of type {type(value)!r} is not JSON serialisable")
