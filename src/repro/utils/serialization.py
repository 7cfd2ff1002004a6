"""The canonical JSON / ``.npz`` codec used by snapshot persistence.

Six small helpers — :func:`save_json` / :func:`load_json` for structured
documents, :func:`save_json_gz` / :func:`load_json_gz` for large ones (the
frame registry), and :func:`save_arrays` / :func:`load_arrays` for named
NumPy array payloads.  The :mod:`repro.persist` subsystem is the single
consumer: every snapshot artifact on disk is written and read through these
functions, so there is exactly one place defining how the reproduction
serialises data (UTF-8 JSON with sorted keys, indented or gzip-compressed
compact; compressed ``.npz`` with ``allow_pickle`` disabled).
"""

from __future__ import annotations

import gzip
import json
import zipfile
import zlib
from pathlib import Path
from typing import Any, Dict, Mapping

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
    """Save named arrays to a compressed ``.npz`` archive.

    Write failures raise :class:`~repro.errors.PersistenceError`, mirroring
    the load side.
    """
    target = Path(path)
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            target, **{name: np.asarray(value) for name, value in arrays.items()}
        )
    except OSError as error:
        raise PersistenceError(f"Cannot write snapshot artifact {target}: {error}") from error


def load_arrays(path: str | Path) -> Dict[str, np.ndarray]:
    """Load all arrays from a ``.npz`` archive into a plain dict.

    Missing/unreadable files raise
    :class:`~repro.errors.PersistenceError`; structurally damaged archives
    raise :class:`~repro.errors.SnapshotCorruptionError`.
    """
    target = Path(path)
    try:
        with np.load(target, allow_pickle=False) as archive:
            return {name: archive[name] for name in archive.files}
    except FileNotFoundError as error:
        raise PersistenceError(f"Snapshot artifact {target} is missing") from error
    except OSError as error:
        raise PersistenceError(f"Cannot read snapshot artifact {target}: {error}") from error
    except (ValueError, zipfile.BadZipFile) as error:
        raise SnapshotCorruptionError(
            f"Snapshot artifact {target} is not a valid array archive"
        ) from error


def _json_default(value: Any) -> Any:
    """JSON serialiser for NumPy scalars and arrays."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"Object of type {type(value)!r} is not JSON serialisable")
