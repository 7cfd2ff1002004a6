"""Versioned snapshot manifest with per-artifact checksums.

Every snapshot directory carries a ``manifest.json`` written last: it stamps
the snapshot schema version, the ``repro`` package version, a hash of the
full system configuration, and a SHA-256 checksum for every other file in
the snapshot.  Loading starts by validating the manifest, so schema skew
surfaces as :class:`~repro.errors.SnapshotVersionError` and any bit-level
damage to an artifact surfaces as
:class:`~repro.errors.SnapshotCorruptionError` before anything is
deserialised.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict

from repro.config import LOVOConfig
from repro.errors import (
    PersistenceError,
    SnapshotCorruptionError,
    SnapshotVersionError,
)
from repro.utils.serialization import load_json, save_json

#: Version of the on-disk snapshot layout written by this build.  Bump on any
#: incompatible change to the artifact set or their schemas.  Version 2
#: stores vectors as float32 and the frame registry as ``frames.json.gz``.
#: Version 3 byte-planes float arrays in every ``.npz`` and stores the patch
#: ids once: in the shards' ``entities.npz``, with ``sharded.npz`` holding the
#: shard of each global position and ``metadata.npz`` its patch rows in that
#: global order.
SNAPSHOT_SCHEMA_VERSION = 3

#: Every layout this build loads: version 1 (float64 vectors, indented
#: ``frames.json``) and version 2 (the ids also in ``sharded.npz`` as
#: ``c0000_order`` and in ``metadata.npz`` as ``patch_ids``) are still read.
SUPPORTED_SCHEMA_VERSIONS = (1, 2, 3)

MANIFEST_FILENAME = "manifest.json"


@dataclass(frozen=True)
class SnapshotManifest:
    """The validated contents of a snapshot's ``manifest.json``."""

    schema_version: int
    repro_version: str
    config_hash: str
    artifacts: Dict[str, str]
    info: Dict[str, Any] = field(default_factory=dict)


def sha256_file(path: str | Path) -> str:
    """Hex SHA-256 digest of a file's contents."""
    digest = hashlib.sha256()
    try:
        with Path(path).open("rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                digest.update(block)
    except OSError as error:
        raise PersistenceError(f"Cannot checksum snapshot artifact {path}: {error}") from error
    return digest.hexdigest()


def config_payload_hash(payload: Dict[str, Any]) -> str:
    """Deterministic hash of a configuration *as stored* in ``config.json``.

    Verification hashes the stored payload rather than a re-serialised
    :class:`LOVOConfig`, so snapshots written before a configuration section
    existed (e.g. pre-serving snapshots without a ``serve`` block) keep
    validating after the schema grows: parsing fills new sections with
    defaults, but the hash is only over what was actually saved.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def config_hash(config: LOVOConfig) -> str:
    """Deterministic hash of a full system configuration."""
    return config_payload_hash(config.to_dict())


def write_manifest(root: str | Path, manifest: SnapshotManifest) -> None:
    """Write ``manifest.json`` into the snapshot directory ``root``."""
    save_json(
        Path(root) / MANIFEST_FILENAME,
        {
            "schema_version": manifest.schema_version,
            "repro_version": manifest.repro_version,
            "config_hash": manifest.config_hash,
            "artifacts": dict(manifest.artifacts),
            "info": dict(manifest.info),
        },
    )


def read_manifest(root: str | Path) -> SnapshotManifest:
    """Read and validate ``manifest.json`` from a snapshot directory.

    Raises:
        PersistenceError: ``root`` is not a snapshot (no manifest file).
        SnapshotCorruptionError: the manifest is not valid JSON or is
            structurally malformed.
        SnapshotVersionError: the snapshot was written with an unsupported
            schema version.
    """
    path = Path(root) / MANIFEST_FILENAME
    try:
        document = load_json(path)
    except SnapshotCorruptionError:
        raise
    except PersistenceError as error:
        raise PersistenceError(
            f"{Path(root)} is not a LOVO snapshot (missing or unreadable {MANIFEST_FILENAME})"
        ) from error
    if not isinstance(document, dict) or "schema_version" not in document:
        raise SnapshotCorruptionError(f"Snapshot manifest {path} is malformed")
    try:
        schema_version = int(document["schema_version"])
    except (TypeError, ValueError) as error:
        raise SnapshotCorruptionError(
            f"Snapshot manifest {path} has a non-numeric schema version"
        ) from error
    if schema_version not in SUPPORTED_SCHEMA_VERSIONS:
        raise SnapshotVersionError(
            f"Snapshot at {Path(root)} uses schema version {schema_version}; "
            f"this build of repro supports versions {list(SUPPORTED_SCHEMA_VERSIONS)}"
        )
    try:
        return SnapshotManifest(
            schema_version=schema_version,
            repro_version=str(document["repro_version"]),
            config_hash=str(document["config_hash"]),
            artifacts={str(k): str(v) for k, v in document["artifacts"].items()},
            info=dict(document.get("info", {})),
        )
    except (KeyError, AttributeError, TypeError) as error:
        raise SnapshotCorruptionError(f"Snapshot manifest {path} is malformed") from error


def verify_artifacts(root: str | Path, manifest: SnapshotManifest) -> None:
    """Check that every manifest artifact exists and matches its checksum.

    Raises:
        PersistenceError: an artifact listed in the manifest is missing.
        SnapshotCorruptionError: an artifact's contents changed since the
            snapshot was written.
    """
    base = Path(root)
    for relative, expected in sorted(manifest.artifacts.items()):
        path = base / relative
        if not path.is_file():
            raise PersistenceError(f"Snapshot artifact {relative!r} is missing from {base}")
        actual = sha256_file(path)
        if actual != expected:
            raise SnapshotCorruptionError(
                f"Snapshot artifact {relative!r} failed checksum validation "
                f"(expected {expected[:12]}…, got {actual[:12]}…)"
            )


def collect_artifacts(root: str | Path) -> Dict[str, str]:
    """Checksum every file under ``root`` except the manifest itself."""
    base = Path(root)
    artifacts: Dict[str, str] = {}
    for path in sorted(base.rglob("*")):
        if not path.is_file():
            continue
        relative = path.relative_to(base).as_posix()
        if relative == MANIFEST_FILENAME:
            continue
        artifacts[relative] = sha256_file(path)
    return artifacts
