"""JSON codec for the frame registry (key frames and their annotations).

The rerank stage re-encodes candidate key frames on demand, so a snapshot
must carry the full :class:`~repro.video.model.Frame` objects — object
annotations included — not just frame ids.  Everything here is plain JSON;
Python's ``json`` round-trips ``float`` exactly (``repr`` shortest-round-trip
semantics), so re-encoded embeddings are bit-identical after a load.

On disk the registry document is ``frames.json.gz``: compact JSON (sorted
keys, no whitespace), gzip-compressed, in snapshots and deltas since schema
2.  Schema 1 wrote the same document as indented, uncompressed
``frames.json``; :func:`read_frames` reads either by the schema version.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Mapping, Sequence

from repro.errors import SnapshotCorruptionError
from repro.utils.geometry import BoundingBox
from repro.utils.serialization import load_json, load_json_gz, save_json_gz
from repro.video.model import Frame, ObjectAnnotation

#: The frame registry's file in a snapshot or delta directory (since schema 2).
FRAMES_FILENAME = "frames.json.gz"
#: Its schema-1 name: the same document as indented, uncompressed JSON.
LEGACY_FRAMES_FILENAME = "frames.json"


def frames_filename(schema_version: int) -> str:
    """The frame registry's file name in a snapshot or delta of that schema."""
    return LEGACY_FRAMES_FILENAME if schema_version == 1 else FRAMES_FILENAME


def write_frames(directory: Path, document: Mapping[str, Any]) -> None:
    """Write a frame registry document as ``directory/frames.json.gz``."""
    save_json_gz(directory / FRAMES_FILENAME, document)


def read_frames(directory: Path, schema_version: int) -> Dict[str, Any]:
    """Read the frame registry document a snapshot or delta of that schema wrote."""
    if schema_version == 1:
        return load_json(directory / LEGACY_FRAMES_FILENAME)
    return load_json_gz(directory / FRAMES_FILENAME)


def annotation_to_dict(annotation: ObjectAnnotation) -> Dict[str, Any]:
    """Serialise one ground-truth object annotation."""
    return {
        "object_id": annotation.object_id,
        "category": annotation.category,
        "attributes": dict(annotation.attributes),
        "context": list(annotation.context),
        "activity": list(annotation.activity),
        "box": [annotation.box.x, annotation.box.y, annotation.box.w, annotation.box.h],
    }


def annotation_from_dict(payload: Mapping[str, Any]) -> ObjectAnnotation:
    """Rebuild an annotation from :func:`annotation_to_dict` output."""
    try:
        box = payload["box"]
        return ObjectAnnotation(
            object_id=str(payload["object_id"]),
            category=str(payload["category"]),
            attributes={str(k): str(v) for k, v in payload["attributes"].items()},
            context=tuple(str(token) for token in payload["context"]),
            activity=tuple(str(token) for token in payload["activity"]),
            box=BoundingBox(float(box[0]), float(box[1]), float(box[2]), float(box[3])),
        )
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as error:
        raise SnapshotCorruptionError(f"Malformed object annotation in snapshot: {error}") from error


def frame_to_dict(frame: Frame) -> Dict[str, Any]:
    """Serialise one key frame with all of its annotations."""
    return {
        "frame_id": frame.frame_id,
        "video_id": frame.video_id,
        "index": frame.index,
        "timestamp": frame.timestamp,
        "camera_offset": list(frame.camera_offset),
        "objects": [annotation_to_dict(annotation) for annotation in frame.objects],
    }


def frame_from_dict(payload: Mapping[str, Any]) -> Frame:
    """Rebuild a frame from :func:`frame_to_dict` output."""
    try:
        offset = payload.get("camera_offset", (0.0, 0.0))
        return Frame(
            frame_id=str(payload["frame_id"]),
            video_id=str(payload["video_id"]),
            index=int(payload["index"]),
            timestamp=float(payload["timestamp"]),
            objects=tuple(annotation_from_dict(entry) for entry in payload["objects"]),
            camera_offset=(float(offset[0]), float(offset[1])),
        )
    except (KeyError, IndexError, TypeError, ValueError) as error:
        raise SnapshotCorruptionError(f"Malformed frame record in snapshot: {error}") from error


def frames_to_list(frames: Sequence[Frame]) -> List[Dict[str, Any]]:
    """Serialise an ordered sequence of frames."""
    return [frame_to_dict(frame) for frame in frames]


def frames_from_list(payload: Sequence[Mapping[str, Any]]) -> List[Frame]:
    """Rebuild an ordered frame list."""
    return [frame_from_dict(entry) for entry in payload]
