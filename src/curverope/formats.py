"""On-disk formats: RDM1 radial maps, trajectory JSON, head checkpoints.

RDM1 layout: 4-byte magic "RDM1", then little-endian u32 width, height,
frames, then frames*height*width little-endian f32 values in frame-major,
row-major order. Non-finite entries encode invalid pixels. An optional
JSON sidecar (<path>.json) carries {near_stat, units, source_valid_policy}.

Head checkpoints: little-endian u32 header length, a JSON header listing
field names and shapes in declaration order, then the concatenated flat
little-endian f32 arrays, every value finite.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np

from .camera import RigidTransform, UcmCamera
from .head import HeadParams
from .supervision import RadialMap

__all__ = [
    "FormatError",
    "RDM1_MAGIC",
    "write_rdm1",
    "read_rdm1",
    "read_sidecar",
    "camera_from_dict",
    "save_trajectory",
    "load_trajectory",
    "save_head_params",
    "load_head_params",
]

RDM1_MAGIC = b"RDM1"
_HEADER_FMT = "<III"
_TRAJ_ROTATION_TOL = 1e-6
_CAMERA_SIZES = ("width", "height")


class FormatError(ValueError):
    """Malformed file; carries the byte offset where parsing failed, or None
    for a value of a parsed document, whose position the parser does not keep."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (byte offset {offset})")
        self.offset = offset


def parse_json(data: bytes, what: str, offset: int = 0):
    """Parse data, UTF-8 JSON text found at byte offset of its file.

    Bytes that are not UTF-8 JSON, or that nest past the parser's depth,
    raise FormatError naming what, at the file offset of the fault.
    """
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as e:
        raise FormatError(f"{what} is not UTF-8: {e.reason}", offset + e.start) from e
    except json.JSONDecodeError as e:
        raise FormatError(f"invalid {what} JSON: {e.msg}", offset + e.pos) from e
    except RecursionError as e:  # arrays or objects nested past the parser's depth
        raise FormatError(f"{what} JSON nests too deeply", offset) from e


def write_rdm1(path, radial_map: RadialMap, near_stat: float | None = None) -> None:
    """Write a radial map in meters; invalid pixels are stored as NaN.

    The ``<path>.json`` sidecar holds ``near_stat``, which must be finite
    (checked before anything is written); without one, a sidecar left by an
    earlier map at this path is removed.
    """
    if near_stat is not None and not _finite_float(near_stat):
        raise ValueError("near_stat must be a finite number within the float range")
    path = Path(path)
    sidecar_path = path.with_suffix(path.suffix + ".json")
    f, h, w = radial_map.values.shape
    payload = np.where(radial_map.source_valid, radial_map.values, np.nan)
    payload = np.ascontiguousarray(payload, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(RDM1_MAGIC)
        fh.write(struct.pack(_HEADER_FMT, w, h, f))
        fh.write(payload.tobytes())
    if near_stat is None:
        sidecar_path.unlink(missing_ok=True)
        return
    sidecar = {
        "near_stat": near_stat,
        "units": "meters",
        "source_valid_policy": "nonfinite",
    }
    sidecar_path.write_text(json.dumps(sidecar, sort_keys=True) + "\n")


def read_rdm1(path) -> RadialMap:
    """Read a radial map; non-finite entries become invalid pixels."""
    data = Path(path).read_bytes()
    if len(data) < 4 or data[:4] != RDM1_MAGIC:
        raise FormatError("bad RDM1 magic", 0)
    if len(data) < 16:
        raise FormatError("truncated RDM1 header", len(data))
    w, h, f = struct.unpack_from(_HEADER_FMT, data, 4)
    expected = 16 + 4 * f * h * w
    if len(data) != expected:
        raise FormatError(
            f"RDM1 payload length mismatch: have {len(data)} bytes, expected {expected}",
            min(len(data), expected),
        )
    # Casting a signalling NaN quiets it and warns; the pixel is invalid either way.
    with np.errstate(invalid="ignore"):
        values = np.frombuffer(data, dtype="<f4", offset=16).reshape(f, h, w).astype(float)
    return RadialMap(values=values, source_valid=np.isfinite(values))


def read_sidecar(path) -> dict | None:
    """The RDM1 sidecar object, or None when there is no sidecar file."""
    sidecar = Path(path).with_suffix(Path(path).suffix + ".json")
    if not sidecar.exists():
        return None
    doc = parse_json(sidecar.read_bytes(), "RDM1 sidecar")
    if not isinstance(doc, dict):
        raise FormatError("RDM1 sidecar must be a JSON object")
    near = doc.get("near_stat")
    if near is not None and not _is_number(near):
        raise FormatError("RDM1 sidecar near_stat must be a number")
    if near is not None and not _finite_float(near):
        raise ValueError("RDM1 sidecar near_stat must be a finite number within the float range")
    return doc


def _is_number(value) -> bool:
    """Whether a parsed JSON value is a number; true and false are not."""
    return type(value) in (int, float)


def _finite_float(value) -> bool:
    """Whether float(value) is finite; an integer past the float range is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def camera_from_dict(c: dict) -> UcmCamera:
    """Camera from its {fx, fy, cx, cy, xi, width, height} mapping.

    A field that is not a JSON number is a FormatError naming it. A size
    that is not a whole number, and a number float() or int() cannot hold
    (an integer past the float range, an infinite size), are ValueErrors. A
    missing field raises KeyError; callers say which document lacked it.
    """
    values = {}
    for name in ("fx", "fy", "cx", "cy", "xi", *_CAMERA_SIZES):
        value = c[name]
        if not _is_number(value):
            raise FormatError(f"camera field {name} must be a number")
        try:
            number = int(value) if name in _CAMERA_SIZES else float(value)
        except OverflowError as e:  # an integer past the float range, an infinite size
            raise ValueError(f"camera field out of range: {e}") from e
        except ValueError:  # a NaN size
            number = None
        if name in _CAMERA_SIZES and number != value:  # a fraction or NaN
            raise ValueError(f"camera field {name} must be a whole number, got {value}")
        values[name] = number
    return UcmCamera(**values)


def save_trajectory(path, cam: UcmCamera, poses) -> None:
    """Write intrinsics and per-frame camera-to-world 4x4 matrices."""
    doc = {
        "camera": {
            "fx": cam.fx, "fy": cam.fy, "cx": cam.cx, "cy": cam.cy,
            "xi": cam.xi, "width": cam.width, "height": cam.height,
        },
        "poses": [_pose_matrix(p).tolist() for p in poses],
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n")


def _pose_matrix(pose: RigidTransform) -> np.ndarray:
    m = np.eye(4)
    m[:3, :3] = pose.rotation
    m[:3, 3] = pose.translation
    return m


def _orthonormalize(r: np.ndarray) -> np.ndarray:
    u, _, vt = np.linalg.svd(r)
    fix = np.diag([1.0, 1.0, np.sign(np.linalg.det(u @ vt))])
    return u @ fix @ vt


def _is_matrix_4x4(m) -> bool:
    """Whether a parsed JSON value is 4 rows of 4 numbers."""
    return (
        isinstance(m, list) and len(m) == 4
        and all(isinstance(row, list) and len(row) == 4 and all(map(_is_number, row)) for row in m)
    )


def load_trajectory(path):
    """Load (camera, poses); rotations must be orthonormal within 1e-6.

    Accepted rotations are re-orthonormalized so the stricter transform
    invariant holds downstream.
    """
    doc = parse_json(Path(path).read_bytes(), "trajectory")
    try:
        cam = camera_from_dict(doc["camera"])
        matrices = list(doc["poses"])
    except (KeyError, TypeError) as e:
        raise FormatError(f"trajectory document missing field: {e}") from e
    poses = []
    for i, m in enumerate(matrices):
        try:
            m = np.array(m, dtype=float) if _is_matrix_4x4(m) else None
        except OverflowError:  # an integer past the float range
            m = None
        if m is None or not np.all(np.isfinite(m)):
            raise ValueError(f"pose {i} is not a finite 4x4 matrix")
        if np.max(np.abs(m[3] - np.array([0.0, 0.0, 0.0, 1.0]))) > 1e-9:
            raise ValueError(f"pose {i} bottom row must be [0, 0, 0, 1]")
        r = m[:3, :3]
        dev = max(
            np.max(np.abs(r.T @ r - np.eye(3))),
            abs(np.linalg.det(r) - 1.0),
        )
        if dev > _TRAJ_ROTATION_TOL:
            raise ValueError(
                f"pose {i} rotation deviates from orthonormal by {dev:.3e} (> {_TRAJ_ROTATION_TOL})"
            )
        poses.append(RigidTransform(_orthonormalize(r), m[:3, 3]))
    if not poses:
        raise ValueError("trajectory must contain at least one pose")
    return cam, poses


def save_head_params(path, params: HeadParams) -> None:
    """Write the parameters as float32; a value that is not finite in
    float32 raises ValueError before anything is written."""
    arrays = []
    for name, a in params.field_arrays():
        with np.errstate(over="ignore"):  # out-of-range values become inf, rejected below
            f32 = np.asarray(a, dtype="<f4")  # tobytes() writes C order; a 0-d array stays 0-d
        if not np.all(np.isfinite(f32)):
            raise ValueError(f"head parameter {name} holds a value that is not finite in float32")
        arrays.append((name, f32))
    header = json.dumps(
        {"dtype": "<f4", "fields": [[name, list(a.shape)] for name, a in arrays]},
        sort_keys=True,
    ).encode()
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for _, a in arrays:
            fh.write(a.tobytes())


def _is_field_entry(entry) -> bool:
    """A checkpoint header field: [name, shape] with a list of non-negative int dims."""
    return (
        isinstance(entry, list)
        and len(entry) == 2
        and isinstance(entry[0], str)
        and isinstance(entry[1], list)
        and all(type(n) is int and n >= 0 for n in entry[1])
    )


def load_head_params(path) -> HeadParams:
    data = Path(path).read_bytes()
    if len(data) < 4:
        raise FormatError("truncated checkpoint header length", len(data))
    (header_len,) = struct.unpack_from("<I", data, 0)
    if len(data) < 4 + header_len:
        raise FormatError("truncated checkpoint header", len(data))
    header = parse_json(data[4 : 4 + header_len], "checkpoint header", 4)
    entries = header.get("fields") if isinstance(header, dict) else None
    if not isinstance(entries, list) or not all(_is_field_entry(e) for e in entries):
        raise FormatError("checkpoint header needs a 'fields' list of [name, shape] entries", 4)
    names = [name for name, _ in entries]
    if sorted(names) != sorted(f.name for f in fields(HeadParams)):
        raise FormatError(f"checkpoint fields {names} do not match the head parameters", 4)
    offset = 4 + header_len
    out = {}
    for name, shape in entries:
        count = math.prod(shape)
        nbytes = 4 * count
        if len(data) < offset + nbytes:
            raise FormatError(f"truncated checkpoint payload for {name}", offset)
        arr = np.frombuffer(data, dtype="<f4", count=count, offset=offset)
        if not np.all(np.isfinite(arr)):
            raise FormatError(f"non-finite value in checkpoint field {name}", offset)
        out[name] = arr.reshape(shape).astype(float)
        offset += nbytes
    if offset != len(data):
        raise FormatError("trailing bytes after checkpoint payload", offset)
    return HeadParams(**out)
