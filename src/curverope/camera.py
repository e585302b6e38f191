"""Unified Camera Model geometry: unprojection and rigid transforms.

Conventions: right-handed camera frame with +Z forward, +X right, +Y down;
pixel origin at the top-left corner with pixel centers at integer + 0.5.
Poses are stored camera-to-world.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "UcmCamera",
    "RigidTransform",
    "Ray",
    "unproject_points",
    "relative_transform",
]

_ROTATION_TOL = 1e-9
_UNIT_TOL = 1e-12


@dataclass(frozen=True)
class UcmCamera:
    """Central camera with focal lengths, principal point and distortion xi.

    xi = 0 is exactly the pinhole model; xi in (0, 1] covers wide-angle
    and fisheye lenses. Values outside [0, 1] are rejected.

    Visibility: a camera-frame point p = (x, y, z) is visible when
    beta = z + xi |p| > 0. The model projects exactly the points with
    z > -xi |p|, and for xi in [0, 1] that domain is beta > 0 (for a
    pinhole camera, z > 0). Every pixel unprojects to a ray with beta > 0.
    """

    fx: float
    fy: float
    cx: float
    cy: float
    xi: float
    width: int
    height: int

    def __post_init__(self) -> None:
        if not np.all(np.isfinite([self.fx, self.fy, self.cx, self.cy])):
            raise ValueError(
                f"fx, fy, cx and cy must be finite, got {self.fx}, {self.fy}, {self.cx}, {self.cy}"
            )
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError(f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}")
        if self.width < 1 or self.height < 1:
            raise ValueError(f"image size must be >= 1, got {self.width}x{self.height}")
        if not (np.isfinite(self.xi) and 0.0 <= self.xi <= 1.0):
            raise ValueError(f"xi must be in [0, 1], got {self.xi}")


@dataclass(frozen=True)
class Ray:
    """Unit viewing direction in the camera frame.

    Directions with a non-positive z component only arise from cameras with
    xi > 0: the model admits rays behind the pinhole plane, and every such
    ray still has beta > 0, the visibility rule of UcmCamera.
    """

    direction: np.ndarray

    def __post_init__(self) -> None:
        d = np.asarray(self.direction, dtype=float)
        if d.shape != (3,) or not np.all(np.isfinite(d)):
            raise ValueError("ray direction must be a finite 3-vector")
        if abs(np.linalg.norm(d) - 1.0) > _UNIT_TOL:
            raise ValueError(f"ray direction must be unit norm, got |d|={np.linalg.norm(d)!r}")
        object.__setattr__(self, "direction", d)


@dataclass(frozen=True)
class RigidTransform:
    """Rotation + translation; maps points of one frame into another."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        r = np.asarray(self.rotation, dtype=float)
        t = np.asarray(self.translation, dtype=float)
        if r.shape != (3, 3) or t.shape != (3,):
            raise ValueError("rotation must be 3x3 and translation a 3-vector")
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(t))):
            raise ValueError("transform entries must be finite")
        if np.max(np.abs(r.T @ r - np.eye(3))) > _ROTATION_TOL:
            raise ValueError("rotation is not orthonormal within 1e-9")
        if abs(np.linalg.det(r) - 1.0) > _ROTATION_TOL:
            raise ValueError("rotation determinant must be +1 within 1e-9")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @classmethod
    def _unchecked(cls, rotation: np.ndarray, translation: np.ndarray) -> "RigidTransform":
        """A transform from float arrays that hold its invariants by
        construction, without the constructor's checks."""
        transform = object.__new__(cls)
        object.__setattr__(transform, "rotation", rotation)
        object.__setattr__(transform, "translation", translation)
        return transform


def unproject_points(cam: UcmCamera, pixels: np.ndarray) -> np.ndarray:
    """Map pixel coordinates (..., 2) to unit ray directions (..., 3).

    Finite but extreme intrinsics (fx = 1e-200) overflow x * x and make
    the rays NaN. That raises no warning here: token_rays rejects such
    rays, and render_radial_map marks their pixels invalid.
    """
    px = np.asarray(pixels, dtype=float)
    if px.shape[-1] != 2:
        raise ValueError("pixels must have shape (..., 2)")
    if not np.all(np.isfinite(px)):
        raise ValueError("pixel coordinates must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        x = (px[..., 0] - cam.cx) / cam.fx
        y = (px[..., 1] - cam.cy) / cam.fy
        rho2 = x * x + y * y
        gamma = (cam.xi + np.sqrt(1.0 + (1.0 - cam.xi * cam.xi) * rho2)) / (1.0 + rho2)
        vec = np.stack([gamma * x, gamma * y, gamma - cam.xi], axis=-1)
        return vec / np.linalg.norm(vec, axis=-1, keepdims=True)


def relative_transform(pose_source: RigidTransform, pose_query: RigidTransform) -> RigidTransform:
    """Transform from source-camera coordinates into query-camera coordinates.

    Both poses are camera-to-world; the result is inverse(pose_query)
    composed with pose_source. The poses were checked when they were built,
    and the product is not checked again: that would cost more than the
    product, and the deviations of two accepted rotations can add up past
    the 1e-9 tolerance.
    """
    rq = pose_query.rotation
    rel_rot = rq.T @ pose_source.rotation
    rel_t = rq.T @ (pose_source.translation - pose_query.translation)
    return RigidTransform._unchecked(rel_rot, rel_t)

