"""Expected rotary modulation along curved projected ray paths.

A token's radial position is a uniform distribution over log radial
distance. The interval is discretized into breakpoints, lifted along the
source ray, transported to the query camera and projected; the rotary
phasor is integrated analytically over each piecewise-linear phase
segment. The resulting per-frequency (cos, sin) coefficients have
magnitude <= 1 and replace exact RoPE rotations on the key side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import BETA_EPS, Ray, RigidTransform, UcmCamera, unproject_points
from .rope import FrequencyPlan

__all__ = [
    "LOG_RANGE_BOUND",
    "PATCH_OFFSETS",
    "RadialInterval",
    "clamp_interval",
    "ProjectedPath",
    "token_grid",
    "token_rays",
    "breakpoints",
    "token_paths",
    "projected_path",
    "segment_phasor",
    "coefficients_from_paths",
]

# Bound on log normalized radial distance; exp(+-3) ~ [0.05, 20].
LOG_RANGE_BOUND = 3.0
# Fixed relative sub-patch positions for the three offset rays.
PATCH_OFFSETS = np.array([[0.5, 0.5], [0.25, 0.25], [0.75, 0.75]])


@dataclass(frozen=True)
class RadialInterval:
    """Uniform distribution over log radial distance: center mu, half-width |sigma|."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.mu) and np.isfinite(self.sigma)):
            raise ValueError("interval parameters must be finite")


def clamp_interval(mu, sigma, bound: float = LOG_RANGE_BOUND):
    """The interval clamp on arrays: (mu, sigma) with mu clipped to
    [-bound, bound] and |sigma| capped at bound - |mu|, keeping sigma's sign.

    mu and sigma are scalars or arrays that broadcast together.
    """
    mu = np.clip(mu, -bound, bound)
    return mu, np.copysign(np.minimum(np.abs(sigma), bound - np.abs(mu)), sigma)


@dataclass(frozen=True)
class ProjectedPath:
    """Query-view coordinates of lifted breakpoints, batched over leading axes.

    points[..., k, :] = (u_bounded, v_bounded, range) where (u, v) lie in
    the closed unit disk and range is the query-frame radial distance;
    valid[..., k] flags the points that enter the phase integral.
    """

    points: np.ndarray
    valid: np.ndarray

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        val = np.asarray(self.valid, dtype=bool)
        if pts.ndim < 2 or pts.shape[-1] != 3 or pts.shape[-2] < 2:
            raise ValueError("paths need at least 2 points of shape (..., K, 3)")
        if val.shape != pts.shape[:-1]:
            raise ValueError("validity mask must match the number of points")
        disk = pts[..., 0] ** 2 + pts[..., 1] ** 2
        if np.any(disk > 1.0 + 1e-12):
            raise ValueError("bounded coordinates must lie in the closed unit disk")
        if np.any(val & ~(pts[..., 2] > 0)):
            raise ValueError("valid points must have positive range")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "valid", val)


def token_grid(height: int, width: int, patch_size: int) -> tuple:
    """(rows, cols) of the token grid; patch_size must divide the image."""
    if patch_size < 1 or height % patch_size != 0 or width % patch_size != 0:
        raise ValueError(f"image size {height}x{width} is not divisible by patch_size={patch_size}")
    return height // patch_size, width // patch_size


def token_rays(cam_s: UcmCamera, patch_size: int) -> np.ndarray:
    """Offset rays of every token, shape (rows * cols, 3, 3), row-major tokens.

    Each token casts three unit rays through fixed sub-patch positions
    (PATCH_OFFSETS) of its patch.
    """
    rows, cols = token_grid(cam_s.height, cam_s.width, patch_size)
    r, c = np.divmod(np.arange(rows * cols), cols)
    pixels = np.stack(
        [(c[:, None] + PATCH_OFFSETS[:, 0]) * patch_size, (r[:, None] + PATCH_OFFSETS[:, 1]) * patch_size],
        axis=-1,
    )
    return unproject_points(cam_s, pixels)


def breakpoints(mu, sigma, k: int) -> np.ndarray:
    """K radial distances exp(z_k) at uniformly spaced z over each interval.

    mu and sigma are scalars or arrays of one shape; the result has that
    shape plus a trailing axis of length K.
    """
    if k < 2:
        raise ValueError(f"need at least 2 breakpoints, got {k}")
    a = np.abs(np.asarray(sigma, dtype=float))[..., None]
    z = np.asarray(mu, dtype=float)[..., None] - a + (np.arange(k, dtype=float) / (k - 1)) * (2.0 * a)
    return np.exp(z)


def token_paths(
    cam_q: UcmCamera,
    transform: RigidTransform,
    rays: np.ndarray,
    radii: np.ndarray,
) -> ProjectedPath:
    """Lift radii along source rays, move to the query frame and project.

    rays (..., 3) are unit directions and radii (..., K) broadcasts against
    them, so (tokens, offsets, 3) rays with (tokens, 1, K) radii give paths
    of shape (tokens, offsets, K). A point is flagged invalid when the
    query camera is pinhole (xi = 0) and the point sits at or behind its
    principal plane, or when the projection denominator is smaller than
    the guard; projection itself stays total.
    """
    r = np.asarray(radii, dtype=float)
    if r.ndim < 1 or r.shape[-1] < 2:
        raise ValueError("radii need a trailing axis with at least 2 entries")
    if not np.all(np.isfinite(r)) or np.any(r <= 0):
        raise ValueError("radii must be positive finite reals")
    if np.any(np.diff(r, axis=-1) < 0):
        raise ValueError("radii must be non-decreasing")

    pts = transform.apply(r[..., :, None] * np.asarray(rays, dtype=float)[..., None, :])
    rng = np.linalg.norm(pts, axis=-1)
    z = pts[..., 2]
    beta = z + cam_q.xi * rng
    invalid = np.abs(beta) < BETA_EPS
    if cam_q.xi == 0.0:
        invalid |= z <= 0.0
    beta = np.where(beta >= 0.0, np.maximum(beta, BETA_EPS), np.minimum(beta, -BETA_EPS))
    ub = (cam_q.fx / cam_q.width) * pts[..., 0] / beta
    vb = (cam_q.fy / cam_q.height) * pts[..., 1] / beta
    denom = np.sqrt(ub * ub + vb * vb + 1.0)
    points = np.stack([ub / denom, vb / denom, rng], axis=-1)
    return ProjectedPath(points=points, valid=~invalid)


def projected_path(
    cam_q: UcmCamera,
    transform: RigidTransform,
    ray: Ray,
    radii: np.ndarray,
) -> ProjectedPath:
    """Path of one ray through radii (K,), shape (K, 3); see token_paths."""
    return token_paths(cam_q, transform, ray.direction, radii)


def segment_phasor(theta_a, theta_b) -> np.ndarray:
    """Mean of (cos, sin) over a linear phase segment, shape (..., 2).

    The mean of exp(i theta) over [a, b] is sinc((b - a) / 2) exp(i (a + b) / 2).
    This form has no cancelling difference quotient and no small-step
    branch, so its magnitude stays at most 1 up to rounding for any step.
    """
    ta = np.asarray(theta_a, dtype=float)
    tb = np.asarray(theta_b, dtype=float)
    if not (np.all(np.isfinite(ta)) and np.all(np.isfinite(tb))):
        raise ValueError("phases must be finite")
    mid = 0.5 * (ta + tb)
    damp = np.sinc((tb - ta) / (2.0 * np.pi))
    return np.stack([damp * np.cos(mid), damp * np.sin(mid)], axis=-1)


def coefficients_from_paths(path: ProjectedPath, plan: FrequencyPlan):
    """Expected coefficients from offset-ray paths, plus the fallback count.

    path has shape (..., offsets, K); the result has shape (..., D/2, 2),
    with the plan's coordinates ordered (u_bounded, v_bounded, range) per
    offset. Invalid breakpoints are dropped and segments formed from
    consecutive valid points; an offset whose path keeps fewer than two
    valid points falls back to identity coefficients (1, 0) on its channels.
    """
    *batch, num_offsets, k = path.valid.shape
    if plan.num_coordinates != 3 * num_offsets:
        raise ValueError(
            f"plan has {plan.num_coordinates} coordinates, expected {3 * num_offsets}"
        )
    # Stable sort moves the valid points to the front in path order, so
    # segment j < n_valid - 1 joins the j-th and (j+1)-th kept points.
    order = np.argsort(~path.valid, axis=-1, kind="stable")
    kept = np.take_along_axis(path.points, order[..., None], axis=-2)
    phases = np.swapaxes(kept, -1, -2)[..., None, :] * plan.frequencies[:, None]
    segments = segment_phasor(phases[..., :-1], phases[..., 1:])  # (..., offsets, 3, F, K-1, 2)
    n_seg = path.valid.sum(axis=-1) - 1
    used = np.arange(k - 1) < n_seg[..., None]
    total = np.where(used[..., None, None, :, None], segments, 0.0).sum(axis=-2)
    mean = total / np.maximum(n_seg, 1)[..., None, None, None]
    coeffs = np.where((n_seg < 1)[..., None, None, None], [1.0, 0.0], mean)
    return coeffs.reshape(*batch, plan.num_pairs, 2), int(np.count_nonzero(n_seg < 1))

