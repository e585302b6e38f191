"""Expected rotary modulation along curved projected ray paths.

A token's radial position is a uniform distribution over log radial
distance. The interval is discretized into breakpoints, lifted along the
source ray, transported to the query camera and projected; the rotary
phasor is integrated analytically over each piecewise-linear phase
segment. The resulting per-frequency (cos, sin) coefficients have
magnitude <= 1 and replace exact RoPE rotations on the key side.

The lift is ray first: token_paths rotates each ray into the query frame
once and forms the breakpoints r d + t coordinate by coordinate, so no
(..., K, 3) matrix product or norm over a length-3 axis is taken.

The segment mean sinc(h) exp(i mid), with h = (b - a) / 2 and
mid = (a + b) / 2, is evaluated in tangent half-angle form: every sine
and cosine comes from the two tangents tan(h / 2) and tan(mid / 2), and
no sin or cos is called. On an x86_64 host with AVX-512 (NumPy 2.4)
float64 np.tan is vectorised and costs 2.3-3.4 ns per value, while
np.cos and np.sin call libm at 16-35 ns per value, so two tangents per
segment replace the three libm calls of the sinc form. On a CPU where
NumPy has no SIMD tan it falls back to libm tan: two libm calls per
segment instead of three, so such a host gets no slower. The Monte-Carlo
oracle (oracle.mc_expected_phasor) takes sines of sampled phases, never
tangent half-angles, on purpose: it is the independent check of this route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import Ray, RigidTransform, UcmCamera, unproject_points
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


def clamp_interval(mu, sigma):
    """The interval clamp on arrays: (mu, sigma) with mu clipped to
    [-LOG_RANGE_BOUND, LOG_RANGE_BOUND] and |sigma| capped at
    LOG_RANGE_BOUND - |mu|, keeping sigma's sign.

    mu and sigma are scalars or arrays that broadcast together.
    """
    mu = np.minimum(np.maximum(mu, -LOG_RANGE_BOUND), LOG_RANGE_BOUND)
    return mu, np.copysign(np.minimum(np.abs(sigma), LOG_RANGE_BOUND - np.abs(mu)), sigma)


@dataclass(frozen=True)
class ProjectedPath:
    """Query-view coordinates of lifted breakpoints, batched over leading axes.

    points[..., k, :] = (u_bounded, v_bounded, range) where (u, v) lie in
    the closed unit disk by construction ((sx x, sy y) over
    sqrt((sx x)^2 + (sy y)^2 + beta^2), on the unit circle only where
    beta = 0) and range is the query-frame radial distance; valid[..., k]
    flags the visible points, beta > 0 (see UcmCamera), and a segment
    enters the phase integral when both of its breakpoints are visible. A
    valid point has positive range: range 0 puts the point at the camera
    centre, where beta = 0 marks it invalid.
    """

    points: np.ndarray
    valid: np.ndarray


def token_grid(height: int, width: int, patch_size: int) -> tuple:
    """(rows, cols) of the token grid; patch_size must divide the image."""
    if patch_size < 1 or height % patch_size != 0 or width % patch_size != 0:
        raise ValueError(f"image size {height}x{width} is not divisible by patch_size={patch_size}")
    return height // patch_size, width // patch_size


def token_rays(cam_s: UcmCamera, patch_size: int) -> np.ndarray:
    """Offset rays of every token, shape (rows * cols, 3, 3), row-major tokens.

    Each token casts three unit rays through fixed sub-patch positions
    (PATCH_OFFSETS) of its patch. Rays enter the coefficient path here, so
    this is where they are checked: finite intrinsics can still overflow
    the unprojection (fx = 1e-200 makes every ray NaN).
    """
    rows, cols = token_grid(cam_s.height, cam_s.width, patch_size)
    r, c = np.divmod(np.arange(rows * cols), cols)
    pixels = np.stack(
        [(c[:, None] + PATCH_OFFSETS[:, 0]) * patch_size, (r[:, None] + PATCH_OFFSETS[:, 1]) * patch_size],
        axis=-1,
    )
    rays = unproject_points(cam_s, pixels)
    if not np.all(np.isfinite(rays)):
        raise ValueError("the camera intrinsics give non-finite token rays")
    return rays


def breakpoints(mu, sigma, k: int) -> np.ndarray:
    """K radial distances exp(z_k) at uniformly spaced z over each interval.

    mu and sigma are scalars or arrays of one shape; the result has that
    shape plus a trailing axis of length K. Radii enter the coefficient
    path here, so this is where they are checked: finite mu and sigma give
    positive radii, non-decreasing along the trailing axis (and finite
    while |mu| + |sigma| stays below exp's overflow at about 709).
    """
    if k < 2:
        raise ValueError(f"need at least 2 breakpoints, got {k}")
    mu = np.asarray(mu, dtype=float)[..., None]
    a = np.abs(np.asarray(sigma, dtype=float))[..., None]
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(a))):
        raise ValueError("interval mu and sigma must be finite")
    return np.exp(mu - a + (np.arange(k, dtype=float) / (k - 1)) * (2.0 * a))


def token_paths(
    cam_q: UcmCamera,
    transform: RigidTransform,
    rays: np.ndarray,
    radii: np.ndarray,
) -> ProjectedPath:
    """Lift radii along source rays, move to the query frame and project.

    rays (..., 3) are unit directions and radii (..., K) broadcasts against
    them, so (tokens, offsets, 3) rays with (tokens, 1, K) radii give paths
    of shape (tokens, offsets, K). The lift is ray first: each ray is
    rotated into the query frame once, d = R ray, and the breakpoint at
    radius r is r d + t, formed per coordinate, so the rotation costs one
    small product per ray rather than one per breakpoint. A point is
    valid when it is visible, beta = z + xi |p| > 0 (see UcmCamera). The
    bounded coordinates are written guard-free, (sx x, sy y) /
    sqrt((sx x)^2 + (sy y)^2 + beta^2) with sx = fx / width and
    sy = fy / height: for beta > 0 this is (u, v) / sqrt(u^2 + v^2 + 1)
    of the projection u = sx x / beta, and it stays finite and continuous
    across beta = 0. The one point it leaves 0 / 0, x = y = beta = 0 (the
    query camera centre, and for xi = 1 the optical axis behind it), gets
    the coordinate (0, 0). The radii are taken as breakpoints makes them
    (positive, finite, non-decreasing, K >= 2) and are not checked again
    here.
    """
    r = np.asarray(radii, dtype=float)
    d = np.asarray(rays, dtype=float) @ transform.rotation.T
    t = transform.translation
    x, y, z = (r * d[..., c, None] + t[c] for c in range(3))
    rng = np.sqrt(x * x + y * y + z * z)
    beta = z + cam_q.xi * rng
    xs = (cam_q.fx / cam_q.width) * x
    ys = (cam_q.fy / cam_q.height) * y
    denom = np.sqrt(xs * xs + ys * ys + beta * beta)
    np.copyto(denom, 1.0, where=denom == 0.0)
    points = np.stack([xs / denom, ys / denom, rng], axis=-1)
    return ProjectedPath(points=points, valid=beta > 0.0)


def projected_path(
    cam_q: UcmCamera,
    transform: RigidTransform,
    ray: Ray,
    radii: np.ndarray,
) -> ProjectedPath:
    """Path of one ray through radii (K,), shape (K, 3); see token_paths."""
    return token_paths(cam_q, transform, ray.direction, radii)


def _segment_terms(psi_a: np.ndarray, psi_b: np.ndarray):
    """Tangent half-angle terms (q, 1 - u^2, u) of the segments between
    quarter phases; the segment mean sinc(h) exp(i mid) is
    (q (1 - u^2), 2 q u).

    psi = theta / 4 is an exact scaling, so d = psi_b - psi_a is exactly
    h / 2 and psi_a + psi_b exactly mid / 2. With u = tan(mid / 2) and
    w = tan(h / 2), cos(mid) = (1 - u^2) / (1 + u^2), sin(mid) =
    2u / (1 + u^2) and sinc(h) = sin(h) / h = (w / d) / (1 + w^2), so
    q = (w / d) / ((1 + w^2) (1 + u^2)). A zero step is guarded as np.sinc
    guards it (d = 1e-20 gives w / d = 1). The magnitude is
    |sin(h) / h| <= 1 up to rounding, also at the poles of tan.
    """
    u = np.add(psi_a, psi_b)
    np.tan(u, out=u)
    d = np.subtract(psi_b, psi_a)
    np.copyto(d, 1e-20, where=d == 0.0)
    q = np.tan(d)
    den = np.multiply(q, q)
    den += 1.0
    q /= d
    m = np.multiply(u, u)
    den *= 1.0 + m
    np.subtract(1.0, m, out=m)
    q /= den
    return q, m, u


def coefficients_from_paths(path: ProjectedPath, plan: FrequencyPlan):
    """Expected coefficients from offset-ray paths, plus the fallback count.

    path has shape (..., offsets, K); the result has shape (..., D/2, 2),
    with the plan's coordinates ordered (u_bounded, v_bounded, range) per
    offset. A segment counts when both of its breakpoints are valid, and
    each offset's coefficients are the mean over its counted segments; an
    offset with no such segment falls back to identity coefficients (1, 0)
    on its channels. When every breakpoint is valid the mask is skipped,
    and an all-valid offset gets the same bits either way.
    """
    *batch, num_offsets, k = path.valid.shape
    if plan.num_coordinates != 3 * num_offsets:
        raise ValueError(
            f"plan has {plan.num_coordinates} coordinates, expected {3 * num_offsets}"
        )
    if not np.all(np.isfinite(path.points)):
        raise ValueError("path points must be finite")
    psi = np.swapaxes(path.points, -1, -2)[..., None, :] * (0.25 * plan.frequencies[:, None])
    q, m, u = _segment_terms(psi[..., :-1], psi[..., 1:])  # (..., offsets, 3, F, K-1)
    used = path.valid[..., :-1] & path.valid[..., 1:]
    if not np.all(path.valid):
        q *= used[..., None, None, :]
    total = np.stack([np.vecdot(q, m), 2.0 * np.vecdot(q, u)], axis=-1)
    n_seg = np.count_nonzero(used, axis=-1)[..., None, None, None]
    coeffs = np.where(n_seg == 0, [1.0, 0.0], total / np.maximum(n_seg, 1))
    return coeffs.reshape(*batch, plan.num_pairs, 2), int(np.count_nonzero(n_seg == 0))
