"""Deterministic synthetic scenes: analytic ray-traced radial maps along
simple trajectories, plus layer-indexed token features with a recoverable
depth signal for probing demos.

Primitives are intersected analytically (axis-aligned planes, spheres) so
rendered radial values are exact and reprojection tests can use tight
tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import RigidTransform, UcmCamera, unproject_points
from .supervision import RadialMap, TokenTargets

__all__ = [
    "SCENE_KINDS",
    "MOTIONS",
    "SceneSpec",
    "TrajectorySpec",
    "make_trajectory",
    "render_radial_map",
    "render_clip",
    "depth_signal_weight",
    "make_layer_features",
]

SCENE_KINDS = ("point_cloud", "fronto_plane", "two_planes")
MOTIONS = ("orbit", "dolly", "pan")
# Orbit trajectories pivot about a point this far ahead of the first camera.
ORBIT_PIVOT_DISTANCE = 4.0
_HIT_EPS = 1e-9
# Sphere hits are evaluated for this many rays at a time, so the (rays,
# spheres) work arrays stay near 0.6 MB each at 300 spheres instead of
# growing with the image.
_RAYS_PER_BLOCK = 256


@dataclass(frozen=True)
class SceneSpec:
    kind: str
    extent: float
    num_points: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in SCENE_KINDS:
            raise ValueError(f"unknown scene kind {self.kind!r}")
        if not 0 < self.extent < np.inf:
            raise ValueError(f"extent must be finite and positive, got {self.extent}")
        if self.num_points < 1:
            raise ValueError("num_points must be >= 1")


@dataclass(frozen=True)
class TrajectorySpec:
    frames: int
    motion: str
    amplitude: float
    camera: UcmCamera

    def __post_init__(self) -> None:
        if self.frames < 1:
            raise ValueError("frames must be >= 1")
        if self.motion not in MOTIONS:
            raise ValueError(f"unknown motion {self.motion!r}")


def _rot_y(phi: float) -> np.ndarray:
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def make_trajectory(spec: TrajectorySpec) -> list:
    """Camera-to-world poses; frame 0 is always the identity pose."""
    poses = []
    for f in range(spec.frames):
        t = 0.0 if spec.frames == 1 else f / (spec.frames - 1)
        if spec.motion == "dolly":
            poses.append(RigidTransform(np.eye(3), np.array([0.0, 0.0, spec.amplitude * t])))
        elif spec.motion == "pan":
            poses.append(RigidTransform(_rot_y(spec.amplitude * t), np.zeros(3)))
        else:  # orbit about the pivot point ahead of the first camera
            phi = spec.amplitude * t
            pivot = np.array([0.0, 0.0, ORBIT_PIVOT_DISTANCE])
            pos = pivot - ORBIT_PIVOT_DISTANCE * np.array([np.sin(phi), 0.0, np.cos(phi)])
            poses.append(RigidTransform(_rot_y(phi), pos))
    return poses


def _scene_planes(spec: SceneSpec) -> list:
    # (z, x_min, x_max, y_min, y_max) axis-aligned rectangles.
    e = spec.extent
    if spec.kind == "fronto_plane":
        return [(e, -2 * e, 2 * e, -2 * e, 2 * e)]
    if spec.kind == "two_planes":
        return [(e, -2 * e, 0.0, -2 * e, 2 * e), (2 * e, -4 * e, 4 * e, -4 * e, 4 * e)]
    return []


def _scene_spheres(spec: SceneSpec):
    if spec.kind != "point_cloud":
        return np.zeros((0, 3)), 0.0
    rng = np.random.default_rng(spec.seed)
    e = spec.extent
    centers = np.stack(
        [
            rng.uniform(-e, e, spec.num_points),
            rng.uniform(-e, e, spec.num_points),
            rng.uniform(e, 5 * e, spec.num_points),
        ],
        axis=1,
    )
    return centers, 0.12 * e


def _intersect(spec: SceneSpec, origin: np.ndarray, dirs: np.ndarray):
    """Nearest positive hit distance per ray from one origin; inf where nothing is hit."""
    n = dirs.shape[0]
    best = np.full(n, np.inf)
    for z0, x_min, x_max, y_min, y_max in _scene_planes(spec):
        dz = dirs[:, 2]
        ok = np.abs(dz) > 1e-12
        t = np.where(ok, (z0 - origin[2]) / np.where(ok, dz, 1.0), np.inf)
        hit_x = origin[0] + t * dirs[:, 0]
        hit_y = origin[1] + t * dirs[:, 1]
        inside = (
            ok
            & (t > _HIT_EPS)
            & (hit_x >= x_min)
            & (hit_x <= x_max)
            & (hit_y >= y_min)
            & (hit_y <= y_max)
        )
        best = np.where(inside & (t < best), t, best)
    centers, radius = _scene_spheres(spec)
    m = centers.shape[0]
    if m:
        oc = centers - origin  # (m, 3): every ray shares the origin
        cc = np.einsum("mk,mk->m", oc, oc) - radius * radius
        for start in range(0, n, _RAYS_PER_BLOCK):
            rows = slice(start, start + _RAYS_PER_BLOCK)
            d = dirs[rows]
            # einsum over a broadcast view sums each product in the same
            # order as over a dense (rays, spheres, 3) array, so hits stay
            # bit-identical; a BLAS matmul rounds differently.
            proj = np.einsum("nmk,nk->nm", np.broadcast_to(oc, (d.shape[0], m, 3)), d)
            disc = proj * proj - cc
            # Few ray-sphere pairs meet, so the roots are taken at the hits
            # only; a minimum is exact in any order.
            ray, sphere = np.nonzero(disc >= 0)
            p = proj[ray, sphere]
            root = np.sqrt(disc[ray, sphere])
            t_near = p - root
            t = np.where(t_near > _HIT_EPS, t_near, p + root)
            ahead = t > _HIT_EPS
            np.minimum.at(best, start + ray[ahead], t[ahead])
    return best


def render_radial_map(spec: SceneSpec, pose: RigidTransform, cam: UcmCamera):
    """Radial distance of the nearest intersection per pixel.

    Returns (values, valid) arrays of shape (height, width); pixels whose
    rays miss all geometry are invalid (value NaN).
    """
    jj, ii = np.meshgrid(np.arange(cam.width), np.arange(cam.height))
    pixels = np.stack([jj + 0.5, ii + 0.5], axis=-1).reshape(-1, 2)
    dirs_world = unproject_points(cam, pixels) @ pose.rotation.T
    t = _intersect(spec, pose.translation, dirs_world)
    valid = np.isfinite(t)
    values = np.where(valid, t, np.nan)
    return values.reshape(cam.height, cam.width), valid.reshape(cam.height, cam.width)


def render_clip(spec: SceneSpec, poses, cam: UcmCamera) -> RadialMap:
    """Render one radial-map frame per pose."""
    values, valid = [], []
    for pose in poses:
        v, m = render_radial_map(spec, pose, cam)
        values.append(v)
        valid.append(m)
    return RadialMap(values=np.stack(values), source_valid=np.stack(valid))


def depth_signal_weight(layer_index: int, num_layers: int) -> float:
    """Gaussian hump over the layer stack, peaking mid-stack."""
    if not (0 <= layer_index < num_layers):
        raise ValueError(f"layer_index {layer_index} outside [0, {num_layers})")
    center = (num_layers - 1) / 2.0
    width = max(num_layers / 8.0, 1.0)
    return float(np.exp(-0.5 * ((layer_index - center) / width) ** 2))


def make_layer_features(
    targets: TokenTargets,
    layer_index: int,
    num_layers: int,
    d_model: int,
    seed: int,
    noise_scale: float = 0.1,
) -> np.ndarray:
    """Token features (frames, patches, d_model) carrying a layer-dependent amount of depth signal.

    Features are a frozen random affine mix of the standardized log radial
    target, positional sinusoids and per-layer noise. The depth-signal
    weight is depth_signal_weight(layer_index, num_layers), a hump profile
    so mid-stack layers expose the most recoverable signal; the mixing
    directions are shared across layers.
    """
    w = depth_signal_weight(layer_index, num_layers)
    f, ht, wt = targets.targets.shape
    n = f * ht * wt
    flat_mask = targets.mask.reshape(n)
    signal = np.zeros(n)
    if flat_mask.any():
        logs = np.log(targets.targets.reshape(n)[flat_mask])
        std = logs.std()
        signal[flat_mask] = (logs - logs.mean()) / max(std, 1e-9)

    fr, rr, cc = np.meshgrid(np.arange(f), np.arange(ht), np.arange(wt), indexing="ij")
    rr = rr.reshape(n) / ht
    cc = cc.reshape(n) / wt
    fr = fr.reshape(n) / max(f, 1)
    two_pi = 2.0 * np.pi
    pos = np.stack(
        [
            np.sin(two_pi * rr), np.cos(two_pi * rr),
            np.sin(two_pi * cc), np.cos(two_pi * cc),
            np.sin(two_pi * 2 * rr), np.cos(two_pi * 2 * cc),
            fr,
        ],
        axis=1,
    )

    mix_rng = np.random.default_rng([seed, 1013])
    u = mix_rng.standard_normal(d_model)
    u /= np.linalg.norm(u)
    b = mix_rng.normal(0.0, 0.15, size=(pos.shape[1], d_model))
    noise_rng = np.random.default_rng([seed, layer_index])
    eps = noise_rng.standard_normal((n, d_model))
    feats = w * signal[:, None] * u[None, :] + pos @ b + noise_scale * eps
    return feats.reshape(f, ht * wt, d_model)
