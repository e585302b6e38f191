"""Deterministic synthetic scenes: analytic ray-traced radial maps of a
sphere cloud along a dolly trajectory, plus layer-indexed token features
with a recoverable depth signal for probing demos.

Spheres are intersected analytically, so rendered radial values are exact
and reprojection tests can use tight tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import RigidTransform, UcmCamera, unproject_points
from .supervision import RadialMap, TokenTargets

__all__ = [
    "SceneSpec",
    "make_trajectory",
    "render_radial_map",
    "render_clip",
    "depth_signal_weight",
    "make_layer_features",
]

_HIT_EPS = 1e-9
# Sphere hits are evaluated for this many rays at a time, so no (pixels,
# spheres) array exists. Against train-head's 300 spheres a (rays, spheres)
# float64 array of a block is then 150 KiB, near glibc's 128 KiB mmap
# threshold and within L2. A sweep of 32 to 256 rays on that scene
# (BENCH_train_workspace.json) rendered fastest at 64 to 96 rays, and about
# 30% slower at 256 rays; the rendered bytes do not depend on the size.
_RAYS_PER_BLOCK = 64
# Scale of the per-layer noise in make_layer_features.
_FEATURE_NOISE = 0.2


@dataclass(frozen=True)
class SceneSpec:
    """A cloud of num_points spheres of radius 0.12 extent, their centres
    drawn in [-extent, extent]^2 x [extent, 5 extent] from seed."""

    extent: float
    num_points: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.extent < np.inf:
            raise ValueError(f"extent must be finite and positive, got {self.extent}")
        if self.num_points < 1:
            raise ValueError("num_points must be >= 1")


def make_trajectory(frames: int, amplitude: float) -> list:
    """Camera-to-world poses of a dolly that advances amplitude along +Z;
    frame 0 is always the identity pose."""
    if frames < 1:
        raise ValueError("frames must be >= 1")
    poses = []
    for f in range(frames):
        t = 0.0 if frames == 1 else f / (frames - 1)
        poses.append(RigidTransform(np.eye(3), np.array([0.0, 0.0, amplitude * t])))
    return poses


def _scene_spheres(spec: SceneSpec):
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
    centers, radius = _scene_spheres(spec)
    m = centers.shape[0]
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
        # only; a minimum is exact in any order. The flat indices of the
        # hits split into the (ray, sphere) pairs of np.nonzero, in the
        # same C order, at a fraction of its cost.
        hit = np.flatnonzero(disc >= 0)
        ray = hit // m
        p = proj.reshape(-1)[hit]
        root = np.sqrt(disc.reshape(-1)[hit])
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
    num_layers: int,
    d_model: int,
    seed: int,
) -> np.ndarray:
    """Token features (num_layers, N, d_model) of every layer slot, for the
    N = frames * patches tokens in grid order, each slot carrying a
    layer-dependent amount of depth signal.

    Features are a frozen random affine mix of the standardized log radial
    target, positional sinusoids and per-layer noise. The depth-signal
    weight of slot i is depth_signal_weight(i, num_layers), a hump profile
    so mid-stack layers expose the most recoverable signal; the signal,
    the positional term and the mixing directions are shared across layers.
    """
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
    w = np.array([depth_signal_weight(layer, num_layers) for layer in range(num_layers)])
    eps = np.stack([
        np.random.default_rng([seed, layer]).standard_normal((n, d_model)) for layer in range(num_layers)
    ])
    return (w[:, None] * signal)[:, :, None] * u + pos @ b + _FEATURE_NOISE * eps
