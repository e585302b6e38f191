"""Seeded input files for the benchmark workloads.

Everything here is plain numpy written against the documented file
formats (trajectory JSON, RDM1 plus sidecar, config JSON), so the inputs
do not depend on the code being measured. The same seed gives the same
bytes.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

R_MAX = 20.0  # validity ceiling on metric radial values (README: filtered, never clipped)

# Clip A: token-heavy fisheye orbit with an RDM1 teacher map.
CLIP_A = {"frames": 4, "size": 128, "patch": 16, "xi": 0.9, "focal": 56.0}
# Clip B: frame-heavy pinhole pan whose late frames look away from early content.
CLIP_B = {"frames": 10, "size": 64, "patch": 16, "xi": 0.0, "focal": 48.0, "pan": 1.6}
# Both clips are exported at the criterion-3 reference K, so exported sets can
# be compared against the Monte-Carlo oracle at the criterion-3 tolerance.
CLIP_K = 129
# Channel pairs per coordinate group (the CLI default, written out).
PAIRS_PER_GROUP = 2

# verify_train: oracle-check at the criterion-3 per-config size, with only the
# config count reduced; gradcheck at a reduced sample count.
ORACLE = {"num_configs": 8, "samples": 10**6, "k_values": [2, 5, 129]}
GRADCHECK_SAMPLES = 4

# verify_train: train-head on the default synthetic scene, fewer layers and steps.
TRAIN = {"num_layers": 3, "steps": 600}


def camera_dict(spec: dict) -> dict:
    s = spec["size"]
    return {
        "fx": spec["focal"], "fy": spec["focal"], "cx": s / 2.0, "cy": s / 2.0,
        "xi": spec["xi"], "width": s, "height": s,
    }


def unproject(cam: dict, pixels: np.ndarray) -> np.ndarray:
    """Unit rays of pixel coordinates (..., 2) under the unified camera model."""
    x = (pixels[..., 0] - cam["cx"]) / cam["fx"]
    y = (pixels[..., 1] - cam["cy"]) / cam["fy"]
    xi = cam["xi"]
    rho2 = x * x + y * y
    gamma = (xi + np.sqrt(1.0 + (1.0 - xi * xi) * rho2)) / (1.0 + rho2)
    vec = np.stack([gamma * x, gamma * y, gamma - xi], axis=-1)
    return vec / np.linalg.norm(vec, axis=-1, keepdims=True)


def rot_y(phi: float) -> np.ndarray:
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def pose(rotation: np.ndarray, translation) -> np.ndarray:
    m = np.eye(4)
    m[:3, :3] = rotation
    m[:3, 3] = translation
    return m


def clip_a_poses(seed: int) -> list:
    rng = np.random.default_rng([seed, 1])
    yaw = rng.uniform(0.25, 0.35)
    step = rng.uniform(0.25, 0.35)
    n = CLIP_A["frames"]
    return [
        pose(rot_y(yaw * f / (n - 1)), [0.3 * step * f / (n - 1), 0.0, step * f / (n - 1)])
        for f in range(n)
    ]


def clip_b_poses(seed: int) -> list:
    # Sideways drift plus the pan puts some breakpoints of a path behind the
    # query camera while others stay in front, so invalid points get bridged.
    rng = np.random.default_rng([seed, 2])
    pan = CLIP_B["pan"] + rng.uniform(-0.05, 0.05)
    drift = rng.uniform(0.5, 0.7)
    n = CLIP_B["frames"]
    return [
        pose(rot_y(pan * f / (n - 1)), [drift * f / (n - 1), 0.0, 0.0]) for f in range(n)
    ]


def _scene(seed: int):
    rng = np.random.default_rng([seed, 3])
    m = 60
    centers = np.stack(
        [rng.uniform(-4, 4, m), rng.uniform(-2.5, 1.5, m), rng.uniform(2.0, 9.0, m)], axis=1
    )
    radii = rng.uniform(0.5, 0.9, m)
    # A room of axis-aligned rectangles: (axis, level, (lo, hi) on the other
    # two axes in axis order). The far wall sits partly beyond R_MAX, and the
    # half-open ceiling and the open back leave some rays without a hit.
    planes = [
        (1, 1.8, (-6.0, 6.0), (-4.0, 16.0)),
        (1, -3.0, (-6.0, 0.0), (-4.0, 16.0)),
        (0, -6.0, (-3.0, 1.8), (-4.0, 16.0)),
        (0, 6.0, (-3.0, 1.8), (-4.0, 16.0)),
        (2, 16.0, (-16.0, 16.0), (-16.0, 16.0)),
    ]
    return centers, radii, planes


def _trace(origin: np.ndarray, dirs: np.ndarray, scene) -> np.ndarray:
    centers, radii, planes = scene
    best = np.full(dirs.shape[0], np.inf)
    for axis, level, span_a, span_b in planes:
        d = dirs[:, axis]
        ok = np.abs(d) > 1e-12
        t = np.where(ok, (level - origin[axis]) / np.where(ok, d, 1.0), np.inf)
        others = [i for i in range(3) if i != axis]
        pa = origin[others[0]] + t * dirs[:, others[0]]
        pb = origin[others[1]] + t * dirs[:, others[1]]
        hit = ok & (t > 1e-9) & (pa >= span_a[0]) & (pa <= span_a[1])
        hit &= (pb >= span_b[0]) & (pb <= span_b[1])
        best = np.where(hit & (t < best), t, best)
    oc = centers - origin  # (m, 3)
    proj = dirs @ oc.T  # (n, m)
    disc = proj * proj - ((oc * oc).sum(axis=1) - radii * radii)
    root = np.sqrt(np.maximum(disc, 0.0))
    t = np.where(proj - root > 1e-9, proj - root, proj + root)
    t = np.where((disc >= 0) & (t > 1e-9), t, np.inf)
    return np.minimum(best, t.min(axis=1))


def render_clip_a(seed: int, poses: list) -> np.ndarray:
    """Radial distance per pixel, NaN where a ray hits nothing, float32."""
    cam = camera_dict(CLIP_A)
    s = CLIP_A["size"]
    jj, ii = np.meshgrid(np.arange(s), np.arange(s))
    rays = unproject(cam, np.stack([jj + 0.5, ii + 0.5], axis=-1).reshape(-1, 2))
    scene = _scene(seed)
    frames = []
    for m in poses:
        t = _trace(m[:3, 3], rays @ m[:3, :3].T, scene)
        frames.append(np.where(np.isfinite(t), t, np.nan).reshape(s, s))
    return np.stack(frames).astype("<f4")


def near_stat(values: np.ndarray) -> float:
    """Nearest-rank 5th percentile of valid metric values, floored at 0.1."""
    v = values[np.isfinite(values) & (values > 0) & (values <= R_MAX)].astype(float)
    if v.size == 0:
        return 0.1
    rank = max(1, int(np.ceil(0.05 * v.size)))
    return max(float(np.sort(v)[rank - 1]), 0.1)


def write_trajectory(path: Path, cam: dict, poses: list) -> None:
    doc = {"camera": cam, "poses": [m.tolist() for m in poses]}
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")


def write_rdm1(path: Path, values: np.ndarray, near: float) -> None:
    f, h, w = values.shape
    with open(path, "wb") as fh:
        fh.write(b"RDM1")
        fh.write(struct.pack("<III", w, h, f))
        fh.write(np.ascontiguousarray(values, dtype="<f4").tobytes())
    sidecar = {"near_stat": near, "units": "meters", "source_valid_policy": "nonfinite"}
    Path(str(path) + ".json").write_text(json.dumps(sidecar, sort_keys=True) + "\n")


def write_config(path: Path, cfg: dict) -> None:
    path.write_text(json.dumps(cfg, sort_keys=True) + "\n")


def generate(workload: str, seed: int, out: Path) -> None:
    """Write every input file of one workload into out."""
    out.mkdir(parents=True, exist_ok=True)
    if workload == "coeffs_clips":
        poses = clip_a_poses(seed)
        values = render_clip_a(seed, poses)
        write_trajectory(out / "traj_a.json", camera_dict(CLIP_A), poses)
        write_rdm1(out / "clip_a.rdm1", values, near_stat(values))
        write_config(out / "clip_a.json", {
            "trajectory": str(out / "traj_a.json"), "rdm1": str(out / "clip_a.rdm1"),
            "patch_size": CLIP_A["patch"], "k": CLIP_K, "pairs_per_group": PAIRS_PER_GROUP,
        })
        write_trajectory(out / "traj_b.json", camera_dict(CLIP_B), clip_b_poses(seed))
        write_config(out / "clip_b.json", {
            "trajectory": str(out / "traj_b.json"), "patch_size": CLIP_B["patch"], "k": CLIP_K,
            "pairs_per_group": PAIRS_PER_GROUP,
        })
    elif workload == "verify_train":
        # train-head keeps its default scene, so every seed trains on the same
        # number of tokens; the seed reaches the CLI as --seed.
        write_config(out / "verify_train.json", {
            "oracle": dict(ORACLE), "gradcheck": {"samples": GRADCHECK_SAMPLES}, "train": dict(TRAIN),
        })
    else:
        raise ValueError(f"unknown workload {workload!r}")
