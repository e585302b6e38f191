"""Output checks on what the program writes and returns.

The Monte-Carlo reference for exported coefficient sets is built from
``curverope.oracle.mc_expected_phasor`` (exact per-sample projection), fed
plain namespaces rather than the program's geometry classes, and the set
geometry (rays, relative poses, intervals) is derived here from the input
files' documented semantics. Nothing is taken from ``curverope.phasor``,
so the check stays valid when that module is rewritten.
"""

from __future__ import annotations

import csv
import hashlib
import json
import struct
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import inputs

COEFFS_MAGIC = b"MCF1"
# Sub-patch positions of a token's three offset rays; coefficient channels are
# grouped per offset ray as (u_bounded, v_bounded, range).
PATCH_OFFSETS = ((0.5, 0.5), (0.25, 0.25), (0.75, 0.75))
NUM_COORDINATES = 3 * len(PATCH_OFFSETS)
FREQ_BASE = 10000.0
# Criterion 3: 1e6 samples, max component error 5e-3 against the reference K.
MC_SAMPLES = 10**6
MC_TOLERANCE = 5e-3
# Magnitudes are checked on the float32 export; allow one float32 rounding.
F32_SLACK = float(np.finfo(np.float32).eps)
TEACHER_SIGMA = 0.1
LOG_RANGE_BOUND = 3.0
BROAD_INTERVAL = (0.0, 3.0)


def digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_coeffs(path: Path) -> np.ndarray:
    """coeffs.bin as float64, shape (frames, frames, rows*cols, pairs, 2)."""
    data = Path(path).read_bytes()
    if data[:4] != COEFFS_MAGIC:
        raise ValueError("coeffs.bin has a bad magic")
    fq, fs, rows, cols, pairs = struct.unpack_from("<IIIII", data, 4)
    arr = np.frombuffer(data, dtype="<f4", offset=24)
    return arr.reshape(fq, fs, rows * cols, pairs, 2).astype(float)


def coeffs_problem(out: Path, coeffs: np.ndarray) -> str | None:
    """Why an export breaks the magnitude bound, or None when it holds.

    Every exported magnitude must be <= 1 within float32 rounding, and the
    program's own float64 bound check in the summary (squared magnitude at
    most 1 + 1e-12, the criterion-4 tolerance) must hold.
    """
    summary = json.loads((out / "coeffs_summary.json").read_text())
    mags = np.sqrt((coeffs**2).sum(axis=-1))
    if not np.all(np.isfinite(coeffs)):
        return "coeffs.bin holds non-finite values"
    if list(summary["shape"]) != list(coeffs.shape):
        return f"summary shape {summary['shape']} != coeffs.bin shape {list(coeffs.shape)}"
    if float(mags.max()) > 1.0 + F32_SLACK:
        return f"coeffs.bin magnitude 1 + {float(mags.max()) - 1.0:.3e} exceeds float32 rounding"
    if summary["magnitude_bound_ok"] is not True or summary["max_magnitude"] > 1.0 + 1e-12:
        return (f"summary max_magnitude 1 + {summary['max_magnitude'] - 1.0:.3e}, "
                f"magnitude_bound_ok {summary['magnitude_bound_ok']}")
    return None


def csv_column(path: Path, column: str) -> list:
    """One column of a CLI CSV output, skipping its config-hash comment line."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    col = rows[0].index(column)
    return [r[col] for r in rows[1:]]


def teacher_intervals(rdm1: Path, patch: int) -> tuple[np.ndarray, np.ndarray]:
    """(mu, sigma) per (frame, row, col) token, per the README's RDM1 rule.

    Valid pixels (finite, positive, at most R_MAX) are normalized by the
    sidecar's near_stat and mean-pooled; a token with at least half of its
    pixels valid takes the clamped teacher interval, the rest keep the
    freshly initialized head interval (0, 3).
    """
    data = Path(rdm1).read_bytes()
    w, h, f = struct.unpack_from("<III", data, 4)
    v = np.frombuffer(data, dtype="<f4", offset=16).reshape(f, h, w).astype(float)
    near = float(json.loads(Path(str(rdm1) + ".json").read_text())["near_stat"])
    safe = np.where(np.isfinite(v), v, 0.0)
    ok = np.isfinite(v) & (safe > 0) & (safe <= inputs.R_MAX)
    ht, wt = h // patch, w // patch
    sums = np.where(ok, v, 0.0).reshape(f, ht, patch, wt, patch).sum(axis=(2, 4))
    counts = ok.reshape(f, ht, patch, wt, patch).sum(axis=(2, 4))
    token = (2 * counts >= patch * patch) & (counts > 0)
    t = np.where(token, sums / (np.maximum(counts, 1) * near), 1.0)
    t_mu = np.clip(np.log(t), -LOG_RANGE_BOUND, LOG_RANGE_BOUND)
    t_sigma = np.minimum(TEACHER_SIGMA, LOG_RANGE_BOUND - np.abs(t_mu))
    mu = np.where(token, t_mu, BROAD_INTERVAL[0])
    sigma = np.where(token, t_sigma, BROAD_INTERVAL[1])
    return mu, sigma


class Clip:
    """Geometry of one exported clip, rebuilt from its input files."""

    def __init__(self, trajectory: Path, patch: int, rdm1: Path | None):
        doc = json.loads(Path(trajectory).read_text())
        self.cam = doc["camera"]
        self.poses = [np.asarray(m, dtype=float) for m in doc["poses"]]
        self.patch = patch
        self.rows = self.cam["height"] // patch
        self.cols = self.cam["width"] // patch
        shape = (len(self.poses), self.rows, self.cols)
        if rdm1 is None:
            self.mu = np.full(shape, BROAD_INTERVAL[0])
            self.sigma = np.full(shape, BROAD_INTERVAL[1])
        else:
            self.mu, self.sigma = teacher_intervals(rdm1, patch)

    def rays(self, token: int) -> np.ndarray:
        r, c = divmod(token, self.cols)
        px = np.array([[(c + ox) * self.patch, (r + oy) * self.patch] for ox, oy in PATCH_OFFSETS])
        return inputs.unproject(self.cam, px)

    def relative(self, qf: int, sf: int):
        """Rotation and translation from source-camera into query-camera coordinates."""
        q, s = self.poses[qf], self.poses[sf]
        rot = q[:3, :3].T @ s[:3, :3]
        return rot, q[:3, :3].T @ (s[:3, 3] - q[:3, 3])

    def benign(self, qf: int, sf: int, token: int) -> bool:
        """Whole interval in front of the query camera with margin, on a fine grid.

        The Monte-Carlo route has no invalid-point bridging, so only sets whose
        paths are valid everywhere have a Monte-Carlo reference.
        """
        r, c = divmod(token, self.cols)
        mu, a = self.mu[sf, r, c], abs(self.sigma[sf, r, c])
        radii = np.exp(np.linspace(mu - a, mu + a, 257))
        rot, t = self.relative(qf, sf)
        pts = (radii[None, :, None] * self.rays(token)[:, None, :]) @ rot.T + t
        beta = pts[..., 2] + self.cam["xi"] * np.linalg.norm(pts, axis=-1)
        return bool(np.min(beta) > 1e-3)


def pick_set(clip: Clip, rng: np.random.Generator, tries: int = 1000):
    frames = len(clip.poses)
    for _ in range(tries):
        qf, sf = (int(x) for x in rng.integers(0, frames, 2))
        token = int(rng.integers(0, clip.rows * clip.cols))
        if clip.benign(qf, sf, token):
            return qf, sf, token
    return None


def mc_set_error(clip: Clip, exported: np.ndarray, qf: int, sf: int, token: int,
                 rng: np.random.Generator) -> float:
    """Max component error of one exported set against the Monte-Carlo oracle."""
    from curverope.oracle import mc_expected_phasor

    num_pairs = exported.shape[0]
    per_coord = num_pairs // NUM_COORDINATES
    dim = 2 * per_coord
    freqs = FREQ_BASE ** (-2.0 * np.arange(per_coord) / dim)
    r, c = divmod(token, clip.cols)
    rot, t = clip.relative(qf, sf)
    setup = SimpleNamespace(
        cam_q=SimpleNamespace(**clip.cam),
        transform=SimpleNamespace(rotation=rot, translation=t),
        interval=SimpleNamespace(mu=float(clip.mu[sf, r, c]), sigma=float(clip.sigma[sf, r, c])),
    )
    worst = 0.0
    for a, direction in enumerate(clip.rays(token)):
        setup.ray = SimpleNamespace(direction=direction)
        for fi, omega in enumerate(freqs):
            setup.omega = float(omega)
            mc = mc_expected_phasor(setup, MC_SAMPLES, rng)  # (3 coordinates, 2)
            pairs = [(3 * a + j) * per_coord + fi for j in range(3)]
            worst = max(worst, float(np.max(np.abs(exported[pairs] - mc))))
    return worst


def attention_reference(feats, wq, wk, wv, wo, coeffs) -> np.ndarray:
    """Cross-frame attention with key-side pair modulation, written out directly."""
    f, p, _ = feats.shape
    d = wq.shape[1]
    q, k, v = feats @ wq, feats @ wk, (feats @ wv).reshape(f * p, d)
    out = np.empty_like(feats)
    for qf in range(f):
        c, s = coeffs[qf, ..., 0], coeffs[qf, ..., 1]
        a, b = k[..., 0::2], k[..., 1::2]
        km = np.empty_like(k)
        km[..., 0::2] = c * a - s * b
        km[..., 1::2] = s * a + c * b
        logits = q[qf] @ km.reshape(f * p, d).T / np.sqrt(d)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        out[qf] = feats[qf] + (e / e.sum(axis=1, keepdims=True)) @ v @ wo
    return out


def csv_floats_finite(path: Path, column: str) -> bool:
    vals = np.array([float(v) for v in csv_column(path, column)])
    return vals.size > 0 and bool(np.all(np.isfinite(vals)))
