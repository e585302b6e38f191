"""Radial-distance supervision: validity filtering, per-clip normalization,
token pooling and the uncertainty-weighted loss.

Metric pseudo targets are filtered (never clipped) before normalization:
non-finite, non-positive, source-invalid or beyond-range values are
treated as unknown. Valid pixels are divided by a per-clip near-distance
statistic and mean-pooled onto the token grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .phasor import token_grid

__all__ = [
    "NEAR_STAT_FLOOR",
    "RadialMap",
    "TokenTargets",
    "S_FLOOR_VAR",
    "S_CEILING",
    "RadialLossResult",
    "validity_mask",
    "near_distance_stat",
    "normalize_and_pool",
    "uncertainty_scale",
    "radial_loss",
]

NEAR_STAT_FLOOR = 0.1
# Metric radial values above this are excluded, never clipped.
_R_MAX = 20.0
# Floor on the variance and ceiling on the uncertainty scale s; the floor
# gives s = sqrt(1e-6), which is exactly 1e-3 in float64.
S_FLOOR_VAR = 1e-6
S_CEILING = 10.0
_SQRT3 = np.sqrt(3.0)


@dataclass(frozen=True)
class RadialMap:
    """Per-frame pixel grid of metric radial distances with validity flags."""

    values: np.ndarray
    source_valid: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        m = np.asarray(self.source_valid, dtype=bool)
        if v.ndim != 3:
            raise ValueError("radial map values must have shape (frames, height, width)")
        if m.shape != v.shape:
            raise ValueError("validity mask shape must match values")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "source_valid", m)

    @property
    def frames(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class TokenTargets:
    """Normalized radial targets pooled to the token grid; ``mask`` marks
    the valid tokens, the only ones whose targets count."""

    targets: np.ndarray
    mask: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.targets, dtype=float)
        m = np.asarray(self.mask, dtype=bool)
        if t.shape != m.shape:
            raise ValueError("target and mask shapes must match")
        if np.any(m & ~(np.isfinite(t) & (t > 0))):
            raise ValueError("masked-in targets must be finite and positive")
        object.__setattr__(self, "targets", t)
        object.__setattr__(self, "mask", m)


@dataclass
class RadialLossResult:
    """``loss`` is a float, or one loss per slot of a leading stack axis."""

    loss: float | np.ndarray
    grad_mu: np.ndarray
    grad_sigma: np.ndarray


def validity_mask(radial_map: RadialMap) -> np.ndarray:
    """True where the source flag holds and the value is finite, positive
    and at most 20 (_R_MAX). Values above it are excluded, never clipped."""
    v = radial_map.values
    finite = np.isfinite(v)
    safe = np.where(finite, v, 0.0)
    return radial_map.source_valid & finite & (safe > 0.0) & (safe <= _R_MAX)


def near_distance_stat(radial_map: RadialMap, mask: np.ndarray) -> float:
    """Nearest-rank 5th percentile of valid metric values, floored at 0.1 m."""
    vals = radial_map.values[np.asarray(mask, dtype=bool)]
    if vals.size == 0:
        return NEAR_STAT_FLOOR
    rank = max(1, int(np.ceil(0.05 * vals.size)))
    stat = float(np.sort(vals)[rank - 1])
    return max(stat, NEAR_STAT_FLOOR)


def normalize_and_pool(
    radial_map: RadialMap,
    mask: np.ndarray,
    near_stat: float,
    patch_size: int,
) -> TokenTargets:
    """Mean-pool normalized valid pixels onto the token grid.

    A token is valid when at least half of its patch pixels are valid.
    """
    f, h, w = radial_map.values.shape
    ht, wt = token_grid(h, w, patch_size)
    if not (np.isfinite(near_stat) and near_stat >= NEAR_STAT_FLOOR):
        raise ValueError(f"near_stat must be finite and >= {NEAR_STAT_FLOOR}, got {near_stat}")
    m = np.asarray(mask, dtype=bool)
    if m.shape != radial_map.values.shape:
        raise ValueError("mask shape must match the radial map")
    vals = np.where(m, radial_map.values, 0.0)
    vals = vals.reshape(f, ht, patch_size, wt, patch_size).sum(axis=(2, 4))
    counts = m.reshape(f, ht, patch_size, wt, patch_size).sum(axis=(2, 4))
    token_mask = 2 * counts >= patch_size * patch_size
    token_mask &= counts > 0
    targets = np.where(token_mask, vals / (np.maximum(counts, 1) * near_stat), 0.0)
    return TokenTargets(targets=targets, mask=token_mask)


def uncertainty_scale(mu: np.ndarray, sigma: np.ndarray):
    """Uncertainty scale s per token plus flat-region flags.

    s is the standard deviation of a uniform distribution over
    [exp(mu-|sigma|), exp(mu+|sigma|)], floored via max(Var, S_FLOOR_VAR)
    and capped at S_CEILING. Returns (s, floored, ceiled).
    """
    return _scale(mu, np.abs(sigma))


def _scale(mu: np.ndarray, a: np.ndarray):
    """``uncertainty_scale`` from the half-width ``a`` = |sigma|."""
    spread = np.exp(mu + a) - np.exp(mu - a)
    var = spread * spread / 12.0
    floored = var <= S_FLOOR_VAR
    root = np.sqrt(np.maximum(var, S_FLOOR_VAR))
    ceiled = root >= S_CEILING
    return np.minimum(root, S_CEILING), floored, ceiled


def radial_loss(mu: np.ndarray, sigma: np.ndarray, targets: np.ndarray) -> RadialLossResult:
    """Mean over the N valid targets (N,) of |exp(mu) - target| / s +
    alpha * log s with alpha = 1, with exact gradients for mu and sigma per
    token.

    ``mu`` and ``sigma`` are (N,), or (L, N) for L stacked slots, which gives
    one loss per slot. The absolute value takes subgradient 0 at ties; the
    floor and ceiling of s are flat regions.
    """
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if targets.ndim != 1 or targets.size == 0:
        raise ValueError(f"need a non-empty (N,) array of valid targets, got shape {targets.shape}")
    if mu.ndim not in (1, 2) or mu.shape[-1:] != targets.shape or sigma.shape != mu.shape:
        raise ValueError("intervals must be (N,) or (L, N) for N targets")
    n = targets.size

    r = np.exp(mu)
    diff = r - targets
    adiff = np.abs(diff)
    a = np.abs(sigma)
    s, floored, ceiled = _scale(mu, a)
    active = ~(floored | ceiled)

    loss = np.add.reduce(adiff / s + np.log(s), axis=-1) / n
    if mu.ndim == 1:
        loss = float(loss)

    # Active region: s = exp(mu) sinh|sigma| / sqrt(3), so ds/dmu = s and
    # ds/dsigma = exp(mu) cosh|sigma| / sqrt(3) * sign(sigma).
    dl_ds = 1.0 / s - adiff / (s * s)
    g_mu = np.sign(diff) * r / s + np.where(active, dl_ds * s, 0.0)
    ds_dsigma = r * np.cosh(a) / _SQRT3 * np.sign(sigma)
    g_sigma = np.where(active, dl_ds * ds_dsigma, 0.0)
    return RadialLossResult(loss, g_mu / n, g_sigma / n)
