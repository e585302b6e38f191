"""Scheduled teacher substitution for the radial-interval pathway.

During training, valid pseudo targets stochastically replace predicted
intervals with a narrow teacher interval; the substitution probability
decays from 1.0 to a mode-dependent floor. Invalid targets never inject
teacher geometry. The same rule serves external radial maps at inference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .phasor import clamp_interval, token_grid
from .supervision import RadialMap, normalize_and_pool, validity_mask

__all__ = [
    "BLOCK_FRAME",
    "VIDEO",
    "TEACHER_SIGMA",
    "MixSchedule",
    "substitution_probability",
    "sample_mask",
    "effective_interval",
    "external_override",
    "OverrideResult",
]

BLOCK_FRAME = "block_frame"
VIDEO = "video"
_MODE_FLOORS = {BLOCK_FRAME: 0.1, VIDEO: 0.5}
# The decay window: full substitution up to _DECAY_START, the floor from
# _DECAY_END on.
_DECAY_START = 1000
_DECAY_END = 7000
# Half-width of the narrow teacher interval.
TEACHER_SIGMA = 0.1


@dataclass(frozen=True)
class MixSchedule:
    """Piecewise-linear substitution-probability schedule.

    Full substitution up to step _DECAY_START, linear decay to the floor at
    _DECAY_END, constant after. Granularity and floor follow the mode:
    block_frame draws one mask bit per frame (floor 0.1), video one bit per
    clip (floor 0.5).
    """

    mode: str

    def __post_init__(self) -> None:
        if self.mode not in _MODE_FLOORS:
            raise ValueError(f"unknown schedule mode {self.mode!r}")

    @property
    def floor(self) -> float:
        return _MODE_FLOORS[self.mode]


def substitution_probability(schedule: MixSchedule, step: int) -> float:
    """Substitution probability at a training step.

    The interpolation runs in exact rational arithmetic (treating the
    floor as its decimal value) so the schedule lands on exact decimals at
    round fractions of the decay window.
    """
    if step <= _DECAY_START:
        return 1.0
    if step >= _DECAY_END:
        return float(schedule.floor)
    t = Fraction(step - _DECAY_START, _DECAY_END - _DECAY_START)
    floor = Fraction(str(schedule.floor))
    return float(1 - t * (1 - floor))


def sample_mask(p: float, granules: int, seed) -> np.ndarray:
    """Independent Bernoulli(p) mask; deterministic under a fixed seed
    (an int or a sequence of ints)."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    if granules < 0:
        raise ValueError("granule count must be non-negative")
    rng = np.random.default_rng(seed)
    return rng.random(granules) < p


def effective_interval(
    pred_mu: np.ndarray,
    pred_sigma: np.ndarray,
    gt_normalized: np.ndarray,
    substituted: np.ndarray,
    valid: np.ndarray,
):
    """Interval grids (mu, sigma) after teacher substitution.

    All arguments broadcast together. A token takes the teacher interval
    clamp_interval(log target, TEACHER_SIGMA) iff it is substituted and
    valid, and keeps its prediction otherwise; out-of-range teachers are
    clamped into the head's log bound so the interval invariants hold
    downstream. Every valid token needs a finite positive target.
    """
    target = np.asarray(gt_normalized, dtype=float)
    valid = np.asarray(valid, dtype=bool)
    if np.any(valid & ~(np.isfinite(target) & (target > 0))):
        raise ValueError("a valid target requires a finite positive normalized value")
    take = np.asarray(substituted, dtype=bool) & valid
    t_mu, t_sigma = clamp_interval(np.log(np.where(take, target, 1.0)), TEACHER_SIGMA)
    return np.where(take, t_mu, pred_mu), np.where(take, t_sigma, pred_sigma)


@dataclass
class OverrideResult:
    """Effective interval grids and which tokens took the teacher."""

    mu: np.ndarray
    sigma: np.ndarray
    substituted: np.ndarray


def external_override(
    pred_mu: np.ndarray,
    pred_sigma: np.ndarray,
    external: RadialMap,
    near_stat: float,
) -> OverrideResult:
    """Replace predictions with teacher intervals where an external radial
    map is valid after filtering, normalization and token pooling; invalid
    or missing tokens keep the prediction."""
    pred_mu = np.asarray(pred_mu, dtype=float)
    pred_sigma = np.asarray(pred_sigma, dtype=float)
    if pred_mu.shape != pred_sigma.shape or pred_mu.ndim != 3:
        raise ValueError("prediction grids must share shape (frames, rows, cols)")
    f, ht, wt = pred_mu.shape
    ef, eh, ew = external.values.shape
    # The rows set the patch size; a map with fewer rows than the grid gets
    # patch 1, which then fails the grid test.
    patch = max(1, eh // ht)
    if ef != f or token_grid(eh, ew, patch) != (ht, wt):
        raise ValueError("external map shape is incompatible with the token grid")
    mask = validity_mask(external)
    tokens = normalize_and_pool(external, mask, near_stat, patch)
    mu, sigma = effective_interval(pred_mu, pred_sigma, tokens.targets, True, tokens.mask)
    return OverrideResult(mu=mu, sigma=sigma, substituted=tokens.mask.copy())
