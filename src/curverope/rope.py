"""Rotary positional encoding: frequency plans and coefficient application.

Coefficients are (cos, sin) pairs stored as arrays of shape (D/2, 2),
one pair per frequency slot; the block-diagonal rotation matrix is never
materialized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FrequencyPlan",
    "make_frequency_plan",
    "apply_coefficients",
]


@dataclass(frozen=True)
class FrequencyPlan:
    """Even split of (cos, sin) channel pairs over coordinates.

    Every coordinate drives the same frequency ladder on its own block of
    pairs: coordinate c owns pairs [c * F, (c + 1) * F) with F the number of
    frequencies, so pair c * F + f carries frequencies[f] times coordinate c.
    """

    num_coordinates: int
    frequencies: np.ndarray

    def __post_init__(self) -> None:
        f = np.asarray(self.frequencies, dtype=float)
        if self.num_coordinates < 1:
            raise ValueError("need at least one coordinate")
        if f.ndim != 1 or f.size == 0:
            raise ValueError("frequencies must be a non-empty 1-d array")
        if not np.all(np.isfinite(f)) or np.any(f <= 0):
            raise ValueError("frequencies must be positive finite reals")
        object.__setattr__(self, "frequencies", f)

    @property
    def num_pairs(self) -> int:
        return self.num_coordinates * self.frequencies.size

    @property
    def total_dim(self) -> int:
        return 2 * self.num_pairs


def make_frequency_plan(total_dim: int, num_coordinates: int, base: float = 10000.0) -> FrequencyPlan:
    """Split total_dim channels evenly over coordinates with a geometric
    frequency ladder base**(-2(f-1)/D_c) per coordinate."""
    if num_coordinates < 1:
        raise ValueError("need at least one coordinate")
    if total_dim <= 0 or total_dim % (2 * num_coordinates) != 0:
        raise ValueError(
            f"total_dim={total_dim} is not divisible by 2*num_coordinates={2 * num_coordinates}"
        )
    if not (np.isfinite(base) and base > 1.0):
        raise ValueError(f"frequency base must exceed 1, got {base}")
    dim_per_coord = total_dim // num_coordinates
    f = np.arange(dim_per_coord // 2, dtype=float)
    return FrequencyPlan(num_coordinates, base ** (-2.0 * f / dim_per_coord))


def apply_coefficients(vec: np.ndarray, coeffs: np.ndarray, plan: FrequencyPlan) -> np.ndarray:
    """Apply per-pair (c, s) coefficients to adjacent channel pairs of vec.

    Each pair (a, b) maps to (c*a - s*b, s*a + c*b); unit-magnitude
    coefficients rotate, smaller magnitudes shrink the pair conformally.
    """
    v = np.asarray(vec, dtype=float)
    cf = np.asarray(coeffs, dtype=float)
    if v.shape[-1] != plan.total_dim:
        raise ValueError(f"vector dim {v.shape[-1]} does not match plan dim {plan.total_dim}")
    if cf.shape[-2:] != (plan.num_pairs, 2):
        raise ValueError(f"coefficients must have shape (..., {plan.num_pairs}, 2)")
    a = v[..., 0::2]
    b = v[..., 1::2]
    c = cf[..., 0]
    s = cf[..., 1]
    out = np.empty_like(v)
    out[..., 0::2] = c * a - s * b
    out[..., 1::2] = s * a + c * b
    return out
