"""Single-head attention branch with expected-rotary key modulation.

Keys are modulated per (query frame, key token) by expected (cos, sin)
coefficients; queries receive no rotation. The output projection starts
at zero, so the block is an exact identity at initialization and fades in
residually as it trains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rope import FrequencyPlan, apply_coefficients

__all__ = [
    "AttentionParams",
    "TokenBatch",
    "attention_forward",
]


@dataclass
class AttentionParams:
    """Projection matrices; wo must be all-zero at initialization."""

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray

    def __post_init__(self) -> None:
        d_model, d = self.wq.shape
        if self.wk.shape != (d_model, d) or self.wv.shape != (d_model, d):
            raise ValueError("wq, wk, wv must share shape (d_model, d)")
        if self.wo.shape != (d, d_model):
            raise ValueError("wo must have shape (d, d_model)")

    @property
    def d_model(self) -> int:
        return self.wq.shape[0]

    @property
    def head_dim(self) -> int:
        return self.wq.shape[1]


@dataclass(frozen=True)
class TokenBatch:
    """Rectangular grid of token features indexed by (frame, patch)."""

    features: np.ndarray

    def __post_init__(self) -> None:
        f = np.asarray(self.features, dtype=float)
        if f.ndim != 3:
            raise ValueError("features must have shape (frames, patches, d_model)")
        if not np.all(np.isfinite(f)):
            raise ValueError("features must be finite")
        object.__setattr__(self, "features", f)


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def attention_forward(
    params: AttentionParams,
    batch: TokenBatch,
    coeffs: np.ndarray,
    plan: FrequencyPlan,
) -> np.ndarray:
    """Cross-frame attention with key-side expected-rotary modulation.

    coeffs has shape (frames, frames, patches, D/2, 2), indexed by
    (query frame, key frame, key patch). Returns the feature grid with the
    residual branch added; with a zero output projection the input grid is
    returned exactly.
    """
    f, p, d_model = batch.features.shape
    d = params.head_dim
    if d_model != params.d_model:
        raise ValueError("batch feature dim does not match attention params")
    if d != plan.total_dim:
        raise ValueError("head dim must equal the frequency plan dim")
    cf = np.asarray(coeffs, dtype=float)
    if cf.shape != (f, f, p, plan.num_pairs, 2):
        raise ValueError(
            f"need one coefficient set per (query frame, key token): expected "
            f"{(f, f, p, plan.num_pairs, 2)}, got {cf.shape}"
        )

    feats = batch.features
    q = feats @ params.wq
    k = feats @ params.wk
    v = (feats @ params.wv).reshape(f * p, d)
    out = np.empty_like(feats)
    scale = 1.0 / np.sqrt(d)
    for qf in range(f):
        k_mod = apply_coefficients(k, cf[qf], plan).reshape(f * p, d)
        logits = (q[qf] @ k_mod.T) * scale
        attn = _softmax_rows(logits)
        out[qf] = feats[qf] + (attn @ v) @ params.wo
    return out
