"""Per-token head predicting a clamped log radial-distance interval.

Architecture: layer norm -> linear -> SiLU -> linear -> (mu, sigma),
then mu is clipped to [-3, 3] and |sigma| capped so the interval fits.
The final layer starts at zero weights with bias (0, 3), so every input
maps to the broad interval (mu=0, sigma=3) at initialization. Forward and
backward are implemented directly so gradients stay exact and checkable
against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .phasor import LOG_RANGE_BOUND, clamp_interval

__all__ = [
    "LN_EPS",
    "HeadParams",
    "hidden_width",
    "head_init",
    "head_layer_norm",
    "head_forward_normalized",
    "head_forward",
    "head_backward",
    "head_feature_gradient",
]

LN_EPS = 1e-5


@dataclass
class HeadParams:
    """Head parameters, or their gradients; field order defines the checkpoint layout."""

    norm_scale: np.ndarray
    norm_bias: np.ndarray
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def field_arrays(self):
        return [(f.name, getattr(self, f.name)) for f in fields(self)]


def hidden_width(d_model: int) -> int:
    return max(16, d_model // 4)


def head_init(d_model: int, seed: int) -> HeadParams:
    """Seeded init: uniform fan-in first layer, zero final layer, bias (0, 3)."""
    if d_model < 1:
        raise ValueError("d_model must be >= 1")
    rng = np.random.default_rng(seed)
    h = hidden_width(d_model)
    bound = 1.0 / np.sqrt(d_model)
    return HeadParams(
        norm_scale=np.ones(d_model),
        norm_bias=np.zeros(d_model),
        w1=rng.uniform(-bound, bound, size=(d_model, h)),
        b1=rng.uniform(-bound, bound, size=h),
        w2=np.zeros((h, 2)),
        b2=np.array([0.0, LOG_RANGE_BOUND]),
    )


def _into(w: dict, name: str, ufunc, *args) -> np.ndarray:
    """``ufunc(*args)`` written into ``w[name]``, which the first call allocates."""
    result = w[name] = ufunc(*args, out=w.get(name))
    return result


def _add_over_tokens(a: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """``a + bias`` with the token axis -2 given to ``bias``, in place unless
    stacked copies of ``bias`` alone broadcast the sum to a larger shape."""
    b = bias[..., None, :]
    if np.broadcast(a, b).shape == a.shape:
        return np.add(a, b, out=a)
    return a + b


def _sigmoid(u: np.ndarray, w: dict) -> np.ndarray:
    # exp(-|u|) never overflows. The stable form is 1 / (1 + e) for u >= 0
    # and e / (1 + e) below, with e = exp(-|u|) <= 1, so its numerator is
    # max(e, u >= 0) and one quotient gives both branches. e and then the
    # quotient are written into the same array.
    sig = _into(w, "sig", np.abs, u)
    np.negative(sig, out=sig)
    np.exp(sig, out=sig)
    d = _into(w, "sig_d", np.add, 1.0, sig)
    np.maximum(sig, u >= 0, out=sig)
    return np.divide(sig, d, out=sig)


def head_layer_norm(x: np.ndarray):
    """Layer-norm statistics of features ``x`` (..., d_model): ``(std, xhat)``.

    ``xhat`` is ``x`` standardised over its last axis; it depends on the
    features only, so fixed features need it once.
    """
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    std = np.sqrt(var + LN_EPS)
    return std, (x - mean) / std


def head_forward_normalized(params: HeadParams, xhat: np.ndarray, work: dict | None = None) -> dict:
    """Forward pass from standardised features ``xhat`` (..., N, d_model)
    (see ``head_layer_norm``).

    Returns the intermediates the parameter gradients need; the outputs are
    ``cache["mu"]`` and ``cache["sigma"]``, (..., N). Parameter arrays may
    carry extra leading axes, a stack of heads that broadcasts against the
    leading axes of ``xhat``; the 1-D fields get their token axis here.

    ``work`` is an optional dict that the caller keeps across calls of the
    same shapes: the (..., N, d_model), (..., N, hidden) and (..., N, 2)
    intermediates are then written into arrays kept there, allocated on the
    first call, and the cache holds until the next call with that dict.
    """
    w = {} if work is None else work
    y = _add_over_tokens(_into(w, "y", np.multiply, xhat, params.norm_scale[..., None, :]), params.norm_bias)
    u = _add_over_tokens(_into(w, "u", np.matmul, y, params.w1), params.b1)
    sig = _sigmoid(u, w)
    h = _into(w, "h", np.multiply, u, sig)
    raw = _add_over_tokens(_into(w, "raw", np.matmul, h, params.w2), params.b2)
    mu_raw = raw[..., 0]
    sigma_raw = raw[..., 1]
    mu, sigma = clamp_interval(mu_raw, sigma_raw)
    return {
        "xhat": xhat, "y": y, "u": u, "sig": sig, "h": h,
        "sigma_raw": sigma_raw, "mu": mu, "sigma": sigma,
        "mu_active": np.abs(mu_raw) <= LOG_RANGE_BOUND,
        "sigma_active": np.abs(sigma_raw) <= LOG_RANGE_BOUND - np.abs(mu),
    }


def head_forward(params: HeadParams, x: np.ndarray) -> dict:
    """Forward pass over finite features ``x`` (..., N, d_model).

    The cache of ``head_forward_normalized`` plus ``std``, which the
    feature gradient needs. The width is checked against
    ``params.norm_scale.shape[-1]``, so stacked parameter copies pass.
    """
    x = np.asarray(x, dtype=float)
    d_model = params.norm_scale.shape[-1]
    if x.ndim < 2 or x.shape[-1] != d_model:
        raise ValueError(f"feature shape {x.shape} is not (..., N, {d_model})")
    if not np.all(np.isfinite(x)):
        raise ValueError("features must be finite")
    std, xhat = head_layer_norm(x)
    cache = head_forward_normalized(params, xhat)
    cache["std"] = std
    return cache


def _upstream(params: HeadParams, c: dict, gm: np.ndarray, gs: np.ndarray, w: dict):
    """Gradients at raw = h @ w2 + b2 and at u = y @ w1 + b1, written into
    the arrays of the work dict ``w`` where it holds them.

    Clamped regions use subgradient 0; in the sigma-capped region the cap
    3 - |mu| routes part of the sigma gradient into mu.
    """
    gm = np.asarray(gm, dtype=float)
    gs = np.asarray(gs, dtype=float)
    if gm.shape != c["mu"].shape or gs.shape != c["mu"].shape:
        raise ValueError("upstream gradients must be one scalar per token")
    g_sigma_raw = np.where(c["sigma_active"], gs, 0.0)
    # sigma = sign(sigma_raw) * (3 - |mu|) when capped: d sigma / d mu.
    cap_to_mu = np.where(
        c["sigma_active"], 0.0, -np.sign(c["sigma_raw"]) * np.sign(c["mu"])
    )
    g_mu = gm + gs * cap_to_mu
    g_raw = w.get("g_raw")
    if g_raw is None:
        g_raw = w["g_raw"] = np.empty(g_mu.shape + (2,))
    g_raw[..., 0] = np.where(c["mu_active"], g_mu, 0.0)
    g_raw[..., 1] = g_sigma_raw
    # dsilu = sig * (1 + u * (1 - sig)), the SiLU derivative.
    sig = c["sig"]
    dsilu = _into(w, "dsilu", np.subtract, 1.0, sig)
    np.multiply(c["u"], dsilu, out=dsilu)
    np.add(1.0, dsilu, out=dsilu)
    np.multiply(sig, dsilu, out=dsilu)
    g_u = _into(w, "g_u", np.matmul, g_raw, params.w2.mT)
    return g_raw, np.multiply(g_u, dsilu, out=g_u)


def head_backward(
    params: HeadParams,
    c: dict,
    gm: np.ndarray,
    gs: np.ndarray,
    out: HeadParams | None = None,
    work: dict | None = None,
) -> HeadParams:
    """Exact parameter gradients, summed over the token axis -2 of a cache.

    ``c`` comes from ``head_forward`` (or ``head_forward_normalized``) with
    these ``params``, and ``gm``/``gs`` hold one upstream gradient per token,
    so a training step runs the forward pass once. A (N, d_model) cache gives
    gradients of the field shapes; a stack of L heads, (L, N, d_model) with
    parameters (L, ...), gives (L, *field shape). Given ``out``, a
    ``HeadParams`` of arrays of those shapes, the gradients are written into
    its arrays, which the returned fields then are. ``work`` is a dict of
    reused per-token arrays, as for ``head_forward_normalized``; it may be
    the forward pass's own dict.
    """
    w = {} if work is None else work
    g_raw, g_u = _upstream(params, c, gm, gs, w)
    g_y = _into(w, "g_y", np.matmul, g_u, params.w1.mT)
    o = vars(out) if out is not None else {}
    add = np.add.reduce
    norm_bias = add(g_y, axis=-2, out=o.get("norm_bias"))
    # After its sum, g_y takes its product with xhat in place.
    norm_scale = add(np.multiply(g_y, c["xhat"], out=g_y), axis=-2, out=o.get("norm_scale"))
    return HeadParams(
        norm_scale=norm_scale,
        norm_bias=norm_bias,
        w1=np.matmul(c["y"].mT, g_u, out=o.get("w1")),
        b1=add(g_u, axis=-2, out=o.get("b1")),
        w2=np.matmul(c["h"].mT, g_raw, out=o.get("w2")),
        b2=add(g_raw, axis=-2, out=o.get("b2")),
    )


def head_feature_gradient(
    params: HeadParams, c: dict, gm: np.ndarray, gs: np.ndarray
) -> np.ndarray:
    """Per-token input-feature gradient (..., N, d_model) from a ``head_forward`` cache."""
    _, g_u = _upstream(params, c, gm, gs, {})
    g_xhat = (g_u @ params.w1.mT) * params.norm_scale[..., None, :]
    m1 = g_xhat.mean(axis=-1, keepdims=True)
    m2 = (g_xhat * c["xhat"]).mean(axis=-1, keepdims=True)
    return (g_xhat - m1 - c["xhat"] * m2) / c["std"]
