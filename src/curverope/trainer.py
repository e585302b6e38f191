"""Head training on synthetic features and per-layer probing.

Each layer slot gets an independent head trained by gradient descent on
the uncertainty-weighted radial loss. Two safeguards make the descent
well-behaved from the broad (mu=0, sigma=3) init: the mu gradient is
masked for a warmup prefix so the uncertainty pathway can leave the
clamp cap (whose subgradient is zero once pinned) before mu moves, and
the global gradient norm is clipped because the 1/s data term is steep
once s is calibrated. Targets are recentered by their median log value,
making the freshly initialized head the best constant predictor; probe
error is the held-out mean absolute error of exp(mu), a pure data-fit
measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .head import head_backward, head_forward, head_forward_normalized, head_init, head_layer_norm
from .scene import depth_signal_weight, make_layer_features
from .supervision import TokenTargets, radial_loss

__all__ = [
    "DivergenceError",
    "LayerProbeResult",
    "train_head_on_tokens",
    "run_layer_probe",
]

# The mu gradient is masked for this fraction of the steps (the warmup).
_WARMUP_FRACTION = 0.2
# Global gradient norm above which a step is scaled down to this norm.
_CLIP_NORM = 1.0


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss.

    ``last_finite_loss`` is the loss of the step before, and
    ``last_grad_norm`` the global gradient norm (before clipping) that step
    applied; both are None when the first step diverged.
    """

    def __init__(self, step: int, loss: float, last_finite_loss, last_grad_norm):
        super().__init__(
            f"training loss became non-finite ({loss}) at step {step}; "
            f"last finite loss {last_finite_loss}, last gradient norm {last_grad_norm}"
        )
        self.step = step
        self.last_finite_loss = last_finite_loss
        self.last_grad_norm = last_grad_norm


@dataclass
class LayerProbeResult:
    layer: int
    depth_weight: float
    init_loss: float
    final_loss: float
    loss_reduction: float
    init_probe_error: float
    final_probe_error: float
    max_grad_norm: float
    clipped_step_fraction: float
    params: object
    curve: list


def _flat_targets(targets: TokenTargets):
    n = targets.targets.size
    return targets.targets.reshape(n), targets.mask.reshape(n)


def train_head_on_tokens(
    features: np.ndarray,
    target_values: np.ndarray,
    steps: int,
    lr: float,
    seed: int,
    holdout_fraction: float = 0.2,
    record_every: int = 0,
):
    """Train one head on (N, d) features against positive normalized targets.

    Returns (params, stats) with init/final training loss, init/final
    held-out probe error, the largest global gradient norm before clipping,
    the fraction of steps whose gradient was clipped and, when
    record_every > 0, the training curve as (step, loss) pairs.
    """
    feats = np.asarray(features, dtype=float)
    vals = np.asarray(target_values, dtype=float)
    if feats.ndim != 2 or vals.shape != feats.shape[:1]:
        raise ValueError("need (N, d) features and N targets")
    if not np.all(np.isfinite(feats)):
        raise ValueError("features must be finite")
    if not np.all(vals > 0):
        raise ValueError("targets must be positive normalized radial distances")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    n = feats.shape[0]
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_hold = max(1, int(round(holdout_fraction * n))) if n > 1 else 0
    hold_idx = order[:n_hold]
    train_idx = order[n_hold:]
    if train_idx.size == 0:
        raise ValueError("no training tokens left after the holdout split")

    center = np.exp(np.median(np.log(vals[train_idx])))
    vals = vals / center

    t = vals[train_idx]
    train_targets = TokenTargets(
        targets=t.reshape(1, 1, -1), mask=np.ones((1, 1, t.size), dtype=bool), near_stat=1.0
    )
    train_feats = feats[train_idx]

    def probe_error(params):
        if not n_hold:
            return float("nan")
        mu = head_forward(params, feats[hold_idx])["mu"]
        return float(np.mean(np.abs(np.exp(mu) - vals[hold_idx])))

    params = head_init(feats.shape[1], seed)
    warmup = int(round(_WARMUP_FRACTION * steps))
    init_probe = probe_error(params)
    init_loss = None
    loss = None
    total = None
    max_total = 0.0
    clipped = 0
    curve = []
    # The features were checked once above and are normalised once here;
    # each step runs one forward pass and reuses its cache for the backward.
    _, train_xhat = head_layer_norm(train_feats)
    for step in range(steps):
        cache = head_forward_normalized(params, train_xhat)
        res = radial_loss(
            cache["mu"].reshape(1, 1, -1), cache["sigma"].reshape(1, 1, -1), train_targets
        )
        if not np.isfinite(res.loss):
            raise DivergenceError(step, res.loss, loss, total)
        loss = res.loss
        if init_loss is None:
            init_loss = loss
        if record_every and (step % record_every == 0 or step == steps - 1):
            curve.append((step, float(loss)))
        grad_mu = res.grad_mu.reshape(-1)
        if step < warmup:
            grad_mu = np.zeros_like(grad_mu)
        g = head_backward(params, cache, grad_mu, res.grad_sigma.reshape(-1))
        total = float(np.sqrt(sum(float((a * a).sum()) for _, a in g.field_arrays())))
        max_total = max(max_total, total)
        if total <= _CLIP_NORM:
            scale = lr
        else:
            scale = lr * _CLIP_NORM / total
            clipped += 1
        for name, grad in g.field_arrays():
            getattr(params, name).__isub__(scale * grad)
    final_probe = probe_error(params)
    stats = {
        "init_loss": float(init_loss),
        "final_loss": float(loss),
        "loss_reduction": float((init_loss - loss) / abs(init_loss)) if init_loss else 0.0,
        "init_probe_error": init_probe,
        "final_probe_error": final_probe,
        "max_grad_norm": max_total,
        "clipped_step_fraction": clipped / steps,
        "curve": curve,
    }
    return params, stats


def run_layer_probe(
    targets: TokenTargets,
    num_layers: int,
    d_model: int,
    steps: int,
    lr: float,
    seed: int,
    holdout_fraction: float = 0.2,
    noise_scale: float = 0.1,
    record_every: int = 0,
):
    """Train one probe head per layer slot; returns LayerProbeResult rows."""
    if num_layers < 1:
        raise ValueError(f"num_layers must be >= 1, got {num_layers}")
    flat_vals, flat_mask = _flat_targets(targets)
    if not flat_mask.any():
        raise ValueError("no valid tokens to probe")
    rows = []
    for layer in range(num_layers):
        feats = make_layer_features(targets, layer, num_layers, d_model, seed, noise_scale=noise_scale)
        feats = feats.reshape(-1, d_model)[flat_mask]
        params, stats = train_head_on_tokens(
            feats, flat_vals[flat_mask], steps=steps, lr=lr, seed=seed,
            holdout_fraction=holdout_fraction, record_every=record_every,
        )
        weight = float(depth_signal_weight(layer, num_layers))
        rows.append(LayerProbeResult(layer=layer, depth_weight=weight, params=params, **stats))
    return rows
