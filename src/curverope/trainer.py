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

The slots of one probe share the seed, so they share the holdout split,
the target centre and the initial head; only their features differ. They
are trained in lockstep as one stack: each step runs one forward pass,
one loss and one backward over all L slots. The parameters of the stack
live in one (L, P) buffer whose rows are the slots' parameters in
checkpoint field order, and the ``HeadParams`` fields are views into it;
the backward writes into a second (L, P) buffer, so the clip norm and the
update are a few whole-buffer passes. Every value takes the operations it
would take in a loop over the slots, so each slot's parameters, losses
and counters are bit-identical to training it alone.

A run allocates its large arrays once and each step writes into them.
Besides the two (L, P) buffers (the gradients are scaled in place into
the update), the run owns one work dict, which it hands to
``head_forward_normalized`` and ``head_backward``: the head keeps its
(L, N, d_model), (L, N, hidden) and (L, N, 2) intermediates there,
allocated by the first step, so a step's forward cache holds until the
next step's forward pass. Nothing is kept from one run to the next. The
radial loss and the gradient norm work on (L, N) and (L, P) arrays, a few
KiB at the bench's sizes, and allocate them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .head import HeadParams, head_backward, head_forward, head_forward_normalized, head_init, head_layer_norm
from .scene import depth_signal_weight, make_layer_features
from .supervision import TokenTargets, radial_loss, uncertainty_scale

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
# Gradient-descent step size.
_LR = 0.01
# Share of the tokens held out to measure the probe error.
_HOLDOUT_FRACTION = 0.2


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss in layer slot ``layer``.

    ``last_finite_loss`` is that slot's loss of the step before, and
    ``last_grad_norm`` the slot's global gradient norm (before clipping)
    that step applied; both are None when the first step diverged. Of the
    slots trained together, the error names the lowest-index slot whose
    loss was non-finite at the first such step.
    """

    def __init__(self, step: int, loss: float, last_finite_loss, last_grad_norm, layer: int = 0):
        super().__init__(
            f"training loss of layer {layer} became non-finite ({loss}) at step {step}; "
            f"last finite loss {last_finite_loss}, last gradient norm {last_grad_norm}"
        )
        self.step = step
        self.layer = layer
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
    stalls: dict


def _views(flat: np.ndarray, shapes: list, bounds) -> HeadParams:
    """``HeadParams`` of views into the rows of ``flat`` (L, P), in field order.

    Field i is ``flat[:, bounds[i]:bounds[i + 1]]`` shaped (L, *shapes[i]).
    """
    return HeadParams(*(
        flat[:, lo:hi].reshape(flat.shape[0], *shape)
        for lo, hi, shape in zip(bounds[:-1], bounds[1:], shapes)
    ))


def train_head_on_tokens(
    features: np.ndarray,
    target_values: np.ndarray,
    steps: int,
    seed: int,
    record_every: int = 0,
):
    """Train one head per slot of (L, N, d) features against N finite, positive
    normalized targets, all slots in lockstep.

    Returns one (params, stats) pair per slot. The stats hold the
    init/final training loss, init/final held-out probe error, the largest
    global gradient norm before clipping, the fraction of steps whose
    gradient was clipped, the fractions of training tokens stalled at the
    final step (``stalls``: at the s floor, the sigma cap and the mu
    clamp) and, when record_every > 0, the training curve as
    (step, loss) pairs.
    """
    feats = np.asarray(features, dtype=float)
    vals = np.asarray(target_values, dtype=float)
    if feats.ndim != 3 or vals.shape != feats.shape[1:2]:
        raise ValueError("need (L, N, d) features and N targets")
    if not np.all(np.isfinite(feats)):
        raise ValueError("features must be finite")
    if not np.all(np.isfinite(vals) & (vals > 0)):
        raise ValueError("targets must be finite, positive normalized radial distances")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    slots, n, d_model = feats.shape
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_hold = max(1, int(round(_HOLDOUT_FRACTION * n))) if n > 1 else 0
    hold_idx = order[:n_hold]
    train_idx = order[n_hold:]
    if train_idx.size == 0:
        raise ValueError("no training tokens left after the holdout split")

    center = np.exp(np.median(np.log(vals[train_idx])))
    vals = vals / center

    train_vals = vals[train_idx]

    def probe_error(params):
        if not n_hold:
            return np.full(slots, np.nan)
        mu = head_forward(params, feats[:, hold_idx])["mu"]
        return np.mean(np.abs(np.exp(mu) - vals[hold_idx]), axis=-1)

    # Every slot starts from the same head; the rows of `flat` are the
    # slots' parameters and the rows of `grad_flat` their gradients.
    init = [a for _, a in head_init(d_model, seed).field_arrays()]
    shapes = [a.shape for a in init]
    bounds = np.cumsum([0] + [a.size for a in init])
    flat = np.tile(np.concatenate([a.reshape(-1) for a in init]), (slots, 1))
    grad_flat = np.empty_like(flat)
    params = _views(flat, shapes, bounds)
    grads = _views(grad_flat, shapes, bounds)

    warmup = int(round(_WARMUP_FRACTION * steps))
    init_probe = probe_error(params)
    init_loss = None
    loss = None
    total = None
    max_total = np.zeros(slots)
    clipped = np.zeros(slots, dtype=int)
    curves = [[] for _ in range(slots)]
    # The features were checked once above and are normalised once here;
    # each step runs one forward pass and reuses its cache for the backward.
    _, train_xhat = head_layer_norm(feats[:, train_idx])
    work = {}
    for step in range(steps):
        cache = head_forward_normalized(params, train_xhat, work)
        res = radial_loss(cache["mu"], cache["sigma"], train_vals)
        finite = np.isfinite(res.loss)
        if not finite.all():
            layer = int(np.argmin(finite))
            raise DivergenceError(
                step, float(res.loss[layer]),
                None if loss is None else float(loss[layer]),
                None if total is None else float(total[layer]),
                layer=layer,
            )
        loss = res.loss
        if init_loss is None:
            init_loss = loss
        if record_every and (step % record_every == 0 or step == steps - 1):
            for curve, value in zip(curves, loss.tolist()):
                curve.append((step, value))
        grad_mu = res.grad_mu
        if step < warmup:
            grad_mu = np.zeros_like(grad_mu)
        head_backward(params, cache, grad_mu, res.grad_sigma, out=grads, work=work)
        # Each field's sum of squares, added in field order as a Python sum
        # over the fields adds them, so each slot's norm keeps its bits.
        sq = grad_flat * grad_flat
        total = np.add.reduce(sq[:, bounds[0]:bounds[1]], axis=-1)
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            total += np.add.reduce(sq[:, lo:hi], axis=-1)
        np.sqrt(total, out=total)
        # fmax, like max(), keeps the running maximum past a NaN norm; a NaN
        # norm fails the clip test and counts as clipped, as it did per slot.
        np.fmax(max_total, total, out=max_total)
        over = ~(total <= _CLIP_NORM)
        clipped += over
        # _LR within the clip norm, else (_LR * _CLIP_NORM) / total.
        scale = np.divide(_LR * _CLIP_NORM, total, out=np.full(slots, float(_LR)), where=over)
        # The gradients are spent after this step: they take the scale in place.
        grad_flat *= scale[:, None]
        flat -= grad_flat
    _, floored = uncertainty_scale(cache["mu"], cache["sigma"])
    stall_counts = {
        "s_floor": np.count_nonzero(floored, axis=-1),
        "sigma_cap": np.count_nonzero(~cache["sigma_active"], axis=-1),
        "mu_clamp": np.count_nonzero(~cache["mu_active"], axis=-1),
    }
    # The step arrays are spent; they are freed before the probe's forward.
    del cache, work
    final_probe = probe_error(params)
    results = []
    for i in range(slots):
        first, last = float(init_loss[i]), float(loss[i])
        head = HeadParams(*(a[i].copy() for _, a in params.field_arrays()))
        stats = {
            "init_loss": first,
            "final_loss": last,
            "loss_reduction": float((first - last) / abs(first)) if first else 0.0,
            "init_probe_error": float(init_probe[i]),
            "final_probe_error": float(final_probe[i]),
            "max_grad_norm": float(max_total[i]),
            "clipped_step_fraction": int(clipped[i]) / steps,
            "curve": curves[i],
            "stalls": {k: int(c[i]) / train_idx.size for k, c in stall_counts.items()},
        }
        results.append((head, stats))
    return results


def run_layer_probe(
    targets: TokenTargets,
    num_layers: int,
    d_model: int,
    steps: int,
    seed: int,
    record_every: int = 0,
):
    """Train one probe head per layer slot, all slots in lockstep; returns
    LayerProbeResult rows."""
    if num_layers < 1:
        raise ValueError(f"num_layers must be >= 1, got {num_layers}")
    if d_model < 1:
        raise ValueError(f"d_model must be >= 1, got {d_model}")
    mask = targets.mask.reshape(-1)
    if not mask.any():
        raise ValueError("no valid tokens to probe")
    # Only the valid tokens count: the features and targets of the others
    # are dropped here, before training sees them.
    trained = train_head_on_tokens(
        make_layer_features(targets, num_layers, d_model, seed)[:, mask],
        targets.targets.reshape(-1)[mask],
        steps=steps, seed=seed, record_every=record_every,
    )
    return [
        LayerProbeResult(
            layer=layer, depth_weight=float(depth_signal_weight(layer, num_layers)), params=params, **stats
        )
        for layer, (params, stats) in enumerate(trained)
    ]
