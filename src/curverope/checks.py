"""Finite-difference verification of the analytic gradients.

Central differences with a fixed step are compared against the analytic
backward passes at random points; configurations that land near a
non-smooth boundary (clamp edges, the |.| kink, the scale floor/ceiling)
are excluded and counted rather than failed.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .head import head_backward, head_feature_gradient, head_forward, head_init
from .phasor import LOG_RANGE_BOUND
from .supervision import S_CEILING, S_FLOOR_VAR, TokenTargets, radial_loss

__all__ = ["run_head_gradcheck", "run_loss_gradcheck"]


# Perturbed copies are built and evaluated in row blocks of at most this
# many float64 entries (16 MiB), so memory stays linear in the parameter
# count; at the default d_model = 64 all of w1's probes fit in one block.
_PROBE_BLOCK_ENTRIES = 2**21
# Head samples whose mu or sigma lies this close to a clamp edge or to
# sigma = 0 are excluded.
_BOUNDARY_MARGIN = 1e-3


def _perturbed_blocks(flat: np.ndarray, step: float):
    """Yield the (2n, n) perturbed copies of ``flat`` as row blocks.

    Row j has entry j at orig + step, row n + j at orig - step; each block
    holds at most ``_PROBE_BLOCK_ENTRIES`` entries, or one row if n exceeds it.
    """
    n = flat.size
    rows = max(1, _PROBE_BLOCK_ENTRIES // n)
    for start in range(0, 2 * n, rows):
        r = np.arange(start, min(start + rows, 2 * n))
        j = r % n
        block = np.tile(flat, (r.size, 1))
        block[np.arange(r.size), j] = np.where(r < n, flat[j] + step, flat[j] - step)
        yield block


def _central(f: np.ndarray, step: float) -> np.ndarray:
    """Central differences from values at the +step probes followed by the -step probes."""
    up, down = f.reshape(2, -1)
    return (up - down) / (2 * step)


def _relative_error(analytic: np.ndarray, fd: np.ndarray) -> float:
    scale = max(np.max(np.abs(fd)), np.max(np.abs(analytic)), 1e-8)
    return float(np.max(np.abs(analytic - fd)) / scale)


def _check_samples(samples: int) -> None:
    # With no samples a check would pass without checking anything.
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")


def run_head_gradcheck(
    samples: int,
    d_model: int,
    seed: int,
    step: float = 1e-5,
) -> dict:
    """Check head gradients at random smooth points.

    Returns max relative error over accepted samples plus the count of
    excluded clamp-boundary configurations.
    """
    _check_samples(samples)
    rng = np.random.default_rng(seed)
    max_rel = 0.0
    excluded = 0
    accepted = 0
    attempts = 0
    while accepted < samples and attempts < 50 * samples:
        attempts += 1
        params = head_init(d_model, int(rng.integers(0, 2**31)))
        params.w2 = rng.normal(0.0, 0.1, size=params.w2.shape)
        params.b2 = np.array([rng.uniform(-2.0, 2.0), rng.uniform(0.3, 2.0)])
        feature = rng.normal(size=d_model)

        x = feature[None, :]
        cache = head_forward(params, x)
        mu, sigma = float(cache["mu"][0]), float(cache["sigma"][0])
        cap = LOG_RANGE_BOUND - abs(mu)
        near_boundary = (
            LOG_RANGE_BOUND - abs(mu) < _BOUNDARY_MARGIN
            or abs(abs(sigma) - cap) < _BOUNDARY_MARGIN
            or abs(sigma) < _BOUNDARY_MARGIN
        )
        if near_boundary:
            excluded += 1
            continue
        accepted += 1

        gm, gs = rng.normal(size=(2, 1))  # one upstream gradient for the one token
        grads = head_backward(params, cache, gm, gs)

        def objective(p, x):
            """gm * mu + gs * sigma, one value per stacked probe."""
            c = head_forward(p, x)
            return (gm * c["mu"] + gs * c["sigma"]).reshape(-1)

        for name, analytic in grads.field_arrays():
            base = getattr(params, name)
            # Each block of perturbed copies is stacked on a leading axis;
            # 1-D fields get a singleton token axis to broadcast over.
            shape = (1,) + base.shape if base.ndim == 1 else base.shape
            f = np.concatenate([
                objective(replace(params, **{name: block.reshape(-1, *shape)}), x)
                for block in _perturbed_blocks(base.reshape(-1), step)
            ])
            max_rel = max(max_rel, _relative_error(analytic.reshape(-1), _central(f, step)))

        analytic = head_feature_gradient(params, cache, gm, gs)[0]
        f = np.concatenate([objective(params, block) for block in _perturbed_blocks(feature, step)])
        max_rel = max(max_rel, _relative_error(analytic, _central(f, step)))
    return {
        "samples": accepted,
        "excluded": excluded,
        "max_relative_error": max_rel,
        "pass": accepted == samples and max_rel < 1e-4,
    }


def run_loss_gradcheck(samples: int, seed: int, step: float = 1e-5) -> dict:
    """Check radial-loss gradients at random smooth points.

    Tokens near the |exp(mu) - target| kink or the scale floor/ceiling are
    flagged and skipped, not failed.
    """
    _check_samples(samples)
    rng = np.random.default_rng(seed)
    max_rel = 0.0
    flagged = 0
    accepted = 0
    attempts = 0
    while accepted < samples and attempts < 50 * samples:
        attempts += 1
        mu = rng.uniform(-1.5, 1.5)
        sigma = rng.uniform(0.05, 2.0)
        target = float(np.exp(rng.uniform(-1.5, 1.5)))

        spread = np.exp(mu + sigma) - np.exp(mu - sigma)
        var = spread * spread / 12.0
        s = np.sqrt(max(var, S_FLOOR_VAR))
        smooth = (
            abs(np.exp(mu) - target) > 1e-3
            and abs(var - S_FLOOR_VAR) > 1e-7
            and abs(s - S_CEILING) > 1e-3
        )
        if not smooth:
            flagged += 1
            continue
        accepted += 1

        targets = TokenTargets(
            targets=np.full((1, 1, 1), target), mask=np.ones((1, 1, 1), bool), near_stat=1.0
        )

        def loss_at(m, g):
            return radial_loss(np.full((1, 1, 1), m), np.full((1, 1, 1), g), targets).loss

        res = radial_loss(np.full((1, 1, 1), mu), np.full((1, 1, 1), sigma), targets)
        fd_mu = (loss_at(mu + step, sigma) - loss_at(mu - step, sigma)) / (2 * step)
        fd_sigma = (loss_at(mu, sigma + step) - loss_at(mu, sigma - step)) / (2 * step)
        analytic = np.array([res.grad_mu[0, 0, 0], res.grad_sigma[0, 0, 0]])
        max_rel = max(max_rel, _relative_error(analytic, np.array([fd_mu, fd_sigma])))
    return {
        "samples": accepted,
        "flagged": flagged,
        "max_relative_error": max_rel,
        "pass": accepted == samples and max_rel < 1e-4,
    }
