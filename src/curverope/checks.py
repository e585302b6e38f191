"""Finite-difference verification of the analytic gradients.

Central differences with a fixed step are compared against the analytic
backward passes at random points; configurations that land near a
non-smooth boundary (clamp edges, the |.| kink, the scale floor)
are excluded and counted rather than failed.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .head import head_backward, head_feature_gradient, head_forward, head_init
from .phasor import LOG_RANGE_BOUND
from .supervision import S_FLOOR_VAR, radial_loss

__all__ = ["run_head_gradcheck", "run_loss_gradcheck"]


# Step of every central difference.
_STEP = 1e-5
# Perturbed copies are built and evaluated in row blocks of at most this
# many float64 entries (1 MiB), so memory stays linear in the parameter
# count; at the default d_model = 64, w1's 2,048 probes split into 16
# blocks of 128 rows. The report is the same at every block size; in a
# sweep of 2^15 .. 2^21 (BENCH_gradcheck_blocks.json) the head check takes
# about 1.2x as long at 2^16 and 1.7x at 2^15, and 5-16% less at 2^21 for
# an 8x larger traced peak.
_PROBE_BLOCK_ENTRIES = 2**17
# Head samples whose mu or sigma lies this close to a clamp edge or to
# sigma = 0 are excluded.
_BOUNDARY_MARGIN = 1e-3


def _perturbed_blocks(flat: np.ndarray):
    """Yield the (2n, n) perturbed copies of ``flat`` as row blocks.

    Row j has entry j at orig + _STEP, row n + j at orig - _STEP; each block
    holds at most ``_PROBE_BLOCK_ENTRIES`` entries, or one row if n exceeds it.
    """
    n = flat.size
    rows = max(1, _PROBE_BLOCK_ENTRIES // n)
    for start in range(0, 2 * n, rows):
        r = np.arange(start, min(start + rows, 2 * n))
        j = r % n
        block = np.tile(flat, (r.size, 1))
        block[np.arange(r.size), j] = np.where(r < n, flat[j] + _STEP, flat[j] - _STEP)
        yield block


def _finite_differences(evaluate, point: np.ndarray) -> np.ndarray:
    """Central differences at the flattened ``point``; ``evaluate`` maps a
    block of perturbed copies, one per row, to one value per row."""
    f = np.concatenate([evaluate(block) for block in _perturbed_blocks(point.reshape(-1))])
    up, down = f.reshape(2, -1)
    return (up - down) / (2 * _STEP)


def _relative_error(analytic: np.ndarray, fd: np.ndarray) -> float:
    scale = max(np.max(np.abs(fd)), np.max(np.abs(analytic)), 1e-8)
    return float(np.max(np.abs(analytic - fd)) / scale)


def _run_samples(samples: int, seed: int, draw, skipped_key: str) -> dict:
    """The sampling loop of both checks: ``draw(rng)`` returns None for a
    random point near a non-smooth boundary (counted under ``skipped_key``),
    else the (analytic, finite-difference) gradient pairs at that point."""
    # With no samples a check would pass without checking anything.
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    max_rel = 0.0
    skipped = accepted = attempts = 0
    while accepted < samples and attempts < 50 * samples:
        attempts += 1
        pairs = draw(rng)
        if pairs is None:
            skipped += 1
            continue
        accepted += 1
        for analytic, fd in pairs:
            max_rel = max(max_rel, _relative_error(analytic, fd))
    return {
        "samples": accepted,
        skipped_key: skipped,
        "max_relative_error": max_rel,
        "pass": accepted == samples and max_rel < 1e-4,
    }


def run_head_gradcheck(samples: int, seed: int, d_model: int = 64) -> dict:
    """Check head gradients at random smooth points.

    Returns max relative error over accepted samples plus the count of
    excluded clamp-boundary configurations.
    """

    def draw(rng):
        params = head_init(d_model, int(rng.integers(0, 2**31)))
        params.w2 = rng.normal(0.0, 0.1, size=params.w2.shape)
        params.b2 = np.array([rng.uniform(-2.0, 2.0), rng.uniform(0.3, 2.0)])
        feature = rng.normal(size=d_model)

        x = feature[None, :]
        cache = head_forward(params, x)
        mu, sigma = float(cache["mu"][0]), float(cache["sigma"][0])
        cap = LOG_RANGE_BOUND - abs(mu)
        if min(cap, abs(abs(sigma) - cap), abs(sigma)) < _BOUNDARY_MARGIN:
            return None

        gm, gs = rng.normal(size=(2, 1))  # one upstream gradient for the one token
        grads = head_backward(params, cache, gm, gs)

        def objective(p, x):
            """gm * mu + gs * sigma, one value per stacked probe."""
            c = head_forward(p, x)
            return (gm * c["mu"] + gs * c["sigma"]).reshape(-1)

        pairs = []
        for name, analytic in grads.field_arrays():
            base = getattr(params, name)
            # Each block of perturbed copies is stacked on a leading axis.
            fd = _finite_differences(
                lambda block: objective(replace(params, **{name: block.reshape(-1, *base.shape)}), x),
                base,
            )
            pairs.append((analytic.reshape(-1), fd))
        fd = _finite_differences(lambda block: objective(params, block), feature)
        pairs.append((head_feature_gradient(params, cache, gm, gs)[0], fd))
        return pairs

    return _run_samples(samples, seed, draw, "excluded")


def run_loss_gradcheck(samples: int, seed: int) -> dict:
    """Check radial-loss gradients at random smooth points.

    Tokens near the |exp(mu) - target| kink or the scale floor are
    flagged and skipped, not failed.
    """

    def draw(rng):
        mu = rng.uniform(-1.5, 1.5)
        sigma = rng.uniform(0.05, 2.0)
        target = float(np.exp(rng.uniform(-1.5, 1.5)))

        spread = np.exp(mu + sigma) - np.exp(mu - sigma)
        var = spread * spread / 12.0
        smooth = abs(np.exp(mu) - target) > 1e-3 and abs(var - S_FLOOR_VAR) > 1e-7
        if not smooth:
            return None

        targets = np.array([target])
        res = radial_loss(np.array([mu]), np.array([sigma]), targets)
        analytic = np.array([res.grad_mu[0], res.grad_sigma[0]])

        def losses(block):
            """One loss per (mu, sigma) row, the rows as slots of one stacked
            call, each a contiguous array as the single-token call's are."""
            m, g = block.T.copy().reshape(2, -1, 1)
            return radial_loss(m, g, targets).loss

        return [(analytic, _finite_differences(losses, np.array([mu, sigma])))]

    return _run_samples(samples, seed, draw, "flagged")
