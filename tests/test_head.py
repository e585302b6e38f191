import tracemalloc

import numpy as np
import pytest

from curverope import checks
from curverope.head import (
    HeadParams,
    head_backward,
    head_feature_gradient,
    head_forward,
    head_forward_normalized,
    head_init,
    head_layer_norm,
    hidden_width,
)
from curverope.supervision import radial_loss


def test_hidden_width_rule():
    assert hidden_width(64) == 16
    assert hidden_width(128) == 32
    assert hidden_width(8) == 16


def test_init_outputs_broad_interval():
    rng = np.random.default_rng(0)
    for d in (32, 64, 128):
        params = head_init(d, seed=3)
        for _ in range(20):
            c = head_forward(params, rng.normal(size=(1, d)) * rng.uniform(0.1, 50))
            assert c["mu"][0] == 0.0
            assert c["sigma"][0] == 3.0


def test_init_deterministic():
    a = head_init(64, seed=11)
    b = head_init(64, seed=11)
    for (_, x), (_, y) in zip(a.field_arrays(), b.field_arrays()):
        assert np.array_equal(x, y)
    c = head_init(64, seed=12)
    assert not np.array_equal(a.w1, c.w1)


def _bias_only_params(d, mu_raw, sigma_raw):
    params = head_init(d, seed=0)
    params.b2 = np.array([float(mu_raw), float(sigma_raw)])
    return params


def test_clamp_saturates_mu():
    params = _bias_only_params(16, 5.0, 0.4)
    c = head_forward(params, np.zeros((1, 16)))
    assert c["mu"][0] == 3.0
    assert c["sigma"][0] == 0.0


def test_clamp_caps_sigma():
    params = _bias_only_params(16, 1.0, 10.0)
    c = head_forward(params, np.zeros((1, 16)))
    assert c["mu"][0] == 1.0
    assert abs(c["sigma"][0]) == 2.0


def test_interval_bounds_always_hold():
    rng = np.random.default_rng(1)
    params = head_init(32, seed=0)
    params.w2 = rng.normal(0, 2.0, size=params.w2.shape)
    params.b2 = rng.normal(0, 3.0, size=2)
    c = head_forward(params, rng.normal(size=(500, 32)))
    mu, sigma = c["mu"], c["sigma"]
    assert np.all(np.abs(mu) <= 3.0)
    assert np.all(np.abs(mu) + np.abs(sigma) <= 3.0 + 1e-12)


def test_backward_at_init_blocks_w1():
    """Zero final weights cut the chain below them for the mu gradient."""
    params = head_init(64, seed=5)
    g = _backward_one(params, np.random.default_rng(2).normal(size=64), 1.0, 0.0)
    assert np.all(g.w1 == 0.0)
    assert np.all(g.norm_scale == 0.0)
    assert np.any(g.w2[:, 0] != 0.0)
    assert np.array_equal(g.b2, [1.0, 0.0])


def test_backward_saturated_clamp_zero_gradient():
    params = _bias_only_params(16, 5.0, 0.0)
    g = _backward_one(params, np.zeros(16), 1.0, 0.0)
    for _, arr in g.field_arrays():
        assert np.all(arr == 0.0)


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(3)
    step = 1e-5
    for trial in range(10):
        d = int(rng.choice([16, 32]))
        params = head_init(d, seed=trial)
        params.w2 = rng.normal(0, 0.1, size=params.w2.shape)
        params.b2 = np.array([rng.uniform(-2, 2), rng.uniform(0.3, 2.0)])
        feature = rng.normal(size=d)
        gmu, gsig = rng.normal(size=2)

        cache = head_forward(params, feature[None, :])
        mu, sigma = cache["mu"][0], cache["sigma"][0]
        if 3.0 - abs(mu) < 1e-3 or abs(abs(sigma) - (3.0 - abs(mu))) < 1e-3:
            continue

        upstream = (np.array([gmu]), np.array([gsig]))
        grads = head_backward(params, cache, *upstream)
        feature_grad = head_feature_gradient(params, cache, *upstream)[0]

        def probe():
            out = head_forward(params, feature[None, :])
            return gmu * out["mu"][0] + gsig * out["sigma"][0]

        for name, analytic in grads.field_arrays():
            base = getattr(params, name).reshape(-1)
            fd = np.empty_like(base)
            for j in range(base.size):
                orig = base[j]
                base[j] = orig + step
                up = probe()
                base[j] = orig - step
                down = probe()
                base[j] = orig
                fd[j] = (up - down) / (2 * step)
            scale = max(np.max(np.abs(fd)), 1e-8)
            assert np.max(np.abs(analytic.reshape(-1) - fd)) / scale < 1e-4, name

        fd = np.empty(d)
        for j in range(d):
            orig = feature[j]
            feature[j] = orig + step
            up = probe()
            feature[j] = orig - step
            down = probe()
            feature[j] = orig
            fd[j] = (up - down) / (2 * step)
        scale = max(np.max(np.abs(fd)), 1e-8)
        assert np.max(np.abs(feature_grad - fd)) / scale < 1e-4


def test_batched_gradcheck_catches_a_wrong_gradient(monkeypatch):
    """The batched finite-difference probes fail a 1% error in one gradient."""
    assert checks.run_head_gradcheck(samples=3, d_model=16, seed=2)["pass"]
    exact = checks.head_backward

    def off_by_one_percent(*args):
        g = exact(*args)
        g.w1 = g.w1 * 1.01
        return g

    monkeypatch.setattr(checks, "head_backward", off_by_one_percent)
    report = checks.run_head_gradcheck(samples=3, d_model=16, seed=2)
    assert report["samples"] == 3
    assert not report["pass"], report


def test_gradcheck_probe_blocks_bound_memory(monkeypatch):
    """Probe blocks stay under the entry cap and together form every +-step copy."""
    flat = np.random.default_rng(1).normal(size=7)
    full = np.tile(flat, (14, 1))
    full[np.arange(7), np.arange(7)] = flat + 1e-5
    full[np.arange(7) + 7, np.arange(7)] = flat - 1e-5
    monkeypatch.setattr(checks, "_PROBE_BLOCK_ENTRIES", 21)
    blocks = list(checks._perturbed_blocks(flat))
    assert len(blocks) == 5 and all(b.size <= 21 for b in blocks)
    np.testing.assert_array_equal(np.concatenate(blocks), full)

    # Blocking changes how probes are grouped, not what they measure.
    small = checks.run_head_gradcheck(samples=2, d_model=16, seed=5)
    monkeypatch.undo()
    assert small == checks.run_head_gradcheck(samples=2, d_model=16, seed=5)


def test_gradcheck_memory_is_bounded_by_the_probe_block():
    """One sample at the default d_model = 64 peaks near 2.1 MiB of traced
    numpy memory; with all of w1's 2,048 probes in one 16 MiB block it
    peaked near 17.6 MiB."""
    tracemalloc.start()
    try:
        report = checks.run_head_gradcheck(samples=1, seed=301)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["pass"], report
    assert peak < 4 * 2**20, peak


def test_gradcheck_memory_is_linear_in_parameter_count():
    """At d_model=128 all of w1's probes at once would take 256 MiB; blocks keep it near 2."""
    tracemalloc.start()
    try:
        report = checks.run_head_gradcheck(samples=1, d_model=128, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["pass"], report
    assert peak < 64 * 2**20, peak


def test_forward_dimension_mismatch():
    params = head_init(32, seed=0)
    with pytest.raises(ValueError):
        head_forward(params, np.zeros((1, 16)))
    with pytest.raises(ValueError, match="finite"):
        head_forward(params, np.full((1, 32), np.nan))
    # Features carry a token axis: one token is (1, d_model).
    with pytest.raises(ValueError, match="N, 32"):
        head_forward(params, np.zeros(32))


def test_forward_deterministic():
    params = head_init(48, seed=9)
    params.w2 = np.random.default_rng(4).normal(0, 0.2, size=params.w2.shape)
    x = np.random.default_rng(5).normal(size=(1, 48))
    a = head_forward(params, x)
    b = head_forward(params, x)
    assert a["mu"] == b["mu"] and a["sigma"] == b["sigma"]


def test_forward_accepts_stacked_parameter_copies():
    """Copies stacked on a leading axis (as the gradient check builds them)
    pass the width check and each gives its own forward pass; the head
    broadcasts a stacked 1-D field over the tokens itself."""
    params = head_init(16, seed=1)
    params.w2 = np.random.default_rng(6).normal(0, 0.2, size=params.w2.shape)
    x = np.random.default_rng(7).normal(size=(1, 16))
    scales = 1.0 + 0.1 * np.arange(3)[:, None] * np.ones((3, 16))
    stacked = head_forward(HeadParams(scales, *(a for _, a in params.field_arrays()[1:])), x)
    for i in range(3):
        params.norm_scale = scales[i]
        np.testing.assert_array_equal(stacked["mu"][i], head_forward(params, x)["mu"])


def test_backward_rejects_misshapen_upstream_gradients():
    params = head_init(16, seed=0)
    cache = head_forward(params, np.zeros((4, 16)))
    with pytest.raises(ValueError):
        head_backward(params, cache, np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        head_feature_gradient(params, cache, np.zeros(4), np.zeros((4, 1)))


def _backward_one(params, feature, gmu, gsig):
    """Parameter gradients of one token's forward pass."""
    x = feature[None, :]
    return head_backward(params, head_forward(params, x), np.array([gmu]), np.array([gsig]))


def test_work_arrays_match_the_allocating_calls_bit_for_bit():
    """A forward, loss and backward that write their per-token arrays into
    one kept work dict give the bytes of the allocating calls, on the first
    call and on a later call with other parameters, whose arrays overwrite
    the first call's in place."""
    rng = np.random.default_rng(8)
    slots, n, d = 3, 50, 32
    xhat = head_layer_norm(rng.normal(size=(slots, n, d)))[1]
    targets = np.exp(rng.uniform(-1.0, 1.0, n))
    work, kept = {}, None
    for call in range(2):
        base = head_init(d, seed=call)
        # Wide final layers put tokens in every clamp region.
        params = HeadParams(*(
            np.stack([a + rng.normal(0.0, 2.0, a.shape) for _ in range(slots)]) for _, a in base.field_arrays()
        ))
        fresh = head_forward_normalized(params, xhat)
        reused = head_forward_normalized(params, xhat, work)
        assert not fresh["mu_active"].all() and not fresh["sigma_active"].all()
        for key, value in fresh.items():
            assert reused[key].tobytes() == value.tobytes(), (call, key)
        loss = radial_loss(fresh["mu"], fresh["sigma"], targets)
        reused_loss = radial_loss(reused["mu"], reused["sigma"], targets)
        assert reused_loss.loss.tobytes() == loss.loss.tobytes()
        want = head_backward(params, fresh, loss.grad_mu, loss.grad_sigma)
        got = head_backward(params, reused, reused_loss.grad_mu, reused_loss.grad_sigma, work=work)
        for (name, a), (_, b) in zip(want.field_arrays(), got.field_arrays()):
            assert a.tobytes() == b.tobytes(), (call, name)
        # The second call writes into the arrays the first one allocated.
        ids = {key: id(a) for key, a in work.items()}
        assert kept is None or ids == kept
        kept = ids


def test_one_quotient_sigmoid_matches_the_two_branch_form():
    """The SiLU gate divides max(e, u >= 0) by 1 + e, e = exp(-|u|): bit for
    bit the stable two-branch form, at signed zeros, ties of e with 1, where
    e underflows and at NaN."""
    from curverope import head

    rng = np.random.default_rng(3)
    u = np.concatenate([
        rng.normal(0.0, 4.0, 4000), [0.0, -0.0, 1e-300, -1e-300, 1e-17, -1e-17, 800.0, -800.0, np.nan],
    ])
    e = np.exp(-np.abs(u))
    want = np.where(u >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    assert head._sigmoid(u, {}).tobytes() == want.tobytes()
