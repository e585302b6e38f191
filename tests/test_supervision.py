import numpy as np
import pytest

from curverope import checks
from curverope.phasor import clamp_interval
from curverope.supervision import (
    RadialMap,
    near_distance_stat,
    normalize_and_pool,
    radial_loss,
    uncertainty_scale,
    validity_mask,
)


def _single_map(values, valid=None):
    v = np.asarray(values, dtype=float)[None, :, :]
    m = np.ones_like(v, dtype=bool) if valid is None else np.asarray(valid, bool)[None]
    return RadialMap(values=v, source_valid=m)


def test_validity_mask_rules():
    vals = np.array([[25.0, np.nan, 5.0], [0.0, -1.0, 20.0]])
    rmap = _single_map(vals)
    mask = validity_mask(rmap)
    assert mask.tolist() == [[[False, False, True], [False, False, True]]]


def test_validity_mask_respects_source_flag():
    vals = np.full((2, 2), 5.0)
    rmap = _single_map(vals, valid=np.array([[True, False], [True, True]]))
    assert validity_mask(rmap).sum() == 3


def test_validity_mask_never_clips():
    rmap = _single_map(np.array([[20.0001, 19.9999]]))
    mask = validity_mask(rmap)
    assert mask.tolist() == [[[False, True]]]


def test_near_stat_floor_on_empty():
    rmap = _single_map(np.full((2, 2), np.nan), valid=np.zeros((2, 2), bool))
    assert near_distance_stat(rmap, validity_mask(rmap)) == 0.1


def test_near_stat_percentile():
    vals = np.arange(1.0, 101.0).reshape(10, 10)
    rmap = _single_map(vals)
    assert near_distance_stat(rmap, np.ones((1, 10, 10), dtype=bool)) == 5.0


def test_near_stat_constant_clip():
    rmap = _single_map(np.full((4, 4), 4.0))
    assert near_distance_stat(rmap, validity_mask(rmap)) == 4.0


def test_near_stat_floor_small_values():
    rmap = _single_map(np.full((4, 4), 0.01))
    assert near_distance_stat(rmap, validity_mask(rmap)) == 0.1


def test_pool_constant():
    rmap = _single_map(np.full((4, 4), 8.0))
    t = normalize_and_pool(rmap, validity_mask(rmap), 2.0, 2)
    assert t.mask.all()
    assert np.allclose(t.targets, 4.0)


def test_pool_validity_threshold():
    vals = np.full((1, 4, 4), 6.0)
    m = np.zeros((1, 4, 4), bool)
    m[0, :2, :2] = True  # only the top-left 2x2 patch is fully valid
    rmap = RadialMap(values=vals, source_valid=m)
    t = normalize_and_pool(rmap, validity_mask(rmap), 3.0, 2)
    assert t.mask[0, 0, 0] and not t.mask[0, 1, 1]


def test_pool_40_percent_invalid():
    vals = np.full((1, 10, 10), 6.0)
    m = np.zeros((1, 10, 10), bool)
    m[0, :4, :] = True  # 40 of 100 pixels in the single patch
    rmap = RadialMap(values=vals, source_valid=m)
    t = normalize_and_pool(rmap, validity_mask(rmap), 3.0, 10)
    assert not t.mask.any()



def test_pool_checkerboard_half_valid():
    vals = np.full((1, 4, 4), 6.0)
    m = np.indices((4, 4)).sum(axis=0) % 2 == 0
    rmap = RadialMap(values=vals, source_valid=m[None])
    t = normalize_and_pool(rmap, validity_mask(rmap), 3.0, 2)
    assert t.mask.all()
    assert np.allclose(t.targets, 2.0)


@pytest.mark.parametrize("near", [np.nan, np.inf, 0.05])
def test_pool_rejects_a_bad_near_stat(near):
    """A near statistic that is not finite and >= 0.1 is named as such,
    not reported as a bad target."""
    rmap = _single_map(np.full((4, 4), 8.0))
    with pytest.raises(ValueError, match="near_stat must be finite and >= 0.1"):
        normalize_and_pool(rmap, validity_mask(rmap), near, 2)


def test_pool_indivisible_dims():
    rmap = _single_map(np.full((5, 4), 1.0))
    with pytest.raises(ValueError):
        normalize_and_pool(rmap, validity_mask(rmap), 1.0, 2)


def test_pool_scale_consistency():
    rng = np.random.default_rng(0)
    # stay below r_max/2 so doubling cannot change the validity mask
    vals = rng.uniform(0.5, 9.5, (2, 8, 8))
    rmap = _single_map(vals[0])
    rmap2 = RadialMap(values=2.0 * rmap.values, source_valid=rmap.source_valid)
    t1 = normalize_and_pool(rmap, validity_mask(rmap), 1.3, 4)
    t2 = normalize_and_pool(rmap2, validity_mask(rmap2), 2.6, 4)
    assert np.max(np.abs(t1.targets - t2.targets)) < 1e-12
    assert np.array_equal(t1.mask, t2.mask)


def test_pool_far_field_exclusion():
    rng = np.random.default_rng(1)
    vals = rng.uniform(0.1, 30.0, (2, 8, 8))
    rmap = RadialMap(values=vals, source_valid=np.ones_like(vals, bool))
    mask = validity_mask(rmap)
    near = near_distance_stat(rmap, mask)
    t = normalize_and_pool(rmap, mask, near, 4)
    assert np.all(t.targets[t.mask] * near <= 20.0)


def test_uncertainty_scale_values():
    s, floored = uncertainty_scale(np.array([0.0, 0.0, 3.0]), np.array([0.0, 3.0, 3.0]))
    assert s[0] == 1e-3 and floored.tolist() == [True, False, False]
    want = np.sinh(3.0) / np.sqrt(3.0)
    assert abs(s[1] - want) < 1e-9
    # s has no ceiling: an interval wider than the clamp admits keeps its s
    assert abs(s[2] / (np.exp(3.0) * np.sinh(3.0) / np.sqrt(3.0)) - 1.0) < 1e-12


def test_uncertainty_scale_bounded():
    rng = np.random.default_rng(2)
    draws = np.array([(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(200)])
    s, _ = uncertainty_scale(*clamp_interval(draws[:, 0], draws[:, 1]))
    # the clamp keeps mu + |sigma| <= 3, so s < e^3 / sqrt(12) ~ 5.8
    assert np.all((1e-3 <= s) & (s < np.exp(3.0) / np.sqrt(12.0)))


def _one_token(mu, sigma, target):
    return radial_loss(np.array([mu]), np.array([sigma]), np.array([target]))


def test_loss_perfect_prediction():
    res = _one_token(0.0, 0.0, 1.0)
    assert abs(res.loss - np.log(1e-3)) < 1e-12
    assert res.grad_mu[0] == 0.0


def test_loss_unit_error_at_floor():
    res = _one_token(0.0, 0.0, 2.0)
    assert abs(res.loss - (1000.0 + np.log(1e-3))) < 1e-9


def test_loss_permutation_invariance():
    rng = np.random.default_rng(3)
    mu = rng.uniform(-1, 1, 16)
    sigma = rng.uniform(0.1, 2, 16)
    t = np.exp(rng.uniform(-1, 1, 16))
    base = radial_loss(mu, sigma, t).loss
    perm = rng.permutation(16)
    assert abs(radial_loss(mu[perm], sigma[perm], t[perm]).loss - base) < 1e-12


def test_loss_monotone_in_error():
    losses = [_one_token(np.log(r), 0.5, 1.0).loss for r in (1.1, 1.5, 2.5, 4.0)]
    assert all(a < b for a, b in zip(losses, losses[1:]))


def test_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    step = 1e-5
    checked = 0
    while checked < 100:
        mu = rng.uniform(-1.5, 1.5)
        sigma = rng.uniform(0.05, 2.0)
        target = float(np.exp(rng.uniform(-1.5, 1.5)))
        spread = np.exp(mu + sigma) - np.exp(mu - sigma)
        var = spread * spread / 12.0
        if abs(np.exp(mu) - target) < 1e-3 or abs(var - 1e-6) < 1e-7:
            continue
        checked += 1
        res = _one_token(mu, sigma, target)
        fd_mu = (_one_token(mu + step, sigma, target).loss - _one_token(mu - step, sigma, target).loss) / (2 * step)
        fd_sig = (_one_token(mu, sigma + step, target).loss - _one_token(mu, sigma - step, target).loss) / (2 * step)
        scale = max(abs(fd_mu), abs(fd_sig), 1e-8)
        assert abs(res.grad_mu[0] - fd_mu) / scale < 1e-4
        assert abs(res.grad_sigma[0] - fd_sig) / scale < 1e-4


def test_loss_grid_mismatch():
    """The loss takes a non-empty (N,) target array and (N,) or (L, N)
    intervals; anything else is an error, an empty target set included."""
    with pytest.raises(ValueError):
        radial_loss(np.zeros(3), np.zeros(3), np.ones(4))
    with pytest.raises(ValueError):
        radial_loss(np.zeros((1, 4)), np.zeros((1, 4)), np.ones((1, 4)))
    with pytest.raises(ValueError):
        radial_loss(np.zeros(4), np.zeros(3), np.ones(4))
    with pytest.raises(ValueError, match="non-empty"):
        radial_loss(np.zeros(0), np.zeros(0), np.ones(0))


def test_stacked_loss_gives_each_slot_its_own_bits():
    """A leading stack axis gives one loss per slot; each slot's loss and
    gradients equal an unstacked call bit for bit."""
    rng = np.random.default_rng(5)
    t = np.exp(rng.uniform(-1, 1, (2, 3, 50))).reshape(-1)
    mu = rng.uniform(-1.5, 1.5, (4, 2, 3, 50))
    sigma = rng.uniform(-2.0, 2.0, (4, 2, 3, 50))
    sigma[:, 0, 0, :5] = 0.0  # s at its floor
    mu, sigma = mu.reshape(4, -1), sigma.reshape(4, -1)
    stacked = radial_loss(mu, sigma, t)
    assert stacked.loss.shape == (4,)
    for i in range(4):
        alone = radial_loss(mu[i], sigma[i], t)
        assert isinstance(alone.loss, float) and stacked.loss[i] == alone.loss
        assert stacked.grad_mu[i].tobytes() == alone.grad_mu.tobytes()
        assert stacked.grad_sigma[i].tobytes() == alone.grad_sigma.tobytes()
    with pytest.raises(ValueError):
        radial_loss(mu[None], sigma[None], t)


def test_loss_gradcheck_catches_a_wrong_gradient(monkeypatch):
    """The stacked finite-difference probes fail a 1% error in the sigma gradient."""
    assert checks.run_loss_gradcheck(samples=3, seed=2)["pass"]
    exact = checks.radial_loss

    def off_by_one_percent(*args):
        res = exact(*args)
        res.grad_sigma = res.grad_sigma * 1.01
        return res

    monkeypatch.setattr(checks, "radial_loss", off_by_one_percent)
    report = checks.run_loss_gradcheck(samples=3, seed=2)
    assert report["samples"] == 3
    assert not report["pass"], report
