import numpy as np
import pytest

from curverope.supervision import RadialMap
from curverope.teacher_mix import (
    MixSchedule,
    effective_interval,
    external_override,
    sample_mask,
    substitution_probability,
)


def test_schedule_exact_values_block_frame():
    s = MixSchedule(mode="block_frame")
    assert s.floor == 0.1
    got = [substitution_probability(s, t) for t in (0, 1000, 4000, 7000, 8000)]
    assert got == [1.0, 1.0, 0.55, 0.1, 0.1]


def test_schedule_exact_values_video():
    s = MixSchedule(mode="video")
    assert s.floor == 0.5
    got = [substitution_probability(s, t) for t in (0, 1000, 4000, 7000, 8000)]
    assert got == [1.0, 1.0, 0.75, 0.5, 0.5]


def test_schedule_monotone_and_bounded():
    for mode in ("block_frame", "video"):
        s = MixSchedule(mode=mode)
        probs = [substitution_probability(s, t) for t in range(0, 9000, 25)]
        assert all(a >= b for a, b in zip(probs, probs[1:]))
        assert all(s.floor <= p <= 1.0 for p in probs)


def test_schedule_continuity():
    s = MixSchedule(mode="block_frame")
    for boundary in (1000, 7000):
        below = substitution_probability(s, boundary - 1)
        at = substitution_probability(s, boundary)
        above = substitution_probability(s, boundary + 1)
        assert abs(below - at) < 2e-4 and abs(above - at) < 2e-4


def test_schedule_validation():
    with pytest.raises(ValueError):
        MixSchedule(mode="nope")


def test_sample_mask_extremes():
    assert sample_mask(1.0, 100, seed=0).all()
    assert not sample_mask(0.0, 100, seed=0).any()


def test_sample_mask_concentration():
    mask = sample_mask(0.5, 10**5, seed=1)
    assert 0.494 <= mask.mean() <= 0.506


def test_sample_mask_deterministic():
    a = sample_mask(0.3, 1000, seed=7)
    b = sample_mask(0.3, 1000, seed=7)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sample_mask(0.3, 1000, seed=8))


def test_effective_interval_truth_table():
    substituted = np.array([False, False, True, True])
    valid = np.array([False, True, False, True])
    pred_mu, pred_sigma = np.full(4, 0.5), np.full(4, 1.2)
    targets = np.where(valid, 2.0, np.nan)
    mu, sigma = effective_interval(pred_mu, pred_sigma, targets, substituted, valid)
    assert abs(mu[3] - np.log(2.0)) < 1e-12
    assert sigma[3] == 0.1
    assert mu[:3].tobytes() == pred_mu[:3].tobytes()
    assert sigma[:3].tobytes() == pred_sigma[:3].tobytes()


def test_effective_interval_teacher_values():
    mu, sigma = effective_interval(0.0, 0.0, 2.0, True, True)
    assert abs(mu - 0.6931471805599453) < 1e-12
    assert sigma == 0.1


def test_effective_interval_clamps_extreme_teacher():
    mu, sigma = effective_interval(0.0, 0.0, 1e9, True, True)
    assert mu == 3.0
    assert sigma == 0.0
    mu, _ = effective_interval(0.0, 0.0, 1e-9, True, True)
    assert mu == -3.0


def test_effective_interval_missing_target():
    with pytest.raises(ValueError):
        effective_interval(0.0, 0.0, np.nan, True, True)
    with pytest.raises(ValueError):
        effective_interval(0.0, 0.0, -1.0, False, True)


def _grids(f=1, ht=2, wt=2):
    mu = np.zeros((f, ht, wt))
    sigma = np.full((f, ht, wt), 3.0)
    return mu, sigma


def test_external_override_fully_valid():
    mu, sigma = _grids()
    ext = RadialMap(values=np.full((1, 4, 4), 6.0), source_valid=np.ones((1, 4, 4), bool))
    res = external_override(mu, sigma, ext, near_stat=2.0)
    assert res.substituted.all()
    assert np.allclose(res.mu, np.log(3.0))
    assert np.allclose(res.sigma, 0.1)


def test_external_override_fully_invalid():
    mu, sigma = _grids()
    ext = RadialMap(values=np.full((1, 4, 4), np.nan), source_valid=np.zeros((1, 4, 4), bool))
    res = external_override(mu, sigma, ext, near_stat=2.0)
    assert not res.substituted.any()
    assert np.array_equal(res.mu, mu)
    assert np.array_equal(res.sigma, sigma)


def test_external_override_half_valid():
    mu, sigma = _grids()
    vals = np.full((1, 4, 4), 6.0)
    valid = np.zeros((1, 4, 4), bool)
    valid[0, :, :2] = True  # left tokens valid, right tokens not
    ext = RadialMap(values=vals, source_valid=valid)
    res = external_override(mu, sigma, ext, near_stat=2.0)
    assert res.substituted.tolist() == [[[True, False], [True, False]]]
    assert np.allclose(res.mu[0, :, 0], np.log(3.0))
    assert np.array_equal(res.mu[0, :, 1], mu[0, :, 1])


def test_external_override_far_field_rejected():
    mu, sigma = _grids(ht=1, wt=1)
    ext = RadialMap(values=np.full((1, 2, 2), 25.0), source_valid=np.ones((1, 2, 2), bool))
    res = external_override(mu, sigma, ext, near_stat=1.0)
    assert not res.substituted.any()


def test_external_override_shape_mismatch():
    mu, sigma = _grids()
    ext = RadialMap(values=np.full((2, 4, 4), 5.0), source_valid=np.ones((2, 4, 4), bool))
    with pytest.raises(ValueError):
        external_override(mu, sigma, ext, near_stat=1.0)


@pytest.mark.parametrize(
    "shape, grid",
    [
        pytest.param((1, 64, 32), (4, 4), id="rows-and-columns-imply-different-patches"),
        pytest.param((1, 4, 5), (2, 2), id="columns-not-divisible"),
        pytest.param((1, 6, 4), (2, 2), id="rows-set-a-patch-the-columns-do-not-fit"),
        pytest.param((1, 1, 1), (2, 2), id="smaller-than-the-grid"),
    ],
)
def test_external_override_needs_the_token_grid_of_one_patch_size(shape, grid):
    """The map's rows set the patch size, and that patch must tile the map
    into exactly the prediction grid; 64x32 over 4x4 tokens would need
    16-pixel rows and 8-pixel columns."""
    mu, sigma = _grids(ht=grid[0], wt=grid[1])
    ext = RadialMap(values=np.full(shape, 5.0), source_valid=np.ones(shape, bool))
    with pytest.raises(ValueError, match="incompatible with the token grid|is not divisible"):
        external_override(mu, sigma, ext, near_stat=1.0)
