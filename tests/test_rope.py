import numpy as np
import pytest

from curverope.rope import FrequencyPlan, apply_coefficients, make_frequency_plan

from util import pair_slice, rope_rotation


def _unit(n):
    """A plan whose rope_rotation maps n raw phases to their unit phasors."""
    return FrequencyPlan(n, np.ones(1))


def test_frequency_plan_values():
    plan = make_frequency_plan(4, 1, base=10000.0)
    assert np.allclose(plan.frequencies, [1.0, 0.01])


def test_frequency_plan_partition():
    plan = make_frequency_plan(12, 3, base=10000.0)
    assert plan.num_coordinates == 3
    assert plan.frequencies.size == 2
    for i in range(3):
        pairs = pair_slice(plan, i)
        assert 2 * (pairs.stop - pairs.start) == 4
        assert 2 * pairs.start == 4 * i


def test_frequency_plan_indivisible():
    with pytest.raises(ValueError):
        make_frequency_plan(10, 3)


def _complex(coeffs):
    return coeffs[..., 0] + 1j * coeffs[..., 1]


def test_phases_zero_coords():
    plan = make_frequency_plan(12, 3)
    assert np.all(rope_rotation(plan, np.zeros(3)) == [1.0, 0.0])


def test_phases_single_coordinate():
    plan = make_frequency_plan(4, 1)
    x = 2.7
    phases = np.array([x, 0.01 * x])
    assert np.allclose(rope_rotation(plan, [x]), np.stack([np.cos(phases), np.sin(phases)], axis=-1))


def test_phases_linearity():
    """Doubling the coordinates doubles every phase: each phasor squares."""
    plan = make_frequency_plan(12, 3)
    rng = np.random.default_rng(0)
    x = rng.normal(size=3)
    assert np.allclose(_complex(rope_rotation(plan, 2 * x)), _complex(rope_rotation(plan, x)) ** 2, atol=1e-12)


def test_phases_length_mismatch():
    plan = make_frequency_plan(12, 3)
    with pytest.raises(ValueError):
        rope_rotation(plan, [1.0, 2.0])


def test_exact_rotation_values():
    assert np.allclose(rope_rotation(_unit(1), [0.0]), [[1, 0]], atol=1e-15)
    assert np.allclose(rope_rotation(_unit(1), [np.pi / 2]), [[0, 1]], atol=1e-15)
    rng = np.random.default_rng(1)
    theta = rng.uniform(-50, 50, 1000)
    rot = rope_rotation(_unit(1000), theta)
    assert np.max(np.abs((rot**2).sum(-1) - 1)) < 1e-12


def test_apply_identity_coefficients():
    plan = make_frequency_plan(8, 2)
    rng = np.random.default_rng(2)
    vec = rng.normal(size=8)
    ident = np.tile([1.0, 0.0], (plan.num_pairs, 1))
    assert np.array_equal(apply_coefficients(vec, ident, plan), vec)


def test_apply_rotation_preserves_pair_norms():
    plan = make_frequency_plan(8, 2)
    rng = np.random.default_rng(3)
    vec = rng.normal(size=8)
    coeffs = rope_rotation(_unit(plan.num_pairs), rng.uniform(-10, 10, plan.num_pairs))
    out = apply_coefficients(vec, coeffs, plan)
    before = vec[0::2] ** 2 + vec[1::2] ** 2
    after = out[0::2] ** 2 + out[1::2] ** 2
    assert np.max(np.abs(before - after)) < 1e-12


def test_apply_scaling_coefficients():
    plan = make_frequency_plan(8, 2)
    rng = np.random.default_rng(4)
    vec = rng.normal(size=8)
    m = rng.uniform(0, 1, plan.num_pairs)
    coeffs = m[:, None] * rope_rotation(_unit(plan.num_pairs), rng.uniform(-5, 5, plan.num_pairs))
    out = apply_coefficients(vec, coeffs, plan)
    before = np.sqrt(vec[0::2] ** 2 + vec[1::2] ** 2)
    after = np.sqrt(out[0::2] ** 2 + out[1::2] ** 2)
    assert np.allclose(after, m * before, atol=1e-12)


def test_apply_dimension_mismatch():
    plan = make_frequency_plan(8, 2)
    with pytest.raises(ValueError):
        apply_coefficients(np.zeros(6), np.tile([1.0, 0.0], (4, 1)), plan)


def test_apply_linear_in_vector():
    plan = make_frequency_plan(8, 1)
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=8), rng.normal(size=8)
    coeffs = rope_rotation(_unit(4), rng.uniform(-3, 3, 4))
    lhs = apply_coefficients(2.0 * a + 3.0 * b, coeffs, plan)
    rhs = 2.0 * apply_coefficients(a, coeffs, plan) + 3.0 * apply_coefficients(b, coeffs, plan)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_relative_phase_property():
    """Inner products after exact rotations depend only on phase differences."""
    plan = make_frequency_plan(8, 1)
    rng = np.random.default_rng(6)
    q, k = rng.normal(size=8), rng.normal(size=8)
    for _ in range(20):
        tq, tk, shift = rng.uniform(-20, 20, 3)
        base = apply_coefficients(q, rope_rotation(plan, [tq]), plan) @ (
            apply_coefficients(k, rope_rotation(plan, [tk]), plan)
        )
        moved = apply_coefficients(q, rope_rotation(plan, [tq + shift]), plan) @ apply_coefficients(
            k, rope_rotation(plan, [tk + shift]), plan
        )
        assert abs(base - moved) < 1e-9


def test_channel_group_disjointness():
    plan = make_frequency_plan(12, 3)
    rng = np.random.default_rng(7)
    vec = rng.normal(size=12)
    coords = rng.normal(size=3)
    out = apply_coefficients(vec, rope_rotation(plan, coords), plan)
    bumped = coords.copy()
    bumped[1] += 0.5
    out2 = apply_coefficients(vec, rope_rotation(plan, bumped), plan)
    changed = np.abs(out - out2) > 0
    pairs = pair_slice(plan, 1)
    lo, hi = 2 * pairs.start, 2 * pairs.stop
    assert changed[lo:hi].any()
    assert not changed[:lo].any() and not changed[hi:].any()
