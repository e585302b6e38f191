import numpy as np
import pytest

from curverope.attention import AttentionParams, TokenBatch, attention_forward
from curverope.camera import RigidTransform
from curverope.phasor import breakpoints, coefficients_from_paths, token_paths, token_rays
from curverope.rope import FrequencyPlan, apply_coefficients, make_frequency_plan

from util import attention_init, oracle_bounded_coordinate, random_camera, rope_rotation, small_transform

PLAN = make_frequency_plan(36, 9)
D = PLAN.total_dim
# rope_rotation(UNIT, phases) are the unit phasors of one phase per pair.
UNIT = FrequencyPlan(PLAN.num_pairs, np.ones(1))


def _batch(rng, frames=2, patches=4, d_model=12):
    return TokenBatch(features=rng.normal(size=(frames, patches, d_model)))


def _random_coeffs(rng, frames, patches):
    mags = rng.uniform(0, 1, (frames, frames, patches, PLAN.num_pairs, 1))
    return mags * rope_rotation(UNIT, rng.uniform(-5, 5, (frames, frames, patches, PLAN.num_pairs)))


def test_zero_init_output_is_identity():
    rng = np.random.default_rng(0)
    batch = _batch(rng)
    params = attention_init(12, D, seed=1)
    out = attention_forward(params, batch, _random_coeffs(rng, 2, 4), PLAN)
    assert np.array_equal(out, batch.features)


def test_uniform_attention_with_identity_coeffs_and_equal_features():
    rng = np.random.default_rng(1)
    feat = rng.normal(size=12)
    batch = TokenBatch(features=np.tile(feat, (2, 4, 1)))
    params = attention_init(12, D, seed=2)
    params.wo = rng.normal(size=(D, 12))
    ident = np.tile([1.0, 0.0], (2, 2, 4, PLAN.num_pairs, 1))
    out = attention_forward(params, batch, ident, PLAN)
    # uniform weights average identical values: out = feat + wo^T (wv^T feat)
    expected = feat + (feat @ params.wv) @ params.wo
    assert np.allclose(out, np.tile(expected, (2, 4, 1)), atol=1e-12)


def test_single_token():
    rng = np.random.default_rng(2)
    feat = rng.normal(size=12)
    batch = TokenBatch(features=feat[None, None, :])
    params = attention_init(12, D, seed=3)
    params.wo = rng.normal(size=(D, 12))
    out = attention_forward(params, batch, _random_coeffs(rng, 1, 1), PLAN)
    # the softmax over one key gives weight 1 regardless of the coefficients
    expected = feat + (feat @ params.wv) @ params.wo
    assert np.allclose(out[0, 0], expected, atol=1e-12)


def test_softmax_rows_sum_to_one():
    from curverope.attention import _softmax_rows

    rng = np.random.default_rng(3)
    logits = rng.normal(scale=50, size=(8, 30))
    attn = _softmax_rows(logits)
    assert np.max(np.abs(attn.sum(-1) - 1.0)) < 1e-9
    assert np.all(attn >= 0)


def test_sigma_zero_matches_exact_rope_logits():
    """With degenerate intervals the modulated logits equal exact key-side
    rotations at the single projected coordinates."""
    rng = np.random.default_rng(4)
    frames, patch_size = 2, 16
    cam = random_camera(rng)
    tokens = [(r, c) for r in range(2) for c in range(2)]
    poses = [RigidTransform(np.eye(3), np.zeros(3)), small_transform(rng)]
    d_model = 10
    batch = TokenBatch(features=rng.normal(size=(frames, len(tokens), d_model)))
    params = attention_init(d_model, D, seed=5)
    mu = rng.uniform(-1, 1, (frames, len(tokens)))

    coeffs = np.empty((frames, frames, len(tokens), PLAN.num_pairs, 2))
    exact = np.empty_like(coeffs)
    from curverope.camera import relative_transform

    for qf in range(frames):
        for sf in range(frames):
            rel = relative_transform(poses[sf], poses[qf])
            for p, (r, c) in enumerate(tokens):
                rays = token_rays(cam, patch_size)[4 * r + c]
                path = token_paths(cam, rel, rays, breakpoints(mu[sf, p], 0.0, 5))
                coeffs[qf, sf, p] = coefficients_from_paths(path, PLAN)[0]
                coords = np.concatenate(
                    [
                        oracle_bounded_coordinate(
                            cam, rel.rotation, rel.translation, rays[a], np.exp(mu[sf, p])
                        )
                        for a in range(3)
                    ]
                )
                exact[qf, sf, p] = rope_rotation(PLAN, coords)

    q = batch.features @ params.wq
    k = batch.features @ params.wk
    for qf in range(frames):
        km = apply_coefficients(k, coeffs[qf], PLAN).reshape(-1, D)
        ke = apply_coefficients(k, exact[qf], PLAN).reshape(-1, D)
        logits_modulated = q[qf] @ km.T / np.sqrt(D)
        logits_exact = q[qf] @ ke.T / np.sqrt(D)
        assert np.max(np.abs(logits_modulated - logits_exact)) < 1e-9


def test_permutation_equivariance():
    rng = np.random.default_rng(5)
    frames, patches, d_model = 3, 5, 8
    batch = TokenBatch(features=rng.normal(size=(frames, patches, d_model)))
    params = attention_init(d_model, D, seed=6)
    params.wo = rng.normal(size=(D, d_model))
    coeffs = _random_coeffs(rng, frames, patches)
    out = attention_forward(params, batch, coeffs, PLAN)

    perm = rng.permutation(frames)
    batch_p = TokenBatch(features=batch.features[perm])
    coeffs_p = coeffs[perm][:, perm]
    out_p = attention_forward(params, batch_p, coeffs_p, PLAN)
    assert np.max(np.abs(out_p - out[perm])) < 1e-12


def test_modulate_key_identity():
    """Keys are modulated by rope.apply_coefficients, as attention_forward does."""
    rng = np.random.default_rng(6)
    key = rng.normal(size=D)
    ident = np.tile([1.0, 0.0], (PLAN.num_pairs, 1))
    assert np.array_equal(apply_coefficients(key, ident, PLAN), key)


def test_modulate_key_zero_coefficient_annihilates_pair():
    rng = np.random.default_rng(7)
    key = rng.normal(size=D)
    coeffs = np.tile([1.0, 0.0], (PLAN.num_pairs, 1))
    coeffs[3] = [0.0, 0.0]
    out = apply_coefficients(key, coeffs, PLAN)
    assert out[6] == 0.0 and out[7] == 0.0
    mask = np.ones(D, bool)
    mask[6:8] = False
    assert np.array_equal(out[mask], key[mask])


def test_modulate_key_unit_magnitude_preserves_norm():
    rng = np.random.default_rng(8)
    key = rng.normal(size=D)
    coeffs = rope_rotation(UNIT, rng.uniform(-8, 8, PLAN.num_pairs))
    assert abs(np.linalg.norm(apply_coefficients(key, coeffs, PLAN)) - np.linalg.norm(key)) < 1e-12


def test_dimension_errors():
    rng = np.random.default_rng(9)
    batch = _batch(rng)
    params = attention_init(12, D, seed=10)
    with pytest.raises(ValueError):
        attention_forward(params, batch, np.zeros((2, 2, 3, PLAN.num_pairs, 2)), PLAN)
    with pytest.raises(ValueError):
        apply_coefficients(np.zeros(D - 2), np.tile([1.0, 0.0], (PLAN.num_pairs, 1)), PLAN)
    with pytest.raises(ValueError):
        # a head dim other than the plan's fails before any key is modulated
        narrow = attention_init(12, D - 2, seed=10)
        attention_forward(narrow, batch, np.zeros((2, 2, 4, PLAN.num_pairs, 2)), PLAN)


def test_attention_params_validation():
    with pytest.raises(ValueError):
        AttentionParams(
            wq=np.zeros((8, 4)), wk=np.zeros((8, 4)), wv=np.zeros((8, 6)), wo=np.zeros((4, 8))
        )
