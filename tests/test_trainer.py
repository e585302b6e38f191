from dataclasses import replace

import numpy as np
import pytest

from curverope import scene, trainer
from curverope.head import HeadParams, head_backward, head_forward
from curverope.scene import make_layer_features
from curverope.supervision import RadialMap, TokenTargets, normalize_and_pool, uncertainty_scale
from curverope.trainer import DivergenceError, run_layer_probe, train_head_on_tokens

from util import reference_train_head_on_tokens


def _iid_targets(seed=7, frames=2, side=8):
    """Spatially incoherent targets: positional features carry no depth."""
    rng = np.random.default_rng(seed)
    vals = np.exp(rng.uniform(-0.8, 0.8, (frames, side, side)))
    return TokenTargets(targets=vals, mask=np.ones_like(vals, bool))


def _norm(fields):
    """Global gradient norm of each slot, as the single-head trainer summed it."""
    arrays = [a for _, a in fields]
    return np.array([
        np.sqrt(sum(float((a[i] * a[i]).sum()) for a in arrays)) for i in range(len(arrays[0]))
    ])


def test_signal_case_recovers_targets(monkeypatch):
    targets = _iid_targets()
    flat = targets.targets.reshape(-1)
    monkeypatch.setattr(scene, "depth_signal_weight", lambda layer, num_layers: 1.0)
    monkeypatch.setattr(scene, "_FEATURE_NOISE", 0.0)
    feats = make_layer_features(targets, 12, 64, seed=0)[5:6]
    [(_, stats)] = train_head_on_tokens(feats, flat, 2000, seed=0)
    assert stats["loss_reduction"] >= 0.9
    assert stats["final_probe_error"] < 0.15 * stats["init_probe_error"]
    assert stats["final_probe_error"] < 0.08


def test_null_case_no_probe_improvement(monkeypatch):
    targets = _iid_targets()
    flat = targets.targets.reshape(-1)
    monkeypatch.setattr(scene, "depth_signal_weight", lambda layer, num_layers: 0.0)
    monkeypatch.setattr(scene, "_FEATURE_NOISE", 0.1)
    feats = make_layer_features(targets, 12, 64, seed=0)[5:6]
    [(_, stats)] = train_head_on_tokens(feats, flat, 2000, seed=0)
    reduction = 1.0 - stats["final_probe_error"] / stats["init_probe_error"]
    assert reduction < 0.05


def test_training_deterministic(monkeypatch):
    monkeypatch.setattr(scene, "_FEATURE_NOISE", 0.1)
    targets = _iid_targets()
    flat = targets.targets.reshape(-1)
    feats = make_layer_features(targets, 6, 32, seed=1)[2:3]
    [(p1, s1)] = train_head_on_tokens(feats, flat, 200, seed=4)
    [(p2, s2)] = train_head_on_tokens(feats, flat, 200, seed=4)
    assert s1["final_loss"] == s2["final_loss"]
    for (_, a), (_, b) in zip(p1.field_arrays(), p2.field_arrays()):
        assert np.array_equal(a, b)


def test_training_curve_recorded(monkeypatch):
    monkeypatch.setattr(scene, "_FEATURE_NOISE", 0.1)
    targets = _iid_targets()
    flat = targets.targets.reshape(-1)
    feats = make_layer_features(targets, 6, 32, seed=1)[2:3]
    [(_, stats)] = train_head_on_tokens(feats, flat, 100, seed=0, record_every=25)
    steps = [s for s, _ in stats["curve"]]
    assert steps == [0, 25, 50, 75, 99]
    assert stats["curve"][0][1] == stats["init_loss"]


def test_layer_probe_prefers_mid_stack():
    targets = _iid_targets(seed=9)
    rows = run_layer_probe(targets, num_layers=6, d_model=48, steps=800, seed=0)
    errs = [r.final_probe_error for r in rows]
    best = int(np.argmin(errs))
    assert best in (2, 3)
    assert all(r.loss_reduction >= 0.5 for r in rows)


def test_probe_requires_valid_tokens():
    empty = TokenTargets(targets=np.zeros((1, 2, 2)), mask=np.zeros((1, 2, 2), bool))
    # Targets pooled from a map whose every pixel is invalid.
    values = np.full((2, 16, 16), np.nan)
    pooled = normalize_and_pool(
        RadialMap(values=values, source_valid=np.zeros(values.shape, bool)),
        np.zeros(values.shape, bool), 1.0, 8,
    )
    for targets in (empty, pooled):
        with pytest.raises(ValueError, match="no valid tokens to probe"):
            run_layer_probe(targets, num_layers=2, d_model=16, steps=10, seed=0)


@pytest.mark.parametrize("steps", [0, -3])
def test_rejects_step_counts_below_one(steps):
    with pytest.raises(ValueError, match="steps"):
        train_head_on_tokens(np.zeros((1, 4, 16)), np.ones(4), steps, seed=0)


def test_probe_rejects_zero_layers():
    with pytest.raises(ValueError, match="num_layers"):
        run_layer_probe(_iid_targets(), num_layers=0, d_model=16, steps=10, seed=0)


def test_rejects_nonpositive_targets():
    batch = np.zeros((1, 4, 16))
    with pytest.raises(ValueError):
        train_head_on_tokens(batch, np.array([1.0, 2.0, 0.0, 3.0]), 10, seed=0)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_rejects_non_finite_targets(bad):
    with pytest.raises(ValueError, match="finite"):
        train_head_on_tokens(np.zeros((1, 4, 16)), np.array([1.0, bad, 2.0, 3.0]), 10, seed=0)


def test_probe_ignores_masked_out_targets():
    """Only the valid tokens count: targets that differ only where the mask
    is off give the same probe, bit for bit."""
    rng = np.random.default_rng(6)
    vals = np.exp(rng.uniform(-0.8, 0.8, (2, 6, 6)))
    mask = rng.random(vals.shape) > 0.3
    runs = [
        run_layer_probe(
            TokenTargets(targets=np.where(mask, vals, fill), mask=mask),
            num_layers=3, d_model=16, steps=60, seed=2, record_every=20,
        )
        for fill in (0.0, 1e30)
    ]
    for a, b in zip(*runs):
        assert {k: v for k, v in vars(a).items() if k != "params"} == {
            k: v for k, v in vars(b).items() if k != "params"
        }
        for (name, x), (_, y) in zip(a.params.field_arrays(), b.params.field_arrays()):
            assert x.tobytes() == y.tobytes(), name


def test_fused_step_gradients_equal_fresh_head_backward(monkeypatch):
    """Each stacked step's backward reuses its forward cache over the
    features normalised once; the parameter gradients it applies equal
    head_backward on a fresh head_forward of the raw training features bit
    for bit, for the stack and for each slot alone."""
    monkeypatch.setattr(scene, "_FEATURE_NOISE", 0.1)
    targets = _iid_targets()
    feats = make_layer_features(targets, 6, 32, seed=1)[1:4]
    calls, normalised = [], []
    fused, layer_norm = trainer.head_backward, trainer.head_layer_norm

    def norm_spy(x):
        normalised.append(x.copy())
        return layer_norm(x)

    def spy(params, cache, gm, gs, out, work):
        g = fused(params, cache, gm, gs, out=out, work=work)
        frozen = HeadParams(*(a.copy() for _, a in params.field_arrays()))
        calls.append((frozen, gm.copy(), gs.copy(), HeadParams(*(a.copy() for _, a in g.field_arrays()))))
        return g

    monkeypatch.setattr(trainer, "head_layer_norm", norm_spy)
    monkeypatch.setattr(trainer, "head_backward", spy)
    train_head_on_tokens(feats, targets.targets.reshape(-1), 60, seed=3)
    assert len(calls) == 60 and len(normalised) == 1
    for params, gm, gs, g in calls[::10] + calls[-1:]:
        want = head_backward(params, head_forward(params, normalised[0]), gm, gs)
        for name, grad in want.field_arrays():
            assert np.array_equal(getattr(g, name), grad), name
        for i in range(len(feats)):
            slot = HeadParams(*(a[i] for _, a in params.field_arrays()))
            alone = head_backward(slot, head_forward(slot, normalised[0][i]), gm[i], gs[i])
            for name, grad in alone.field_arrays():
                assert getattr(g, name)[i].tobytes() == grad.tobytes(), (i, name)


def test_hoisted_normalisation_matches_per_step_forward(monkeypatch):
    """Normalising the training features once gives the same parameters and
    curve as a loop that runs head_forward on the raw features every step."""
    monkeypatch.setattr(scene, "_FEATURE_NOISE", 0.1)
    targets = _iid_targets()
    feats = make_layer_features(targets, 6, 32, seed=1)[2:3]
    flat = targets.targets.reshape(-1)
    [(hoisted, s1)] = train_head_on_tokens(feats, flat, 200, seed=4, record_every=10)
    per_step = []

    def forward_from_raw(params, x, work):
        per_step.append(x)
        return head_forward(params, x)

    # The reference loop hands the raw features to head_forward each step.
    monkeypatch.setattr(trainer, "head_layer_norm", lambda x: (None, x))
    monkeypatch.setattr(trainer, "head_forward_normalized", forward_from_raw)
    [(reference, s2)] = train_head_on_tokens(feats, flat, 200, seed=4, record_every=10)
    assert len(per_step) == 200
    assert s1 == s2
    for (name, a), (_, b) in zip(hoisted.field_arrays(), reference.field_arrays()):
        assert a.tobytes() == b.tobytes(), name


def test_gradient_norm_counters(monkeypatch):
    """max_grad_norm is each slot's largest pre-clip global norm;
    clipped_step_fraction counts the steps whose norm exceeded the clip norm."""
    monkeypatch.setattr(scene, "_FEATURE_NOISE", 0.1)
    monkeypatch.setattr(trainer, "_LR", 1e-3)
    targets = _iid_targets()
    feats = make_layer_features(targets, 6, 32, seed=1)[1:4]
    flat = targets.targets.reshape(-1)
    exact_backward = trainer.head_backward
    norms = []

    def backward_spy(*args, **kwargs):
        g = exact_backward(*args, **kwargs)
        norms.append(_norm(g.field_arrays()))
        return g

    monkeypatch.setattr(trainer, "head_backward", backward_spy)
    for clip_norm, fraction in ((1e-9, 1.0), (1e9, 0.0)):
        norms.clear()
        monkeypatch.setattr(trainer, "_CLIP_NORM", clip_norm)
        trained = train_head_on_tokens(feats, flat, 40, seed=0)
        assert len(norms) == 40
        for i, (_, stats) in enumerate(trained):
            assert stats["clipped_step_fraction"] == fraction
            assert stats["max_grad_norm"] == max(n[i] for n in norms) > 0


def _diverge_at_step_3(monkeypatch, slots):
    """Spies on the loss and the backward; step 3's loss is made NaN in
    ``slots``. Returns the losses and gradient norms seen, one row per step."""
    losses, norms = [], []
    exact_loss, exact_backward = trainer.radial_loss, trainer.head_backward

    def loss_spy(*args):
        res = exact_loss(*args)
        losses.append(res.loss.copy())
        if len(losses) == 4:
            loss = res.loss.copy()
            loss[slots] = np.nan
            return replace(res, loss=loss)
        return res

    def backward_spy(*args, **kwargs):
        g = exact_backward(*args, **kwargs)
        norms.append(_norm(g.field_arrays()))
        return g

    monkeypatch.setattr(trainer, "radial_loss", loss_spy)
    monkeypatch.setattr(trainer, "head_backward", backward_spy)
    return losses, norms


def test_divergence_reports_last_finite_loss_and_gradient_norm(monkeypatch):
    """The clamped head keeps real losses finite, so step 3's loss is made NaN."""
    monkeypatch.setattr(scene, "_FEATURE_NOISE", 0.1)
    targets = _iid_targets()
    feats = make_layer_features(targets, 6, 32, seed=1)[2:3]
    losses, norms = _diverge_at_step_3(monkeypatch, [0])
    with pytest.raises(DivergenceError) as info:
        train_head_on_tokens(feats, targets.targets.reshape(-1), 10, seed=0)
    err = info.value
    assert err.step == 3 and err.layer == 0 and len(norms) == 3
    assert err.last_finite_loss == losses[2][0]
    assert err.last_grad_norm == norms[2][0] > 0
    assert repr(err.last_finite_loss) in str(err) and repr(err.last_grad_norm) in str(err)


def test_divergence_names_the_lowest_diverging_slot(monkeypatch):
    """Slots 1 and 3 of four diverge at step 3 while slots 0 and 2 stay
    finite: the error names slot 1 with slot 1's last loss and norm."""
    monkeypatch.setattr(scene, "_FEATURE_NOISE", 0.1)
    targets = _iid_targets()
    feats = make_layer_features(targets, 6, 32, seed=1)[1:5]
    losses, norms = _diverge_at_step_3(monkeypatch, [1, 3])
    with pytest.raises(DivergenceError) as info:
        train_head_on_tokens(feats, targets.targets.reshape(-1), 10, seed=0)
    err = info.value
    assert err.step == 3 and err.layer == 1 and len(norms) == 3
    assert np.isfinite(losses[3][0]) and np.isfinite(losses[3][2])
    assert err.last_finite_loss == losses[2][1]
    assert err.last_grad_norm == norms[2][1] > 0
    assert err.last_grad_norm != norms[2][0]
    assert "layer 1" in str(err)
    assert repr(err.last_finite_loss) in str(err) and repr(err.last_grad_norm) in str(err)


@pytest.mark.parametrize("num_layers", [1, 3, 5])
def test_lockstep_training_matches_the_single_head_trainer_bit_for_bit(num_layers, monkeypatch):
    """Training an L-slot stack in lockstep gives every slot the parameter
    bytes, stats and curve of the single-head trainer run on that slot's
    features alone. 150 steps at lr 0.01 span the 30-step warmup, clipped
    and unclipped steps and a curve recorded every 40 steps plus the last."""
    monkeypatch.setattr(scene, "_FEATURE_NOISE", 0.1)
    targets = _iid_targets()
    feats = make_layer_features(targets, num_layers, 32, seed=1)
    flat = targets.targets.reshape(-1)
    trained = train_head_on_tokens(feats, flat, 150, seed=4, record_every=40)
    assert len(trained) == num_layers
    fractions = set()
    for i, (params, stats) in enumerate(trained):
        want_params, want_stats = reference_train_head_on_tokens(feats[i], flat, 150, trainer._LR, seed=4, record_every=40)
        stalls = stats["stalls"]
        assert {k: v for k, v in stats.items() if k != "stalls"} == want_stats
        assert [s for s, _ in stats["curve"]] == [0, 40, 80, 120, 149]
        assert set(stalls) == {"s_floor", "sigma_cap", "mu_clamp"}
        fractions.add(stats["clipped_step_fraction"])
        for (name, a), (_, b) in zip(params.field_arrays(), want_params.field_arrays()):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), (i, name)
    assert all(0.0 < f < 1.0 for f in fractions)


def test_stall_fractions_describe_the_final_step(monkeypatch):
    """stalls holds, per slot, the fraction of training tokens at the s floor,
    the sigma cap and the mu clamp in the last step's forward.

    The heads start with outputs spread over all three regions and train at
    the default step size, so every token ends at least 2e-3 from each
    region's edge and the counts are the same at every NumPy dispatch level
    (a step size of 1 makes the trajectory chaotic, and where it ends
    depends on the last bits of the SIMD kernels)."""
    monkeypatch.setattr(scene, "_FEATURE_NOISE", 0.1)
    init = trainer.head_init

    def spread_init(d_model, seed):
        params = init(d_model, seed)
        params.w2 = np.random.default_rng(seed).normal(0.0, 3.0, size=params.w2.shape)
        params.b2 = np.array([0.0, 1.0])
        return params

    monkeypatch.setattr(trainer, "head_init", spread_init)
    targets = _iid_targets()
    feats = make_layer_features(targets, 4, 32, seed=1)
    caches = []
    forward = trainer.head_forward_normalized

    def forward_spy(params, xhat, work):
        cache = forward(params, xhat, work)
        # The cache's arrays live in the trainer's work dict, which the
        # next step overwrites, so the spy keeps copies.
        caches.append({k: v.copy() for k, v in cache.items()})
        return cache

    monkeypatch.setattr(trainer, "head_forward_normalized", forward_spy)
    trained = train_head_on_tokens(feats, targets.targets.reshape(-1), 30, seed=2)

    def stall_masks(cache):
        _, floored = uncertainty_scale(cache["mu"], cache["sigma"])
        return {"s_floor": floored, "sigma_cap": ~cache["sigma_active"], "mu_clamp": ~cache["mu_active"]}

    masks = stall_masks(caches[-1])
    n_train = caches[-1]["mu"].shape[-1]
    for i, (_, stats) in enumerate(trained):
        assert stats["stalls"] == {k: np.count_nonzero(m[i]) / n_train for k, m in masks.items()}
    for key in masks:
        assert any(stats["stalls"][key] > 0 for _, stats in trained), key
    # Training moved tokens between regions: the first step's counts differ.
    first = stall_masks(caches[0])
    assert any(np.count_nonzero(first[k]) != np.count_nonzero(m) for k, m in masks.items())


def test_runs_of_other_shapes_leave_no_trace(monkeypatch):
    """Each run allocates its own work arrays: runs of two stack shapes
    (L, N), interleaved in one process, give each run's bytes as it gave
    them first."""
    monkeypatch.setattr(scene, "_FEATURE_NOISE", 0.1)
    targets = _iid_targets()
    flat = targets.targets.reshape(-1)
    feats = make_layer_features(targets, 4, 32, seed=1)
    shapes = {"a": (slice(0, 3), slice(None)), "b": (slice(1, 3), slice(0, 90))}

    def run(key):
        slots, tokens = shapes[key]
        trained = train_head_on_tokens(feats[slots, tokens], flat[tokens], 60, seed=5, record_every=20)
        return [
            ([a.tobytes() for _, a in params.field_arrays()], stats) for params, stats in trained
        ]

    first = {key: run(key) for key in ("a", "b")}
    assert len(first["a"]) == 3 and len(first["b"]) == 2
    for key in ("b", "a", "b"):
        assert run(key) == first[key], key
