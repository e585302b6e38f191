"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The Monte-Carlo and
probing criteria dominate the runtime (a few minutes on a desktop CPU).
"""

import json
import time

import numpy as np

from curverope.attention import TokenBatch, attention_forward
from curverope.camera import UcmCamera, unproject_points
from curverope.checks import run_head_gradcheck, run_loss_gradcheck
from curverope.cli import main
from curverope.formats import read_rdm1, save_trajectory, write_rdm1
from curverope.head import head_forward, head_init
from curverope.oracle import run_oracle_check
from curverope.phasor import (
    breakpoints,
    clamp_interval,
    coefficients_from_paths,
    token_paths,
    token_rays,
)
from curverope.rope import make_frequency_plan
from curverope.supervision import (
    RadialMap,
    near_distance_stat,
    normalize_and_pool,
    uncertainty_scale,
    validity_mask,
)
from curverope.teacher_mix import (
    MixSchedule,
    effective_interval,
    external_override,
    sample_mask,
    substitution_probability,
)

from util import (
    attention_init,
    mean_segment_phasor,
    oracle_bounded_coordinate,
    oracle_project,
    orbit_poses,
    random_camera,
    rope_rotation,
    segment_phasor,
    small_transform,
)

PLAN9 = make_frequency_plan(36, 9)


def _report(n, text):
    print(f"\n[PASS] criterion {n}: {text}")


def test_criterion_01_rope_collapse():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    checked = 0
    worst = 0.0
    while checked < 1000:
        cam_s = random_camera(rng)
        cam_q = random_camera(rng)
        transform = small_transform(rng)
        row, col = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        rays = token_rays(cam_s, 16)[4 * row + col]
        mu = float(rng.uniform(-1.0, 1.0))
        path = token_paths(cam_q, transform, rays, breakpoints(mu, 0.0, 5))
        if not path.valid.all():
            continue
        checked += 1
        coeffs = coefficients_from_paths(path, PLAN9)[0]
        coords = np.concatenate(
            [
                oracle_bounded_coordinate(
                    cam_q, transform.rotation, transform.translation,
                    rays[a], np.exp(mu),
                )
                for a in range(3)
            ]
        )
        expected = rope_rotation(PLAN9, coords)
        worst = max(worst, float(np.max(np.abs(coeffs - expected))))
    elapsed = time.monotonic() - start
    assert worst < 1e-9, worst
    assert elapsed < 10.0, elapsed
    _report(1, f"sigma=0 collapse to exact rotary phasors, max err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_endpoint_equivalence():
    rng = np.random.default_rng(102)
    worst = 0.0
    n = 0
    while n < 10**4:
        a, b = rng.uniform(-12.0, 12.0, 2)
        if abs(b - a) < 1e-5:
            continue
        n += 1
        got = segment_phasor(a, b)
        closed = np.array(
            [(np.sin(b) - np.sin(a)) / (b - a), (np.cos(a) - np.cos(b)) / (b - a)]
        )
        worst = max(worst, float(np.max(np.abs(got - closed))))
    assert worst < 1e-12, worst
    _report(2, f"K=2 equals the closed-form single segment, max err {worst:.2e}")


def test_criterion_03_monte_carlo_oracle():
    start = time.monotonic()
    result = run_oracle_check(
        num_configs=1000, samples=10**6, k_values=[2, 5, 129], seed=103
    )
    elapsed = time.monotonic() - start
    report = result["report"]
    assert report["max_mc_error"] < 5e-3, report
    assert report["k5_beats_k2_fraction"] >= 0.9, report
    assert elapsed < 300.0, elapsed
    _report(
        3,
        f"K=129 vs 1e6-sample MC max err {report['max_mc_error']:.2e}; "
        f"K=5 beats K=2 on {report['k5_beats_k2_fraction']:.1%}; {elapsed:.0f}s",
    )


def test_criterion_04_magnitude_bound():
    rng = np.random.default_rng(104)
    phases = np.sort(rng.uniform(-60.0, 60.0, (90000, 9)), axis=1)
    out = mean_segment_phasor(phases)
    worst = float(np.max((out**2).sum(-1)))
    # plus full-path coefficient computations across random geometry
    for _ in range(10000 // 48):
        cam_q = random_camera(rng)
        cam_s = random_camera(rng)
        row, col = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        rays = token_rays(cam_s, 16)[4 * row + col]
        mu, sigma = clamp_interval(float(rng.uniform(-2, 2)), float(rng.uniform(-3, 3)))
        path = token_paths(cam_q, small_transform(rng, 1.0, 1.0), rays, breakpoints(mu, sigma, 5))
        coeffs = coefficients_from_paths(path, PLAN9)[0]
        worst = max(worst, float(np.max((coeffs**2).sum(-1))))
    assert worst <= 1.0 + 1e-12, worst
    _report(4, f"phasor magnitude bound holds over 1e5 computations, max sq mag {worst:.12f}")


def test_criterion_05_ucm_roundtrip():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(100):
        cam = random_camera(rng)
        pixels = np.stack(
            [rng.uniform(0, cam.width, 100), rng.uniform(0, cam.height, 100)], axis=1
        )
        radii = rng.uniform(0.05, 50.0, 100)
        dirs = unproject_points(cam, pixels)
        back = np.array([oracle_project(cam, p) for p in radii[:, None] * dirs])
        worst = max(worst, float(np.max(np.abs(back - pixels))))
    assert worst < 1e-6, worst

    pin_worst = 0.0
    for _ in range(20):
        cam = random_camera(rng, xi=0.0)
        pixels = np.stack([rng.uniform(-30, 94, 200), rng.uniform(-30, 94, 200)], axis=1)
        dirs = unproject_points(cam, pixels)
        naive = np.stack(
            [
                (pixels[:, 0] - cam.cx) / cam.fx,
                (pixels[:, 1] - cam.cy) / cam.fy,
                np.ones(len(pixels)),
            ],
            axis=1,
        )
        naive /= np.linalg.norm(naive, axis=1, keepdims=True)
        pin_worst = max(pin_worst, float(np.max(np.abs(dirs - naive))))
    assert pin_worst < 1e-12, pin_worst
    _report(5, f"roundtrip max err {worst:.2e} px; pinhole agreement {pin_worst:.2e}")


def test_criterion_06_stabilization_continuity():
    rng = np.random.default_rng(106)
    worst = 0.0
    for eps in (1e-9, 1e-7, 2e-6):
        theta = rng.uniform(-40.0, 40.0, 1000)
        got = segment_phasor(theta, theta + eps)
        mid = np.stack([np.cos(theta + eps / 2), np.sin(theta + eps / 2)], axis=-1)
        worst = max(worst, float(np.max(np.abs(got - mid))))
    assert worst < 1e-6, worst
    _report(6, f"segment integral continuous across the branch, max jump {worst:.2e}")


def test_criterion_07_head_initialization():
    rng = np.random.default_rng(107)
    for d in (32, 64, 128):
        params = head_init(d, seed=int(rng.integers(0, 2**31)))
        x = np.stack([rng.normal(size=d) * rng.uniform(0.01, 100) for _ in range(100)])
        c = head_forward(params, x)
        assert np.all(c["mu"] == 0.0) and np.all(c["sigma"] == 3.0)
    _report(7, "head outputs exactly (mu=0, sigma=3) at init for d in {32, 64, 128}")


def test_criterion_08_gradient_checks():
    head = run_head_gradcheck(samples=100, d_model=48, seed=108)
    loss = run_loss_gradcheck(samples=100, seed=108)
    assert head["pass"], head
    assert loss["pass"], loss
    _report(
        8,
        f"gradients match finite differences: head {head['max_relative_error']:.2e}, "
        f"loss {loss['max_relative_error']:.2e} (rel, tol 1e-4)",
    )


def test_criterion_09_uncertainty_scale():
    s, _ = uncertainty_scale(np.array([0.0, 0.0]), np.array([0.0, 3.0]))
    assert s[0] == 1e-3
    want = np.sinh(3.0) / np.sqrt(3.0)
    got = s[1]
    assert abs(got - want) < 1e-9
    rng = np.random.default_rng(109)
    draws = np.array([(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(2000)])
    s, _ = uncertainty_scale(*clamp_interval(draws[:, 0], draws[:, 1]))
    assert np.all(s < 10.0)
    _report(9, f"s(0,0)=1e-3 exact; s(0,3)={got:.9f}; clamped intervals keep s below 10")


def test_criterion_10_zero_init_residual():
    rng = np.random.default_rng(110)
    batch = TokenBatch(features=rng.normal(size=(3, 6, 20)))
    params = attention_init(20, PLAN9.total_dim, seed=11)
    coeffs = rng.uniform(-1, 1, (3, 3, 6, PLAN9.num_pairs, 2))
    out = attention_forward(params, batch, coeffs, PLAN9)
    assert np.array_equal(out, batch.features)
    _report(10, "attention at init returns the input grid exactly for arbitrary coefficients")


def test_criterion_11_teacher_mix_safety():
    m = np.array([False, False, True, True])
    v = np.array([False, True, False, True])
    pred_mu, pred_sigma = np.full(4, 0.4), np.full(4, 0.9)
    mu, sigma = effective_interval(pred_mu, pred_sigma, np.where(v, 2.5, np.nan), m, v)
    assert abs(mu[3] - np.log(2.5)) < 1e-12 and sigma[3] == 0.1
    # every other combination keeps the prediction bit for bit
    assert mu[:3].tobytes() == pred_mu[:3].tobytes()
    assert sigma[:3].tobytes() == pred_sigma[:3].tobytes()
    # invalid rays never substituted regardless of the sampled mask
    mask = sample_mask(1.0, 64, seed=0)
    valid = np.zeros(64, bool)
    assert not (mask & valid).any()

    block = MixSchedule(mode="block_frame")
    video = MixSchedule(mode="video")
    got_b = [substitution_probability(block, s) for s in (0, 1000, 4000, 7000, 8000)]
    got_v = [substitution_probability(video, s) for s in (0, 1000, 4000, 7000, 8000)]
    assert got_b == [1.0, 1.0, 0.55, 0.1, 0.1]
    assert got_v == [1.0, 1.0, 0.75, 0.5, 0.5]
    _report(11, "teacher substitution truth table and exact schedule values hold")


def test_criterion_12_validity_filtering():
    rng = np.random.default_rng(112)
    adversarial = np.array([np.nan, 0.0, -1.0, 20.0001, 25.0, np.inf, -np.inf])
    for _ in range(200):
        vals = rng.uniform(0.5, 19.5, (1, 8, 8))
        idx = rng.choice(64, size=20, replace=False)
        flat = vals.reshape(-1)
        flat[idx] = rng.choice(adversarial, size=20)
        rmap = RadialMap(values=vals, source_valid=np.ones_like(vals, bool))
        mask = validity_mask(rmap)
        assert not mask.reshape(-1)[idx].any()
        near = near_distance_stat(rmap, mask)
        tokens = normalize_and_pool(rmap, mask, near, 4)
        if tokens.mask.any():
            assert np.all(tokens.targets[tokens.mask] * near <= 20.0)
            assert np.all(np.isfinite(tokens.targets[tokens.mask]))
            assert np.all(tokens.targets[tokens.mask] > 0)
        res = external_override(np.zeros((1, 2, 2)), np.full((1, 2, 2), 3.0), rmap, near)
        teachers = res.substituted
        assert np.all(np.exp(res.mu[teachers]) * near <= 20.0 + 1e-9)
    _report(12, "adversarial values (NaN, 0, -1, 20.0001, 25, inf) never reach targets or teachers")


def test_criterion_13_toy_probing(tmp_path):
    start = time.monotonic()
    out = tmp_path / "train"
    assert main(["train-head", "--out", str(out), "--seed", "0"]) == 0
    rows = []
    lines = (out / "probe_errors.csv").read_text().splitlines()
    import csv as _csv

    for r in _csv.DictReader(lines[1:]):
        rows.append(r)
    errors = [float(r["final_probe_error"]) for r in rows]
    reductions = [float(r["loss_reduction"]) for r in rows]
    layers = len(rows)
    best = int(np.argmin(errors))
    third = layers // 3
    assert third <= best < 2 * third, (best, errors)
    assert min(reductions) >= 0.5, reductions
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, elapsed
    _report(
        13,
        f"probe-error argmin at layer {best} (middle third {third}..{2 * third - 1}); "
        f"min loss reduction {min(reductions):.0%}; {elapsed:.0f}s",
    )


def test_criterion_14_determinism_and_roundtrips(tmp_path):
    cam = UcmCamera(56.0, 56.0, 32.0, 32.0, 0.5, 64, 64)
    poses = orbit_poses(2, 0.2)
    traj = tmp_path / "traj.json"
    save_trajectory(traj, cam, poses)
    small = tmp_path / "small.json"
    small.write_text(
        json.dumps(
            {
                "trajectory": str(traj),
                "oracle": {"num_configs": 3, "samples": 50000},
                "gradcheck": {"samples": 20},
                "train": {"num_layers": 2, "steps": 100, "d_model": 32},
            }
        )
    )
    pairs = []
    for cmd in ("coeffs", "trace-path", "mix-sim", "gradcheck", "oracle-check", "train-head"):
        a, b = tmp_path / f"{cmd}-a", tmp_path / f"{cmd}-b"
        assert main([cmd, "--config", str(small), "--out", str(a), "--seed", "7"]) == 0
        assert main([cmd, "--config", str(small), "--out", str(b), "--seed", "7"]) == 0
        for f in sorted(a.iterdir()):
            other = b / f.name
            assert other.exists()
            assert f.read_bytes() == other.read_bytes(), f.name
            pairs.append(f.name)

    rng = np.random.default_rng(114)
    vals = rng.uniform(0.1, 30.0, (3, 8, 8))
    valid = rng.random((3, 8, 8)) > 0.25
    rmap = RadialMap(values=np.where(valid, vals, np.nan), source_valid=valid)
    p1, p2 = tmp_path / "m1.rdm1", tmp_path / "m2.rdm1"
    write_rdm1(p1, rmap)
    back = read_rdm1(p1)
    assert np.array_equal(back.source_valid, rmap.source_valid)
    assert np.array_equal(
        back.values[back.source_valid],
        rmap.values[rmap.source_valid].astype(np.float32).astype(float),
    )
    write_rdm1(p2, back)
    assert p1.read_bytes() == p2.read_bytes()
    _report(14, f"byte-identical outputs for {len(pairs)} files; RDM1 write/read bit-exact")
