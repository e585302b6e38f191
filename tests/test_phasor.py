from dataclasses import replace

import numpy as np
import pytest

from curverope.camera import Ray, RigidTransform, UcmCamera, relative_transform, unproject_points
from curverope.phasor import (
    ProjectedPath,
    RadialInterval,
    breakpoints,
    clamp_interval,
    coefficients_from_paths,
    projected_path,
    token_paths,
    token_rays,
)
from curverope.rope import FrequencyPlan, make_frequency_plan

from util import (
    exact_expected_phasor,
    mean_segment_phasor,
    oracle_bounded_coordinate,
    oracle_valid,
    pair_slice,
    random_camera,
    reference_mc_expected_phasor,
    rope_rotation,
    rot_y,
    segment_phasor,
    small_transform,
    take_along_axis_coefficients,
)

IDENTITY = RigidTransform(np.eye(3), np.zeros(3))


def _token_coefficients(cam_q, transform, rays, mu, sigma, plan, k):
    """Coefficients of one token from its (offsets, 3) rays, shape (D/2, 2)."""
    path = token_paths(cam_q, transform, rays, breakpoints(mu, sigma, k))
    return coefficients_from_paths(path, plan)[0]


def test_interval_clamp():
    assert clamp_interval(5.0, 1.0) == (3.0, 0.0)
    assert clamp_interval(1.0, 10.0) == (1.0, 2.0)
    assert clamp_interval(0.0, 3.0) == (0.0, 3.0)
    mu, sigma = clamp_interval(-1.0, -5.0)
    assert mu == -1.0 and sigma == -2.0


def test_clamp_interval_matches_each_former_clamp_bit_for_bit():
    """The one array clamp equals the head's where-form, the former scalar
    form and the teacher form on edge and random values."""
    b = 3.0
    rng = np.random.default_rng(11)
    mu = np.concatenate([[0.0, -0.0, 3.0, -3.0, 4.0, -4.0, 1.0, 1.0, -2.5, 0.5], rng.uniform(-5, 5, 400)])
    sigma = np.concatenate([[0.0, -0.0, 1.0, -1.0, 0.0, 2.0, 2.0, -2.0, -0.5, 2.5], rng.uniform(-5, 5, 400)])
    got_mu, got_sigma = clamp_interval(mu, sigma)

    head_mu = np.clip(mu, -b, b)
    cap = b - np.abs(head_mu)
    head_sigma = np.where(np.abs(sigma) <= cap, sigma, np.copysign(cap, sigma))
    assert got_mu.tobytes() == head_mu.tobytes()
    assert got_sigma.tobytes() == head_sigma.tobytes()

    for m, s, gm, gs in zip(mu, sigma, got_mu, got_sigma):
        scalar_mu = float(np.clip(m, -b, b))
        scalar_sigma = float(np.copysign(min(abs(s), b - abs(scalar_mu)), s))
        assert np.array([scalar_mu, scalar_sigma]).tobytes() == np.array([gm, gs]).tobytes()

    teacher_mu, teacher_sigma = clamp_interval(mu, 0.1)
    assert teacher_mu.tobytes() == head_mu.tobytes()
    assert teacher_sigma.tobytes() == np.minimum(0.1, b - np.abs(head_mu)).tobytes()


def test_clamp_interval_mu_gives_the_np_clip_bytes():
    """The mu clamp minimum(maximum(mu, -3), 3) gives np.clip's bytes on
    signed zeros, the bounds and their inner neighbours, the infinities,
    NaN and normal draws."""
    b = 3.0
    edges = [0.0, -0.0, b, -b, np.nextafter(b, 0.0), np.nextafter(-b, 0.0), np.inf, -np.inf, np.nan]
    mu = np.concatenate([edges, np.random.default_rng(12).normal(0.0, 2.0, 10**5)])
    got_mu, _ = clamp_interval(mu, 1.0)
    assert got_mu.tobytes() == np.clip(mu, -b, b).tobytes()
    for m in edges:
        assert np.float64(clamp_interval(m, 1.0)[0]).tobytes() == np.float64(np.clip(m, -b, b)).tobytes()


def test_breakpoints_degenerate():
    assert np.array_equal(breakpoints(0.0, 0.0, 5), np.ones(5))


def test_breakpoints_wide():
    r = breakpoints(0.0, 3.0, 5)
    assert np.allclose(r, np.exp([-3.0, -1.5, 0.0, 1.5, 3.0]), atol=1e-12)


def test_breakpoints_two():
    assert np.allclose(breakpoints(1.0, 1.0, 2), [1.0, np.exp(2.0)])


def test_breakpoints_increasing():
    r = breakpoints(-0.5, 1.3, 17)
    assert np.all(np.diff(r) > 0)


def test_breakpoints_bad_k():
    with pytest.raises(ValueError):
        breakpoints(0.0, 1.0, 1)


def test_projected_path_on_axis():
    cam = UcmCamera(100, 100, 50, 50, 0.0, 100, 100)
    path = projected_path(
        cam, IDENTITY, Ray(np.array([0.0, 0.0, 1.0])), np.array([1.0, 2.0])
    )
    assert np.allclose(path.points[:, :2], 0, atol=1e-15)
    assert np.allclose(path.points[:, 2], [1.0, 2.0])
    assert path.valid.all()


def test_projected_path_identity_constant_coords():
    """Collinear points through the shared center keep the image coordinate."""
    rng = np.random.default_rng(0)
    for _ in range(20):
        cam = random_camera(rng)
        pixel = rng.uniform(10, 54, 2)
        ray = Ray(unproject_points(cam, pixel))
        mu, sigma = clamp_interval(rng.uniform(-1, 1), rng.uniform(0, 2))
        radii = breakpoints(mu, sigma, 7)
        path = projected_path(cam, IDENTITY, ray, radii)
        assert path.valid.all()
        assert np.max(np.abs(path.points[:, :2] - path.points[0, :2])) < 1e-9
        assert np.allclose(path.points[:, 2], radii, atol=1e-12)


def test_projected_path_matches_composition_oracle():
    rng = np.random.default_rng(1)
    for _ in range(50):
        cam_s = random_camera(rng)
        cam_q = random_camera(rng, xi=rng.uniform(0.05, 1.0))
        ray = Ray(unproject_points(cam_s, rng.uniform(20, 44, 2)))
        transform = small_transform(rng)
        radii = breakpoints(rng.uniform(-0.5, 1.0), rng.uniform(0.1, 1.0), 5)
        path = projected_path(cam_q, transform, ray, radii)
        for k in range(5):
            expected = oracle_bounded_coordinate(
                cam_q, transform.rotation, transform.translation, ray.direction, radii[k]
            )
            assert np.max(np.abs(path.points[k] - expected)) < 1e-10


# Camera-to-world poses shaped like the benchmark clips: a 4-frame orbit
# (yaw and forward step 0.3) and a 10-frame pan (1.6 rad) with sideways drift.
_ORBIT = [RigidTransform(rot_y(0.1 * f), np.array([0.03 * f, 0.0, 0.1 * f])) for f in range(4)]
_PAN = [RigidTransform(rot_y(1.6 * f / 9), np.array([0.6 * f / 9, 0.0, 0.0])) for f in range(10)]


def _quotient_bounded_coordinate(cam_q, rotation, translation, direction, radius):
    """The bounded image coordinate in quotient form, (ubar, vbar) /
    sqrt(ubar^2 + vbar^2 + 1) with ubar = sx x / beta: defined for beta != 0,
    and equal to the guard-free form only where beta > 0."""
    q = np.asarray(rotation) @ (radius * np.asarray(direction)) + np.asarray(translation)
    beta = q[2] + cam_q.xi * float(np.sqrt(q @ q))
    ubar = (cam_q.fx / cam_q.width) * q[0] / beta
    vbar = (cam_q.fy / cam_q.height) * q[1] / beta
    scale = np.sqrt(ubar * ubar + vbar * vbar + 1.0)
    return np.array([ubar / scale, vbar / scale])


@pytest.mark.parametrize(
    "xi, size, focal, poses, pairs, want_invalid",
    [
        pytest.param(0.9, 128, 56.0, _ORBIT, [(0, 3), (3, 0), (1, 2)], 148, id="fisheye-orbit"),
        pytest.param(0.0, 64, 48.0, _PAN, [(9, 0), (0, 9), (4, 5), (5, 0)], 757, id="pinhole-pan"),
    ],
)
def test_token_path_batches_match_composition_oracle(xi, size, focal, poses, pairs, want_invalid):
    """Full token_rays batches under bench-like poses: every point of the
    ray-first lift within 1e-12 of the scalar composition oracle (lift,
    then rotate), with the same valid flags, beta > 0. Both pose sets put
    some points out of view; where beta > 0 the oracle's guard-free
    coordinate is the quotient form."""
    rng = np.random.default_rng(17)
    cam = UcmCamera(focal, focal, size / 2, size / 2, xi, size, size)
    rays = token_rays(cam, 16)
    radii = breakpoints(rng.uniform(-1, 1, (len(rays), 1)), rng.uniform(0.1, 3, (len(rays), 1)), 9)
    invalid = 0
    for qf, sf in pairs:
        transform = relative_transform(poses[sf], poses[qf])
        path = token_paths(cam, transform, rays, radii)
        for t, a, j in np.ndindex(path.valid.shape):
            args = (cam, transform.rotation, transform.translation, rays[t, a], radii[t, 0, j])
            want = oracle_bounded_coordinate(*args)
            assert path.valid[t, a, j] == oracle_valid(*args)
            assert np.max(np.abs(path.points[t, a, j] - want)) < 1e-12
            if path.valid[t, a, j]:
                assert np.max(np.abs(want[:2] - _quotient_bounded_coordinate(*args))) < 1e-15
        invalid += int(np.count_nonzero(~path.valid))
    assert invalid == want_invalid


def test_projected_path_flags_behind_pinhole():
    cam = UcmCamera(100, 100, 50, 50, 0.0, 100, 100)
    transform = RigidTransform(np.eye(3), np.array([0.0, 0.0, 5.0]))
    back = RigidTransform(np.eye(3), np.array([0.0, 0.0, -5.0]))
    ray = Ray(np.array([0.0, 0.0, 1.0]))
    radii = np.array([1.0, 2.0])
    assert projected_path(cam, transform, ray, radii).valid.all()
    assert not projected_path(cam, back, ray, radii).valid.any()
    # behind the center but xi > 0 and off-axis: |X| beats -Z, so the
    # denominator stays positive and the point is kept
    cam_fish = UcmCamera(100, 100, 50, 50, 1.0, 100, 100)
    side = Ray(np.array([0.8, 0.0, 0.6]))
    mixed = projected_path(cam_fish, back, side, radii)
    assert mixed.valid.all()


def test_projected_path_unit_disk():
    rng = np.random.default_rng(2)
    for _ in range(50):
        cam_q = random_camera(rng)
        d = rng.normal(size=3)
        ray = Ray(d / np.linalg.norm(d))
        radii = np.sort(rng.uniform(0.05, 20.0, 9))
        path = projected_path(cam_q, small_transform(rng, 3.0, 2.0), ray, radii)
        disk = path.points[:, 0] ** 2 + path.points[:, 1] ** 2
        assert np.all(disk <= 1.0 + 1e-12)


@pytest.mark.parametrize("xi", [0.0, 0.5, 1.0])
def test_point_at_the_query_camera_centre_is_invalid(xi):
    """Valid points have positive range by construction: range 0 puts the
    point at the query camera centre, where beta = 0 flags it invalid."""
    cam = UcmCamera(100, 100, 50, 50, xi, 100, 100)
    ray = np.array([0.6, 0.0, 0.8])
    # The middle breakpoint (r = 2) lands exactly on the query camera centre.
    path = token_paths(cam, RigidTransform(np.eye(3), -2.0 * ray), ray, np.array([1.0, 2.0, 3.0]))
    assert path.points[1, 2] == 0.0 and not path.valid[1]
    assert path.valid[2] and np.all(path.points[path.valid, 2] > 0)
    # x = y = beta = 0 there: the coordinate is (0, 0), not 0 / 0.
    assert np.array_equal(path.points[1], [0.0, 0.0, 0.0])


def test_segment_phasor_degenerate():
    theta = 0.73
    assert np.allclose(segment_phasor(theta, theta), [np.cos(theta), np.sin(theta)], atol=1e-15)


def test_segment_phasor_half_period():
    c, s = segment_phasor(0.0, np.pi)
    assert abs(c) < 1e-15
    assert abs(s - 2.0 / np.pi) < 1e-15


def test_segment_phasor_full_period():
    assert np.max(np.abs(segment_phasor(0.0, 2 * np.pi))) < 1e-15


def test_segment_phasor_branch_continuity():
    rng = np.random.default_rng(3)
    for eps in (1e-9, 1e-7, 2e-6):
        theta = rng.uniform(-30, 30, 200)
        got = segment_phasor(theta, theta + eps)
        mid = np.stack([np.cos(theta + eps / 2), np.sin(theta + eps / 2)], axis=-1)
        assert np.max(np.abs(got - mid)) < 1e-6


def test_expected_phasor_constant():
    theta = -1.2
    out = mean_segment_phasor(np.full(7, theta))
    assert np.allclose(out, [np.cos(theta), np.sin(theta)], atol=1e-15)


def test_expected_phasor_two_points_is_single_segment():
    rng = np.random.default_rng(4)
    pairs = rng.uniform(-10, 10, (1000, 2))
    out = mean_segment_phasor(pairs)
    single = segment_phasor(pairs[:, 0], pairs[:, 1])
    assert np.array_equal(out, single)


def test_expected_phasor_magnitude_bound():
    rng = np.random.default_rng(5)
    phases = rng.uniform(-40, 40, (2000, 9))
    out = mean_segment_phasor(np.sort(phases, axis=1))
    assert np.max((out**2).sum(-1)) <= 1.0 + 1e-12
    # the mean-of-unit-phasors bound needs no monotone phases
    out = mean_segment_phasor(phases)
    assert np.max((out**2).sum(-1)) <= 1.0 + 1e-12


def test_expected_phasor_reversal_symmetry():
    rng = np.random.default_rng(6)
    phases = rng.uniform(-10, 10, (200, 9))
    fwd = mean_segment_phasor(phases)
    rev = mean_segment_phasor(phases[:, ::-1])
    assert np.max(np.abs(fwd - rev)) < 1e-12


def test_expected_phasor_matches_monte_carlo():
    """Definitional check: uniform-z sampling through exact projection."""
    from curverope.oracle import analytic_expected_phasor, mc_expected_phasor, random_setup

    for i in range(3):
        rng = np.random.default_rng([10, i])
        setup = random_setup(rng)
        mc = mc_expected_phasor(setup, 10**6, rng)
        ref = analytic_expected_phasor(setup, 129)
        assert np.max(np.abs(ref - mc)) < 5e-3


def test_mc_expected_phasor_chunks_match_one_draw(monkeypatch):
    """Sampling in blocks leaves the generator where a single draw of the
    same size would, the estimate does not depend on the chunk size beyond
    summation rounding, and it matches the float64 reference estimator on
    the same draws."""
    from curverope import oracle

    setup = oracle.random_setup(np.random.default_rng([11, 0]))
    chunk = oracle._MC_CHUNK
    estimates = {}
    for samples in (1, chunk - 1, chunk + 1, oracle._MC_BLOCK + 1):
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        got = oracle.mc_expected_phasor(setup, samples, rng)
        want = reference_mc_expected_phasor(setup, samples, ref_rng)
        assert got.shape == (3, 2)
        assert np.max(np.abs(got - want)) <= 1e-6, samples
        assert rng.uniform() == ref_rng.uniform(), samples
        estimates[samples] = got
    monkeypatch.setattr(oracle, "_MC_CHUNK", 2**10)
    for samples, got in estimates.items():
        small = oracle.mc_expected_phasor(setup, samples, np.random.default_rng(5))
        assert np.max(np.abs(small - got)) <= 1e-15, samples


def test_mc_expected_phasor_matches_the_float64_reference():
    """The centred float32-sine estimator against the float64 libm estimator
    on the same draws, over 24 seeded setups. A float32 sine of a phase in
    [-pi, pi] is off by a few 1e-7 at most, so 1e-6 bounds every sample and
    hence every mean."""
    from curverope.oracle import mc_expected_phasor, random_setup

    for i in range(24):
        setup = random_setup(np.random.default_rng([13, i]))
        got = mc_expected_phasor(setup, 10**5, np.random.default_rng([14, i]))
        want = reference_mc_expected_phasor(setup, 10**5, np.random.default_rng([14, i]))
        assert np.max(np.abs(got - want)) <= 1e-6, i


def test_expected_phasor_matches_quadrature():
    """Second independent route: Simpson quadrature of the exact-projection
    phasor over z, deterministic and much tighter than the sampling check."""
    from curverope.oracle import analytic_expected_phasor, random_setup

    for i in range(4):
        rng = np.random.default_rng([30, i])
        s = random_setup(rng)
        a = abs(s.interval.sigma)
        n = 20001  # odd point count for composite Simpson
        z = np.linspace(s.interval.mu - a, s.interval.mu + a, n)
        pts = np.exp(z)[:, None] * s.ray.direction @ s.transform.rotation.T
        pts = pts + s.transform.translation
        norm = np.linalg.norm(pts, axis=1)
        beta = pts[:, 2] + s.cam_q.xi * norm
        ub = (s.cam_q.fx / s.cam_q.width) * pts[:, 0] / beta
        vb = (s.cam_q.fy / s.cam_q.height) * pts[:, 1] / beta
        den = np.sqrt(ub * ub + vb * vb + 1.0)
        theta = s.omega * np.stack([ub / den, vb / den, norm], axis=0)
        h = z[1] - z[0]
        w = np.ones(n)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        quad = np.stack(
            [(np.cos(theta) * w).sum(axis=1), (np.sin(theta) * w).sum(axis=1)], axis=1
        ) * (h / 3.0) / (2.0 * a)
        ref = analytic_expected_phasor(s, 129)
        assert np.max(np.abs(ref - quad)) < 5e-5


def _kernel_error_at_k129(setup, label):
    """The production kernel against a 30-digit mpmath quadrature: the error
    falls about 4x per doubling of the segment count from K=17 to K=129
    (second order). Returns the K=129 error and the exact value."""
    from curverope.oracle import analytic_expected_phasor

    exact = exact_expected_phasor(setup)
    errs = [np.max(np.abs(analytic_expected_phasor(setup, k) - exact)) for k in (17, 33, 65, 129)]
    ratios = [coarse / fine for coarse, fine in zip(errs, errs[1:])]
    assert all(3.5 <= r <= 4.5 for r in ratios), (label, ratios)
    return errs[-1], exact


def test_production_kernel_converges_to_the_exact_expected_phasor():
    """The oracle's analytic side, the production kernel, against a 30-digit
    mpmath quadrature: the K=129 error stays within a measured bound, the
    error falls about 4x per doubling of the segment count (second order),
    and the 1e6-sample MC estimate on the oracle's own draws is within the
    criterion-3 tolerance of the exact value."""
    pytest.importorskip("mpmath")
    from curverope.oracle import mc_expected_phasor, random_setup

    worst = 0.0
    for i in range(20):
        rng = np.random.default_rng([103, i])
        setup = random_setup(rng)
        err, exact = _kernel_error_at_k129(setup, i)
        worst = max(worst, err)
        if i < 5:
            assert np.max(np.abs(mc_expected_phasor(setup, 10**6, rng) - exact)) < 5e-3, i
    assert worst <= 3e-5, worst


@pytest.mark.parametrize("camera_class, seed", [("pinhole", 104), ("fisheye", 105)])
def test_production_kernel_accuracy_per_camera_class(camera_class, seed):
    """The same accuracy gate per query-camera class, where the projected
    path is straight-ish (pinhole, xi = 0) or strongly curved (fisheye,
    xi in [0.5, 1]): seeded oracle setups with the query camera's xi set to
    the class. random_setup screens beta = z + xi |p| > 1e-3 for the xi it
    drew, not z; the test checks z > 0 on every K = 129 breakpoint, so, as
    beta >= z for xi >= 0, every point stays valid for the class's xi."""
    pytest.importorskip("mpmath")
    from curverope.oracle import random_setup

    worst = 0.0
    for i in range(20):
        rng = np.random.default_rng([seed, i])
        setup = random_setup(rng)
        xi = 0.0 if camera_class == "pinhole" else float(rng.uniform(0.5, 1.0))
        setup = replace(setup, cam_q=replace(setup.cam_q, xi=xi))
        iv, tr = setup.interval, setup.transform
        points = breakpoints(iv.mu, iv.sigma, 129)[:, None] * setup.ray.direction
        assert np.all((points @ tr.rotation.T + tr.translation)[:, 2] > 0.0), i
        worst = max(worst, _kernel_error_at_k129(setup, i)[0])
    assert worst <= 3e-5, (camera_class, worst)


def test_oracle_check_runs_every_analytic_value_through_the_production_kernel(monkeypatch):
    """run_oracle_check reports errors of values that coefficients_from_paths
    computed: one kernel call per (config, K), reference K first."""
    from curverope import oracle

    seen = []

    def spy(path, plan):
        out = coefficients_from_paths(path, plan)
        seen.append(out[0])
        return out

    monkeypatch.setattr(oracle, "coefficients_from_paths", spy)
    k_values = [2, 5, 129]
    rows = oracle.run_oracle_check(num_configs=3, samples=100, k_values=k_values, seed=7)["rows"]
    assert len(seen) == 3 * len(k_values)
    for i, row in enumerate(rows):
        ref, k2, k5 = seen[3 * i : 3 * i + 3]
        assert row["err_k2"] == float(np.max(np.abs(k2 - ref)))
        assert row["err_k5"] == float(np.max(np.abs(k5 - ref)))


def test_degenerate_interval_agrees_with_monte_carlo_for_every_k():
    from curverope.oracle import PhasorSetup, analytic_expected_phasor, mc_expected_phasor, random_setup

    for i in range(5):
        rng = np.random.default_rng([12, i])
        base = random_setup(rng)
        setup = PhasorSetup(
            base.cam_q, base.transform, base.ray,
            RadialInterval(base.interval.mu, 0.0), base.omega,
        )
        mc = mc_expected_phasor(setup, 10**4, rng)
        for k in (2, 5, 129):
            assert np.max(np.abs(analytic_expected_phasor(setup, k) - mc)) < 1e-9


def _token_plan():
    return make_frequency_plan(36, 9)


def test_coefficients_collapse_to_exact_rotation():
    rng = np.random.default_rng(7)
    plan = _token_plan()
    for _ in range(30):
        cam_s = random_camera(rng)
        cam_q = random_camera(rng)
        row, col = rng.integers(0, 4), rng.integers(0, 4)
        rays = token_rays(cam_s, 16)[4 * row + col]
        transform = small_transform(rng)
        mu = rng.uniform(-1, 1)
        coeffs = _token_coefficients(cam_q, transform, rays, mu, 0.0, plan, 5)
        r = np.exp(mu)
        coords = np.concatenate(
            [
                oracle_bounded_coordinate(
                    cam_q, transform.rotation, transform.translation, rays[a], r
                )
                for a in range(3)
            ]
        )
        expected = rope_rotation(plan, coords)
        assert np.max(np.abs(coeffs - expected)) < 1e-9


def test_coefficients_identity_transform_channels():
    """Same camera, no motion: image channels stay unit rotations, range
    channels shrink when the interval is wide."""
    rng = np.random.default_rng(8)
    cam = random_camera(rng)
    plan = _token_plan()
    rays = token_rays(cam, 16)[4 * 1 + 2]
    coeffs = _token_coefficients(cam, IDENTITY, rays, 0.0, 3.0, plan, 9)
    mags = np.sqrt((coeffs**2).sum(-1))
    for a in range(3):
        for c in range(3):
            sl = pair_slice(plan, 3 * a + c)
            if c < 2:
                assert np.max(np.abs(mags[sl] - 1.0)) < 1e-9
            else:
                assert np.all(mags[sl] < 1.0 - 1e-6)


def test_coefficients_k5_beats_k2():
    rng_master = np.random.default_rng(9)
    from curverope.oracle import analytic_expected_phasor, random_setup

    wins = 0
    n = 60
    for i in range(n):
        rng = np.random.default_rng([11, i])
        setup = random_setup(rng)
        ref = analytic_expected_phasor(setup, 129)
        e5 = np.max(np.abs(analytic_expected_phasor(setup, 5) - ref))
        e2 = np.max(np.abs(analytic_expected_phasor(setup, 2) - ref))
        wins += e5 <= e2
    assert wins / n >= 0.9


def test_coefficients_invalid_path_fallback():
    cam = UcmCamera(100, 100, 50, 50, 0.0, 96, 96)
    behind = RigidTransform(np.eye(3), np.array([0.0, 0.0, -50.0]))
    rays = token_rays(cam, 32)[3 * 1 + 1]
    plan = _token_plan()
    paths = token_paths(cam, behind, rays, breakpoints(0.0, 1.0, 5))
    coeffs, fallbacks = coefficients_from_paths(paths, plan)
    assert fallbacks == 3
    assert np.array_equal(coeffs, np.tile([1.0, 0.0], (plan.num_pairs, 1)))


def test_coefficients_partial_validity_drops_points():
    """Invalid breakpoints are dropped; survivors form the segments."""
    cam = UcmCamera(100, 100, 50, 50, 0.0, 96, 96)
    # query sits 1.2 units ahead: breakpoints below r=1.2 land behind it
    ahead = RigidTransform(np.eye(3), np.array([0.0, 0.0, -1.2]))
    ray = Ray(np.array([0.0, 0.0, 1.0]))
    radii = breakpoints(0.0, 1.0, 5)
    path = projected_path(cam, ahead, ray, radii)
    assert path.valid.sum() == (radii > 1.2).sum()
    plan = _token_plan()
    rays = token_rays(cam, 32)[3 * 1 + 1]
    paths = token_paths(cam, ahead, rays, radii)
    coeffs, fallbacks = coefficients_from_paths(paths, plan)
    assert fallbacks == 0
    assert np.max((coeffs**2).sum(-1)) <= 1.0 + 1e-12


def test_coefficients_channel_locality():
    rng = np.random.default_rng(10)
    cam = random_camera(rng)
    plan = _token_plan()
    transform = small_transform(rng)
    p1 = token_rays(cam, 16)[0]
    p2 = token_rays(cam, 16)[4 * 2 + 3]
    a = _token_coefficients(cam, transform, p1, 0.2, 0.5, plan, 5)
    b = _token_coefficients(cam, transform, p2, 0.2, 0.5, plan, 5)
    a2 = _token_coefficients(cam, transform, p1, -0.4, 1.0, plan, 5)
    b2 = _token_coefficients(cam, transform, p2, 0.2, 0.5, plan, 5)
    assert np.array_equal(b, b2)
    assert not np.array_equal(a, a2)


def test_coefficients_plan_mismatch():
    rng = np.random.default_rng(11)
    cam = random_camera(rng)
    rays = token_rays(cam, 16)[0]
    with pytest.raises(ValueError):
        _token_coefficients(cam, IDENTITY, rays, 0, 1, make_frequency_plan(12, 3), 5)


def test_patch_rays_center_token():
    cam = UcmCamera(80, 80, 24, 24, 0.7, 48, 48)
    rays = token_rays(cam, 16)
    assert rays.shape == (9, 3, 3)
    assert np.allclose(rays[3 * 1 + 1, 0], [0, 0, 1], atol=1e-15)
    assert np.allclose(np.linalg.norm(rays, axis=-1), 1.0, atol=1e-12)


def test_patch_rays_adjacent_tokens_differ():
    cam = UcmCamera(80, 80, 24, 24, 0.3, 48, 48)
    rays = token_rays(cam, 16)
    a, b = rays[3 * 1 + 1], rays[3 * 1 + 2]
    cosines = (a * b).sum(axis=1)
    assert np.all(cosines < 1.0 - 1e-6)


def test_patch_rays_out_of_range():
    """The token grid takes only patch sizes that divide the image."""
    cam = UcmCamera(80, 80, 24, 24, 0.3, 48, 48)
    for patch_size in (0, 20, 96):
        with pytest.raises(ValueError, match="not divisible"):
            token_rays(cam, patch_size)


def test_patch_rays_match_direct_unprojection():
    from curverope.camera import unproject_points

    cam = UcmCamera(80, 80, 24, 24, 0.5, 48, 48)
    rays = token_rays(cam, 16)[3 * 2 + 0]
    pixels = np.array([[8.0, 40.0], [4.0, 36.0], [12.0, 44.0]])
    assert np.allclose(rays, unproject_points(cam, pixels), atol=1e-15)


def _masked_segment_mean(points, valid, plan):
    """Per coordinate, the mean segment phasor over the segments whose two
    breakpoints are both valid, by a direct loop; identity where there is
    none. points (K, 3), valid (K,); the result has shape (3, F, 2)."""
    segs = [j for j in range(len(valid) - 1) if valid[j] and valid[j + 1]]
    out = np.tile([1.0, 0.0], (3, plan.frequencies.size, 1))
    for c in range(3) if segs else ():
        th = plan.frequencies[:, None] * points[:, c]
        out[c] = np.mean([segment_phasor(th[:, j], th[:, j + 1]) for j in segs], axis=0)
    return out


def test_coefficients_mixed_validity_batch():
    """One batch mixing offsets with 0, 1, 2 and K valid breakpoints, plus
    interior gaps: each offset equals the mean over its segments with both
    ends valid, computed from the scalar composition oracle's points; an
    offset with no such segment falls back. A gap drops the segments on
    both sides of it rather than bridging it."""
    k = 7
    cam = UcmCamera(90, 70, 32, 30, 0.0, 64, 64)
    ahead = RigidTransform(np.eye(3), np.array([0.0, 0.0, -1.5]))
    d = np.array([[0.1, -0.05, 1.0], [-0.2, 0.1, 1.0], [0.05, 0.2, 1.0]])
    rays = np.stack([d, d[::-1]]) / np.linalg.norm(d, axis=-1, keepdims=True)[None]
    # Pinhole query 1.5 ahead: a point is valid iff r * d_z > 1.5, so the
    # last n_valid breakpoints of each path sit in front of the camera.
    n_valid = np.array([[0, 1, 2], [k, 2, 0]])
    step = np.arange(k) - (k - n_valid[..., None]) + 0.5
    radii = 1.5 / rays[..., 2:] * np.exp(0.1 * step)
    plan = make_frequency_plan(36, 9, base=10.0)
    path = token_paths(cam, ahead, rays, radii)
    assert np.array_equal(path.valid.sum(-1), n_valid)
    gapped = path.valid.copy()
    gapped[1, 0, [1, 4]] = False  # interior gaps in the all-valid path: 2 of 6 segments left
    for valid in (path.valid, gapped):
        coeffs, fallbacks = coefficients_from_paths(ProjectedPath(path.points, valid), plan)
        coeffs = coeffs.reshape(2, 3, 3, plan.frequencies.size, 2)
        assert fallbacks == 3
        for t, a in np.ndindex(2, 3):
            pts = np.array([
                oracle_bounded_coordinate(cam, ahead.rotation, ahead.translation, rays[t, a], radii[t, a, j])
                for j in range(k)
            ])
            if n_valid[t, a] < 2:
                assert np.array_equal(coeffs[t, a], np.tile([1.0, 0.0], (3, plan.frequencies.size, 1)))
            assert np.max(np.abs(coeffs[t, a] - _masked_segment_mean(pts, valid[t, a], plan))) < 1e-12


def test_all_valid_rows_same_bits_with_or_without_compaction():
    """A token whose breakpoints are all valid gets the same coefficient bits
    when its batch is all valid (the mask is skipped) and when the batch
    also holds tokens with invalid breakpoints (the segment mask runs)."""
    rng = np.random.default_rng(13)
    plan = _token_plan()
    checked = 0
    for _ in range(40):
        cam_q = random_camera(rng, xi=0.0)
        rays = token_rays(random_camera(rng), 16)
        k = int(rng.integers(2, 130))
        radii = breakpoints(rng.uniform(-2, 2, (len(rays), 1)), rng.uniform(0, 3, (len(rays), 1)), k)
        path = token_paths(cam_q, small_transform(rng, 1.0, 1.0), rays, radii)
        whole = path.valid.all(axis=(-2, -1))
        if whole.all() or not whole.any():
            continue
        mixed, _ = coefficients_from_paths(path, plan)
        alone, fallbacks = coefficients_from_paths(ProjectedPath(path.points[whole], path.valid[whole]), plan)
        assert fallbacks == 0
        assert np.array_equal(mixed[whole], alone)
        checked += 1
    assert checked >= 10, checked


def test_partly_visible_fisheye_paths():
    """A fisheye query (xi 0.9) with the source camera 2 behind it and 1.5 to
    the side, turned toward the space behind the query: the paths hold
    points of both beta signs, the flags are an independently computed
    beta > 0, every coordinate is finite and in the unit disk, and a path
    whose visible points are split by an invisible run gets the mean over
    its segments with both ends visible, not the mean that bridges the run."""
    cam = UcmCamera(40, 40, 32, 32, 0.9, 64, 64)
    transform = RigidTransform(rot_y(-0.6), np.array([1.5, 0.0, -2.0]))
    rays = token_rays(cam, 16)
    radii = breakpoints(0.5, 1.5, 33)
    path = token_paths(cam, transform, rays, radii)
    # Point first (rotate r * ray), not the library's ray-first lift.
    p = (radii[..., None] * rays[:, :, None, :]) @ transform.rotation.T + transform.translation
    beta = p[..., 2] + 0.9 * np.linalg.norm(p, axis=-1)
    assert np.min(np.abs(beta)) > 1e-9  # no flag hangs on rounding
    assert np.array_equal(path.valid, beta > 0)
    assert (beta > 0).any() and (beta < 0).any()
    assert np.all(np.isfinite(path.points))
    assert np.all(path.points[..., 0] ** 2 + path.points[..., 1] ** 2 <= 1.0 + 1e-12)

    plan = _token_plan()
    coeffs, fallbacks = coefficients_from_paths(path, plan)
    coeffs = coeffs.reshape(len(rays), 3, 3, plan.frequencies.size, 2)
    v = path.valid
    split = v[..., 0] & v[..., -1] & ~v.all(-1)
    assert fallbacks == 0 and np.count_nonzero(split) >= 5
    for t, a in zip(*np.nonzero(split)):
        pts = path.points[t, a]
        want = _masked_segment_mean(pts, v[t, a], plan)
        bridged = mean_segment_phasor(plan.frequencies[:, None, None] * pts[v[t, a]].T[None])
        assert np.max(np.abs(coeffs[t, a] - want)) < 1e-12
        assert np.max(np.abs(coeffs[t, a] - np.swapaxes(bridged, 0, 1))) > 1e-3


def test_coefficients_reject_non_finite_points():
    """A non-finite point, valid or not, is an error rather than NaN coefficients."""
    plan = make_frequency_plan(6, 3)
    pts = np.zeros((1, 4, 3))
    pts[..., 2] = np.linspace(1.0, 2.0, 4)
    for j, valid in ((1, np.ones((1, 4), bool)), (3, np.array([[True, True, True, False]]))):
        bad = pts.copy()
        bad[0, j, 2] = np.inf
        with pytest.raises(ValueError, match="finite"):
            coefficients_from_paths(ProjectedPath(bad, valid), plan)


@pytest.mark.parametrize("batch", [(6, 3), (2, 5, 3), (1,)], ids=["tokens", "frames-tokens", "one-ray"])
def test_segment_mask_keeps_the_bits_of_fully_valid_rows(batch):
    """The segment mask, over (tokens, 3, K), (F, tokens, 3, K) and the
    oracle's one-ray (1, K) paths with 0, 1, 2 and K valid points: fully
    valid rows keep the bits of the compaction kernel it replaced
    (take_along_axis_coefficients), every row is the mean over its segments
    with both ends valid (a direct loop), and exactly the rows with no such
    segment fall back."""
    rng = np.random.default_rng(29)
    offsets = batch[-1]
    plan = make_frequency_plan(36, 9, base=10.0) if offsets == 3 else FrequencyPlan(3, [0.7])
    for trial in range(40):
        k = int(rng.choice([2, 3, 9, 129]))
        counts = rng.integers(0, k + 1, size=batch)
        # 0, 1, 2 and K valid points in every batch, or in turn for one ray.
        counts.flat[:4] = np.roll([0, 1, 2, k], trial)[: counts.size]
        valid = rng.random((*batch, k)).argsort(-1).argsort(-1) < counts[..., None]
        points = np.concatenate(
            [rng.uniform(-0.7, 0.7, (*batch, k, 2)), rng.uniform(0.05, 30.0, (*batch, k, 1))], axis=-1
        )
        path = ProjectedPath(points, valid)
        got, fallbacks = coefficients_from_paths(path, plan)
        got = got.reshape(*batch, 3, plan.frequencies.size, 2)
        want = take_along_axis_coefficients(path, plan)[0].reshape(got.shape)
        full = counts == k
        assert got[full].tobytes() == want[full].tobytes()
        alone = ~(valid[..., :-1] & valid[..., 1:]).any(-1)
        assert alone[counts < 2].all()
        assert fallbacks == int(np.count_nonzero(alone))
        assert np.array_equal(got[alone], np.broadcast_to([1.0, 0.0], got[alone].shape))
        for row in np.ndindex(batch):
            assert np.max(np.abs(got[row] - _masked_segment_mean(points[row], valid[row], plan))) < 1e-12
