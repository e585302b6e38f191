"""Monte-Carlo oracle for the expected phasor.

Samples log radial distance uniformly, pushes every sample through exact
(non-linearized) lift -> transform -> project -> bounded coordinate, and
averages the phasor directly. This is the definitional estimate that the
analytic piecewise-segment integration is checked against; the projection
math is written out here rather than shared, so the two routes stay
independent. The estimator's geometry and phases are float64; its sines
are float32 SIMD sines of phase offsets from the interval centre, reduced
to [-pi, pi] first, which keeps every value within a few 1e-7 of the
float64 one (tests/util.py holds the float64 cos/sin estimator as the
reference). The analytic side is the production kernel itself:
token_paths then coefficients_from_paths, as the coeffs subcommand runs it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .camera import Ray, RigidTransform, UcmCamera
from .phasor import RadialInterval, breakpoints, coefficients_from_paths, token_paths
from .phasor import projected_path  # noqa: F401  (the benchmark's tracer test reads oracle.projected_path)
from .rope import FrequencyPlan

__all__ = [
    "PhasorSetup",
    "random_setup",
    "mc_expected_phasor",
    "analytic_expected_phasor",
    "run_oracle_check",
]

# Monte-Carlo samples drawn and transformed at a time (256 kB per float64
# row): blocks this long make each ufunc call long enough that worker threads
# overlap instead of queueing for the interpreter lock between calls. An
# estimator holds 48 bytes per block sample (1.5 MiB): two float64 (3, block)
# arrays, over which _mc_buffers lays every other array whose values are dead
# by the time the one sharing its memory is written.
_MC_BLOCK = 2**15
# Samples summed at a time. Each chunk of a block is reduced on its own, in
# order, so the sums do not depend on the block size.
_MC_CHUNK = 2**13
# Phase offsets provably within +-3 < pi round to 0 turns, so their range
# reduction is skipped (bit-identical: it would subtract zero).
_NO_WRAP_BOUND = 3.0
# Breakpoints of the fine path random_setup screens and of the reference
# analytic value every other K is compared against.
_REFERENCE_K = 129
# The check's two gates: the largest reference-vs-MC error a config may
# show, and the share of configs on which K = 5 must beat K = 2.
_MC_TOLERANCE = 5e-3
_K5_WIN_FRACTION = 0.9


@dataclass(frozen=True)
class PhasorSetup:
    """One random phasor configuration: cameras, pose, ray, interval, frequency."""

    cam_q: UcmCamera
    transform: RigidTransform
    ray: Ray
    interval: RadialInterval
    omega: float


def _small_rotation(rng: np.random.Generator, max_angle: float) -> np.ndarray:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(-max_angle, max_angle)
    k = np.array(
        [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
    )
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def _random_camera(rng: np.random.Generator) -> UcmCamera:
    """A 128 x 128 camera with random focal lengths, principal-point offset and xi."""
    size = 128
    return UcmCamera(
        fx=rng.uniform(60, 120), fy=rng.uniform(60, 120),
        cx=size / 2 + rng.uniform(-4, 4), cy=size / 2 + rng.uniform(-4, 4),
        xi=rng.uniform(0, 1), width=size, height=size,
    )


def random_setup(rng: np.random.Generator) -> PhasorSetup:
    """Draw a geometrically benign configuration.

    Setups are resampled until every breakpoint of a fine (K = 129) path
    is visible to the query camera with margin, beta = z + xi |p| > 1e-3
    (the model's projection domain is beta > 0), so every point is valid
    for the analytic path and the Monte-Carlo route never crosses the
    edge of that domain. The screen is the estimator's geometry, _phases.
    """
    work, theta = np.empty((2, 3, _REFERENCE_K))
    while True:
        cam_s = _random_camera(rng)
        cam_q = _random_camera(rng)
        w, h = cam_s.width, cam_s.height
        pixel = np.array(
            [w / 2 + rng.uniform(-0.3, 0.3) * w, h / 2 + rng.uniform(-0.3, 0.3) * h]
        )
        px = (pixel[0] - cam_s.cx) / cam_s.fx
        py = (pixel[1] - cam_s.cy) / cam_s.fy
        rho2 = px * px + py * py
        gamma = (cam_s.xi + np.sqrt(1 + (1 - cam_s.xi**2) * rho2)) / (1 + rho2)
        vec = np.array([gamma * px, gamma * py, gamma - cam_s.xi])
        ray = Ray(vec / np.linalg.norm(vec))
        transform = RigidTransform(
            _small_rotation(rng, 0.1), rng.uniform(-0.05, 0.05, size=3)
        )
        interval = RadialInterval(rng.uniform(-0.5, 1.5), rng.uniform(0.1, 1.0))
        omega = float(np.exp(rng.uniform(np.log(0.02), np.log(2.0))))
        setup = PhasorSetup(cam_q, transform, ray, interval, omega)
        radii = breakpoints(interval.mu, interval.sigma, _REFERENCE_K)
        if np.min(_phases(setup, radii, work, theta)[1]) > 1e-3:
            return setup


def _check_samples(samples: int) -> None:
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")


def _mc_buffers(size: int) -> tuple:
    """One estimator's working arrays, for blocks of up to size samples:
    (draws, work, theta, sin32, half32), laid over two float64 (3, size)
    arrays, 48 bytes per sample.

    The draws are theta's last row, which _phases allows its radii to be.
    sin32 and half32 are the two halves of work viewed as float32: work's
    last reader is the range reduction's turns, which runs before the
    float64 offsets in theta are cast into sin32.
    """
    work, theta = np.empty((3, size)), np.empty((3, size))
    sin32, half32 = work.view(np.float32).reshape(2, 3, size)
    return theta[2], work, theta, sin32, half32


def _phases(setup: PhasorSetup, r: np.ndarray, work: np.ndarray, theta: np.ndarray) -> tuple:
    """omega * (u_bounded, v_bounded, range) and beta = z + xi |p| at radii r.

    The one geometry of the screen and the estimator: each radius is lifted,
    moved into the query frame and projected on its own, in float64, in the
    first len(r) columns of the (3, n) arrays work and theta. Returns views
    of them: the (3, len(r)) phases in theta and beta in work's last row.
    r may be theta's last row, as the estimator's draws are (_mc_buffers):
    r is last read when z is formed, before that row is first written.
    """
    n = len(r)
    # rot @ (r d) + t == r (rot @ d) + t: rotate the direction once.
    dx, dy, dz = setup.transform.rotation @ setup.ray.direction
    tx, ty, tz = setup.transform.translation
    cam = setup.cam_q
    sx, sy = cam.fx / cam.width, cam.fy / cam.height
    x, y, z = work[:, :n]
    th = theta[:, :n]
    ub, vb, norm = th
    np.multiply(r, dx, out=x)
    x += tx
    np.multiply(r, dy, out=y)
    y += ty
    np.multiply(r, dz, out=z)
    z += tz
    # norm may be r's memory: r is not read after this.
    np.multiply(x, x, out=norm)
    np.multiply(y, y, out=ub)
    norm += ub
    np.multiply(z, z, out=ub)
    norm += ub
    np.sqrt(norm, out=norm)
    beta = z  # z, then x and y below, are dead once read: reuse them
    np.multiply(norm, cam.xi, out=vb)
    beta += vb
    np.multiply(x, sx, out=ub)
    ub /= beta
    np.multiply(y, sy, out=vb)
    vb /= beta
    denom = x
    np.multiply(ub, ub, out=denom)
    np.multiply(vb, vb, out=y)
    denom += y
    denom += 1.0
    np.sqrt(denom, out=denom)
    ub /= denom
    vb /= denom
    th *= setup.omega
    return th, beta


def mc_expected_phasor(setup: PhasorSetup, samples: int, rng: np.random.Generator) -> np.ndarray:
    """Monte-Carlo phasor mean per coordinate, shape (3, 2).

    Samples are drawn and transformed in blocks of ``_MC_BLOCK`` into
    buffers allocated once, and summed in chunks of ``_MC_CHUNK``;
    successive draws continue one generator stream, so the samples are
    those of a single ``rng.uniform`` draw of ``samples`` values. The
    geometry is float64. Each coordinate's phases are centred on theta_c,
    the phase at the interval centre exp(mu): the offset d = theta - theta_c
    is reduced to [-pi, pi] in float64 (where it can leave that range) and
    only then cast to float32 for the (SIMD) sines, and the sums of sin d
    and 2 sin^2(d / 2) = 1 - cos d, taken in float64, are rotated by
    theta_c once per call. A degenerate interval gives d = 0 exactly, so
    its estimate is the float64 phasor at the centre.
    """
    _check_samples(samples)
    return _mc_estimate(setup, samples, rng, _mc_buffers(min(_MC_BLOCK, samples)))


def _mc_estimate(setup: PhasorSetup, samples: int, rng: np.random.Generator, buffers: tuple) -> np.ndarray:
    """mc_expected_phasor's estimate, in buffers from _mc_buffers.

    Calls nothing public, so it can run on a worker thread: a tracer that
    wraps the public functions keeps one span stack, on the calling thread.
    """
    draws, work, theta, sin32, half32 = buffers
    block = len(draws)
    iv = setup.interval
    a = abs(iv.sigma)
    lo, hi = iv.mu - a, iv.mu + a
    # Offsets reach at most 2 omega for the bounded coordinates (they lie in
    # (-1, 1)) and omega (e^(mu+a) - e^mu) for the range, which is
    # 1-Lipschitz in r. Only the rows from `wrapped` on are reduced.
    if 2.0 * setup.omega > _NO_WRAP_BOUND:
        wrapped = 0
    elif setup.omega * (np.exp(hi) - np.exp(iv.mu)) > _NO_WRAP_BOUND:
        wrapped = 2
    else:
        wrapped = 3

    # The samples' own arithmetic, so a sigma = 0 interval has offsets of exactly 0.
    centre = _phases(setup, np.exp(np.array([iv.mu])), work, theta)[0][:, 0].copy()
    sin_sum = np.zeros(3)
    half_sq_sum = np.zeros(3)
    for start in range(0, samples, block):
        n = min(block, samples - start)
        r = draws[:n]
        # rng.uniform(lo, hi, n) bit for bit, and to the same stream position.
        rng.random(out=r)
        r *= hi - lo
        r += lo
        np.exp(r, out=r)
        delta = _phases(setup, r, work, theta)[0]
        delta -= centre[:, None]
        if wrapped < 3:
            near = delta[wrapped:]
            turns = np.multiply(near, 1.0 / (2.0 * np.pi), out=work[wrapped:, :n])
            np.rint(turns, out=turns)
            turns *= 2.0 * np.pi
            near -= turns
        # sin32 and half32 may be work's memory: work is not read after this.
        sin_d, half = sin32[:, :n], half32[:, :n]
        np.copyto(sin_d, delta, casting="same_kind")
        np.multiply(sin_d, 0.5, out=half)
        np.sin(sin_d, out=sin_d)
        np.sin(half, out=half)
        half *= half
        for chunk in range(0, n, _MC_CHUNK):
            part = slice(chunk, chunk + _MC_CHUNK)
            sin_sum += sin_d[:, part].sum(axis=1, dtype=np.float64)
            half_sq_sum += half[:, part].sum(axis=1, dtype=np.float64)
    cos_part = samples - 2.0 * half_sq_sum
    c, s = np.cos(centre), np.sin(centre)
    sums = np.stack([c * cos_part - s * sin_sum, s * cos_part + c * sin_sum], axis=1)
    return sums / samples


def analytic_expected_phasor(setup: PhasorSetup, k: int) -> np.ndarray:
    """Segment-integrated phasor per coordinate, shape (3, 2), computed by
    the production kernel on a one-offset, one-frequency path."""
    iv = setup.interval
    path = token_paths(
        setup.cam_q, setup.transform, setup.ray.direction[None], breakpoints(iv.mu, iv.sigma, k)[None]
    )
    coeffs, fallbacks = coefficients_from_paths(path, FrequencyPlan(3, [setup.omega]))
    if fallbacks:
        raise ValueError("oracle setups must keep at least two valid breakpoints")
    return coeffs


def _worker_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_oracle_check(num_configs: int, samples: int, k_values, seed: int) -> dict:
    """Compare analytic expected phasors against the MC estimate.

    Per configuration, reports the max component error of the reference
    (K = 129) analytic value against MC, and the max component error of
    every other K against the reference. Passing requires the MC error
    within _MC_TOLERANCE everywhere, and K=5 beating K=2 (vs the reference)
    on at least _K5_WIN_FRACTION of configurations when both are requested.

    The MC estimates run on one worker thread per available CPU, each with
    its configuration's own generator and one of the buffer sets allocated
    here; the calling thread draws the setups and computes the analytic
    values meanwhile. Every configuration is seeded on its own, so the
    result does not depend on the number of workers.
    """
    if num_configs < 1:
        raise ValueError(f"num_configs must be >= 1, got {num_configs}")
    _check_samples(samples)
    # Imported here, not with the package: every CLI call pays the package import.
    from concurrent.futures import ThreadPoolExecutor
    from queue import SimpleQueue

    k_values = sorted(set(int(k) for k in k_values) | {_REFERENCE_K})
    workers = min(num_configs, _worker_count())
    idle = SimpleQueue()
    for _ in range(workers):
        idle.put(_mc_buffers(min(_MC_BLOCK, samples)))

    def estimate(setup: PhasorSetup, rng: np.random.Generator) -> np.ndarray:
        buffers = idle.get()  # one set per worker, so one is always free
        try:
            return _mc_estimate(setup, samples, rng, buffers)
        finally:
            idle.put(buffers)

    with ThreadPoolExecutor(workers) as pool:
        try:
            configs = []
            for i in range(num_configs):
                cfg_rng = np.random.default_rng([seed, i])
                setup = random_setup(cfg_rng)
                mc = pool.submit(estimate, setup, cfg_rng)
                ref = analytic_expected_phasor(setup, _REFERENCE_K)
                errors = {
                    f"err_k{k}": float(np.max(np.abs(analytic_expected_phasor(setup, k) - ref)))
                    for k in k_values
                    if k != _REFERENCE_K
                }
                configs.append((setup, mc, ref, errors))
            rows = [
                {
                    "config": i,
                    "sigma": setup.interval.sigma,
                    "omega": setup.omega,
                    "mc_error": float(np.max(np.abs(ref - mc.result()))),
                    **errors,
                }
                for i, (setup, mc, ref, errors) in enumerate(configs)
            ]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise

    report = {
        "num_configs": num_configs,
        "samples": samples,
        "reference_k": _REFERENCE_K,
        "mc_tolerance": _MC_TOLERANCE,
        "max_mc_error": max(r["mc_error"] for r in rows),
        "mc_pass": all(r["mc_error"] <= _MC_TOLERANCE for r in rows),
    }
    if 5 in k_values and 2 in k_values:
        wins = sum(1 for r in rows if r["err_k5"] <= r["err_k2"])
        report["k5_beats_k2_fraction"] = wins / num_configs
        report["k5_pass"] = wins / num_configs >= _K5_WIN_FRACTION
    report["pass"] = report["mc_pass"] and report.get("k5_pass", True)
    return {"report": report, "rows": rows}
