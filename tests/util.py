"""Shared helpers for the test suite.

The oracle_* functions and exact_expected_phasor re-derive geometry step
by step with scalar math, independently of the library's vectorized
implementations, so tests can compare two routes that share no code.
"""

import math

import numpy as np

from curverope.camera import BETA_EPS, RigidTransform, UcmCamera
from curverope.phasor import _segment_terms, segment_phasor


def random_rotation(rng, max_angle=np.pi):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(-max_angle, max_angle)
    k = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def random_camera(rng, xi=None, size=64):
    return UcmCamera(
        fx=rng.uniform(40, 120),
        fy=rng.uniform(40, 120),
        cx=size / 2 + rng.uniform(-3, 3),
        cy=size / 2 + rng.uniform(-3, 3),
        xi=rng.uniform(0, 1) if xi is None else xi,
        width=size,
        height=size,
    )


def oracle_unproject(cam, u, v):
    """Scalar inverse ray map: gamma formula then normalization."""
    x = (u - cam.cx) / cam.fx
    y = (v - cam.cy) / cam.fy
    rho2 = x * x + y * y
    gamma = (cam.xi + math.sqrt(1.0 + (1.0 - cam.xi * cam.xi) * rho2)) / (1.0 + rho2)
    vec = np.array([gamma * x, gamma * y, gamma - cam.xi])
    return vec / math.sqrt(float(vec @ vec))


def oracle_project(cam, point):
    """Scalar forward projection without the denominator guard."""
    x, y, z = (float(point[0]), float(point[1]), float(point[2]))
    norm = math.sqrt(x * x + y * y + z * z)
    beta = z + cam.xi * norm
    return np.array([cam.fx * x / beta + cam.cx, cam.fy * y / beta + cam.cy])


def oracle_bounded_coordinate(cam_q, rotation, translation, direction, radius):
    """Scalar lift -> transform -> project -> bounded coordinate.

    Returns (u_bounded, v_bounded, range) for one breakpoint.
    """
    p = radius * np.asarray(direction, dtype=float)
    q = np.asarray(rotation, dtype=float) @ p + np.asarray(translation, dtype=float)
    norm = math.sqrt(float(q @ q))
    beta = q[2] + cam_q.xi * norm
    ubar = (cam_q.fx / cam_q.width) * q[0] / beta
    vbar = (cam_q.fy / cam_q.height) * q[1] / beta
    scale = math.sqrt(ubar * ubar + vbar * vbar + 1.0)
    return np.array([ubar / scale, vbar / scale, norm])


def oracle_valid(cam_q, rotation, translation, direction, radius):
    """Scalar validity of one breakpoint: the projection denominator clears
    the guard and, for a pinhole query camera, the point is ahead of it."""
    p = radius * np.asarray(direction, dtype=float)
    q = np.asarray(rotation, dtype=float) @ p + np.asarray(translation, dtype=float)
    beta = q[2] + cam_q.xi * math.sqrt(float(q @ q))
    return abs(beta) >= BETA_EPS and (cam_q.xi != 0.0 or q[2] > 0.0)


def take_along_axis_coefficients(path, plan):
    """coefficients_from_paths with the invalid-point compaction written as
    np.take_along_axis over the (..., K, 3) points: the reference that pins
    the bits of the kernel's flat-gather compaction. The segment terms and
    reductions are the kernel's own, so any difference is the compaction's.
    """
    *batch, num_offsets, k = path.valid.shape
    kept, used, n_seg = path.points, None, k - 1
    if not np.all(path.valid):
        order = np.argsort(~path.valid, axis=-1, kind="stable")
        kept = np.take_along_axis(kept, order[..., None], axis=-2)
        n_seg = path.valid.sum(axis=-1) - 1
        used = (np.arange(k - 1) < n_seg[..., None])[..., None, None, :]
    psi = np.swapaxes(kept, -1, -2)[..., None, :] * (0.25 * plan.frequencies[:, None])
    q, m, u = _segment_terms(psi[..., :-1], psi[..., 1:])
    if used is not None:
        q = np.where(used, q, 0.0)
    total = np.stack([np.vecdot(q, m), 2.0 * np.vecdot(q, u)], axis=-1)
    if used is None:
        return (total / n_seg).reshape(*batch, plan.num_pairs, 2), 0
    mean = total / np.maximum(n_seg, 1)[..., None, None, None]
    coeffs = np.where((n_seg < 1)[..., None, None, None], [1.0, 0.0], mean)
    return coeffs.reshape(*batch, plan.num_pairs, 2), int(np.count_nonzero(n_seg < 1))


# Samples per chunk of reference_mc_expected_phasor (256 kB per float64 array).
_REFERENCE_MC_CHUNK = 2**15


def reference_mc_expected_phasor(setup, samples, rng):
    """Monte-Carlo phasor mean per coordinate, shape (3, 2), in float64 with
    libm cos and sin of the raw phases: the reference for the library's
    centred float32-sine estimator (oracle.mc_expected_phasor), which draws
    the same samples from the same generator stream.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    iv = setup.interval
    a = abs(iv.sigma)
    # rot @ (r d) + t == r (rot @ d) + t: rotate the direction once.
    dx, dy, dz = setup.transform.rotation @ setup.ray.direction
    tx, ty, tz = setup.transform.translation
    cam = setup.cam_q
    sx, sy = cam.fx / cam.width, cam.fy / cam.height
    sums = np.zeros((2, 3))
    for start in range(0, samples, _REFERENCE_MC_CHUNK):
        r = np.exp(rng.uniform(iv.mu - a, iv.mu + a, size=min(_REFERENCE_MC_CHUNK, samples - start)))
        x, y, z = r * dx + tx, r * dy + ty, r * dz + tz
        rng_norm = np.sqrt(x * x + y * y + z * z)
        beta = z + cam.xi * rng_norm
        ub = sx * x / beta
        vb = sy * y / beta
        denom = np.sqrt(ub * ub + vb * vb + 1.0)
        theta = setup.omega * np.stack([ub / denom, vb / denom, rng_norm])
        sums[0] += np.cos(theta).sum(axis=1)
        sums[1] += np.sin(theta).sum(axis=1)
    return (sums / samples).T


def small_transform(rng, max_angle=0.1, max_shift=0.05):
    return RigidTransform(
        random_rotation(rng, max_angle), rng.uniform(-max_shift, max_shift, size=3)
    )


def sinc_segment_phasor(theta_a, theta_b):
    """Segment mean sinc((b - a) / 2) exp(i (a + b) / 2), shape (..., 2).

    The libm sinc form (np.sinc, np.cos, np.sin): the independent reference
    for the library's tangent half-angle segment mean.
    """
    ta = np.asarray(theta_a, dtype=float)
    tb = np.asarray(theta_b, dtype=float)
    mid = 0.5 * (ta + tb)
    damp = np.sinc((tb - ta) / (2.0 * np.pi))
    return np.stack([damp * np.cos(mid), damp * np.sin(mid)], axis=-1)


def mean_segment_phasor(phases):
    """Mean of the segment phasors over consecutive phases, shape (..., 2).

    The reference for raw phase arrays (any sign, any order) that cannot be
    written as projected paths; the library reduces paths with
    coefficients_from_paths.
    """
    th = np.asarray(phases, dtype=float)
    return segment_phasor(th[..., :-1], th[..., 1:]).mean(axis=-2)


def exact_expected_phasor(setup, dps=30):
    """Expected phasor per coordinate, shape (3, 2), by mpmath quadrature.

    Integrates (1 / 2a) * int exp(i omega x_c(z)) dz over z in [mu - a, mu + a],
    a = |sigma|, where x_c is the bounded coordinate c of the breakpoint at
    radius exp(z), written out in mpmath at dps digits with no library code.
    """
    import mpmath

    with mpmath.workdps(dps):
        rot = mpmath.matrix(setup.transform.rotation.tolist())
        shift = mpmath.matrix(setup.transform.translation.tolist())
        direction = rot * mpmath.matrix(setup.ray.direction.tolist())  # in the query frame
        cam = setup.cam_q
        sx = mpmath.mpf(cam.fx) / cam.width
        sy = mpmath.mpf(cam.fy) / cam.height
        omega = mpmath.mpf(setup.omega)

        def coordinate(z, c):
            q = mpmath.exp(z) * direction + shift
            norm = mpmath.sqrt(q[0] ** 2 + q[1] ** 2 + q[2] ** 2)
            if c == 2:
                return norm
            beta = q[2] + cam.xi * norm
            ubar, vbar = sx * q[0] / beta, sy * q[1] / beta
            return (ubar, vbar)[c] / mpmath.sqrt(ubar * ubar + vbar * vbar + 1)

        mu, a = mpmath.mpf(setup.interval.mu), abs(mpmath.mpf(setup.interval.sigma))
        out = np.empty((3, 2))
        for c in range(3):
            value = mpmath.quad(
                lambda z: mpmath.expj(omega * coordinate(z, c)), [mu - a, mu + a]
            ) / (2 * a)
            out[c] = float(value.real), float(value.imag)
    return out
