"""Shared helpers for the test suite.

The oracle_* functions and exact_expected_phasor re-derive geometry step
by step with scalar math, independently of the library's vectorized
implementations, so tests can compare two routes that share no code.
take_along_axis_coefficients, reference_mc_expected_phasor,
dense_intersect and reference_train_head_on_tokens keep earlier forms of
library code as the references that pin its results. segment_phasor
is the kernel's one-segment view, for tests that feed it raw phase pairs.

rope_rotation (standard RoPE, which the sigma = 0 reduction is checked
against), pair_slice, attention_init, the orbit and pan poses and the
plane-scene radial maps are test references and fixtures, kept out of
the library on purpose: no subcommand runs them.
"""

import math

import numpy as np

from curverope.attention import AttentionParams
from curverope.camera import RigidTransform, UcmCamera, unproject_points
from curverope.head import head_backward, head_forward, head_forward_normalized, head_init, head_layer_norm
from curverope.phasor import _segment_terms
from curverope.scene import _HIT_EPS, _scene_spheres
from curverope.supervision import RadialMap, radial_loss
from curverope.trainer import _CLIP_NORM, _WARMUP_FRACTION, DivergenceError


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

    Returns (u_bounded, v_bounded, range) for one breakpoint. The bounded
    coordinate is written guard-free, (sx x, sy y) / sqrt((sx x)^2 +
    (sy y)^2 + beta^2), which for beta > 0 is the quotient form
    (ubar, vbar) / sqrt(ubar^2 + vbar^2 + 1) with ubar = sx x / beta; the
    point x = y = beta = 0 maps to (0, 0).
    """
    p = radius * np.asarray(direction, dtype=float)
    q = np.asarray(rotation, dtype=float) @ p + np.asarray(translation, dtype=float)
    norm = math.sqrt(float(q @ q))
    beta = q[2] + cam_q.xi * norm
    xs = (cam_q.fx / cam_q.width) * q[0]
    ys = (cam_q.fy / cam_q.height) * q[1]
    scale = math.sqrt(xs * xs + ys * ys + beta * beta) or 1.0
    return np.array([xs / scale, ys / scale, norm])


def oracle_valid(cam_q, rotation, translation, direction, radius):
    """Scalar validity of one breakpoint: it is visible to the query
    camera, beta = z + xi |p| > 0."""
    p = radius * np.asarray(direction, dtype=float)
    q = np.asarray(rotation, dtype=float) @ p + np.asarray(translation, dtype=float)
    return q[2] + cam_q.xi * math.sqrt(float(q @ q)) > 0.0


def take_along_axis_coefficients(path, plan):
    """coefficients_from_paths as it was before the segment mask: invalid
    points compacted away with np.take_along_axis over the (..., K, 3)
    points, and the segments between consecutive kept points averaged. The
    segment terms and reductions are the kernel's own. It is the reference
    that pins the bits of fully valid rows, in any batch.
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


def segment_phasor(theta_a, theta_b):
    """Mean of (cos, sin) over a linear phase segment, shape (..., 2).

    The one-segment view of the kernel coefficients_from_paths runs: the
    tangent half-angle terms of phasor._segment_terms on quarter phases,
    combined as (q (1 - u^2), 2 q u).
    """
    ta = np.asarray(theta_a, dtype=float)
    tb = np.asarray(theta_b, dtype=float)
    shape = np.broadcast_shapes(ta.shape, tb.shape)
    q, m, u = _segment_terms(np.atleast_1d(0.25 * ta), np.atleast_1d(0.25 * tb))
    return np.stack([q * m, 2.0 * (q * u)], axis=-1).reshape(*shape, 2)


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


# Rays per block of dense_intersect, fixed here so that the reference does
# not move with the library's own block size.
DENSE_RAYS_PER_BLOCK = 256


def dense_intersect(spec, origin, dirs):
    """scene._intersect with the roots, near/far choice and minimum taken
    over every (ray, sphere) pair of a block: the reference for the
    library's sparse evaluation at the pairs whose discriminant is >= 0."""
    n = dirs.shape[0]
    best = np.full(n, np.inf)
    centers, radius = _scene_spheres(spec)
    m = centers.shape[0]
    oc = centers - origin  # (m, 3): every ray shares the origin
    cc = np.einsum("mk,mk->m", oc, oc) - radius * radius
    for start in range(0, n, DENSE_RAYS_PER_BLOCK):
        rows = slice(start, start + DENSE_RAYS_PER_BLOCK)
        d = dirs[rows]
        # einsum over a broadcast view sums each product in the same
        # order as over a dense (rays, spheres, 3) array, so hits stay
        # bit-identical; a BLAS matmul rounds differently.
        proj = np.einsum("nmk,nk->nm", np.broadcast_to(oc, (d.shape[0], m, 3)), d)
        disc = proj * proj - cc
        ok = disc >= 0
        root = np.sqrt(np.where(ok, disc, 0.0))
        t_near = proj - root
        t_far = proj + root
        t = np.where(t_near > _HIT_EPS, t_near, t_far)
        t = np.where(ok & (t > _HIT_EPS), t, np.inf)
        best[rows] = np.minimum(best[rows], t.min(axis=1))
    return best


def rope_rotation(plan, coords):
    """Standard RoPE coefficients of coordinates (..., C), shape
    (..., num_pairs, 2): the unit (cos, sin) pairs of the phases
    frequencies[f] * coords[c], pair c * F + f in plan slot order.

    Under a plan of n coordinates at the single frequency 1 the phases are
    the coordinates themselves, so FrequencyPlan(n, [1.0]) turns any
    (..., n) phase array into its unit phasors.
    """
    x = np.asarray(coords, dtype=float)
    if x.ndim == 0 or x.shape[-1] != plan.num_coordinates:
        raise ValueError(f"expected {plan.num_coordinates} coordinates, got shape {x.shape}")
    theta = (x[..., :, None] * plan.frequencies).reshape(*x.shape[:-1], plan.num_pairs)
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)


def pair_slice(plan, coordinate):
    """Channel pairs of a FrequencyPlan driven by one coordinate."""
    n = plan.frequencies.size
    return slice(coordinate * n, (coordinate + 1) * n)


def attention_init(d_model, head_dim, seed):
    """Seeded attention projections with a zero output projection."""
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(d_model)
    return AttentionParams(
        wq=rng.uniform(-bound, bound, size=(d_model, head_dim)),
        wk=rng.uniform(-bound, bound, size=(d_model, head_dim)),
        wv=rng.uniform(-bound, bound, size=(d_model, head_dim)),
        wo=np.zeros((head_dim, d_model)),
    )


def rot_y(phi):
    """Rotation by phi about the camera's +Y (down) axis."""
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _ramp(frames):
    return [0.0 if frames == 1 else f / (frames - 1) for f in range(frames)]


def pan_poses(frames, amplitude):
    """Camera-to-world poses that yaw from 0 to amplitude about the camera
    centre; frame 0 is the identity pose."""
    return [RigidTransform(rot_y(amplitude * t), np.zeros(3)) for t in _ramp(frames)]


# Orbit poses pivot about a point this far ahead of the first camera.
ORBIT_PIVOT_DISTANCE = 4.0


def orbit_poses(frames, amplitude):
    """Camera-to-world poses that orbit by angles 0 to amplitude about the
    point ORBIT_PIVOT_DISTANCE ahead of frame 0, always facing it; frame 0
    is the identity pose."""
    pivot = np.array([0.0, 0.0, ORBIT_PIVOT_DISTANCE])
    poses = []
    for t in _ramp(frames):
        phi = amplitude * t
        pos = pivot - ORBIT_PIVOT_DISTANCE * np.array([np.sin(phi), 0.0, np.cos(phi)])
        poses.append(RigidTransform(rot_y(phi), pos))
    return poses


def _scene_planes(kind, extent):
    # (z, x_min, x_max, y_min, y_max) axis-aligned rectangles.
    e = extent
    if kind == "fronto_plane":
        return [(e, -2 * e, 2 * e, -2 * e, 2 * e)]
    if kind == "two_planes":
        return [(e, -2 * e, 0.0, -2 * e, 2 * e), (2 * e, -4 * e, 4 * e, -4 * e, 4 * e)]
    raise ValueError(f"unknown plane scene {kind!r}")


def plane_clip(kind, extent, poses, cam):
    """Radial map of a plane scene, one frame per pose, as an RDM1 fixture.

    "fronto_plane" is one square plane at z = extent; "two_planes" is the
    x <= 0 half of a plane at z = extent in front of a wider plane at
    z = 2 extent. Each pixel-centre ray is intersected analytically, and
    pixels whose rays miss every plane are invalid (value NaN).
    """
    jj, ii = np.meshgrid(np.arange(cam.width), np.arange(cam.height))
    pixels = np.stack([jj + 0.5, ii + 0.5], axis=-1).reshape(-1, 2)
    values, valid = [], []
    for pose in poses:
        dirs = unproject_points(cam, pixels) @ pose.rotation.T
        origin = pose.translation
        best = np.full(dirs.shape[0], np.inf)
        for z0, x_min, x_max, y_min, y_max in _scene_planes(kind, extent):
            dz = dirs[:, 2]
            ok = np.abs(dz) > 1e-12
            t = np.where(ok, (z0 - origin[2]) / np.where(ok, dz, 1.0), np.inf)
            hit_x = origin[0] + t * dirs[:, 0]
            hit_y = origin[1] + t * dirs[:, 1]
            inside = (
                ok
                & (t > _HIT_EPS)
                & (hit_x >= x_min)
                & (hit_x <= x_max)
                & (hit_y >= y_min)
                & (hit_y <= y_max)
            )
            best = np.where(inside & (t < best), t, best)
        hit = np.isfinite(best)
        values.append(np.where(hit, best, np.nan).reshape(cam.height, cam.width))
        valid.append(hit.reshape(cam.height, cam.width))
    return RadialMap(values=np.stack(values), source_valid=np.stack(valid))


# reference_train_head_on_tokens is the single-head trainer as it was before
# the layer slots were trained in lockstep, kept verbatim: one head on (N, d)
# features, parameters in separate arrays, the clip norm as a Python sum of
# per-field sums. It is the reference that pins the lockstep trainer's bits.
def reference_train_head_on_tokens(
    features: np.ndarray,
    target_values: np.ndarray,
    steps: int,
    lr: float,
    seed: int,
    holdout_fraction: float = 0.2,
    record_every: int = 0,
):
    """Train one head on (N, d) features against positive normalized targets.

    Returns (params, stats) with init/final training loss, init/final
    held-out probe error, the largest global gradient norm before clipping,
    the fraction of steps whose gradient was clipped and, when
    record_every > 0, the training curve as (step, loss) pairs.
    """
    feats = np.asarray(features, dtype=float)
    vals = np.asarray(target_values, dtype=float)
    if feats.ndim != 2 or vals.shape != feats.shape[:1]:
        raise ValueError("need (N, d) features and N targets")
    if not np.all(np.isfinite(feats)):
        raise ValueError("features must be finite")
    if not np.all(vals > 0):
        raise ValueError("targets must be positive normalized radial distances")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    n = feats.shape[0]
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_hold = max(1, int(round(holdout_fraction * n))) if n > 1 else 0
    hold_idx = order[:n_hold]
    train_idx = order[n_hold:]
    if train_idx.size == 0:
        raise ValueError("no training tokens left after the holdout split")

    center = np.exp(np.median(np.log(vals[train_idx])))
    vals = vals / center

    train_vals = vals[train_idx]
    train_feats = feats[train_idx]

    def probe_error(params):
        if not n_hold:
            return float("nan")
        mu = head_forward(params, feats[hold_idx])["mu"]
        return float(np.mean(np.abs(np.exp(mu) - vals[hold_idx])))

    params = head_init(feats.shape[1], seed)
    warmup = int(round(_WARMUP_FRACTION * steps))
    init_probe = probe_error(params)
    init_loss = None
    loss = None
    total = None
    max_total = 0.0
    clipped = 0
    curve = []
    # The features were checked once above and are normalised once here;
    # each step runs one forward pass and reuses its cache for the backward.
    _, train_xhat = head_layer_norm(train_feats)
    for step in range(steps):
        cache = head_forward_normalized(params, train_xhat)
        res = radial_loss(cache["mu"], cache["sigma"], train_vals)
        if not np.isfinite(res.loss):
            raise DivergenceError(step, res.loss, loss, total)
        loss = res.loss
        if init_loss is None:
            init_loss = loss
        if record_every and (step % record_every == 0 or step == steps - 1):
            curve.append((step, float(loss)))
        grad_mu = res.grad_mu
        if step < warmup:
            grad_mu = np.zeros_like(grad_mu)
        g = head_backward(params, cache, grad_mu, res.grad_sigma)
        total = float(np.sqrt(sum(float((a * a).sum()) for _, a in g.field_arrays())))
        max_total = max(max_total, total)
        if total <= _CLIP_NORM:
            scale = lr
        else:
            scale = lr * _CLIP_NORM / total
            clipped += 1
        for name, grad in g.field_arrays():
            getattr(params, name).__isub__(scale * grad)
    final_probe = probe_error(params)
    stats = {
        "init_loss": float(init_loss),
        "final_loss": float(loss),
        "loss_reduction": float((init_loss - loss) / abs(init_loss)) if init_loss else 0.0,
        "init_probe_error": init_probe,
        "final_probe_error": final_probe,
        "max_grad_norm": max_total,
        "clipped_step_fraction": clipped / steps,
        "curve": curve,
    }
    return params, stats
