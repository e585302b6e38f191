import tracemalloc

import numpy as np
import pytest

from curverope import scene as scene_module
from curverope.camera import RigidTransform, UcmCamera, unproject_points
from curverope.scene import (
    SceneSpec,
    depth_signal_weight,
    make_layer_features,
    make_trajectory,
    render_clip,
    render_radial_map,
)
from curverope.supervision import TokenTargets

from util import ORBIT_PIVOT_DISTANCE, dense_intersect, oracle_project, orbit_poses, pan_poses, plane_clip


CAM = UcmCamera(56.0, 56.0, 32.0, 32.0, 0.0, 64, 64)
IDENTITY = RigidTransform(np.eye(3), np.zeros(3))


def _plane_frame(kind, extent):
    """The plane fixture's radial map seen from the identity pose."""
    rmap = plane_clip(kind, extent, [IDENTITY], CAM)
    return rmap.values[0], rmap.source_valid[0]


def test_fronto_plane_center_pixel():
    values, valid = _plane_frame("fronto_plane", 4.0)
    # principal point (32, 32) lies at the corner of pixels 31/32: the
    # pixel-center ray of (31, 31) is (31.5+..) -> use the exact ray instead
    assert np.allclose(unproject_points(CAM, (32.0, 32.0)), [0, 0, 1])
    # nearest pixel centers straddle the axis; check the analytic value 4/dz
    for (i, j) in [(31, 31), (31, 32), (32, 31), (32, 32)]:
        d = unproject_points(CAM, (j + 0.5, i + 0.5))
        assert valid[i, j]
        assert abs(values[i, j] - 4.0 / d[2]) < 1e-9


def test_fronto_plane_off_axis_matches_formula():
    values, valid = _plane_frame("fronto_plane", 4.0)
    rng = np.random.default_rng(0)
    for _ in range(30):
        i, j = rng.integers(8, 56, 2)
        d = unproject_points(CAM, (j + 0.5, i + 0.5))
        assert valid[i, j]
        assert abs(values[i, j] - 4.0 / d[2]) < 1e-9


def test_empty_region_invalid():
    scene = SceneSpec(extent=2.0, num_points=1, seed=0)
    values, valid = render_radial_map(scene, IDENTITY, CAM)
    assert not valid.all()
    assert np.isnan(values[~valid]).all()


def test_two_planes_depth_split():
    values, valid = _plane_frame("two_planes", 2.0)
    left = values[30, 10]
    right = values[30, 54]
    assert valid[30, 10] and valid[30, 54]
    assert right > left  # far plane covers the +x half


def test_rendered_points_reproject_to_pixel():
    rng = np.random.default_rng(1)
    cam = UcmCamera(50.0, 52.0, 32.0, 32.0, 0.6, 64, 64)
    scene = SceneSpec(extent=2.0, num_points=200, seed=3)
    for pose in orbit_poses(3, 0.3):
        values, valid = render_radial_map(scene, pose, cam)
        ii, jj = np.nonzero(valid)
        sel = rng.choice(ii.size, size=min(200, ii.size), replace=False)
        for idx in sel:
            i, j = ii[idx], jj[idx]
            pixel = np.array([j + 0.5, i + 0.5])
            d = unproject_points(cam, pixel)
            px = oracle_project(cam, values[i, j] * d)
            assert np.max(np.abs(px - pixel)) < 1e-6


def test_rendered_values_positive_finite():
    scene = SceneSpec(extent=2.0, num_points=300, seed=4)
    rmap = render_clip(scene, make_trajectory(4, 0.5), CAM)
    assert rmap.source_valid.any()
    vals = rmap.values[rmap.source_valid]
    assert np.all(np.isfinite(vals)) and np.all(vals > 0)


def test_render_deterministic():
    scene = SceneSpec(extent=2.0, num_points=64, seed=9)
    a = render_radial_map(scene, IDENTITY, CAM)
    b = render_radial_map(scene, IDENTITY, CAM)
    assert np.array_equal(a[0], b[0], equal_nan=True)
    assert np.array_equal(a[1], b[1])


def test_trajectory_first_frame_identity():
    for build in (orbit_poses, make_trajectory, pan_poses):
        poses = build(4, 0.4)
        assert np.allclose(poses[0].rotation, np.eye(3), atol=1e-12)
        assert np.allclose(poses[0].translation, 0, atol=1e-12)
        assert len(poses) == 4


def test_orbit_looks_at_pivot():
    poses = orbit_poses(5, 0.8)
    pivot = np.array([0, 0, ORBIT_PIVOT_DISTANCE])
    for pose in poses:
        forward = pose.rotation[:, 2]
        to_pivot = pivot - pose.translation
        to_pivot /= np.linalg.norm(to_pivot)
        assert np.allclose(forward, to_pivot, atol=1e-12)


def test_spec_validation():
    with pytest.raises(ValueError):
        SceneSpec(extent=-1.0)
    with pytest.raises(ValueError):
        make_trajectory(0, 0.1)


def test_depth_signal_weight_hump():
    weights = [depth_signal_weight(i, 12) for i in range(12)]
    assert np.argmax(weights) in (5, 6)
    assert weights[0] < 0.1
    assert weights[5] > 0.9
    mid = (len(weights) - 1) / 2
    for i in range(1, 6):
        assert weights[i] >= weights[i - 1]
    with pytest.raises(ValueError):
        depth_signal_weight(12, 12)


def _targets():
    rng = np.random.default_rng(2)
    vals = np.exp(rng.uniform(-0.5, 0.5, (2, 4, 4)))
    mask = np.ones_like(vals, bool)
    mask[0, 0, 0] = False
    return TokenTargets(targets=np.where(mask, vals, 0.0), mask=mask)


def test_layer_features_shape_and_determinism():
    t = _targets()
    a = make_layer_features(t, 8, 32, seed=5)
    b = make_layer_features(t, 8, 32, seed=5)
    assert a.shape == (8, 32, 32)
    assert np.array_equal(a, b)
    assert not np.array_equal(a[3], a[4])


def test_layer_features_slots_are_independent(monkeypatch):
    """A slot's features depend on its index, its depth weight and the seed
    only: with the weight fixed, the first slots of a deeper stack are the
    slots of a shallower one, bit for bit."""
    t = _targets()
    monkeypatch.setattr(scene_module, "depth_signal_weight", lambda layer, num_layers: 0.5)
    deep = make_layer_features(t, 8, 32, seed=5)
    assert deep[:3].tobytes() == make_layer_features(t, 3, 32, seed=5).tobytes()


def test_layer_features_depth_weight_scales_signal(monkeypatch):
    t = _targets()
    monkeypatch.setattr(scene_module, "_FEATURE_NOISE", 0.0)
    monkeypatch.setattr(scene_module, "depth_signal_weight", lambda layer, num_layers: 0.0)
    weak = make_layer_features(t, 8, 32, seed=5)[0]
    monkeypatch.setattr(scene_module, "depth_signal_weight", lambda layer, num_layers: 1.0)
    strong = make_layer_features(t, 8, 32, seed=5)[0]
    diff = strong - weak
    # the difference is exactly the rank-one depth term: nonzero only on valid tokens
    flat = diff.reshape(-1, 32)
    mask = t.mask.reshape(-1)
    assert np.allclose(flat[~mask], 0.0)
    assert np.linalg.norm(flat[mask]) > 0


def _dense_render(spec, pose, cam):
    """Unblocked reference renderer: one (pixels, spheres, 3) array per frame."""
    jj, ii = np.meshgrid(np.arange(cam.width), np.arange(cam.height))
    pixels = np.stack([jj + 0.5, ii + 0.5], axis=-1).reshape(-1, 2)
    dirs = unproject_points(cam, pixels) @ pose.rotation.T
    origins = np.broadcast_to(pose.translation, dirs.shape)
    eps = scene_module._HIT_EPS
    centers, radius = scene_module._scene_spheres(spec)
    oc = centers[None, :, :] - origins[:, None, :]
    proj = np.einsum("nmk,nk->nm", oc, dirs)
    disc = proj * proj - (np.einsum("nmk,nmk->nm", oc, oc) - radius * radius)
    ok = disc >= 0
    root = np.sqrt(np.where(ok, disc, 0.0))
    t = np.where(proj - root > eps, proj - root, proj + root)
    best = np.where(ok & (t > eps), t, np.inf).min(axis=1)
    valid = np.isfinite(best)
    shape = (cam.height, cam.width)
    return np.where(valid, best, np.nan).reshape(shape), valid.reshape(shape)


def test_render_matches_dense_reference_bit_for_bit():
    spec = SceneSpec(extent=2.0, num_points=300, seed=4)
    # 50 x 38 pixels leave a partial last block of rays.
    for cam in (UcmCamera(50.0, 52.0, 32.0, 32.0, 0.6, 64, 64), UcmCamera(40.0, 41.0, 25.0, 19.0, 0.6, 50, 38)):
        poses = orbit_poses(3, 0.3)
        for pose in (poses[0], poses[2]):
            values, valid = render_radial_map(spec, pose, cam)
            want_values, want_valid = _dense_render(spec, pose, cam)
            assert valid.any()
            assert np.array_equal(valid, want_valid)
            assert values.tobytes() == want_values.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2, 5])
def test_sparse_sphere_hits_match_the_dense_intersect(seed):
    """Roots taken only where a ray meets a sphere give the hit distances of
    the dense per-pair evaluation bit for bit, misses (inf) included."""
    spec = SceneSpec(extent=2.0, num_points=300, seed=seed)
    centers, _ = scene_module._scene_spheres(spec)
    hits = 0
    # The default train-head camera, and one whose 50 x 38 rays leave a
    # partial last block.
    for cam in (UcmCamera(56.0, 56.0, 32.0, 32.0, 0.3, 64, 64), UcmCamera(40.0, 41.0, 25.0, 19.0, 0.6, 50, 38)):
        jj, ii = np.meshgrid(np.arange(cam.width), np.arange(cam.height))
        pixels = np.stack([jj + 0.5, ii + 0.5], axis=-1).reshape(-1, 2)
        poses = [
            pose
            for build, amplitude in ((make_trajectory, 0.4), (orbit_poses, 0.4), (pan_poses, np.pi))
            for pose in build(3, amplitude)[1:]
        ]
        # Turned away from the spheres (pan by pi), a ray's line can meet a
        # sphere behind the camera; from inside a sphere only the far root
        # lies ahead.
        for pose in poses:
            for origin in (pose.translation, centers[0]):
                dirs = unproject_points(cam, pixels) @ pose.rotation.T
                got = scene_module._intersect(spec, origin, dirs)
                want = dense_intersect(spec, origin, dirs)
                hits += np.count_nonzero(np.isfinite(want))
                assert got.tobytes() == want.tobytes()
    assert hits > 0


def test_render_memory_is_bounded_by_the_ray_block():
    """One 64x64 frame against 300 spheres; a dense (pixels, spheres, 3)
    renderer peaks near 96 MiB of traced numpy memory."""
    spec = SceneSpec(extent=2.0, num_points=300, seed=0)
    cam = UcmCamera(56.0, 56.0, 32.0, 32.0, 0.3, 64, 64)
    pose = make_trajectory(2, 0.4)[1]
    tracemalloc.start()
    try:
        render_radial_map(spec, pose, cam)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak
