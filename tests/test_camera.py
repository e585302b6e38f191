import numpy as np
import pytest

from curverope.camera import Ray, RigidTransform, UcmCamera, relative_transform, unproject_points
from curverope.phasor import breakpoints, projected_path

from util import oracle_project, random_camera, random_rotation


def test_unproject_center_pinhole():
    cam = UcmCamera(100, 100, 50, 50, 0.0, 100, 100)
    direction = unproject_points(cam, (50, 50))
    assert np.allclose(direction, [0, 0, 1], atol=1e-15)


def test_unproject_pinhole_45deg():
    cam = UcmCamera(100, 100, 50, 50, 0.0, 100, 100)
    direction = unproject_points(cam, (150, 50))
    s = 1 / np.sqrt(2)
    assert np.allclose(direction, [s, 0, s], atol=1e-15)


def test_unproject_center_full_distortion():
    cam = UcmCamera(100, 100, 50, 50, 1.0, 100, 100)
    direction = unproject_points(cam, (50, 50))
    assert np.allclose(direction, [0, 0, 1], atol=1e-15)


def test_project_on_axis():
    cam = UcmCamera(100, 100, 50, 50, 0.0, 100, 100)
    assert np.allclose(oracle_project(cam, (0, 0, 2)), [50, 50], atol=1e-15)


def test_project_full_distortion():
    cam = UcmCamera(100, 100, 0, 0, 1.0, 100, 100)
    px = oracle_project(cam, (1, 0, 1))
    assert np.allclose(px, [100 * (np.sqrt(2) - 1), 0], atol=1e-12)


def test_roundtrip_random():
    rng = np.random.default_rng(1)
    for _ in range(100):
        cam = random_camera(rng)
        pixels = np.stack(
            [rng.uniform(0, cam.width, 100), rng.uniform(0, cam.height, 100)], axis=1
        )
        radii = rng.uniform(0.1, 50.0, 100)
        dirs = unproject_points(cam, pixels)
        back = np.array([oracle_project(cam, p) for p in radii[:, None] * dirs])
        assert np.max(np.abs(back - pixels)) < 1e-6


def test_unprojected_rays_unit_norm():
    rng = np.random.default_rng(2)
    cam = random_camera(rng)
    pixels = np.stack([rng.uniform(0, 64, 500), rng.uniform(0, 64, 500)], axis=1)
    dirs = unproject_points(cam, pixels)
    assert np.max(np.abs(np.linalg.norm(dirs, axis=1) - 1.0)) < 1e-12


def test_pinhole_equivalence():
    rng = np.random.default_rng(3)
    cam = random_camera(rng, xi=0.0)
    pixels = np.stack([rng.uniform(-20, 90, 200), rng.uniform(-20, 90, 200)], axis=1)
    dirs = unproject_points(cam, pixels)
    x = (pixels[:, 0] - cam.cx) / cam.fx
    y = (pixels[:, 1] - cam.cy) / cam.fy
    naive = np.stack([x, y, np.ones_like(x)], axis=1)
    naive /= np.linalg.norm(naive, axis=1, keepdims=True)
    assert np.max(np.abs(dirs - naive)) < 1e-12
    assert np.all(dirs[:, 2] > 0)


def test_relative_transform_identity():
    rng = np.random.default_rng(5)
    pose = RigidTransform(random_rotation(rng), rng.normal(size=3))
    rel = relative_transform(pose, pose)
    assert np.allclose(rel.rotation, np.eye(3), atol=1e-12)
    assert np.allclose(rel.translation, 0, atol=1e-12)


def test_relative_transform_pure_translation():
    t = np.array([1.0, -2.0, 0.5])
    rel = relative_transform(RigidTransform(np.eye(3), np.zeros(3)), RigidTransform(np.eye(3), t))
    assert np.allclose(rel.rotation, np.eye(3))
    assert np.allclose(rel.translation, -t)


def test_relative_transform_of_two_accepted_poses_is_not_checked_again():
    """Each pose is orthonormal within the 1e-9 tolerance; their product is
    not (its deviation is about 1.8e-9), and relative_transform returns it
    as computed. The checks stay where poses enter."""
    e = np.diag([0.45e-9, -0.45e-9, 0.0])
    pose = RigidTransform(np.eye(3) + e, np.zeros(3))
    rel = relative_transform(pose, pose)
    assert rel.rotation.tobytes() == (pose.rotation.T @ pose.rotation).tobytes()
    assert rel.translation.tobytes() == np.zeros(3).tobytes()
    with pytest.raises(ValueError, match="not orthonormal within 1e-9"):
        RigidTransform(rel.rotation, rel.translation)


def test_relative_transform_against_world_frame():
    rng = np.random.default_rng(6)
    for _ in range(20):
        ps = RigidTransform(random_rotation(rng), rng.normal(size=3))
        pq = RigidTransform(random_rotation(rng), rng.normal(size=3))
        rel = relative_transform(ps, pq)
        point_s = rng.normal(size=3)
        world = ps.rotation @ point_s + ps.translation
        in_query = pq.rotation.T @ (world - pq.translation)
        assert np.allclose(point_s @ rel.rotation.T + rel.translation, in_query, atol=1e-10)


def test_lift_point():
    """Lifting puts each radius along its ray: under the identity transform
    the range coordinate of the projected path equals the radii."""
    cam = UcmCamera(100, 100, 50, 50, 0.5, 100, 100)
    identity = RigidTransform(np.eye(3), np.zeros(3))
    path = projected_path(cam, identity, Ray(np.array([0.0, 0.0, 1.0])), np.array([1.0, 2.0]))
    assert np.allclose(path.points[:, 2], [1, 2])
    assert np.allclose(path.points[:, :2], 0)
    rng = np.random.default_rng(7)
    for _ in range(20):
        d = rng.normal(size=3)
        ray = Ray(d / np.linalg.norm(d))
        r = rng.uniform(0.01, 100)
        assert np.isclose(projected_path(cam, identity, ray, np.array([r, r])).points[0, 2], r)


def test_input_errors():
    cam = UcmCamera(100, 100, 50, 50, 0.5, 100, 100)
    with pytest.raises(ValueError):
        unproject_points(cam, (np.nan, 10))
    # Radii enter the coefficient path through breakpoints, which checks them.
    for mu, sigma in ((np.nan, 1.0), (np.inf, 1.0), (0.0, -np.inf), (0.0, [0.5, np.nan])):
        with pytest.raises(ValueError, match="finite"):
            breakpoints(mu, sigma, 5)


def test_construction_errors():
    with pytest.raises(ValueError):
        UcmCamera(100, 100, 50, 50, 1.2, 100, 100)
    with pytest.raises(ValueError):
        UcmCamera(100, 100, 50, 50, -0.1, 100, 100)
    with pytest.raises(ValueError):
        UcmCamera(-1, 100, 50, 50, 0.5, 100, 100)
    with pytest.raises(ValueError):
        UcmCamera(100, 100, 50, 50, 0.5, 0, 100)
    with pytest.raises(ValueError, match="finite"):
        UcmCamera(100, 100, np.nan, 50, 0.5, 100, 100)
    with pytest.raises(ValueError, match="finite"):
        UcmCamera(100, 100, 50, np.inf, 0.5, 100, 100)
    with pytest.raises(ValueError):
        Ray(np.array([0.0, 0.0, 2.0]))
    bad = np.eye(3)
    bad[0, 0] = 1.0 + 1e-6
    with pytest.raises(ValueError):
        RigidTransform(bad, np.zeros(3))
