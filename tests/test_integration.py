"""End-to-end chain: rendered scene -> RDM1 file -> CLI coefficients ->
attention forward, the way a consumer would wire the pieces together."""

import json
import struct

import numpy as np

from curverope.attention import TokenBatch, attention_forward
from curverope.camera import UcmCamera
from curverope.cli import main
from curverope.formats import save_trajectory, write_rdm1
from curverope.rope import make_frequency_plan
from curverope.supervision import near_distance_stat, validity_mask

from util import attention_init, orbit_poses, plane_clip


def test_scene_to_attention_chain(tmp_path):
    cam = UcmCamera(56.0, 56.0, 32.0, 32.0, 0.6, 64, 64)
    frames = 3
    poses = orbit_poses(frames, 0.3)
    rmap = plane_clip("two_planes", 2.0, poses, cam)
    near = near_distance_stat(rmap, validity_mask(rmap))

    traj = tmp_path / "traj.json"
    save_trajectory(traj, cam, poses)
    rdm = tmp_path / "maps.rdm1"
    write_rdm1(rdm, rmap, near_stat=near)

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trajectory": str(traj), "rdm1": str(rdm), "patch_size": 16}))
    out = tmp_path / "out"
    assert main(["coeffs", "--config", str(cfg), "--out", str(out)]) == 0

    raw = (out / "coeffs.bin").read_bytes()
    qf, sf, rows, cols, pairs = struct.unpack_from("<IIIII", raw, 4)
    assert (qf, sf, rows, cols) == (frames, frames, 4, 4)
    coeffs = (
        np.frombuffer(raw, dtype="<f4", offset=24)
        .reshape(qf, sf, rows * cols, pairs, 2)
        .astype(float)
    )

    plan = make_frequency_plan(2 * pairs, 9)
    rng = np.random.default_rng(0)
    d_model = 24
    batch = TokenBatch(features=rng.normal(size=(frames, rows * cols, d_model)))

    params = attention_init(d_model, plan.total_dim, seed=1)
    # zero-init output projection: the block is a residual no-op
    assert np.array_equal(
        attention_forward(params, batch, coeffs, plan), batch.features
    )

    params.wo = rng.normal(scale=0.1, size=params.wo.shape)
    out_grid = attention_forward(params, batch, coeffs, plan)
    assert out_grid.shape == batch.features.shape
    assert np.all(np.isfinite(out_grid))
    assert not np.array_equal(out_grid, batch.features)
