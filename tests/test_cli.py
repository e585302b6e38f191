import csv
import functools
import io
import json
import re
import struct
import warnings

import numpy as np
import pytest

from curverope.camera import UcmCamera, relative_transform
from curverope.cli import main
from curverope.formats import camera_from_dict, load_trajectory, read_rdm1, save_trajectory, write_rdm1
from curverope.head import head_init
from curverope.phasor import LOG_RANGE_BOUND, breakpoints, token_paths, token_rays
from curverope.rope import make_frequency_plan
from curverope.scene import make_trajectory
from curverope.supervision import RadialMap
from curverope.teacher_mix import external_override

from util import orbit_poses, pair_slice, pan_poses, plane_clip


def _write_config(tmp_path, **overrides):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(overrides))
    return str(path)


def _make_trajectory_file(tmp_path, frames=2, poses_of=make_trajectory, amplitude=0.3, xi=0.4, name="traj.json"):
    cam = UcmCamera(56.0, 56.0, 32.0, 32.0, xi, 64, 64)
    poses = poses_of(frames, amplitude)
    path = tmp_path / name
    save_trajectory(path, cam, poses)
    return str(path), cam, poses


def _read_coeffs(path):
    raw = path.read_bytes()
    assert raw[:4] == b"MCF1"
    qf, sf, rows, cols, pairs = struct.unpack_from("<IIIII", raw, 4)
    data = np.frombuffer(raw, dtype="<f4", offset=24)
    return data.reshape(qf, sf, rows * cols, pairs, 2).astype(float)


def _read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    reader = csv.DictReader(lines[1:])
    return list(reader)


def test_coeffs_sigma_zero_exact_rope(tmp_path):
    traj, _, _ = _make_trajectory_file(tmp_path, frames=2, amplitude=0.0)
    cfg = _write_config(tmp_path, trajectory=traj, coeffs={"sigma_override": 0.0})
    out = tmp_path / "out"
    assert main(["coeffs", "--config", cfg, "--out", str(out)]) == 0
    coeffs = _read_coeffs(out / "coeffs.bin")
    mags = np.sqrt((coeffs**2).sum(-1))
    assert np.max(np.abs(mags - 1.0)) < 1e-6  # f32 storage rounds the f64 values
    summary = json.loads((out / "coeffs_summary.json").read_text())
    # the summary magnitudes come from the computed f64 values
    assert abs(summary["min_magnitude"] - 1.0) < 1e-9
    assert abs(summary["max_magnitude"] - 1.0) < 1e-9
    assert summary["magnitude_bound_ok"] is True
    assert summary["identity_fallback_count"] == 0
    assert summary["teacher_substituted_tokens"] == 0
    assert "config_hash" in summary


def test_coeffs_init_head_range_channels_shrink(tmp_path):
    traj, _, _ = _make_trajectory_file(tmp_path, frames=2, amplitude=0.3)
    cfg = _write_config(tmp_path, trajectory=traj)
    out = tmp_path / "out"
    assert main(["coeffs", "--config", cfg, "--out", str(out)]) == 0
    coeffs = _read_coeffs(out / "coeffs.bin")
    mags = np.sqrt((coeffs**2).sum(-1))
    plan = make_frequency_plan(36, 9)
    range_pairs = np.zeros(plan.num_pairs, bool)
    for a in range(3):
        range_pairs[pair_slice(plan, 3 * a + 2)] = True
    assert np.all(mags[..., range_pairs] < 1.0 - 1e-6)


def test_coeffs_exit_1_when_magnitude_bound_fails(tmp_path, monkeypatch):
    from curverope import cli

    kernel = cli.coefficients_from_paths

    def inflated(path, plan):
        coeffs, fallbacks = kernel(path, plan)
        return coeffs * (1.0 + 1e-6), fallbacks

    monkeypatch.setattr(cli, "coefficients_from_paths", inflated)
    traj, _, _ = _make_trajectory_file(tmp_path, frames=2, amplitude=0.0)
    cfg = _write_config(tmp_path, trajectory=traj, coeffs={"sigma_override": 0.0})
    out = tmp_path / "out"
    assert main(["coeffs", "--config", cfg, "--out", str(out)]) == 1
    summary = json.loads((out / "coeffs_summary.json").read_text())
    assert summary["magnitude_bound_ok"] is False


def test_coeffs_deterministic(tmp_path):
    traj, _, _ = _make_trajectory_file(tmp_path, frames=2, poses_of=orbit_poses, amplitude=0.2)
    cfg = _write_config(tmp_path, trajectory=traj)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["coeffs", "--config", cfg, "--out", str(out1), "--seed", "5"]) == 0
    assert main(["coeffs", "--config", cfg, "--out", str(out2), "--seed", "5"]) == 0
    assert (out1 / "coeffs.bin").read_bytes() == (out2 / "coeffs.bin").read_bytes()
    assert (out1 / "coeffs_summary.json").read_bytes() == (out2 / "coeffs_summary.json").read_bytes()


def test_coeffs_with_rdm1_teacher_intervals(tmp_path):
    traj, cam, poses = _make_trajectory_file(tmp_path, frames=2, amplitude=0.1)
    rmap = plane_clip("fronto_plane", 3.0, poses, cam)
    invalid = RadialMap(values=np.full(rmap.values.shape, np.nan), source_valid=np.zeros(rmap.values.shape, bool))
    # 2 frames of 4 x 4 tokens; every token of the fronto plane is valid.
    for name, radial_map, substituted in (("maps", rmap, 32), ("invalid", invalid, 0)):
        rdm = tmp_path / f"{name}.rdm1"
        write_rdm1(rdm, radial_map, near_stat=2.0)
        cfg = _write_config(tmp_path, trajectory=traj, rdm1=str(rdm))
        out = tmp_path / name
        assert main(["coeffs", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "coeffs_summary.json").read_text())
        assert summary["max_magnitude"] <= 1.0 + 1e-9
        assert summary["teacher_substituted_tokens"] == substituted, name


def test_trace_identity_constant_uv(tmp_path):
    traj, _, _ = _make_trajectory_file(tmp_path, frames=2, amplitude=0.0)
    cfg = _write_config(tmp_path, trajectory=traj)
    out = tmp_path / "out"
    assert main(["trace-path", "--config", cfg, "--out", str(out)]) == 0
    rows = _read_csv(out / "trace.csv")
    by_key = {}
    for r in rows:
        by_key.setdefault((r["token"], r["offset"]), []).append(r)
    assert len(by_key) == 16 * 3
    for chunk in by_key.values():
        us = {r["u_bounded"] for r in chunk}
        vs = {r["v_bounded"] for r in chunk}
        assert len(chunk) == 5
        ranges = [float(r["range"]) for r in chunk]
        assert all(float(u) <= 1 for u in us)
        # identical repr strings up to fp noise: compare numerically
        uvals = [float(u) for u in us]
        assert max(uvals) - min(uvals) < 1e-9
        vvals = [float(v) for v in vs]
        assert max(vvals) - min(vvals) < 1e-9
        assert ranges == sorted(ranges)


def test_trace_curved_path_turns(tmp_path):
    traj, _, _ = _make_trajectory_file(tmp_path, frames=2, poses_of=orbit_poses, amplitude=0.25, xi=0.8)
    cfg = _write_config(tmp_path, trajectory=traj, k=9)
    out = tmp_path / "out"
    assert main(["trace-path", "--config", cfg, "--out", str(out)]) == 0
    rows = _read_csv(out / "trace.csv")
    max_turn = 0.0
    by_key = {}
    for r in rows:
        if r["valid"] == "1":
            by_key.setdefault((r["token"], r["offset"]), []).append(
                (float(r["u_bounded"]), float(r["v_bounded"]))
            )
    for pts in by_key.values():
        pts = np.asarray(pts)
        if len(pts) < 3:
            continue
        d = np.diff(pts, axis=0)
        for a, b in zip(d[:-1], d[1:]):
            na, nb = np.linalg.norm(a), np.linalg.norm(b)
            if na > 1e-12 and nb > 1e-12:
                cosang = np.clip(a @ b / (na * nb), -1, 1)
                max_turn = max(max_turn, np.arccos(cosang))
    assert max_turn > 1e-6


@pytest.mark.parametrize("key", ["query_frame", "source_frame"])
def test_trace_frame_index_range(tmp_path, capsys, key):
    """trace-path takes frame indices in [-F, F): -1 is the last frame and
    traces what F - 1 traces; 9 and -5 on a 4-frame clip are validation
    errors naming the key, not frames 1 and 3 by wrap-around."""
    traj, _, _ = _make_trajectory_file(tmp_path, frames=4, poses_of=orbit_poses, amplitude=0.25)
    bodies = {}
    for index, code in ((9, 1), (-5, 1), (3, 0), (-1, 0)):
        cfg = _write_config(tmp_path, trajectory=traj, k=5, trace={key: index})
        out = tmp_path / f"out{index}"
        capsys.readouterr()
        assert main(["trace-path", "--config", cfg, "--out", str(out)]) == code, index
        err = capsys.readouterr().err
        if code:
            assert err.startswith("validation error:") and f"trace.{key}" in err, err
            assert not (out / "trace.csv").exists()
        else:
            bodies[index] = (out / "trace.csv").read_text().splitlines()[1:]
    assert bodies[-1] == bodies[3]


def _pinhole_pan_clip(tmp_path, k):
    """A config for a 3-frame, 1.2 rad pinhole pan of 4 x 4 tokens with a
    two-plane RDM1 map: the late frames look away from the first frame's
    content, so some breakpoints are invisible and some offsets fall back."""
    camera = {"fx": 40.0, "fy": 44.0, "cx": 31.0, "cy": 33.0, "xi": 0.0, "width": 64, "height": 64}
    cam = camera_from_dict(camera)
    traj = tmp_path / "traj.json"
    save_trajectory(traj, cam, pan_poses(3, 1.2))
    cam, poses = load_trajectory(traj)
    rdm = tmp_path / "maps.rdm1"
    write_rdm1(rdm, plane_clip("two_planes", 2.0, poses, cam), near_stat=1.5)
    return cam, poses, rdm, _write_config(tmp_path, trajectory=str(traj), rdm1=str(rdm), k=k)


def test_trace_csv_bytes_equal_a_csv_writer_over_the_same_paths(tmp_path):
    """trace.csv is formatted column by column; its bytes equal csv.writer
    rows of repr(float) over the same token_paths arrays, with a bare LF
    after the config-hash line and CRLF after every row. The RDM1 map gives
    the tokens different radii and the pinhole pan flags some points invalid."""
    cam, poses, rdm, cfg = _pinhole_pan_clip(tmp_path, k=7)
    assert main(["trace-path", "--config", cfg, "--out", str(tmp_path / "out")]) == 0

    mu, sigma = np.zeros((3, 4, 4)), np.full((3, 4, 4), LOG_RANGE_BOUND)
    teacher = external_override(mu, sigma, read_rdm1(rdm), 1.5)
    radii = breakpoints(teacher.mu[0], teacher.sigma[0], 7).reshape(16, 1, 7)
    path = token_paths(cam, relative_transform(poses[0], poses[2]), token_rays(cam, 16), radii)
    assert 0 < path.valid.sum() < path.valid.size and np.unique(radii[:, 0, 0]).size > 1
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["token", "offset", "k", "r_k", "u_bounded", "v_bounded", "range", "valid"])
    for t, a, j in np.ndindex(path.valid.shape):
        floats = (radii[t, 0, j], *path.points[t, a, j])
        writer.writerow([t, a, j + 1, *(repr(float(x)) for x in floats), int(path.valid[t, a, j])])
    first, body = (tmp_path / "out" / "trace.csv").read_bytes().split(b"\n", 1)
    assert re.fullmatch(rb"# config_hash=[0-9a-f]{64}", first)
    assert body == buf.getvalue().encode()


def test_coeffs_bytes_do_not_depend_on_the_block_size(tmp_path, monkeypatch):
    """coeffs.bin and coeffs_summary.json are byte-identical for every
    _PHASES_PER_CALL from 2^8 (one token per kernel call) to 2^20 (one call
    per frame pair), on a clip whose paths have invisible breakpoints and
    identity fallbacks."""
    from curverope import cli

    _, _, _, cfg = _pinhole_pan_clip(tmp_path, k=129)
    kernel = cli.coefficients_from_paths
    calls = []

    def spy(path, plan):
        coeffs, fallbacks = kernel(path, plan)
        calls.append((int(np.count_nonzero(~path.valid)), fallbacks))
        return coeffs, fallbacks

    monkeypatch.setattr(cli, "coefficients_from_paths", spy)
    outputs, num_calls = {}, {}
    for exponent in (8, 12, 14, 16, 20):
        monkeypatch.setattr(cli, "_PHASES_PER_CALL", 2**exponent)
        out = tmp_path / f"block-{exponent}"
        start = len(calls)
        assert main(["coeffs", "--config", cfg, "--out", str(out)]) == 0
        num_calls[exponent] = len(calls) - start
        outputs[exponent] = [(out / name).read_bytes() for name in ("coeffs.bin", "coeffs_summary.json")]
    assert all(files == outputs[8] for files in outputs.values())
    # 9 frame pairs of 16 tokens: one token per call, blocks of 7 tokens
    # with a partial last block, and whole pairs.
    assert num_calls == {8: 144, 12: 144, 14: 27, 16: 9, 20: 9}
    assert sum(invisible for invisible, _ in calls) > 0
    assert sum(fallbacks for _, fallbacks in calls) > 0
    assert json.loads(outputs[8][1])["identity_fallback_count"] > 0


def test_float32_export_meets_the_magnitude_bound_within_float32_rounding(tmp_path):
    """magnitude_bound_ok checks the float64 coefficients, |c|^2 <= 1 + 1e-12.
    Rounding a component to float32 scales it by at most 1 + 2^-24, so every
    pair in coeffs.bin has |c|^2 <= (1 + 2^-24)^2 (1 + 1e-12). On this
    fisheye clip with an RDM1 map, some exported pairs do exceed 1."""
    cam = UcmCamera(56.0, 56.0, 32.0, 32.0, 0.9, 64, 64)
    poses = orbit_poses(3, 0.3)
    traj, rdm = tmp_path / "traj.json", tmp_path / "maps.rdm1"
    save_trajectory(traj, cam, poses)
    write_rdm1(rdm, plane_clip("two_planes", 2.0, poses, cam), near_stat=1.5)
    cfg = _write_config(tmp_path, trajectory=str(traj), rdm1=str(rdm), k=129)
    out = tmp_path / "out"
    assert main(["coeffs", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "coeffs_summary.json").read_text())
    assert summary["magnitude_bound_ok"] is True and summary["teacher_substituted_tokens"] > 0
    coeffs = _read_coeffs(out / "coeffs.bin")
    sq = (coeffs**2).sum(axis=-1)
    assert np.count_nonzero(sq > 1.0) > 0
    assert sq.max() <= (1.0 + 2.0**-24) ** 2 * (1.0 + 1e-12)


def test_trace_and_coeffs_all_invalid_token(tmp_path):
    # query camera 30 units ahead of every lifted point, pinhole: all behind
    cam = UcmCamera(56.0, 56.0, 32.0, 32.0, 0.0, 64, 64)
    poses = make_trajectory(2, 30.0)
    traj = tmp_path / "traj.json"
    save_trajectory(traj, cam, poses)
    cfg = _write_config(tmp_path, trajectory=str(traj), coeffs={"sigma_override": 0.5})
    out = tmp_path / "out"
    assert main(["trace-path", "--config", cfg, "--out", str(out)]) == 0
    rows = _read_csv(out / "trace.csv")
    assert all(r["valid"] == "0" for r in rows)
    assert main(["coeffs", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "coeffs_summary.json").read_text())
    assert summary["identity_fallback_count"] > 0
    coeffs = _read_coeffs(out / "coeffs.bin")
    # the query frame that sits ahead falls back to identity everywhere
    assert np.all(coeffs[1, 0] == np.array([1.0, 0.0]))


def test_mix_sim_block_frame(tmp_path):
    cfg = _write_config(
        tmp_path, mix={"mode": "block_frame", "total_steps": 8000, "granules": 64, "stride": 500}
    )
    out = tmp_path / "out"
    assert main(["mix-sim", "--config", cfg, "--out", str(out)]) == 0
    rows = _read_csv(out / "mix_sim.csv")
    for r in rows:
        step = int(r["step"])
        if step <= 1000:
            assert r["probability"] == "1.0"
        if step >= 7000:
            assert r["probability"] == "0.1"
    assert any(r["probability"] == "0.55" for r in rows if r["step"] == "4000")


def test_mix_sim_video_floor(tmp_path):
    cfg = _write_config(
        tmp_path, mix={"mode": "video", "total_steps": 9000, "granules": 8, "stride": 1000}
    )
    out = tmp_path / "out"
    assert main(["mix-sim", "--config", cfg, "--out", str(out)]) == 0
    rows = _read_csv(out / "mix_sim.csv")
    for r in rows:
        if int(r["step"]) >= 7000:
            assert r["probability"] == "0.5"


def test_mix_sim_zero_validity(tmp_path):
    cfg = _write_config(
        tmp_path,
        mix={"mode": "block_frame", "total_steps": 4000, "granules": 32,
             "valid_fraction": 0.0, "stride": 200},
    )
    out = tmp_path / "out"
    assert main(["mix-sim", "--config", cfg, "--out", str(out)]) == 0
    rows = _read_csv(out / "mix_sim.csv")
    assert all(r["substituted"] == "0" for r in rows)


def test_mix_sim_deterministic(tmp_path):
    cfg = _write_config(tmp_path, mix={"granules": 16, "stride": 250})
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["mix-sim", "--config", cfg, "--out", str(a), "--seed", "3"]) == 0
    assert main(["mix-sim", "--config", cfg, "--out", str(b), "--seed", "3"]) == 0
    assert (a / "mix_sim.csv").read_bytes() == (b / "mix_sim.csv").read_bytes()


def test_gradcheck_command(tmp_path):
    cfg = _write_config(tmp_path, gradcheck={"samples": 25})
    out = tmp_path / "out"
    assert main(["gradcheck", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "gradcheck_report.json").read_text())
    assert report["head"]["pass"] and report["radial_loss"]["pass"]
    assert report["head"]["max_relative_error"] < 1e-4
    # boundary configurations are counted, never failed
    assert report["head"]["excluded"] >= 0
    assert report["radial_loss"]["flagged"] >= 0
    assert report["head"]["samples"] == 25


def test_gradcheck_report_does_not_depend_on_the_block_size(tmp_path, monkeypatch):
    """gradcheck_report.json is byte-identical for every _PROBE_BLOCK_ENTRIES
    from 2^10 (one probe row per block) to 2^21 (the parameter vector's
    2,404 probes in two blocks), at two seeds."""
    from curverope import checks

    cfg = _write_config(tmp_path, gradcheck={"samples": 4})
    param_entries = int(head_init(64, 0).bounds()[-1])
    split = checks._perturbed_blocks
    param_blocks = []

    def spy(flat):
        count = 0
        for block in split(flat):
            count += 1
            yield block
        if flat.size == param_entries:
            param_blocks.append(count)

    monkeypatch.setattr(checks, "_perturbed_blocks", spy)
    reports, splits = {}, {}
    for seed in (301, 105):
        for exponent in (10, 13, 17, 21):
            monkeypatch.setattr(checks, "_PROBE_BLOCK_ENTRIES", 2**exponent)
            out = tmp_path / f"out-{seed}-{exponent}"
            param_blocks.clear()
            assert main(["gradcheck", "--config", cfg, "--seed", str(seed), "--out", str(out)]) == 0
            reports.setdefault(seed, set()).add((out / "gradcheck_report.json").read_bytes())
            splits[seed, exponent] = set(param_blocks)
    assert all(len(files) == 1 for files in reports.values())
    assert reports[301] != reports[105]
    # The head has 1,202 parameters, so 2,404 probe rows: 1 row per block at
    # 2^10, 6 at 2^13, 109 at 2^17 and 1,744 at 2^21.
    assert param_entries == 1202
    for seed in (301, 105):
        assert [splits[seed, e] for e in (10, 13, 17, 21)] == [{2404}, {401}, {23}, {2}]


def test_oracle_check_command_small(tmp_path):
    cfg = _write_config(tmp_path, oracle={"num_configs": 5, "samples": 200000})
    out = tmp_path / "out"
    assert main(["oracle-check", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "oracle_report.json").read_text())
    assert report["pass"] is True
    rows = _read_csv(out / "oracle_errors.csv")
    assert len(rows) == 5


def test_train_head_command_small(tmp_path):
    cfg = _write_config(
        tmp_path,
        train={"num_layers": 4, "steps": 250, "d_model": 32, "record_every": 50},
    )
    out = tmp_path / "out"
    assert main(["train-head", "--config", cfg, "--out", str(out)]) == 0
    rows = _read_csv(out / "probe_errors.csv")
    assert len(rows) == 4
    for r in rows:
        assert float(r["max_grad_norm"]) > 0
        assert 0.0 <= float(r["clipped_step_fraction"]) <= 1.0
    report = json.loads((out / "train_report.json").read_text())
    assert report["valid_tokens"] > 0
    assert (out / "head_best.ckpt").exists()
    curves = _read_csv(out / "train_curves.csv")
    assert {r["layer"] for r in curves} == {"0", "1", "2", "3"}


def test_train_head_deterministic(tmp_path):
    cfg = _write_config(tmp_path, train={"num_layers": 2, "steps": 120, "d_model": 32})
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["train-head", "--config", cfg, "--out", str(a), "--seed", "2"]) == 0
    assert main(["train-head", "--config", cfg, "--out", str(b), "--seed", "2"]) == 0
    for name in ("probe_errors.csv", "train_curves.csv", "train_report.json", "head_best.ckpt"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_exit_code_parse_error_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["coeffs", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    # a UTF-16 byte-order mark is not UTF-8: a parse error at byte 0
    bad.write_bytes(b"\xff\xfe{")
    capsys.readouterr()
    assert main(["mix-sim", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "byte offset 0" in capsys.readouterr().err
    # arrays nested past the JSON parser's depth
    bad.write_bytes(b"[" * 5000)
    assert main(["mix-sim", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "nests too deeply" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["coeffs", "trace-path"])
def test_exit_code_parse_error_non_utf8_trajectory(tmp_path, capsys, command):
    traj = tmp_path / "traj.json"
    traj.write_bytes(b"\xff\xfe{")
    cfg = _write_config(tmp_path, trajectory=str(traj))
    capsys.readouterr()
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err and "byte offset 0" in err


def test_exit_code_parse_error_rdm1(tmp_path):
    traj, _, _ = _make_trajectory_file(tmp_path)
    bad = tmp_path / "bad.rdm1"
    bad.write_bytes(b"XXXX" + b"\x00" * 16)
    cfg = _write_config(tmp_path, trajectory=traj, rdm1=str(bad))
    assert main(["coeffs", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_coeffs_reads_a_signalling_nan_pixel_quietly(tmp_path, capsys):
    """A signalling NaN in an RDM1 payload is an invalid pixel like any NaN:
    coeffs exits 0 with nothing on stderr and no warning raised."""
    traj, cam, poses = _make_trajectory_file(tmp_path)
    rdm = tmp_path / "maps.rdm1"
    write_rdm1(rdm, plane_clip("fronto_plane", 3.0, poses, cam), near_stat=2.0)
    raw = bytearray(rdm.read_bytes())
    raw[16:20] = b"\x00\x00\x81\x7f"  # pixel 0 of frame 0
    rdm.write_bytes(bytes(raw))
    cfg = _write_config(tmp_path, trajectory=traj, rdm1=str(rdm))
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["coeffs", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert not caught, [str(w.message) for w in caught]
    assert capsys.readouterr().err == ""


def test_exit_code_validation_error(tmp_path):
    cfg = _write_config(tmp_path)  # no trajectory given
    assert main(["coeffs", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    # a patch size that does not divide the 64x64 image, with and without a
    # teacher map that would otherwise be pooled over a different patch size
    traj, cam, poses = _make_trajectory_file(tmp_path)
    rdm = tmp_path / "maps.rdm1"
    write_rdm1(rdm, plane_clip("fronto_plane", 3.0, poses, cam), near_stat=2.0)
    for extra in ({}, {"rdm1": str(rdm)}):
        cfg = _write_config(tmp_path, trajectory=traj, patch_size=48, **extra)
        for command in ("coeffs", "trace-path"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1


def test_exit_code_unknown_config_key(tmp_path, capsys):
    cfg = _write_config(tmp_path, bogus_key=1)
    assert main(["mix-sim", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    # nested keys, a retired key and wrong types are validation errors; a
    # malformed RDM1 sidecar is a parse error
    traj, cam, poses = _make_trajectory_file(tmp_path)
    rdm = tmp_path / "maps.rdm1"
    write_rdm1(rdm, plane_clip("fronto_plane", 3.0, poses, cam), near_stat=2.0)
    (tmp_path / "maps.rdm1.json").write_text("{not json")
    cases = [
        ("mix-sim", {"mix": {"sampels": 5}}, 1),
        ("coeffs", {"trajectory_spec": {"frames": 2}}, 1),
        ("mix-sim", {"k": "5"}, 1),
        ("mix-sim", {"oracle": {"k_values": [[5]]}}, 1),
        ("coeffs", {"trajectory": traj, "rdm1": str(rdm)}, 2),
    ]
    for command, doc, code in cases:
        cfg = _write_config(tmp_path, **doc)
        capsys.readouterr()
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == code, doc
        assert "error" in capsys.readouterr().err, doc


@pytest.mark.parametrize(
    "command, doc, key",
    [
        ("train-head", {"train": {"steps": 0}}, "steps"),
        ("train-head", {"train": {"steps": -3}}, "steps"),
        ("train-head", {"train": {"num_layers": 0}}, "num_layers"),
        ("mix-sim", {"mix": {"granules": 0}}, "mix.granules"),
        ("mix-sim", {"mix": {"total_steps": -1}}, "mix.total_steps"),
        ("mix-sim", {"mix": {"stride": -1}}, "mix.stride"),
        ("gradcheck", {"gradcheck": {"samples": 0}}, "samples"),
        ("oracle-check", {"oracle": {"samples": 0}}, "samples"),
        ("oracle-check", {"oracle": {"num_configs": 0}}, "num_configs"),
        # NumPy used to report these as a failed reshape or negative dimensions.
        ("train-head", {"train": {"d_model": 0}}, "d_model"),
        ("train-head", {"train": {"d_model": -3}}, "d_model"),
    ],
)
def test_exit_code_nonpositive_counts(tmp_path, capsys, command, doc, key):
    """A count that leaves nothing to do, or divides by zero, is a validation
    error that names its key; no traceback and no vacuous pass."""
    cfg = _write_config(tmp_path, **doc)
    capsys.readouterr()
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and key in err, err


def test_exit_code_bad_trajectory_rotation(tmp_path):
    traj, cam, poses = _make_trajectory_file(tmp_path)
    doc = json.loads((tmp_path / "traj.json").read_text())
    doc["poses"][0][0][0] += 1e-3
    (tmp_path / "traj.json").write_text(json.dumps(doc))
    cfg = _write_config(tmp_path, trajectory=traj)
    assert main(["coeffs", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


def test_exit_code_bad_k(tmp_path):
    cfg = _write_config(tmp_path)
    assert main(["mix-sim", "--config", cfg, "--out", str(tmp_path / "o"), "--k", "1"]) == 1


def test_argparse_unknown_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as e:
        main(["coeffs", "--wat"])
    assert e.value.code == 2


def test_parser_is_built_once_and_parses_each_call_afresh(tmp_path):
    """main builds its parser once per process. A parse error after a good
    call still exits 2, and an option given to one call does not carry over
    to the next: the same config gives the same bytes with and without an
    earlier --seed call."""
    from curverope import cli

    assert cli._build_parser() is cli._build_parser()
    cfg = _write_config(tmp_path, seed=3)
    assert main(["mix-sim", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["mix-sim", "--config", cfg, "--seed", "5", "--out", str(tmp_path / "b")]) == 0
    with pytest.raises(SystemExit) as e:
        main(["mix-sim", "--wat"])
    assert e.value.code == 2
    assert main(["mix-sim", "--config", cfg, "--out", str(tmp_path / "c")]) == 0
    assert cli._build_parser().parse_args(["mix-sim"]).seed is None
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "c" / name).read_bytes(), name
        assert (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes(), name


def test_config_hash_consistent_across_outputs(tmp_path):
    traj, _, _ = _make_trajectory_file(tmp_path)
    cfg = _write_config(tmp_path, trajectory=traj)
    out = tmp_path / "out"
    assert main(["coeffs", "--config", cfg, "--out", str(out)]) == 0
    assert main(["trace-path", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "coeffs_summary.json").read_text())
    first_line = (out / "trace.csv").read_text().splitlines()[0]
    assert first_line == f"# config_hash={summary['config_hash']}"


@pytest.mark.parametrize("fraction, code", [(-0.5, 1), (1.5, 1), (0.0, 0), (1.0, 0)])
def test_mix_sim_valid_fraction_range(tmp_path, capsys, fraction, code):
    """A fraction outside [0, 1] is a validation error, not a slice from the
    end (negative) or a silent clip (above 1); the bounds themselves run."""
    cfg = _write_config(tmp_path, mix={"valid_fraction": fraction})
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["mix-sim", "--config", cfg, "--out", str(out)]) == code
    if code:
        err = capsys.readouterr().err
        assert err.startswith("validation error:") and "mix.valid_fraction" in err, err
        assert not (out / "mix_sim.csv").exists()
        return
    rows = _read_csv(out / "mix_sim.csv")
    assert rows and all(r["valid_fraction"] == repr(fraction) for r in rows)
    if fraction == 1.0:  # the default, so the run equals a run without a config
        assert main(["mix-sim", "--out", str(tmp_path / "default")]) == 0
        for name in ("mix_sim.csv", "mix_summary.json"):
            assert (out / name).read_bytes() == (tmp_path / "default" / name).read_bytes()


NAN, INF = float("nan"), float("inf")


def _doc(**doc):
    return lambda tmp_path: doc


def _sigma_override(value):
    return lambda tmp_path: {
        "trajectory": _make_trajectory_file(tmp_path)[0], "coeffs": {"sigma_override": value}
    }


def _camera_in_file(field, value, **config):
    """A trajectory file whose camera field holds value, and config over it."""
    def make(tmp_path):
        traj, _, _ = _make_trajectory_file(tmp_path)
        doc = json.loads((tmp_path / "traj.json").read_text())
        doc["camera"][field] = value
        (tmp_path / "traj.json").write_text(json.dumps(doc))
        return {"trajectory": traj, **config}
    return make


def _camera_in_spec(field, value):
    """An inline trajectory_spec, a key retired from DEFAULT_CONFIG."""
    camera = {"fx": 56.0, "fy": 56.0, "cx": 32.0, "cy": 32.0, "xi": 0.4, "width": 64, "height": 64}
    camera[field] = value
    return _doc(trajectory_spec={"camera": camera, "frames": 2, "motion": "dolly", "amplitude": 0.3})


def _nan_teacher_sigma(tmp_path):
    traj, cam, poses = _make_trajectory_file(tmp_path)
    rdm = tmp_path / "maps.rdm1"
    write_rdm1(rdm, plane_clip("fronto_plane", 3.0, poses, cam), near_stat=2.0)
    return {"trajectory": traj, "rdm1": str(rdm), "coeffs": {"teacher_sigma": NAN}}


def _sidecar_near_stat(text):
    """An RDM1 teacher map whose sidecar near_stat is the JSON number text."""
    def make(tmp_path):
        traj, cam, poses = _make_trajectory_file(tmp_path)
        rdm = tmp_path / "maps.rdm1"
        write_rdm1(rdm, plane_clip("fronto_plane", 3.0, poses, cam))
        (tmp_path / "maps.rdm1.json").write_text(f'{{"near_stat": {text}}}')
        return {"trajectory": traj, "rdm1": str(rdm)}
    return make


def _pose_in_file(pose):
    """A trajectory file whose first pose is not a 4x4 matrix of numbers."""
    def make(tmp_path):
        traj, _, _ = _make_trajectory_file(tmp_path)
        doc = json.loads((tmp_path / "traj.json").read_text())
        doc["poses"][0] = pose
        (tmp_path / "traj.json").write_text(json.dumps(doc))
        return {"trajectory": traj}
    return make


def _far_pose(translation, fx=56.0):
    """A 2-frame trajectory (64x64, xi 0.4, patch 16, k 5) whose second pose
    is the identity rotation moved by translation: finite and orthonormal,
    so it loads, but its points overflow."""
    def make(tmp_path):
        traj, _, _ = _make_trajectory_file(tmp_path)
        doc = json.loads((tmp_path / "traj.json").read_text())
        doc["camera"]["fx"] = fx
        doc["poses"][1] = [[1.0, 0.0, 0.0, translation[0]], [0.0, 1.0, 0.0, translation[1]],
                           [0.0, 0.0, 1.0, translation[2]], [0.0, 0.0, 0.0, 1.0]]
        (tmp_path / "traj.json").write_text(json.dumps(doc))
        return {"trajectory": traj, "patch_size": 16, "k": 5}
    return make


def _retired(key):
    """The error of a key retired from DEFAULT_CONFIG."""
    return f"unknown config key {key!r}"


def _nested(key, value):
    """The document that sets the dotted key to value."""
    for part in reversed(key.split(".")):
        value = {part: value}
    return value


_TOKEN_COMMANDS = ("coeffs", "trace-path")
_MALFORMED = [
    *(
        pytest.param(c, _sigma_override(v), "coeffs.sigma_override", id=f"{c}-sigma_override={v}")
        for v in (NAN, INF, 800.0, 400.0, -400.0) for c in _TOKEN_COMMANDS
    ),
    *(
        pytest.param(c, _camera_in_file(field, v), field, id=f"{c}-{field}={v}-file")
        for field, v in (("cx", NAN), ("cy", INF)) for c in _TOKEN_COMMANDS
    ),
    # Numbers float() or int() cannot hold: an integer past the float range, an infinite size.
    *(
        pytest.param(c, _camera_in_file(field, v), "camera field out of range", id=f"{c}-{field}={name}-file")
        for field, v, name in (("fx", 10**400, "10**400"), ("width", INF, "inf")) for c in _TOKEN_COMMANDS
    ),
    # int() would truncate a size with a fraction.
    *(
        pytest.param(c, _camera_in_file(field, 64.9), f"camera field {field} must be a whole number",
                     id=f"{c}-{field}=64.9-file")
        for field in ("width", "height") for c in _TOKEN_COMMANDS
    ),
    # Finite intrinsics whose unprojection overflows.
    *(
        pytest.param(c, _camera_in_file("fx", 1e-200), "non-finite token rays", id=f"{c}-fx=1e-200-file")
        for c in _TOKEN_COMMANDS
    ),
    # The retired inline trajectory_spec: its documents stay rejected, now as
    # an unknown key.
    *(
        pytest.param(c, _camera_in_spec(field, v), _retired("trajectory_spec"), id=f"{c}-{field}={name}-spec")
        for field, v, name in (
            ("cx", NAN, "nan"), ("cy", INF, "inf"), ("fx", 10**400, "10**400"), ("width", INF, "inf")
        )
        for c in _TOKEN_COMMANDS
    ),
    *(
        pytest.param(
            c, _doc(trajectory_spec={"camera": {"fx": 56.0, "fy": 56.0, "cx": 32.0, "cy": 32.0, "xi": 0.4,
                                                "width": 64, "height": 64},
                                     "frames": 2, "motion": "dolly", "amplitude": 0.3, **field}),
            _retired("trajectory_spec"), id=f"{c}-{name}",
        )
        for field, name in (({"frames": INF}, "frames=inf"), ({"amplitude": 10**400}, "amplitude=10**400"))
        for c in _TOKEN_COMMANDS
    ),
    *(
        pytest.param(c, _camera_in_spec("fx", 1e-200), _retired("trajectory_spec"), id=f"{c}-fx=1e-200")
        for c in _TOKEN_COMMANDS
    ),
    pytest.param(
        "train-head", _doc(train={"camera": {"fx": 1e-200}}), _retired("train.camera"), id="train-head-fx=1e-200"
    ),
    # NaN and the infinities are JSON numbers to Python's parser; a 401-digit
    # integer is past the float range.
    *(
        pytest.param("coeffs", _sidecar_near_stat(text), "near_stat", id=f"coeffs-near_stat={name}")
        for text, name in (
            ("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"), ("1" + "0" * 400, "10**400")
        )
    ),
    *(
        pytest.param(c, _pose_in_file(pose), "pose 0 is not a finite 4x4 matrix", id=f"{c}-pose-{name}")
        for name, pose in (
            ("ragged", [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1], [0, 0, 0, 1]]),
            ("3x3", [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
            ("object", {"rotation": 1}),
            # NumPy reads "1" and true as 1.0; JSON does not call them numbers.
            ("strings", [[str(x) for x in row] for row in np.eye(4, dtype=int).tolist()]),
            ("booleans", np.eye(4, dtype=bool).tolist()),
        )
        for c in _TOKEN_COMMANDS
    ),
    # A far pose overflows the squares of the path points: an input error, with
    # no NumPy warning and no file of infinite ranges. At x = 1e154 with
    # fx / width = 2 only (sx x)^2 overflows, which used to leave finite but
    # wrong coordinates.
    *(
        pytest.param(c, _far_pose(t, fx), "path points must be finite", id=f"{c}-far-pose-{name}")
        for name, t, fx in (
            ("z=1e160", (0.0, 0.0, 1e160), 56.0),
            ("z=1e308", (0.0, 0.0, 1e308), 56.0),
            ("x=1e154", (1e154, 0.0, 0.0), 128.0),
        )
        for c in _TOKEN_COMMANDS
    ),
    # Keys retired from DEFAULT_CONFIG, whose values each have one home in
    # the library now: setting one, even to its former default, is an
    # unknown key.
    *(
        pytest.param(c, _doc(**_nested(key, v)), _retired(key), id=f"{c}-{key}-retired")
        for c, key, v in (
            ("coeffs", "freq_base", 10000.0),
            ("coeffs", "coeffs.teacher_sigma", 0.1),
            ("oracle-check", "oracle.tolerance", 5e-3),
            ("oracle-check", "oracle.win_fraction", 0.9),
            ("gradcheck", "gradcheck.step", 1e-5),
            ("gradcheck", "gradcheck.d_model", 64),
            ("mix-sim", "mix.decay_start", 1000),
            ("mix-sim", "mix.decay_end", 7000),
            ("train-head", "train.noise", 0.2),
            ("coeffs", "trajectory_spec", {"camera": {}, "frames": 3, "motion": "dolly", "amplitude": 0.4}),
            ("train-head", "train.motion", "dolly"),
            ("train-head", "train.frames", 3),
            ("train-head", "train.amplitude", 0.4),
            ("train-head", "train.patch_size", 8),
            ("train-head", "train.lr", 0.01),
            ("train-head", "train.holdout", 0.2),
        )
    ),
    # A retired object is reported by its own name, whichever leaf is set.
    *(
        pytest.param("train-head", _doc(train={section: {key: v}}), _retired(f"train.{section}"),
                     id=f"train-head-train.{section}.{key}-retired")
        for section, key, v in (
            ("scene", "kind", "point_cloud"), ("scene", "extent", 2.0), ("scene", "num_points", 300),
            ("scene", "seed", 0), ("camera", "fx", 56.0), ("camera", "fy", 56.0), ("camera", "cx", 32.0),
            ("camera", "cy", 32.0), ("camera", "xi", 0.3), ("camera", "width", 64), ("camera", "height", 64),
        )
    ),
    # The documents the retired keys' range rules used to reject stay
    # rejected, now as unknown keys.
    *(
        pytest.param(c, _nan_teacher_sigma, _retired("coeffs.teacher_sigma"), id=f"{c}-teacher_sigma=nan")
        for c in _TOKEN_COMMANDS
    ),
    *(
        pytest.param("gradcheck", _doc(gradcheck={"step": v}), _retired("gradcheck.step"), id=f"step={v}")
        for v in (0.0, -1e-5, NAN, INF)
    ),
    *(
        pytest.param("oracle-check", _doc(oracle={"win_fraction": v}), _retired("oracle.win_fraction"),
                     id=f"win_fraction={v}")
        for v in (-1.0, 1.5, NAN)
    ),
    *(
        pytest.param("oracle-check", _doc(oracle={"tolerance": v}), _retired("oracle.tolerance"),
                     id=f"tolerance={v}")
        for v in (NAN, 0.0, -5e-3, INF)
    ),
    *(
        pytest.param(c, _doc(**doc), _retired(key), id=id_)
        for c, doc, key, id_ in (
            ("gradcheck", {"oracle": {"tolerance": NAN}}, "oracle.tolerance", "gradcheck-oracle.tolerance"),
            ("mix-sim", {"oracle": {"win_fraction": 2.0}}, "oracle.win_fraction", "mix-sim-oracle.win_fraction"),
            ("mix-sim", {"gradcheck": {"step": 0.0}}, "gradcheck.step", "mix-sim-gradcheck.step"),
            ("gradcheck", {"gradcheck": {"step": 10**400}}, "gradcheck.step", "gradcheck-gradcheck.step=10**400"),
        )
    ),
    *(
        pytest.param(
            "train-head", _doc(train={"scene": {"extent": v}}), _retired("train.scene"), id=f"extent={v}"
        )
        for v in (NAN, INF)
    ),
    *(
        pytest.param("train-head", _doc(train={"holdout": v}), _retired("train.holdout"), id=f"holdout={v}")
        for v in (-0.5, 1.0, NAN)
    ),
    # A negative stride used to record every |value|-th step.
    *(
        pytest.param(c, _doc(train={"record_every": -5}), "train.record_every", id=f"{c}-record_every=-5")
        for c in ("train-head", "mix-sim")
    ),
    # Every range rule holds for every subcommand, not only the one that reads the key.
    *(
        pytest.param(c, _doc(**doc), named, id=f"{c}-{named}")
        for c, doc, named in (
            ("coeffs", {"mix": {"stride": 0}}, "mix.stride"),
            ("mix-sim", {"coeffs": {"sigma_override": 400.0}}, "coeffs.sigma_override"),
            ("trace-path", {"pairs_per_group": 0}, "pairs_per_group"),
        )
    ),
    # JSON integers have no size limit; a float key must hold its value as a float.
    *(
        pytest.param(c, _doc(**doc), f"config key {named!r}", id=f"{c}-{named}=10**400")
        for c, doc, named in (
            ("mix-sim", {"coeffs": {"sigma_override": -(10**400)}}, "coeffs.sigma_override"),
        )
    ),
    *(
        pytest.param(c, _doc(**doc), _retired(key), id=id_)
        for c, doc, key, id_ in (
            ("mix-sim", {"train": {"holdout": 1.0}}, "train.holdout", "mix-sim-train.holdout"),
            ("train-head", {"train": {"lr": 10**400}}, "train.lr", "train-head-train.lr=10**400"),
        )
    ),
]


# Trajectory camera fields that are not JSON numbers: parse errors (exit 2)
# naming the field.
_UNPARSABLE = [
    pytest.param(c, _camera_in_file(field, v, **config), f"camera field {field} must be a number",
                 id=f"{c}-{field}={name}-file")
    for field, v, name, config in (
        ("width", "64", "'64'", {}),
        ("fx", "56", "'56'", {}),
        ("fx", [56], "[56]", {}),
        ("xi", True, "true", {}),
        # int(true) is 1: with patch 1 that camera would run 1 pixel wide.
        ("width", True, "true", {"patch_size": 1}),
    )
    for c in _TOKEN_COMMANDS
]


@pytest.mark.parametrize("command, make_doc, named", _MALFORMED)
def test_malformed_config_is_a_validation_error(tmp_path, capsys, command, make_doc, named):
    """Each malformed value is rejected where it enters: exit 1, a
    validation error that says what was wrong, no traceback, no output and
    no warning printed before the error line."""
    cfg = _write_config(tmp_path, **make_doc(tmp_path))
    out = tmp_path / "out"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error:") and named in err, err
    assert "Traceback" not in err
    assert not any(out.glob("*"))


@pytest.mark.parametrize("command, make_doc, named", _UNPARSABLE)
def test_trajectory_value_that_is_not_a_number_is_a_parse_error(tmp_path, capsys, command, make_doc, named):
    """A trajectory camera field that is not a JSON number exits 2 with a
    parse error naming the field, no byte offset (the parsed document keeps
    none), no traceback and no output."""
    cfg = _write_config(tmp_path, **make_doc(tmp_path))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and named in err, err
    assert "byte offset" not in err, err
    assert "Traceback" not in err
    assert not any(out.glob("*"))


@pytest.mark.parametrize("case", ["trajectory", "rdm1", "config", "config-directory"])
def test_unreadable_input_file_is_a_validation_error(tmp_path, capsys, case):
    """A named input file that cannot be opened exits 1 with the path and
    the reason, not with a traceback."""
    missing = tmp_path / "missing"
    traj, _, _ = _make_trajectory_file(tmp_path)
    if case == "trajectory":
        cfg, path = _write_config(tmp_path, trajectory=str(missing)), missing
    elif case == "rdm1":
        cfg, path = _write_config(tmp_path, trajectory=traj, rdm1=str(missing)), missing
    elif case == "config":
        cfg = path = missing
    else:
        cfg = path = tmp_path
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["coeffs", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: cannot open {path}: "), err
    assert "Traceback" not in err
    assert not (out / "coeffs.bin").exists()


def test_every_range_rule_names_a_default_leaf_that_passes_it():
    """A stale or mistyped key in the range table would never be checked,
    and a rule the defaults fail would reject every run."""
    from curverope.cli import _RANGES, DEFAULT_CONFIG

    for name, (holds, _) in _RANGES.items():
        node = DEFAULT_CONFIG
        for part in name.split("."):
            assert isinstance(node, dict) and part in node, name
            node = node[part]
        assert not isinstance(node, dict), name
        assert holds(node), name


class _ReadRecorder(dict):
    """A config mapping that records the dotted name of every entry read.

    Nested objects are recorded under their prefix; overriding __iter__
    makes ** unpacking read each entry through __getitem__."""

    def __init__(self, data, reads, prefix=""):
        super().__init__(data)
        self._reads, self._prefix = reads, prefix

    def __getitem__(self, key):
        name = self._prefix + key
        self._reads.add(name)
        value = super().__getitem__(key)
        return _ReadRecorder(value, self._reads, name + ".") if isinstance(value, dict) else value

    def __iter__(self):
        return iter(list(self.keys()))


def _leaves(node, prefix=""):
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _leaves(value, prefix + key + ".")
        else:
            yield prefix + key


def test_every_default_config_leaf_is_read_by_a_subcommand(tmp_path, monkeypatch):
    """A DEFAULT_CONFIG key that no subcommand reads is dead: setting it only
    changes the config hash. Each subcommand runs on tiny sizes with a config
    that records its reads."""
    from curverope import cli

    reads = set()
    load = cli._load_config
    monkeypatch.setattr(cli, "_load_config", lambda args: _ReadRecorder(load(args), reads))
    traj, cam, poses = _make_trajectory_file(tmp_path)
    rdm = tmp_path / "maps.rdm1"
    write_rdm1(rdm, plane_clip("fronto_plane", 3.0, poses, cam), near_stat=2.0)
    runs = [
        ("coeffs", {"trajectory": traj, "rdm1": str(rdm)}),
        ("trace-path", {"trajectory": traj}),
        ("oracle-check", {"oracle": {"num_configs": 1, "samples": 100}}),
        ("gradcheck", {"gradcheck": {"samples": 1}}),
        ("train-head", {"train": {"num_layers": 1, "d_model": 8, "steps": 2}}),
        ("mix-sim", {"mix": {"total_steps": 200}}),
    ]
    for command, doc in runs:
        cfg = _write_config(tmp_path, **doc)
        assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0, command
    assert set(_leaves(cli.DEFAULT_CONFIG)) - reads == set()


def test_default_config_hash_is_pinned():
    """Every output embeds config_hash(cfg), so renaming, adding or changing
    a DEFAULT_CONFIG entry changes the bytes of every file the CLI writes.
    Such a change must update this value on purpose."""
    from curverope.cli import DEFAULT_CONFIG, config_hash

    assert config_hash(DEFAULT_CONFIG) == "0fc91f6c2e39691e261c6f16d3446b55fa3b23eb8d7b8b9cc203a0e805a98435"


def test_optional_types_cover_exactly_the_none_default_leaves():
    """A None-default leaf without a type would fail the config walk with a
    KeyError; a type for any other name is never read."""
    from curverope.cli import _OPTIONAL_TYPES, DEFAULT_CONFIG

    unset = {
        name for name in _leaves(DEFAULT_CONFIG)
        if functools.reduce(dict.__getitem__, name.split("."), DEFAULT_CONFIG) is None
    }
    assert set(_OPTIONAL_TYPES) == unset


def test_train_head_input_is_pinned(tmp_path):
    """train-head's synthetic input is a fixed experiment (a 3-frame dolly
    past a 300-sphere cloud, xi 0.3, 8-pixel patches); a mistyped constant
    moves its near-distance statistic or its count of valid tokens."""
    cfg = _write_config(tmp_path, train={"num_layers": 1, "d_model": 8, "steps": 2})
    assert main(["train-head", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "train_report.json").read_text())
    assert report["near_stat"] == 1.7536882061641361
    assert report["valid_tokens"] == 117
