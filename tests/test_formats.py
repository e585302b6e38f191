import json
import math
import struct
import warnings

import numpy as np
import pytest

from curverope.camera import RigidTransform, UcmCamera
from curverope.formats import (
    FormatError,
    load_head_params,
    load_trajectory,
    read_rdm1,
    read_sidecar,
    save_head_params,
    save_trajectory,
    write_rdm1,
)
from curverope.head import head_init
from curverope.supervision import RadialMap

from util import random_rotation


def _map(rng, frames=2, h=6, w=4):
    values = rng.uniform(0.1, 30.0, (frames, h, w)).astype(np.float32).astype(float)
    valid = rng.random((frames, h, w)) > 0.3
    return RadialMap(values=np.where(valid, values, np.nan), source_valid=valid)


def test_rdm1_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    rmap = _map(rng)
    path = tmp_path / "m.rdm1"
    write_rdm1(path, rmap)
    back = read_rdm1(path)
    assert np.array_equal(back.source_valid, rmap.source_valid)
    assert np.array_equal(back.values[back.source_valid], rmap.values[rmap.source_valid])
    # writing what was read reproduces the file byte for byte
    path2 = tmp_path / "m2.rdm1"
    write_rdm1(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_rdm1_payload_layout(tmp_path):
    values = np.arange(12, dtype=float).reshape(1, 3, 4) + 1.0
    rmap = RadialMap(values=values, source_valid=np.ones((1, 3, 4), bool))
    path = tmp_path / "m.rdm1"
    write_rdm1(path, rmap)
    raw = path.read_bytes()
    assert raw[:4] == b"RDM1"
    assert len(raw) == 4 + 12 + 4 * 12
    w, h, f = np.frombuffer(raw, dtype="<u4", count=3, offset=4)
    assert (w, h, f) == (4, 3, 1)
    payload = np.frombuffer(raw, dtype="<f4", offset=16)
    assert np.array_equal(payload.reshape(1, 3, 4), values)


def test_rdm1_sidecar(tmp_path):
    rng = np.random.default_rng(1)
    path = tmp_path / "m.rdm1"
    write_rdm1(path, _map(rng), near_stat=1.75)
    side = read_sidecar(path)
    assert side["near_stat"] == 1.75
    assert side["source_valid_policy"] == "nonfinite"
    assert read_sidecar(tmp_path / "other.rdm1") is None


def test_rdm1_rewrite_without_near_stat_drops_the_old_sidecar(tmp_path):
    """Two maps written to one path: each reads back with its own sidecar,
    and a map written without near_stat reads back without one."""
    rng = np.random.default_rng(2)
    path = tmp_path / "m.rdm1"
    first, second, third = _map(rng), _map(rng, frames=1), _map(rng)
    write_rdm1(path, first, near_stat=2.5)
    write_rdm1(path, second)
    assert read_sidecar(path) is None
    back = read_rdm1(path)
    assert np.array_equal(back.source_valid, second.source_valid)
    assert np.array_equal(back.values[back.source_valid], second.values[second.source_valid])
    write_rdm1(path, third, near_stat=0.75)
    assert read_sidecar(path)["near_stat"] == 0.75
    assert np.array_equal(read_rdm1(path).source_valid, third.source_valid)


@pytest.mark.parametrize(
    "near", [math.nan, math.inf, -math.inf, 10**400], ids=["nan", "inf", "-inf", "10**400"]
)
def test_rdm1_non_finite_near_stat_is_refused_before_writing(tmp_path, near):
    """A near_stat that is not a finite float is refused, and the map and
    sidecar already at the path stay as they were."""
    rng = np.random.default_rng(3)
    path, sidecar = tmp_path / "m.rdm1", tmp_path / "m.rdm1.json"
    write_rdm1(path, _map(rng), near_stat=1.25)
    before = path.read_bytes(), sidecar.read_bytes()
    with pytest.raises(ValueError, match="near_stat"):
        write_rdm1(path, _map(rng, frames=1), near_stat=near)
    assert (path.read_bytes(), sidecar.read_bytes()) == before


def test_rdm1_bad_magic(tmp_path):
    path = tmp_path / "m.rdm1"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(FormatError) as e:
        read_rdm1(path)
    assert e.value.offset == 0


def test_rdm1_truncated(tmp_path):
    path = tmp_path / "m.rdm1"
    path.write_bytes(b"RDM1\x01\x00\x00\x00")
    with pytest.raises(FormatError):
        read_rdm1(path)


def test_rdm1_length_mismatch(tmp_path):
    rng = np.random.default_rng(2)
    path = tmp_path / "m.rdm1"
    write_rdm1(path, _map(rng))
    data = path.read_bytes()
    path.write_bytes(data[:-4])
    with pytest.raises(FormatError) as e:
        read_rdm1(path)
    assert "length mismatch" in str(e.value)


def test_trajectory_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    cam = UcmCamera(50, 52, 31, 33, 0.7, 64, 48)
    poses = [RigidTransform(random_rotation(rng), rng.normal(size=3)) for _ in range(4)]
    path = tmp_path / "traj.json"
    save_trajectory(path, cam, poses)
    cam2, poses2 = load_trajectory(path)
    assert cam2 == cam
    for a, b in zip(poses, poses2):
        assert np.max(np.abs(a.rotation - b.rotation)) < 1e-12
        assert np.max(np.abs(a.translation - b.translation)) < 1e-12


def test_trajectory_rejects_perturbed_rotation(tmp_path):
    rng = np.random.default_rng(4)
    cam = UcmCamera(50, 50, 32, 32, 0.0, 64, 64)
    pose = RigidTransform(random_rotation(rng), np.zeros(3))
    path = tmp_path / "traj.json"
    save_trajectory(path, cam, [pose])
    doc = json.loads(path.read_text())
    doc["poses"][0][0][0] += 1e-3
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="orthonormal"):
        load_trajectory(path)


def test_trajectory_accepts_tiny_noise(tmp_path):
    rng = np.random.default_rng(5)
    cam = UcmCamera(50, 50, 32, 32, 0.0, 64, 64)
    pose = RigidTransform(random_rotation(rng), np.zeros(3))
    path = tmp_path / "traj.json"
    save_trajectory(path, cam, [pose])
    doc = json.loads(path.read_text())
    doc["poses"][0][0][0] += 1e-8
    path.write_text(json.dumps(doc))
    _, poses = load_trajectory(path)
    r = poses[0].rotation
    assert np.max(np.abs(r.T @ r - np.eye(3))) < 1e-12


def test_trajectory_rejects_bad_bottom_row(tmp_path):
    rng = np.random.default_rng(6)
    cam = UcmCamera(50, 50, 32, 32, 0.0, 64, 64)
    pose = RigidTransform(random_rotation(rng), np.zeros(3))
    path = tmp_path / "traj.json"
    save_trajectory(path, cam, [pose])
    doc = json.loads(path.read_text())
    doc["poses"][0][3][0] = 0.5
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="bottom row"):
        load_trajectory(path)


def test_trajectory_parse_error_offset(tmp_path):
    path = tmp_path / "traj.json"
    path.write_text('{"camera": {')
    with pytest.raises(FormatError) as e:
        load_trajectory(path)
    assert e.value.offset > 0


def test_trajectory_not_utf8_is_a_parse_error(tmp_path):
    """A trajectory that is not UTF-8 fails at the offset of its first bad byte."""
    path = tmp_path / "traj.json"
    for raw, offset in ((b"\xff\xfe{", 0), (b'{"camera": \xff}', 11)):
        path.write_bytes(raw)
        with pytest.raises(FormatError, match="not UTF-8") as e:
            load_trajectory(path)
        assert e.value.offset == offset


def test_trajectory_missing_field(tmp_path):
    """A parsed document keeps no byte positions, so the error gives none."""
    path = tmp_path / "traj.json"
    path.write_text(json.dumps({"camera": {"fx": 10}}))
    with pytest.raises(FormatError, match="missing field") as e:
        load_trajectory(path)
    assert e.value.offset is None and "byte offset" not in str(e.value)


@pytest.mark.parametrize(
    "doc, named", [([1.5], "must be a JSON object"), ({"near_stat": "1.5"}, "near_stat must be a number")]
)
def test_sidecar_value_errors_give_no_offset(tmp_path, doc, named):
    path = tmp_path / "m.rdm1"
    write_rdm1(path, _map(np.random.default_rng(0)))
    (tmp_path / "m.rdm1.json").write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=named) as e:
        read_sidecar(path)
    assert e.value.offset is None and "byte offset" not in str(e.value)


def test_head_checkpoint_roundtrip(tmp_path):
    params = head_init(64, seed=6)
    rng = np.random.default_rng(7)
    params.w2 = rng.normal(size=params.w2.shape).astype(np.float32).astype(float)
    path = tmp_path / "head.ckpt"
    save_head_params(path, params)
    back = load_head_params(path)
    for (name, a), (_, b) in zip(params.field_arrays(), back.field_arrays()):
        assert np.array_equal(a.astype(np.float32), b.astype(np.float32)), name
    # save(load(.)) is byte-identical
    path2 = tmp_path / "head2.ckpt"
    save_head_params(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_head_checkpoint_layout(tmp_path):
    params = head_init(32, seed=8)
    path = tmp_path / "head.ckpt"
    save_head_params(path, params)
    raw = path.read_bytes()
    (hlen,) = np.frombuffer(raw, dtype="<u4", count=1)
    header = json.loads(raw[4 : 4 + hlen].decode())
    assert header["dtype"] == "<f4"
    assert [f[0] for f in header["fields"]] == [
        "norm_scale", "norm_bias", "w1", "b1", "w2", "b2",
    ]
    total = sum(int(np.prod(shape)) for _, shape in header["fields"])
    assert len(raw) == 4 + hlen + 4 * total


def test_head_checkpoint_trailing_bytes(tmp_path):
    params = head_init(16, seed=9)
    path = tmp_path / "head.ckpt"
    save_head_params(path, params)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match="trailing"):
        load_head_params(path)


@pytest.mark.parametrize(
    "header",
    [
        {"dtype": "<f4"},
        [["norm_scale", [4]]],
        {"dtype": "<f4", "fields": "norm_scale"},
        {"dtype": "<f4", "fields": [["norm_scale"]]},
        {"dtype": "<f4", "fields": [["norm_scale", 4]]},
        {"dtype": "<f4", "fields": [["norm_scale", [-1]]]},
        {"dtype": "<f4", "fields": [[3, [4]]]},
        {"dtype": "<f4", "fields": [["norm_scale", [4]]]},
        {"dtype": "<f4", "fields": [["norm_scale", [4]], ["norm_bias", [4]], ["w1", [4, 16]],
                                    ["b1", [16]], ["w2", [16, 2]], ["b2", [2]], ["extra", [1]]]},
    ],
)
def test_head_checkpoint_malformed_header(tmp_path, header):
    """Headers that are not objects, lack fields, hold malformed [name, shape]
    entries, or miss or add parameter names are parse errors at the header."""
    head = json.dumps(header).encode()
    path = tmp_path / "head.ckpt"
    path.write_bytes(struct.pack("<I", len(head)) + head + b"\x00" * 4 * 200)
    with pytest.raises(FormatError, match="byte offset 4"):
        load_head_params(path)


@pytest.mark.parametrize("value", [1e39, -1e39, np.inf, np.nan])
def test_head_checkpoint_save_rejects_values_not_finite_in_float32(tmp_path, value):
    """A value beyond the float32 range would be stored as inf (with a NumPy
    overflow warning); it is rejected, without a warning, before any byte is written."""
    params = head_init(16, seed=10)
    params.b2 = np.array([0.5, value])
    path = tmp_path / "head.ckpt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="b2"):
            save_head_params(path, params)
    assert not path.exists()


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_head_checkpoint_load_rejects_non_finite_values(tmp_path, value):
    """A non-finite payload value is a parse error at the offset of its field."""
    path = tmp_path / "head.ckpt"
    save_head_params(path, head_init(16, seed=11))
    raw = bytearray(path.read_bytes())
    (hlen,) = struct.unpack_from("<I", raw, 0)
    offset = 4 + hlen
    for name, shape in json.loads(raw[4 : 4 + hlen].decode())["fields"]:
        if name == "w1":
            break
        offset += 4 * math.prod(shape)
    struct.pack_into("<f", raw, offset + 4, value)  # the second value of w1
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=rf"field w1 \(byte offset {offset}\)"):
        load_head_params(path)
