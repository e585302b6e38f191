"""Property tests of the file readers: for any bytes, read_rdm1,
read_sidecar, load_trajectory and load_head_params return a valid object
or raise FormatError or ValueError (FormatError is a ValueError), never
another exception; and what the writers write reads back bit for bit."""

import json
import math
import struct
import warnings
from dataclasses import fields

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from curverope.camera import RigidTransform, UcmCamera  # noqa: E402
from curverope.formats import (  # noqa: E402
    RDM1_MAGIC,
    load_head_params,
    load_trajectory,
    read_rdm1,
    read_sidecar,
    save_head_params,
    save_trajectory,
    write_rdm1,
)
from curverope.head import HeadParams  # noqa: E402
from curverope.supervision import RadialMap  # noqa: E402

SETTINGS = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
# JSON nested past the parser's recursion depth.
DEEP = [b"[" * 5000, b'{"a":' * 5000]
# JSON numbers float() and int() cannot hold: an integer past the float
# range, and the infinities and NaN Python's json module accepts.
SCALAR = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from([10**400, -(10**400)])
)
VALUE = st.recursive(
    SCALAR,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=20,
)
NUMBER = st.floats() | st.integers(-5, 300) | st.sampled_from([10**400, 0.5, 1.0])


def _json(strategy):
    return strategy.map(lambda doc: json.dumps(doc).encode())


@st.composite
def _rdm1_bytes(draw):
    """A magic, a header of small or any sizes, and a payload that fits it or not."""
    dims = st.integers(0, 3) | st.integers(0, 2**32 - 1)
    w, h, f = draw(dims), draw(dims), draw(dims)
    size = 4 * w * h * f
    exact = st.binary(min_size=size, max_size=size) if size <= 4 * 27 else st.nothing()
    payload = draw(exact | st.binary(max_size=64))
    return RDM1_MAGIC + struct.pack("<III", w, h, f) + payload


@SETTINGS
@given(data=st.binary(max_size=48) | _rdm1_bytes())
@example(data=RDM1_MAGIC + struct.pack("<III", 2**32 - 1, 2**32 - 1, 0))
@example(data=RDM1_MAGIC + struct.pack("<III", 1, 1, 1) + b"\x00\x00\x81\x7f")  # signalling NaN
def test_read_rdm1_returns_a_map_or_a_format_error(tmp_path, data):
    path = tmp_path / "maps.rdm1"
    path.write_bytes(data)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            radial = read_rdm1(path)
    except ValueError:
        return
    w, h, f = struct.unpack_from("<III", data, 4)
    assert isinstance(radial, RadialMap)
    assert radial.values.shape == (f, h, w)
    assert np.array_equal(radial.source_valid, np.isfinite(radial.values))
    # Every finite value and infinity reads back bit for bit and every NaN
    # stays NaN: the format gives NaN payload bits no meaning, and the cast
    # to float64 may quiet a signalling NaN.
    raw = np.frombuffer(data, "<f4", offset=16).reshape(f, h, w)
    nan = np.isnan(raw)
    assert np.array_equal(np.isnan(radial.values), nan)
    assert radial.values[~nan].astype("<f4").tobytes() == raw[~nan].tobytes()


def _sidecar_doc():
    near = st.none() | NUMBER | SCALAR
    return st.fixed_dictionaries({}, optional={"near_stat": near, "units": VALUE}) | VALUE


@SETTINGS
@given(data=st.binary(max_size=48) | _json(_sidecar_doc()))
@example(data=DEEP[0])
@example(data=DEEP[1])
@example(data=b'{"near_stat": true}')
@example(data=b"\xff\xfe{\x00}\x00")
@example(data=b'{"near_stat": NaN}')
@example(data=b'{"near_stat": Infinity}')
@example(data=b'{"near_stat": -Infinity}')
@example(data=b'{"near_stat": 1' + b"0" * 400 + b"}")
def test_read_sidecar_returns_an_object_or_a_format_error(tmp_path, data):
    path = tmp_path / "maps.rdm1"
    (tmp_path / "maps.rdm1.json").write_bytes(data)
    try:
        doc = read_sidecar(path)
    except ValueError:
        return
    assert isinstance(doc, dict)
    near = doc.get("near_stat")
    if near is not None:
        assert type(near) in (int, float)
        assert math.isfinite(float(near)), near


def test_read_sidecar_without_a_file_is_none(tmp_path):
    assert read_sidecar(tmp_path / "maps.rdm1") is None


def _trajectory_doc():
    camera = st.fixed_dictionaries(
        {},
        optional={k: NUMBER | SCALAR for k in ("fx", "fy", "cx", "cy", "xi", "width", "height")},
    )
    row = st.lists(NUMBER, min_size=4, max_size=4) | st.lists(NUMBER, max_size=5)
    pose = st.lists(row, min_size=4, max_size=4) | VALUE
    poses = st.lists(pose, max_size=3) | st.just([np.eye(4).tolist()]) | VALUE
    return st.fixed_dictionaries({}, optional={"camera": camera | VALUE, "poses": poses}) | VALUE


_CAMERA = {"fx": 50.0, "fy": 52.0, "cx": 31.0, "cy": 33.0, "xi": 0.5, "width": 64, "height": 48}


@SETTINGS
@given(data=st.binary(max_size=48) | _json(_trajectory_doc()))
@example(data=DEEP[0])
@example(data=DEEP[1])
@example(data=json.dumps({"camera": {**_CAMERA, "fx": 10**400}, "poses": [np.eye(4).tolist()]}).encode())
@example(data=json.dumps({"camera": {**_CAMERA, "width": math.inf}, "poses": [np.eye(4).tolist()]}).encode())
@example(data=json.dumps({"camera": _CAMERA, "poses": [[[10**400] * 4] * 4]}).encode())
def test_load_trajectory_returns_poses_or_a_format_error(tmp_path, data):
    path = tmp_path / "traj.json"
    path.write_bytes(data)
    try:
        cam, poses = load_trajectory(path)
    except ValueError:
        return
    assert isinstance(cam, UcmCamera)
    assert poses and all(isinstance(p, RigidTransform) for p in poses)


_NAMES = [f.name for f in fields(HeadParams)]


@st.composite
def _checkpoint_bytes(draw):
    """A header over the six parameter names (or not), then a payload that
    fits it or not, of any float32 bit patterns."""
    shape = st.lists(st.integers(0, 3), max_size=2) | st.lists(st.integers(-1, 2**40), max_size=2)
    names = draw(st.permutations(_NAMES) | st.lists(st.sampled_from(_NAMES + ["x"]), max_size=7))
    entries = [[name, draw(shape)] for name in names]
    header = draw(_json(st.just({"dtype": "<f4", "fields": entries}) | _sidecar_doc()))
    sizes = [math.prod(s) for _, s in entries if all(type(n) is int and n >= 0 for n in s)]
    size = 4 * sum(sizes)
    exact = st.binary(min_size=size, max_size=size) if size <= 4 * 60 else st.nothing()
    payload = draw(exact | st.binary(max_size=32))
    length = draw(st.just(len(header)) | st.integers(0, 2**32 - 1))
    return struct.pack("<I", length) + header + payload


@SETTINGS
@given(data=st.binary(max_size=48) | _checkpoint_bytes())
@example(data=struct.pack("<I", len(DEEP[0])) + DEEP[0])
@example(data=struct.pack("<I", 3) + b"\xff\xfe{")
def test_load_head_params_returns_params_or_a_format_error(tmp_path, data):
    path = tmp_path / "head.ckpt"
    path.write_bytes(data)
    try:
        params = load_head_params(path)
    except ValueError:
        return
    assert isinstance(params, HeadParams)
    for name, a in params.field_arrays():
        assert a.dtype == np.float64 and np.all(np.isfinite(a)), name


FINITE_F32 = st.floats(width=32, allow_nan=False, allow_infinity=False)


@SETTINGS
@given(
    values=hnp.arrays(np.float32, hnp.array_shapes(min_dims=3, max_dims=3, max_side=4), elements=st.floats(width=32)),
    near=st.none() | st.floats(allow_nan=False, allow_infinity=False),
)
def test_rdm1_and_sidecar_round_trip_bit_exact(tmp_path, values, near):
    """write_rdm1 then read_rdm1 gives back every finite value bit for bit
    (signed zeros too) and marks every other pixel invalid; writing the map
    read back reproduces the file; the sidecar's near_stat reads back bit
    for bit, also when an earlier example left a sidecar at the same path."""
    path, again = tmp_path / "a.rdm1", tmp_path / "b.rdm1"
    valid = np.isfinite(values)
    write_rdm1(path, RadialMap(values=values.astype(float), source_valid=valid), near_stat=near)
    back = read_rdm1(path)
    assert np.array_equal(back.source_valid, valid)
    assert back.values[valid].astype("<f4").tobytes() == values[valid].astype("<f4").tobytes()
    write_rdm1(again, back)
    assert again.read_bytes() == path.read_bytes()
    doc = read_sidecar(path)
    if near is None:
        assert doc is None
    else:
        assert struct.pack("<d", doc["near_stat"]) == struct.pack("<d", near)


def _rotation(q):
    w, x, y, z = np.asarray(q) / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


POSITIVE = st.floats(1e-3, 1e4, allow_nan=False)
COORD = st.floats(-1e4, 1e4, allow_nan=False)
QUATERNION = st.lists(st.floats(-1, 1, allow_nan=False), min_size=4, max_size=4).filter(
    lambda q: np.linalg.norm(q) > 0.1
)


@SETTINGS
@given(
    cam=st.builds(
        UcmCamera, POSITIVE, POSITIVE, COORD, COORD, st.floats(0, 1),
        st.integers(1, 4096), st.integers(1, 4096),
    ),
    poses=st.lists(st.tuples(QUATERNION, st.lists(COORD, min_size=3, max_size=3)), min_size=1, max_size=3),
)
def test_trajectory_round_trip(tmp_path, cam, poses):
    """The camera and every translation read back bit for bit. Rotations
    are re-orthonormalized on load (an SVD, which is not bit-idempotent),
    so they read back within 1e-12."""
    path = tmp_path / "traj.json"
    transforms = [RigidTransform(_rotation(q), np.array(t)) for q, t in poses]
    save_trajectory(path, cam, transforms)
    cam2, back = load_trajectory(path)
    assert cam2 == cam
    for a, b in zip(transforms, back, strict=True):
        assert a.translation.tobytes() == b.translation.tobytes()
        assert np.max(np.abs(a.rotation - b.rotation)) <= 1e-12


@SETTINGS
@given(
    shapes=st.lists(st.lists(st.integers(0, 3), max_size=2), min_size=6, max_size=6),
    data=st.data(),
)
def test_head_checkpoint_round_trip_bit_exact(tmp_path, shapes, data):
    """Parameters of any shapes holding float32 values read back bit for
    bit, and saving what was loaded reproduces the file."""
    arrays = {
        name: data.draw(hnp.arrays(np.float32, tuple(shape), elements=FINITE_F32)).astype(float)
        for name, shape in zip(_NAMES, shapes)
    }
    path, again = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_head_params(path, HeadParams(**arrays))
    back = load_head_params(path)
    for name, a in back.field_arrays():
        assert a.shape == arrays[name].shape
        assert a.astype("<f4").tobytes() == arrays[name].astype("<f4").tobytes(), name
    save_head_params(again, back)
    assert again.read_bytes() == path.read_bytes()
