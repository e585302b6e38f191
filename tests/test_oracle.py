"""The oracle check's worker threads, and the pinned bits of the Monte-Carlo
estimator they run."""

import concurrent.futures
import hashlib
import itertools
import json
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from curverope import oracle
from curverope.camera import Ray, RigidTransform
from curverope.phasor import RadialInterval, breakpoints

from util import oracle_bounded_coordinate, oracle_valid, random_camera, random_rotation

# sha256 over mc_expected_phasor(setup, n, default_rng([20, i])) followed by
# the generator's next draw, for each n in _PIN_SAMPLES, with the setup drawn
# by random_setup(default_rng([19, i])). Taken from the estimator that drew
# and summed 2^13 samples at a time and reduced every offset; the estimator
# in 2^15-sample blocks, which skips the reductions that subtract nothing,
# must keep every bit. The key is i, and the value also says which rows the
# reduction covers: none, all three (2 omega > 3), or the range alone.
_PIN_SAMPLES = (1, 2**13 - 1, 2**13 + 1, 2**15 + 5, 10**5)
_PINS = {
    0: ("none", "594ad2ce04665451a708a2a94a4d138f317d8451059c1c1bcb82e67725971a72"),
    1: ("all", "6624ea148750965497cfa404b47b72b324e41415a800c7371f947d14e79bea0c"),
    29: ("range", "5fb1a6bed7b9c57e640cb23896458710bbdf52f4b338f8e3eeab3f29507f496a"),
    79: ("all", "53be6bf7a50c3c985a0a988a98d2746cb1168775090259d048ab03880d0fda47"),
}


def _reduced_rows(setup) -> str:
    """Which offsets the range reduction covers: those not provably within ±3."""
    iv, omega = setup.interval, setup.omega
    if 2.0 * omega > 3.0:
        return "all"
    return "range" if omega * (np.exp(iv.mu + abs(iv.sigma)) - np.exp(iv.mu)) > 3.0 else "none"


@pytest.mark.parametrize("config", sorted(_PINS))
def test_mc_expected_phasor_bits_are_pinned(config):
    rows, want = _PINS[config]
    setup = oracle.random_setup(np.random.default_rng([19, config]))
    assert _reduced_rows(setup) == rows
    digest = hashlib.sha256()
    for samples in _PIN_SAMPLES:
        rng = np.random.default_rng([20, config])
        digest.update(oracle.mc_expected_phasor(setup, samples, rng).tobytes())
        digest.update(rng.random(1).tobytes())
    assert digest.hexdigest() == want


def _base(array):
    while array.base is not None:
        array = array.base
    return array


@pytest.mark.parametrize("size", [1, 5, oracle._MC_BLOCK])
def test_mc_buffers_share_memory_only_where_the_values_are_dead(size):
    """The five working arrays lie over two float64 (3, size) arrays, 48
    bytes per sample: the draws in theta's last row, sin32 and half32 in
    the two halves of work. No other pair of arrays overlaps."""
    buffers = oracle._mc_buffers(size)
    draws, work, theta, sin32, half32 = buffers
    assert [a.shape for a in buffers] == [(size,)] + [(3, size)] * 4
    assert [a.dtype for a in buffers] == [np.float64] * 3 + [np.float32] * 2
    bases = {id(_base(a)): _base(a) for a in buffers}.values()
    assert sum(b.nbytes for b in bases) == 48 * size
    names = ("draws", "work", "theta", "sin32", "half32")
    shared = {
        (names[i], names[j])
        for i, j in itertools.combinations(range(5), 2)
        if np.shares_memory(buffers[i], buffers[j])
    }
    assert shared == {("draws", "theta"), ("work", "sin32"), ("work", "half32")}


@pytest.mark.parametrize("config", sorted(_PINS))
def test_shared_buffers_give_the_bits_of_separate_ones(config):
    """_mc_estimate returns the same bits, and leaves the generator at the
    same position, on _mc_buffers' overlapping arrays as on five separately
    allocated arrays of the same shapes."""
    setup = oracle.random_setup(np.random.default_rng([19, config]))
    for samples in _PIN_SAMPLES:
        size = min(oracle._MC_BLOCK, samples)
        separate = (
            np.empty(size),
            np.empty((3, size)),
            np.empty((3, size)),
            np.empty((3, size), dtype=np.float32),
            np.empty((3, size), dtype=np.float32),
        )
        results = []
        for buffers in (oracle._mc_buffers(size), separate):
            rng = np.random.default_rng([20, config])
            results.append((oracle._mc_estimate(setup, samples, rng, buffers).tobytes(), rng.random()))
        assert results[0] == results[1], samples


def test_phases_agree_with_the_scalar_geometry_on_partly_visible_paths():
    """_phases against the scalar lift -> transform -> project of
    tests/util on wide setups that random_setup never draws: xi up to 1,
    any tilt up to 1.6 rad, shifts of the order of the radii and sigma = 3,
    so many paths leave the query camera's view part of the way. beta has
    the sign of oracle_valid at every breakpoint; the range everywhere, and
    the bounded coordinates where the point is visible, agree within 1e-12.
    """
    rng = np.random.default_rng(27)
    k = oracle._REFERENCE_K
    work, theta = np.empty((2, 3, k))
    partly_visible = 0
    for _ in range(200):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        transform = RigidTransform(random_rotation(rng, 1.6), rng.normal(scale=0.5, size=3))
        interval = RadialInterval(rng.uniform(-1.0, 1.0), 3.0)
        setup = oracle.PhasorSetup(random_camera(rng), transform, Ray(direction), interval, 1.0)
        radii = breakpoints(interval.mu, interval.sigma, k)
        phases, beta = oracle._phases(setup, radii, work, theta)
        args = (setup.cam_q, transform.rotation, transform.translation, direction)
        want = np.array([oracle_bounded_coordinate(*args, r) for r in radii]).T
        visible = np.array([oracle_valid(*args, r) for r in radii])
        assert np.array_equal(beta > 0, visible)
        np.testing.assert_allclose(phases[2], want[2], rtol=0, atol=1e-12)
        np.testing.assert_allclose(phases[:2, visible], want[:2, visible], rtol=0, atol=1e-12)
        partly_visible += 0 < np.count_nonzero(visible) < k
    assert partly_visible >= 20, partly_visible


def test_the_screen_rejects_a_path_out_of_view_and_returns_the_next_candidate(monkeypatch):
    """random_setup's reject branch. The first candidate is forced out of
    view: both cameras pinhole and the source turned half a turn about y,
    so the path runs behind the query camera. The wrappers draw what the
    real helpers draw, so the setup returned is the next candidate: the
    one a second random_setup call on an unforced generator returns."""
    want_rng = np.random.default_rng([103, 0])
    oracle.random_setup(want_rng)
    want = oracle.random_setup(want_rng)

    real_camera, real_rotation, real_phases = oracle._random_camera, oracle._small_rotation, oracle._phases
    cameras, rotations, screened = [], [], []

    def camera(rng):
        cameras.append(real_camera(rng))
        return replace(cameras[-1], xi=0.0) if len(cameras) <= 2 else cameras[-1]

    def rotation(rng, max_angle):
        rotations.append(real_rotation(rng, max_angle))
        return np.diag([-1.0, 1.0, -1.0]) if len(rotations) == 1 else rotations[-1]

    def phases(setup, r, work, theta):
        out = real_phases(setup, r, work, theta)
        screened.append(float(np.min(out[1])))
        return out

    monkeypatch.setattr(oracle, "_random_camera", camera)
    monkeypatch.setattr(oracle, "_small_rotation", rotation)
    monkeypatch.setattr(oracle, "_phases", phases)
    rng = np.random.default_rng([103, 0])
    got = oracle.random_setup(rng)
    assert len(screened) == 2 and screened[0] < 0.0 and screened[1] > 1e-3
    assert (got.cam_q, got.interval, got.omega) == (want.cam_q, want.interval, want.omega)
    for name in ("rotation", "translation"):
        assert getattr(got.transform, name).tobytes() == getattr(want.transform, name).tobytes()
    assert got.ray.direction.tobytes() == want.ray.direction.tobytes()
    assert rng.random() == want_rng.random()


def _serial_rows(num_configs, samples, k_values, seed):
    """run_oracle_check's rows from one loop over the public functions."""
    rows = []
    for i in range(num_configs):
        rng = np.random.default_rng([seed, i])
        setup = oracle.random_setup(rng)
        mc = oracle.mc_expected_phasor(setup, samples, rng)
        ref = oracle.analytic_expected_phasor(setup, 129)
        row = {
            "config": i,
            "sigma": setup.interval.sigma,
            "omega": setup.omega,
            "mc_error": float(np.max(np.abs(ref - mc))),
        }
        for k in k_values:
            row[f"err_k{k}"] = float(np.max(np.abs(oracle.analytic_expected_phasor(setup, k) - ref)))
        rows.append(row)
    return rows


def test_the_result_does_not_depend_on_the_worker_count(monkeypatch):
    """With 1, 2 and 3 workers (3 is more than a 2-core host has cores) and
    the interpreter switching threads every microsecond, the rows and the
    report keep their bytes, and the rows are those of a serial loop over
    mc_expected_phasor: a buffer set shared by two running estimates would
    change them."""
    args = (7, 3 * oracle._MC_BLOCK + 3, [2, 5, 129], 41)
    results = set()
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for workers in (1, 2, 3):
            monkeypatch.setattr(oracle, "_worker_count", lambda: workers)
            results.add(json.dumps(oracle.run_oracle_check(*args)))
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 1
    (result,) = results
    assert json.dumps(json.loads(result)["rows"]) == json.dumps(_serial_rows(7, args[1], [2, 5], 41))


def test_a_worker_error_propagates_and_the_threads_end(monkeypatch):
    """The first estimate fails; the error reaches the caller, the estimates
    not yet started are cancelled, and every worker thread has ended."""
    calls = itertools.count()
    real = oracle._mc_estimate

    def estimate(*args):
        if next(calls) == 0:
            raise RuntimeError("estimate failed")
        time.sleep(0.2)
        return real(*args)

    monkeypatch.setattr(oracle, "_mc_estimate", estimate)
    monkeypatch.setattr(oracle, "_worker_count", lambda: 2)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="estimate failed"):
        oracle.run_oracle_check(20, 100, [2, 5], 3)
    assert threading.active_count() == before
    assert next(calls) < 20  # the pending estimates never ran


def test_an_error_on_the_calling_thread_ends_the_workers(monkeypatch):
    real = oracle.analytic_expected_phasor
    calls = itertools.count()

    def analytic(setup, k):
        if next(calls) == 4:
            raise ValueError("analytic failed")
        return real(setup, k)

    monkeypatch.setattr(oracle, "analytic_expected_phasor", analytic)
    before = threading.active_count()
    with pytest.raises(ValueError, match="analytic failed"):
        oracle.run_oracle_check(6, 1000, [2, 5], 3)
    assert threading.active_count() == before


@pytest.mark.parametrize("samples", [0, -1])
def test_nonpositive_samples_raise_before_any_thread_starts(monkeypatch, samples):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the sample count was checked")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
    monkeypatch.setattr(oracle, "random_setup", refuse)
    before = threading.active_count()
    with pytest.raises(ValueError, match="samples must be >= 1"):
        oracle.run_oracle_check(4, samples, [2, 5], 0)
    with pytest.raises(ValueError, match="samples must be >= 1"):
        oracle.mc_expected_phasor(None, samples, np.random.default_rng(0))
    assert threading.active_count() == before


def _traced_peak(call) -> int:
    """Peak bytes of traced (numpy included) memory while call runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _one_estimate():
    setup = oracle.random_setup(np.random.default_rng([19, 1]))
    oracle.mc_expected_phasor(setup, 10**6, np.random.default_rng(0))


def test_mc_memory_is_bounded_by_the_sample_block():
    """10^6 samples, drawn and summed in _MC_BLOCK blocks, peak near 1.6 MiB
    of traced numpy memory; the draws alone of an estimator that holds all
    its samples at once would take 7.6 MiB."""
    peak = _traced_peak(_one_estimate)
    assert peak < 4 * 2**20, peak


def test_one_estimate_holds_48_bytes_per_block_sample():
    """One 10^6-sample estimate peaks near 1.6 MiB traced: its 1.5 MiB of
    overlapping buffers; five separate arrays of 80 bytes per sample took
    2.6 MiB."""
    peak = _traced_peak(_one_estimate)
    assert peak < 2 * 2**20, peak


def test_a_two_worker_check_holds_two_buffer_sets(monkeypatch):
    """Two workers at 10^6 samples peak near 3.2 MiB traced, two sets of
    1.5 MiB buffers; five separate arrays per worker took 5.2 MiB. A small
    check runs first, so imports and first-call set-up are not counted."""
    monkeypatch.setattr(oracle, "_worker_count", lambda: 2)
    oracle.run_oracle_check(2, 10, [2, 5], 0)
    peak = _traced_peak(lambda: oracle.run_oracle_check(2, 10**6, [2, 5], 0))
    assert peak < 4 * 2**20, peak
