"""Command-line harness: coefficient export, path tracing, the
Monte-Carlo oracle run, gradient checks, head training and the
teacher-substitution simulation.

All commands are deterministic under a fixed seed; every CSV/JSON output
embeds the hash of the effective configuration that produced it. Exit
codes: 0 on pass, 1 on validation failure (an input file that cannot be
opened included), 2 on parse error.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import dataclasses
import functools
import hashlib
import itertools
import json
import struct
import sys
from pathlib import Path

import numpy as np

from .camera import UcmCamera, relative_transform
from .checks import run_head_gradcheck, run_loss_gradcheck
from .formats import (
    FormatError,
    load_trajectory,
    parse_json,
    read_rdm1,
    read_sidecar,
    save_head_params,
)
from .oracle import run_oracle_check
from .phasor import (
    LOG_RANGE_BOUND,
    breakpoints,
    coefficients_from_paths,
    token_grid,
    token_paths,
    token_rays,
)
from .rope import make_frequency_plan
from .scene import SceneSpec, make_trajectory, render_clip
from .supervision import near_distance_stat, normalize_and_pool, validity_mask
from .teacher_mix import MixSchedule, external_override, sample_mask, substitution_probability
from .trainer import DivergenceError, LayerProbeResult, run_layer_probe

__all__ = ["main", "entry", "DEFAULT_CONFIG"]

COEFFS_MAGIC = b"MCF1"
# Phase values (tokens x coordinates x frequencies x K) per coefficient
# kernel call. A call covers one frame pair and as many tokens as fit, which
# keeps every array of the call near glibc's initial 128 KiB mmap threshold:
# with whole-pair calls, the peak RSS of a 50 s bench run on the 4-frame
# 128x128 clip kept creeping up (about +8 MB) as the heap fragmented.
_PHASES_PER_CALL = 2**14

DEFAULT_CONFIG = {
    "seed": 0,
    "k": 5,
    "patch_size": 16,
    "pairs_per_group": 2,
    "trajectory": None,
    "rdm1": None,
    "coeffs": {"sigma_override": None},
    "trace": {"query_frame": -1, "source_frame": 0},
    "oracle": {"num_configs": 50, "samples": 200000, "k_values": [2, 5, 129]},
    "gradcheck": {"samples": 100},
    "train": {"num_layers": 12, "d_model": 64, "steps": 2000, "record_every": 100},
    "mix": {
        "mode": "block_frame",
        "total_steps": 8000,
        "granules": 16,
        "valid_fraction": 1.0,
        "stride": 100,
    },
}


# Types of the entries whose default is None (unset).
_OPTIONAL_TYPES = {
    "trajectory": str,
    "rdm1": str,
    "coeffs.sigma_override": (int, float),
}

# Value-only range rules, key -> (test, what the value must be). _load_config
# applies each once, for every subcommand, after --seed and --k.
_RANGES = {
    # K breakpoints bound K - 1 segments; one breakpoint bounds none.
    "k": (lambda v: v >= 2, ">= 2"),
    "pairs_per_group": (lambda v: v >= 1, ">= 1"),
    # LOG_RANGE_BOUND is the widest half-width the head produces; a wider
    # one overflows the projected ranges.
    "coeffs.sigma_override": (
        lambda v: v is None or abs(v) <= LOG_RANGE_BOUND, f"finite with |value| <= {LOG_RANGE_BOUND}"
    ),
    # 0 records no curve; a negative stride would record every |value|-th step.
    "train.record_every": (lambda v: v >= 0, ">= 0"),
    # The rates divide by granules and by the number of logged steps, and a
    # negative total or a stride below 1 would log none.
    "mix.granules": (lambda v: v >= 1, ">= 1"),
    "mix.total_steps": (lambda v: v >= 0, ">= 0"),
    "mix.stride": (lambda v: v >= 1, ">= 1"),
    # A fraction below 0 would slice from the end and one above 1 would clip.
    "mix.valid_fraction": (lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
}


def _merge_checked(cfg: dict, user, prefix: str = "") -> None:
    """Copy each entry of user over its default in cfg, a copy of DEFAULT_CONFIG.

    Keys cfg lacks are rejected, and so are values whose type differs from
    the default's: nested objects are walked, a float default also admits
    an int (one float() can hold; the int itself is stored), and a None
    default admits None or the type listed in _OPTIONAL_TYPES.
    """
    if not isinstance(user, dict):
        where = f"key {prefix[:-1]!r}" if prefix else "document"
        raise ValueError(f"config {where} must be a JSON object")
    for key, value in user.items():
        name = prefix + key
        if key not in cfg:
            raise ValueError(f"unknown config key {name!r}")
        default = cfg[key]
        if isinstance(default, dict):
            _merge_checked(default, value, name + ".")
            continue
        if default is None:
            kind = (type(None), _OPTIONAL_TYPES[name])
        else:
            kind = (int, float) if isinstance(default, float) else type(default)
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ValueError(f"config key {name!r} has type {type(value).__name__}")
        # JSON integers have no size limit; a key that admits a float must hold one.
        if isinstance(value, int) and isinstance(0.0, kind):
            try:
                float(value)
            except OverflowError:
                raise ValueError(f"config key {name!r} is an integer too large for a float") from None
        if isinstance(default, list) and any(type(v) is not type(default[0]) for v in value):
            raise ValueError(f"config key {name!r} must list {type(default[0]).__name__} values")
        cfg[key] = value


def _load_config(args) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if args.config:
        _merge_checked(cfg, parse_json(Path(args.config).read_bytes(), "config"))
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.k is not None:
        cfg["k"] = args.k
    for name, (holds, must) in _RANGES.items():
        value = functools.reduce(dict.__getitem__, name.split("."), cfg)
        if not holds(value):
            raise ValueError(f"{name} must be {must}, got {value}")
    return cfg


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _write_csv(path: Path, chash: str, header, rows=(), chunks=()) -> None:
    """A CSV file after its config-hash comment line: the header, the rows
    through csv.writer, then chunks of rows already formatted as csv.writer
    writes them (no field that needs quoting, every row ending in CRLF)."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# config_hash={chash}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
        fh.writelines(chunks)


def _write_json(path: Path, chash: str, payload: dict) -> None:
    doc = {"config_hash": chash, **payload}
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _token_intervals(cfg: dict, cam: UcmCamera, frames: int):
    """Interval grids (mu, sigma) per (frame, row, col) token, and the
    number of tokens that took a teacher interval.

    Without an RDM1 input every token carries the freshly initialized
    head interval (0, LOG_RANGE_BOUND); with one, valid pooled tokens take
    the teacher interval over that baseline. coeffs.sigma_override, when
    set, replaces every sigma.
    """
    override = cfg["coeffs"]["sigma_override"]
    rows, cols = token_grid(cam.height, cam.width, cfg["patch_size"])
    mu = np.zeros((frames, rows, cols))
    sigma = np.full((frames, rows, cols), LOG_RANGE_BOUND)
    substituted = 0
    if cfg["rdm1"]:
        rmap = read_rdm1(cfg["rdm1"])
        if rmap.frames != frames:
            raise ValueError(
                f"RDM1 has {rmap.frames} frames but the trajectory has {frames}"
            )
        if rmap.values.shape[1:] != (cam.height, cam.width):
            raise ValueError("RDM1 resolution does not match the camera")
        sidecar = read_sidecar(cfg["rdm1"]) or {}
        near = sidecar.get("near_stat")
        if near is None:
            near = near_distance_stat(rmap, validity_mask(rmap))
        result = external_override(mu, sigma, rmap, float(near))
        mu, sigma = result.mu, result.sigma
        substituted = int(np.count_nonzero(result.substituted))
    if override is not None:
        sigma = np.full_like(sigma, float(override))
    return mu, sigma, substituted


def _plan(cfg: dict):
    return make_frequency_plan(9 * 2 * cfg["pairs_per_group"], 9)


def _token_setup(cfg: dict):
    """What coeffs and trace-path share: camera, poses, token grid (rows, cols),
    offset rays (tokens, 3, 3), per-source-frame breakpoints (F, tokens, 1, K)
    and the number of teacher-substituted tokens."""
    if not cfg["trajectory"]:
        raise ValueError("this command needs a 'trajectory' file")
    cam, poses = load_trajectory(cfg["trajectory"])
    mu, sigma, substituted = _token_intervals(cfg, cam, len(poses))
    frames, rows, cols = mu.shape
    radii = breakpoints(mu, sigma, cfg["k"]).reshape(frames, rows * cols, 1, cfg["k"])
    return cam, poses, (rows, cols), token_rays(cam, cfg["patch_size"]), radii, substituted


@contextlib.contextmanager
def _finite_paths():
    """Run token_paths calls with overflow as an error: a pose far enough
    away overflows the squares of its points, and such a path is an input
    error, not a warning and a file of infinite ranges. The floating-point
    flags are read after every NumPy operation anyway, so this costs one
    state change per command, not work per kernel call."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError:
        raise ValueError("path points must be finite") from None


def cmd_coeffs(cfg: dict, out: Path, chash: str) -> bool:
    cam, poses, (rows, cols), rays, radii, substituted = _token_setup(cfg)
    frames = len(poses)
    plan = _plan(cfg)

    coeffs = np.empty((frames, frames, rows * cols, plan.num_pairs, 2))
    fallbacks = 0
    step = max(1, _PHASES_PER_CALL // (plan.num_pairs * cfg["k"]))
    with _finite_paths():
        for qf in range(frames):
            for sf in range(frames):
                transform = relative_transform(poses[sf], poses[qf])
                for t in range(0, rows * cols, step):
                    path = token_paths(cam, transform, rays[t : t + step], radii[sf, t : t + step])
                    coeffs[qf, sf, t : t + step], fb = coefficients_from_paths(path, plan)
                    fallbacks += fb

    payload = np.ascontiguousarray(coeffs, dtype="<f4")
    with open(out / "coeffs.bin", "wb") as fh:
        fh.write(COEFFS_MAGIC)
        fh.write(struct.pack("<IIIII", frames, frames, rows, cols, plan.num_pairs))
        fh.write(payload.tobytes())

    # Bound check on the computed values; the f32 file rounds separately.
    mags = np.sqrt((coeffs**2).sum(axis=-1))
    bound_ok = bool(mags.max() ** 2 <= 1.0 + 1e-12)
    _write_json(
        out / "coeffs_summary.json",
        chash,
        {
            "shape": list(coeffs.shape),
            "k": cfg["k"],
            "min_magnitude": float(mags.min()),
            "max_magnitude": float(mags.max()),
            "identity_fallback_count": int(fallbacks),
            "teacher_substituted_tokens": substituted,
            "magnitude_bound_ok": bound_ok,
        },
    )
    return bound_ok


def _frame_index(section: dict, key: str, frames: int) -> int:
    """A frame index in [-frames, frames), where -1 is the last frame."""
    index = section[key]
    if not -frames <= index < frames:
        raise ValueError(f"trace.{key} must be in [{-frames}, {frames}) for {frames} frames, got {index}")
    return index % frames


def _reprs(values: np.ndarray) -> list:
    """repr of every float in values, in C order: repr of a list joins the
    same shortest round-trip reprs that map(repr, ...) gives."""
    return repr(values.ravel().tolist())[1:-1].split(", ")


def _trace_chunks(path, radii: np.ndarray):
    """trace.csv rows of paths (tokens, offsets, K) and their radii
    (tokens, 1, K), one token per chunk, each column formatted at once."""
    tokens, offsets, k = path.valid.shape
    keys = [f"{o},{j}" for o in range(offsets) for j in range(1, k + 1)]
    valid_eol = ("0\r\n", "1\r\n")
    for t in range(tokens):
        columns = (
            _reprs(radii[t]) * offsets,
            *(_reprs(path.points[t, ..., c]) for c in range(3)),
            [valid_eol[v] for v in path.valid[t].ravel().tolist()],
        )
        yield "".join(map(",".join, zip(itertools.repeat(str(t)), keys, *columns)))


def cmd_trace_path(cfg: dict, out: Path, chash: str) -> bool:
    cam, poses, _, rays, radii, _ = _token_setup(cfg)
    frames = len(poses)
    qf, sf = (_frame_index(cfg["trace"], key, frames) for key in ("query_frame", "source_frame"))
    with _finite_paths():
        path = token_paths(cam, relative_transform(poses[sf], poses[qf]), rays, radii[sf])
    _write_csv(
        out / "trace.csv", chash,
        ["token", "offset", "k", "r_k", "u_bounded", "v_bounded", "range", "valid"],
        chunks=_trace_chunks(path, radii[sf]),
    )
    return True


def cmd_oracle_check(cfg: dict, out: Path, chash: str) -> bool:
    o = cfg["oracle"]
    result = run_oracle_check(
        num_configs=o["num_configs"],
        samples=o["samples"],
        k_values=o["k_values"],
        seed=cfg["seed"],
    )
    report = result["report"]
    rows = result["rows"]
    keys = sorted(rows[0].keys()) if rows else []
    _write_csv(
        out / "oracle_errors.csv", chash, keys,
        [[repr(r[k]) if isinstance(r[k], float) else r[k] for k in keys] for r in rows],
    )
    _write_json(out / "oracle_report.json", chash, report)
    return bool(report["pass"])


def cmd_gradcheck(cfg: dict, out: Path, chash: str) -> bool:
    samples = cfg["gradcheck"]["samples"]
    head = run_head_gradcheck(samples=samples, seed=cfg["seed"])
    loss = run_loss_gradcheck(samples=samples, seed=cfg["seed"])
    _write_json(out / "gradcheck_report.json", chash, {"head": head, "radial_loss": loss})
    return bool(head["pass"] and loss["pass"])


# train-head's synthetic input, a fixed experiment: a 3-frame dolly past a
# 300-sphere cloud, seen by a xi = 0.3 camera, its radial maps pooled over
# 8x8-pixel patches.
_TRAIN_SCENE = SceneSpec(extent=2.0, num_points=300, seed=0)
_TRAIN_CAMERA = UcmCamera(fx=56.0, fy=56.0, cx=32.0, cy=32.0, xi=0.3, width=64, height=64)
_TRAIN_PATCH_SIZE = 8


def cmd_train_head(cfg: dict, out: Path, chash: str) -> bool:
    t = cfg["train"]
    rmap = render_clip(_TRAIN_SCENE, make_trajectory(frames=3, amplitude=0.4), _TRAIN_CAMERA)
    mask = validity_mask(rmap)
    near = near_distance_stat(rmap, mask)
    targets = normalize_and_pool(rmap, mask, near, _TRAIN_PATCH_SIZE)

    results = run_layer_probe(
        targets,
        num_layers=t["num_layers"], d_model=t["d_model"],
        steps=t["steps"], seed=cfg["seed"], record_every=t["record_every"],
    )

    # Every scalar field of a result, in declaration order; repr of an int
    # is its str, as csv.writer writes it.
    columns = [
        f.name for f in dataclasses.fields(LayerProbeResult) if f.name not in ("params", "curve", "stalls")
    ]
    _write_csv(
        out / "probe_errors.csv", chash, columns,
        [[repr(getattr(r, c)) for c in columns] for r in results],
    )
    _write_csv(
        out / "train_curves.csv", chash, ["layer", "step", "loss"],
        [[r.layer, step, repr(loss)] for r in results for step, loss in r.curve],
    )
    best = min(results, key=lambda r: r.final_probe_error)
    save_head_params(out / "head_best.ckpt", best.params)
    _write_json(
        out / "train_report.json", chash,
        {
            "near_stat": near,
            "valid_tokens": int(targets.mask.sum()),
            "best_layer": best.layer,
            "best_probe_error": best.final_probe_error,
            "min_loss_reduction": min(r.loss_reduction for r in results),
            "final_step_stalls": [{"layer": r.layer, **r.stalls} for r in results],
        },
    )
    return True


def cmd_mix_sim(cfg: dict, out: Path, chash: str) -> bool:
    m = cfg["mix"]
    schedule = MixSchedule(mode=m["mode"])
    granules = m["granules"]
    valid = np.zeros(granules, dtype=bool)
    valid[: int(round(m["valid_fraction"] * granules))] = True
    rows = []
    total_sub = 0
    for step in range(0, m["total_steps"] + 1, m["stride"]):
        p = substitution_probability(schedule, step)
        mask = sample_mask(p, granules, seed=[cfg["seed"], step])
        substituted = mask & valid
        n_sub = int(substituted.sum())
        total_sub += n_sub
        rows.append(
            [step, repr(p), repr(float(valid.mean())), n_sub, granules - n_sub,
             repr(n_sub / granules)]
        )
    _write_csv(
        out / "mix_sim.csv", chash,
        ["step", "probability", "valid_fraction", "substituted", "predicted", "realized_rate"],
        rows,
    )
    _write_json(
        out / "mix_summary.json", chash,
        {
            "mode": m["mode"],
            "floor": schedule.floor,
            "granules": granules,
            "steps_logged": len(rows),
            "mean_realized_rate": total_sub / (granules * len(rows)),
        },
    )
    return True


_COMMANDS = {
    "coeffs": cmd_coeffs,
    "trace-path": cmd_trace_path,
    "oracle-check": cmd_oracle_check,
    "gradcheck": cmd_gradcheck,
    "train-head": cmd_train_head,
    "mix-sim": cmd_mix_sim,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: building it costs about
    0.8 ms, and parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="curverope",
        description="Curved-path expected rotary encoding harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default="curverope-out")
        p.add_argument("--k", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        chash = config_hash(cfg)
        ok = _COMMANDS[args.command](cfg, out, chash)
    except FormatError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except DivergenceError as e:
        print(f"training aborted: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"validation error: cannot open {e.filename}: {e.strerror}", file=sys.stderr)
        return 1
    return 0 if ok else 1


def entry() -> None:
    sys.exit(main())
