"""Benchmark of the curverope CLI: one closed-loop client, one process.

    python3 bench/run.py --workload coeffs_clips --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout. Set-up runs several times, each in
a fresh child process that imports the package and writes the workload's
input files from the seed; ``setup_s`` is their median. The parent then
imports the package from ``src/``, runs one warm-up pass and measures
passes until their summed time reaches ``--seconds``, checking every
output after each pass. With ``--trace 1`` the first half of the time runs
untraced and the second half under the tracer, and the per-layer metrics
are printed instead of the end-to-end ones. The last line of standard
output is the JSON result; the line before it is the environment record.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: the load is one single-threaded client, and a second BLAS
# thread on a two-core host competes with whatever else runs there. Set before
# numpy is imported here or in the set-up children, which inherit it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
MIN_PASSES = 3
MIN_TRACE_PASSES = 2
# Stop starting passes after this much wall time, so a slow program still
# exits well inside the 180 s a run may take.
PASS_WALL_LIMIT_S = 100.0


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", metavar="DIR", default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _setup_child(workload: str, seed: int, out: Path) -> int:
    """Import the package and write the inputs; print both timings as JSON."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import curverope  # noqa: F401  (timed: import cost is part of set-up)

    imported = time.perf_counter()
    sys.path.insert(0, str(HERE))
    import inputs

    inputs.generate(workload, seed, out)
    done = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "generate_s": done - imported}))
    return 0


def _digests(folder: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(folder.iterdir()) if p.is_file()
    }


def _setup(workload: str, seed: int, inputs_dir: Path) -> list:
    """Run set-up SETUP_REPEATS times in fresh processes; the inputs must not change."""
    times, first = [], None
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--setup-child", str(inputs_dir)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up failed with exit code {proc.returncode}")
        t = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(t["import_s"] + t["generate_s"])
        digests = _digests(inputs_dir)
        if first is None:
            first = digests
        elif digests != first:
            raise RuntimeError("set-up wrote different inputs for the same seed")
    return times


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment(args, curverope_file: str) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "git_commit": _git_commit(),
        "program": str(Path(curverope_file).resolve().parent.relative_to(ROOT)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
    }


def _measure(wl, seconds: float, min_passes: int, started: float) -> list:
    records, total = [], 0.0
    while total < seconds or len(records) < min_passes:
        rec = wl.run_pass()
        records.append(rec)
        total += rec.pass_s
        if time.monotonic() - started > PASS_WALL_LIMIT_S and len(records) >= min_passes:
            break
    return records


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = _parse(argv)
    os.chdir(ROOT)
    if not (SRC / "curverope" / "__init__.py").is_file():
        print(f"error: no program source at {SRC.relative_to(ROOT)}/curverope", file=sys.stderr)
        return 2
    if args.setup_child:
        return _setup_child(args.workload, args.seed, Path(args.setup_child))

    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    started = time.monotonic()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = Path(".bench_run") / stem
    shutil.rmtree(work, ignore_errors=True)
    inputs_dir = work / "inputs"
    setup_times = _setup(args.workload, args.seed, inputs_dir)

    sys.path.insert(0, str(SRC))
    import curverope

    if not Path(curverope.__file__).resolve().is_relative_to(SRC):
        print(f"error: curverope imported from {curverope.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = _environment(args, curverope.__file__)

    results = Path(".bench_results")
    results.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](inputs_dir, work / "out", args.seed)
    wl.run_pass()  # warm-up: lazy imports, caches, and the reference outputs
    if args.trace:
        from layers import PER_LAYER, PROBES, WATCH, layer_metrics
        from tracer import Tracer

        untraced = _measure(wl, args.seconds / 2, MIN_TRACE_PASSES, started)
        tracer = Tracer(PROBES, WATCH)
        with tracer:
            traced = []
            for i in range(max(MIN_TRACE_PASSES, len(untraced))):
                tracer.request = i
                traced.append(wl.run_pass())
        wl.finish()
        values = layer_metrics(tracer, traced, untraced)
        metrics = {name: _metric(values[name], unit) for name, unit, _ in PER_LAYER}
        coverage = sum(tracer.self_s.values()) / sum(r.pass_s for r in traced)
        tracer.write(results / f"{stem}.spans.npz")
        detail = {"self_s_over_pass_s": coverage, "traced_passes": len(traced),
                  "untraced_passes": len(untraced)}
    else:
        records = _measure(wl, args.seconds, MIN_PASSES, started)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wl.finish()
        metrics = {
            "pass_s": _metric(statistics.median(r.pass_s for r in records), "s"),
            "setup_s": _metric(statistics.median(setup_times), "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
        detail = {"passes": len(records), "pass_s_samples": [r.pass_s for r in records],
                  "setup_s_samples": setup_times}

    failed = len(wl.failed)
    result = {"correct": failed == 0, "attempted": wl.attempted, "failed": failed, "metrics": metrics}
    record = {"env": env, **result, "error_rate": failed / wl.attempted, "detail": detail,
              "failed_ops": sorted(map(list, wl.failed))}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"env": env}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
