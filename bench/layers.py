"""Per-layer metrics: what the traced run reports, and the boundary probes.

Every module of the package is a layer. Each gets ``<module>.calls`` and
``<module>.self_s`` from the tracer. The counters below are taken from
outside at the same boundaries: from the arguments or return value of a
traced call (the probes), or from the files an operation writes. All
values are per pass, averaged over the traced passes.
"""

from __future__ import annotations

import os

import numpy as np

from tracer import MODULES

# (name, unit, better) of every per-layer metric, in report order.
COUNTERS = (
    ("phasor.segments", "count", "higher"),
    ("phasor.invalid_breakpoints", "count", "lower"),
    ("phasor.fallback_offsets", "count", "lower"),
    ("teacher_mix.substituted_tokens", "count", "higher"),
    ("oracle.setup_accept_ratio", "ratio", "higher"),
    ("oracle.mc_samples", "count", "higher"),
    ("oracle.mc_bytes_computed", "B", "lower"),
    ("head.tokens_fwd", "count", "higher"),
    ("head.tokens_bwd", "count", "higher"),
    ("formats.bytes_read", "B", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)
# Subcommand-level rates, measured on the untraced passes of a traced run;
# 0 on a workload that does not run the subcommand.
SUBCOMMAND = (
    ("coeff_sets_per_s", "1/s", "higher"),
    ("attention_s", "s", "lower"),
    ("oracle_configs_per_s", "1/s", "higher"),
    ("gradcheck_s", "s", "lower"),
    ("train_steps_per_s", "1/s", "higher"),
)
PER_LAYER = tuple(
    m for module in MODULES
    for m in ((f"{module}.calls", "count", "lower"), (f"{module}.self_s", "s", "lower"))
) + COUNTERS + SUBCOMMAND

# Bytes of the (samples, 3) float64 point array one unchunked
# mc_expected_phasor call materialises; computed from array sizes, not measured.
MC_BYTES_PER_SAMPLE = 3 * 8


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _count(key: str, amount):
    def probe(tr, args, kwargs, result):
        tr.counters[key] += amount(args, kwargs, result)
    return probe


def _file_size(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _setup_attempt(tr, args, kwargs, result):
    if tr.open_calls["oracle.random_setup"]:
        tr.counters["oracle.setup_attempts"] += 1


def _head_backward_batch(tr, args, kwargs, result):
    # head_backward may delegate to the batch form; count its token once.
    if not tr.open_calls["head.head_backward"]:
        tr.counters["head.tokens_bwd"] += len(_arg(args, kwargs, 1, "features"))


def _mc(tr, args, kwargs, result):
    samples = int(_arg(args, kwargs, 1, "samples"))
    tr.counters["oracle.mc_samples"] += samples
    tr.counters["oracle.mc_bytes_computed"] += samples * MC_BYTES_PER_SAMPLE


# Functions whose open-call count the probes read.
WATCH = ("oracle.random_setup", "head.head_backward")

PROBES = {
    "teacher_mix.external_override": _count(
        "teacher_mix.substituted_tokens", lambda a, k, r: int(np.count_nonzero(r.substituted))
    ),
    "oracle.random_setup": _count("oracle.setup_accepted", lambda a, k, r: 1),
    "phasor.projected_path": _setup_attempt,
    "oracle.mc_expected_phasor": _mc,
    "head.head_forward": _count("head.tokens_fwd", lambda a, k, r: 1),
    "head.head_forward_batch": _count(
        "head.tokens_fwd", lambda a, k, r: len(_arg(a, k, 1, "features"))
    ),
    "head.head_backward": _count("head.tokens_bwd", lambda a, k, r: 1),
    "head.head_backward_batch": _head_backward_batch,
    "formats.read_rdm1": _count("formats.bytes_read", lambda a, k, r: _file_size(_arg(a, k, 0, "path"))),
    "formats.read_sidecar": _count(
        "formats.bytes_read", lambda a, k, r: _file_size(str(_arg(a, k, 0, "path")) + ".json")
    ),
    "formats.load_trajectory": _count(
        "formats.bytes_read", lambda a, k, r: _file_size(_arg(a, k, 0, "path"))
    ),
    "formats.load_head_params": _count(
        "formats.bytes_read", lambda a, k, r: _file_size(_arg(a, k, 0, "path"))
    ),
}


def layer_metrics(tracer, traced: list, untraced: list) -> dict:
    """Per-layer values from a tracer and the pass records of both halves."""
    n = len(traced)
    calls = tracer.calls()
    out = {}
    for module in MODULES:
        out[f"{module}.calls"] = calls[module] / n
        out[f"{module}.self_s"] = tracer.self_s[module] / n
    counts = dict(tracer.counters)
    for rec in traced:
        for key, value in rec.counts.items():
            counts[key] = counts.get(key, 0) + value
    attempts = counts.get("oracle.setup_attempts", 0)
    for name, _, _ in COUNTERS:
        out[name] = counts.get(name, 0) / n
    out["oracle.setup_accept_ratio"] = counts.get("oracle.setup_accepted", 0) / attempts if attempts else 0.0
    out["trace.overhead_ratio"] = (
        float(np.median([r.pass_s for r in traced])) / float(np.median([r.pass_s for r in untraced]))
    )
    for name, _, _ in SUBCOMMAND:
        values = [r.rates[name] for r in untraced if name in r.rates]
        out[name] = float(np.median(values)) if values else 0.0
    return out
