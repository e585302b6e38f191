"""Tracing must not change what the program computes.

Run from the repository root with ``python -m pytest bench/test_tracing.py``.
Each workload runs one pass untraced and one pass traced, into separate
output directories; every file written must be byte-identical, and the
per-module self times must add up to the traced pass time within the
tracer's stated slack.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import inputs  # noqa: E402
from layers import PER_LAYER, PROBES, WATCH  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7
# Pass time not covered by top-level spans: the benchmark's own glue between
# operations (reading coeffs.bin for the consumer) plus clock reads and
# probes outside any span. Stated in README.md.
SELF_TIME_SLACK = 0.02


def _files(folder: Path) -> dict:
    return {p.relative_to(folder): p.read_bytes() for p in sorted(folder.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_pass_writes_identical_outputs(name, tmp_path):
    inputs.generate(name, SEED, tmp_path / "inputs")
    plain = WORKLOADS[name](tmp_path / "inputs", tmp_path / "plain", SEED)
    plain.run_pass()
    traced = WORKLOADS[name](tmp_path / "inputs", tmp_path / "traced", SEED)
    tracer = Tracer(PROBES, WATCH)
    with tracer:
        rec = traced.run_pass()
    plain.finish()
    traced.finish()

    assert not plain.failed and not traced.failed
    want, got = _files(tmp_path / "plain"), _files(tmp_path / "traced")
    assert want.keys() == got.keys()
    assert [k for k in want if want[k] != got[k]] == []

    covered = sum(tracer.self_s.values())
    assert rec.pass_s * (1.0 - SELF_TIME_SLACK) <= covered <= rec.pass_s
    assert tracer.calls()["cli"] == sum(1 for op in rec.op_s if not op.startswith("attention"))


def test_reimported_names_are_traced_and_restored(monkeypatch):
    import curverope
    from curverope import cli, oracle, phasor

    original = phasor.projected_path
    monkeypatch.setattr(phasor, "__all__", [*phasor.__all__, "renamed_away"])
    tracer = Tracer()
    with tracer:
        wrapped = phasor.projected_path
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert oracle.projected_path is wrapped and curverope.projected_path is wrapped
        assert cli.token_paths.__wrapped__ is not None
    assert phasor.projected_path is original and oracle.projected_path is original
    assert not hasattr(cli.main, "__wrapped__")


def test_self_time_is_span_time_minus_other_module_children():
    from curverope import oracle

    tracer = Tracer()
    with tracer:
        setup = oracle.random_setup(np.random.default_rng(0))
        oracle.analytic_expected_phasor(setup, 5)
    dur = np.array(tracer.span_end) - np.array(tracer.span_start)
    children = np.zeros_like(dur)
    for i, parent in enumerate(tracer.span_parent):
        if parent >= 0:
            children[parent] += dur[i]
    expect = Counter()
    for i, fn in enumerate(tracer.span_fn):
        expect[tracer.modules[fn]] += dur[i] - children[i]
    assert tracer.calls()["oracle"] == 2 and tracer.calls()["phasor"] >= 4
    for module, value in expect.items():
        assert tracer.self_s[module] == pytest.approx(value, rel=1e-9, abs=1e-12)


def test_benchmark_json_lists_every_reported_metric():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(PER_LAYER)
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(WORKLOADS)
    assert {m["name"] for m in doc["end_to_end"]} == {"pass_s", "setup_s", "peak_rss_mb"}
