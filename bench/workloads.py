"""The benchmark workloads, their output checks and their counters.

A workload calls the program only through ``curverope.cli.main`` and, for
the consumer step, ``curverope.attention.attention_forward``; the program
sees only the generated input files. One pass is a fixed list of
operations (one CLI call or one attention forward each). ``run_pass``
times the pass and every operation; ``check_pass`` then checks every
output outside the timed region and marks failed operations.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
import outputs

D_MODEL = 32  # token feature width of the attention consumer


@dataclass
class PassRecord:
    pass_s: float
    op_s: dict = field(default_factory=dict)  # operation id -> seconds
    counts: dict = field(default_factory=dict)  # counter name -> count from outputs
    rates: dict = field(default_factory=dict)  # subcommand metric name -> value


class Workload:
    name = ""

    def __init__(self, inputs_dir: Path, out: Path, seed: int):
        self.inputs = inputs_dir
        self.out = out
        self.seed = seed
        self.attempted = 0
        self.failed: set = set()
        self._reference: dict = {}  # output name -> digest of its first appearance
        self.passes = 0

    def _cli(self, rec: PassRecord, op: str, argv: list) -> int:
        """One timed CLI call; a nonzero exit or an exception fails the op."""
        from curverope import cli

        self.attempted += 1
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as e:  # argparse rejects its arguments this way
            rc = e.code if isinstance(e.code, int) else 2
        except Exception as e:  # keep the loop running; the op counts as failed
            print(f"{op}: {type(e).__name__}: {e}", file=sys.stderr)
            rc = -1
        rec.op_s[op] = time.perf_counter() - start
        if rc != 0:
            self.fail(op, f"exit code {rc}")
        return rc

    def _same_as_first(self, op: str, path: Path) -> None:
        """Same-seed calls must write byte-identical files."""
        d = outputs.digest(path)
        key = f"{op}:{path.name}"
        if self._reference.setdefault(key, d) != d:
            self.fail(op, f"{path.name} differs from the warm-up pass")

    def fail(self, op: str, why: str, pass_index: int | None = None) -> None:
        """Mark one operation failed and say why on standard error."""
        index = self.passes if pass_index is None else pass_index
        print(f"pass {index} {op} failed: {why}", file=sys.stderr)
        self.failed.add((index, op))

    def run_pass(self) -> PassRecord:
        rec = PassRecord(pass_s=0.0)
        start = time.perf_counter()
        self._ops(rec)
        rec.pass_s = time.perf_counter() - start
        self.check_pass(rec)
        self.passes += 1
        return rec

    def finish(self) -> None:
        """Checks deferred to the end of the run (after peak memory is read)."""


class CoeffsClips(Workload):
    name = "coeffs_clips"
    clips = ("a", "b")

    def __init__(self, inputs_dir: Path, out: Path, seed: int):
        super().__init__(inputs_dir, out, seed)
        from curverope.attention import AttentionParams, TokenBatch
        from curverope.rope import make_frequency_plan

        self.geometry = {
            "a": outputs.Clip(inputs_dir / "traj_a.json", inputs.CLIP_A["patch"], inputs_dir / "clip_a.rdm1"),
            "b": outputs.Clip(inputs_dir / "traj_b.json", inputs.CLIP_B["patch"], None),
        }
        self.num_pairs = outputs.NUM_COORDINATES * inputs.PAIRS_PER_GROUP
        self.plan = make_frequency_plan(2 * self.num_pairs, outputs.NUM_COORDINATES, outputs.FREQ_BASE)
        rng = np.random.default_rng([seed, 4])
        self.attention = {}
        for c, g in self.geometry.items():
            f, p, d = len(g.poses), g.rows * g.cols, 2 * self.num_pairs
            bound = 1.0 / np.sqrt(D_MODEL)
            w = [rng.uniform(-bound, bound, size=(D_MODEL, d)) for _ in range(3)]
            wo = rng.normal(0.0, 0.1, size=(d, D_MODEL))
            feats = rng.normal(size=(f, p, D_MODEL))
            self.attention[c] = (AttentionParams(*w, wo), TokenBatch(feats), (feats, *w, wo))
        self.mc_queue: list = []

    def _ops(self, rec: PassRecord) -> None:
        from curverope import attention

        for c in self.clips:
            cfg, out = str(self.inputs / f"clip_{c}.json"), str(self.out / c)
            self._cli(rec, f"coeffs_{c}", ["coeffs", "--config", cfg, "--out", out])
            self._cli(rec, f"trace_{c}", ["trace-path", "--config", cfg, "--out", out])
        self.attn_out = {}
        for c in self.clips:
            op = f"attention_{c}"
            self.attempted += 1
            rec.op_s[op] = 0.0
            try:
                coeffs = outputs.read_coeffs(self.out / c / "coeffs.bin")
                params, batch, _ = self.attention[c]
                start = time.perf_counter()
                y = attention.attention_forward(params, batch, coeffs, self.plan)
                rec.op_s[op] = time.perf_counter() - start
                self.attn_out[c] = (coeffs, y)
            except Exception as e:  # a missing or malformed export fails this op too
                self.fail(op, f"{type(e).__name__}: {e}")

    def check_pass(self, rec: PassRecord) -> None:
        sets = 0
        for c in self.clips:
            g = self.geometry[c]
            out = self.out / c
            sets += len(g.poses) ** 2 * g.rows * g.cols
            rec.counts["phasor.segments"] = rec.counts.get("phasor.segments", 0) + (
                len(g.poses) ** 2 * g.rows * g.cols * self.num_pairs * (inputs.CLIP_K - 1)
            )
            try:
                coeffs = outputs.read_coeffs(out / "coeffs.bin")
                summary = json.loads((out / "coeffs_summary.json").read_text())
                problem = outputs.coeffs_problem(out, coeffs)
                if problem:
                    self.fail(f"coeffs_{c}", problem)
                self._same_as_first(f"coeffs_{c}", out / "coeffs.bin")
                rec.counts["phasor.fallback_offsets"] = (
                    rec.counts.get("phasor.fallback_offsets", 0) + summary["identity_fallback_count"]
                )
                if self.passes == 0:
                    # Later passes must match these bytes, so one Monte-Carlo
                    # sample per clip covers every pass.
                    rng = np.random.default_rng([self.seed, 5, self.clips.index(c)])
                    picked = outputs.pick_set(g, rng)
                    if picked is None:
                        self.fail(f"coeffs_{c}", "no set in front of the query camera to check")
                    else:
                        qf, sf, tok = picked
                        self.mc_queue.append((self.passes, c, coeffs[qf, sf, tok].copy(), picked, rng))
            except (OSError, ValueError, KeyError) as e:
                self.fail(f"coeffs_{c}", f"{type(e).__name__}: {e}")
            try:
                valid = np.array([int(v) for v in outputs.csv_column(out / "trace.csv", "valid")])
                self._same_as_first(f"trace_{c}", out / "trace.csv")
                rec.counts["phasor.invalid_breakpoints"] = (
                    rec.counts.get("phasor.invalid_breakpoints", 0) + int((valid == 0).sum())
                )
            except (OSError, ValueError, IndexError) as e:
                self.fail(f"trace_{c}", f"{type(e).__name__}: {e}")
            if c in self.attn_out:
                coeffs, y = self.attn_out[c]
                ref = outputs.attention_reference(*self.attention[c][2], coeffs)
                if not (np.all(np.isfinite(y)) and np.allclose(y, ref, rtol=1e-9, atol=1e-12)):
                    self.fail(f"attention_{c}", "output differs from the numpy reference")
                key = f"attention_{c}:out"
                d = hashlib.sha256(np.ascontiguousarray(y).tobytes()).hexdigest()
                if self._reference.setdefault(key, d) != d:
                    self.fail(f"attention_{c}", "output differs from the warm-up pass")
        coeffs_s = sum(rec.op_s[f"coeffs_{c}"] for c in self.clips)
        rec.rates["coeff_sets_per_s"] = sets / coeffs_s
        rec.rates["attention_s"] = sum(rec.op_s[f"attention_{c}"] for c in self.clips)

    def finish(self) -> None:
        for pass_index, c, exported, (qf, sf, tok), rng in self.mc_queue:
            err = outputs.mc_set_error(self.geometry[c], exported, qf, sf, tok, rng)
            if not err <= outputs.MC_TOLERANCE:
                self.fail(f"coeffs_{c}", f"set {(qf, sf, tok)} differs from Monte-Carlo by {err:.3e}",
                          pass_index)
        self.mc_queue.clear()


class VerifyTrain(Workload):
    """The criterion-3 oracle and the gradient checks, then head training.

    Everything here runs the head and the oracle; almost nothing runs the
    coefficient path that ``coeffs_clips`` exercises.
    """

    name = "verify_train"
    train_files = ("probe_errors.csv", "train_curves.csv", "train_report.json", "head_best.ckpt")

    def _ops(self, rec: PassRecord) -> None:
        common = ["--config", str(self.inputs / "verify_train.json"), "--seed", str(self.seed),
                  "--out", str(self.out)]
        self._cli(rec, "oracle", ["oracle-check", *common])
        self._cli(rec, "gradcheck", ["gradcheck", *common])
        self._cli(rec, "train", ["train-head", *common])

    def check_pass(self, rec: PassRecord) -> None:
        for op, report in (("oracle", "oracle_report.json"), ("gradcheck", "gradcheck_report.json")):
            try:
                doc = json.loads((self.out / report).read_text())
                ok = doc["pass"] if op == "oracle" else doc["head"]["pass"] and doc["radial_loss"]["pass"]
                if ok is not True:
                    self.fail(op, f"{report} does not pass")
                self._same_as_first(op, self.out / report)
                if op == "oracle":
                    self._same_as_first(op, self.out / "oracle_errors.csv")
            except (OSError, ValueError, KeyError) as e:
                self.fail(op, f"{type(e).__name__}: {e}")
        try:
            finite = outputs.csv_floats_finite(self.out / "train_curves.csv", "loss") and all(
                outputs.csv_floats_finite(self.out / "probe_errors.csv", col)
                for col in ("init_loss", "final_loss", "final_probe_error")
            )
            if not finite:
                self.fail("train", "non-finite or missing losses")
            for name in self.train_files:
                self._same_as_first("train", self.out / name)
        except (OSError, ValueError) as e:
            self.fail("train", f"{type(e).__name__}: {e}")
        ks = sorted(set(inputs.ORACLE["k_values"]) | {inputs.CLIP_K})
        rec.counts["phasor.segments"] = inputs.ORACLE["num_configs"] * 3 * sum(k - 1 for k in ks)
        rec.rates["oracle_configs_per_s"] = inputs.ORACLE["num_configs"] / rec.op_s["oracle"]
        rec.rates["gradcheck_s"] = rec.op_s["gradcheck"]
        steps = inputs.TRAIN["num_layers"] * inputs.TRAIN["steps"]
        rec.rates["train_steps_per_s"] = steps / rec.op_s["train"]


WORKLOADS = {w.name: w for w in (CoeffsClips, VerifyTrain)}
