"""One run of one workload in a fresh interpreter; ``run.py`` starts it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --result PATH [--workdir DIR] [--spans PATH] [--corrupt]

Generates the workload's inputs from the seed, pays the warm-up, then runs
timed passes until ``--seconds`` have elapsed (at least one pass) and
writes one JSON result to ``--result``.  With ``--trace 1`` the timing
wrappers of ``tracing.py`` are installed after the warm-up; the spans are
written to ``--spans`` at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import workloads
from tracing import NullTracer, Tracer

# stop a traced run early once this many spans are held in memory (~32 B each)
SPAN_BUDGET = 1_500_000

# per-layer metric -> (span, "s" for inclusive or "self_s" for self seconds)
LAYER_TIMES = {
    "detector.deactivate.self_s": ("detector.deactivate", "self_s"),
    "detector.one_step_rule.s": ("detector.one_step_rule", "s"),
    "detector.observe.self_s": ("detector.observe", "self_s"),
    "detector.checkpoint_state.s": ("detector.checkpoint_state", "s"),
    "detector.restore_state.s": ("detector.restore_state", "s"),
    "posterior.update.s": ("posterior.update", "s"),
    "posterior.w.s": ("posterior.w", "s"),
    "posterior.freeze.s": ("posterior.freeze", "s"),
    "model.log_lr_rows.s": ("model.log_lr_rows", "s"),
    "model.sample_step.s": ("model.sample_step", "s"),
    "calibrate.calibrate_thresholds.self_s": ("calibrate.calibrate_thresholds", "self_s"),
    "simulate.metrics.s": ("simulate.metrics", "s"),
    "simulate.run_experiment.self_s": ("simulate.run_experiment", "self_s"),
    "cli.main.self_s": ("cli.main", "self_s"),
}


def provenance(root: Path, seed: int) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    src = hashlib.sha256()
    for path in sorted((root / "src" / "streamgate").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": src.hexdigest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "cpu_count": os.cpu_count(), "seed": seed}


# Machine-speed probe.  On a shared host the same pass can run 50% slower for
# minutes at a time, and different kinds of work slow down by different
# amounts.  The probe mixes, in about equal time, the three kinds the
# workloads do: numpy work on fresh 50k-element arrays, interpreter-bound
# dict updates, and scans of a list of Python ints.  Throughput in units of
# its median time is what the result line reports.
REF_ROUNDS = 6  # after the last pass; passes probe themselves while they run
_REF_X = np.random.default_rng(0).random(50_000)
_REF_LIST = list(range(0, 8_000, 2))
_REF_PROBE = list(range(1, 121, 2))


def reference_kernel_s() -> float:
    t0 = perf_counter()
    np.setdiff1d(np.sort(_REF_X), _REF_X[:100])
    np.exp(np.cumsum(_REF_X) * -1e-4).sum()
    counts: dict[int, int] = {}
    for i in range(20_000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    sum(1 for v in _REF_PROBE if v in _REF_LIST)
    return perf_counter() - t0


def typical_pass_s(op_s: list[list[float]]) -> float:
    """Seconds of a typical pass: each operation's median over the passes,
    summed.  A slow spell on a shared machine hits one pass's operations,
    not the same operation in most passes."""
    if len({len(ops) for ops in op_s}) == 1:
        return float(np.median(np.asarray(op_s), axis=0).sum())
    return float(np.median([sum(ops) for ops in op_s]))


def layer_report(tracer: Tracer, passes: int) -> dict:
    """Per-layer metrics per pass, each with a status: measured, not exercised
    on this workload, partly measured or unmeasured (a wrapped target is gone)."""
    times = tracer.layer_times()
    out = {}

    def entry(value, unit, span):
        missing = tracer.missing.get(span, [])
        calls = times[span]["calls"]
        if not missing:
            return {"value": value, "unit": unit,
                    "status": "measured" if calls else "not exercised"}
        # with a target gone, no calls may mean the layer ran through it
        if not calls:
            return {"value": None, "unit": unit, "status": "unmeasured",
                    "missing_targets": missing}
        return {"value": value, "unit": unit, "status": "partly measured",
                "missing_targets": missing}

    for metric, (span, field) in LAYER_TIMES.items():
        out[metric] = entry(times[span][field] / passes, "s", span)
    steps = times["detector.observe"]["calls"]
    out["detector.steps"] = entry(steps / passes, "count", "detector.observe")
    out["detector.dropped"] = entry(tracer.counts.get("detector.dropped", 0) / passes,
                                    "count", "detector.deactivate")
    out["detector.checkpoint.bytes"] = entry(
        tracer.counts.get("detector.checkpoint.bytes", 0) / passes, "bytes",
        "detector.checkpoint_state")
    out["posterior.w.calls_per_step"] = entry(
        times["posterior.w"]["calls"] / steps if steps else 0.0, "calls/step", "posterior.w")
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--workdir", default=".perfbench_out/work")
    ap.add_argument("--spans")
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args()

    cls = workloads.WORKLOADS[args.workload]
    extra = {"workdir": args.workdir} if cls is workloads.DetectCli else {}
    work = cls(args.seed, corrupt=args.corrupt, **extra)
    work.prepare()
    with contextlib.suppress(Exception):  # a broken program fails the timed passes instead
        work.warmup()
    tracer = Tracer() if args.trace else NullTracer()
    if args.trace:
        tracer.install()

    ledger, rec = workloads.Ledger(), {}
    digests, op_s, dropped = [], [], []
    ref_s: list[float] = []

    def probe() -> None:
        ref_s.append(reference_kernel_s())

    deadline = perf_counter() + args.seconds
    while True:
        tracer.next_run()
        try:
            d, ops, n_dropped = work.run_pass(ledger, rec, tracer, probe)
        except Exception as exc:  # outside any operation's own guard
            ledger.attempted += 1
            ledger.fail(f"pass {len(digests) + 1}: {exc!r}")
            break
        if digests and (d != digests[0] or n_dropped != dropped[0]):
            ledger.fail(f"pass {len(digests) + 1} output differs from pass 1")
        digests.append(d)
        op_s.append(ops)
        dropped.append(n_dropped)
        if perf_counter() >= deadline or tracer.n_spans > SPAN_BUDGET:
            break
    for _ in range(REF_ROUNDS):
        probe()
    if hasattr(work, "cleanup"):
        work.cleanup()

    passes = len(digests)
    result = {
        "workload": args.workload, "trace": args.trace,
        "provenance": provenance(Path.cwd(), args.seed), "sizes": work.sizes(),
        "passes": passes, "attempted": ledger.attempted, "failed": ledger.failed,
        "failure_notes": ledger.notes, "digest": digests[0] if digests else None,
        "dropped_per_pass": dropped[0] if dropped else None,
        "program_s": [sum(ops) for ops in op_s], "op_s": op_s,
        "stream_steps_per_s": (work.nominal_stream_steps() / typical_pass_s(op_s)
                               if op_s else 0.0),
        "ref_s": ref_s, "ref_ms": float(np.median(ref_s)) * 1e3,
        "stream_steps_per_ref": (work.nominal_stream_steps() * float(np.median(ref_s))
                                 / typical_pass_s(op_s) if op_s else 0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "metrics": work.summary(rec),
    }
    if "obs_parsed" in rec:
        parsed, discarded = rec["obs_parsed"], rec["obs_discarded"]
        result["cli"] = {"cli.obs_parsed": parsed, "cli.obs_discarded": discarded,
                         "cli.useful_obs_ratio": (parsed - discarded) / parsed}
    if args.trace:
        result["layers"] = layer_report(tracer, max(passes, 1))
        result["spans"] = tracer.n_spans
        if args.spans:
            tracer.write(args.spans)
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
