"""streamgate benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--corrupt]

Run it from the root of a streamgate checkout; it uses the package under
``src/`` as it is there, with nothing installed.  The workloads, their
metrics and the layer-to-metric predictions are described in
``perfbench/README.md``.

* ``--trace 0`` runs the workload untraced in a fresh interpreter and
  sets it up in several more, and reports the end-to-end metrics named in
  ``BENCHMARK.json``.
* ``--trace 1`` runs it untraced and then traced, each in a fresh
  interpreter, checks that both give the same result digest and drop
  count, and reports the per-layer metrics.
* ``--corrupt`` alters a program output before its oracle gate (see
  ``perfbench/README.md``), to show that the gate reports a failure.

The next to last line of standard output is ``perfbench-detail: {...}``:
every metric under the names ``perfbench/README.md`` uses, with units and
sample counts, the per-layer statuses, failure notes and provenance.  The
last line is the result: ``{"correct", "attempted", "failed", "metrics"}``.
Results and spans are also written under ``.perfbench_out/``.  The exit
code is 0 when a result was printed, even if operations failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("monitor-large-k", "detect-cli", "replication-small-k", "partial-dep")
SETUP_PROBES = 7
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    pass


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("STREAMGATE_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv, root: Path, deadline: float) -> str:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("time budget exhausted")
    try:
        proc = subprocess.run([sys.executable, *argv], cwd=root, env=child_env(root),
                              capture_output=True, text=True, timeout=left)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[0]} did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[:3])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def run_worker(args, trace: int, root: Path, out: Path, deadline: float) -> dict:
    stem = f"{args.workload}-seed{args.seed}-trace{trace}"
    result = out / f"{stem}.json"
    argv = [str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(trace), "--result", str(result),
            "--workdir", str(out / f"work-{os.getpid()}")]
    if trace:
        argv += ["--spans", str(out / f"{stem}.spans.npz")]
    if args.corrupt:
        argv.append("--corrupt")
    run_child(argv, root, deadline)
    with open(result) as fh:
        return json.load(fh)


def setup_seconds(workload: str, k: int, root: Path, deadline: float) -> list[float]:
    return [float(run_child([str(HERE / "setup_probe.py"), workload, str(k)], root,
                            deadline).strip().splitlines()[-1])
            for _ in range(SETUP_PROBES)]


def bench(args, root: Path) -> tuple[dict, dict]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if not (root / "src" / "streamgate" / "__init__.py").is_file():
        raise BenchError(f"no streamgate package under {root / 'src'}; run from a checkout root")
    out = root / ".perfbench_out"
    out.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_BUDGET_S

    plain = run_worker(args, 0, root, out, deadline)
    detail = {"workload": args.workload, "provenance": plain["provenance"],
              "sizes": plain["sizes"], "passes": plain["passes"], "digest": plain["digest"],
              "failure_notes": plain["failure_notes"], "metrics": dict(plain["metrics"])}
    attempted, failed = plain["attempted"], plain["failed"]
    values = {}
    if args.trace == 0:
        setups = setup_seconds(args.workload, plain["sizes"]["k"], root, deadline)
        values = {"setup_s": statistics.median(setups),
                  "peak_rss_mb": plain["peak_rss_mb"],
                  "stream_steps_per_ref": plain["stream_steps_per_ref"]}
        detail["metrics"].update({
            "setup_s": {"value": values["setup_s"], "unit": "s", "n": len(setups)},
            "peak_rss_mb": {"value": plain["peak_rss_mb"], "unit": "MB", "n": 1},
            "stream_steps_per_ref": {"value": plain["stream_steps_per_ref"], "unit": "1/ref",
                                     "n": plain["passes"]},
            "stream_steps_per_s": {"value": plain["stream_steps_per_s"], "unit": "1/s",
                                   "n": plain["passes"]},
            "machine.ref_ms": {"value": plain["ref_ms"], "unit": "ms",
                               "n": len(plain["ref_s"])},
        })
        detail["metrics"].update({k: {"value": v, "unit": "count", "n": 1}
                                  for k, v in plain.get("cli", {}).items()})
        metric_specs = spec["end_to_end"]
    else:
        traced = run_worker(args, 1, root, out, deadline)
        attempted += traced["attempted"] + 1
        failed += traced["failed"]
        if (traced["digest"], traced["dropped_per_pass"]) != (plain["digest"],
                                                              plain["dropped_per_pass"]):
            failed += 1
            detail["failure_notes"].append("traced run changed the output digest or drop count")
        layers = traced["layers"]
        if layers["detector.dropped"]["value"] not in (None, plain["dropped_per_pass"]):
            failed += 1
            detail["failure_notes"].append("traced drop counter differs from the outputs")
        # both throughputs are in units of their own run's machine-speed probe
        overhead = plain["stream_steps_per_ref"] / max(traced["stream_steps_per_ref"], 1e-300)
        layers["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio",
                                          "status": "measured"}
        for name, count in traced.get("cli", {}).items():
            layers[name] = {"value": count, "unit": "ratio" if "ratio" in name else "count",
                            "status": "measured"}
        detail.update(layers=layers, traced_passes=traced["passes"], spans=traced["spans"],
                      failure_notes=detail["failure_notes"] + traced["failure_notes"])
        for status in ("unmeasured", "partly measured"):
            names = [name for name, item in layers.items() if item["status"] == status]
            if names:
                print(f"perfbench: {status} layers: {', '.join(names)}", file=sys.stderr)
        values = {name: item["value"] or 0.0 for name, item in layers.items()}
        metric_specs = spec["per_layer"]

    detail["fail_ratio"] = failed / attempted if attempted else 1.0
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in metric_specs}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, detail


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args()
    root = Path.cwd()
    try:
        result, detail = bench(args, root)
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    (root / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.result.json"
     ).write_text(json.dumps({"result": result, "detail": detail}, indent=1))
    print("perfbench-detail: " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
