"""Record a benchmark entry per workload: one line of the perf trajectory.

    python3 tools/bench_record.py --seeds 2201 2202 2203 [--root CHECKOUT]

For each workload in ``BENCHMARK.json`` this runs
``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0``
in the checkout ``--root`` (default: this repository) once per seed, and
appends one entry to ``BENCH_<workload>.json`` in that checkout.  ``S`` is
the benchmark's own ``run_seconds``.  An entry holds the checkout's git sha
and source hash, the python, numpy and scipy versions, the seeds, the median
and quartiles of each end-to-end metric, the failed and attempted operation
counts, and the result digest of every run.

Before a checkout's first run, its ``src/streamgate/__pycache__`` is removed
(and the removal printed), so that ``setup_s`` never compares bytecode cached
by an earlier run with source that has changed since.

The file is a JSON list of entries, oldest first.  To compare two commits,
run this once in each checkout on the same seeds.  Exit code: 0 when every
run printed a result, 1 otherwise (entries for the workloads that did run
are still written).
"""

from __future__ import annotations

import argparse
import datetime
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def clear_bytecode(root: Path) -> None:
    """Remove the checkout's package bytecode cache, and say so."""
    cache = root / "src" / "streamgate" / "__pycache__"
    if cache.is_dir():
        shutil.rmtree(cache)
        print(f"bench_record: removed {cache}", file=sys.stderr)
    else:
        print(f"bench_record: no bytecode cache at {cache}", file=sys.stderr)


def run_once(root: Path, workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """The result and detail of one ``perfbench/run.py --trace 0`` run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("perfbench-detail: "):
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2].partition(": ")[2])


def summarize(values: list[float]) -> dict:
    """Median and quartiles (inclusive method, as numpy.percentile)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def record(root: Path, workload: str, seeds: list[int], seconds: int,
           metric_names: list[str]) -> dict:
    results, details = zip(*(run_once(root, workload, seed, seconds) for seed in seeds))
    prov = details[0]["provenance"]
    return {
        "recorded_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "git_sha": prov["git_sha"],
        "src_sha256": prov["src_sha256"],
        "python": prov["python"], "numpy": prov["numpy"], "scipy": prov["scipy"],
        "cpu_count": prov["cpu_count"],
        "seconds": seconds,
        "seeds": seeds,
        "metrics": {name: {**summarize([r["metrics"][name]["value"] for r in results]),
                           "unit": results[0]["metrics"][name]["unit"]}
                    for name in metric_names},
        "failed": sum(r["failed"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "digests": [d["digest"] for d in details],
    }


def append_entry(path: Path, entry: dict) -> None:
    entries = json.loads(path.read_text()) if path.exists() else []
    entries.append(entry)
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(entries, indent=1) + "\n")
    tmp.replace(path)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--root", type=Path, default=REPO,
                    help="checkout to benchmark (default: this repository)")
    args = ap.parse_args()
    root = args.root.resolve()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    metric_names = [m["name"] for m in spec["end_to_end"]]
    clear_bytecode(root)
    code = 0
    for workload in (w["name"] for w in spec["workloads"]):
        try:
            entry = record(root, workload, args.seeds, spec["run_seconds"], metric_names)
        except RuntimeError as exc:
            print(f"bench_record: {exc}", file=sys.stderr)
            code = 1
            continue
        append_entry(root / f"BENCH_{workload}.json", entry)
        summary = ", ".join(f"{name} {m['median']:.6g} [{m['q1']:.6g}, {m['q3']:.6g}]"
                            for name, m in entry["metrics"].items())
        print(f"{workload}: {summary}; failed {entry['failed']}/{entry['attempted']}")
    return code


if __name__ == "__main__":
    sys.exit(main())
