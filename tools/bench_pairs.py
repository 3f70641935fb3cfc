"""Compare two checkouts on the benchmark in alternating pairs of runs.

    python3 tools/bench_pairs.py --parent CHECKOUT [--change CHECKOUT]
        --workloads NAME [NAME ...] --seeds N [N ...] [--seconds S] [--out FILE]

For each workload, each seed makes one pair: ``perfbench/run.py --workload
NAME --seed N --seconds S --trace 0`` runs once in the parent checkout and
once in the change checkout (default: this repository), the parent first in
even pairs and the change first in odd ones, so that a drift of the
machine's speed falls on both sides.  ``S`` defaults to the benchmark's own
``run_seconds``.  Each checkout's ``src/streamgate/__pycache__`` is removed
before the first run (``bench_record.clear_bytecode``).

Per workload and end-to-end metric of ``BENCHMARK.json`` it prints each
pair's change/parent ratio, in how many pairs the change is better (a tie
counts for neither side), both medians and the parent's interquartile
range; then the verdict of the pairs rule: a gain only over 10 pairs or
more, when the change is better in at least 9/10 of them and its median is
better than the parent's by more than that range (fewer pairs are noted,
and claim nothing).  Two identical checkouts can read a few percent apart
by the side alone, so neither one pair nor a median alone decides.  Then
it prints whether each pair's result digests are equal and the failed and
attempted operation counts of each side.  ``--out`` also writes every
run's result line as JSON.  Exit code: 0 when every run printed a result,
1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from bench_record import REPO, clear_bytecode, run_once, summarize


def run_pairs(roots: dict, workload: str, seeds: list[int], seconds: int) -> list[dict]:
    """One {side: (result, detail)} per seed, the sides in alternating order."""
    pairs = []
    for i, seed in enumerate(seeds):
        order = list(roots) if i % 2 == 0 else list(roots)[::-1]
        pairs.append({side: run_once(roots[side], workload, seed, seconds) for side in order})
        print(f"  {workload} seed {seed}: done", file=sys.stderr, flush=True)
    return pairs


def report(workload: str, pairs: list[dict], metrics: list[dict]) -> None:
    print(f"{workload}: {len(pairs)} pairs")
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {side: [pair[side][0]["metrics"][name]["value"] for pair in pairs]
                  for side in ("parent", "change")}
        ratios = [c / p for p, c in zip(values["parent"], values["change"])]
        wins = sum((r > 1.0) if higher else (r < 1.0) for r in ratios)
        parent, change = summarize(values["parent"]), summarize(values["change"])
        iqr = parent["q3"] - parent["q1"]
        gap = (change["median"] - parent["median"]) * (1 if higher else -1)
        most = 10 * wins >= 9 * len(ratios)
        verdict = "a gain" if most and gap > iqr and len(ratios) >= 10 else "no gain"
        print(f"  {name}: ratios {' '.join(f'{r:.3f}' for r in ratios)}; "
              f"change better in {wins}/{len(ratios)}; median parent {parent['median']:.6g} "
              f"change {change['median']:.6g}; parent IQR {iqr:.4g}")
        print(f"    pairs rule: better in at least 9/10 of the pairs: {most}; median "
              f"better by more than the parent's IQR: {gap > iqr}; {verdict}"
              + ("" if len(ratios) >= 10 else f" (only {len(ratios)} pairs ran; "
                 "the rule needs 10)"))
    same = [pair["parent"][1]["digest"] == pair["change"][1]["digest"] for pair in pairs]
    failed = {side: (sum(pair[side][0]["failed"] for pair in pairs),
                     sum(pair[side][0]["attempted"] for pair in pairs))
              for side in ("parent", "change")}
    print(f"  digests equal in {sum(same)}/{len(same)} pairs; failed parent "
          f"{failed['parent'][0]}/{failed['parent'][1]}, change "
          f"{failed['change'][0]}/{failed['change'][1]}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="the parent's checkout")
    ap.add_argument("--change", type=Path, default=REPO,
                    help="the change's checkout (default: this repository)")
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int, help="default: the benchmark's run_seconds")
    ap.add_argument("--out", type=Path, help="write every run's result line here as JSON")
    args = ap.parse_args()
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    for root in roots.values():
        clear_bytecode(root)
    code, runs = 0, {}
    for workload in args.workloads:
        try:
            pairs = run_pairs(roots, workload, args.seeds, seconds)
        except RuntimeError as exc:
            print(f"bench_pairs: {exc}", file=sys.stderr)
            code = 1
            continue
        report(workload, pairs, spec["end_to_end"])
        runs[workload] = [{side: {"seed": seed, **pair[side][0],
                                  "digest": pair[side][1]["digest"]} for side in pair}
                          for seed, pair in zip(args.seeds, pairs)]
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
