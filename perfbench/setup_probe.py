"""Time one set-up of a workload in a fresh interpreter; ``run.py`` starts it.

    python3 perfbench/setup_probe.py WORKLOAD K

Set-up is importing streamgate plus building the model and the detector
(or, for the CLI, its argument parser and parsed arguments; for the
simulations, the run configuration).  Nothing is imported before the
clock starts but ``sys`` and ``time``, so numpy's and scipy's import time
count, as they do for a user.  Prints the seconds.
"""

import sys
import time


def main() -> int:
    workload, k = sys.argv[1], int(sys.argv[2])
    t0 = time.perf_counter()
    if workload == "detect-cli":
        import streamgate.cli
        streamgate.cli.build_parser().parse_args(
            ["detect", "--input", "in.csv", "--out", "out.csv", "--alpha", "0.05",
             "--theta", "0.01", "--mu", "1.0"])
    else:
        import streamgate as sg
        if workload == "monitor-large-k":
            model = sg.IIDModel(sg.GeometricPrior(0.01), sg.GaussianShift(1.0))
            sg.AdaptiveDetector(model, 0.05, k)
        elif workload == "replication-small-k":
            model = sg.IIDModel(sg.GeometricPrior(0.05), sg.GaussianShift(1.0))
            sg.SimConfig(model=model, k=k, alpha=0.05, horizon=200, replications=200)
        elif workload == "partial-dep":
            model = sg.PartialDepModel(sg.GeometricPrior(0.02), 0.5, sg.GaussianShift(1.5))
            sg.SimConfig(model=model, k=k, alpha=0.05, horizon=100, replications=2)
        else:
            raise SystemExit(f"unknown workload {workload!r}")
    print(repr(time.perf_counter() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
