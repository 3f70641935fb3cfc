"""Golden bits: posteriors, checkpoints and decision traces of small fixed runs.

Five small seeded runs -- IID adaptive, IID threshold, tabular
(``conflicting_priors_model``), partially dependent (eta=0.5) and jointly
dependent (eta=1) -- are reduced, at every step, to the sha256 of
``det.w.tobytes()`` and of ``checkpoint_state(det)``, once after the
observation and once after the selection.  The final decision trace is
stored whole.  The fixture pins exact bits: a change to the posterior
arithmetic, the selection rule or the checkpoint encoding shows here.

Under ``outputs`` it also pins the sha256 of whole output files: a
calibrated threshold table, a ``simulate`` metrics CSV (the same bytes at
``--threads`` 1 and 3), one ``run_experiment`` metrics CSV for each other
procedure and model (threshold, dependent, tabular, partially dependent
and Bernoulli IID), and the ``--out``, ``--report`` and checkpoint files
of a ``detect`` run that drops streams.

Regenerate the fixture only when a change of bits is intended:
``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json
import pathlib
import tempfile

import numpy as np
import pytest

from streamgate.calibrate import calibrate_thresholds, write_threshold_table
from streamgate.cli import main
from streamgate.detector import (AdaptiveDetector, DependentDetector,
                                 ThresholdDetector, checkpoint_state)
from streamgate.model import (BernoulliPair, GaussianShift, GeometricPrior,
                              IIDModel, PartialDepModel, conflicting_priors_model)
from streamgate.simulate import SimConfig, run_experiment, write_metrics_csv

FIXTURE = pathlib.Path(__file__).parent / "data" / "golden_bits.json"


def _case(name):
    iid = IIDModel(GeometricPrior(0.05), GaussianShift(1.0))
    if name == "iid_adaptive":
        return iid, AdaptiveDetector(iid, 0.1, 40), 20, 1
    if name == "iid_threshold":
        table = calibrate_thresholds(0.05, GaussianShift(1.0), 0.1, 1000, 20, seed=7)
        return iid, ThresholdDetector(iid, 0.1, 40, table), 20, 2
    if name == "tabular":
        model = conflicting_priors_model()
        return model, AdaptiveDetector(model, 0.34, 4), 12, 3
    if name == "partial":
        model = PartialDepModel(GeometricPrior(0.15), 0.5, GaussianShift(1.5))
        return model, AdaptiveDetector(model, 0.2, 30), 20, 6
    model = PartialDepModel(GeometricPrior(0.1), 1.0, GaussianShift(1.0))
    return model, DependentDetector(model, 0.3, 10), 20, 5


CASES = ["iid_adaptive", "iid_threshold", "tabular", "partial", "dependent"]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _record(name) -> dict:
    model, det, horizon, seed = _case(name)
    rng = np.random.default_rng(seed)
    tau = model.sample_change_points(det.k, rng)
    steps = []
    for t in range(1, horizon + 1):
        det.observe(model.sample_step(t, tau, rng)[det.active])
        observed = [_sha(det.w.tobytes()), _sha(checkpoint_state(det).encode())]
        det.deactivate()
        steps.append(observed + [_sha(det.w.tobytes()),
                                 _sha(checkpoint_state(det).encode())])
    trace = det.trace()
    return {
        "steps": steps,
        "t_stop": trace.t_stop.tolist(),
        "active_size": trace.active_size.tolist(),
        "realized_lfnr": [float(v).hex() for v in trace.realized_lfnr],
    }


def _simulations(table) -> dict:
    """The ``run_experiment`` configurations pinned besides the CLI's IID one."""
    iid = IIDModel(GeometricPrior(0.05), GaussianShift(1.0))
    partial = PartialDepModel(GeometricPrior(0.15), 0.5, GaussianShift(1.5))
    joint = PartialDepModel(GeometricPrior(0.1), 1.0, GaussianShift(1.0))
    bernoulli = IIDModel(GeometricPrior(0.1), BernoulliPair(0.2, 0.8))
    return {
        "threshold": SimConfig(iid, 30, 0.1, 15, 10, "threshold", seed=8, table=table),
        "dependent": SimConfig(joint, 10, 0.3, 20, 10, "dependent", seed=9),
        "tabular": SimConfig(conflicting_priors_model(), 4, 0.34, 12, 40, seed=10),
        "partial": SimConfig(partial, 30, 0.2, 20, 5, seed=11),
        "bernoulli": SimConfig(bernoulli, 30, 0.1, 25, 10, seed=12),
    }


def _outputs() -> dict:
    """sha256 of each output file of small calibrate, simulate and detect runs."""
    iid = ["--model", "iid", "--theta", "0.05", "--mu", "1.0"]
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp)
        table = calibrate_thresholds(0.05, GaussianShift(1.0), 0.1, 1000, 15, seed=3)
        write_threshold_table(table, out / "table.csv")
        sims = _simulations(table)
        for name, config in sims.items():
            write_metrics_csv(run_experiment(config), out / f"sim_{name}.csv")
        for threads in ("1", "3"):
            assert main(["simulate", *iid, "--k", "30", "--alpha", "0.05",
                         "--horizon", "25", "--reps", "12", "--seed", "4",
                         "--threads", threads, "--out", str(out / f"sim{threads}.csv")]) == 0
        model, det, horizon, seed = _case("iid_adaptive")
        rng = np.random.default_rng(seed)
        tau = model.sample_change_points(det.k, rng)
        lines = ["t," + ",".join(str(2 * i + 1) for i in range(det.k))]
        lines += [f"{t}," + ",".join(map(repr, model.sample_step(t, tau, rng).tolist()))
                  for t in range(1, horizon + 1)]
        (out / "obs.csv").write_text("\n".join(lines) + "\n")
        assert main(["detect", *iid, "--alpha", "0.1", "--input", str(out / "obs.csv"),
                     "--out", str(out / "stops.csv"), "--report", str(out / "report.csv"),
                     "--checkpoint", str(out / "ck.json")]) == 0
        return {name: _sha((out / name).read_bytes())
                for name in ("table.csv", "sim1.csv", "sim3.csv", "stops.csv",
                             "report.csv", "ck.json", *(f"sim_{n}.csv" for n in sims))}


@pytest.mark.parametrize("name", CASES)
def test_golden_bits(name):
    want = json.loads(FIXTURE.read_text())[name]
    got = _record(name)
    # the runs must exercise deactivation, or the selection bits go unchecked
    assert min(want["active_size"]) < want["active_size"][0]
    for t, (g, w) in enumerate(zip(got["steps"], want["steps"]), start=1):
        assert g == w, f"{name}: bits differ at t={t} (w, checkpoint; observe, select)"
    assert got == want


def test_golden_output_files(capsys):
    want = json.loads(FIXTURE.read_text())["outputs"]
    got = _outputs()
    assert got["sim1.csv"] == got["sim3.csv"]
    assert got == want


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps({**{name: _record(name) for name in CASES},
                                   "outputs": _outputs()},
                                  indent=1, sort_keys=True) + "\n")
