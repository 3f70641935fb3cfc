"""Monte Carlo calibration of the non-adaptive deactivation thresholds.

As the ensemble grows, the adaptive procedure's per-time cutoff (the
largest retained posterior) converges to a deterministic sequence; a
detector can then simply keep streams whose posterior is at or below the
precomputed threshold.  No closed form exists for the thresholds, so they
are estimated by running the production adaptive detector on a large
simulated homogeneous ensemble and reading, for each step, from its
decision trace (:meth:`~streamgate.detector.AdaptiveDetector.trace`)

* ``cutoff``, the largest retained posterior (the plug-in threshold
  estimate: 1.0 at steps where nothing was deactivated, 0.0 at the step
  that retains nothing, and 1.0 again at every step after it),
* ``active_size`` as the surviving fraction of streams, and
* ``realized_lfnr``, the mean retained posterior (the realized LFNR).

In this large-ensemble limit the realized LFNR has a closed form: below a
critical time ``log(1-alpha)/log(1-theta)`` no deactivation is needed and
the LFNR is just the prior change probability ``1-(1-theta)^t``; beyond
it the procedure pins the LFNR at ``alpha``.  :func:`lfnr_limit` and
:func:`critical_time` expose those reference quantities.
"""

from __future__ import annotations

import math

import numpy as np

from .detector import AdaptiveDetector, ThresholdTable, write_atomic
from .model import GeometricPrior, IIDModel

CSV_HEADER = "t,lambda,survival_frac,retained_mean"


def critical_time(theta: float, alpha: float) -> float:
    """Time before which the mean posterior stays under alpha with no deactivation."""
    if not (0.0 < theta < 1.0):
        raise ValueError(f"theta must lie in (0, 1), got {theta!r}")
    if not (0.0 <= alpha < 1.0):
        raise ValueError(f"alpha must lie in [0, 1), got {alpha!r}")
    return math.log1p(-alpha) / math.log1p(-theta)


def lfnr_limit(theta: float, alpha: float, t: int) -> float:
    """Large-ensemble realized LFNR of the adaptive procedure at time t."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if t < critical_time(theta, alpha):
        return 1.0 - (1.0 - theta) ** t
    return alpha


def calibrate_thresholds(theta: float, obs_model, alpha: float, n_streams: int,
                         horizon: int, seed: int) -> ThresholdTable:
    """Estimate per-time thresholds by driving the adaptive detector.

    Runs the production detector (no separate code path) on ``n_streams``
    simulated homogeneous streams for ``horizon`` steps.  Deterministic
    given the seed.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if n_streams < 1:
        raise ValueError("n_streams must be >= 1")
    model = IIDModel(GeometricPrior(theta), obs_model)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    tau = model.sample_change_points(n_streams, rng)
    det = AdaptiveDetector(model, alpha, n_streams)
    noise = np.empty(n_streams)
    for t in range(1, horizon + 1):
        # every stream draws, in order; only the active ones are transformed
        model.draw(rng, noise)
        active = det.active
        det.observe(model.observations(t, tau[active], noise[active], active))
        det.deactivate()
    trace = det.trace()  # entry 0 is the start, before any selection
    return ThresholdTable(
        thresholds=trace.cutoff[1:], theta=theta, alpha=alpha,
        n_streams=n_streams, seed=seed, model_fingerprint=model.fingerprint(),
        survival_frac=trace.active_size[1:] / n_streams,
        retained_mean=trace.realized_lfnr[1:])


def write_threshold_table(table: ThresholdTable, path) -> None:
    """Persist a threshold table as CSV with a self-describing metadata block."""
    lines = [
        f"# theta={table.theta!r} alpha={table.alpha!r} n={table.n_streams} "
        f"seed={table.seed}",
        f"# model={table.model_fingerprint}",
        CSV_HEADER,
    ]
    for i in range(table.horizon):
        surv = "" if table.survival_frac is None else repr(float(table.survival_frac[i]))
        rmean = "" if table.retained_mean is None else repr(float(table.retained_mean[i]))
        lines.append(f"{i + 1},{float(table.thresholds[i])!r},{surv},{rmean}")
    write_atomic(path, "\n".join(lines) + "\n")


def read_threshold_table(path) -> ThresholdTable:
    """Read a table written by :func:`write_threshold_table`.

    A malformed file raises ValueError naming the file, and the row for a
    bad row: missing or bad ``theta``/``alpha``/``n``/``seed``/``model``
    metadata, a row without exactly four cells, a cell that is not a
    number, or a ``t`` column other than 1..n in order.  The survival and
    retained-mean cells may be empty, in every row or in none.
    """
    meta: dict[str, str] = {}
    rows = []
    with open(path) as fh:
        for row_no, ln in enumerate(fh, start=1):
            ln = ln.rstrip("\n")
            if ln.startswith("#"):
                meta.update(tok.split("=", 1) for tok in ln[1:].split() if "=" in tok)
            elif ln and ln != CSV_HEADER:
                cells = ln.split(",")
                try:
                    if len(cells) != 4:
                        raise ValueError(f"expected 4 cells ({CSV_HEADER}), got {len(cells)}")
                    if int(cells[0]) != len(rows) + 1:
                        raise ValueError(f"expected t={len(rows) + 1}, got t={cells[0]}")
                    blank = cells[2] == cells[3] == ""
                    if rows and blank != (rows[0][1] is None):
                        raise ValueError("survival_frac and retained_mean must be "
                                         "given in every row or in none")
                    rows.append((float(cells[1]), *((None, None) if blank
                                                    else map(float, cells[2:]))))
                except ValueError as exc:
                    raise ValueError(f"{path} row {row_no}: {exc}") from None
    if not rows:
        raise ValueError(f"no threshold rows found in {path}")
    lam, surv, rmean = zip(*rows)
    try:
        return ThresholdTable(
            thresholds=np.array(lam), theta=float(meta["theta"]),
            alpha=float(meta["alpha"]), n_streams=int(meta["n"]), seed=int(meta["seed"]),
            model_fingerprint=meta["model"],
            survival_frac=None if surv[0] is None else np.array(surv),
            retained_mean=None if rmean[0] is None else np.array(rmean))
    except KeyError as exc:
        raise ValueError(f"{path}: metadata {exc} is missing") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
