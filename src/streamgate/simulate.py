"""Replication engine and per-time performance metrics.

Runs many independent detection campaigns on simulated ensembles and
aggregates, per time point,

* FNP -- fraction of retained streams that have already changed,
* realized LFNR -- mean retained posterior (what the detector controls),
* FDP / LFDR -- the dual quantities over streams dropped at that step,
* active count, cumulative utilization (observations collected),
* pre-change run length and cumulative detections.

Each replication runs only the detector loop: deactivate, observe, and
stop once nothing is active.  The loop records one number of its own,
the dropped streams' mean ``1 - w`` for the LFDR, read from that step's
posteriors.  Every other row is derived once per replication from the
change times and the decision trace ``det.trace()``: the active counts,
the realized LFNR and the stop times.

Time indexing matches the one-step-ahead convention: the FNP/LFNR row at
time t is a property of the selection entering time t, i.e. of the active
set S_t and posteriors from time t-1; the time-1 row is zero by
convention.  The output CSV uses that convention in its ``t`` column.

Replications use independent spawned RNG substreams and a fixed-order
reduction, so results are bit-identical for any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detector import DETECTOR_KINDS, ThresholdTable, make_detector
from .model import EnsembleModel

CSV_COLUMNS = ("t,mean_fnp,se_fnp,mean_lfnr,se_lfnr,mean_active,mean_util,"
               "mean_fdp,mean_lfdr,mean_rl,mean_cd")


@dataclass(frozen=True)
class SimConfig:
    model: EnsembleModel
    k: int
    alpha: float
    horizon: int
    replications: int
    procedure: str = "adaptive"
    seed: int = 0
    table: ThresholdTable | None = None
    threads: int = 1

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if self.procedure not in DETECTOR_KINDS:
            raise ValueError(f"unknown procedure {self.procedure!r}")
        if self.procedure == "threshold" and self.table is None:
            raise ValueError("threshold procedure needs a calibrated table")


@dataclass
class MetricsFrame:
    """Per-time averages over replications (arrays indexed by t-1, t=1..horizon)."""

    t: np.ndarray
    mean_fnp: np.ndarray
    se_fnp: np.ndarray
    mean_lfnr: np.ndarray
    se_lfnr: np.ndarray
    mean_active: np.ndarray
    mean_util: np.ndarray
    mean_fdp: np.ndarray
    mean_lfdr: np.ndarray
    mean_rl: np.ndarray
    mean_cd: np.ndarray
    replications: int


def _run_lengths(m: np.ndarray, times: np.ndarray) -> np.ndarray:
    """sum_k min(m_k, s) for each s in ``times``, from one sort of ``m``:
    the m_k below s, plus s for every other stream.  Every term is an
    integer, so each sum is exact in float64 whatever its order."""
    m = np.sort(m)
    below = np.searchsorted(m, times)  # count of m_k < s
    prefix = np.concatenate(([0.0], np.cumsum(m)))
    return prefix[below] + times * (m.size - below)


def _share(count: np.ndarray, total: np.ndarray) -> np.ndarray:
    """count / total as floats, 0 where total is 0."""
    return np.divide(count, total, out=np.zeros(len(total)), where=total > 0)


def _replicate(config: SimConfig, seed_seq: np.random.SeedSequence) -> np.ndarray:
    """One replication's rows (time x fnp, lfnr, fdp, lfdr, active, util, rl, cd)."""
    rng = np.random.default_rng(seed_seq)
    k, horizon = config.k, config.horizon
    tau = config.model.sample_change_points(k, rng)
    det = make_detector(config.procedure, config.model, config.alpha, k, config.table)
    lfdr = np.zeros(horizon)
    for t in range(1, horizon + 1):
        if t > 1:
            dropped = det.deactivate()
            if dropped.size:
                lfdr[t - 1] = (1.0 - det.w[dropped]).mean()
            if not det.n_active:
                break
        x = config.model.sample_step(t, tau, rng)
        det.observe(x[det.active])
    # row i holds the selection made at time i (none at 0) and the active
    # set it leaves for time i+1; past the trace's end nothing is active
    trace = det.trace()
    n_rows = len(trace.active_size)
    active = np.zeros(horizon, dtype=int)
    active[:n_rows] = trace.active_size
    lfnr = np.zeros(horizon)
    lfnr[:n_rows] = trace.realized_lfnr
    t_stop = trace.t_stop
    stopped = t_stop >= 0
    # stream k is retained and already changed at the selections i with
    # tau_k < i < end_k, i.e. from i = floor(tau_k) + 1
    end = np.where(stopped, t_stop, horizon)
    first = np.floor(tau) + 1
    counted = first < end
    changed_kept = np.cumsum(np.bincount(first[counted].astype(int), minlength=horizon + 1)
                             - np.bincount(end[counted], minlength=horizon + 1))[:horizon]
    drops = np.bincount(t_stop[stopped], minlength=horizon)
    false_drops = np.bincount(t_stop[stopped & (tau >= t_stop)], minlength=horizon)
    stop = np.minimum(tau, np.where(stopped, t_stop, math.inf))
    return np.column_stack([
        _share(changed_kept, active), lfnr, _share(false_drops, drops), lfdr,
        active, np.cumsum(active), _run_lengths(stop, np.arange(1.0, horizon + 1)),
        k - active])


def _replicate_packed(args) -> np.ndarray:
    return _replicate(*args)


def run_experiment(config: SimConfig) -> MetricsFrame:
    """Run all replications and aggregate per-time means and standard errors."""
    reps = config.replications
    children = np.random.SeedSequence(config.seed).spawn(reps)
    jobs = [(config, ss) for ss in children]
    if config.threads > 1:
        from concurrent.futures import ProcessPoolExecutor

        import scipy.special  # forked workers inherit it instead of each importing it
        chunk = max(1, reps // (config.threads * 8))
        with ProcessPoolExecutor(max_workers=config.threads) as pool:
            results = list(pool.map(_replicate_packed, jobs, chunksize=chunk))
    else:
        results = [_replicate(*job) for job in jobs]
    stack = np.stack(results)  # (reps, horizon, metrics)
    mean = stack.mean(axis=0)
    if reps > 1:
        se = stack.std(axis=0, ddof=1) / math.sqrt(reps)
    else:
        se = np.full_like(mean, math.nan)
    return MetricsFrame(
        t=np.arange(1, config.horizon + 1),
        mean_fnp=mean[:, 0], se_fnp=se[:, 0],
        mean_lfnr=mean[:, 1], se_lfnr=se[:, 1],
        mean_fdp=mean[:, 2],
        mean_lfdr=mean[:, 3],
        mean_active=mean[:, 4],
        mean_util=mean[:, 5],
        mean_rl=mean[:, 6],
        mean_cd=mean[:, 7],
        replications=reps,
    )


def write_metrics_csv(frame: MetricsFrame, path, metadata: dict | None = None) -> None:
    """Write the per-time metrics CSV with a self-describing metadata block.

    SE columns are left empty when undefined (single replication).  Output
    bytes depend only on the frame, never on worker count.
    """
    lines = []
    meta = dict(metadata or {})
    meta.setdefault("replications", frame.replications)
    for key, val in meta.items():
        lines.append(f"# {key}={val}")
    lines.append(CSV_COLUMNS)

    def fmt(x: float) -> str:
        return "" if math.isnan(x) else repr(float(x))

    columns = [getattr(frame, name) for name in CSV_COLUMNS.split(",")[1:]]
    for i, t in enumerate(frame.t):
        lines.append(",".join([str(int(t)), *(fmt(col[i]) for col in columns)]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
