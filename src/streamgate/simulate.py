"""Replication engine and per-time performance metrics.

Runs many independent detection campaigns on simulated ensembles and
aggregates, per time point,

* FNP -- fraction of retained streams that have already changed,
* realized LFNR -- mean retained posterior (what the detector controls,
  read from its selection record ``det.last``),
* FDP / LFDR -- the dual quantities over streams dropped at that step,
* active count, cumulative utilization (observations collected),
* pre-change run length and cumulative detections.

Time indexing matches the one-step-ahead convention: the FNP/LFNR row at
time t is a property of the selection entering time t, i.e. of the active
set S_t and posteriors from time t-1; the time-1 row is zero by
convention.  The output CSV uses that convention in its ``t`` column.

Replications use independent spawned RNG substreams and a fixed-order
reduction, so results are bit-identical for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
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


def fnp(active_next, tau, t: int) -> float:
    """Fraction of retained streams whose change happened strictly before t."""
    active_next = np.asarray(active_next, dtype=int)
    tau = np.asarray(tau, dtype=float)
    if active_next.size == 0:
        return 0.0
    return float(np.count_nonzero(tau[active_next] < t)) / active_next.size


def fdp_lfdr(w_prev, dropped, tau, t: int) -> tuple[float, float]:
    """False discovery proportion and local FDR over streams dropped at this step."""
    dropped = np.asarray(dropped, dtype=int)
    if dropped.size == 0:
        return 0.0, 0.0
    tau = np.asarray(tau, dtype=float)
    w_prev = np.asarray(w_prev, dtype=float)
    fdp = float(np.count_nonzero(tau[dropped] >= t)) / dropped.size
    lfdr = float((1.0 - w_prev[dropped]).mean())
    return fdp, lfdr


# per-time metric rows: fnp, lfnr, fdp, lfdr, active, util, rl, cd
_N_METRICS = 8


def _run_lengths(m: np.ndarray, times: np.ndarray) -> np.ndarray:
    """sum_k min(m_k, s) for each s in ``times``, from one sort of ``m``:
    the m_k below s, plus s for every other stream.  Every term is an
    integer, so each sum is exact in float64 whatever its order."""
    m = np.sort(m)
    below = np.searchsorted(m, times)  # count of m_k < s
    prefix = np.concatenate(([0.0], np.cumsum(m)))
    return prefix[below] + times * (m.size - below)


def _replicate(config: SimConfig, seed_seq: np.random.SeedSequence) -> np.ndarray:
    rng = np.random.default_rng(seed_seq)
    k, horizon = config.k, config.horizon
    tau = config.model.sample_change_points(k, rng)
    det = make_detector(config.procedure, config.model, config.alpha, k, config.table)
    rows = np.zeros((horizon, _N_METRICS))
    stop = tau.astype(float)  # min(stop time, tau), lowered as streams are dropped
    util = 0
    for t in range(1, horizon + 1):
        row = rows[t - 1]
        if t > 1:
            w_prev = det.w
            dropped = det.deactivate()
            if dropped.size:
                stop[dropped] = np.minimum(stop[dropped], det.t_stop[dropped])
            row[0] = fnp(det.active, tau, t - 1)
            row[1] = det.last.lfnr
            row[2], row[3] = fdp_lfdr(w_prev, dropped, tau, t - 1)
        active_t = det.n_active
        util += active_t
        row[4] = active_t
        row[5] = util
        row[6] = np.minimum(stop, t).sum()
        row[7] = k - active_t
        if active_t == 0:
            # nothing left to observe: remaining rows are deterministic
            rows[t:, 5] = util
            rows[t:, 6] = _run_lengths(stop, np.arange(t + 1.0, horizon + 1))
            rows[t:, 7] = k
            break
        x = config.model.sample_step(t, tau, rng)
        det.observe(x[det.active])
    return rows


def _replicate_packed(args) -> np.ndarray:
    return _replicate(*args)


def run_experiment(config: SimConfig) -> MetricsFrame:
    """Run all replications and aggregate per-time means and standard errors."""
    reps = config.replications
    children = np.random.SeedSequence(config.seed).spawn(reps)
    jobs = [(config, ss) for ss in children]
    if config.threads > 1:
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

    for i in range(len(frame.t)):
        lines.append(",".join([
            str(int(frame.t[i])),
            fmt(frame.mean_fnp[i]), fmt(frame.se_fnp[i]),
            fmt(frame.mean_lfnr[i]), fmt(frame.se_lfnr[i]),
            fmt(frame.mean_active[i]), fmt(frame.mean_util[i]),
            fmt(frame.mean_fdp[i]), fmt(frame.mean_lfdr[i]),
            fmt(frame.mean_rl[i]), fmt(frame.mean_cd[i]),
        ]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
