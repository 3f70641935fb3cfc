"""Replication engine and per-time performance metrics.

Runs many independent detection campaigns on simulated ensembles and
aggregates, per time point,

* FNP -- fraction of retained streams that have already changed,
* realized LFNR -- mean retained posterior (what the detector controls),
* FDP / LFDR -- the dual quantities over streams dropped at that step,
* active count, cumulative utilization (observations collected),
* pre-change run length and cumulative detections.

Replications run in lockstep batches: one detector holds a batch of
independent ensembles, one per replication (``_replicate``), and advances
them all with one ``observe`` and one ``deactivate`` per time step.  A
batch holds at most ``BATCH_STREAMS`` streams, and at most its share of
the replications when several workers run; the process pool maps
batches.  Only a posterior backend that treats streams on their own runs
in lockstep (``detector.lockstep``: the i.i.d. model); the tabular and
the partially or fully dependent models run one replication per detector.
Each replication keeps its own generator and draw order: its change
times, then one full-k draw per step while it has active streams.  An
emptied replication draws no more, and its rows stay zero to the horizon.

The loop records one number of its own, each replication's dropped
streams' mean ``1 - w`` for the LFDR, read from that step's posteriors.
Every other row is derived once per replication from its change times
and decision trace (``det.traces()``): the active counts, the realized
LFNR and the stop times.

Time indexing matches the one-step-ahead convention: the FNP/LFNR row at
time t is a property of the selection entering time t, i.e. of the active
set S_t and posteriors from time t-1; the time-1 row is zero by
convention.  The output CSV uses that convention in its ``t`` column.

Replications use independent spawned RNG substreams, every ensemble of a
batch gives the bits of a detector of its own, and the reduction runs in
a fixed order, so results are bit-identical for any worker count and
batch size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detector import DETECTOR_KINDS, DecisionTrace, ThresholdTable, lockstep, make_detector
from .model import EnsembleModel

# streams one lockstep batch may hold: enough replications per detector
# step to spread its fixed cost, few enough that peak memory stays near
# that of one replication (picked from the scan of pass time and peak RSS
# at K=500 recorded in CHANGES.md)
BATCH_STREAMS = 16_000

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


def _rows(horizon: int, tau: np.ndarray, trace: DecisionTrace, lfdr: np.ndarray) -> np.ndarray:
    """One replication's rows (time x fnp, lfnr, fdp, lfdr, active, util, rl,
    cd) from its change times, decision trace and per-step LFDR."""
    k = trace.n_streams
    # row i holds the selection made at time i (none at 0) and the active
    # set it leaves for time i+1; past the trace's end nothing is active
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


def _replicate(config: SimConfig, seed_seqs: list) -> np.ndarray:
    """The rows of a batch of replications, one ensemble each of one detector
    run in lockstep: (replications x time x metrics)."""
    model, k, horizon = config.model, config.k, config.horizon
    rngs = [np.random.default_rng(ss) for ss in seed_seqs]
    taus = [model.sample_change_points(k, rng) for rng in rngs]
    det = make_detector(config.procedure, model, config.alpha, k, config.table, len(rngs))
    lfdr = np.zeros((len(rngs), horizon))
    x = np.empty(k * len(rngs))
    for t in range(1, horizon + 1):
        if t > 1:
            before = det.active_counts  # a selection that drops streams replaces it
            dropped = det.deactivate()
            if dropped.size:
                # each ensemble's mean over its own slice, the bits of its own
                # run; sum / n is the division ndarray.mean does
                gain, start = 1.0 - det.w[dropped], 0
                for e, m in enumerate((before - det.active_counts).tolist()):
                    if m:
                        lfdr[e, t - 1] = float(gain[start:start + m].sum()) / m
                        start += m
            if not det.n_active:
                break
        # an emptied ensemble draws no more: its replication has ended
        for e, m in enumerate(det.active_counts.tolist()):
            if m:
                x[e * k:(e + 1) * k] = model.sample_step(t, taus[e], rngs[e])
        det.observe(x[det.active])
    return np.stack([_rows(horizon, tau, trace, row)
                     for tau, trace, row in zip(taus, det.traces(), lfdr)])


def _replicate_packed(args) -> np.ndarray:
    return _replicate(*args)


def run_experiment(config: SimConfig) -> MetricsFrame:
    """Run all replications and aggregate per-time means and standard errors."""
    reps = config.replications
    children = np.random.SeedSequence(config.seed).spawn(reps)
    size = 1
    if lockstep(config.procedure, config.model, config.k):
        # at least one batch per worker, none over the cap
        size = max(1, min(BATCH_STREAMS // config.k, -(-reps // config.threads)))
    jobs = [(config, children[i:i + size]) for i in range(0, reps, size)]
    if config.threads > 1:
        from concurrent.futures import ProcessPoolExecutor

        import scipy.special  # forked workers inherit it instead of each importing it
        chunk = max(1, len(jobs) // (config.threads * 8))
        with ProcessPoolExecutor(max_workers=config.threads) as pool:
            results = list(pool.map(_replicate_packed, jobs, chunksize=chunk))
    else:
        results = [_replicate(*job) for job in jobs]
    stack = np.concatenate(results)  # (reps, horizon, metrics)
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
