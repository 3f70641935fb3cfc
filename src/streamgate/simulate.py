"""Replication engine and per-time performance metrics.

Runs many independent detection campaigns on simulated ensembles and
aggregates, per time point, FNP (the fraction of retained streams that
have already changed), the realized LFNR (the mean retained posterior,
which the detector controls), FDP and LFDR over the streams dropped at
that step, the active count, cumulative utilization, the pre-change run
length and cumulative detections.

Under the i.i.d. model one detector holds a batch of replications, one
ensemble each, and advances them all with one ``observe`` and one
``deactivate`` per time step (``_replicate``); the other models run one
replication per detector.  Each replication keeps its own generator and
draw order: its change times, then one full-k draw per step before the
horizon while it has active streams.  The rows are derived once per batch
(``_rows``) by exact integer counts, so every row keeps the bits of a
replication computed on its own, and results are bit-identical for any
worker count and batch size.

Time indexing matches the one-step-ahead convention: the FNP/LFNR row at
time t is a property of the selection entering time t, i.e. of the active
set S_t and posteriors from time t-1; the time-1 row is zero by
convention.  The output CSV uses that convention in its ``t`` column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .detector import DETECTOR_KINDS, ThresholdTable, lockstep, make_detector, write_atomic
from .model import EnsembleModel

# streams one lockstep batch may hold: enough replications per detector
# step to spread its fixed cost, few enough that peak memory stays near
# that of one replication (picked from the scan of pass time and peak RSS
# at K=500 recorded in CHANGES.md)
BATCH_STREAMS = 16_000

# the metrics of a replication's rows, in the order ``_rows`` stacks them
_ROW_METRICS = ("fnp", "lfnr", "fdp", "lfdr", "active", "util", "rl", "cd")


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
        if self.k < 1:
            raise ValueError("need at least one stream")
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


# the CSV header: "t", then each mean_<metric> and se_<metric> column
CSV_COLUMNS = ",".join(f.name for f in fields(MetricsFrame) if f.name != "replications")


def _share(count: np.ndarray, total: np.ndarray) -> np.ndarray:
    """count / total as floats, 0 where total is 0."""
    return np.divide(count, total, out=np.zeros(total.shape), where=total > 0)


def _rows(horizon: int, tau: np.ndarray, t_stop: np.ndarray, lfnr: np.ndarray,
          lfdr: np.ndarray) -> np.ndarray:
    """The rows of a batch of replications (replications x time x
    ``_ROW_METRICS``) from their (replications x k) change times and stop
    times, the realized LFNR of each selection made (one column per
    selection, the start included) and the per-step LFDR.

    Every count is a bincount over all replications at once, replication e
    offset by ``e * (horizon + 1)``: integers, so every sum is exact and
    the shares are the same divisions a replication of its own makes."""
    reps, k = tau.shape
    width = horizon + 1
    offset = np.arange(0, reps * width, width)[:, None]

    def counts(times: np.ndarray, where: np.ndarray | None = None) -> np.ndarray:
        """Per replication, the number of entries of ``times`` (those
        ``where`` holds) at each time 0..horizon."""
        at = times + offset
        return np.bincount((at if where is None else at[where]).astype(int).ravel(),
                           minlength=reps * width).reshape(reps, width)

    stopped = t_stop >= 0
    stops = counts(t_stop, stopped)
    # row i holds the selection made at time i (none at 0) and the active
    # set it leaves for time i+1; a batch stops early only once every
    # stream has stopped, so past its last selection nothing is active
    active = k - np.cumsum(stops, axis=1)[:, :horizon]
    lfnr = np.pad(lfnr, ((0, 0), (0, horizon - lfnr.shape[1])))
    # stream k is retained and already changed at the selections i with
    # tau_k < i < end_k, i.e. from i = floor(tau_k) + 1
    end = np.where(stopped, t_stop, horizon)
    first = np.floor(tau) + 1
    counted = first < end
    changed_kept = np.cumsum(counts(first, counted) - counts(end, counted), axis=1)[:, :horizon]
    false_drops = counts(t_stop, stopped & (tau >= t_stop))[:, :horizon]
    # run lengths: sum_k min(m_k, s) = sum_{j <= s} #{m_k >= j}, with m_k =
    # min(tau_k, t_stop_k) the stream's pre-change observations
    m = np.minimum(np.minimum(tau, np.where(stopped, t_stop, math.inf)), horizon)
    at_least = k - np.cumsum(counts(m), axis=1)[:, :horizon]
    metrics = {"fnp": _share(changed_kept, active), "lfnr": lfnr,
               "fdp": _share(false_drops, stops[:, :horizon]), "lfdr": lfdr,
               "active": active, "util": np.cumsum(active, axis=1),
               "rl": np.cumsum(at_least, axis=1), "cd": k - active}
    return np.stack([metrics[name] for name in _ROW_METRICS], axis=-1, dtype=float)


def _replicate(config: SimConfig, seed_seqs: list) -> np.ndarray:
    """The rows of a batch of replications, one ensemble each of one detector
    run in lockstep: (replications x time x metrics).  Each step, every live
    replication draws its raw noise into one batch buffer, one transform
    over the batch's active streams gives their observations, and the rows
    are built once, at the end."""
    model, k, horizon = config.model, config.k, config.horizon
    rngs = [np.random.default_rng(ss) for ss in seed_seqs]
    tau = np.concatenate([model.sample_change_points(k, rng) for rng in rngs])
    det = make_detector(config.procedure, model, config.alpha, k, config.table, len(rngs))
    lfdr = np.zeros((len(rngs), horizon))
    noise = np.empty(k * len(rngs))
    # the selection at t enters row t+1, so the last row needs no observation
    # at the horizon
    for t in range(1, horizon):
        # each live replication draws one full-k step from its own generator;
        # an emptied one draws no more: its replication has ended
        before = det.active_counts  # a selection that drops streams replaces it
        for e, m in enumerate(before.tolist()):
            if m:
                model.draw(rngs[e], noise[e * k:(e + 1) * k])
        active = det.active
        det.observe(model.observations(t, tau[active], noise[active], active))
        w_active = det.w_active
        dropped = det.deactivate()
        if dropped.size:
            # each ensemble's mean over its own slice, the bits of its own
            # run; sum / n is the division ndarray.mean does
            gain, start = 1.0 - w_active[active.searchsorted(dropped)], 0
            for e, m in enumerate((before - det.active_counts).tolist()):
                if m:
                    lfdr[e, t] = float(gain[start:start + m].sum()) / m
                    start += m
        if not det.n_active:
            break
    lfnr = det.realized_lfnr.T  # replications x selections
    return _rows(horizon, tau.reshape(-1, k), det.t_stop.reshape(-1, k), lfnr, lfdr)


def run_experiment(config: SimConfig) -> MetricsFrame:
    """Run all replications and aggregate per-time means and standard errors."""
    reps = config.replications
    children = np.random.SeedSequence(config.seed).spawn(reps)
    size = 1
    if lockstep(config.procedure, config.model, config.k):
        # at least one batch per worker, none over the cap
        size = max(1, min(BATCH_STREAMS // config.k, -(-reps // config.threads)))
    batches = [children[i:i + size] for i in range(0, reps, size)]
    if config.threads > 1:
        from concurrent.futures import ProcessPoolExecutor

        import scipy.special  # forked workers inherit it instead of each importing it
        chunk = max(1, len(batches) // (config.threads * 8))
        with ProcessPoolExecutor(max_workers=config.threads) as pool:
            results = list(pool.map(_replicate, [config] * len(batches), batches,
                                    chunksize=chunk))
    else:
        results = [_replicate(config, batch) for batch in batches]
    stack = np.concatenate(results)  # (reps, horizon, metrics)
    mean = stack.mean(axis=0)
    if reps > 1:
        se = stack.std(axis=0, ddof=1) / math.sqrt(reps)
    else:
        se = np.full_like(mean, math.nan)
    columns = {}
    for name in CSV_COLUMNS.split(",")[1:]:
        stat, metric = name.split("_", 1)
        columns[name] = {"mean": mean, "se": se}[stat][:, _ROW_METRICS.index(metric)]
    return MetricsFrame(t=np.arange(1, config.horizon + 1), replications=reps, **columns)


def write_metrics_csv(frame: MetricsFrame, path, metadata: dict | None = None) -> None:
    """Write the per-time metrics CSV with a self-describing metadata block.

    SE columns are left empty when undefined (single replication).  Output
    bytes depend only on the frame, never on worker count.
    """
    meta = dict(metadata or {})
    meta.setdefault("replications", frame.replications)
    lines = [f"# {key}={val}" for key, val in meta.items()] + [CSV_COLUMNS]

    def fmt(x: float) -> str:
        return "" if math.isnan(x) else repr(float(x))

    columns = [getattr(frame, name) for name in CSV_COLUMNS.split(",")[1:]]
    for i, t in enumerate(frame.t):
        lines.append(",".join([str(int(t)), *(fmt(col[i]) for col in columns)]))
    write_atomic(path, "\n".join(lines) + "\n")
