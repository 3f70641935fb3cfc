"""Deactivation procedures for parallel stream monitoring.

A detector watches K streams, and at each time step decides which streams
stay active; deactivation is permanent.  The selection rules all control
the local false non-discovery rate (LFNR): the posterior-expected fraction
of already-changed streams among those kept active.

* :func:`one_step_rule` -- the core selection: the largest set whose mean
  posterior is at most ``alpha``.  Sorted prefix means never decrease, so
  it is a cutoff rule: keep posteriors below lambda_t, the N*-th smallest
  one, and the smallest-index ties at lambda_t.
* :class:`AdaptiveDetector` -- applies the one-step rule every period on
  the current posteriors (the procedure whose stream utilization is
  maximal among all LFNR-controlling procedures under the homogeneous
  model).
* :class:`ThresholdDetector` -- the large-ensemble limit: the same cutoff
  rule with lambda_t read from a precomputed per-time table.
* :class:`DependentDetector` -- all streams share one change time; the
  ensemble is deactivated jointly once the aggregated posterior exceeds
  ``alpha``.

Detectors alternate ``observe(x)`` (ingest one observation per active
stream, advancing the posteriors) and ``deactivate()`` (the
F_t-measurable selection of the next active set).  ``step(x)`` wraps the
pair for full-row feeds, discarding columns of streams that were just
dropped.  A detector can be checkpointed to a text blob and restored
bit-exactly; resuming mid-run reproduces the uninterrupted decision trace.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .model import (EnsembleModel, IIDModel, PartialDepModel, TabularModel)
from .posterior import (DependentPosteriorState, PartialDepPosterior,
                        PosteriorState, TabularPosteriorState,
                        update_dependent, update_posterior, update_tabular)

CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """Corrupted, truncated, or incompatible checkpoint blob."""


class TableExhaustedError(LookupError):
    """Threshold table does not cover the requested time."""


def _largest_feasible_prefix(sorted_w: np.ndarray, alpha: float) -> int:
    """Largest n with math.fsum(sorted_w[:n]) <= alpha * n (equality retains).

    A vectorized cumulative sum settles every n outside its rounding window.
    The undecided n between the last certain fit and the first certain
    failure are tested longest first on exact integer prefix sums, since
    the rounded test is not monotone within an ulp of the budget.
    """
    counts = np.arange(1.0, len(sorted_w) + 1)
    sums = np.cumsum(sorted_w)
    budget = alpha * counts
    window = (counts + 2.0) * np.finfo(float).eps * np.maximum(sums, budget)
    fits = np.flatnonzero(sums - budget < -window)
    fails = np.flatnonzero(sums - budget > window)
    lo = int(fits[-1]) + 1 if fits.size else 0
    hi = int(fails[0]) if fails.size else len(sorted_w)
    if hi <= lo:
        return lo
    # each w is an integer multiple of 2**-1074; int / int rounds correctly
    units = [num << (1075 - den.bit_length())
             for num, den in map(float.as_integer_ratio, sorted_w[:hi].tolist())]
    exact = sum(units)
    for n in range(hi, lo, -1):
        if exact / (1 << 1074) <= alpha * n:
            return n
        exact -= units[n - 1]
    return lo


def one_step_rule(w, alpha: float, indices=None) -> np.ndarray:
    """Largest retained index set whose mean posterior is <= alpha.

    A cutoff rule: with lambda the N*-th smallest posterior (N* the longest
    feasible sorted prefix), keep every w < lambda plus the smallest-index
    entries equal to lambda, N* in all.  Returns indices in index order.
    """
    w = np.asarray(w, dtype=float)
    if indices is not None:
        indices = np.asarray(indices, dtype=int)
        if w.shape != indices.shape:
            raise ValueError("w and indices must align")
    sorted_w = np.sort(w)  # NaN sorts last, so the two ends check every entry
    if w.size and not (sorted_w[0] >= 0.0 and sorted_w[-1] <= 1.0):
        raise ValueError("posterior probabilities must lie in [0, 1]")
    n = _largest_feasible_prefix(sorted_w, alpha)
    keep = np.zeros(w.size, dtype=bool)
    if n:
        lam = sorted_w[n - 1]
        keep = w < lam
        tied = np.flatnonzero(w == lam)
        if indices is not None:
            tied = tied[np.argsort(indices[tied], kind="stable")]
        keep[tied[:n - np.searchsorted(sorted_w, lam)]] = True
    return np.flatnonzero(keep) if indices is None else np.sort(indices[keep])


@dataclass(frozen=True)
class ThresholdTable:
    """Per-time posterior cutoffs for the non-adaptive procedure.

    ``thresholds[i]`` applies to the selection made at time i+1 (the
    implicit time-0 threshold is 1: everything starts active).  Tables
    remember the configuration that generated them so a detector can
    refuse a mismatched table.
    """

    thresholds: np.ndarray
    theta: float
    alpha: float
    n_streams: int
    seed: int
    model_fingerprint: str
    survival_frac: np.ndarray | None = None
    retained_mean: np.ndarray | None = None

    def __post_init__(self) -> None:
        lam = np.asarray(self.thresholds, dtype=float)
        if lam.ndim != 1 or lam.size == 0:
            raise ValueError("thresholds must be a nonempty 1-d sequence")
        if np.any((lam < 0.0) | (lam > 1.0)):
            raise ValueError("thresholds must lie in [0, 1]")
        object.__setattr__(self, "thresholds", lam)

    @property
    def horizon(self) -> int:
        return len(self.thresholds)

    def threshold_at(self, t: int) -> float:
        if t < 1 or t > self.horizon:
            raise TableExhaustedError(
                f"threshold table covers t=1..{self.horizon}, requested t={t}")
        return float(self.thresholds[t - 1])

    def check_compatible(self, model: EnsembleModel, alpha: float) -> None:
        if model.fingerprint() != self.model_fingerprint:
            raise ValueError(
                "threshold table was calibrated for a different model: "
                f"{self.model_fingerprint} vs {model.fingerprint()}")
        if alpha != self.alpha:
            raise ValueError(
                f"threshold table was calibrated at alpha={self.alpha}, run uses {alpha}")


@dataclass
class DecisionTrace:
    """Outcome of one detection run.

    ``t_stop[k]`` is the last time stream k was observed; -1 marks streams
    still active when the run ended (censored, distinct from a real
    deactivation).  ``active_size[i]`` is the active count at time i+1 and
    ``realized_lfnr[i]`` the mean retained posterior behind that selection
    (zero at time 1 by convention).
    """

    n_streams: int
    t_final: int
    t_stop: np.ndarray
    active_size: np.ndarray
    realized_lfnr: np.ndarray

    def equals(self, other: "DecisionTrace") -> bool:
        return (self.n_streams == other.n_streams
                and self.t_final == other.t_final
                and np.array_equal(self.t_stop, other.t_stop)
                and np.array_equal(self.active_size, other.active_size)
                and np.array_equal(self.realized_lfnr, other.realized_lfnr))


class _DetectorBase:
    kind = "base"

    def __init__(self, model: EnsembleModel, alpha: float, k: int):
        if not (0.0 < alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {alpha!r}")
        if k < 1:
            raise ValueError("need at least one stream")
        self.model = model
        self.alpha = float(alpha)
        self.k = int(k)
        self.active = np.arange(k)
        self.t_stop = np.full(k, -1, dtype=int)
        self._phase = "observe"
        self._active_size = [k]
        self._lfnr = [0.0]

    # -- subclass hooks -------------------------------------------------
    @property
    def t(self) -> int:
        return self._state.t

    @property
    def w(self) -> np.ndarray:
        """Posterior change probability per stream (frozen streams pinned)."""
        raise NotImplementedError

    def _advance(self, log_lr_values: np.ndarray) -> None:
        raise NotImplementedError

    def _freeze(self, dropped: np.ndarray) -> None:
        raise NotImplementedError

    def _select(self, w_active: np.ndarray) -> np.ndarray:
        """Boolean keep mask over ``active``, given its posteriors."""
        raise NotImplementedError

    # -- shared protocol ------------------------------------------------
    @property
    def n_active(self) -> int:
        return len(self.active)

    @property
    def last_lfnr(self) -> float:
        """Realized LFNR behind the latest selection (``trace().realized_lfnr[-1]``)."""
        return self._lfnr[-1]

    def observe(self, x) -> None:
        """Ingest one observation per active stream (aligned with .active)."""
        if self._phase != "observe":
            raise RuntimeError("deactivate() must run before the next observe()")
        x = np.asarray(x, dtype=float)
        if x.shape != self.active.shape:
            raise ValueError(
                f"expected {self.n_active} observations for the active set, "
                f"got shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ValueError("missing or non-finite observation for an active stream")
        self._advance(self.model.log_lr_rows(x, self.active) if x.size else np.empty(0))
        self._phase = "select"

    def deactivate(self) -> np.ndarray:
        """Select the next active set from current posteriors; returns dropped indices."""
        if self._phase != "select":
            raise RuntimeError("observe() must run before deactivate()")
        w_active = self.w[self.active]
        keep = self._select(w_active)
        dropped = self.active[~keep]
        self.active = self.active[keep]  # ``active`` stays in index order
        if dropped.size:
            self.t_stop[dropped] = self.t
            self._freeze(dropped)
        self._active_size.append(self.n_active)
        self._lfnr.append(float(w_active[keep].mean()) if self.n_active else 0.0)
        self._phase = "observe"
        return dropped

    def step(self, x_full) -> None:
        """Advance one period from a full K-row of observations.

        Runs the pending selection first, then ingests the surviving
        streams' entries; values for already-dropped streams are discarded.
        """
        x_full = np.asarray(x_full, dtype=float)
        if x_full.shape != (self.k,):
            raise ValueError(f"expected a length-{self.k} row, got shape {x_full.shape}")
        if self._phase == "select":
            self.deactivate()
        self.observe(x_full[self.active])

    def trace(self) -> DecisionTrace:
        return DecisionTrace(n_streams=self.k, t_final=self.t, t_stop=self.t_stop.copy(),
                             active_size=np.asarray(self._active_size, dtype=int),
                             realized_lfnr=np.asarray(self._lfnr, dtype=float))


class AdaptiveDetector(_DetectorBase):
    """One-step rule applied every period on the current posteriors; ``w`` is
    computed once per step and cached read-only until the next observation
    (freezing pins posteriors at their current values, so the cache survives)."""

    kind = "adaptive"

    def __init__(self, model: EnsembleModel, alpha: float, k: int):
        super().__init__(model, alpha, k)
        if isinstance(model, IIDModel):
            self._mode = "geometric"
            self._state = PosteriorState.initial(k)
        elif isinstance(model, TabularModel):
            if k != model.n_streams:
                raise ValueError("k must match the tabular model's stream count")
            self._mode = "tabular"
            self._state = TabularPosteriorState.initial(model.supports, model.masses)
        elif isinstance(model, PartialDepModel):
            self._mode = "partial"
            self._state = PartialDepPosterior(model.tau0.theta, model.eta, k)
        else:
            raise TypeError(f"unsupported model type {type(model).__name__}")
        self._w = None

    @property
    def w(self) -> np.ndarray:
        if self._w is None:
            self._w = np.asarray(self._state.w, dtype=float)
            self._w.flags.writeable = False
        return self._w

    def _advance(self, log_lr_values: np.ndarray) -> None:
        self._w = None
        if self._mode == "geometric":
            self._state = update_posterior(self._state, self.model.prior.theta,
                                           log_lr_values, self.active)
        elif self._mode == "tabular":
            self._state = update_tabular(self._state, log_lr_values, self.active)
        else:
            self._state.advance(log_lr_values, self.active)

    def _freeze(self, dropped: np.ndarray) -> None:
        if self._mode == "partial":
            self._state.freeze(dropped, self.w[dropped])
        else:
            self._state = self._state.freeze(dropped)

    def _select(self, w_active: np.ndarray) -> np.ndarray:
        # ``active`` is in index order, so positions break ties like indices
        keep = np.zeros(len(w_active), dtype=bool)
        keep[one_step_rule(w_active, self.alpha)] = True
        return keep


class ThresholdDetector(AdaptiveDetector):
    """Non-adaptive rule: the same cutoff rule with lambda_t from a calibrated table."""

    kind = "threshold"

    def __init__(self, model: EnsembleModel, alpha: float, k: int,
                 table: ThresholdTable):
        super().__init__(model, alpha, k)
        table.check_compatible(model, alpha)
        self.table = table

    def _select(self, w_active: np.ndarray) -> np.ndarray:
        return w_active <= self.table.threshold_at(self.t)


class DependentDetector(_DetectorBase):
    """Joint rule for ensembles whose streams all change at one shared time.

    All streams stay active until the aggregated posterior exceeds alpha,
    then every stream is deactivated at once.
    """

    kind = "dependent"

    def __init__(self, model: PartialDepModel, alpha: float, k: int):
        if not isinstance(model, PartialDepModel) or model.eta != 1.0:
            raise ValueError("dependent mode requires the fully dependent model (eta=1)")
        super().__init__(model, alpha, k)
        self._state = DependentPosteriorState.initial()
        self._frozen_w = 0.0

    @property
    def w(self) -> np.ndarray:
        return np.full(self.k, self._state.w if self.n_active else self._frozen_w)

    def _advance(self, log_lr_values: np.ndarray) -> None:
        if self.n_active == 0:
            self._state = DependentPosteriorState(self._state.t + 1, self._state.log_rho)
            return
        if len(log_lr_values) != self.k:
            raise ValueError("dependent mode deactivates jointly: observations must "
                             "cover every stream while any is active")
        self._state = update_dependent(self._state, self.model.tau0.theta,
                                       float(np.sum(log_lr_values)))

    def _freeze(self, dropped: np.ndarray) -> None:
        self._frozen_w = self._state.w

    def _select(self, w_active: np.ndarray) -> np.ndarray:
        return w_active <= self.alpha


# -- checkpointing -------------------------------------------------------

def _hex(x: float) -> str:
    return float(x).hex()


def _unhex(s: str) -> float:
    return float.fromhex(s)


def _payload_checksum(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def checkpoint_state(det: _DetectorBase) -> str:
    """Serialize a detector to a self-checking text blob (bit-exact reals)."""
    w = det.w
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "mode": det.kind,
        "t": det.t,
        "alpha": _hex(det.alpha),
        "phase": det._phase,
        "model_fingerprint": det.model.fingerprint(),
        "n_streams": det.k,
        "streams": [
            {
                "index": int(i),
                "log_odds": _hex(math.inf if w[i] >= 1.0 else
                                 (-math.inf if w[i] <= 0.0 else
                                  math.log(w[i]) - math.log1p(-w[i]))),
                "frozen": int(det.t_stop[i] >= 0),
                "t_stop": int(det.t_stop[i]),
            }
            for i in range(det.k)
        ],
        "active": [int(i) for i in det.active],
        "active_size": [int(v) for v in det._active_size],
        "lfnr": [_hex(v) for v in det._lfnr],
        "extra": _backend_extra(det),
    }
    payload["checksum"] = _payload_checksum({k: v for k, v in payload.items()})
    return json.dumps(payload, sort_keys=True)  # no indent: keeps the C encoder


def _backend_extra(det: _DetectorBase) -> dict:
    if isinstance(det, DependentDetector):
        return {"log_rho": _hex(det._state.log_rho), "frozen_w": _hex(det._frozen_w)}
    if det._mode == "geometric":
        st: PosteriorState = det._state
        return {"log_odds": [_hex(v) for v in st.log_odds]}
    if det._mode == "tabular":
        st: TabularPosteriorState = det._state
        return {"log_post": [[_hex(v) for v in row] for row in st.log_post]}
    arrays = det._state.arrays()
    return {
        "history": [[_hex(v) for v in row] for row in arrays["history"]],
        "acc": [_hex(v) for v in arrays["acc"]],
        "stopped_at": [int(v) for v in arrays["stopped_at"]],
        "frozen_w": [_hex(v) for v in arrays["frozen_w"]],
    }


def restore_state(blob: str, model: EnsembleModel, k: int,
                  table: ThresholdTable | None = None) -> _DetectorBase:
    """Rebuild a detector from a checkpoint blob.

    Verifies format version, checksum, and that the supplied model matches
    the fingerprint recorded at checkpoint time.
    """
    try:
        payload = json.loads(blob)
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"unparseable checkpoint: {exc}") from exc
    if not isinstance(payload, dict) or "checksum" not in payload:
        raise CheckpointError("checkpoint is missing its checksum")
    claimed = payload["checksum"]
    body = {key: val for key, val in payload.items() if key != "checksum"}
    if _payload_checksum(body) != claimed:
        raise CheckpointError("checkpoint checksum mismatch (corrupted or truncated)")
    if payload.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {payload.get('format_version')!r}")
    if payload["model_fingerprint"] != model.fingerprint():
        raise CheckpointError(
            "checkpoint was produced under a different model: "
            f"{payload['model_fingerprint']} vs {model.fingerprint()}")
    kind = payload["mode"]
    alpha = _unhex(payload["alpha"])
    if payload["n_streams"] != k:
        raise CheckpointError("stream count mismatch")
    if kind == "adaptive":
        det: _DetectorBase = AdaptiveDetector(model, alpha, k)
    elif kind == "threshold":
        if table is None:
            raise CheckpointError("threshold checkpoints need their threshold table")
        det = ThresholdDetector(model, alpha, k, table)
    elif kind == "dependent":
        det = DependentDetector(model, alpha, k)
    else:
        raise CheckpointError(f"unknown detector kind {kind!r}")

    det._phase = payload["phase"]
    det.active = np.asarray(payload["active"], dtype=int)
    if np.any(np.diff(det.active) <= 0):  # selection breaks ties by position
        raise CheckpointError("active stream indices must be strictly increasing")
    det.t_stop = np.asarray([s["t_stop"] for s in payload["streams"]], dtype=int)
    det._active_size = [int(v) for v in payload["active_size"]]
    det._lfnr = [_unhex(v) for v in payload["lfnr"]]
    extra = payload["extra"]
    t = int(payload["t"])
    frozen = det.t_stop >= 0
    if kind == "dependent":
        det._state = DependentPosteriorState(t=t, log_rho=_unhex(extra["log_rho"]))
        det._frozen_w = _unhex(extra["frozen_w"])
        return det
    if det._mode == "geometric":
        det._state = PosteriorState(
            t=t,
            log_odds=np.asarray([_unhex(v) for v in extra["log_odds"]]),
            frozen=frozen,
        )
    elif det._mode == "tabular":
        det._state = TabularPosteriorState(
            t=t,
            support=det._state.support,
            log_post=np.asarray([[_unhex(v) for v in row] for row in extra["log_post"]]),
            frozen=frozen,
        )
    else:
        det._state = _restore_partial(extra, model, t)
    return det


def _restore_partial(extra: dict, model: PartialDepModel, t: int) -> PartialDepPosterior:
    """Live-row history plus accumulator; the older every-stream ``cum``
    columns are folded the way a live run folds them."""
    theta, eta = model.tau0.theta, model.eta
    stopped_at = extra["stopped_at"]
    frozen_w = [_unhex(v) for v in extra["frozen_w"]]
    try:
        if "cum" in extra:
            cum = np.asarray([[_unhex(v) for v in col] for col in extra["cum"]]).T
            if cum.shape != (len(stopped_at), t + 1):
                raise ValueError(f"cum has shape {cum.shape[::-1]}, expected "
                                 f"{(t + 1, len(stopped_at))}")
            return PartialDepPosterior.from_full_history(theta, eta, cum, stopped_at,
                                                         frozen_w)
        history = [[_unhex(v) for v in row] for row in extra["history"]]
        return PartialDepPosterior.from_arrays(theta, eta, t, history,
                                               [_unhex(v) for v in extra["acc"]],
                                               stopped_at, frozen_w)
    except ValueError as exc:
        raise CheckpointError(f"bad partially dependent posterior state: {exc}") from exc
