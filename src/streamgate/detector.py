"""Deactivation procedures for parallel stream monitoring.

A detector watches K streams, and at each time step decides which streams
stay active; deactivation is permanent.  Every rule controls the local
false non-discovery rate (LFNR): the posterior-expected fraction of
already-changed streams among those kept active.  Detectors alternate
``observe(x)`` (one observation per active stream) and ``deactivate()``
(the F_t-measurable selection of the next active set), which keeps the
active streams with ``w <= cutoff``; the detectors differ only in the
cutoff:

* :class:`AdaptiveDetector` -- lambda_t of :func:`one_step_rule`, the
  largest set whose mean posterior is at most ``alpha``.  Sorted prefix
  means never decrease, so it is a cutoff rule: lambda_t is the N*-th
  smallest posterior, and the ties at lambda_t beyond N* are dropped from
  the largest positions (only a tie group that straddles N* costs a
  second pass over w).  Its stream utilization is maximal among all
  LFNR-controlling procedures under the homogeneous model.
* :class:`ThresholdDetector` -- the large-ensemble limit: lambda_t read
  from a calibrated per-time table.
* :class:`DependentDetector` -- all streams share one change time; the
  ensemble is deactivated jointly once the pooled posterior exceeds
  ``alpha``.

The posterior belongs to a backend from :mod:`streamgate.posterior`,
picked once by model (:func:`_backend_spec`), which the detector drives
through the backend protocol without knowing the model.

A detector may hold several independent ensembles of k streams, each a
contiguous block of stream indices with its own alpha budget, cutoff and
LFNR history (``simulate`` runs a batch of replications this way).  The
rule then runs row by row, one row per ensemble, on the rows padded with
+inf: one partition that puts each row's smallest posteriors in the
whole blocks that every row fills, one sort of the columns past them,
then one prefix search for all rows at once (one total of those
columns, a running sum over the columns after them, one rounding window),
then, for a row that drops more than the columns past those blocks, one
more partition nearer its N* or a sort of the whole row, and the exact
fallback for the few undecided rows only.  Every ensemble's bits equal
those of a detector of its own: each row's sums are its own, and each
ensemble's LFNR is summed over its own slice.
Only a backend that treats streams on their own can carry several
ensembles (:func:`lockstep`: the i.i.d. one).

A one-ensemble detector can be checkpointed to a text blob (format 4,
laid out in README) and restored bit-exactly, so a resumed run reproduces
the uninterrupted decision trace.  :func:`restore_state` checks the hash
before it parses anything; it encodes the blob once and hashes and
decodes slices of that one buffer.
"""

from __future__ import annotations

import base64
import binascii
import contextlib
import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .model import EnsembleModel, IIDModel, PartialDepModel, TabularModel
from .posterior import (DependentPosteriorState, PartialDepPosterior,
                        PosteriorState, TabularPosteriorState)

CHECKPOINT_VERSION = 4
_EPS = float(np.finfo(float).eps)
_BLOCK = 1024  # columns per block: a split of the rows is a whole number of them


class CheckpointError(ValueError):
    """Corrupted, truncated, or incompatible checkpoint blob."""


class TableExhaustedError(LookupError):
    """Threshold table does not cover the requested time."""


def _exact_prefix(row: np.ndarray, lo: int, hi: int, alpha: float) -> int:
    """Largest n in (lo, hi] with the exact sum of ``row[:n]``, rounded once,
    at most alpha * n, tested longest first, since the rounded test is not
    monotone within an ulp of the budget; ``lo`` if there is none."""
    # each w is an integer multiple of 2**-1074; int / int rounds correctly
    units = [num << (1075 - den.bit_length())
             for num, den in map(float.as_integer_ratio, row[:hi].tolist())]
    exact = sum(units)
    for m in range(hi, lo, -1):
        if exact / (1 << 1074) <= alpha * m:
            return m
        exact -= units[m - 1]
    return lo


def _prefix_sums(rows: np.ndarray, split: int) -> np.ndarray:
    """Each row's prefix sums of lengths ``split`` to its end, column j the
    sum of its first split + j columns: one total of the columns before
    ``split``, then a running sum over the columns after them."""
    sums = rows[:, split:]
    if split:
        sums = sums.copy()
        sums[:, 0] = rows[:, 1:split + 1].sum(axis=1)
    return np.cumsum(sums, axis=1)  # row by row, bit for bit: 0 + w is w


def _settle(sums: np.ndarray, split: int, alpha: float, window: float
            ) -> tuple[list[int], list[int]]:
    """From :func:`_prefix_sums`, each row's last prefix length at or past
    ``split`` that certainly fits (its end, width + 1, where none does) and
    its first that certainly fails: those whose sum is more than ``window``
    within or over their budget.  Leaves each column's excess over its
    budget in ``sums``."""
    width = split + sums.shape[1] - 2
    sums -= alpha * np.arange(split, width + 2.0)
    if not split:
        sums[:, 0] = -math.inf  # the empty prefix fits
    fit = width + 1 - (sums < -window)[:, ::-1].argmax(axis=1)
    fail = split + (sums > window).argmax(axis=1)
    return fit.tolist(), fail.tolist()


def _largest_feasible_prefix(rows: np.ndarray, split: int, last: np.ndarray,
                             alpha: float) -> list[int]:
    """Per row, the largest n with math.fsum(row[:n]) <= alpha * n (equality
    retains).  Row i holds 0, its posteriors, then +inf to the end, so
    column j closes the prefix of length j; ``last[i]`` is the flat index
    of the row's largest posterior.  Columns 1..split hold the row's
    ``split`` smallest posteriors in any order, the ``split``-th last, and
    the columns after them are sorted; ``split`` is a whole number of
    ``_BLOCK``-column blocks that every row fills.

    The prefix sums come from one total of the unsorted columns
    (:func:`_prefix_sums`).  As in a cumulative sum over the sorted row, no
    entry goes through more roundings than the row is wide, so that sum's
    rounding window bounds these sums too, in whatever order they are
    added, and settles every n outside it (prefix sums and budgets only
    grow with n; the empty prefix always fits and the +inf end always
    fails).

    A row with no certain fit from ``split`` on keeps fewer than ``split``
    posteriors: it drops more than its size less ``split``, so the
    partition alone does not settle it.  Each of its first ``split``
    posteriors is at most the split-th, so its N* lies excess / (that one -
    alpha) or more short of ``split``: the row partitions those columns
    once more, at the whole block twice that far down, and sorts from that
    block on when the prefix there certainly fits, or else sorts them
    whole; it is settled from there.  Only the rows left with undecided
    prefixes go on to :func:`_exact_prefix`, which sums the same multiset
    exactly, so every N* is exact and lies in columns that are sorted from
    it on.
    """
    n_rows, width = rows.shape[0], rows.shape[1] - 2
    sums = _prefix_sums(rows, split)
    if split:  # the flat index of each row's total among the sums
        last = last - split * np.arange(1, n_rows + 1)
    window = (width + 2.0) * _EPS * max(max(sums.take(last).tolist()), alpha * width)
    lo, hi = _settle(sums, split, alpha, window)
    for i, (fit, fail) in enumerate(zip(lo, hi)):
        if fit > width:  # no certain fit from split on: N* is short of it
            row, top = rows[i:i + 1], rows[i, split]
            # twice the least shortfall: a block too far costs only its sort
            short = sums[i, 0] / (top - alpha) if top > alpha else 0.0
            start = min(int(max(0.0, split - 2 * short)) // _BLOCK, split // _BLOCK - 1) * _BLOCK
            if start:
                row[0, 1:split + 1].partition(start - 1)
                if row[0, 1:start + 1].sum() - alpha * start >= -window:
                    start = 0  # the prefix of length start may not fit
            row[0, start + 1:split + 1].sort()
            (fit,), (fail,) = _settle(_prefix_sums(row, start), start, alpha, window)
        if fail - 1 > fit:
            fit = _exact_prefix(rows[i, 1:], fit, fail - 1, alpha)
        lo[i] = fit
    return lo


def _adaptive_keep(w: np.ndarray, sizes: np.ndarray, alpha: float
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The one-step rule, row by row: row i is the next ``sizes[i]`` entries
    of ``w`` (none or more).  Each row keeps its posteriors at most lambda,
    its N*-th smallest (N* the longest feasible sorted prefix), less the
    ties at lambda beyond N*, the last by position.  Returns the keep mask
    and each row's N*.

    The rows are sorted only from ``split`` on, the whole ``_BLOCK``-column
    blocks that every row fills: a partition puts each row's ``split``
    smallest posteriors before it, which the prefix search totals in any
    order.  A row that keeps fewer than ``split`` (drops more than its size
    less ``split``) is partitioned once more at a block under its N*, or,
    when that misses, sorted whole; lambda and the entry after it are read
    where the row is sorted."""
    width = w.size if len(sizes) == 1 else max(sizes.tolist())
    rows = np.empty((len(sizes), width + 2))
    rows[:, 0], rows[:, -1] = 0.0, math.inf
    body = rows[:, 1:-1]
    if w.size == body.size:
        body[:] = w.reshape(body.shape)
    else:
        body.fill(math.inf)
        body[np.arange(width) < sizes[:, None]] = w
    split = min(sizes.tolist()) // _BLOCK * _BLOCK
    if split:
        body.partition(split - 1, axis=1)  # NaN partitions after the padding, as it sorts
    body[:, split:].sort(axis=1)
    starts = np.arange(0, rows.size, width + 2)  # the flat index of each row
    last = starts + sizes  # of each row's largest posterior: NaN or +inf where it has a NaN
    # each row's smallest posterior (the +inf end of an empty row): a
    # partition leaves it anywhere in the first split columns
    low = body[:, :split].min(axis=1) if split else rows[:, 1]
    if not all(0.0 <= lowest and highest <= 1.0  # NaN fails too
               for lowest, highest in zip(low.tolist(), rows.take(last).tolist())):
        raise ValueError("posterior probabilities must lie in [0, 1]")
    n = np.array(_largest_feasible_prefix(rows, split, last, alpha))
    # lambda, or 0 where N* = 0 (every posterior of the row exceeds alpha
    # then), and the next sorted posterior: equal where a tie group
    # straddles N*, which keeps its first N* less the row's posteriors below
    # lambda
    at = starts + n
    lam, after = rows.take(at), rows.take(at + 1)
    keep = w <= (lam if len(lam) == 1 else np.repeat(lam, sizes))
    ends = np.cumsum(sizes).tolist()
    for i, (cut, following) in enumerate(zip(lam.tolist(), after.tolist())):
        if cut == following:
            row = slice(ends[i] - sizes[i], ends[i])
            tied = np.flatnonzero(w[row] == cut)
            keep[row][tied[n[i] - np.count_nonzero(w[row] < cut):]] = False
    return keep, n


def one_step_rule(w, alpha: float) -> np.ndarray:
    """Largest retained index set whose mean posterior is <= alpha.

    A cutoff rule: with lambda the N*-th smallest posterior (N* the longest
    feasible sorted prefix), keep every w < lambda plus the smallest-index
    entries equal to lambda, N* in all.  Returns indices in index order.
    Streams that carry ids break ties by id once sorted by it: with
    ``perm = np.argsort(ids)``, keep ``ids[perm][one_step_rule(w[perm], alpha)]``.
    """
    w = np.asarray(w, dtype=float)
    return np.flatnonzero(_adaptive_keep(w, np.array([w.size]), alpha)[0])


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
        if not np.all((lam >= 0.0) & (lam <= 1.0)):  # NaN fails too
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


@dataclass(frozen=True)
class Selection:
    """The facts of one selection, derived once by ``deactivate()``.

    At time ``t``, ``n_active`` streams are kept and ``dropped`` (stream
    indices) are deactivated.  ``lfnr`` is the mean retained posterior (0
    for an empty set).  ``cutoff`` is the largest retained posterior: 0.0
    at the selection that empties the ensemble, and 1.0 when nothing was
    dropped, so at every selection after that one.  Under the
    adaptive rule it is lambda_t whenever the step both drops and keeps.
    Only a one-ensemble detector records it; a batch's per-ensemble
    cutoffs and LFNRs are in its ``traces()`` and ``realized_lfnr``.
    """

    t: int
    n_active: int
    cutoff: float
    lfnr: float
    dropped: np.ndarray


@dataclass
class DecisionTrace:
    """Outcome of one detection run.

    ``t_stop[k]`` is the last time stream k was observed; -1 marks streams
    still active when the run ended (censored, distinct from a real
    deactivation).  Entry i of the other arrays is the selection at time i
    (entry 0 the start): ``active_size[i]``, the count it keeps (k less the
    streams stopped by time i), its ``realized_lfnr[i]`` (0 at the start)
    and ``cutoff[i]``, its ``Selection.cutoff`` (1.0 at the start).
    """

    n_streams: int
    t_final: int
    t_stop: np.ndarray
    active_size: np.ndarray
    realized_lfnr: np.ndarray
    cutoff: np.ndarray

    def equals(self, other: "DecisionTrace") -> bool:
        return all(np.array_equal(value, getattr(other, name))
                   for name, value in vars(self).items())


def _backend_spec(kind: str, model: EnsembleModel, k: int, ensembles: int = 1
                  ) -> tuple[type, tuple]:
    """The posterior backend class for a detector kind and model, and its
    constructor arguments for ``ensembles`` ensembles of ``k`` streams; more
    than one ensemble needs a backend that runs in lockstep."""
    if kind == "dependent":
        if not isinstance(model, PartialDepModel) or model.eta != 1.0:
            raise ValueError("dependent mode requires the fully dependent model (eta=1)")
        cls, params = DependentPosteriorState, (model.tau0.theta, k)
    elif isinstance(model, IIDModel):
        cls, params = PosteriorState, (model.prior.theta, k * ensembles)
    elif isinstance(model, TabularModel):
        if k != model.n_streams:
            raise ValueError(f"the tabular model defines {model.n_streams} stream(s), "
                             f"got k={k}")
        cls, params = TabularPosteriorState, (model.supports, model.masses)
    elif isinstance(model, PartialDepModel):
        cls, params = PartialDepPosterior, (model.tau0.theta, model.eta, k)
    else:
        raise TypeError(f"unsupported model type {type(model).__name__}")
    if ensembles > 1 and not cls.lockstep:
        raise ValueError(f"the {cls.label} posterior runs one ensemble per detector")
    return cls, params


def lockstep(kind: str, model: EnsembleModel, k: int) -> bool:
    """Whether one detector of ``kind`` can hold several independent
    ensembles of ``k`` streams of ``model``: its backend must treat every
    stream on its own."""
    return _backend_spec(kind, model, k)[0].lockstep


class _DetectorBase:
    """Shared observe/deactivate protocol; subclasses supply ``_select``:
    given the active posteriors, one row of ``sizes[i]`` entries per
    ensemble (none for an emptied one), the mask of those kept under the
    detector's cutoff.

    Ensemble e is streams ``e*k .. e*k + k - 1``, and ``active_counts``
    holds each ensemble's active count, a new array after each selection
    that drops streams.  ``active`` is the backend's read-only ``live``
    array itself.  The active posteriors are evaluated once per step
    (``w_active``), and ``w`` is built from them once, both cached
    read-only until the next observation; freezing pins posteriors at their
    current values, so both survive a selection.
    """

    kind = "base"

    def __init__(self, model: EnsembleModel, alpha: float, k: int, ensembles: int = 1):
        if not (0.0 < alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {alpha!r}")
        if k < 1 or ensembles < 1:
            raise ValueError("need at least one stream")
        self.model, self.alpha, self.k, self.ensembles = model, float(alpha), int(k), ensembles
        self.ids = None
        self._start(self._backend(), np.full(k * ensembles, -1, dtype=int), "observe",
                    [[1.0] * ensembles], [[0.0] * ensembles])

    def _start(self, state, t_stop: np.ndarray, phase: str, cutoffs, lfnr) -> None:
        """Take up a run at the backend's time; stop times are -1 while active.
        ``cutoffs`` and ``lfnr`` hold one list of per-ensemble values per
        selection, the start included."""
        self._state, self.t_stop, self._phase = state, t_stop, phase
        self.active = state.live
        self._bounds = np.arange(0, len(t_stop) + 1, self.k)  # each ensemble's first stream, and the end
        self._count_active()
        self._cutoffs, self._lfnr = cutoffs, lfnr
        self._w = self._w_live = None
        self.last: Selection | None = None  # none until the first selection, and in a batch

    def _count_active(self) -> None:
        ends = self.active.searchsorted(self._bounds)
        self.active_counts = ends[1:] - ends[:-1]

    def _backend(self, t: int = 0, frozen=None, arrays: dict | None = None):
        """The posterior backend for the model: fresh, or rebuilt at time
        ``t`` from the frozen-stream mask and its ``to_arrays()``."""
        cls, params = _backend_spec(self.kind, self.model, self.k, self.ensembles)
        if arrays is None:
            return cls(*params)
        try:
            return cls.from_arrays(*params, t, frozen, **arrays)
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"bad {cls.label} posterior state: {exc}") from exc

    @property
    def ids(self) -> np.ndarray | None:
        """External stream ids, checkpointed when set: a read-only copy of
        the array assigned, whose checkpoint line is encoded once."""
        return self._ids

    @ids.setter
    def ids(self, value) -> None:
        if value is not None:
            value = np.array(value)
            value.flags.writeable = False
        self._ids, self._ids_entry = value, None

    @property
    def t(self) -> int:
        return self._state.t

    @property
    def w(self) -> np.ndarray:
        """Posterior change probability per stream (frozen streams pinned)."""
        if self._w is None:
            self._w = self._state.full_w(self.w_active)
            self._w.flags.writeable = False
        return self._w

    @property
    def w_active(self) -> np.ndarray:
        """The active streams' posteriors, in ``active`` order: the one
        evaluation of a step, which ``w`` shares; read it rather than
        ``w[active]`` to skip assembling every stream's.  Read-only."""
        if self._w_live is None:
            self._w_live = self._state.w_live
        self._w_live.flags.writeable = False  # also the kept slice after a selection
        return self._w_live

    @property
    def n_active(self) -> int:
        return len(self.active)

    def observe(self, x) -> None:
        """Ingest one observation per active stream (aligned with .active).
        The model refuses a value with no finite log likelihood ratio (a
        missing or non-finite one, or a finite one that overflows it),
        before anything changes."""
        if self._phase != "observe":
            raise RuntimeError("deactivate() must run before the next observe()")
        x = np.asarray(x, dtype=float)
        if x.shape != self.active.shape:
            raise ValueError(
                f"expected {self.n_active} observations for the active set, "
                f"got shape {x.shape}")
        self._state.advance(self.model.log_lr_rows(x))
        self._w = self._w_live = None
        self._phase = "select"

    def deactivate(self) -> np.ndarray:
        """Select each ensemble's next active set from current posteriors,
        record it as :attr:`last`, and return the dropped indices."""
        if self._phase != "select":
            raise RuntimeError("observe() must run before deactivate()")
        sizes = self.active_counts
        w_active = self.w_active
        keep = self._select(w_active, sizes)
        dropped = self._state.freeze(keep, w_active)
        kept_w = w_active
        if dropped.size:
            self.t_stop[dropped] = self.t
            kept_w = w_active[keep]
            # the backend's live ids, still in index order; the kept
            # posteriors stay this step's
            self.active, self._w_live = self._state.live, kept_w
            self._count_active()
        # per ensemble: the cutoff is 1.0 when nothing was dropped (so once
        # the ensemble is empty), 0.0 when the selection empties it, else the
        # largest kept posterior; the LFNR is the mean kept posterior (sum / n,
        # the division ndarray.mean does), each over its own slice: the bits
        # of a lone run
        cutoff, lfnr, start = [], [], 0
        for n, size in zip(self.active_counts.tolist(), sizes.tolist()):
            part = kept_w[start:start + n]
            start += n
            cutoff.append(1.0 if n == size else float(part.max()) if n else 0.0)
            lfnr.append(float(part.sum()) / n if n else 0.0)
        if self.ensembles == 1:  # a batch's per-ensemble facts are in traces()
            self.last = Selection(self.t, self.n_active, cutoff[0], lfnr[0], dropped)
        self._cutoffs.append(cutoff)
        self._lfnr.append(lfnr)
        self._phase = "observe"
        return dropped

    @property
    def realized_lfnr(self) -> np.ndarray:
        """Each selection's realized LFNR, the start included: one row per
        selection, one column per ensemble."""
        return np.array(self._lfnr)

    def traces(self) -> list[DecisionTrace]:
        """One decision trace per ensemble, in ensemble order."""
        cutoffs, lfnr = np.array(self._cutoffs), self.realized_lfnr  # (selections, ensembles)
        out = []
        for e, t_stop in enumerate(self.t_stop.reshape(self.ensembles, self.k)):
            # entry s of the bincount is the number of streams stopped at time s
            stops = np.bincount(t_stop[t_stop >= 1], minlength=len(lfnr))
            out.append(DecisionTrace(n_streams=self.k, t_final=self.t, t_stop=t_stop.copy(),
                                     active_size=self.k - np.cumsum(stops),
                                     realized_lfnr=lfnr[:, e].copy(),
                                     cutoff=cutoffs[:, e].copy()))
        return out

    def trace(self) -> DecisionTrace:
        """The decision trace of a one-ensemble detector."""
        if self.ensembles != 1:
            raise ValueError(f"this detector holds {self.ensembles} ensembles: use traces()")
        return self.traces()[0]


class AdaptiveDetector(_DetectorBase):
    """One-step rule applied every period on the current posteriors."""

    kind = "adaptive"

    def _select(self, w_active: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        # ``active`` is in index order, so positions break ties like indices
        return _adaptive_keep(w_active, sizes, self.alpha)[0]


class ThresholdDetector(AdaptiveDetector):
    """Non-adaptive rule: the same cutoff rule with lambda_t from a calibrated table."""

    kind = "threshold"

    def __init__(self, model: EnsembleModel, alpha: float, k: int,
                 table: ThresholdTable, ensembles: int = 1):
        super().__init__(model, alpha, k, ensembles)
        table.check_compatible(model, alpha)
        self.table = table

    def _select(self, w_active: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        return w_active <= self.table.threshold_at(self.t)


class DependentDetector(_DetectorBase):
    """Joint rule for ensembles whose streams all change at one shared time.

    All streams stay active until the aggregated posterior exceeds alpha,
    then every stream is deactivated at once.
    """

    kind = "dependent"

    def _select(self, w_active: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        return w_active <= self.alpha


# each detector kind, as a checkpoint names it, and its class
_KINDS = {cls.kind: cls for cls in (AdaptiveDetector, ThresholdDetector, DependentDetector)}
DETECTOR_KINDS = tuple(_KINDS)


def check_kind(kind: str) -> None:
    """Refuse a ``kind`` that is not one of :data:`DETECTOR_KINDS`."""
    if kind not in _KINDS:
        raise ValueError(f"unknown mode {kind!r}")


def make_detector(kind: str, model: EnsembleModel, alpha: float, k: int,
                  table: ThresholdTable | None = None, ensembles: int = 1) -> _DetectorBase:
    """The detector of ``kind`` (one of :data:`DETECTOR_KINDS`) over
    ``ensembles`` independent ensembles of ``k`` streams; threshold
    detectors need their calibrated ``table``."""
    check_kind(kind)
    if kind != "threshold":
        return _KINDS[kind](model, alpha, k, ensembles)
    if table is None:
        raise ValueError("threshold mode needs a calibrated threshold table")
    return ThresholdDetector(model, alpha, k, table, ensembles)


# -- checkpointing and output files ---------------------------------------

def write_atomic(path, text: str) -> None:
    """Replace ``path`` with ``text`` whole, through ``<path>.tmp``, or leave
    it untouched and no ``.tmp`` behind on failure."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


# the header's fields, with their JSON types
_FIELDS = {"format_version": int, "mode": str, "t": int, "alpha": str, "phase": str,
           "model_fingerprint": str, "n_streams": int, "arrays": list}
# the arrays every checkpoint starts with, before the ids and the backend's
_HISTORY = [["t_stop", "<i8"], ["cutoff", "<f8"], ["lfnr", "<f8"]]


def _encoded(name: str, value) -> tuple[list, bytes]:
    """An array's ``[name, dtype, shape]`` entry and its line: little-endian
    int64 or float64 bytes as one base64 line, "\\n" included."""
    a = np.asarray(value)
    dtype = "<i8" if a.dtype.kind in "iu" else "<f8"
    return [name, dtype, list(a.shape)], binascii.b2a_base64(np.ascontiguousarray(a, dtype))


def checkpoint_state(det: _DetectorBase) -> str:
    """Serialize a detector, with its external ids when they are set, to a
    self-checking text blob (format 4, bit-exact).  A blob holds one
    ensemble: a detector of several is refused."""
    if det.ensembles != 1:
        raise ValueError(f"a checkpoint holds one ensemble, this detector {det.ensembles}")
    if det.ids is not None and det._ids_entry is None:  # the ids never change in a run
        det._ids_entry = _encoded("ids", det.ids)
    entries = [_encoded(name, value) for name, value in (
        ("t_stop", det.t_stop), ("cutoff", np.concatenate(det._cutoffs)),
        ("lfnr", np.concatenate(det._lfnr)))]
    if det.ids is not None:
        entries.append(det._ids_entry)
    entries += [_encoded(name, value) for name, value in det._state.to_arrays().items()]
    specs, lines = zip(*entries)
    header = {"format_version": CHECKPOINT_VERSION, "mode": det.kind, "t": det.t,
              "alpha": float.hex(det.alpha), "phase": det._phase,
              "model_fingerprint": det.model.fingerprint(), "n_streams": det.k,
              "arrays": specs}
    body = b"".join([json.dumps(header).encode(), b"\n", *lines])
    return hashlib.sha256(body).hexdigest() + "\n" + body.decode()


def _decode_arrays(specs: list, lines: list[memoryview]) -> dict:
    """The arrays of a format-4 body, one per ``[name, dtype, shape]`` entry
    and line; refuses a mistyped entry, a line too many or too few, invalid
    base64, data whose size disagrees with its shape, a repeated name, and
    history arrays other than ``_HISTORY``."""
    for spec in specs:
        if (type(spec) is not list or len(spec) != 3 or type(spec[0]) is not str
                or spec[1] not in ("<i8", "<f8") or type(spec[2]) is not list
                or not all(type(n) is int and n >= 0 for n in spec[2])):
            raise TypeError(f"mistyped array entry {spec!r:.80}: "
                            "expected [name, '<i8' or '<f8', shape]")
    if len(lines) != len(specs):
        raise ValueError(f"the header lists {len(specs)} arrays, but {len(lines)} lines follow")
    if len({spec[0] for spec in specs}) != len(specs):
        raise ValueError("an array name is repeated")
    if [spec[:2] for spec in specs[:3]] != _HISTORY:
        raise TypeError("the arrays must start with t_stop <i8, cutoff <f8 and lfnr <f8")
    arrays = {}
    for (name, dtype, shape), line in zip(specs, lines):
        raw = base64.b64decode(line, validate=True)
        if len(raw) != 8 * math.prod(shape):
            raise ValueError(f"{name}: {len(raw)} bytes do not fit shape {shape}")
        arrays[name] = np.frombuffer(raw, dtype).reshape(shape)
    return arrays


def restore_state(blob: str, model: EnsembleModel, k: int | None = None,
                  table: ThresholdTable | None = None) -> _DetectorBase:
    """Rebuild a detector from a checkpoint blob, checking its hash, format
    version, fields, model fingerprint, stream count (``k``, when given),
    that its history fits its time and that its external ids, if any, are
    one strictly increasing int64 per stream."""
    if blob.startswith(("{", "[")):
        raise CheckpointError("unsupported checkpoint version: a JSON first line is format 1 or "
                              f"2, or format-3 ids (this program reads {CHECKPOINT_VERSION})")
    try:
        data = blob.encode("ascii")  # the one copy: every line below is a slice of it
    except UnicodeEncodeError as exc:
        raise CheckpointError(f"checkpoint is not ASCII text: {exc}") from exc
    view, end = memoryview(data), data.find(b"\n")
    if end < 0:  # all digest, no body
        end = len(data)
    # the hash covers every byte after its line
    if hashlib.sha256(view[end + 1:]).hexdigest().encode() != data[:end]:
        raise CheckpointError("checkpoint checksum mismatch (corrupted or truncated)")
    lines = []
    while (start := end + 1) < len(data) and (end := data.find(b"\n", start)) >= 0:
        lines.append(view[start:end])
    if not lines or start != len(data):
        raise CheckpointError("checkpoint does not end with a newline")
    try:
        header = json.loads(lines[0].tobytes())
    except ValueError as exc:
        raise CheckpointError(f"unparseable checkpoint header: {exc}") from exc
    version = header.get("format_version") if isinstance(header, dict) else None
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version!r} "
                              f"(this program reads version {CHECKPOINT_VERSION})")
    bad = [key for key, typ in _FIELDS.items() if type(header.get(key)) is not typ]
    bad += sorted(header.keys() - _FIELDS.keys())
    if bad:
        raise CheckpointError(f"checkpoint field(s) missing, mistyped or unknown: {bad}")
    if header["model_fingerprint"] != model.fingerprint():
        raise CheckpointError(
            "checkpoint was produced under a different model: "
            f"{header['model_fingerprint']} vs {model.fingerprint()}")
    kind, t, phase = header["mode"], header["t"], header["phase"]
    k = header["n_streams"] if k is None else k
    if header["n_streams"] != k or k < 1:
        raise CheckpointError(f"stream count mismatch: {header['n_streams']} vs {k}")
    if kind not in _KINDS:
        raise CheckpointError(f"unknown detector kind {kind!r}")
    if kind == "threshold" and table is None:
        raise CheckpointError("threshold checkpoints need their threshold table")
    if phase not in ("observe", "select") or t < (phase == "select"):
        raise CheckpointError(f"bad checkpoint phase {phase!r} or time {t}")
    try:
        alpha = float.fromhex(header["alpha"])
        arrays = _decode_arrays(header["arrays"], lines[1:])
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint field: {exc}") from exc
    t_stop, cutoff, lfnr = (arrays.pop(name) for name, _ in _HISTORY)
    ids = arrays.pop("ids", None)
    if not 0.0 < alpha <= 1.0:  # NaN fails too
        raise CheckpointError(f"checkpoint alpha {alpha!r} does not lie in (0, 1]")
    steps = t + (phase == "observe")  # one per selection, plus the initial entry
    stopped = t_stop[t_stop != -1]
    if t_stop.shape != (k,) or np.any((stopped < 1) | (stopped >= steps)):
        raise CheckpointError(f"stop times must be -1 or lie in [1, {steps - 1}], one per stream")
    if cutoff.shape != (steps,) or lfnr.shape != (steps,):
        raise CheckpointError(f"cutoff and lfnr need {steps} entries at t={t}")
    if ids is not None and (ids.dtype != np.int64 or ids.shape != (k,)
                            or np.any(ids[1:] <= ids[:-1])):
        raise CheckpointError(f"external ids must be {k} strictly increasing <i8 values")
    # not the constructor, whose fresh backend and stop times would go unused
    det = object.__new__(_KINDS[kind])
    det.model, det.alpha, det.k, det.ensembles = model, alpha, k, 1
    det._ids, det._ids_entry = ids, None  # read-only already, over the blob's own bytes
    if kind == "threshold":
        table.check_compatible(model, alpha)
        det.table = table
    det._start(det._backend(t, t_stop >= 0, arrays), t_stop.astype(int), phase,
               cutoff.reshape(-1, 1).tolist(), lfnr.reshape(-1, 1).tolist())
    return det
