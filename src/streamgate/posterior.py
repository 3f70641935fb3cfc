"""Online posterior probabilities that a stream has already changed.

The central quantity is, per stream, the posterior probability ``w`` that
the change point lies strictly before the current time given everything
observed so far.  Under the i.i.d. geometric model the one-step update is
a Shiryaev-type recursion driven by the observation likelihood ratio
``L = q(x)/p(x)``::

    odds(w') = L * (theta + (1-theta) w) / ((1-theta) (1-w))

All recursions here run in log-odds space: the raw multiplicative form
overflows/underflows once accumulated likelihood ratios pass ~1e300,
which happens within a few hundred post-change Gaussian steps.  In log
odds the update is a single stable expression::

    l' = log_lr + logaddexp(log theta, l) - log(1-theta)

``w = 0`` and ``w = 1`` map to log-odds -inf/+inf and are exact absorbing
states, matching the algebraic fixed points of the recursion.

One posterior backend per model, all with the same protocol:

* :class:`PosteriorState` -- independent streams, geometric prior;
* :class:`TabularPosteriorState` -- finite-support per-stream priors;
* :class:`PartialDepPosterior` -- the exact partially dependent posterior
  (streams change with a shared time with probability eta), by finite
  summation over the shared change time with the future tail collapsed
  analytically;
* :class:`DependentPosteriorState` -- every stream shares one change
  time, carried as one log-odds scalar of the summed log likelihood
  ratios.

A backend is mutable, with a time ``t``, and owns its live set: ``live``
holds the ids of the streams not yet deactivated (increasing; a new array
after each freeze), and everything else crosses in ``live`` order.
``advance(log_lr)`` takes one log likelihood ratio per live stream and
updates in place; ``freeze(keep, w_live)`` keeps the live streams where the
mask ``keep`` is true, pins each other one at its ``w_live`` value and
returns their ids, finding them once;
``w_live`` evaluates the live posteriors, and ``full_w(w_live)`` adds the
pinned values to give every stream's, which ``w`` (a fresh array) is;
``to_arrays()``/``from_arrays(..., t, frozen, **arrays)`` give and take the
state for checkpoints.  ``lockstep`` says whether one backend can carry
several independent ensembles side by side: only the i.i.d. one can, whose
streams share one prior and update on their own data alone.
"""

from __future__ import annotations

import math

import numpy as np

from . import _special

NEG_INF = -math.inf


def _shaped(name: str, value, shape: tuple, dtype=float) -> np.ndarray:
    """``value`` as a new ``dtype`` array, refused unless it has ``shape``
    and, for ``int``, holds integers (floats are refused, not truncated)."""
    a = np.array(value)
    if dtype is int and a.dtype.kind not in "iu":
        raise TypeError(f"{name} holds {a.dtype} values, expected integers")
    a = a.astype(dtype, copy=False)
    if a.shape != shape:
        raise ValueError(f"{name} has shape {a.shape}, expected {shape}")
    return a


def _log_lam(eta: float, l_km: np.ndarray) -> np.ndarray:
    """log Lam_k(m) = log(eta * exp(l_k(m)) + 1 - eta), elementwise (eta > 0).

    ``math.log(eta) + l_km - log_lam`` is then log P(stream k changed at m |
    tau0 = m, its data); at eta = 1 that is exactly 0.
    """
    if eta == 1.0:
        return l_km
    return np.logaddexp(math.log(eta) + l_km, math.log1p(-eta))


def _logsumexp_rows(a: np.ndarray, work=None) -> np.ndarray:
    """log sum exp along axis 1 of a 2-d array of finite or -inf entries.

    The operations of ``scipy.special.logsumexp`` (the row maxima are
    summed apart and re-added with ``log1p``), so results are bit-identical
    to it, without its array-API dispatch and copies.  A row of -inf gives
    -inf.  ``work`` is (float, bool, bool) scratch of ``a``'s shape: given
    it, the call makes no array of that size and overwrites ``a``; without
    it, ``a`` is left alone and the scratch is made afresh.
    """
    if work is None:
        a, work = a.copy(), (np.empty(a.shape), np.empty(a.shape, bool),
                             np.empty(a.shape, bool))
    e, top, tiny = work
    with np.errstate(invalid="ignore"):  # -inf - -inf in rows of -inf
        a_max = a.max(axis=1, keepdims=True)
        np.equal(a, a_max, out=top)
        d = np.subtract(a, a_max, out=a)
        # exp is slow wherever its result is subnormal or zero, which is most
        # of an array of long-run posteriors; below -746 the result is exactly 0
        np.less(d, -708.0, out=tiny)
        np.copyto(e, d)
        np.copyto(e, 0.0, where=tiny)
        np.exp(e, out=e)
        np.copyto(e, 0.0, where=top)
        np.copyto(e, 0.0, where=tiny)
        n_top = np.count_nonzero(top, axis=1, keepdims=True).astype(float)
        sub = np.greater_equal(d, -746.0, out=top)
        sub &= tiny
        e[sub] = np.exp(d[sub])
    s = e.sum(axis=1, keepdims=True)
    s = np.where(s == 0, s, s / n_top)
    return (np.log1p(s) + np.log(n_top) + a_max)[:, 0]


def _shiryaev(theta: float, l: np.ndarray, log_lr) -> None:
    """One step of the log-odds recursion, in place:
    l = log_lr + logaddexp(log theta, l) - log(1-theta)."""
    np.logaddexp(math.log(theta), l, out=l)
    l += log_lr
    l -= math.log1p(-theta)


class _Backend:
    """What the backends share: the time step and the freeze bookkeeping,
    around the hooks ``_advance`` and ``_pin``; ``w`` is ``full_w(w_live)``,
    and by default ``full_w`` puts the live posteriors among the pinned
    ``_frozen_w``."""

    lockstep = False

    @property
    def live(self) -> np.ndarray:
        return self._live

    def _set_live(self, ids: np.ndarray) -> None:
        # read-only: a detector's ``active`` is this array itself
        ids.flags.writeable = False
        self._live = ids

    def advance(self, log_lr) -> None:
        """One step on one log likelihood ratio per live stream, in ``live`` order."""
        log_lr = np.asarray(log_lr, dtype=float)
        if log_lr.shape != self.live.shape:
            raise ValueError(f"log_lr must align with the live streams: shape {log_lr.shape}, "
                             f"expected {self.live.shape}")
        self._advance(log_lr)
        self.t += 1

    def freeze(self, keep: np.ndarray, w_live: np.ndarray) -> np.ndarray:
        """Keep the live streams where the mask ``keep`` is true; pin each
        other one at its ``w_live`` value, this step's posterior.  Returns
        the frozen ids, increasing (none when ``keep`` holds every stream,
        and then nothing changes)."""
        drop = np.flatnonzero(~keep)
        if not drop.size:
            return self._live[:0]
        gone = self._live.take(drop)
        self._frozen_w[gone] = w_live.take(drop)
        self._pin(drop, keep)
        self._set_live(self._live[keep])
        return gone

    def _pin(self, drop: np.ndarray, keep: np.ndarray) -> None:
        """A backend's own part of freezing the streams at live positions
        ``drop`` (``keep`` masks the others), while ``live`` still holds them."""

    @property
    def w(self) -> np.ndarray:
        return self.full_w(self.w_live)

    def full_w(self, w_live: np.ndarray) -> np.ndarray:
        if w_live.size == self._frozen_w.size:  # no stream is frozen
            return w_live
        w = self._frozen_w.copy()
        w[self.live] = w_live
        return w


class PosteriorState(_Backend):
    """Per-stream posteriors of independently changing streams.

    The live streams' log odds are one dense array ``_l``, entry j for
    stream ``live[j]``, which ``advance`` updates in place.  A frozen
    stream's log odds and posterior are pinned once, at its freeze, in
    ``_pinned`` and ``_frozen_w``; ``log_odds`` assembles the full vector for
    callers.  The pinned posterior is ``expit(log_odds[k])`` bit for bit, so
    ``from_arrays`` rebuilds it: a checkpoint holds the log odds alone.
    """

    label = "i.i.d."
    lockstep = True

    def __init__(self, theta: float, k: int):
        self.theta = theta
        self.t = 0
        self._set_live(np.arange(k))
        self._l = np.full(k, NEG_INF)
        self._pinned = np.full(k, NEG_INF)
        self._frozen_w = np.zeros(k)

    @classmethod
    def from_arrays(cls, theta: float, k: int, t: int, frozen,
                    log_odds) -> "PosteriorState":
        st = cls.__new__(cls)  # not the constructor: its fresh arrays would go unused
        st.theta, st.t = theta, t
        frozen = _shaped("frozen", frozen, (k,), bool)
        st._pinned = _shaped("log_odds", log_odds, (k,))
        st._set_live(np.flatnonzero(~frozen))
        st._l = st._pinned[st._live]
        st._frozen_w = np.zeros(k)
        st._frozen_w[frozen] = _special.expit(st._pinned[frozen])
        return st

    @property
    def log_odds(self) -> np.ndarray:
        """Every stream's log odds, a fresh array."""
        out = self._pinned.copy()
        out[self._live] = self._l
        return out

    def to_arrays(self) -> dict:
        return {"log_odds": self.log_odds}

    def _advance(self, log_lr: np.ndarray) -> None:
        _shiryaev(self.theta, self._l, log_lr)

    def _pin(self, drop: np.ndarray, keep: np.ndarray) -> None:
        self._pinned[self._live.take(drop)] = self._l.take(drop)
        self._l = self._l[keep]

    @property
    def w_live(self) -> np.ndarray:
        return _special.expit(self._l)


class PooledLogLRError(ValueError):
    """Finite log likelihood ratios whose pooled sum is not finite: it
    overflows one way, or both ways into NaN."""


class DependentPosteriorState(_Backend):
    """Aggregated posterior when every stream shares one change time.

    The i.i.d. recursion on one pooled stream whose log likelihood ratio is
    the sum over all K streams: ``log_rho`` is the log posterior odds of
    the shared change having happened strictly before the current time,
    and every stream reports w = rho / (1 + rho).  The streams are
    deactivated jointly, after which ``log_rho`` no longer moves, so the
    pinned w is ``expit(log_rho)``; a checkpoint's ``frozen_w`` is that
    image (0.0 before the freeze), and ``from_arrays`` refuses any other.
    ``advance`` refuses a pooled sum that is not finite
    (:class:`PooledLogLRError`) before anything moves.
    """

    label = "jointly dependent"

    def __init__(self, theta: float, k: int):
        self.theta = theta
        self.t = 0
        self._set_live(np.arange(k))
        self._l = np.full(1, NEG_INF)  # log_rho
        self._frozen_w = np.zeros(k)

    @classmethod
    def from_arrays(cls, theta: float, k: int, t: int, frozen, log_rho,
                    frozen_w) -> "DependentPosteriorState":
        frozen = _shaped("frozen", frozen, (k,), bool)
        if frozen.any() != frozen.all():
            raise ValueError("dependent streams are deactivated jointly")
        st = cls(theta, k)
        st.t, st._l[0] = t, _shaped("log_rho", log_rho, ())
        if frozen.all():
            st.freeze(~frozen, st.w_live)
        if not np.array_equal(_shaped("frozen_w", frozen_w, ()), st.to_arrays()["frozen_w"],
                              equal_nan=True):
            raise ValueError("frozen_w must be expit(log_rho) once frozen, 0.0 before")
        return st

    @property
    def log_rho(self) -> float:
        return float(self._l[0])

    def to_arrays(self) -> dict:
        return {"log_rho": self.log_rho, "frozen_w": float(self._frozen_w[0])}

    def _advance(self, log_lr: np.ndarray) -> None:
        if log_lr.size:  # every stream is live
            with np.errstate(over="ignore", invalid="ignore"):
                pooled = float(np.sum(log_lr))
            if not math.isfinite(pooled):
                raise PooledLogLRError(f"the pooled log likelihood ratio is {pooled!r}")
            _shiryaev(self.theta, self._l, pooled)

    def freeze(self, keep: np.ndarray, w_live: np.ndarray) -> np.ndarray:
        if keep.any() and not keep.all():
            raise ValueError("dependent streams are deactivated jointly")
        return super().freeze(keep, w_live)

    @property
    def w_live(self) -> np.ndarray:
        return np.full(self._live.size, float(_special.expit(self._l[0])))


class TabularPosteriorState(_Backend):
    """Per-stream posteriors over finite-support change-time tables.

    ``log_post[k, j]`` is the log posterior mass of support point j of
    stream k (padded entries carry -inf).  w_k sums the mass of support
    points < t.  An observation at time t+1 is post-change for support
    point m exactly when m <= t, so those entries pick up its log
    likelihood ratio.  A frozen stream reports ``_frozen_w``, its posterior
    when it was frozen: its mass no longer moves, but more of its support
    would fall below t.
    """

    label = "tabular"

    def __init__(self, supports, masses):
        k = len(supports)
        width = max(len(s) for s in supports)
        self.t = 0
        self.support = np.full((k, width), math.inf)
        self.log_post = np.full((k, width), NEG_INF)
        for i, (sup, mas) in enumerate(zip(supports, masses)):
            self.support[i, :len(sup)] = sup
            with np.errstate(divide="ignore"):
                self.log_post[i, :len(mas)] = np.log(mas)
        self._set_live(np.arange(k))
        self._frozen_w = np.zeros(k)

    @classmethod
    def from_arrays(cls, supports, masses, t: int, frozen, log_post,
                    frozen_w) -> "TabularPosteriorState":
        st = cls(supports, masses)
        st.t = t
        st._set_live(np.flatnonzero(~_shaped("frozen", frozen, st._frozen_w.shape, bool)))
        st.log_post = _shaped("log_post", log_post, st.log_post.shape)
        st._frozen_w = _shaped("frozen_w", frozen_w, st._frozen_w.shape)
        return st

    def to_arrays(self) -> dict:
        return {"log_post": self.log_post, "frozen_w": self._frozen_w}

    def _advance(self, log_lr: np.ndarray) -> None:
        live = self._live
        rows = self.log_post[live]
        rows = rows + np.where(self.support[live] < self.t + 1, log_lr[:, None], 0.0)
        self.log_post[live] = rows - _logsumexp_rows(rows)[:, None]

    @property
    def w_live(self) -> np.ndarray:
        changed = self.support < self.t
        w = np.exp(_logsumexp_rows(np.where(changed, self.log_post, NEG_INF)))
        # a probability can round to just above 1; in-range values keep their bits
        return np.minimum(w[self.live], 1.0)


class PartialDepPosterior(_Backend):
    """Streaming per-stream posteriors under the partially dependent model,
    tolerating deactivated streams.

    Keeps the cumulative log likelihood ratio path of the live streams
    only, in a column-growable (rows, capacity) buffer, plus a length-t
    accumulator of sum_k log Lam_k(m) over the frozen streams.
    A stream frozen at time u contributes the fixed log Lam_k(m) for m < u
    and nothing for m >= u, so on the first ``advance`` after its freeze
    its row is folded into the accumulator once and dropped; neither is
    touched again.  Until then its row stays, so freezing never changes
    ``w`` at the current time.  Each step costs O(live streams * t).  Its
    own reported posterior is pinned at deactivation; live streams' values
    are the exact conditional probabilities given all data observed so far.
    """

    label = "partially dependent"

    def __init__(self, theta: float, eta: float, k: int):
        self.theta = theta
        self.eta = eta
        self.t = 0
        self._ids = np.arange(k)              # stream id per buffer row, increasing
        self._hist = np.zeros((k, 8))         # columns 0..t: cumulative log LR
        self._acc = np.zeros(8)               # [m]: sum of frozen streams' log Lam(m)
        self._stopped_at = np.full(k, -1)     # observation time after which frozen
        self._set_live(np.arange(k))
        self._frozen_w = np.zeros(k)
        self._work = np.empty(0)              # scratch of ``w``, never checkpointed
        self._mask = np.empty(0, bool)

    @classmethod
    def from_arrays(cls, theta: float, eta: float, k: int, t: int, frozen,
                    stopped_at, frozen_w, history, acc) -> "PartialDepPosterior":
        """Rebuild from :meth:`to_arrays`: ``history`` holds the rows of the
        streams live or frozen at ``t`` (increasing id), columns 0..t."""
        stopped_at = _shaped("stopped_at", stopped_at, (k,), int)
        frozen_w = _shaped("frozen_w", frozen_w, (k,))
        if not np.array_equal(frozen, stopped_at >= 0) or np.any(stopped_at > t):
            raise ValueError("stop times disagree with the frozen streams")
        live = (stopped_at < 0) | (stopped_at == t)
        history = _shaped("history", history, (np.count_nonzero(live), t + 1))
        st = cls(theta, eta, k)
        st.t = t
        st._stopped_at, st._frozen_w = stopped_at, frozen_w
        st._set_live(np.flatnonzero(stopped_at < 0))
        st._set_rows(np.flatnonzero(live), history, max(8, 2 * (t + 1)))
        st._acc[:t] = _shaped("acc", acc, (t,))
        return st

    def to_arrays(self) -> dict:
        """State as arrays: ``history`` (buffer rows, columns 0..t), the
        accumulator ``acc`` (length t), ``stopped_at`` and ``frozen_w``."""
        return {"history": self._hist[:, :self.t + 1], "acc": self._acc[:self.t],
                "stopped_at": self._stopped_at, "frozen_w": self._frozen_w}

    def _set_rows(self, ids: np.ndarray, history: np.ndarray, capacity: int) -> None:
        """Reallocate the buffer (and accumulator) with rows ``ids``."""
        self._ids = ids
        self._hist = np.zeros((len(ids), capacity))
        self._hist[:, :history.shape[1]] = history
        acc = np.zeros(capacity)
        acc[:len(self._acc)] = self._acc
        self._acc = acc

    def _fold(self, rows: np.ndarray, u: int) -> None:
        """Add the fixed log Lam(m), m < u, of streams stopped at ``u``
        (history ``rows``, columns 0..u) to the accumulator."""
        if u and len(rows) and self.eta > 0.0:
            self._acc[:u] += _log_lam(self.eta, rows[:, u:u + 1] - rows[:, :u]).sum(axis=0)

    def _advance(self, log_lr: np.ndarray) -> None:
        t = self.t
        gone = self._stopped_at[self._ids] >= 0
        if gone.any():
            self._fold(self._hist[gone, :t + 1], t)
            self._set_rows(self._live, self._hist[~gone, :t + 1], len(self._acc))
        if t + 2 > self._hist.shape[1]:
            self._set_rows(self._ids, self._hist[:, :t + 1], 2 * (t + 2))
        # past the fold the rows are the live streams, in ``live`` order
        np.add(self._hist[:, t], log_lr, out=self._hist[:, t + 1])

    def _pin(self, drop: np.ndarray, keep: np.ndarray) -> None:
        self._stopped_at[self._live.take(drop)] = self.t

    def _scratch(self, t: int) -> tuple:
        """Two float and two bool (rows, t) arrays for ``w``, views of
        buffers kept across steps and grown by doubling, as the history is."""
        n = len(self._ids) * t
        if self._work.size < 2 * n:
            self._work = np.empty(max(2 * n, 2 * self._work.size))
            self._mask = np.empty(self._work.size, bool)
        return (*self._work[:2 * n].reshape(2, -1, t),
                *self._mask[:2 * n].reshape(2, -1, t))

    @property
    def w_live(self) -> np.ndarray:
        t = self.t
        live = self._stopped_at[self._ids] < 0
        if t == 0 or self.eta == 0.0 or not live.any():
            return np.zeros(self.live.size)
        h = self._hist[:, :t + 1]
        l_km, log_pk, top, tiny = self._scratch(t)
        # every buffered row is observed through t: l[k, m] is stream k's
        # log LR for the data after a change at m
        np.subtract(h[:, t:t + 1], h[:, :t], out=l_km)
        np.add(l_km, math.log(self.eta), out=log_pk)
        log_lam = (l_km if self.eta == 1.0
                   else np.logaddexp(log_pk, math.log1p(-self.eta), out=l_km))
        log_pk -= log_lam
        m = np.arange(t)
        log_joint = (math.log(self.theta) + m * math.log1p(-self.theta)
                     + (self._acc[:t] + log_lam.sum(axis=0)))
        log_tail = t * math.log1p(-self.theta)
        log_z = _logsumexp_rows(np.append(log_joint, log_tail)[None, :])[0]
        log_pk += log_joint - log_z
        w_rows = np.exp(_logsumexp_rows(log_pk, (l_km, top, tiny)))
        # a probability can round to just above 1; in-range values keep their bits
        return np.minimum(w_rows[live], 1.0)

