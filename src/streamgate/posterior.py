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

Besides the homogeneous recursion this module provides:

* the completely dependent ensemble posterior (all streams share one
  change time), carried as a single aggregated log-odds scalar;
* the exact partially dependent posterior (streams change with the shared
  time only with probability eta), obtained by finite summation over the
  shared change time with the future tail collapsed analytically;
* finite-support (tabular) per-stream posteriors;
* the reference path of a single never-deactivated stream, whose
  distribution defines the large-ensemble deactivation thresholds.

States are small immutable-by-convention containers; update functions
return new states and never mutate their inputs, so snapshots are safe to
share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, logsumexp

from .model import GeometricPrior

NEG_INF = -math.inf


def log_odds_from_prob(w) -> np.ndarray | float:
    """Map probabilities in [0, 1] to log-odds in [-inf, inf]."""
    w = np.asarray(w, dtype=float)
    if np.any((w < 0.0) | (w > 1.0)):
        raise ValueError("probabilities must lie in [0, 1]")
    with np.errstate(divide="ignore"):
        out = np.log(w) - np.log1p(-w)
    return out if out.ndim else float(out)


def prob_from_log_odds(log_odds) -> np.ndarray | float:
    out = expit(np.asarray(log_odds, dtype=float))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class PosteriorState:
    """Per-stream posterior state for independently changing streams.

    ``log_odds[k]`` carries w_k as log odds; ``frozen[k]`` marks streams
    whose posterior is pinned (deactivated streams keep their last value).
    """

    t: int
    log_odds: np.ndarray
    frozen: np.ndarray

    @classmethod
    def initial(cls, k: int) -> "PosteriorState":
        return cls(t=0, log_odds=np.full(k, NEG_INF),
                   frozen=np.zeros(k, dtype=bool))

    @property
    def w(self) -> np.ndarray:
        return expit(self.log_odds)

    def freeze(self, idx) -> "PosteriorState":
        frozen = self.frozen.copy()
        frozen[idx] = True
        return PosteriorState(self.t, self.log_odds.copy(), frozen)


def update_posterior(state: PosteriorState, theta: float, log_lr_values,
                     active) -> PosteriorState:
    """Advance the geometric-prior recursion one step for the active streams.

    ``log_lr_values`` must align with ``active``; frozen and inactive
    streams keep their values and only ``t`` advances for them.
    """
    active = np.asarray(active, dtype=int)
    log_lr_values = np.asarray(log_lr_values, dtype=float)
    if log_lr_values.shape != active.shape:
        raise ValueError("log_lr_values must align with the active index set")
    if np.any(state.frozen[active]):
        raise ValueError("cannot update a frozen stream")
    log_odds = state.log_odds.copy()
    log_odds[active] = (log_lr_values
                        + np.logaddexp(math.log(theta), log_odds[active])
                        - math.log1p(-theta))
    return PosteriorState(state.t + 1, log_odds, state.frozen.copy())


def inclusive_change_prob(theta: float, v) -> np.ndarray | float:
    """P(change by now, inclusive) from P(change strictly before now).

    Identity: delta = theta + (1-theta) v.
    """
    v = np.asarray(v, dtype=float)
    if np.any((v < 0.0) | (v > 1.0)):
        raise ValueError("v must lie in [0, 1]")
    out = theta + (1.0 - theta) * v
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class DependentPosteriorState:
    """Aggregated posterior when every stream shares one change time.

    ``log_rho`` is the log posterior odds of the shared change having
    happened strictly before the current time; w = rho / (1 + rho).
    """

    t: int
    log_rho: float

    @classmethod
    def initial(cls) -> "DependentPosteriorState":
        return cls(t=0, log_rho=NEG_INF)

    @property
    def w(self) -> float:
        return float(expit(self.log_rho))


def update_dependent(state: DependentPosteriorState, theta: float,
                     sum_log_lr: float) -> DependentPosteriorState:
    """Advance the shared-change posterior with the summed log likelihood
    ratio of all K streams at the new time."""
    log_rho = (sum_log_lr
               + np.logaddexp(math.log(theta), state.log_rho)
               - math.log1p(-theta))
    return DependentPosteriorState(state.t + 1, float(log_rho))


def _log_lam(eta: float, l_km: np.ndarray) -> np.ndarray:
    """log Lam_k(m) = log(eta * exp(l_k(m)) + 1 - eta), elementwise (eta > 0).

    ``math.log(eta) + l_km - log_lam`` is then log P(stream k changed at m |
    tau0 = m, its data); at eta = 1 that is exactly 0.
    """
    if eta == 1.0:
        return l_km
    return np.logaddexp(math.log(eta) + l_km, math.log1p(-eta))


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """log sum exp along axis 1 of a finite 2-d array.

    The operations of ``scipy.special.logsumexp`` (the row maxima are
    summed apart and re-added with ``log1p``), so results are bit-identical
    to it, without its array-API dispatch and copies.
    """
    a_max = a.max(axis=1, keepdims=True)
    top = a == a_max
    d = a - a_max
    # exp is slow wherever its result is subnormal or zero, which is most of
    # an array of long-run posteriors; below -746 the result is exactly 0
    tiny = d < -708.0
    e = np.exp(np.where(tiny, 0.0, d))
    e[top | tiny] = 0.0
    sub = tiny & (d >= -746.0)
    e[sub] = np.exp(d[sub])
    n_top = np.count_nonzero(top, axis=1, keepdims=True).astype(float)
    s = e.sum(axis=1, keepdims=True)
    s = np.where(s == 0, s, s / n_top)
    return (np.log1p(s) + np.log(n_top) + a_max)[:, 0]


def posterior_partial_dep(tau0_prior: GeometricPrior, eta: float,
                          log_lr_matrix) -> np.ndarray:
    """Exact per-stream posteriors under the partially dependent model.

    ``log_lr_matrix`` has shape (K, t): the log likelihood ratio of every
    observation of every stream through time t (no deactivation).  Stream
    k changes at the shared time tau0 with probability eta, else never.

    Conditioning on tau0 = m < t and collapsing the m >= t tail (where the
    data carry no signal and the likelihood contribution is 1):

        P(tau0 = m | data) propto theta (1-theta)^m * prod_k Lam_k(m)
        Lam_k(m) = eta * exp(l_k(m)) + (1 - eta)
        w_k = sum_m P(tau0 = m | data) * eta exp(l_k(m)) / Lam_k(m)

    with l_k(m) the log likelihood ratio of stream k's data after time m.
    """
    llr = np.atleast_2d(np.asarray(log_lr_matrix, dtype=float))
    k, t = llr.shape
    if t < 1:
        raise ValueError("need at least one observation time")
    if eta == 0.0:
        return np.zeros(k)
    theta = tau0_prior.theta
    cum = np.concatenate([np.zeros((k, 1)), np.cumsum(llr, axis=1)], axis=1)
    # l[k, m] = sum of stream-k log LRs over times m+1..t, for m = 0..t-1
    l_km = cum[:, t:t + 1] - cum[:, :t]
    log_lam = _log_lam(eta, l_km)
    log_pk = math.log(eta) + l_km - log_lam
    m = np.arange(t)
    log_joint = math.log(theta) + m * math.log1p(-theta) + log_lam.sum(axis=0)
    log_tail = t * math.log1p(-theta)
    log_z = logsumexp(np.append(log_joint, log_tail))
    return np.exp(logsumexp(log_joint[None, :] - log_z + log_pk, axis=1))


def reference_posterior_paths(theta: float, obs_model, horizon: int, n_paths: int,
                              rng: np.random.Generator) -> np.ndarray:
    """Posterior paths of never-deactivated streams under the i.i.d. model.

    Returns an (n_paths, horizon+1) array; column 0 is the prior value 0.
    The marginal mean at time t is 1 - (1-theta)^t.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    prior = GeometricPrior(theta)
    tau = prior.sample(n_paths, rng)
    out = np.empty((n_paths, horizon + 1))
    out[:, 0] = 0.0
    log_odds = np.full(n_paths, NEG_INF)
    lt, l1t = math.log(theta), math.log1p(-theta)
    for t in range(1, horizon + 1):
        x = obs_model.sample(tau < t, rng)
        log_odds = obs_model.log_lr(x) + np.logaddexp(lt, log_odds) - l1t
        out[:, t] = expit(log_odds)
    return out


def reference_posterior_path(theta: float, obs_model, horizon: int,
                             rng: np.random.Generator) -> np.ndarray:
    """Single reference path; see :func:`reference_posterior_paths`."""
    return reference_posterior_paths(theta, obs_model, horizon, 1, rng)[0]


@dataclass(frozen=True)
class TabularPosteriorState:
    """Per-stream posteriors over finite-support change-time tables.

    ``log_post[k, j]`` is the log posterior mass of support point j of
    stream k (padded entries carry -inf).  w_k sums the mass of support
    points < t.
    """

    t: int
    support: np.ndarray    # (K, S) float, padded with +inf
    log_post: np.ndarray   # (K, S)
    frozen: np.ndarray

    @classmethod
    def initial(cls, supports, masses) -> "TabularPosteriorState":
        k = len(supports)
        width = max(len(s) for s in supports)
        support = np.full((k, width), math.inf)
        log_post = np.full((k, width), NEG_INF)
        for i, (sup, mas) in enumerate(zip(supports, masses)):
            support[i, :len(sup)] = sup
            with np.errstate(divide="ignore"):
                log_post[i, :len(mas)] = np.log(mas)
        return cls(t=0, support=support, log_post=log_post,
                   frozen=np.zeros(k, dtype=bool))

    @property
    def w(self) -> np.ndarray:
        changed = self.support < self.t
        return np.exp(logsumexp(np.where(changed, self.log_post, NEG_INF), axis=1))

    def freeze(self, idx) -> "TabularPosteriorState":
        frozen = self.frozen.copy()
        frozen[idx] = True
        return TabularPosteriorState(self.t, self.support, self.log_post.copy(), frozen)


def update_tabular(state: TabularPosteriorState, log_lr_values,
                   active) -> TabularPosteriorState:
    """Advance finite-support posteriors one step for the active streams.

    An observation at the new time t+1 is post-change for support point m
    exactly when m <= t, so those entries pick up the log likelihood ratio.
    """
    active = np.asarray(active, dtype=int)
    log_lr_values = np.asarray(log_lr_values, dtype=float)
    if log_lr_values.shape != active.shape:
        raise ValueError("log_lr_values must align with the active index set")
    if np.any(state.frozen[active]):
        raise ValueError("cannot update a frozen stream")
    t_new = state.t + 1
    log_post = state.log_post.copy()
    rows = log_post[active]
    rows = rows + np.where(state.support[active] < t_new, log_lr_values[:, None], 0.0)
    rows = rows - logsumexp(rows, axis=1, keepdims=True)
    log_post[active] = rows
    return TabularPosteriorState(t_new, state.support, log_post, state.frozen.copy())


class PartialDepPosterior:
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

    def __init__(self, theta: float, eta: float, k: int):
        self.theta = theta
        self.eta = eta
        self.k = k
        self.t = 0
        self._ids = np.arange(k)              # stream id per buffer row, increasing
        self._row = np.arange(k)              # buffer row per stream id, -1 once folded
        self._hist = np.zeros((k, 8))         # columns 0..t: cumulative log LR
        self._acc = np.zeros(8)               # [m]: sum of frozen streams' log Lam(m)
        self._stopped_at = np.full(k, -1)     # observation time after which frozen
        self._frozen_w = np.zeros(k)

    @classmethod
    def from_arrays(cls, theta: float, eta: float, t: int, history, acc,
                    stopped_at, frozen_w) -> "PartialDepPosterior":
        """Rebuild from :meth:`arrays`: ``history`` holds the rows of the
        streams live or frozen at ``t`` (increasing id), columns 0..t."""
        stopped_at = np.asarray(stopped_at, dtype=int)
        frozen_w = np.asarray(frozen_w, dtype=float)
        st = cls(theta, eta, len(stopped_at))
        ids = np.flatnonzero((stopped_at < 0) | (stopped_at == t))
        history = np.asarray(history, dtype=float).reshape(len(ids), t + 1)
        acc = np.asarray(acc, dtype=float)
        if (frozen_w.shape != stopped_at.shape or acc.shape != (t,)
                or np.any(stopped_at > t)):
            raise ValueError("inconsistent partially dependent posterior arrays")
        st.t = t
        st._stopped_at, st._frozen_w = stopped_at, frozen_w
        st._set_rows(ids, history, max(8, 2 * (t + 1)))
        st._acc[:t] = acc
        return st

    @classmethod
    def from_full_history(cls, theta: float, eta: float, cum, stopped_at,
                          frozen_w) -> "PartialDepPosterior":
        """Rebuild from every stream's (K, t+1) cumulative log LR path,
        folding frozen streams by stop time, in the order a live run does."""
        cum = np.asarray(cum, dtype=float)
        stopped_at = np.asarray(stopped_at, dtype=int)
        t = cum.shape[1] - 1
        st = cls.from_arrays(theta, eta, t, cum[(stopped_at < 0) | (stopped_at == t)],
                             np.zeros(t), stopped_at, frozen_w)
        for u in np.unique(stopped_at[(stopped_at >= 0) & (stopped_at < t)]):
            st._fold(cum[stopped_at == u], u)
        return st

    def arrays(self) -> dict:
        """State as arrays: ``history`` (buffer rows, columns 0..t), the
        accumulator ``acc`` (length t), ``stopped_at`` and ``frozen_w``."""
        return {"history": self._hist[:, :self.t + 1], "acc": self._acc[:self.t],
                "stopped_at": self._stopped_at, "frozen_w": self._frozen_w}

    def _set_rows(self, ids: np.ndarray, history: np.ndarray, capacity: int) -> None:
        """Reallocate the buffer (and accumulator) with rows ``ids``."""
        self._ids = ids
        self._row = np.full(self.k, -1)
        self._row[ids] = np.arange(len(ids))
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

    def advance(self, log_lr_values, active) -> None:
        active = np.asarray(active, dtype=int)
        log_lr_values = np.asarray(log_lr_values, dtype=float)
        if log_lr_values.shape != active.shape:
            raise ValueError("log_lr_values must align with the active index set")
        if active.size and (active.min() < 0 or active.max() >= self.k
                            or np.any(self._stopped_at[active] >= 0)):
            raise ValueError("cannot advance a frozen or unknown stream")
        t = self.t
        gone = self._stopped_at[self._ids] >= 0
        if gone.any():
            self._fold(self._hist[gone, :t + 1], t)
            keep = ~gone
            self._set_rows(self._ids[keep], self._hist[keep, :t + 1], len(self._acc))
        if t + 2 > self._hist.shape[1]:
            self._set_rows(self._ids, self._hist[:, :t + 1], 2 * (t + 2))
        col = self._hist[:, t + 1]
        col[:] = self._hist[:, t]
        col[self._row[active]] += log_lr_values
        self.t = t + 1

    def freeze(self, idx, w_idx=None) -> None:
        """Pin streams ``idx``; ``w_idx`` passes their current posteriors
        when the caller already holds them."""
        idx = np.asarray(idx, dtype=int)
        if not idx.size:
            return
        if idx.min() < 0 or idx.max() >= self.k or np.any(self._stopped_at[idx] >= 0):
            raise ValueError("cannot freeze a frozen or unknown stream")
        self._frozen_w[idx] = self.w[idx] if w_idx is None else w_idx
        self._stopped_at[idx] = self.t

    @property
    def frozen(self) -> np.ndarray:
        return self._stopped_at >= 0

    @property
    def w(self) -> np.ndarray:
        t = self.t
        out = self._frozen_w.copy()  # live streams hold 0 here
        live = self._stopped_at[self._ids] < 0
        if t == 0 or self.eta == 0.0 or not live.any():
            return out
        h = self._hist[:, :t + 1]
        # every buffered row is observed through t: l[k, m] is stream k's
        # log LR for the data after a change at m
        l_km = h[:, t:t + 1] - h[:, :t]
        log_lam = _log_lam(self.eta, l_km)
        log_pk = math.log(self.eta) + l_km - log_lam
        m = np.arange(t)
        log_joint = (math.log(self.theta) + m * math.log1p(-self.theta)
                     + (self._acc[:t] + log_lam.sum(axis=0)))
        log_tail = t * math.log1p(-self.theta)
        log_z = _logsumexp_rows(np.append(log_joint, log_tail)[None, :])[0]
        w_rows = np.exp(_logsumexp_rows(log_joint[None, :] - log_z + log_pk))
        # a probability can round to just above 1; in-range values keep their bits
        out[self._ids[live]] = np.minimum(w_rows[live], 1.0)
        return out
