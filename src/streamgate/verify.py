"""Brute-force oracles and exact desk-scale optimality checks.

Everything here exists to validate the production code paths against an
independent route:

* :func:`brute_force_posterior` recomputes the change posterior by direct
  summation over candidate change times (quadratic in t) instead of the
  streaming recursion; :func:`posterior_partial_dep` does the same for
  the partially dependent model, in one batch over the whole log
  likelihood ratio matrix instead of the streaming backend.
* :func:`brute_force_max_subset` searches all 2^n index subsets for the
  largest one whose mean posterior fits the budget, instead of sorting
  and scanning prefixes.
* The ordered-vector utilities (:func:`ordered_leq`,
  :func:`feasible_prefix_size`) mirror the selection rule on sorted
  vectors, together with randomized checks that :func:`one_step_rule`
  has the monotonicity property that drives the optimality theory.
* One exact recursion (`fractions.Fraction`) over the observation tree of
  small Bernoulli instances, streams of equal state grouped and a node
  budget as its only size limit, gives the expected performance of the
  best procedure a retention rule allows: the supremum over *all*
  LFNR-controlling procedures, the shipped :func:`one_step_rule` (fed the
  float images of the exact posteriors), or a baseline.
  :func:`conflicting_priors_enumeration` reproduces the four-stream
  instance whose time-2 and time-4 optima are incompatible.
* :data:`SUITES` is what ``streamgate verify`` runs: each suite takes
  ``(trials, rng)``, which only the randomized ones read, and returns
  ``(ok, detail)``.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, fields
from functools import cache, cached_property, wraps
from fractions import Fraction

import numpy as np

from . import _special
from .detector import one_step_rule
from .model import GeometricPrior, conflicting_priors_model
from .posterior import PartialDepPosterior, PosteriorState, _log_lam

MAX_SUBSET_DIM = 20


# ---------------------------------------------------------------------------
# float-side oracles
# ---------------------------------------------------------------------------

def brute_force_posterior(theta: float, log_lrs) -> float:
    """Change posterior by direct summation over candidate change times.

    Given per-observation log likelihood ratios through time t, returns
    P(change strictly before t | data) for a geometric(theta) change time:
    the weighted likelihood-ratio sum over change times 0..t-1 against the
    never-changed-yet tail, stabilized by log-sum-exp.
    """
    llr = np.asarray(log_lrs, dtype=float)
    t = llr.size
    if t == 0:
        return 0.0
    # suffix[m] = sum of log ratios after a change at m; summed right-to-left
    # so a -inf ratio (zero likelihood) propagates without inf - inf
    suffix = np.cumsum(llr[::-1])[::-1]
    m = np.arange(t)
    terms = math.log(theta) + m * math.log1p(-theta) + suffix
    tail = t * math.log1p(-theta)
    return float(np.exp(_special.logsumexp(terms) - _special.logsumexp(np.append(terms, tail))))


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
    log_z = _special.logsumexp(np.append(log_joint, log_tail))
    return np.exp(_special.logsumexp(log_joint[None, :] - log_z + log_pk, axis=1))


def brute_force_max_subset(w, alpha: float) -> int:
    """Largest subset size with mean at most alpha, by exhaustive search.

    Sums use exactly rounded summation so boundary ties are decided the
    same way regardless of subset enumeration order.
    """
    w = np.asarray(w, dtype=float)
    n = w.size
    if n > MAX_SUBSET_DIM:
        raise ValueError(f"exhaustive search capped at {MAX_SUBSET_DIM} streams, got {n}")
    for size in range(n, 0, -1):
        if any(math.fsum(w[list(combo)]) <= alpha * size
               for combo in itertools.combinations(range(n), size)):
            return size
    return 0


# ---------------------------------------------------------------------------
# ordered vectors: the sorted-posterior state space and its partial order
# ---------------------------------------------------------------------------

def _check_sorted(u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.ndim != 1:
        raise ValueError("ordered vectors are one-dimensional")
    if u.size and (np.any((u < 0.0) | (u > 1.0)) or np.any(np.diff(u) < 0.0)):
        raise ValueError("entries must be nondecreasing probabilities")
    return u


def ordered_leq(u, v) -> bool:
    """Partial order on sorted vectors: u <= v iff u has at least as many
    entries and is entrywise at most v on v's length.  Every vector is <=
    the empty vector."""
    u = _check_sorted(u)
    v = _check_sorted(v)
    return u.size >= v.size and bool(np.all(u[:v.size] <= v))


def feasible_prefix_size(u, alpha: float) -> int:
    """Largest n with u_1 + ... + u_n <= alpha * n for a sorted vector."""
    u = _check_sorted(u)
    best = 0
    for n in range(1, u.size + 1):
        if math.fsum(u[:n]) <= alpha * n:
            best = n
    return best


def _below(v: np.ndarray, max_extra: int, rng: np.random.Generator) -> np.ndarray:
    """A sorted u <= v: v's entries lowered, plus up to ``max_extra`` extras.

    Order statistics preserve the entrywise domination, and added entries
    only shift early order statistics down.
    """
    lowered = v * rng.random(v.size)
    extras = rng.random(int(rng.integers(0, max_extra + 1)))
    return np.sort(np.concatenate([lowered, extras]))


def random_ordered_pair(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Sample (u, v) with u <= v in the partial order, v of at most 8
    entries and u of at most 16."""
    v = np.sort(rng.random(int(rng.integers(0, 9))))
    return _below(v, 8, rng), v


def monotone_selection_check(n_trials: int, alpha: float,
                             rng: np.random.Generator):
    """Randomized check that the selection rule is order preserving.

    Samples pairs u <= v and asserts that what :func:`one_step_rule` keeps
    of u precedes what it keeps of v (on a sorted vector it keeps the first
    N*); returns (True, None) or (False, (u, v)) with the first
    counterexample.
    """
    for _ in range(n_trials):
        u, v = random_ordered_pair(rng)
        if not ordered_leq(u[one_step_rule(u, alpha)], v[one_step_rule(v, alpha)]):
            return False, (u, v)
    return True, None


def partial_order_axioms_check(n_trials: int, rng: np.random.Generator):
    """Randomized reflexivity / antisymmetry / transitivity checks.

    Transitivity is exercised on constructed chains u <= v <= w;
    antisymmetry on equal-dimension pairs.  Returns (True, None) or
    (False, description).
    """
    for _ in range(n_trials):
        v, w = random_ordered_pair(rng)
        u = _below(v, 3, rng)
        if not ordered_leq(v, v):
            return False, f"reflexivity failed for {v}"
        if not (ordered_leq(u, v) and ordered_leq(v, w)):
            return False, f"chain construction broken for {u}, {v}, {w}"
        if not ordered_leq(u, w):
            return False, f"transitivity failed for {u} <= {v} <= {w}"
        if v.size == w.size and ordered_leq(v, w) and ordered_leq(w, v) \
                and not np.array_equal(v, w):
            return False, f"antisymmetry failed for {v}, {w}"
    return True, None


# ---------------------------------------------------------------------------
# exact-arithmetic streams (Bernoulli observations, Fraction probabilities)
# ---------------------------------------------------------------------------

class _State:
    """A stream state that computes its next step and its hash once, not at
    every node.  Subclasses keep this ``__hash__``: a dataclass would make
    its own, which rehashes every Fraction field at each memo lookup."""

    @cached_property
    def step(self) -> tuple:
        """P(next observation is 1) and the state after each possible one."""
        p = self.predictive_one()
        return p, {x: self.advance(x) for x, q in ((1, p), (0, 1 - p)) if q}

    @cached_property
    def _hash(self) -> int:
        return hash(tuple(getattr(self, f.name) for f in fields(self)))  # the dataclass hash

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True, order=True)
class _GeomStream(_State):
    """Exact posterior state of one stream under the geometric prior."""

    __hash__ = _State.__hash__

    theta: Fraction
    p0: Fraction
    p1: Fraction
    w: Fraction = Fraction(0)

    def predictive_one(self) -> Fraction:
        delta = self.theta + (1 - self.theta) * self.w
        return delta * self.p1 + (1 - delta) * self.p0

    def advance(self, x: int) -> "_GeomStream":
        lr = self.p1 / self.p0 if x else (1 - self.p1) / (1 - self.p0)
        num = lr * (self.theta + (1 - self.theta) * self.w)
        den = (1 - self.theta) * (1 - self.w)
        return _GeomStream(self.theta, self.p0, self.p1, num / (num + den))


@dataclass(frozen=True, order=True)
class _TableStream(_State):
    """Exact posterior state of one stream with a finite change-time prior.
    The id comes first, so streams never share a state and ties break by id."""

    __hash__ = _State.__hash__

    sid: int
    support: tuple[int, ...]
    post: tuple[Fraction, ...]
    p0: Fraction
    p1: Fraction
    t: int = 0

    @property
    def w(self) -> Fraction:
        return sum((p for m, p in zip(self.support, self.post) if m < self.t), Fraction(0))

    def predictive_one(self) -> Fraction:
        return sum((p * (self.p1 if m <= self.t else self.p0)
                    for m, p in zip(self.support, self.post)), Fraction(0))

    def advance(self, x: int) -> "_TableStream":
        ones = [self.p1 if m <= self.t else self.p0 for m in self.support]
        raw = [p * (one if x else 1 - one) for p, one in zip(self.post, ones)]
        z = sum(raw, Fraction(0))
        return _TableStream(self.sid, self.support, tuple(r / z for r in raw),
                            self.p0, self.p1, self.t + 1)


def _groups(states) -> tuple:
    """A DP node: the sorted ``(state, count)`` groups of a list of states."""
    return tuple(sorted(Counter(states).items()))


@cache
def _outcomes(groups: tuple, keep: tuple) -> list:
    """``(probability, next node)`` for every number of streams in each kept
    group (``keep[i]`` streams of group i) that see a 1, binomially weighted.
    Cached for the span of one report (``_frees_outcomes``)."""
    out = [(Fraction(1), ())]
    for (s, _), c in zip(groups, keep):
        if not c:
            continue
        p, nxt = s.step
        splits = []
        for j in range(c + 1):
            q = math.comb(c, j) * p ** j * (1 - p) ** (c - j)
            if q:
                splits.append((q, (nxt.get(1),) * j + (nxt.get(0),) * (c - j)))
        out = [(pa * q, parts + split) for pa, parts in out for q, split in splits]
    return [(p, _groups(parts)) for p, parts in out]


# A retention rule maps (groups, t, alpha) to the retentions it may choose
# at selection t, each a tuple of kept counts per group; the recursion
# maximizes over them.

def _feasible(groups: tuple, t: int, alpha: Fraction) -> list:
    """Every retention whose mean posterior fits the budget: the supremum."""
    excess = [s.w - alpha for s, _ in groups]
    return [keep for keep in itertools.product(*(range(n + 1) for _, n in groups))
            if sum((c * e for c, e in zip(keep, excess)), Fraction(0)) <= 0]


def _proposed(groups: tuple, t: int, alpha: Fraction) -> list:
    """The shipped :func:`one_step_rule` on the float images of the exact
    posteriors, the groups expanded to one stream each in group order (so
    ties break as by group), its kept positions counted back per group."""
    sizes = [n for _, n in groups]
    owner = np.repeat(np.arange(len(groups)), sizes)
    kept = one_step_rule(np.repeat([float(s.w) for s, _ in groups], sizes), float(alpha))
    return [tuple(np.bincount(owner[kept], minlength=len(groups)).tolist())]


def _baseline(groups: tuple, t: int, alpha: Fraction) -> list:
    """Keep every stream whose posterior is at most alpha (always feasible)."""
    return [tuple(n if s.w <= alpha else 0 for s, n in groups)]


def _largest(groups: tuple, t: int, alpha: Fraction) -> list:
    """The feasible retentions that keep as many streams as any does."""
    subs = _feasible(groups, t, alpha)
    top = max(map(sum, subs))
    return [keep for keep in subs if sum(keep) == top]


def _then(first, rest):
    """The rule that plays ``first`` at the first selection, ``rest`` after."""
    return lambda groups, t, alpha: (first if t == 1 else rest)(groups, t, alpha)


# An objective scores a node's active streams at time t of a run scored at
# tstar: utilization counts them at every t, run length sums their 1 - w,
# and the active count counts them at tstar only.

def _util(groups: tuple, t: int, tstar: int) -> Fraction:
    return Fraction(sum(n for _, n in groups))


def _runlength(groups: tuple, t: int, tstar: int) -> Fraction:
    return sum((n * (1 - s.w) for s, n in groups), Fraction(0))


def _active(groups: tuple, t: int, tstar: int) -> Fraction:
    return _util(groups, t, tstar) if t == tstar else Fraction(0)


def _exact_value(fresh, alpha: Fraction, tstar: int, objective, rule,
                 node_budget: int = 2_000_000) -> Fraction:
    """Expected ``objective`` through ``tstar`` of the best procedure among
    those whose retentions ``rule`` allows, by recursion over the whole
    observation tree from the states ``fresh`` before any data.  Nodes are
    memoized on ``(t, groups)``; needing more than ``node_budget`` of them
    is refused with ``ValueError``."""
    memo: dict = {}

    def value(t: int, groups: tuple) -> Fraction:
        here = memo.get((t, groups))
        if here is None:
            if len(memo) >= node_budget:
                raise ValueError("instance too large: observation-tree budget exceeded")
            here = objective(groups, t, tstar)
            if t < tstar:
                here += max(sum((p * value(t + 1, nxt) for p, nxt in _outcomes(groups, keep)),
                                Fraction(0)) for keep in rule(groups, t, alpha))
            memo[t, groups] = here
        return here

    root = _groups(fresh)
    return sum((p * value(1, nxt) for p, nxt in _outcomes(root, tuple(n for _, n in root))),
               Fraction(0))


# ---------------------------------------------------------------------------
# desk-scale optimality reports
# ---------------------------------------------------------------------------

def _frees_outcomes(report):
    """``report``, with the ``_outcomes`` cache its recursions share freed
    when it returns."""
    @wraps(report)
    def run(*args, **kwargs):
        try:
            return report(*args, **kwargs)
        finally:
            _outcomes.cache_clear()
    return run


@dataclass(frozen=True)
class OptimalityRow:
    """Exact expected performance at one time point, proposed vs supremum."""

    t: int
    util_supremum: Fraction
    util_proposed: Fraction
    util_switch_after_one: Fraction
    util_baseline: Fraction
    runlength_supremum: Fraction
    runlength_proposed: Fraction
    max_expected_active: Fraction
    expected_active_proposed: Fraction


@_frees_outcomes
def dp_optimality_report(theta, p0, p1, alpha, n_streams: int,
                         horizon: int) -> list[OptimalityRow]:
    """Exact comparison of the proposed procedure against the supremum over
    all LFNR-controlling procedures, for a homogeneous Bernoulli instance.

    Also reports two reference procedures: the keep-under-alpha baseline
    and the procedure that plays the baseline once before switching to the
    one-step rule (their utilizations sandwich between baseline and
    proposed).  Exhaustive over the observation tree, with identical
    streams grouped by posterior; an instance that exceeds the node budget
    of :func:`_exact_value` is refused with ``ValueError``.  Parameters
    must be exact (Fractions or strings like "3/10"), never floats.
    """
    if any(isinstance(x, float) for x in (theta, p0, p1, alpha)):
        raise TypeError("theta, p0, p1 and alpha must be exact (Fraction, int, or string)")
    theta, p0, p1, alpha = map(Fraction, (theta, p0, p1, alpha))
    fresh = [_GeomStream(theta, p0, p1)] * n_streams
    columns = ((_util, _feasible), (_util, _proposed), (_util, _then(_baseline, _proposed)),
               (_util, _baseline), (_runlength, _feasible), (_runlength, _proposed),
               (_active, _feasible), (_active, _proposed))   # OptimalityRow's order
    return [OptimalityRow(t, *(_exact_value(fresh, alpha, t, *col) for col in columns))
            for t in range(1, horizon + 1)]


_CONFLICT_ALPHA = Fraction(34, 100)


def _conflicting_streams() -> dict:
    """The streams of ``conflicting_priors_model()``, its decimal floats read
    as the exact fractions they were written as."""
    model = conflicting_priors_model()
    p0, p1 = Fraction(str(model.obs.p0)), Fraction(str(model.obs.p1))
    return {k: _TableStream(k, sup, tuple(Fraction(str(p)) for p in mas), p0, p1)
            for k, (sup, mas) in enumerate(zip(model.supports, model.masses))}


@dataclass(frozen=True)
class ConflictingPriorsReport:
    """Exact utilization suprema for the four-stream counterexample.

    The time-2 and time-4 optima require different first retentions, so
    ``jointly_attainable`` is False: no procedure is uniformly optimal.
    """

    util_sup_t2: Fraction
    util_sup_t4: Fraction
    util_t4_among_t2_optimal: Fraction
    jointly_attainable: bool
    optimal_first_retention_t2: tuple[tuple[int, ...], ...]
    optimal_first_retention_t4: tuple[tuple[int, ...], ...]
    util_t2_proposed: Fraction
    util_t4_proposed: Fraction


def _optimal_first_choices(fresh, alpha: Fraction, tstar: int, best: Fraction) -> tuple:
    """Ids of the first retentions with which some procedure attains ``best``
    at ``tstar``, among those feasible after every first observation (so
    each forced procedure controls the LFNR).  One table stream per group,
    so a retention's counts line up with the ids."""
    root = _groups(fresh)
    candidates = set.intersection(*(set(_feasible(nxt, 1, alpha))
                                    for _, nxt in _outcomes(root, (1,) * len(root))))
    return tuple(sorted(
        tuple(s.sid for (s, _), c in zip(root, first) if c) for first in candidates
        if _exact_value(fresh, alpha, tstar, _util,
                        _then(lambda *_, first=first: [first], _feasible)) == best))


@_frees_outcomes
def conflicting_priors_enumeration() -> ConflictingPriorsReport:
    """Exhaustively enumerate the four-stream counterexample instance.

    Returns the exact suprema of expected utilization at times 2 and 4,
    the best time-4 value attainable by any procedure that is optimal at
    time 2, and whether a single procedure attains both suprema.
    """
    fresh = _conflicting_streams().values()
    alpha = _CONFLICT_ALPHA
    u2 = _exact_value(fresh, alpha, 2, _util, _feasible)
    u4 = _exact_value(fresh, alpha, 4, _util, _feasible)
    # optimality at time 2 means a maximal-size feasible first retention
    u4_constrained = _exact_value(fresh, alpha, 4, _util, _then(_largest, _feasible))
    return ConflictingPriorsReport(
        util_sup_t2=u2,
        util_sup_t4=u4,
        util_t4_among_t2_optimal=u4_constrained,
        jointly_attainable=u4_constrained == u4,
        optimal_first_retention_t2=_optimal_first_choices(fresh, alpha, 2, u2),
        optimal_first_retention_t4=_optimal_first_choices(fresh, alpha, 4, u4),
        util_t2_proposed=_exact_value(fresh, alpha, 2, _util, _proposed),
        util_t4_proposed=_exact_value(fresh, alpha, 4, _util, _proposed),
    )


# ---------------------------------------------------------------------------
# the suites of ``streamgate verify``
# ---------------------------------------------------------------------------

def _posterior_suite(trials: int, rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(trials):
        theta = rng.choice([0.01, 0.05, 0.3])
        t = int(rng.integers(1, 26))
        llr = rng.normal(0.0, 1.5, size=t)
        state = PosteriorState(theta, 1)
        for value in llr:
            state.advance([value])
        worst = max(worst, abs(state.w[0] - brute_force_posterior(theta, llr)))
    # the streaming partially dependent backend, with random freezes, against
    # the batch formula on the observed log LRs (zero after a stream's stop)
    worst_partial = 0.0
    for _ in range(trials):
        theta = float(rng.choice([0.01, 0.05, 0.3]))
        eta = float(rng.choice([0.3, 0.5, 1.0]))
        k, horizon = int(rng.integers(1, 7)), int(rng.integers(1, 26))
        post = PartialDepPosterior(theta, eta, k)
        observed = np.zeros((k, horizon))
        pinned = np.zeros(k)
        for s in range(horizon):
            live = post.live
            observed[live, s] = rng.normal(0.0, 1.5, size=live.size)
            post.advance(observed[live, s])
            want = posterior_partial_dep(GeometricPrior(theta), eta, observed[:, :s + 1])
            pinned[live] = want[live]
            w_live = post.w_live
            worst_partial = max(worst_partial,
                                float(np.abs(post.full_w(w_live) - pinned).max()))
            post.freeze(rng.random(live.size) >= 0.2, w_live)
    return (worst <= 1e-10 and worst_partial <= 1e-10,
            f"max_abs_diff={worst:.3e} partial_max_abs_diff={worst_partial:.3e}")


def _selection_suite(trials: int, rng) -> tuple[bool, str]:
    for _ in range(trials):
        n = int(rng.integers(0, 13))
        w = rng.random(n)
        alpha = float(rng.random())
        kept = one_step_rule(w, alpha)
        if len(kept) != brute_force_max_subset(w, alpha):
            return False, f"size mismatch for w={w!r} alpha={alpha!r}"
        if len(kept) != feasible_prefix_size(np.sort(w), alpha):
            return False, f"prefix mismatch for w={w!r} alpha={alpha!r}"
    # large instances with shuffled stream ids, checked against the tie
    # rule: a tie-heavy one, whose cutoff falls inside a block of ties broken
    # by id, and two that keep fewer than their 2048 smallest, one settled
    # from the block under that split that the search guesses, one whose
    # guess misses and which is sorted whole
    ties = rng.integers(0, 16, size=2000) / 32.0
    cases = [(ties, float(np.sort(ties)[:1400].mean())),
             (np.concatenate([rng.uniform(0.025, 0.05, 1300), rng.uniform(0.095, 0.105, 800)]),
              0.05),
             (np.concatenate([rng.uniform(0.0, 0.099, 700),
                              0.05 + 0.95 * 10.0 ** -rng.uniform(0, 2, 1400)]), 0.05)]
    for w, alpha in cases:
        ids = rng.permutation(4 * w.size)[:w.size]
        perm = np.argsort(ids)
        kept = ids[perm][one_step_rule(w[perm], alpha)]
        size = feasible_prefix_size(np.sort(w), alpha)
        order = np.lexsort((ids, w))
        if not np.array_equal(kept, np.sort(ids[order[:size]])):
            return False, f"{w.size}-stream instance (alpha={alpha!r}) breaks the tie rule"
    return True, (f"{trials} random instances + one 2000-stream tie-heavy instance "
                  "+ two rows short of their split")


def _ordering_suite(trials: int, rng) -> tuple[bool, str]:
    ok, bad = monotone_selection_check(trials, 0.05, rng)
    if not ok:
        return False, f"monotonicity counterexample {bad!r}"
    ok, bad = partial_order_axioms_check(trials, rng)
    if not ok:
        return False, str(bad)
    return True, f"{trials} monotonicity + axiom trials"


def _counterexample_suite(*_args) -> tuple[bool, str]:
    rep = conflicting_priors_enumeration()
    ok = rep.util_sup_t2 == 7 and rep.util_sup_t4 == 10 and not rep.jointly_attainable
    return ok, (f"U2={rep.util_sup_t2} U4={rep.util_sup_t4} "
                f"coexist={'true' if rep.jointly_attainable else 'false'}")


# The optimality grid, fixed before its first run: each (theta, p0, p1,
# alpha) at each n of OPTIMALITY_SIZES and horizon 4, mapped to whether it
# is power-checked (the keep-under-alpha baseline short of the supremum at
# some n and t, so that a rule that is not the paper's cannot pass).  Not
# checked where the baseline cannot fall short at n <= 6: at theta=3/10 and
# alpha=1/10 every posterior exceeds alpha from t=2 on (from t=1 with
# p0=1/4, p1=3/5), and (1/4, 1/10, 9/10, 1/10) needs ten streams under
# alpha to carry one above it.
OPTIMALITY_SETS = {(theta, p0, p1, alpha): (theta, alpha) != ("3/10", "1/10")
                   for theta in ("1/10", "3/10")
                   for p0, p1 in (("1/5", "4/5"), ("1/4", "3/5"))
                   for alpha in ("1/10", "3/10")} | {("1/4", "1/10", "9/10", "1/10"): False}
OPTIMALITY_SIZES = (3, 4, 5, 6)


def _optimality_suite(*_args) -> tuple[bool, str]:
    # every grid instance; reported are the (set, n, t) where proposed misses
    # the supremum in utilization, run length or active count, and the
    # power-checked sets where the baseline attains it at every n and t
    misses, short = [], {}
    for params in OPTIMALITY_SETS:
        rows = [(n, row) for n in OPTIMALITY_SIZES
                for row in dp_optimality_report(*params, n_streams=n, horizon=4)]
        misses += [(params, n, row.t) for n, row in rows if (
            row.util_proposed, row.runlength_proposed, row.expected_active_proposed) != (
            row.util_supremum, row.runlength_supremum, row.max_expected_active)]
        short[params] = any(row.util_baseline < row.util_supremum for _, row in rows)
    flat = [params for params, power in OPTIMALITY_SETS.items() if power and not short[params]]
    grid = f"grid (sets={len(OPTIMALITY_SETS)}, n={OPTIMALITY_SIZES}, h=4)"
    if misses or flat:
        return False, (f"on the {grid}: proposed misses the supremum at (set, n, t) "
                       f"{misses}; baseline attains it on {flat}")
    return True, (f"proposed matches supremum on the {grid}; baseline short of it on "
                  f"every power-checked set ({sum(OPTIMALITY_SETS.values())})")


SUITES = {
    "posterior": _posterior_suite,
    "selection": _selection_suite,
    "ordering": _ordering_suite,
    "counterexample": _counterexample_suite,
    "optimality": _optimality_suite,
}
