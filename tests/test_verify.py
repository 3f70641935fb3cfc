import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from streamgate.detector import one_step_rule
from streamgate.verify import (OPTIMALITY_SETS, OPTIMALITY_SIZES, _GeomStream,
                               _conflicting_streams, _exact_value,
                               _feasible, _util, brute_force_max_subset,
                               brute_force_posterior,
                               conflicting_priors_enumeration,
                               dp_optimality_report, feasible_prefix_size,
                               monotone_selection_check, ordered_leq,
                               partial_order_axioms_check, random_ordered_pair)


def test_brute_force_posterior_basics():
    assert brute_force_posterior(0.5, [0.0]) == pytest.approx(0.5, abs=1e-15)
    # impossible observations under the post-change law pin the posterior at 0
    assert brute_force_posterior(0.3, [-math.inf, -math.inf]) == 0.0
    assert brute_force_posterior(0.3, []) == 0.0


def test_brute_force_max_subset_examples():
    assert brute_force_max_subset([0.02, 0.04, 0.10, 0.30], 0.05) == 2
    assert brute_force_max_subset([0.6, 0.7, 0.9], 0.05) == 0
    assert brute_force_max_subset([0.0, 0.0, 0.0], 0.05) == 3
    with pytest.raises(ValueError):
        brute_force_max_subset(np.zeros(21), 0.05)


def test_feasible_prefix_examples():
    assert feasible_prefix_size([0.01, 0.03, 0.20], 0.05) == 2
    assert feasible_prefix_size([], 0.05) == 0
    u = np.sort(np.random.default_rng(0).random(7))
    assert feasible_prefix_size(u, 1.0) == 7
    with pytest.raises(ValueError):
        feasible_prefix_size([0.3, 0.1], 0.05)   # unsorted rejected


def test_ordered_leq_examples():
    assert ordered_leq([0.1, 0.2], [0.2])
    assert not ordered_leq([0.3], [0.2])
    assert ordered_leq([0.5, 0.9], [])      # everything precedes empty
    assert not ordered_leq([], [0.5])
    assert ordered_leq([], [])


def test_ordered_leq_axioms_targeted():
    v = np.array([0.2, 0.4])
    w = np.array([0.2, 0.4])
    assert ordered_leq(v, w) and ordered_leq(w, v) and np.array_equal(v, w)
    w2 = np.array([0.2, 0.5])
    assert ordered_leq(v, w2) and not ordered_leq(w2, v)


def test_random_ordered_pairs_are_ordered():
    rng = np.random.default_rng(1)
    for _ in range(500):
        u, v = random_ordered_pair(rng)
        assert ordered_leq(u, v)


def test_monotone_selection_randomized():
    rng = np.random.default_rng(2)
    ok, counterexample = monotone_selection_check(2000, 0.05, rng)
    assert ok, counterexample


def test_monotone_selection_hand_case():
    u = np.array([0.01, 0.02, 0.9])
    v = np.array([0.02, 0.05])
    hu = u[one_step_rule(u, 0.05)]
    hv = v[one_step_rule(v, 0.05)]
    assert np.array_equal(hu, [0.01, 0.02])
    assert np.array_equal(hv, [0.02, 0.05])
    assert ordered_leq(hu, hv)


def test_partial_order_axioms_randomized():
    rng = np.random.default_rng(3)
    ok, detail = partial_order_axioms_check(2000, rng)
    assert ok, detail


# ---------------------------------------------------------------------------
# exact engines
# ---------------------------------------------------------------------------

def test_dp_unconstrained_budget_keeps_everything():
    rows = dp_optimality_report(Fraction(3, 10), Fraction(1, 5), Fraction(4, 5),
                                Fraction(1), n_streams=2, horizon=3)
    for row in rows:
        assert row.util_supremum == 2 * row.t
        assert row.util_proposed == 2 * row.t


def test_dp_rejects_floats_and_big_instances():
    with pytest.raises(TypeError):
        dp_optimality_report(0.3, Fraction(1, 5), Fraction(4, 5),
                             Fraction(3, 10), 2, 3)
    # size is bounded by the memo's node budget, not by n or the horizon
    fresh = [_GeomStream(Fraction(3, 10), Fraction(1, 5), Fraction(4, 5))] * 4
    with pytest.raises(ValueError, match="budget"):
        _exact_value(fresh, Fraction(3, 10), 4, _util, _feasible, node_budget=50)
    assert _exact_value(fresh, Fraction(3, 10), 2, _util, _feasible, node_budget=50) > 0


def test_dp_proposed_sandwiched_by_switch_and_baseline():
    rows = dp_optimality_report(Fraction(3, 10), Fraction(1, 5), Fraction(4, 5),
                                Fraction(3, 10), n_streams=2, horizon=3)
    for row in rows:
        assert (row.util_baseline <= row.util_switch_after_one
                <= row.util_proposed <= row.util_supremum)


def test_dp_optimality_holds_at_the_largest_allowed_instance():
    rows = dp_optimality_report(Fraction(3, 10), Fraction(1, 5), Fraction(4, 5),
                                Fraction(3, 10), n_streams=3, horizon=4)
    for row in rows:
        assert row.util_proposed == row.util_supremum
        assert row.runlength_proposed == row.runlength_supremum
        assert row.expected_active_proposed == row.max_expected_active


# the tier-1 part of verify's optimality grid, written down before the
# first run: every parameter set at every size, except that the two sets
# with (theta, alpha) = (1/10, 3/10), which take 2-3 s at n=5 and 10-12 s
# at n=6, stop at n=5 here (34 of the 36 instances);
# `streamgate verify optimality` runs the full grid.  No instance is
# dropped for its result.
_GRID = [(*params, n, 4) for params in OPTIMALITY_SETS
         for n in ((3, 4, 5) if (params[0], params[3]) == ("1/10", "3/10")
                   else OPTIMALITY_SIZES)]


@functools.cache
def _grid_report(instance):
    return dp_optimality_report(*instance)


@pytest.mark.parametrize("instance", _GRID, ids=lambda instance:
                         "theta={} p0={} p1={} alpha={} n={} h={}".format(*instance))
def test_dp_proposed_attains_supremum_on_a_grid(instance):
    for row in _grid_report(instance):
        assert row.util_proposed == row.util_supremum, (instance, row.t)
        assert row.runlength_proposed == row.runlength_supremum, (instance, row.t)
        assert row.expected_active_proposed == row.max_expected_active, (instance, row.t)


@pytest.mark.parametrize("params", [params for params, power in OPTIMALITY_SETS.items()
                                    if power], ids=lambda params:
                         "theta={} p0={} p1={} alpha={}".format(*params))
def test_dp_baseline_falls_short_on_each_power_checked_set(params):
    # power: a rule that is not the paper's (keep every w <= alpha) falls
    # short of the supremum at some n and t of the set's tier-1 instances
    rows = [row for instance in _GRID if instance[:4] == params
            for row in _grid_report(instance)]
    assert any(row.util_baseline < row.util_supremum for row in rows), params


def conflicting_priors_w_ranges() -> dict[tuple[int, int], tuple[Fraction, Fraction]]:
    """Exact min/max posterior per (stream, time<=3) over all data paths."""
    out = {}
    for k, stream in _conflicting_streams().items():
        level = [stream]
        for t in range(1, 4):
            level = [s.advance(x) for s in level for x in (0, 1)]
            ws = [s.w for s in level]
            out[(k, t)] = (min(ws), max(ws))
    return out


def test_conflicting_priors_w_ranges_match_budget_signs():
    ranges = conflicting_priors_w_ranges()
    alpha = Fraction(34, 100)
    # worst-case mean of streams {0,1,2} stays under the budget at t=1 ...
    hi = sum(ranges[(k, 1)][1] for k in (0, 1, 2)) / 3
    assert hi < alpha
    assert abs(float(hi) - 0.314) < 5e-4
    # ... while {0,1,3} busts it for every data path
    lo = sum(ranges[(k, 1)][0] for k in (0, 1, 3)) / 3
    assert lo > alpha
    assert abs(float(lo) - 0.346) < 5e-4
    # streams 1 and 2 are certainly changed from t=2 on
    assert ranges[(1, 2)] == (1, 1)
    assert ranges[(2, 2)] == (1, 1)


def test_conflicting_priors_proposed_is_shortsighted():
    report = conflicting_priors_enumeration()
    assert report.util_t2_proposed == report.util_sup_t2
    assert report.util_t4_proposed == 9
    assert report.util_t4_proposed < report.util_sup_t4


def _exact_prefix_scan(w: list[Fraction], alpha: Fraction) -> list[int]:
    """The one-step rule in exact arithmetic: rank by (w, index), keep the
    longest ranked prefix whose sum is at most alpha times its length."""
    ranked = sorted(range(len(w)), key=lambda k: (w[k], k))
    best = max((n for n in range(1, len(w) + 1)
                if sum((w[k] for k in ranked[:n]), Fraction(0)) <= alpha * n), default=0)
    return sorted(ranked[:best])


def test_exact_selection_agrees_with_production_rule():
    # the float production rule decides as exact arithmetic does when its
    # inputs are exact in binary (dyadic); the DP's proposed leg feeds it the
    # float images of exact posteriors
    rng = np.random.default_rng(4)
    for _ in range(300):
        n = int(rng.integers(0, 10))
        numerators = rng.integers(0, 64, size=n)
        w_exact = [Fraction(int(v), 64) for v in numerators]
        alpha = Fraction(int(rng.integers(0, 64)), 64)
        kept_float = one_step_rule(np.array([float(w) for w in w_exact]),
                                   float(alpha))
        assert _exact_prefix_scan(w_exact, alpha) == kept_float.tolist()
