import base64
import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from streamgate.detector import (CHECKPOINT_VERSION, AdaptiveDetector,
                                 CheckpointError, DependentDetector,
                                 TableExhaustedError, ThresholdDetector,
                                 ThresholdTable, checkpoint_state, one_step_rule,
                                 restore_state)
from streamgate.model import (GaussianShift, GeometricPrior, IIDModel,
                              PartialDepModel, conflicting_priors_model)
from streamgate.verify import brute_force_max_subset, feasible_prefix_size
from test_golden import CASES as GOLDEN_CASES
from test_golden import _case as _golden_case


# ---------------------------------------------------------------------------
# one-step selection rule
# ---------------------------------------------------------------------------

def test_one_step_rule_keeps_largest_feasible_prefix():
    # prefix means: .02, .03, .0533, .115 -- only the first two fit
    kept = one_step_rule([0.02, 0.04, 0.10, 0.30], 0.05)
    assert kept.tolist() == [0, 1]


def test_one_step_rule_boundary_equality_retains():
    kept = one_step_rule([0.05, 0.05, 0.05], 0.05)
    assert kept.tolist() == [0, 1, 2]


def test_one_step_rule_drops_everything():
    assert one_step_rule([0.6, 0.7], 0.05).size == 0


def test_one_step_rule_empty_input():
    assert one_step_rule([], 0.05).size == 0


def test_one_step_rule_tie_break_prefers_smaller_index():
    # cut falls inside the tied pair: the smaller index survives
    kept = one_step_rule([0.5, 0.1, 0.5, 0.1], 0.25)
    assert kept.tolist() == [0, 1, 3]


def test_one_step_rule_non_monotone_prefix_mean():
    # the input is unsorted, but sorted prefix means never decrease: the rule
    # is a cutoff at the N*-th smallest posterior, here the largest one
    w = [0.0, 0.3, 0.0, 0.0]
    # sorted: 0,0,0,0.3 ; means 0, 0, 0, 0.075 <= 0.08
    kept = one_step_rule(w, 0.08)
    assert kept.tolist() == [0, 1, 2, 3]


def test_one_step_rule_matches_exhaustive_search():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(0, 13))
        w = rng.random(n)
        alpha = float(rng.random())
        kept = one_step_rule(w, alpha)
        assert len(kept) == brute_force_max_subset(w, alpha)
        assert len(kept) == feasible_prefix_size(np.sort(w), alpha)
        # retained set is the tie-broken ascending prefix: no gaps
        order = np.lexsort((np.arange(n), w))
        assert kept.tolist() == sorted(order[:len(kept)].tolist())


@pytest.mark.parametrize("alpha", [0.05, 0.3])
@pytest.mark.parametrize("n", [3000, 5000])
def test_one_step_rule_keeps_every_copy_of_alpha(n, alpha):
    # every prefix sits exactly on its budget: the boundary must be decided
    # exactly however many prefixes fall inside the rounding window
    w = np.full(n, alpha)
    assert one_step_rule(w, alpha).tolist() == list(range(n))
    if n == 5000:
        assert feasible_prefix_size(w, alpha) == n


def test_one_step_rule_exact_at_the_boundary():
    # prefix sums within an ulp of alpha * n, where the rounded test is
    # decided prefix by prefix (it is not monotone there)
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        alpha = float(rng.random())
        w = np.minimum(rng.random(n) * 2.0 * alpha, 1.0)
        w[-1] = min(max(alpha * n - math.fsum(w[:-1]), 0.0), 1.0)
        w[-1] = np.nextafter(w[-1], [0.0, 1.0][int(rng.integers(0, 2))])
        assert len(one_step_rule(w, alpha)) == feasible_prefix_size(np.sort(w), alpha)
    a = 0.05
    for w in (np.full(4000, np.nextafter(a, 1.0)), np.full(4000, a + 4 * np.spacing(a))):
        assert len(one_step_rule(w, a)) == feasible_prefix_size(w, a)


def _lexsort_rule(w, indices, size):
    """Reference tie-break: a full lexsort by (w, index) keeps its first
    ``size`` entries, returned in index order."""
    order = np.lexsort((indices, w))
    return np.sort(indices[order[:size]])


def _rule_by_id(w, ids, alpha):
    """The kept ids when ties break by id: the rule on w in id order."""
    perm = np.argsort(ids)
    return ids[perm][one_step_rule(w[perm], alpha)]


def test_one_step_rule_tie_break_matches_lexsort_reference():
    rng = np.random.default_rng(21)
    cut_inside_ties = 0
    for _ in range(400):
        n = int(rng.integers(1, 60))
        w = rng.integers(0, 6, size=n) / 8.0    # few levels: many exact ties
        alpha = float(rng.random()) * 0.6
        indices = rng.permutation(3 * n)[:n]    # unsorted, non-contiguous ids
        size = feasible_prefix_size(np.sort(w), alpha)
        kept = _rule_by_id(w, indices, alpha)
        assert np.array_equal(kept, _lexsort_rule(w, indices, size))
        assert np.array_equal(one_step_rule(w, alpha),
                              _lexsort_rule(w, np.arange(n), size))
        if size:
            cut_inside_ties += size < np.count_nonzero(w <= np.sort(w)[size - 1])
    assert cut_inside_ties >= 50


@pytest.mark.parametrize("shuffled", [False, True])
def test_one_step_rule_tie_break_at_large_k(shuffled):
    from fractions import Fraction

    rng = np.random.default_rng(22)
    k = 20_000
    w = rng.integers(0, 50, size=k) / 64.0      # ~400 exact ties per level
    s = np.sort(w)
    alpha = float(s[:12_345].mean())
    indices = rng.permutation(k) if shuffled else np.arange(k)
    kept = _rule_by_id(w, indices, alpha)
    size = len(kept)
    # sums of multiples of 1/64 are exact; feasibility is monotone in n
    assert Fraction(float(s[:size].sum())) <= Fraction(alpha) * size
    assert Fraction(float(s[:size + 1].sum())) > Fraction(alpha) * (size + 1)
    assert size < np.count_nonzero(w <= s[size - 1])   # the cut splits a tie block
    assert np.array_equal(kept, _lexsort_rule(w, indices, size))


def test_one_step_rule_rejects_bad_probabilities():
    with pytest.raises(ValueError):
        one_step_rule([0.5, 1.2], 0.3)
    with pytest.raises(ValueError):
        one_step_rule([0.5, math.nan], 0.3)


# ---------------------------------------------------------------------------
# adaptive detector
# ---------------------------------------------------------------------------

def _run_adaptive(model, alpha, k, horizon, seed):
    rng = np.random.default_rng(seed)
    tau = model.sample_change_points(k, rng)
    det = AdaptiveDetector(model, alpha, k)
    for t in range(1, horizon + 1):
        if t > 1:
            det.deactivate()
        x = model.sample_step(t, tau, rng)
        det.observe(x[det.active])
    det.deactivate()
    return det, tau


def test_adaptive_controls_lfnr_every_step():
    model = IIDModel(GeometricPrior(0.05), GaussianShift(1.0))
    det, _ = _run_adaptive(model, 0.05, 80, 60, seed=1)
    trace = det.trace()
    assert np.all(trace.realized_lfnr <= 0.05 + 1e-12)
    assert np.all(np.diff(trace.active_size) <= 0)


def test_adaptive_no_deactivation_at_zero_posteriors():
    model = IIDModel(GeometricPrior(0.05), GaussianShift(1.0))
    det = AdaptiveDetector(model, 0.05, 10)
    # before any data every posterior is 0: selection keeps everything
    det._phase = "select"
    assert det.deactivate().size == 0
    assert det.n_active == 10


def test_adaptive_selection_matches_one_step_rule_on_ties():
    # deactivate() applies the cutoff itself: it must keep exactly the set
    # one_step_rule picks, down to which ties at lambda_t survive, also on a
    # non-contiguous active set where positions are not stream indices
    model = IIDModel(GeometricPrior(0.05), GaussianShift(1.0))
    alpha, k = 0.05, 300
    levels = np.array([0.0, 0.02, 0.2, 0.6])
    rng = np.random.default_rng(31)
    straddles = 0
    for _ in range(40):
        det = AdaptiveDetector(model, alpha, k)
        for _ in range(4):
            w = rng.choice(levels, size=k, p=rng.dirichlet(np.ones(len(levels))))
            for start in rng.integers(0, k, size=3):   # runs of exact copies of alpha
                w[start:start + rng.integers(5, 60)] = alpha
            active = det.active
            want = active[one_step_rule(w[active], alpha)]
            det._w, det._phase = w, "select"
            det.deactivate()
            assert np.array_equal(det.active, want)
            if want.size:
                lam = np.sort(w[active])[want.size - 1]
                straddles += want.size < np.count_nonzero(w[active] <= lam)
            if not det.n_active:
                break
    assert straddles >= 20   # the tie group at lambda_t is split that often


def test_adaptive_on_conflicting_priors_first_selection():
    # whatever the first observations are, the largest feasible set is
    # streams {0,1,2}; stream 3 can never join 1 and 2 under the budget
    for xs in itertools.product((0.0, 1.0), repeat=4):
        det = AdaptiveDetector(conflicting_priors_model(), 0.34, 4)
        det.observe(np.asarray(xs))
        det.deactivate()
        assert det.active.tolist() == [0, 1, 2]


def test_observe_validations():
    model = IIDModel(GeometricPrior(0.05), GaussianShift(1.0))
    det, twin = AdaptiveDetector(model, 0.05, 3), AdaptiveDetector(model, 0.05, 3)
    for d in (det, twin):
        d.observe([0.4, -0.2, 0.9])
        d.deactivate()
    # a refused observation leaves the time, the phase and the posterior as
    # they were, so the next step matches a run that never saw it
    for bad in ([1.0, 2.0],              # missing observation for an active stream
                [1.0, 2.0, math.nan], [math.inf, 2.0, 0.0], [1.0, -math.inf, 0.0]):
        with pytest.raises(ValueError):
            det.observe(bad)
        assert det.t == 1 and det._phase == "observe"
    det.observe([0.1, 0.2, 0.3])
    twin.observe([0.1, 0.2, 0.3])
    assert det.t == 2 and det.w.tobytes() == twin.w.tobytes()
    with pytest.raises(RuntimeError):
        det.observe([0.1, 0.2, 0.3])     # must deactivate first
    det.deactivate()
    with pytest.raises(RuntimeError):
        det.deactivate()


def test_realized_lfnr_holds_each_selection_of_each_ensemble():
    model = IIDModel(GeometricPrior(0.2), GaussianShift(1.5))
    det = AdaptiveDetector(model, 0.1, 20, ensembles=3)
    lone = [AdaptiveDetector(model, 0.1, 20) for _ in range(3)]
    rng = np.random.default_rng(4)
    expected = [[0.0] * 3]   # the start
    for _ in range(8):
        x = rng.normal(1.0, 1.0, det.n_active)
        det.observe(x)
        for part, one in zip(np.split(x, np.cumsum(det.active_counts)[:-1]), lone):
            one.observe(part)
            one.deactivate()
        det.deactivate()
        # the mean kept posterior of each ensemble, recomputed from w
        row = []
        for e in range(3):
            kept = det.active[(det.active >= 20 * e) & (det.active < 20 * (e + 1))]
            row.append(float(det.w[kept].sum()) / len(kept) if len(kept) else 0.0)
        expected.append(row)
    assert det.realized_lfnr.shape == (9, 3)   # the start and 8 selections
    assert det.realized_lfnr.tobytes() == np.array(expected).tobytes()
    for e, one in enumerate(lone):
        assert det.realized_lfnr[:, e].tobytes() == one.realized_lfnr[:, 0].tobytes()


def test_trace_stop_times_match_active_sets():
    model = IIDModel(GeometricPrior(0.1), GaussianShift(1.5))
    det, _ = _run_adaptive(model, 0.1, 40, 30, seed=5)
    trace = det.trace()
    assert trace.active_size.dtype == np.int64  # derived from t_stop, the bytes stored before
    for t in range(1, 31):
        active_t = np.count_nonzero((trace.t_stop >= t) | (trace.t_stop == -1))
        assert active_t == trace.active_size[t - 1]


def test_tie_determinism():
    model = IIDModel(GeometricPrior(0.05), GaussianShift(1.0))
    det_a, _ = _run_adaptive(model, 0.05, 50, 40, seed=7)
    det_b, _ = _run_adaptive(model, 0.05, 50, 40, seed=7)
    assert det_a.trace().equals(det_b.trace())


def _naive_adaptive_run(theta, obs, alpha, x_matrix):
    """Reference detector built only from the brute-force oracles.

    Posteriors are recomputed from scratch each step by direct summation
    over change times; the selection keeps the longest feasible prefix of
    the (posterior, index)-sorted active streams using exactly rounded
    sums.  Completely independent of the streaming implementation.
    """
    import math as _math

    from streamgate.verify import brute_force_posterior

    horizon, k = x_matrix.shape
    active = list(range(k))
    t_stop = [-1] * k
    active_sets = [list(active)]
    for t in range(1, horizon + 1):
        w = {j: brute_force_posterior(theta, obs.log_lr(x_matrix[:t, j]))
             for j in active}
        ranked = sorted(active, key=lambda j: (w[j], j))
        best = 0
        for n in range(1, len(ranked) + 1):
            if _math.fsum(w[j] for j in ranked[:n]) <= alpha * n:
                best = n
        for j in ranked[best:]:
            t_stop[j] = t
        active = sorted(ranked[:best])
        active_sets.append(list(active))
    return t_stop, active_sets


def test_adaptive_trace_matches_naive_reference():
    # drive the production detector and an oracle-only reimplementation
    # with identical data; stopping times and active sets must agree
    theta, alpha, k, horizon = 0.07, 0.12, 12, 15
    obs = GaussianShift(1.0)
    model = IIDModel(GeometricPrior(theta), obs)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        tau = model.sample_change_points(k, rng)
        x = np.stack([model.sample_step(t, tau, rng)
                      for t in range(1, horizon + 1)])
        det = AdaptiveDetector(model, alpha, k)
        sets = [det.active.tolist()]
        for t in range(horizon):
            if t > 0:
                det.deactivate()
            det.observe(x[t, det.active])
            if t > 0:
                sets.append(det.active.tolist())
        det.deactivate()
        sets.append(det.active.tolist())
        ref_stop, ref_sets = _naive_adaptive_run(theta, obs, alpha, x)
        assert det.t_stop.tolist() == ref_stop
        assert sets == ref_sets


# ---------------------------------------------------------------------------
# threshold detector
# ---------------------------------------------------------------------------

def _table(model, lam, alpha=0.05, theta=0.05):
    return ThresholdTable(thresholds=np.asarray(lam, dtype=float), theta=theta,
                          alpha=alpha, n_streams=1000, seed=0,
                          model_fingerprint=model.fingerprint())


def test_threshold_one_keeps_everything():
    model = IIDModel(GeometricPrior(0.05), GaussianShift(1.0))
    det = ThresholdDetector(model, 0.05, 20, _table(model, np.ones(50)))
    rng = np.random.default_rng(8)
    tau = model.sample_change_points(20, rng)
    for t in range(1, 31):
        if t > 1:
            assert det.deactivate().size == 0
        det.observe(model.sample_step(t, tau, rng)[det.active])
    assert det.n_active == 20


def test_threshold_zero_drops_everything_with_positive_posteriors():
    model = IIDModel(GeometricPrior(0.05), GaussianShift(1.0))
    det = ThresholdDetector(model, 0.05, 20, _table(model, np.zeros(5)))
    rng = np.random.default_rng(9)
    tau = model.sample_change_points(20, rng)
    det.observe(model.sample_step(1, tau, rng))
    assert np.all(det.w[det.active] > 0.0)
    det.deactivate()
    assert det.n_active == 0


def test_threshold_table_exhausted():
    model = IIDModel(GeometricPrior(0.05), GaussianShift(1.0))
    det = ThresholdDetector(model, 0.05, 5, _table(model, [1.0]))
    rng = np.random.default_rng(10)
    tau = model.sample_change_points(5, rng)
    det.observe(model.sample_step(1, tau, rng))
    det.deactivate()
    det.observe(model.sample_step(2, tau, rng)[det.active])
    with pytest.raises(TableExhaustedError):
        det.deactivate()


def test_threshold_table_fingerprint_guard():
    model = IIDModel(GeometricPrior(0.05), GaussianShift(1.0))
    other = IIDModel(GeometricPrior(0.01), GaussianShift(1.0))
    table = _table(model, np.ones(5))
    with pytest.raises(ValueError):
        ThresholdDetector(other, 0.05, 5, table)
    with pytest.raises(ValueError):
        ThresholdDetector(model, 0.10, 5, table)
    with pytest.raises(ValueError):
        ThresholdTable(thresholds=np.array([1.5]), theta=0.05, alpha=0.05,
                       n_streams=10, seed=0, model_fingerprint="x")


# ---------------------------------------------------------------------------
# dependent detector
# ---------------------------------------------------------------------------

def test_dependent_requires_full_dependence():
    model = PartialDepModel(GeometricPrior(0.05), 0.5, GaussianShift(1.0))
    with pytest.raises(ValueError):
        DependentDetector(model, 0.05, 10)
    with pytest.raises((ValueError, TypeError)):
        DependentDetector(conflicting_priors_model(), 0.05, 4)


def test_dependent_stops_jointly():
    model = PartialDepModel(GeometricPrior(0.1), 1.0, GaussianShift(1.0))
    rng = np.random.default_rng(11)
    tau = model.sample_change_points(500, rng)
    det = DependentDetector(model, 0.05, 500)
    stop = None
    for t in range(1, 200):
        det.observe(model.sample_step(t, tau, rng)[det.active]
                    if det.n_active else np.empty(0))
        dropped = det.deactivate()
        if dropped.size:
            stop = t
            assert dropped.size == 500   # everything at once
            break
    assert stop is not None
    assert np.all(det.t_stop == stop)


def test_dependent_partial_observations_rejected():
    model = PartialDepModel(GeometricPrior(0.1), 1.0, GaussianShift(1.0))
    det = DependentDetector(model, 0.05, 4)
    with pytest.raises(ValueError):
        det.observe([0.1, 0.2])


# ---------------------------------------------------------------------------
# posterior cache: one evaluation per step
# ---------------------------------------------------------------------------

def _cached_detector(kind):
    iid = IIDModel(GeometricPrior(0.1), GaussianShift(2.0))
    if kind == "threshold":
        return iid, ThresholdDetector(iid, 0.3, 12, _table(iid, np.full(20, 0.5), alpha=0.3))
    if kind == "tabular":
        model = conflicting_priors_model()
        return model, AdaptiveDetector(model, 0.34, 4)
    if kind == "partial":
        model = PartialDepModel(GeometricPrior(0.3), 0.5, GaussianShift(2.0))
        return model, AdaptiveDetector(model, 0.3, 12)
    return iid, AdaptiveDetector(iid, 0.3, 12)


@pytest.mark.parametrize("kind", ["adaptive", "threshold", "tabular", "partial"])
def test_w_cache_is_read_only_and_survives_deactivate(kind):
    model, det = _cached_detector(kind)
    rng = np.random.default_rng(31)
    tau = model.sample_change_points(det.k, rng)
    dropped_any = False
    for t in range(1, 11):
        if not det.n_active:
            break
        det.observe(model.sample_step(t, tau, rng)[det.active])
        w = det.w
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 0.5
        assert w.tobytes() == np.asarray(det._state.w, dtype=float).tobytes()
        before = w.copy()
        dropped = det.deactivate()
        dropped_any |= dropped.size > 0
        # kept and dropped streams alike: the cache equals a fresh evaluation
        assert det.w is w and w.tobytes() == before.tobytes()
        assert w.tobytes() == np.asarray(det._state.w, dtype=float).tobytes()
    assert dropped_any


@pytest.mark.parametrize("kind", ["adaptive", "threshold", "partial"])
def test_w_evaluated_once_per_step(kind, monkeypatch):
    from streamgate.posterior import PartialDepPosterior, PosteriorState

    owner = PartialDepPosterior if kind == "partial" else PosteriorState
    fget = owner.w.fget
    calls = []

    def counted(self):
        calls.append(1)
        return fget(self)

    monkeypatch.setattr(owner, "w", property(counted))
    model, det = _cached_detector(kind)
    rng = np.random.default_rng(32)
    tau = model.sample_change_points(det.k, rng)
    steps = 0
    for t in range(1, 11):
        if not det.n_active:
            break
        det.observe(model.sample_step(t, tau, rng)[det.active])
        det.w[det.active].mean()
        det.deactivate()
        det.w[det.active].mean()
        steps += 1
    assert 0 < len(calls) <= steps


@pytest.mark.parametrize("name", GOLDEN_CASES)
def test_selection_record_matches_independent_derivations(name):
    model, det, horizon, seed = _golden_case(name)
    assert det.last is None
    rng = np.random.default_rng(seed)
    tau = model.sample_change_points(det.k, rng)
    emptied, cutoffs = False, [1.0]
    for t in range(1, horizon + 1):
        det.observe(model.sample_step(t, tau, rng)[det.active])
        w_before = np.sort(det.w[det.active])
        dropped = det.deactivate()
        rec = det.last
        cutoffs.append(rec.cutoff)
        assert rec.t == det.t == t
        assert rec.n_active == len(det.active)
        assert rec.lfnr == det.trace().realized_lfnr[-1]
        assert np.array_equal(rec.dropped, dropped)
        if not dropped.size:
            assert rec.cutoff == 1.0
        elif not det.n_active:
            assert rec.cutoff == 0.0
            emptied = True
        else:
            assert rec.cutoff == det.w[det.active].max()
            if det.kind == "adaptive":  # lambda_t, the N*-th smallest posterior
                assert rec.cutoff == w_before[rec.n_active - 1]
    # the jointly dependent run drops every stream: the empty retained set
    assert emptied or name != "dependent"
    # the trace keeps each selection's cutoff bit for bit, after a 1.0 for the start
    assert det.trace().cutoff.tobytes() == np.array(cutoffs).tobytes()
    assert restore_state(checkpoint_state(det), model, det.k,
                         getattr(det, "table", None)).last is None


def test_selection_after_the_ensemble_empties_records_cutoff_one():
    # the selection that empties the ensemble records 0.0; a later one drops
    # nothing, so it records 1.0
    det = AdaptiveDetector(IIDModel(GeometricPrior(0.3), GaussianShift(1.0)), 1e-9, 5)
    det.observe([3.0] * 5)
    assert det.deactivate().size == 5
    det.observe([])
    assert det.deactivate().size == 0
    assert det.trace().cutoff.tolist() == [1.0, 0.0, 1.0]


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

_HISTORY = ("t_stop", "cutoff", "lfnr")


def _pack(value):
    """An array as ``{"dtype", "shape", "data"}``: what a format-4 header
    lists for it, and its base64 line."""
    a = np.asarray(value)
    dtype = "<i8" if a.dtype.kind in "iu" else "<f8"
    return {"dtype": dtype, "shape": list(a.shape),
            "data": base64.b64encode(np.ascontiguousarray(a, dtype).tobytes()).decode()}


def _unpack(entry):
    return np.frombuffer(base64.b64decode(entry["data"]), entry["dtype"]).reshape(entry["shape"])


def _payload(blob):
    """A format-4 blob as its header, with ``arrays`` mapping each array's
    name to its packed form, in the blob's order."""
    _, header, *lines = blob.split("\n")
    assert lines.pop() == ""
    payload = json.loads(header)
    payload["arrays"] = {name: {"dtype": dtype, "shape": shape, "data": line}
                         for (name, dtype, shape), line in zip(payload["arrays"], lines,
                                                               strict=True)}
    return payload


def _resigned(payload):
    """``payload`` as a format-4 blob with a valid hash.  An array entry is
    written as far as it goes: a missing key leaves out its part, and an
    entry that is not a dict is listed as ``[name, entry]`` with no line."""
    header, lines = dict(payload), []
    if isinstance(payload.get("arrays"), dict):
        header["arrays"] = []
        for name, entry in payload["arrays"].items():
            if not isinstance(entry, dict):
                header["arrays"].append([name, entry])
                continue
            header["arrays"].append([name, *(entry[key] for key in ("dtype", "shape")
                                             if key in entry)])
            if "data" in entry:
                lines.append(str(entry["data"]))
    body = "".join(f"{line}\n" for line in [json.dumps(header), *lines])
    return hashlib.sha256(body.encode()).hexdigest() + "\n" + body


def _format2_blob(blob):
    """``blob`` laid out as format 2 wrote it: one JSON object holding the
    history arrays packed under their own fields, the backend's under
    ``arrays``, and a sha256 of its canonical JSON as ``checksum``."""
    payload = _payload(blob)
    arrays = payload.pop("arrays")
    state = {**payload, "format_version": 2,
             **{name: arrays.pop(name) for name in _HISTORY}, "arrays": arrays}
    canon = json.dumps(state, sort_keys=True, separators=(",", ":"))
    return json.dumps({**state, "checksum": hashlib.sha256(canon.encode()).hexdigest()},
                      sort_keys=True)


def _set(payload, field, value):
    """``payload`` with ``field`` set to ``value``: a header field, a history
    array, or, for ``arrays``, the backend's arrays after the history's."""
    arrays = payload["arrays"]
    if field == "arrays":
        payload["arrays"] = {**{name: arrays[name] for name in _HISTORY}, **value}
    else:
        (arrays if field in _HISTORY else payload)[field] = value
    return payload


@pytest.mark.parametrize("kind", ["adaptive", "tabular", "partial", "dependent",
                                  "threshold"])
def test_checkpoint_round_trip(kind):
    rng = np.random.default_rng(12)
    if kind == "tabular":
        model = conflicting_priors_model()
        det = AdaptiveDetector(model, 0.34, 4)
        k = 4
    elif kind == "partial":
        model = PartialDepModel(GeometricPrior(0.1), 0.5, GaussianShift(1.0))
        det = AdaptiveDetector(model, 0.3, 6)
        k = 6
    elif kind == "dependent":
        model = PartialDepModel(GeometricPrior(0.1), 1.0, GaussianShift(1.0))
        det = DependentDetector(model, 0.3, 6)
        k = 6
    elif kind == "threshold":
        model = IIDModel(GeometricPrior(0.1), GaussianShift(1.0))
        det = ThresholdDetector(model, 0.3, 6,
                                _table(model, np.full(20, 0.8), alpha=0.3))
        k = 6
    else:
        model = IIDModel(GeometricPrior(0.1), GaussianShift(1.0))
        det = AdaptiveDetector(model, 0.3, 6)
        k = 6
    tau = model.sample_change_points(k, rng)
    for t in range(1, 6):
        if t > 1:
            det.deactivate()
        det.observe(model.sample_step(t, tau, rng)[det.active])
    blob = checkpoint_state(det)
    table = det.table if kind == "threshold" else None
    back = restore_state(blob, model, k, table=table)
    assert back.t == det.t
    assert back.active.tolist() == det.active.tolist()
    assert np.array_equal(back.w, det.w)
    assert back.trace().equals(det.trace())
    assert checkpoint_state(back) == blob


def _fresh(kind):
    iid = IIDModel(GeometricPrior(0.1), GaussianShift(1.0))
    if kind == "tabular":
        model = conflicting_priors_model()
        return model, AdaptiveDetector(model, 0.34, 4)
    if kind in ("partial", "dependent"):
        model = PartialDepModel(GeometricPrior(0.1), 0.5 if kind == "partial" else 1.0,
                                GaussianShift(1.0))
        return model, (AdaptiveDetector if kind == "partial" else DependentDetector)(
            model, 0.3, 6)
    if kind == "threshold":
        table = _table(iid, np.linspace(0.9, 0.2, 20), alpha=0.3)
        return iid, ThresholdDetector(iid, 0.3, 6, table)
    return iid, AdaptiveDetector(iid, 0.3, 6)


def _seeded(kind):
    """``_fresh(kind)`` after three observe+deactivate steps on rng seed 3."""
    model, det = _fresh(kind)
    rng = np.random.default_rng(3)
    tau = model.sample_change_points(det.k, rng)
    for t in range(1, 4):
        det.observe(model.sample_step(t, tau, rng)[det.active])
        det.deactivate()
    assert det.t == 3 and det._phase == "observe"
    return model, det


@pytest.mark.parametrize("kind", ["adaptive", "tabular", "partial", "dependent",
                                  "threshold"])
def test_checkpoint_resume_at_every_step_is_bit_exact(kind):
    # a checkpoint taken after any observation or selection resumes to the
    # uninterrupted run's posteriors and decision trace
    model, full = _fresh(kind)
    rng = np.random.default_rng(21)
    tau = model.sample_change_points(full.k, rng)
    rows = [model.sample_step(t, tau, rng) for t in range(1, 16)]
    blobs = []
    for x in rows:
        full.observe(x[full.active])
        blobs.append(checkpoint_state(full))
        full.deactivate()
        blobs.append(checkpoint_state(full))
    assert full.n_active < full.k
    for blob in blobs:
        det = restore_state(blob, model, full.k, table=getattr(full, "table", None))
        assert checkpoint_state(det) == blob
        for x in rows[det.t:]:
            if det._phase == "select":
                det.deactivate()
            det.observe(x[det.active])
        if det._phase == "select":
            det.deactivate()
        assert det.w.tobytes() == full.w.tobytes()
        assert det.trace().equals(full.trace())


def test_checkpoint_resume_equals_uninterrupted():
    model = IIDModel(GeometricPrior(0.05), GaussianShift(1.0))
    rng = np.random.default_rng(13)
    tau = model.sample_change_points(30, rng)
    data = [model.sample_step(t, tau, rng) for t in range(1, 26)]

    def drive(det, rows):
        for i, x in enumerate(rows):
            if det.t > 0 or i > 0:
                det.deactivate()
            det.observe(x[det.active])
        return det

    full = AdaptiveDetector(model, 0.05, 30)
    for x in data:
        if full.t > 0:
            full.deactivate()
        full.observe(x[full.active])

    first = AdaptiveDetector(model, 0.05, 30)
    for x in data[:12]:
        if first.t > 0:
            first.deactivate()
        first.observe(x[first.active])
    resumed = restore_state(checkpoint_state(first), model, 30)
    for x in data[12:]:
        resumed.deactivate()
        resumed.observe(x[resumed.active])
    assert resumed.trace().equals(full.trace())
    assert np.array_equal(resumed.w, full.w)


def test_checkpoint_rejects_corruption():
    model = IIDModel(GeometricPrior(0.1), GaussianShift(1.0))
    det = AdaptiveDetector(model, 0.3, 4)
    det.observe([0.1, 0.2, 0.3, 0.4])
    blob = checkpoint_state(det)
    with pytest.raises(CheckpointError):
        restore_state(blob[: len(blob) // 2], model, 4)   # truncated
    tampered = blob.replace('"t": 1', '"t": 2')
    with pytest.raises(CheckpointError):
        restore_state(tampered, model, 4)                 # checksum mismatch
    other = IIDModel(GeometricPrior(0.2), GaussianShift(1.0))
    with pytest.raises(CheckpointError):
        restore_state(blob, other, 4)                     # model fingerprint


def test_checkpoint_rejects_version_mismatch():
    # only format 4 is read; "4" is not the integer 4
    for version in [1, 2, 3, 5, "4", True]:
        model, payload = _iid_checkpoint()
        payload["format_version"] = version
        with pytest.raises(CheckpointError, match=f"version {version!r}"):
            restore_state(_resigned(payload), model, 4)


def test_checkpoint_refuses_a_format_2_blob():
    # format 2 (one JSON object, with its own valid checksum) has no reader left
    model, det = _seeded("adaptive")
    blob = _format2_blob(checkpoint_state(det))
    assert json.loads(blob)["format_version"] == 2
    with pytest.raises(CheckpointError, match="unsupported checkpoint version.*format 1 or 2"):
        restore_state(blob, model, det.k)


@pytest.mark.parametrize("kind, edit, k, match", [
    ("adaptive", str, 7, "stream count mismatch: 6 vs 7"),
    ("threshold", str, 6, "threshold checkpoints need their threshold table"),
    ("adaptive", lambda blob: blob.partition("\n")[0], 6, "checksum mismatch"),
], ids=["other-k", "threshold-without-table", "digest-line-only"])
def test_checkpoint_refuses_a_restore_it_cannot_match(kind, edit, k, match):
    # restored with no table, and a blob cut to its digest line
    model, det = _seeded(kind)
    with pytest.raises(CheckpointError, match=match):
        restore_state(edit(checkpoint_state(det)), model, k)


def test_checkpoint_derives_the_active_set():
    # the checkpoint stores no active set: it is the streams without a stop
    # time, in index order, and a blob that carries one anyway is refused
    model, det = _seeded("adaptive")
    assert det.k == 6 and det.t_stop.tolist() == [-1, -1, -1, 3, -1, -1]
    payload = _payload(checkpoint_state(det))
    assert list(payload["arrays"]) == ["t_stop", "cutoff", "lfnr", "log_odds"]
    back = restore_state(_resigned(payload), model, 6)
    assert back.active.tolist() == [0, 1, 2, 4, 5]
    payload["arrays"]["active"] = _pack(back.active[::-1])
    with pytest.raises(CheckpointError, match="posterior state.*active"):
        restore_state(_resigned(payload), model, 6)


def _iid_checkpoint():
    """The state of a K=4 detector after one observation, as a payload."""
    model = IIDModel(GeometricPrior(0.1), GaussianShift(1.0))
    det = AdaptiveDetector(model, 0.3, 4)
    det.observe([0.1, 0.2, 0.3, 0.4])
    return model, _payload(checkpoint_state(det))


# the header's fields and the history arrays; the tests named "at_t1" run
# at t=1, the others mid-run
_SCHEMA_FIELDS = ["format_version", "mode", "t", "alpha", "phase", "model_fingerprint",
              "n_streams", "t_stop", "cutoff", "lfnr", "arrays"]


def _delete_or_retype(payload, field, change):
    where = payload["arrays"] if field in _HISTORY else payload
    if change == "delete":
        del where[field]
    else:  # another JSON type: strings become numbers, everything else a string
        where[field] = 7 if isinstance(where[field], str) else "7"
    return payload


@pytest.mark.parametrize("change", ["delete", "retype"])
@pytest.mark.parametrize("field", _SCHEMA_FIELDS)
def test_checkpoint_schema_errors_at_t1_are_checkpoint_errors(field, change):
    model, payload = _iid_checkpoint()
    assert restore_state(_resigned(payload), model, 4).t == 1
    with pytest.raises(CheckpointError):
        restore_state(_resigned(_delete_or_retype(payload, field, change)), model, 4)


_KINDS = ["adaptive", "tabular", "partial", "dependent", "threshold"]


@pytest.mark.parametrize("change", ["delete", "retype"])
@pytest.mark.parametrize("field", _SCHEMA_FIELDS)
def test_checkpoint_schema_errors_are_checkpoint_errors(field, change):
    # the same checks mid-run (t=3, phase observe), for every detector kind
    for kind in _KINDS:
        model, det = _seeded(kind)
        table = getattr(det, "table", None)
        payload = _payload(checkpoint_state(det))
        assert restore_state(_resigned(payload), model, det.k, table=table).t == 3
        with pytest.raises(CheckpointError):
            restore_state(_resigned(_delete_or_retype(payload, field, change)),
                          model, det.k, table=table)


_NO_STOP = _pack(np.full(4, -1))


@pytest.mark.parametrize("field, value", [
    ("phase", "bogus"),
    ("t", -1),
    ("t", 0),
    ("t_stop", _pack(np.array([2, -1, -1, -1]))),
    ("t_stop", _pack(np.array([-5, -1, -1, -1]))),
    ("t_stop", _pack(np.full(4, -1.0))),
    ("t_stop", _pack(np.array([1, -1, -1, -1]))),
    ("t_stop", _pack(np.full(5, -1))),
    ("t_stop", _pack(np.full((4, 1), -1))),
    ("t_stop", {**_NO_STOP, "data": "not base64!"}),
    ("t_stop", {**_NO_STOP, "shape": [5]}),
    ("t_stop", {**_NO_STOP, "dtype": "<i4"}),
    ("t_stop", {**_NO_STOP, "shape": [-4]}),
    ("t_stop", {**_NO_STOP, "shape": 4}),
    ("t_stop", {"dtype": "<i8", "shape": [4]}),
    ("t_stop", {**_NO_STOP, "data": 7}),
    ("cutoff", _pack(np.array([1]))),
    ("lfnr", _pack(np.array([5]))),
    ("lfnr", _pack(np.array([0.0, 0.0]))),
    ("arrays", {}),
    ("arrays", {"log_odds": _pack(np.full(3, -np.inf))}),
    ("arrays", {"log_odds": _pack(np.full(4, -np.inf)), "acc": _pack(np.zeros(0))}),
    ("arrays", {"log_odds": 5}),
    ("arrays", {"log_odds": _pack(np.full(4, -np.inf)) | {"dtype": "<f2"}}),
    ("alpha", float.hex(1.5)),
    ("alpha", "nan"),
    ("alpha", float.hex(0.0)),
    ("mode", "bogus"),
], ids=["phase", "t", "t-zero-select", "t_stop-after-t", "t_stop-negative",
        "t_stop-float", "stopped-but-active", "t_stop-long", "t_stop-2d", "bad-base64",
        "size-disagrees-with-shape", "unknown-dtype", "negative-shape", "shape-type",
        "no-data", "data-type", "cutoff-int", "lfnr-int", "lfnr-long",
        "no-arrays", "short-array", "unknown-array", "array-type", "array-dtype",
        "alpha-above-one", "alpha-nan", "alpha-zero", "mode"])
def test_checkpoint_bad_values_at_t1_are_checkpoint_errors(field, value):
    # "no-data" lists an array with no line, "data-type" puts a number where
    # its base64 goes, and "array-type" lists a bare number as the entry
    model, payload = _iid_checkpoint()
    with pytest.raises(CheckpointError):
        restore_state(_resigned(_set(payload, field, value)), model, 4)


@pytest.mark.parametrize("field, value, match", [
    ("phase", "bogus", "phase"),
    ("t", -1, "time"),
    ("t_stop", "x", "mistyped"),
    ("t_stop", _pack(np.array([-1.0, -1.0, -1.0, 3.0, -1.0, -1.0])), "<i8"),
    ("lfnr", _pack(np.array([5, 5, 5, 5])), "malformed"),
    ("arrays", {}, "posterior state"),
    ("arrays", {"log_odds": _pack(np.full(5, -np.inf))}, "posterior state"),
    ("arrays", {"log_odds": _pack(np.full(6, -np.inf)), "acc": _pack(np.zeros(0))},
     "posterior state"),
    ("arrays", {"log_odds": 5}, "malformed"),
    ("mode", "bogus", "unknown detector kind"),
], ids=["phase", "t", "t_stop", "t_stop-float", "lfnr", "no-arrays", "short-array",
        "unknown-array", "array-type", "mode"])
def test_checkpoint_bad_values_are_checkpoint_errors(field, value, match):
    # the same checks mid-run: K=6 at t=3 (phase observe), stream 3 stopped at t=3
    model, det = _seeded("adaptive")
    assert det.t_stop.tolist() == [-1, -1, -1, 3, -1, -1]
    payload = _payload(checkpoint_state(det))
    assert restore_state(_resigned(payload), model, 6).t == 3
    with pytest.raises(CheckpointError, match=match):
        restore_state(_resigned(_set(payload, field, value)), model, 6)


def _body(head, lines):
    return "".join(f"{line}\n" for line in [head, *lines])


@pytest.mark.parametrize("edit, match", [
    (lambda head, lines: _body(head, lines[:-1]), "lines follow"),
    (lambda head, lines: _body(head, [*lines, lines[-1]]), "lines follow"),
    (lambda head, lines: _body(head, lines)[:-1], "newline"),
    (lambda head, lines: _body("[1, 2]", lines), "version None"),
    (lambda head, lines: _body("{", lines), "unparseable"),
    (lambda head, lines: _body(head.replace('"log_odds"', '"lfnr"'), lines), "repeated"),
    (lambda head, lines: _body(head.replace('"t_stop"', '"t_stop_"'), lines), "must start"),
    (lambda head, lines: _body(head.replace("adaptive", "adaptiv\u00e9"), lines), "ASCII"),
], ids=["line-missing", "line-extra", "no-final-newline", "header-not-an-object",
        "header-not-json", "repeated-name", "history-renamed", "not-ascii"])
def test_checkpoint_body_layout_errors_are_checkpoint_errors(edit, match):
    # a body whose hash is valid, but whose header and lines do not agree
    model, det = _seeded("adaptive")
    _, head, *lines = checkpoint_state(det).split("\n")
    body = edit(head, lines[:-1])
    with pytest.raises(CheckpointError, match=match):
        restore_state(hashlib.sha256(body.encode()).hexdigest() + "\n" + body, model, 6)


@pytest.mark.parametrize("case, match", [
    ("stop-after-t", "stop times"),
    ("stop-at-zero", "stop times"),
    ("stop-below-minus-one", "stop times"),
    ("lengths-differ", "entries"),
    ("both-too-long", "entries"),
    ("both-too-short", "entries"),
])
def test_checkpoint_inconsistent_history_is_refused(case, match):
    # K=6 at t=3 (phase observe), stream 3 stopped at t=3
    model, det = _seeded("adaptive")
    payload = _payload(checkpoint_state(det))
    assert payload["format_version"] == CHECKPOINT_VERSION
    trace = det.trace()
    t_stop, cutoff, lfnr = trace.t_stop, trace.cutoff, trace.realized_lfnr
    stopped = t_stop >= 0
    assert det.t == 3 and stopped.sum() == 1 and len(cutoff) == 4
    if case == "stop-after-t":
        t_stop = np.where(stopped, 99, -1)
    elif case == "stop-at-zero":
        t_stop = np.where(stopped, 0, -1)
    elif case == "stop-below-minus-one":
        t_stop = np.where(stopped, -2, -1)
    elif case == "lengths-differ":
        cutoff = np.full(7, 0.5)
        lfnr = lfnr[:1]
    elif case == "both-too-long":
        cutoff, lfnr = np.append(cutoff, cutoff[-1]), np.append(lfnr, lfnr[-1])
    else:
        cutoff, lfnr = cutoff[:-1], lfnr[:-1]
    payload["arrays"].update(t_stop=_pack(t_stop), cutoff=_pack(cutoff), lfnr=_pack(lfnr))
    with pytest.raises(CheckpointError, match=match):
        restore_state(_resigned(payload), model, 6)


def _refuses_misshapen_arrays(model, det):
    """Each backend array of ``det``'s checkpoint, misshapen, is refused."""
    payload = _payload(checkpoint_state(det))
    assert restore_state(_resigned(payload), model, det.k).w.tobytes() == det.w.tobytes()
    for name, value in payload["arrays"].items():
        if name in _HISTORY:
            continue
        a = _unpack(value)
        assert a.size
        # an entry dropped, a scalar given an axis, or a non-square array
        # transposed (the same size)
        wrong = [_pack(a[:-1] if a.ndim else a[None])]
        if a.ndim == 2 and a.shape[0] != a.shape[1]:
            wrong.append(_pack(a.T))
        for bad_value in wrong:
            bad = json.loads(json.dumps(payload))
            bad["arrays"][name] = bad_value
            with pytest.raises(CheckpointError, match="posterior state"):
                restore_state(_resigned(bad), model, det.k)


@pytest.mark.parametrize("kind", ["adaptive", "tabular", "partial", "dependent"])
def test_checkpoint_after_selection_refuses_misshapen_backend_arrays(kind):
    model, det = _seeded(kind)
    assert det.n_active < det.k  # the arrays hold frozen streams' state too
    _refuses_misshapen_arrays(model, det)


@pytest.mark.parametrize("kind", ["adaptive", "tabular", "partial", "dependent"])
def test_checkpoint_refuses_misshapen_backend_arrays(kind):
    # the same, taken between an observation and its selection (phase select)
    model, det = _seeded(kind)
    rng = np.random.default_rng(4)
    det.observe(model.sample_step(4, np.full(det.k, 2), rng)[det.active])
    assert det.t == 4 and det._phase == "select" and det.n_active < det.k
    _refuses_misshapen_arrays(model, det)


def test_checkpoint_stays_under_32_bytes_per_stream():
    # K=20 000 after 10 steps; format 1 took about 107 bytes per stream, so
    # a per-stream record creeping back shows here
    model = IIDModel(GeometricPrior(0.01), GaussianShift(1.0))
    k = 20_000
    rng = np.random.default_rng(20)
    tau = model.sample_change_points(k, rng)
    det = AdaptiveDetector(model, 0.05, k)
    for t in range(1, 11):
        det.observe(model.sample_step(t, tau, rng)[det.active])
        det.deactivate()
    assert det.n_active < k
    blob = checkpoint_state(det)
    assert len(blob.encode()) < 32 * k
    assert restore_state(blob, model, k).w.tobytes() == det.w.tobytes()


def test_checkpoint_round_trip_at_large_k_is_bit_exact():
    # K=100 000: the restored w and trace and the re-encoded blob are the same bits
    model = IIDModel(GeometricPrior(0.01), GaussianShift(1.0))
    k = 100_000
    rng = np.random.default_rng(22)
    tau = model.sample_change_points(k, rng)
    det = AdaptiveDetector(model, 0.05, k)
    for t in range(1, 11):
        det.observe(model.sample_step(t, tau, rng)[det.active])
        det.deactivate()
    assert 0 < det.n_active < k
    blob = checkpoint_state(det)
    back = restore_state(blob, model, k)
    assert back.w.tobytes() == det.w.tobytes()
    assert back.trace().equals(det.trace())
    assert checkpoint_state(back) == blob


def test_checkpoint_keeps_external_ids_inside_its_hash():
    # the ids line follows the history arrays; read without a stream count,
    # the blob restores the ids and re-encodes to itself
    model, det = _seeded("adaptive")
    det.ids = np.array([-7, 0, 10, 20, 30, 2**63 - 1])
    blob = checkpoint_state(det)
    assert list(_payload(blob)["arrays"]) == ["t_stop", "cutoff", "lfnr", "ids", "log_odds"]
    back = restore_state(blob, model)
    assert back.k == 6 and back.ids.tolist() == det.ids.tolist()
    assert checkpoint_state(back) == blob
    det.ids = None
    assert restore_state(checkpoint_state(det), model, 6).ids is None



def test_checkpoint_never_writes_a_stale_ids_line():
    # the ids line is encoded once per assignment: a reassigned det.ids is
    # written as assigned, the assigned array is copied, and the copy cannot
    # be changed in place
    model, det = _seeded("adaptive")
    given = np.array([1, 2, 3, 4, 5, 6])
    det.ids = given
    first = checkpoint_state(det)
    given[0] = -1
    assert checkpoint_state(det) == first
    with pytest.raises(ValueError, match="read-only"):
        det.ids[0] = -1
    for ids in ([10, 20, 30, 40, 50, 60], np.arange(6, dtype=np.int32), None):
        det.ids = ids
        blob = checkpoint_state(det)
        back = restore_state(blob, model)
        assert (back.ids is None if ids is None else back.ids.tolist() == list(ids))
        assert checkpoint_state(back) == blob
