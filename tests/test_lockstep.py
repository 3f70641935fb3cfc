"""Several independent ensembles in one detector give each ensemble's bits.

A detector of R ensembles runs the selection rule row by row, one row per
ensemble; ``simulate`` runs a batch of replications that way.  Each check
here compares the batched result with the one-ensemble one, bit for bit.
"""

import numpy as np
import pytest

from streamgate import detector
from streamgate import simulate
from streamgate.detector import (AdaptiveDetector, DecisionTrace, DependentDetector,
                                 ThresholdDetector, ThresholdTable, checkpoint_state, lockstep,
                                 make_detector, one_step_rule)
from streamgate.model import (BernoulliPair, GaussianShift, GeometricPrior, IIDModel,
                              PartialDepModel, conflicting_priors_model)
from streamgate.simulate import SimConfig, run_experiment, write_metrics_csv
from streamgate.verify import feasible_prefix_size

ALPHA = 0.05


def _rows_of(rng, n_rows):
    """Posterior rows of mixed lengths, the empty rows of emptied ensembles
    among them, with runs of exact copies of alpha: ties that straddle N*
    and prefixes within an ulp of their budget."""
    levels = np.array([0.0, 0.02, ALPHA, 0.2, 0.6])
    rows = []
    for _ in range(n_rows):
        size = int(rng.choice([0, 1, 2, 7, 40, 150]))
        w = rng.choice(levels, size=size, p=rng.dirichlet(np.ones(len(levels))))
        if size > 2:
            start = int(rng.integers(0, size))
            w[start:start + int(rng.integers(1, size))] = ALPHA
        rows.append(w)
    return rows


def test_row_wise_rule_matches_one_step_rule_per_row(monkeypatch):
    exact_calls = []
    exact = detector._exact_prefix
    monkeypatch.setattr(detector, "_exact_prefix",
                        lambda *a: exact_calls.append(a) or exact(*a))
    rng = np.random.default_rng(19)
    straddles = 0
    for _ in range(60):
        rows = _rows_of(rng, int(rng.integers(1, 9)))
        sizes = np.array([len(r) for r in rows])
        w = np.concatenate(rows)
        keep, n = detector._adaptive_keep(w, sizes, ALPHA)
        ends = np.cumsum(sizes)
        for i, row in enumerate(rows):
            mine = np.flatnonzero(keep[ends[i] - sizes[i]:ends[i]])
            assert np.array_equal(mine, one_step_rule(row, ALPHA))
            assert n[i] == mine.size == feasible_prefix_size(np.sort(row), ALPHA)
            if n[i]:
                lam = np.sort(row)[n[i] - 1]
                straddles += n[i] < np.count_nonzero(row <= lam)
    assert straddles >= 20          # the tie group at lambda_t is split that often
    assert len(exact_calls) >= 20   # and rows go to the exact fallback that often


def test_row_wise_rule_refuses_a_posterior_outside_the_unit_interval():
    sizes = np.array([2, 3])
    for bad in (np.nan, -0.1, 1.5, np.inf):
        for pos in range(5):   # in the short row, which is padded, and in the full one
            w = np.array([0.01, 0.02, 0.01, 0.03, 0.04])
            w[pos] = bad
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                detector._adaptive_keep(w, sizes, ALPHA)


def _table(model, horizon):
    return ThresholdTable(thresholds=np.linspace(0.6, 0.03, horizon), theta=0.2, alpha=ALPHA,
                          n_streams=30, seed=0, model_fingerprint=model.fingerprint())


@pytest.mark.parametrize("kind", ["adaptive", "threshold"])
def test_an_ensemble_of_a_batch_equals_its_lone_detector(kind):
    # ensembles that change fast and slow, so they empty at different steps
    model = IIDModel(GeometricPrior(0.2), GaussianShift(1.5))
    k, n_ens, horizon = 30, 5, 25
    table = _table(model, horizon) if kind == "threshold" else None
    batch = make_detector(kind, model, ALPHA, k, table, ensembles=n_ens)
    lone = [make_detector(kind, model, ALPHA, k, table) for _ in range(n_ens)]
    rng = np.random.default_rng(7)
    taus = [rng.geometric(p, size=k) - 1.0 for p in np.linspace(0.05, 0.6, n_ens)]
    emptied = {}
    for t in range(1, horizon + 1):
        if t > 1:
            dropped = batch.deactivate()
            mine = [d.deactivate() for d in lone]
            assert np.array_equal(dropped, np.concatenate(
                [ids + e * k for e, ids in enumerate(mine)]).astype(dropped.dtype))
            for e, (d, trace) in enumerate(zip(lone, batch.traces())):
                assert trace.cutoff[-1] == d.last.cutoff
                assert trace.realized_lfnr[-1] == d.last.lfnr
                assert batch.active_counts[e] == d.n_active
                if not d.n_active:
                    emptied.setdefault(e, t)
            assert batch.last is None   # a batch keeps no one-ensemble record
            assert batch.n_active == sum(d.n_active for d in lone)
        x = [model.sample_step(t, tau, rng) for tau in taus]
        batch.observe(np.concatenate(x)[batch.active])
        for d, row in zip(lone, x):
            d.observe(row[d.active])   # an emptied detector observes nothing
        assert batch.w.tobytes() == np.concatenate([d.w for d in lone]).tobytes()
    assert len(set(emptied.values())) >= 3
    for trace, d in zip(batch.traces(), lone):
        assert trace.equals(d.trace())
    assert batch.t_stop.tobytes() == np.concatenate([d.t_stop for d in lone]).tobytes()


def test_only_the_iid_backend_runs_in_lockstep():
    iid = IIDModel(GeometricPrior(0.1), GaussianShift(1.0))
    partial = PartialDepModel(GeometricPrior(0.1), 0.5, GaussianShift(1.0))
    joint = PartialDepModel(GeometricPrior(0.1), 1.0, GaussianShift(1.0))
    tabular = conflicting_priors_model()
    assert lockstep("adaptive", iid, 3) and lockstep("threshold", iid, 3)
    assert not lockstep("adaptive", partial, 3)
    assert not lockstep("dependent", joint, 3)
    assert not lockstep("adaptive", tabular, 4)
    for make in (lambda: AdaptiveDetector(partial, ALPHA, 3, 2),
                 lambda: DependentDetector(joint, ALPHA, 3, 2),
                 lambda: AdaptiveDetector(tabular, ALPHA, 4, 2)):
        with pytest.raises(ValueError, match="one ensemble per detector"):
            make()


def test_a_batch_has_no_single_trace_or_checkpoint():
    model = IIDModel(GeometricPrior(0.1), GaussianShift(1.0))
    det = ThresholdDetector(model, ALPHA, 3, _table(model, 5), ensembles=2)
    det.observe(np.zeros(6))
    with pytest.raises(ValueError, match="traces"):
        det.trace()
    with pytest.raises(ValueError, match="one ensemble"):
        checkpoint_state(det)
    with pytest.raises(ValueError, match="at least one"):
        AdaptiveDetector(model, ALPHA, 3, 0)


_MODELS = {"gauss": IIDModel(GeometricPrior(0.1), GaussianShift(1.0)),
           "bernoulli": IIDModel(GeometricPrior(0.1), BernoulliPair(0.2, 0.7))}


@pytest.mark.parametrize("procedure", ["adaptive", "threshold"])
@pytest.mark.parametrize("model", sorted(_MODELS))
def test_metrics_csv_bytes_do_not_depend_on_the_batch(procedure, model, tmp_path, monkeypatch):
    model = _MODELS[model]
    k, reps, horizon = 20, 15, 40
    table = ThresholdTable(thresholds=np.linspace(0.5, 0.05, horizon), theta=0.1,
                           alpha=ALPHA, n_streams=k, seed=0,
                           model_fingerprint=model.fingerprint())
    config = SimConfig(model=model, k=k, alpha=ALPHA, horizon=horizon, replications=reps,
                       procedure=procedure, seed=23, table=table)
    texts = []
    for per_batch in (1, 7, reps):
        monkeypatch.setattr(simulate, "BATCH_STREAMS", per_batch * max(k, horizon))
        path = tmp_path / f"{per_batch}.csv"
        write_metrics_csv(run_experiment(config), path)
        texts.append(path.read_bytes())
    assert texts[0] == texts[1] == texts[2]


# -- one batch step: its draws and its rows ---------------------------------

class _Recording:
    """A model that records what a batch draws and observes: the generator
    of each draw, and the streams and observations of each step."""

    def __init__(self, model):
        self.model, self.draws, self.steps = model, [], []

    def __getattr__(self, name):
        return getattr(self.model, name)

    def draw(self, rng, out):
        self.draws.append(rng)
        return self.model.draw(rng, out)

    def observations(self, t, tau, noise, streams):
        x = self.model.observations(t, tau, noise, streams)
        self.steps.append((t, streams.copy(), x.copy()))
        return x


@pytest.mark.parametrize("model", [IIDModel(GeometricPrior(0.3), GaussianShift(1.5)),
                                   IIDModel(GeometricPrior(0.05), BernoulliPair(0.4, 0.8))],
                         ids=["gauss", "bernoulli"])
def test_batch_draws_equal_sample_step_replication_by_replication(model, monkeypatch):
    # replications empty at different steps, and from then on draw nothing
    k, horizon, reps, seed = 25, 40, 8, 17
    spy = _Recording(model)
    monkeypatch.setattr(simulate, "make_detector",
                        lambda kind, _, *args: make_detector(kind, model, *args))
    children = np.random.SeedSequence(seed).spawn(reps)
    config = SimConfig(model=spy, k=k, alpha=ALPHA, horizon=horizon, replications=reps,
                       seed=seed)
    simulate._replicate(config, children)
    gens = list({id(r): r for r in spy.draws}.values())  # replication order: all draw at t=1
    assert len(gens) == reps
    ends = []
    for e, child in enumerate(children):
        rng = np.random.default_rng(child)   # the replication on its own
        tau = model.sample_change_points(k, rng)
        det = AdaptiveDetector(model, ALPHA, k)
        steps = []
        for t in range(1, horizon + 1):
            if t > 1:
                det.deactivate()
                if not det.n_active:
                    break
            x = model.sample_step(t, tau, rng)[det.active]
            steps.append((t, det.active + e * k, x))
            det.observe(x)
        mine = [(t, streams[streams // k == e], x[streams // k == e])
                for t, streams, x in spy.steps]
        mine = [step for step in mine if step[1].size]
        assert len(mine) == len(steps)
        for (t0, s0, x0), (t1, s1, x1) in zip(mine, steps):
            assert t0 == t1 and np.array_equal(s0, s1) and x0.tobytes() == x1.tobytes()
        # one draw per step while the replication runs, none after: its
        # generator ends where the lone one does
        assert sum(r is gens[e] for r in spy.draws) == len(steps)
        assert gens[e].bit_generator.state == rng.bit_generator.state
        ends.append(len(steps))
    assert min(ends) < horizon and len(set(ends)) >= 3


def _rows_per_replication(horizon, tau, trace, lfdr):
    """One replication's rows from its own trace, by a sort and bincounts of
    its own: the reference for the batch's ``simulate._rows``."""
    k = trace.n_streams
    n_rows = len(trace.active_size)
    active = np.zeros(horizon, dtype=int)
    active[:n_rows] = trace.active_size
    lfnr = np.zeros(horizon)
    lfnr[:n_rows] = trace.realized_lfnr
    t_stop = trace.t_stop
    stopped = t_stop >= 0
    end = np.where(stopped, t_stop, horizon)
    first = np.floor(tau) + 1
    counted = first < end
    changed_kept = np.cumsum(np.bincount(first[counted].astype(int), minlength=horizon + 1)
                             - np.bincount(end[counted], minlength=horizon + 1))[:horizon]
    drops = np.bincount(t_stop[stopped], minlength=horizon)
    false_drops = np.bincount(t_stop[stopped & (tau >= t_stop)], minlength=horizon)
    m = np.sort(np.minimum(tau, np.where(stopped, t_stop, np.inf)))
    times = np.arange(1.0, horizon + 1)
    below = np.searchsorted(m, times)
    run_lengths = np.concatenate(([0.0], np.cumsum(m)))[below] + times * (m.size - below)

    def share(count, total):
        return np.divide(count, total, out=np.zeros(len(total)), where=total > 0)

    return np.column_stack([
        share(changed_kept, active), lfnr, share(false_drops, drops), lfdr,
        active, np.cumsum(active), run_lengths, k - active])


def _batches(model, k, horizon, reps, seed):
    """(change times, traces, random LFDR rows) of each batch of a run that
    steps as ``simulate`` does: one batch, or lone runs where the model has
    no lockstep."""
    rng = np.random.default_rng(seed)
    n_det = reps if lockstep("adaptive", model, k) else 1
    out = []
    for _ in range(reps // n_det):
        det = AdaptiveDetector(model, ALPHA, k, n_det)
        tau = np.concatenate([model.sample_change_points(k, rng) for _ in range(n_det)])
        for t in range(1, horizon + 1):
            if t > 1:
                det.deactivate()
                if not det.n_active:
                    break
            x = np.concatenate([model.sample_step(t, tau[e * k:(e + 1) * k], rng)
                                for e in range(n_det)])
            det.observe(x[det.active])
        out.append((tau.reshape(n_det, k), det.traces(), rng.random((n_det, horizon))))
    return out


def test_batch_rows_equal_the_rows_of_each_replication():
    horizon = 30
    # emptied replications beside ones still running at the horizon; tau = inf
    # for the partial model's streams that never change; replications that
    # all empty before the horizon
    batches = (_batches(IIDModel(GeometricPrior(0.15), GaussianShift(1.2)), 20, horizon, 6, 1)
               + _batches(PartialDepModel(GeometricPrior(0.1), 0.5, GaussianShift(1.5)),
                          20, horizon, 3, 2)
               + _batches(IIDModel(GeometricPrior(0.5), GaussianShift(2.0)), 10, horizon, 4, 3))
    # and drawn at random: stops at the last selection, at the first, censored
    # streams, change times at and past the horizon and at infinity
    rng = np.random.default_rng(4)
    tau = rng.choice([0.0, 1.0, 5.0, horizon - 1.0, horizon, horizon + 3.0, np.inf],
                     size=(5, 12))
    t_stop = rng.choice([-1, 1, 2, horizon // 2, horizon - 1], size=(5, 12))
    t_stop[0] = -1
    t_stop[1] = horizon - 1
    traces = []
    for stops in t_stop:
        per_time = np.bincount(stops[stops >= 1], minlength=horizon)
        traces.append(DecisionTrace(12, horizon, stops, 12 - np.cumsum(per_time),
                                    rng.random(horizon), np.ones(horizon)))
    batches.append((tau, traces, rng.random((5, horizon))))
    seen = set()
    for tau, traces, lfdr in batches:
        t_stop = np.array([trace.t_stop for trace in traces])
        lfnr = np.array([trace.realized_lfnr for trace in traces])
        rows = simulate._rows(horizon, tau, t_stop, lfnr, lfdr)
        expected = np.stack([_rows_per_replication(horizon, *args)
                             for args in zip(tau, traces, lfdr)])
        assert rows.tobytes() == expected.tobytes()
        seen |= {"censored" for stops in t_stop if (stops < 0).any()}
        seen |= {"never changes" for row in tau if np.isinf(row).any()}
        seen |= {"last selection" for stops in t_stop if (stops == horizon - 1).any()}
        seen |= {"emptied" for trace in traces if trace.active_size[-1] == 0}
        seen |= {"short trace" for trace in traces if len(trace.active_size) < horizon}
    assert seen == {"censored", "never changes", "last selection", "emptied", "short trace"}
