"""Several independent ensembles in one detector give each ensemble's bits.

A detector of R ensembles runs the selection rule row by row, one row per
ensemble; ``simulate`` runs a batch of replications that way.  Each check
here compares the batched result with the one-ensemble one, bit for bit.
"""

import numpy as np
import pytest

from streamgate import detector
from streamgate import simulate
from streamgate.detector import (AdaptiveDetector, DependentDetector, ThresholdDetector,
                                 ThresholdTable, checkpoint_state, lockstep, make_detector,
                                 one_step_rule)
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
        monkeypatch.setattr(simulate, "BATCH_STREAMS", per_batch * k)
        path = tmp_path / f"{per_batch}.csv"
        write_metrics_csv(run_experiment(config), path)
        texts.append(path.read_bytes())
    assert texts[0] == texts[1] == texts[2]
