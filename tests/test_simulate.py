import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from streamgate import simulate
from streamgate.calibrate import calibrate_thresholds
from streamgate.detector import AdaptiveDetector
from streamgate.model import (BernoulliPair, GaussianShift, GeometricPrior,
                              IIDModel, PartialDepModel, conflicting_priors_model)
from streamgate.simulate import SimConfig, run_experiment, write_metrics_csv
from streamgate.verify import dp_optimality_report


# ---------------------------------------------------------------------------
# replication engine
# ---------------------------------------------------------------------------

def _small_config(**kw):
    model = IIDModel(GeometricPrior(0.05), GaussianShift(1.0))
    base = dict(model=model, k=40, alpha=0.05, horizon=50, replications=30,
                seed=5)
    base.update(kw)
    return SimConfig(**base)


@pytest.mark.parametrize("threads", [0, -3])
def test_sim_config_refuses_a_bad_thread_count(threads):
    with pytest.raises(ValueError, match="threads"):
        _small_config(threads=threads)


def test_run_experiment_invariants():
    frame = run_experiment(_small_config())
    k = 40
    assert np.all(np.diff(frame.mean_active) <= 1e-12)
    assert np.all(np.abs(frame.mean_cd - (k - frame.mean_active)) <= 1e-10)
    # utilization accumulates the active counts
    util = np.cumsum(frame.mean_active)
    assert np.all(np.abs(frame.mean_util - util) <= 1e-9)
    assert np.all(frame.mean_lfnr <= 0.05 + 1e-12)
    assert np.all(frame.mean_rl <= frame.mean_util + 1e-9)


def test_rows_after_the_last_drop_match_a_plain_loop():
    # replications empty long before the horizon; rebuild each replication
    # stream by stream from its seed and compare every row with sums written
    # out over the streams retained and dropped at each selection
    model = IIDModel(GeometricPrior(0.3), GaussianShift(1.0))
    k, horizon, reps = 40, 60, 6
    frame = run_experiment(SimConfig(model=model, k=k, alpha=0.05, horizon=horizon,
                                     replications=reps, seed=11))
    per_rep, lfnr, lfdr, edges = [], [], [], set()
    for child in np.random.SeedSequence(11).spawn(reps):
        rng = np.random.default_rng(child)   # the engine's draws, in its order
        tau = model.sample_change_points(k, rng)
        det = AdaptiveDetector(model, 0.05, k)
        # the row at time s is the selection at s-1; none at s=1
        kept, dropped, lfnr_rep, lfdr_rep = [list(range(k))], [[]], [0.0], [0.0]
        while len(lfnr_rep) < horizon:
            if det.n_active:
                det.observe(model.sample_step(det.t + 1, tau, rng)[det.active])
                w = det.w
                det.deactivate()
            kept.append([j for j in kept[-1] if det.t_stop[j] < 0])
            dropped.append([j for j in kept[-2] if det.t_stop[j] >= 0])
            lfnr_rep.append(sum(w[j] for j in kept[-1]) / len(kept[-1]) if kept[-1] else 0.0)
            lfdr_rep.append(sum(1.0 - w[j] for j in dropped[-1]) / len(dropped[-1])
                            if dropped[-1] else 0.0)
        stop = det.t_stop.tolist()
        assert max(stop) < horizon // 2      # most rows come after the last drop
        # a change at exactly s-1 is not yet a change at the selection at s-1;
        # an empty retained or dropped set gives 0
        fnp = [sum(tau[j] < s - 1 for j in ids) / len(ids) if ids else 0.0
               for s, ids in enumerate(kept, 1)]
        fdp = [sum(tau[j] >= s - 1 for j in ids) / len(ids) if ids else 0.0
               for s, ids in enumerate(dropped, 1)]
        edges |= {"tau at s-1 kept" for s, ids in enumerate(kept[1:], 2)
                  if any(tau[j] == s - 1 for j in ids)}
        edges |= {"nothing kept" for ids in kept[1:] if not ids}
        edges |= {"nothing dropped" for ids in dropped[1:] if not ids}
        per_rep.append([(fnp[s - 1], fdp[s - 1],
                         sum(min(stop[j], tau[j], s) for j in range(k)),
                         sum(min(stop[j], s) for j in range(k)),
                         sum(stop[j] >= s for j in range(k)),
                         sum(stop[j] < s for j in range(k)))
                        for s in range(1, horizon + 1)])
        lfnr.append(lfnr_rep)
        lfdr.append(lfdr_rep)
    assert edges == {"tau at s-1 kept", "nothing kept", "nothing dropped"}
    fnp, fdp, rl, util, active, cd = np.asarray(per_rep, dtype=float).mean(axis=0).T
    assert np.array_equal(frame.mean_fnp, fnp)
    assert np.array_equal(frame.mean_fdp, fdp)
    assert np.array_equal(frame.mean_rl, rl)
    assert np.array_equal(frame.mean_util, util)
    assert np.array_equal(frame.mean_active, active)
    assert np.array_equal(frame.mean_cd, cd)
    # numpy sums in another order than the loops above
    assert frame.mean_lfnr == pytest.approx(np.mean(lfnr, axis=0), rel=1e-13, abs=1e-16)
    assert frame.mean_lfdr == pytest.approx(np.mean(lfdr, axis=0), rel=1e-13, abs=1e-16)


def test_run_experiment_fnp_controlled_on_average():
    frame = run_experiment(_small_config(replications=200, k=100))
    bound = 0.05 + 3 * np.where(np.isnan(frame.se_fnp), 0.0, frame.se_fnp)
    assert np.all(frame.mean_fnp <= bound + 1e-12)


def test_steady_state_lfnr_sits_just_under_budget():
    # while the active pool is well populated the binding selection pins
    # the realized LFNR slightly below the budget; once the pool empties
    # the LFNR decays toward zero with it
    model = IIDModel(GeometricPrior(0.05), GaussianShift(1.0))
    frame = run_experiment(SimConfig(model=model, k=500, alpha=0.05,
                                     horizon=30, replications=150, seed=4))
    populated = frame.mean_active >= 0.05 * 500
    steady = frame.mean_lfnr[populated & (frame.t >= 2)]
    assert steady.size >= 5
    assert np.all(steady <= 0.05 + 1e-12)
    assert np.all(steady >= 0.040)
    assert frame.mean_lfnr[-1] < 0.01


def test_run_experiment_deterministic_and_thread_invariant(tmp_path):
    frame_a = run_experiment(_small_config())
    frame_b = run_experiment(_small_config())
    frame_c = run_experiment(_small_config(threads=2))
    pa, pb, pc = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    meta = {"model": "m", "seed": 5}
    write_metrics_csv(frame_a, pa, meta)
    write_metrics_csv(frame_b, pb, meta)
    write_metrics_csv(frame_c, pc, meta)
    assert pa.read_bytes() == pb.read_bytes() == pc.read_bytes()


def test_run_experiment_single_rep_has_no_se(tmp_path):
    frame = run_experiment(_small_config(replications=1, horizon=10))
    assert np.all(np.isnan(frame.se_fnp))
    path = tmp_path / "one.csv"
    write_metrics_csv(frame, path, {})
    body = path.read_text().splitlines()
    first_row = body[2].split(",")
    assert first_row[2] == "" and first_row[4] == ""   # se_fnp, se_lfnr empty


def test_doubling_replications_shrinks_se():
    small = run_experiment(_small_config(replications=100, horizon=30, seed=2))
    big = run_experiment(_small_config(replications=400, horizon=30, seed=2))
    mask = (small.se_lfnr > 1e-6) & (big.se_lfnr > 1e-6)
    ratio = (small.se_lfnr[mask] / big.se_lfnr[mask]).mean()
    assert 2.0 * 0.8 <= ratio <= 2.0 * 1.2


# ---------------------------------------------------------------------------
# aggregation: the rows held once, the bits of numpy's mean and std
# ---------------------------------------------------------------------------

def test_numpy_axis0_sum_and_std_are_in_order_row_accumulation():
    # run_experiment's standard errors rest on this: numpy reduces axis 0 of a
    # C-contiguous float64 array by adding its rows one by one, in order, so
    # a chunked running sum of squared deviations keeps std(ddof=1)'s bits
    rng = np.random.default_rng(8)
    for reps in (2, 3, 63, 64, 65, 129, 1000, 3000):
        for horizon, metrics in ((1, 8), (2, 8), (60, 8), (7, 3)):
            a = rng.random((reps, horizon, metrics)) * rng.choice([1e-3, 1.0, 1e3],
                                                                  size=(reps, 1, metrics))
            total = np.zeros((horizon, metrics))
            for row in a:
                total += row
            assert np.array_equal(a.sum(axis=0), total), (reps, horizon, metrics)
            mean = a.mean(axis=0)
            squares = np.zeros_like(mean)
            for row in a:
                squares += (row - mean) ** 2
            assert np.array_equal(a.std(axis=0, ddof=1), np.sqrt(squares / (reps - 1))), \
                (reps, horizon, metrics)


@pytest.mark.parametrize("reps", [1, 2, 63, 64, 65, 128, 129, 300])
def test_squared_deviations_are_numpys_across_chunks(reps):
    # 64 rows a chunk: none, one or two boundaries crossed
    rng = np.random.default_rng(reps)
    stack = rng.random((reps, 5, 8))
    mean = stack.mean(axis=0)
    expected = ((stack - mean) ** 2).sum(axis=0)
    assert np.array_equal(simulate._squared_deviations(stack, mean), expected)


def _recorded_batches(monkeypatch, config):
    """The seed sequences of each batch ``run_experiment(config)`` hands to
    ``_replicate``, which here writes zero rows."""
    batches = []

    def record(config, seed_seqs, out):
        batches.append(seed_seqs)
        out[...] = 0.0

    monkeypatch.setattr(simulate, "_replicate", record)
    run_experiment(config)
    return batches


@pytest.mark.parametrize("per_batch", [1, 3, 7, 10])
def test_batch_children_are_those_of_one_spawn(per_batch, monkeypatch):
    # each batch spawns its own children as it starts: together they are the
    # children of one spawn(reps), the last batch partial when 10 % per_batch
    reps, k, seed = 10, 4, 29
    monkeypatch.setattr(simulate, "BATCH_STREAMS", per_batch * k)
    batches = _recorded_batches(monkeypatch, _small_config(k=k, replications=reps, seed=seed,
                                                           horizon=3))
    assert [len(b) for b in batches] == [min(per_batch, reps - i)
                                         for i in range(0, reps, per_batch)]
    children = [child for batch in batches for child in batch]
    expected = np.random.SeedSequence(seed).spawn(reps)
    assert [c.spawn_key for c in children] == [c.spawn_key for c in expected]
    for got, want in zip(children, expected):
        assert np.array_equal(got.generate_state(8), want.generate_state(8))


_AGGREGATED = {"iid": IIDModel(GeometricPrior(0.2), GaussianShift(1.0)),
               "partial": PartialDepModel(GeometricPrior(0.2), 0.5, GaussianShift(1.5))}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("model", sorted(_AGGREGATED))
def test_means_and_se_are_the_bits_of_numpy_over_all_rows(model, threads, monkeypatch):
    # the i.i.d. runs come in batches of 7 replications, several and a partial
    # last one; the partially dependent model runs a batch of one each
    model, k, seed = _AGGREGATED[model], 3, 13
    for reps in (1, 2, 63, 64, 65, 300):
        for horizon in (1, 2, 60):
            monkeypatch.setattr(simulate, "BATCH_STREAMS", 7 * max(k, horizon))
            config = SimConfig(model=model, k=k, alpha=0.05, horizon=horizon,
                               replications=reps, seed=seed, threads=threads)
            frame = run_experiment(config)
            children = np.random.SeedSequence(seed).spawn(reps)
            rows = np.concatenate([simulate._replicate(config, [child])
                                   for child in children])
            mean = rows.mean(axis=0)
            for i, metric in enumerate(simulate._ROW_METRICS):
                assert getattr(frame, f"mean_{metric}").tobytes() == mean[:, i].tobytes()
            se = (frame.se_fnp, frame.se_lfnr)
            if reps == 1:
                assert np.all(np.isnan(se))
                continue
            std = rows.std(axis=0, ddof=1) / math.sqrt(reps)
            assert se[0].tobytes() == std[:, 0].tobytes()
            assert se[1].tobytes() == std[:, 1].tobytes()


def test_run_experiment_holds_its_rows_about_once():
    # the rows of all replications take reps x horizon x 8 float64; besides
    # them only one batch's working set (320 replications here) is held.
    # Holding a list of batches, their concatenation and std's temporary
    # peaked at 3.1 times the rows
    model = IIDModel(GeometricPrior(0.05), GaussianShift(1.0))
    config = SimConfig(model=model, k=20, alpha=0.05, horizon=50, replications=3000, seed=3)
    run_experiment(SimConfig(model=model, k=20, alpha=0.05, horizon=5, replications=2))
    tracemalloc.start()
    try:
        run_experiment(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 3000 * 50 * len(simulate._ROW_METRICS) * 8


def test_a_batch_of_few_streams_holds_its_rows_once():
    # at K=2 a batch is capped by its rows' time steps, which outnumber its
    # streams, so the run holds little beyond its rows
    model = IIDModel(GeometricPrior(0.05), GaussianShift(1.0))
    config = SimConfig(model=model, k=2, alpha=0.05, horizon=50, replications=8000, seed=3)
    run_experiment(SimConfig(model=model, k=2, alpha=0.05, horizon=5, replications=2))
    tracemalloc.start()
    try:
        run_experiment(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8000 * 50 * len(simulate._ROW_METRICS) * 8


def test_threads_open_no_more_workers_than_batches(monkeypatch):
    # a forked pool starts every one of its max_workers at the first submit,
    # so two batches get two workers, not eight; the stand-in pool records
    # its max_workers and maps in this process
    import concurrent.futures
    opened = []

    class SerialPool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    frame = run_experiment(_small_config(replications=2, threads=8))
    assert opened == [2]
    want = run_experiment(_small_config(replications=2))
    for name in simulate.CSV_COLUMNS.split(","):
        assert getattr(frame, name).tobytes() == getattr(want, name).tobytes()


def test_partial_dep_posteriors_stay_in_unit_interval():
    # on this run a live posterior once rounded to 1 + 2.7e-15, and the
    # selection rule refused it as not a probability
    model = PartialDepModel(GeometricPrior(0.02), 0.2, GaussianShift(1.0))
    frame = run_experiment(SimConfig(model=model, k=300, alpha=0.05, horizon=150,
                                     replications=1, seed=3))
    assert np.all(frame.mean_lfnr <= 0.05 + 1e-12)


def test_dependent_procedure_runs_to_joint_stop():
    model = PartialDepModel(GeometricPrior(0.1), 1.0, GaussianShift(1.0))
    frame = run_experiment(SimConfig(model=model, k=50, alpha=0.05, horizon=60,
                                     replications=40, seed=6,
                                     procedure="dependent"))
    # active count is all-or-nothing per replication
    assert frame.mean_active[0] == 50.0
    assert frame.mean_active[-1] < 1.0
    assert np.all(frame.mean_cd == 50.0 - frame.mean_active)


def test_invalid_combinations_rejected():
    with pytest.raises(ValueError):
        SimConfig(model=conflicting_priors_model(), k=4, alpha=0.34, horizon=5,
                  replications=2, procedure="threshold")
    cfg = SimConfig(model=conflicting_priors_model(), k=4, alpha=0.34,
                    horizon=5, replications=2, procedure="dependent")
    with pytest.raises(ValueError):
        run_experiment(cfg)
    with pytest.raises(ValueError):
        SimConfig(model=conflicting_priors_model(), k=4, alpha=0.34, horizon=5,
                  replications=2, procedure="nonesuch")


def test_tabular_model_simulation():
    frame = run_experiment(SimConfig(model=conflicting_priors_model(), k=4,
                                     alpha=0.34, horizon=6, replications=50,
                                     seed=7))
    assert np.all(frame.mean_lfnr <= 0.34 + 1e-12)
    assert frame.mean_active[0] == 4.0


def test_metrics_match_exact_engine_on_bernoulli_instance():
    # three independent routes meet: the float simulation accounts run
    # length directly as min(stop, change, t), while the exact engine uses
    # the conditional-expectation identity; utilization likewise
    rows = dp_optimality_report(Fraction(3, 10), Fraction(1, 5), Fraction(4, 5),
                                Fraction(3, 10), n_streams=2, horizon=3)
    model = IIDModel(GeometricPrior(0.3), BernoulliPair(0.2, 0.8))
    frame = run_experiment(SimConfig(model=model, k=2, alpha=0.3, horizon=3,
                                     replications=4000, seed=13))
    for row in rows:
        assert abs(frame.mean_util[row.t - 1] - float(row.util_proposed)) <= 0.06
        assert abs(frame.mean_rl[row.t - 1] - float(row.runlength_proposed)) <= 0.06


def test_tabular_utilization_matches_exact_expectation():
    # the exact engine puts the adaptive rule's expected utilization at
    # time 4 on the conflicting-priors instance at exactly 9; the float
    # simulation must agree to Monte Carlo accuracy
    frame = run_experiment(SimConfig(model=conflicting_priors_model(), k=4,
                                     alpha=0.34, horizon=4, replications=2000,
                                     seed=11))
    assert abs(frame.mean_util[3] - 9.0) <= 0.15
    assert abs(frame.mean_util[1] - 7.0) <= 0.1   # exact value 7 at time 2


def test_threshold_tracks_adaptive():
    # the non-adaptive rule approaches the adaptive one for large ensembles
    theta, alpha, k = 0.01, 0.05, 500
    table = calibrate_thresholds(theta, GaussianShift(1.0), alpha,
                                 n_streams=100_000, horizon=40, seed=8)
    model = IIDModel(GeometricPrior(theta), GaussianShift(1.0))
    fa = run_experiment(SimConfig(model=model, k=k, alpha=alpha, horizon=40,
                                  replications=150, seed=9))
    ft = run_experiment(SimConfig(model=model, k=k, alpha=alpha, horizon=40,
                                  replications=150, seed=9,
                                  procedure="threshold", table=table))
    assert np.abs(fa.mean_active - ft.mean_active).max() <= 0.02 * k
