import math

import numpy as np
import pytest
from scipy.special import expit, logsumexp

from streamgate.detector import (AdaptiveDetector, CheckpointError, DependentDetector,
                                 checkpoint_state, restore_state)
from streamgate.model import (GaussianShift, GeometricPrior, IIDModel, PartialDepModel,
                              TabularModel)
from streamgate.posterior import (DependentPosteriorState, PartialDepPosterior,
                                  PosteriorState, TabularPosteriorState)
from streamgate.verify import brute_force_posterior, posterior_partial_dep
from test_detector import _pack, _payload, _resigned, _unpack


def _run_recursion(theta, llr):
    state = PosteriorState(theta, 1)
    for value in llr:
        state.advance([value], [0])
    return state.w[0]


def test_single_update_known_value():
    # theta=0.5, W=0, likelihood ratio 1: posterior lands at 1/2
    state = PosteriorState(0.5, 1)
    state.advance([0.0], [0])
    assert state.t == 1
    assert state.w[0] == pytest.approx(0.5, abs=1e-15)


def test_w_one_is_absorbing():
    state = PosteriorState.from_arrays(0.3, 1, 3, [False], [math.inf])
    for llr in (-50.0, 0.0, 17.0):
        state.advance([llr], [0])
        assert state.w[0] == 1.0


def test_recursion_matches_brute_force():
    rng = np.random.default_rng(0)
    for theta in (0.01, 0.05, 0.3):
        for _ in range(20):
            t = int(rng.integers(1, 26))
            llr = rng.normal(0.0, 1.2, size=t)
            assert _run_recursion(theta, llr) == pytest.approx(
                brute_force_posterior(theta, llr), abs=1e-10)


def test_update_monotone_in_likelihood_ratio():
    rng = np.random.default_rng(1)
    for _ in range(200):
        w0 = rng.random()
        theta = rng.uniform(0.01, 0.9)
        llr = rng.normal()
        lo, hi = (PosteriorState.from_arrays(theta, 1, 0, [False],
                                             [math.log(w0) - math.log1p(-w0)])
                  for _ in range(2))
        lo.advance([llr], [0])
        hi.advance([llr + 1e-6], [0])
        assert hi.w[0] >= lo.w[0]


def test_permutation_equivariance():
    rng = np.random.default_rng(2)
    llr = rng.normal(size=6)
    state, state_p = PosteriorState(0.1, 6), PosteriorState(0.1, 6)
    state.advance(llr, np.arange(6))
    perm = rng.permutation(6)
    state_p.advance(llr[perm], np.arange(6))
    assert np.allclose(state.w[perm], state_p.w, atol=0, rtol=0)


def test_frozen_streams_never_change():
    rng = np.random.default_rng(3)
    state = PosteriorState(0.2, 3)
    state.advance(rng.normal(size=3), np.arange(3))
    pinned = state.w[1]
    state.freeze([1])
    for _ in range(5):
        state.advance(rng.normal(size=2), [0, 2])
    assert state.w[1] == pinned
    with pytest.raises(ValueError):
        state.advance([0.0], [1])
    with pytest.raises(ValueError):
        state.advance([0.0], [3])
    assert state.t == 6


@pytest.mark.parametrize("live", [0.95, 0.6, 0.4, 0.05])
def test_iid_w_after_freeze_is_expit_of_the_log_odds(live):
    # frozen streams report their pinned value, and w evaluates expit on the
    # live ones only once at least half are frozen: either way every bit is
    # expit(log_odds), whether freeze was handed the values or read them
    k = 400
    rng = np.random.default_rng(8)
    state = PosteriorState(0.05, k)
    active = np.arange(k)
    for t in range(1, 6):
        state.advance(rng.normal(1.0, 3.0, size=len(active)), active)
        assert state.w.tobytes() == expit(state.log_odds).tobytes()
        dropped = np.sort(rng.choice(active, size=(len(active) - int(live * k)) // (6 - t),
                                     replace=False))
        state.freeze(dropped, state.w[dropped] if t % 2 else None)
        active = np.setdiff1d(active, dropped)
        assert state.w.tobytes() == expit(state.log_odds).tobytes()
    assert len(active) == int(live * k)
    back = PosteriorState.from_arrays(0.05, k, state.t, state.frozen, **state.to_arrays())
    assert back.w.tobytes() == expit(state.log_odds).tobytes()


def test_iid_w_after_restore_state_is_expit_of_the_log_odds():
    # a detector restored from its checkpoint at every step, while most of
    # its streams are live and while most are frozen
    model, k = IIDModel(GeometricPrior(0.05), GaussianShift(1.0)), 300
    rng = np.random.default_rng(9)
    tau = model.sample_change_points(k, rng)
    det = AdaptiveDetector(model, 0.05, k)
    fractions = set()
    for t in range(1, 60):
        det.observe(model.sample_step(t, tau, rng)[det.active])
        det.deactivate()
        det = restore_state(checkpoint_state(det), model, k)
        assert det.w.tobytes() == expit(det._state.log_odds).tobytes(), f"t={t}"
        fractions.add(det.n_active > k // 2)
    assert fractions == {True, False}


def _six_tabular_streams():
    """Six Gaussian streams whose change time is 0, 5 or 10."""
    return TabularModel(((0, 5, 10),) * 6, ((0.2, 0.3, 0.5),) * 6, GaussianShift(1.0))


@pytest.mark.parametrize("backend", ["iid", "tabular", "partial", "dependent"])
def test_frozen_stream_keeps_its_drop_time_w_bits(backend):
    # streams are dropped well before the end of the run, and the detector
    # goes through a checkpoint round trip after every step; the tabular
    # streams are all dropped at t=6, before support point 10 passes below t
    if backend == "tabular":
        model = _six_tabular_streams()
        k, alpha, seed = 6, 0.3, 2
    elif backend == "iid":
        model, k, alpha, seed = IIDModel(GeometricPrior(0.2), GaussianShift(1.5)), 20, 0.1, 4
    else:
        eta = 0.5 if backend == "partial" else 1.0
        model = PartialDepModel(GeometricPrior(0.2), eta, GaussianShift(1.5))
        k, alpha, seed = 20, 0.2, 3
    make = DependentDetector if backend == "dependent" else AdaptiveDetector
    det = make(model, alpha, k)
    rng = np.random.default_rng(seed)
    tau = model.sample_change_points(k, rng)
    pinned = np.full(k, np.nan)
    for t in range(1, 31):
        det.observe(model.sample_step(t, tau, rng)[det.active])
        dropped = det.deactivate()
        pinned[dropped] = det.w[dropped]
        det = restore_state(checkpoint_state(det), model, k)
        frozen = det.t_stop >= 0
        assert det.w[frozen].tobytes() == pinned[frozen].tobytes(), f"t={t}"
    assert frozen.any() and det.t_stop[frozen].min() <= 15


def test_update_rejects_misaligned_inputs():
    with pytest.raises(ValueError):
        PosteriorState(0.1, 3).advance([0.0, 0.0], [0])


# ---------------------------------------------------------------------------
# shared-change-time posterior
# ---------------------------------------------------------------------------

def _dependent_oracle(theta, llr):
    """Direct Bayes sum over the shared change time (tail collapsed)."""
    k, t = llr.shape
    col = llr.sum(axis=0)
    cum = np.concatenate([[0.0], np.cumsum(col)])
    m = np.arange(t)
    terms = np.log(theta) + m * np.log1p(-theta) + (cum[t] - cum[m])
    tail = t * np.log1p(-theta)
    return float(np.exp(logsumexp(terms) - logsumexp(np.append(terms, tail))))


def test_dependent_single_step():
    state = DependentPosteriorState(0.5, 2)
    state.advance([0.3, -0.3], [0, 1])
    assert state.log_rho == pytest.approx(0.0, abs=1e-15)  # rho = 1
    assert state.w.tolist() == pytest.approx([0.5, 0.5], abs=1e-15)


def test_dependent_saturates():
    state = DependentPosteriorState(0.5, 1)
    state.advance([1e6], [0])
    assert state.w[0] == 1.0


def test_dependent_deactivates_jointly():
    state = DependentPosteriorState(0.2, 3)
    with pytest.raises(ValueError, match="cover every stream"):
        state.advance([0.1, 0.2], [0, 1])
    state.advance([0.1, 0.2, 0.3], [0, 1, 2])
    with pytest.raises(ValueError, match="jointly"):
        state.freeze([1])
    pinned = state.w
    state.freeze([0, 1, 2])
    state.advance([], [])
    assert state.t == 2 and state.w.tobytes() == pinned.tobytes()
    with pytest.raises(ValueError):
        state.advance([0.1, 0.2, 0.3], [0, 1, 2])


def test_dependent_matches_enumeration():
    rng = np.random.default_rng(4)
    for trial in range(20):
        t = int(rng.integers(1, 9))
        llr = rng.normal(0, 1, size=(3, t))
        state = DependentPosteriorState(0.2, 3)
        for s in range(t):
            state.advance(llr[:, s], [0, 1, 2])
        assert state.w[0] == pytest.approx(_dependent_oracle(0.2, llr), abs=1e-10)


# ---------------------------------------------------------------------------
# partially dependent posterior
# ---------------------------------------------------------------------------

def _partial_oracle(theta, eta, llr, trunc=600):
    """Joint enumeration over the shared time and per-stream change flags."""
    k, t = llr.shape
    cum = np.concatenate([np.zeros((k, 1)), np.cumsum(llr, axis=1)], axis=1)
    num = np.zeros(k)
    den = 0.0
    for m in range(trunc):
        pm = theta * (1 - theta) ** m
        for flags in range(2 ** k):
            pf = 1.0
            lik = 1.0
            changed = np.zeros(k, dtype=bool)
            for j in range(k):
                if flags >> j & 1:
                    pf *= eta
                    lik *= math.exp(cum[j, t] - cum[j, min(m, t)])
                    changed[j] = m < t
                else:
                    pf *= 1.0 - eta
            weight = pm * pf * lik
            den += weight
            num += weight * changed
    return num / den


def test_partial_dep_matches_joint_enumeration():
    rng = np.random.default_rng(5)
    prior = GeometricPrior(0.3)
    for _ in range(8):
        t = int(rng.integers(1, 7))
        llr = rng.normal(0, 1, size=(3, t))
        got = posterior_partial_dep(prior, 0.5, llr)
        want = _partial_oracle(0.3, 0.5, llr)
        assert np.abs(got - want).max() <= 1e-10


def test_partial_dep_eta_edges():
    rng = np.random.default_rng(6)
    llr = rng.normal(size=(4, 5))
    prior = GeometricPrior(0.2)
    assert np.all(posterior_partial_dep(prior, 0.0, llr) == 0.0)
    w1 = posterior_partial_dep(prior, 1.0, llr)
    state = DependentPosteriorState(0.2, 4)
    for s in range(5):
        state.advance(llr[:, s], np.arange(4))
    assert np.abs(w1 - state.w).max() <= 1e-12
    assert np.ptp(w1) == 0.0  # every stream identical when eta = 1


def test_partial_dep_streaming_backend_tracks_exact_posterior():
    rng = np.random.default_rng(7)
    llr = rng.normal(size=(3, 6))
    live = PartialDepPosterior(0.3, 0.5, 3)
    for s in range(6):
        live.advance(llr[:, s], [0, 1, 2])
        want = posterior_partial_dep(GeometricPrior(0.3), 0.5, llr[:, :s + 1])
        assert np.abs(live.w - want).max() <= 1e-12


def test_partial_dep_streaming_backend_with_deactivation():
    # a stream dropped after two steps contributes only its observed data
    rng = np.random.default_rng(8)
    llr = rng.normal(size=(3, 6))
    live = PartialDepPosterior(0.3, 0.5, 3)
    live.advance(llr[:, 0], [0, 1, 2])
    live.advance(llr[:, 1], [0, 1, 2])
    pinned = live.w[1]
    live.freeze([1])
    for s in range(2, 6):
        live.advance(llr[[0, 2], s], [0, 2])
    observed = llr.copy()
    observed[1, 2:] = 0.0  # no data after the stop: zero log-likelihood-ratio
    want = _partial_oracle(0.3, 0.5, observed)
    assert np.abs(live.w[[0, 2]] - want[[0, 2]]).max() <= 1e-10
    assert live.w[1] == pinned


def _full_history_w(theta, eta, cum, stopped_at, frozen_w):
    """The every-stream formula: re-stack each stream's (t+1)-long cumulative
    log LR path, truncated at its stop time, on every call."""
    k, width = cum.shape
    t = width - 1
    frozen = stopped_at >= 0
    if t == 0 or eta == 0.0:
        return np.where(frozen, frozen_w, 0.0)
    u = np.where(frozen, stopped_at, t)
    rows = np.arange(k)
    m = np.arange(t)
    l_km = cum[rows, u][:, None] - cum[rows[:, None], np.minimum(m[None, :], u[:, None])]
    if eta == 1.0:
        log_lam, log_pk = l_km, np.zeros_like(l_km)
    else:
        log_lam = np.logaddexp(math.log(eta) + l_km, math.log1p(-eta))
        log_pk = math.log(eta) + l_km - log_lam
    log_joint = math.log(theta) + m * math.log1p(-theta) + log_lam.sum(axis=0)
    log_z = logsumexp(np.append(log_joint, t * math.log1p(-theta)))
    live = np.exp(logsumexp(log_joint[None, :] - log_z + log_pk, axis=1))
    return np.where(frozen, frozen_w, np.minimum(live, 1.0))


def _assert_rows_match_scipy(a):
    """``_logsumexp_rows`` gives scipy's bits on ``a``, leaving ``a`` alone,
    and so does its workspace path, run twice on one workspace that starts
    as junk: first on ``a`` with its columns reversed, then on ``a``."""
    from streamgate.posterior import _logsumexp_rows

    kept = a.copy()
    with np.errstate(invalid="raise", divide="raise"):
        got = _logsumexp_rows(a)
        assert a.tobytes() == kept.tobytes()
        assert got.tobytes() == logsumexp(a, axis=1).tobytes()
        work = (np.full(a.shape, np.nan), np.ones(a.shape, bool), np.ones(a.shape, bool))
        for x in (a[:, ::-1], a):
            got = _logsumexp_rows(x.copy(), work)
            assert got.tobytes() == logsumexp(x, axis=1).tobytes()


def test_logsumexp_rows_is_bit_identical_to_scipy():
    rng = np.random.default_rng(17)
    a = rng.normal(0.0, 30.0, size=(300, 40))
    a[::7, 3] = a[::7, 5] = a[::7].max(axis=1) + 1.0   # tied row maxima
    a[1] = -800.0                         # every term is a maximum
    a[2] = np.linspace(-760.0, 0.0, 40)   # subnormal and zero terms
    a[3:40] *= 40.0                       # most terms underflow
    _assert_rows_match_scipy(a)
    # the tabular backend's rows: -inf padding, and rows that are all -inf
    for _ in range(2000):
        rows, width = rng.integers(1, 8), rng.integers(1, 6)
        b = rng.normal(0.0, rng.choice([1.0, 30.0, 400.0]), size=(rows, width))
        b[rng.random(b.shape) < 0.4] = -math.inf
        b[rng.random(rows) < 0.2] = -math.inf
        _assert_rows_match_scipy(b)


def _drive_with_freezes(eta, k=200, steps=60, seed=14, restore_at=None):
    """Yield (posterior, cum, stopped_at, frozen_w) after every advance of a
    run that freezes streams at several times, some of them in batches; at
    step ``restore_at`` the run goes on from ``to_arrays``/``from_arrays``."""
    rng = np.random.default_rng(seed)
    post = PartialDepPosterior(0.05, eta, k)
    cum = np.zeros((k, 1))
    stopped_at = np.full(k, -1)
    frozen_w = np.zeros(k)
    live = np.arange(k)
    for s in range(1, steps + 1):
        llr = rng.normal(0.4, 1.2, size=live.size)
        post.advance(llr, live)
        if s == restore_at:
            post = PartialDepPosterior.from_arrays(0.05, eta, k, s, stopped_at >= 0,
                                                   **post.to_arrays())
        col = cum[:, -1].copy()
        col[live] += llr
        cum = np.column_stack([cum, col])
        yield post, cum, stopped_at, frozen_w
        if s in (3, 10, 11, 25, 40, 59):
            drop = live[rng.random(live.size) < 0.25]
            frozen_w[drop] = post.w[drop]
            post.freeze(drop)
            stopped_at[drop] = s
            live = np.setdiff1d(live, drop)


def _fresh_w(post):
    """``PartialDepPosterior.w`` with every live x t intermediate a fresh
    array and scipy's row sums, as it was before the backend kept scratch
    buffers."""
    t, eta, theta = post.t, post.eta, post.theta
    out = post._frozen_w.copy()
    live = post._stopped_at[post._ids] < 0
    if t == 0 or eta == 0.0 or not live.any():
        return out
    h = post._hist[:, :t + 1]
    l_km = h[:, t:t + 1] - h[:, :t]
    log_lam = l_km if eta == 1.0 else np.logaddexp(math.log(eta) + l_km, math.log1p(-eta))
    log_pk = math.log(eta) + l_km - log_lam
    m = np.arange(t)
    log_joint = (math.log(theta) + m * math.log1p(-theta)
                 + (post._acc[:t] + log_lam.sum(axis=0)))
    log_z = logsumexp(np.append(log_joint, t * math.log1p(-theta))[None, :], axis=1)[0]
    w_rows = np.exp(logsumexp(log_joint[None, :] - log_z + log_pk, axis=1))
    out[post._ids[live]] = np.minimum(w_rows[live], 1.0)
    return out


@pytest.mark.parametrize("eta", [0.3, 0.5, 1.0])  # at 1, log Lam is l_km itself
def test_partial_dep_w_keeps_the_bits_of_fresh_temporaries(eta):
    # every step of a run with freezes and a mid-run checkpoint round trip;
    # a returned ``w`` shares nothing with the scratch the next steps reuse
    grown, before = 0, None
    for post, *_ in _drive_with_freezes(eta, restore_at=30):
        work = post._work
        got = post.w
        grown += post._work is not work
        assert got.tobytes() == _fresh_w(post).tobytes()
        if before is not None:
            assert before[0].tobytes() == before[1]
        before = got, got.tobytes()
    assert post.t == 60 and grown > 2


@pytest.mark.parametrize("eta", [0.3, 0.5, 1.0])
def test_partial_dep_live_rows_match_full_history_formula(eta):
    # K=200 over 60 steps, frozen in six batches: the live rows plus the
    # frozen-stream accumulator give the every-stream formula's values
    worst = 0.0
    for post, cum, stopped_at, frozen_w in _drive_with_freezes(eta):
        want = _full_history_w(0.05, eta, cum, stopped_at, frozen_w)
        got = post.w
        assert np.array_equal(got[stopped_at >= 0], frozen_w[stopped_at >= 0])
        worst = max(worst, float(np.abs(got - want).max()))
    assert (stopped_at >= 0).sum() > 100
    assert worst <= 1e-12


def test_partial_dep_buffer_holds_only_live_rows():
    for post, cum, stopped_at, _ in _drive_with_freezes(0.5, k=40, steps=30):
        live = np.flatnonzero(stopped_at < 0)
        history = post.to_arrays()["history"]
        assert np.array_equal(post._ids, live)
        assert history.shape == (live.size, post.t + 1)
        assert np.array_equal(history, cum[live])
        assert post.to_arrays()["acc"].shape == (post.t,)
    assert live.size < 40


def test_partial_dep_freeze_keeps_w_until_the_next_advance():
    # a stream frozen at t is still observed through t, so its row is
    # folded only on the next advance and ``w`` keeps its bits until then
    rng = np.random.default_rng(15)
    post = PartialDepPosterior(0.1, 0.5, 8)
    for _ in range(4):
        post.advance(rng.normal(size=8), np.arange(8))
    before = post.w
    post.freeze([1, 5])
    assert post.w.tobytes() == before.tobytes()
    assert post.to_arrays()["history"].shape == (8, 5)
    post.advance(rng.normal(size=6), [0, 2, 3, 4, 6, 7])
    assert post.to_arrays()["history"].shape == (6, 6)


@pytest.mark.parametrize("backend", ["iid", "tabular", "partial"])
def test_advance_rejects_frozen_or_unknown_streams(backend):
    post = {"iid": lambda: PosteriorState(0.1, 4),
            "tabular": lambda: TabularPosteriorState(((0, 2),) * 4, ((0.3, 0.7),) * 4),
            "partial": lambda: PartialDepPosterior(0.1, 0.5, 4)}[backend]()
    post.advance([0.1, 0.2, 0.3, 0.4], [0, 1, 2, 3])
    post.freeze([2])
    for bad in ([0, 2], [0, 4], [-1, 0], [0, 0], [1, 0]):
        with pytest.raises(ValueError, match="frozen or unknown"):
            post.advance([0.1, 0.1], bad)
    if backend == "partial":
        with pytest.raises(ValueError, match="frozen or unknown"):
            post.freeze([2])
    assert post.t == 1
    post.advance([0.1, 0.1, 0.1], [0, 1, 3])
    assert post.t == 2


def _partial_run(k=30, steps=24, seed=17):
    model = PartialDepModel(GeometricPrior(0.15), 0.5, GaussianShift(1.0))
    rng = np.random.default_rng(seed)
    tau = model.sample_change_points(k, rng)
    return model, [model.sample_step(t, tau, rng) for t in range(1, steps + 1)]


@pytest.mark.parametrize("phase", ["observe", "select"])
def test_partial_dep_checkpoint_mid_run_round_trips(phase):
    # checkpoints at every step of a run with drops at several times, taken
    # right after a selection (this step's drops still buffered) or right
    # after an observation; each restores bit-exactly and resumes identically
    model, data = _partial_run()
    full = AdaptiveDetector(model, 0.2, 30)
    for x in data:
        if full.t:
            full.deactivate()
        full.observe(x[full.active])
    assert len(set(full.t_stop[full.t_stop >= 0])) >= 3

    det = AdaptiveDetector(model, 0.2, 30)
    for i, x in enumerate(data):
        if det.t:
            det.deactivate()
        if phase == "observe" and det.t:
            _check_round_trip(det, model, data[i:], full)
        det.observe(x[det.active])
        if phase == "select":
            _check_round_trip(det, model, data[i + 1:], full)


def _check_round_trip(det, model, rest, full):
    blob = checkpoint_state(det)
    back = restore_state(blob, model, det.k)
    assert back.w.tobytes() == det.w.tobytes()
    assert back.trace().equals(det.trace())
    assert checkpoint_state(back) == blob
    for x in rest:
        if back._phase == "select":
            back.deactivate()
        back.observe(x[back.active])
    assert back.trace().equals(full.trace())
    assert back.w.tobytes() == full.w.tobytes()


def test_partial_dep_checkpoint_keeps_only_live_rows():
    model, data = _partial_run()
    det = AdaptiveDetector(model, 0.2, 30)
    for x in data:
        if det.t:
            det.deactivate()
        det.observe(x[det.active])
    arrays = _payload(checkpoint_state(det))["arrays"]
    assert "cum" not in arrays
    assert arrays["history"]["shape"] == [det.n_active, det.t + 1]
    assert det.n_active < 30
    assert arrays["acc"]["shape"] == [det.t]
    assert arrays["stopped_at"]["shape"] == arrays["frozen_w"]["shape"] == [30]


@pytest.mark.parametrize("field", ["history", "acc"])
def test_partial_dep_checkpoint_with_a_missing_row_is_refused(field):
    # taken after the selection at t=14, with the dropped stream's row still kept
    model, data = _partial_run()
    det = AdaptiveDetector(model, 0.2, 30)
    for x in data[:14]:
        if det.t:
            det.deactivate()
        det.observe(x[det.active])
    det.deactivate()
    assert det.t == 14 and np.count_nonzero(det.t_stop == 14) == 1
    payload = _payload(checkpoint_state(det))
    assert payload["arrays"]["history"]["shape"][0] == det.n_active + 1
    assert restore_state(_resigned(payload), model, 30).t == 14
    payload["arrays"][field] = _pack(_unpack(payload["arrays"][field])[:-1])
    with pytest.raises(CheckpointError, match="partially dependent"):
        restore_state(_resigned(payload), model, 30)


@pytest.mark.parametrize("field", ["history", "acc"])
def test_partial_dep_checkpoint_after_observation_with_a_missing_row_is_refused(field):
    # the same, taken after the observation at t=14
    model, data = _partial_run()
    det = AdaptiveDetector(model, 0.2, 30)
    for x in data[:14]:
        if det.t:
            det.deactivate()
        det.observe(x[det.active])
    payload = _payload(checkpoint_state(det))
    payload["arrays"][field] = _pack(_unpack(payload["arrays"][field])[:-1])
    with pytest.raises(CheckpointError, match="partially dependent"):
        restore_state(_resigned(payload), model, 30)


def test_partial_dep_checkpoint_with_float_stop_times_is_refused():
    # a float stop time must be refused: truncated, it restores another
    # fold time and wrong posteriors
    model, data = _partial_run()
    det = AdaptiveDetector(model, 0.2, 30)
    for x in data[:14]:
        if det.t:
            det.deactivate()
        det.observe(x[det.active])
    payload = _payload(checkpoint_state(det))
    arrays = payload["arrays"]
    stopped_at = _unpack(arrays["stopped_at"])
    assert restore_state(_resigned(payload), model, 30).t == 14
    assert np.any((stopped_at >= 2) & (stopped_at < 14))
    arrays["stopped_at"] = _pack(np.where(stopped_at >= 2, stopped_at + 0.5, stopped_at))
    with pytest.raises(CheckpointError, match="integers"):
        restore_state(_resigned(payload), model, 30)


# ---------------------------------------------------------------------------
# finite-support posteriors
# ---------------------------------------------------------------------------

def _table_oracle(support, masses, p0, p1, xs):
    """Per-stream finite-prior Bayes by direct summation."""
    t = len(xs)
    post = []
    for m, pm in zip(support, masses):
        lik = 1.0
        for s, x in enumerate(xs, start=1):
            p = p1 if s > m else p0
            lik *= p if x else 1.0 - p
        post.append(pm * lik)
    z = sum(post)
    return sum(p for m, p in zip(support, post) if m <= t - 1) / z


def test_tabular_posterior_matches_direct_bayes():
    supports = ((0, 3), (0, 1))
    masses = ((0.1, 0.9), (0.4, 0.6))
    rng = np.random.default_rng(12)
    for _ in range(20):
        xs = rng.integers(0, 2, size=4)
        state = TabularPosteriorState(supports, masses)
        llr1 = np.log(np.where(xs == 1, 0.51 / 0.5, 0.49 / 0.5))
        for s in range(4):
            state.advance([llr1[s], llr1[s]], [0, 1])
            for k in range(2):
                want = _table_oracle(supports[k], masses[k], 0.5, 0.51,
                                     xs[:s + 1])
                assert state.w[k] == pytest.approx(want, abs=1e-12)


def test_tabular_posteriors_stay_in_unit_interval():
    # once every support point lies below t, a live stream's posterior sums
    # all of its mass; on this run it rounded to 1 + 2.2e-16 at t=11, and
    # the selection rule refused it as not a probability
    model = _six_tabular_streams()
    rng = np.random.default_rng(65)
    tau = model.sample_change_points(6, rng)
    det = AdaptiveDetector(model, 0.3, 6)
    for t in range(1, 16):
        det.observe(model.sample_step(t, tau, rng)[det.active])
        assert det.w.max() <= 1.0
        det.deactivate()


def test_tabular_posterior_freeze():
    state = TabularPosteriorState(((0, 2),), ((0.3, 0.7),))
    state.advance([0.4], [0])
    before = state.log_post.copy()
    state.freeze([0])
    with pytest.raises(ValueError):
        state.advance([0.4], [0])
    state.advance([], [])
    assert state.t == 2
    assert state.log_post.tobytes() == before.tobytes()
