import math

import numpy as np
import pytest

from streamgate.model import (INF, BernoulliPair, GaussianShift, GeometricPrior,
                              IIDModel, LogLRError, PartialDepModel, TabularModel,
                              conflicting_priors_model)


def test_geometric_prior_rejects_bad_theta():
    for theta in (0.0, 1.0, -0.1, 1.5, math.nan):
        with pytest.raises(ValueError):
            GeometricPrior(theta)


def test_geometric_sampling_matches_masses():
    # empirical frequencies within 3 sigma binomial error at n = 1e6
    prior = GeometricPrior(0.5)
    model = IIDModel(prior, GaussianShift(1.0))
    rng = np.random.default_rng(0)
    tau = model.sample_change_points(1_000_000, rng)
    for m in range(4):
        p = prior.theta * (1 - prior.theta) ** m
        se = math.sqrt(p * (1 - p) / tau.size)
        assert abs((tau == m).mean() - p) <= 3 * se
    assert abs((tau == 0).mean() - 0.5) <= 0.002


def test_partial_dep_eta_one_all_identical():
    model = PartialDepModel(GeometricPrior(0.1), 1.0, GaussianShift(1.0))
    for seed in range(5):
        tau = model.sample_change_points(10, np.random.default_rng(seed))
        assert np.all(tau == tau[0])
        assert np.isfinite(tau[0])


def test_partial_dep_eta_zero_never_changes():
    model = PartialDepModel(GeometricPrior(0.1), 0.0, GaussianShift(1.0))
    tau = model.sample_change_points(100, np.random.default_rng(1))
    assert np.all(tau == INF)


def test_partial_dep_eta_fraction():
    model = PartialDepModel(GeometricPrior(0.1), 0.3, GaussianShift(1.0))
    rng = np.random.default_rng(2)
    finite = np.concatenate([
        np.isfinite(model.sample_change_points(100, rng)) for _ in range(200)
    ])
    assert abs(finite.mean() - 0.3) <= 3 * math.sqrt(0.3 * 0.7 / finite.size)


def test_tabular_sampling_support_and_mass():
    model = conflicting_priors_model()
    rng = np.random.default_rng(3)
    draws = np.stack([model.sample_change_points(4, rng) for _ in range(20_000)])
    assert set(np.unique(draws)) <= {0.0, 1.0, 3.0}
    # stream 0 puts mass 0.1 at zero
    p0 = (draws[:, 0] == 0).mean()
    assert abs(p0 - 0.1) <= 3 * math.sqrt(0.1 * 0.9 / draws.shape[0])


def test_tabular_masses_must_sum_to_one():
    with pytest.raises(ValueError):
        TabularModel(supports=((0, 1),), masses=((0.5, 0.4),),
                     obs=BernoulliPair(0.5, 0.51))


def test_sample_step_pre_and_post_means():
    model = IIDModel(GeometricPrior(0.05), GaussianShift(1.0))
    rng = np.random.default_rng(4)
    # post-change mean (tau=0, t=1 is after the change)
    post = model.sample_step(1, np.zeros(1_000_000), rng)
    assert abs(post.mean() - 1.0) <= 0.01
    # pre-change mean (tau=inf)
    pre = model.sample_step(1, np.full(1_000_000, INF), rng)
    assert abs(pre.mean() - 0.0) <= 0.01


def test_sample_step_bernoulli_boundary():
    # at t = tau the observation still follows the pre-change law
    model = IIDModel(GeometricPrior(0.05), BernoulliPair(0.5, 0.51))
    rng = np.random.default_rng(5)
    draws = model.sample_step(3, np.full(4000, 3.0), rng)
    assert set(np.unique(draws)) <= {0.0, 1.0}
    assert abs(draws.mean() - 0.5) <= 3 * math.sqrt(0.25 / draws.size)


def test_sample_step_respects_change_points():
    model = IIDModel(GeometricPrior(0.05), GaussianShift(8.0))
    rng = np.random.default_rng(6)
    tau = np.array([0.0, 2.0, INF])
    x2 = model.sample_step(2, tau, rng)   # stream 0 changed, 1 not yet (2 <= tau)
    assert x2[0] > 4.0 and x2[1] < 4.0 and x2[2] < 4.0
    x3 = model.sample_step(3, tau, rng)
    assert x3[1] > 4.0


def test_tabular_gaussian_sample_step_is_the_inverse_cdf_of_one_uniform_per_stream():
    from scipy.special import ndtri
    model = TabularModel(((0, 2, 5),) * 4, ((0.2, 0.3, 0.5),) * 4,
                         GaussianShift(mu=0.7, sigma=1.3))
    tau = np.array([0.0, 2.0, 5.0, 2.0])
    rng, twin = np.random.default_rng(12), np.random.default_rng(12)
    for t in range(1, 8):
        x = model.sample_step(t, tau, rng)
        u = twin.random(4)
        assert x.tobytes() == (1.3 * ndtri(u) + 0.7 * (tau < t)).tobytes()


def test_gaussian_log_lr_exact():
    obs = GaussianShift(1.0)
    assert obs.log_lr(0.5) == pytest.approx(0.0, abs=1e-12)
    assert obs.log_lr(1.5) == pytest.approx(1.0, abs=1e-12)
    # antisymmetry about mu/2
    for d in (0.1, 0.7, 3.0):
        assert obs.log_lr(0.5 + d) == pytest.approx(-obs.log_lr(0.5 - d), abs=1e-12)


def test_bernoulli_log_lr_exact():
    obs = BernoulliPair(0.5, 0.51)
    assert obs.log_lr(1.0) == pytest.approx(math.log(1.02), abs=1e-12)
    assert obs.log_lr(0.0) == pytest.approx(math.log(0.49 / 0.5), abs=1e-12)


def test_log_lr_rejects_non_finite():
    with pytest.raises(ValueError):
        GaussianShift(1.0).log_lr(math.nan)
    with pytest.raises(ValueError):
        GaussianShift(1.0).log_lr(math.inf)


def test_log_lr_refuses_a_finite_observation_that_overflows_it():
    # mu * x overflows at mu=10, x=+-1e308; the first such entry is named
    obs = GaussianShift(10.0)
    for x in (1e308, -1e308):
        with pytest.raises(LogLRError, match="no finite log likelihood ratio") as err:
            obs.log_lr(np.array([0.5, 1e300, x, -x]))
        assert err.value.index == 2
    assert np.isfinite(obs.log_lr(np.array([1e306, -1e306]))).all()


def test_model_validation():
    with pytest.raises(ValueError):
        PartialDepModel(GeometricPrior(0.1), 1.5, GaussianShift(1.0))
    with pytest.raises(ValueError):
        BernoulliPair(0.5, 0.5)
    with pytest.raises(ValueError):
        GaussianShift(0.0)
    with pytest.raises(ValueError):
        IIDModel(GeometricPrior(0.1), GaussianShift(1.0)).sample_change_points(
            0, np.random.default_rng(0))


def test_fingerprints_distinguish_models():
    a = IIDModel(GeometricPrior(0.05), GaussianShift(1.0))
    b = IIDModel(GeometricPrior(0.01), GaussianShift(1.0))
    c = IIDModel(GeometricPrior(0.05), GaussianShift(2.0))
    assert len({a.fingerprint(), b.fingerprint(), c.fingerprint()}) == 3
    assert a.fingerprint() == IIDModel(GeometricPrior(0.05),
                                       GaussianShift(1.0)).fingerprint()
