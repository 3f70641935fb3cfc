"""Change-point priors and observation models for parallel data streams.

Each of K streams carries a change point ``tau`` taking values in
``{0, 1, 2, ...}`` or infinity (the stream never changes).  The time
convention is: observations at times ``1..tau`` follow the pre-change
density ``p`` and observations at times ``tau+1, tau+2, ...`` follow the
post-change density ``q``; ``tau = 0`` means every observation is
post-change.  Infinity is represented by the float ``inf`` sentinel, never
by a large integer, so "never changes" is exact.

Three ensemble variants are provided:

* :class:`IIDModel` -- i.i.d. geometric change points with a common
  observation model across streams (the homogeneous model the optimality
  theory targets).
* :class:`PartialDepModel` -- a shared geometric change time ``tau0``;
  each stream independently changes at ``tau0`` with probability ``eta``
  and otherwise never changes.  ``eta = 1`` makes all streams change
  together.
* :class:`TabularModel` -- per-stream finite-support priors (heterogeneous
  streams) with a common observation model.

Model objects are immutable after construction and safe to share across
threads; all sampling takes an explicit ``numpy.random.Generator``.  A
step is sampled in two pieces, ``draw`` then ``observations`` (see
``_SharedObs``), which a lockstep batch of replications calls apart: one
draw per replication into one buffer, then one transform of the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _special

INF = math.inf


class LogLRError(ValueError):
    """An observation with no finite log likelihood ratio: a missing or
    non-finite value, or a finite one far enough out to overflow it.
    ``index`` is the flat position of the first such observation."""

    def __init__(self, x: float, index: int):
        super().__init__(f"observation {x!r} has no finite log likelihood ratio")
        self.index = index


def check_prior_table(support, masses) -> None:
    """Refuse a finite-support change-time prior that is not one: support
    and masses must align, the support must be increasing change times >=
    0, and the masses nonnegative, summing to 1."""
    if len(support) != len(masses) or len(support) == 0:
        raise ValueError("support/mass length mismatch")
    if any(b <= a for a, b in zip(support, support[1:])):
        raise ValueError("support must be strictly increasing")
    if any(s < 0 for s in support):
        raise ValueError("change times must be >= 0")
    if any(p < 0.0 for p in masses):
        raise ValueError("negative prior mass")
    if abs(math.fsum(masses) - 1.0) > 1e-12:
        raise ValueError("prior masses must sum to 1")


def _check_prob(value: float, name: str, *, open_left: bool = False,
                open_right: bool = False) -> None:
    lo_ok = value > 0.0 if open_left else value >= 0.0
    hi_ok = value < 1.0 if open_right else value <= 1.0
    if not (math.isfinite(value) and lo_ok and hi_ok):
        lo = "(" if open_left else "["
        hi = ")" if open_right else "]"
        raise ValueError(f"{name} must lie in {lo}0, 1{hi}, got {value!r}")


@dataclass(frozen=True)
class GeometricPrior:
    """Geometric change-point prior: P(tau = m) = theta (1-theta)^m, m >= 0."""

    theta: float

    def __post_init__(self) -> None:
        _check_prob(self.theta, "theta", open_left=True, open_right=True)

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        # numpy's geometric counts trials to first success, support {1, 2, ...}
        return rng.geometric(self.theta, size=size).astype(float) - 1.0


@dataclass(frozen=True)
class GaussianShift:
    """Gaussian mean-shift observations: N(0, sigma^2) before, N(mu, sigma^2) after."""

    mu: float
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mu) and self.mu != 0.0):
            raise ValueError(f"mu must be finite and nonzero, got {self.mu!r}")
        if not (self.sigma > 0.0 and 0.0 < self.sigma * self.sigma < math.inf):
            raise ValueError(f"sigma must be positive with a finite, nonzero square, "
                             f"got {self.sigma!r}")

    def draw(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        """Fill ``out`` with raw noise, standard normals, and return it."""
        return rng.standard_normal(out=out)

    def transform(self, z: np.ndarray, post: np.ndarray) -> np.ndarray:
        """Observations from raw noise ``z`` and the boolean post-change mask."""
        return self.sigma * z + self.mu * post

    def log_lr(self, x) -> np.ndarray | float:
        """log q(x)/p(x) = (mu*x - mu^2/2) / sigma^2, refused (:class:`LogLRError`)
        unless finite: a finite x can overflow it."""
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):
            out = self.mu * x  # then in place: the bits of (mu*x - mu^2/2) / sigma^2
            out -= 0.5 * self.mu * self.mu
            out /= self.sigma * self.sigma
        finite = np.isfinite(out)
        if not finite.all():
            i = int(finite.argmin())
            raise LogLRError(float(x.flat[i]), i)
        return out if out.ndim else float(out)

    def fingerprint(self) -> str:
        return f"gauss(mu={self.mu!r},sigma={self.sigma!r})"


@dataclass(frozen=True)
class BernoulliPair:
    """Bernoulli observations: success probability p0 before, p1 after."""

    p0: float
    p1: float

    def __post_init__(self) -> None:
        _check_prob(self.p0, "p0", open_left=True, open_right=True)
        _check_prob(self.p1, "p1", open_left=True, open_right=True)
        if self.p0 == self.p1:
            raise ValueError("p0 and p1 must differ")

    def draw(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        """Fill ``out`` with raw noise, uniforms on [0, 1), and return it."""
        return rng.random(out=out)

    def transform(self, u: np.ndarray, post: np.ndarray) -> np.ndarray:
        """Observations from raw uniforms ``u`` and the boolean post-change mask."""
        return (u < np.where(post, self.p1, self.p0)).astype(float)

    def log_lr(self, x) -> np.ndarray | float:
        x = np.asarray(x, dtype=float)
        if not ((x == 0.0) | (x == 1.0)).all():  # NaN and +-inf fail too
            raise ValueError("log_lr requires finite observations" if not np.isfinite(x).all()
                             else "Bernoulli observations must be 0 or 1")
        out = np.where(
            x == 1.0,
            math.log(self.p1 / self.p0),
            math.log((1.0 - self.p1) / (1.0 - self.p0)),
        )
        return out if out.ndim else float(out)

    def fingerprint(self) -> str:
        return f"bern(p0={self.p0!r},p1={self.p1!r})"


class _SharedObs:
    """A model whose streams share one observation model ``obs``.  A step is
    sampled in two pieces: ``draw(rng, out)`` fills ``out`` with one step's
    raw noise for every stream of an ensemble, in the generator's order, and
    ``observations(t, tau, noise, streams)`` turns the noise of ``streams``
    (change times ``tau``, both aligned with them) into their observations
    at time t.  ``sample_step`` is the one composition of the two, so every
    caller shares one formula."""

    def sample_step(self, t: int, tau: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One observation per stream at time t (full row, fixed stream order)."""
        noise = self.draw(rng, np.empty(len(tau)))
        return self.observations(t, tau, noise, np.arange(len(tau)))

    def log_lr_rows(self, x: np.ndarray) -> np.ndarray:
        return self.obs.log_lr(x)

    def draw(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        return self.obs.draw(rng, out)

    def observations(self, t: int, tau: np.ndarray, noise: np.ndarray,
                     streams: np.ndarray) -> np.ndarray:
        return self.obs.transform(noise, tau < t)


@dataclass(frozen=True)
class IIDModel(_SharedObs):
    """Homogeneous ensemble: i.i.d. geometric change points, common densities."""

    prior: GeometricPrior
    obs: GaussianShift | BernoulliPair

    def sample_change_points(self, k: int, rng: np.random.Generator) -> np.ndarray:
        if k < 1:
            raise ValueError("need at least one stream")
        return self.prior.sample(k, rng)

    def fingerprint(self) -> str:
        return f"iid(theta={self.prior.theta!r},obs={self.obs.fingerprint()})"


@dataclass(frozen=True)
class PartialDepModel(_SharedObs):
    """Shared change time tau0; streams change with it w.p. eta, else never."""

    tau0: GeometricPrior
    eta: float
    obs: GaussianShift | BernoulliPair

    def __post_init__(self) -> None:
        _check_prob(self.eta, "eta")

    def sample_change_points(self, k: int, rng: np.random.Generator) -> np.ndarray:
        if k < 1:
            raise ValueError("need at least one stream")
        tau0 = self.tau0.sample(1, rng)[0]
        follows = rng.random(k) < self.eta
        return np.where(follows, tau0, INF)

    def fingerprint(self) -> str:
        return (f"partial(theta={self.tau0.theta!r},eta={self.eta!r},"
                f"obs={self.obs.fingerprint()})")


@dataclass(frozen=True)
class TabularModel(_SharedObs):
    """Heterogeneous ensemble: a finite-support prior table per stream, common densities."""

    supports: tuple[tuple[int, ...], ...]
    masses: tuple[tuple[float, ...], ...]
    obs: GaussianShift | BernoulliPair

    def __post_init__(self) -> None:
        if not (len(self.supports) == len(self.masses) >= 1):
            raise ValueError("supports and masses must align, one entry per stream")
        for k, (sup, mas) in enumerate(zip(self.supports, self.masses)):
            try:
                check_prior_table(sup, mas)
            except ValueError as exc:
                raise ValueError(f"stream {k}: {exc}") from None

    @property
    def n_streams(self) -> int:
        return len(self.supports)

    def sample_change_points(self, k: int, rng: np.random.Generator) -> np.ndarray:
        if k != self.n_streams:
            raise ValueError(f"model defines {self.n_streams} streams, got k={k}")
        # the first point whose running mass exceeds u, else the last point
        return np.array([sup[min(np.searchsorted(np.cumsum(mas), u, side="right"), len(sup) - 1)]
                         for sup, mas, u in zip(self.supports, self.masses, rng.random(k))],
                        dtype=float)

    def draw(self, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
        """One uniform per stream, whatever the observation model."""
        return rng.random(out=out)

    def observations(self, t: int, tau: np.ndarray, u: np.ndarray,
                     streams: np.ndarray) -> np.ndarray:
        # uniform -> normal via inverse CDF keeps one innovation per (t, k)
        z = u if isinstance(self.obs, BernoulliPair) else _special.ndtri(u)
        return self.obs.transform(z, tau < t)

    def fingerprint(self) -> str:
        rows = ";".join(
            ",".join(f"{m}:{p!r}" for m, p in zip(sup, mas)) + "|" + self.obs.fingerprint()
            for sup, mas in zip(self.supports, self.masses)
        )
        return f"tabular({rows})"


EnsembleModel = IIDModel | PartialDepModel | TabularModel


def conflicting_priors_model() -> TabularModel:
    """Four Bernoulli(0.5 -> 0.51) streams with two-point priors chosen so that
    no single deactivation procedure maximizes stream utilization at every time.
    """
    return TabularModel(
        supports=((0, 3), (0, 1), (0, 1), (0, 3)),
        masses=((0.1, 0.9), (0.4, 0.6), (0.43, 0.57), (0.55, 0.45)),
        obs=BernoulliPair(0.5, 0.51),
    )
