"""Covariance and transition formulas of the set-indexed OU process.

The stationary field indexed by rectangles U = [0, t] is the centered
Gaussian field with

    Cov(X_U, X_V) = sigma^2 / (2 lambda) * exp(-lambda m(U sym-diff V)),

where m is the configured measure. Started from a point mass x0 on the
degenerate rectangle at the origin, the field instead has

    E[X_U]        = x0 * exp(-lambda m(U)),
    Cov(X_U, X_V) = sigma^2 / (2 lambda)
                    * (exp(-lambda m(U sym-diff V)) - exp(-lambda (m(U) + m(V)))).

Conditionally on the values x_i at the frontier corners F_i (signs eps_i)
of an increment [0, a] minus B, the value at a is Gaussian with

    mean = sum_i eps_i * exp(-lambda (m(a) - m(F_i))) * x_i,
    var  = sigma^2 / (2 lambda) * (1 - sum_i eps_i * exp(-2 lambda (m(a) - m(F_i)))).

Both are the case v0 = s = sigma^2 / (2 lambda), resp. v0 = 0, of the field
started from an origin value of variance v0, whose covariance is
s exp(-lambda m(U sym-diff V)) + (v0 - s) exp(-lambda (m(U) + m(V))).
:func:`cov_matrix` and :func:`mean_vector` evaluate it over corner lists.

The classical one-parameter OU kernel is the one-dimensional Lebesgue case
with m(a) - m(F) the elapsed time. Exponents are always of the gap
m(a) - m(F_i) >= 0, never of the raw measures, so nothing overflows for
large rectangles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateKernelError, InvalidGeometryError, KernelInconsistencyError
from .geometry import Corner, Increment, frontier
from .measures import MeasureSpec, measure_rect, measure_rows, measure_symdiffs

# A computed transition variance below this is a broken formula, not roundoff.
VARIANCE_FLOOR = -1e-10

__all__ = [
    "KernelParams",
    "TransitionParams",
    "cov_matrix",
    "mean_vector",
    "cov_stationary",
    "mean_dirac",
    "cov_dirac",
    "transition_params",
    "transition_density",
]


@dataclass(frozen=True)
class KernelParams:
    """Mean-reversion rate lambda, noise scale sigma, and the measure."""

    lam: float
    sigma: float
    measure: MeasureSpec

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise InvalidGeometryError(f"lambda must be finite and positive, got {self.lam}")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise InvalidGeometryError(f"sigma must be finite and positive, got {self.sigma}")

    @property
    def stationary_variance(self) -> float:
        """Marginal variance sigma^2 / (2 lambda) of the stationary field."""
        return self.sigma**2 / (2.0 * self.lam)

    def to_json(self) -> dict:
        return {"lambda": self.lam, "sigma": self.sigma, "measure": self.measure.to_json()}


@dataclass(frozen=True)
class TransitionParams:
    """Conditional law of X_a given its frontier values: weights and variance.

    ``weights`` pairs each frontier corner with its signed regression
    weight; ``variance`` is the conditional variance, possibly exactly 0
    for a measure-zero increment.
    """

    a: Corner
    weights: tuple[tuple[Corner, float], ...]
    variance: float

    def conditional_mean(self, x) -> float:
        """Regression mean sum_i w_i x_i for frontier values x."""
        if len(x) != len(self.weights):
            raise ValueError(f"expected {len(self.weights)} frontier values, got {len(x)}")
        return float(sum(w * xi for (_, w), xi in zip(self.weights, x)))

    def to_json(self) -> dict:
        return {
            "a": self.a.to_json(),
            "weights": [{"corner": c.to_json(), "weight": w} for c, w in self.weights],
            "variance": self.variance,
        }


def cov_matrix(params: KernelParams, A, B=None, v0: float | None = None) -> np.ndarray:
    """Covariance matrix between the corners in A and in B (Corner lists or coordinate rows).

    B defaults to A. ``v0`` is the origin variance: None for the stationary
    field, 0 for a point start (s (sym - both) + v0 both then is s (sym - both)).
    """
    B = A if B is None else B
    s = params.stationary_variance
    sym = np.exp(-params.lam * measure_symdiffs(params.measure, A, B))
    if v0 is None:
        return s * sym
    m = params.measure
    both = np.exp(-params.lam * (measure_rows(m, A)[:, None] + measure_rows(m, B)[None, :]))
    return s * (sym - both) + v0 * both


def mean_vector(params: KernelParams, A, mu0: float) -> np.ndarray:
    """Means mu0 * exp(-lambda m(U)) of the field at the corners in A, started from mean mu0."""
    return mu0 * np.exp(-params.lam * measure_rows(params.measure, A))


def cov_stationary(params: KernelParams, u: Corner, v: Corner) -> float:
    """Stationary covariance of X_U and X_V."""
    return float(cov_matrix(params, [u], [v])[0, 0])


def mean_dirac(params: KernelParams, x0: float, u: Corner) -> float:
    """Mean of X_U when started from the point x0 at the origin rectangle."""
    return float(mean_vector(params, [u], x0)[0])


def cov_dirac(params: KernelParams, u: Corner, v: Corner) -> float:
    """Covariance of X_U and X_V when started from a point at the origin rectangle."""
    return float(cov_matrix(params, [u], [v], v0=0.0)[0, 0])


def transition_params(params: KernelParams, inc: Increment) -> TransitionParams:
    """Closed-form conditional law of X_a given the increment's frontier values.

    The weight on frontier corner F_i with sign eps_i is
    eps_i * exp(-lambda (m(a) - m(F_i))); the conditional variance is
    sigma^2/(2 lambda) * (1 - sum_i eps_i exp(-2 lambda (m(a) - m(F_i)))).
    A variance that is negative beyond roundoff raises; a tiny negative
    clamps to exactly 0, the degenerate (measure-zero increment) case. The
    frontier is the one the increment already holds, if a plan folded it.
    An overflowing measure gap (inf - inf) raises InvalidGeometryError.
    """
    m = params.measure
    m.check_dim(inc.dim)
    ma = measure_rect(m, inc.a)
    fr = frontier(inc)
    weights = []
    ssum = 0.0
    for corner, sign in fr.entries:
        gap = ma - measure_rect(m, corner)
        if math.isnan(gap):
            raise InvalidGeometryError(f"the measure gap from {corner.coords} to {inc.a.coords} came out nan: "
                                       "a rectangle's measure overflows float64")
        gap = max(gap, 0.0)
        weights.append((corner, sign * math.exp(-params.lam * gap)))
        ssum += sign * math.exp(-2.0 * params.lam * gap)
    variance = params.stationary_variance * (1.0 - ssum)
    if variance < VARIANCE_FLOOR * params.stationary_variance:
        raise KernelInconsistencyError(f"transition variance {variance} is negative beyond numerical slack")
    return TransitionParams(inc.a, tuple(weights), max(variance, 0.0))


def transition_density(tp: TransitionParams, x, y: float) -> float:
    """Transition density at y given frontier values x.

    Degenerate transitions (zero variance) have no density and raise;
    sample from them instead, the draw is the conditional mean.
    """
    if tp.variance == 0.0:
        raise DegenerateKernelError("zero-variance transition has no density; the value is the conditional mean")
    mean = tp.conditional_mean(x)
    return math.exp(-((y - mean) ** 2) / (2.0 * tp.variance)) / math.sqrt(2.0 * math.pi * tp.variance)
