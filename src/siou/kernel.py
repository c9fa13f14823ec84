"""Covariance and transition formulas of the set-indexed OU process.

The stationary field indexed by rectangles U = [0, t] is the centered
Gaussian field with

    Cov(X_U, X_V) = sigma^2 / (2 lambda) * exp(-lambda m(U sym-diff V)),

where m is the configured measure. Started from a point mass x0 on the
degenerate rectangle at the origin, the field instead has

    E[X_U]        = x0 * exp(-lambda m(U)),
    Cov(X_U, X_V) = sigma^2 / (2 lambda)
                    * (exp(-lambda m(U sym-diff V)) - exp(-lambda (m(U) + m(V)))).

Conditionally on the values x_i at the frontier corners F_i (integer nets
n_i, which sum to 1) of an increment [0, a] minus B, the value at a is
Gaussian with

    mean = sum_i n_i * exp(-lambda g_i) * x_i,
    var  = -sigma^2 / (2 lambda) * sum_i n_i * expm1(-2 lambda g_i),

with g_i = m(a) - m(F_i): since sum_i n_i = 1, that is the variance
sigma^2 / (2 lambda) * (1 - sum_i n_i exp(-2 lambda g_i)) without its cancellation.

Both are the case v0 = s = sigma^2 / (2 lambda), resp. v0 = 0, of the field
started from an origin value of variance v0, whose covariance is
s exp(-lambda m(U sym-diff V)) + (v0 - s) exp(-lambda (m(U) + m(V))).
:func:`cov_matrix` and :func:`mean_vector` evaluate it over corner lists.

The classical one-parameter OU kernel is the one-dimensional Lebesgue case
with m(a) - m(F) the elapsed time. Exponents are always of the gap
g_i >= 0 (:func:`~siou.measures.measure_gap`), never of the raw measures, so
nothing overflows for large rectangles: a gap that overflows is inf and
gives weight 0 and variance sigma^2 / (2 lambda).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateKernelError, InvalidGeometryError, KernelInconsistencyError
from .geometry import Corner, Increment, _as_rows, frontier
from .measures import MeasureSpec, measure_gap, measure_rows, measure_symdiffs

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
    same, A = B is None or B is A, _as_rows(A)
    B = A if same else _as_rows(B)
    s = params.stationary_variance
    sym = np.exp(-params.lam * measure_symdiffs(params.measure, A, B))
    if v0 is None:
        return s * sym
    m_A = measure_rows(params.measure, A)
    both = np.exp(-params.lam * (m_A[:, None] + (m_A if same else measure_rows(params.measure, B))[None, :]))
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

    The weight on frontier corner F_i with net n_i is n_i * exp(-lambda g_i),
    and the conditional variance is -sigma^2/(2 lambda) * sum_i n_i
    expm1(-2 lambda g_i), with g_i the measure gap from F_i to a. A
    variance that is negative beyond roundoff raises; a tiny negative
    clamps to exactly 0, the degenerate (measure-zero increment) case. The
    frontier is the one the increment already holds, if a plan folded it.
    """
    lam = params.lam
    weights = []
    unexplained = 0.0  # 1 - sum_i n_i exp(-2 lambda g_i), a +0.0 when every gap is 0
    for corner, net in frontier(inc).entries:
        gap = measure_gap(params.measure, inc.a, corner)
        weights.append((corner, net * math.exp(-lam * gap)))
        unexplained -= net * math.expm1(-2.0 * lam * gap)
    variance = params.stationary_variance * unexplained
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
