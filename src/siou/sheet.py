"""Grid white noise and the OU-type integrals against it.

White-noise increments live on a rectangular grid over [lower, upper], one
independent Normal(0, cell volume) draw per cell. Integrals are midpoint
Riemann sums: a cell contributes exactly when its center lies in the
integration region.

For a positive decay vector alpha and scale sigma, the process started at
y0 on the all-zero face is

    Y_t = exp(-<alpha, t>) * (y0 + sigma * S_t),
    S_t = sum over cells with center u <= t and not u <= 0 of exp(<alpha, u>) dW(u),

and its stationary counterpart integrates exp(<alpha, u - t>) over all
cell centers u <= t. The grid's lower corner stands in for -infinity;
``truncation_bound`` gives the conservative relative second-moment error
exp(-2 min_i alpha_i L) for a tail cut at distance L, which is how the
lower corner should be chosen.

``batch_paths`` draws the points' values from their joint law, not cell
by cell. A cell c adds exp(<alpha, u_c - t_p>) dW(u_c) to point p, so for
P points the midpoint sums are a drift plus a P-dimensional Gaussian with
covariance cell volume * W^T W, W holding each support cell's weight at
each point. A row is the drift plus the Cholesky factor of that
covariance times at most P standard normals: exactly the midpoint sums
of a ``sheet_increments`` field in law. Both draw from
``RngSeed.generator()``, and the rows come from ``gaussian``'s block loop.

Restricted to rectangles [0, t] with t >= 0, the stationary integral is a
set-indexed OU field in law for the axis measure with weights alpha, unit
mean-reversion rate, and noise scale sigma_eff determined by

    sigma_eff^2 = sigma^2 * 2^(1 - N) / prod_j alpha_j;

``equivalent_kernel_params`` returns those parameters, which is what the
representation checks compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, InvalidGeometryError, InvalidGridError, OutOfRangeError
from .gaussian import RngSeed, _draw_rows, _first_copies, factorize
from .geometry import Corner
from .kernel import KernelParams
from .measures import MeasureSpec

__all__ = [
    "GridSpec",
    "SheetField",
    "sheet_increments",
    "integrate_mpou",
    "integrate_stationary",
    "truncation_bound",
    "equivalent_kernel_params",
    "batch_paths",
]


def _cell_count(s) -> int:
    """An axis's cell count: an int or an integral float, never a bool, so 10.7 or true is an error."""
    if isinstance(s, bool) or not (isinstance(s, (int, np.integer))
                                   or isinstance(s, (float, np.floating)) and float(s).is_integer()):
        raise InvalidGridError(f"cell counts must be integers, got {s!r}")
    return int(s)


@dataclass(frozen=True)
class GridSpec:
    """Uniform rectangular grid over [lower, upper] with the given cell counts."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    steps: tuple[int, ...]

    def __post_init__(self):
        lower = tuple(float(v) for v in self.lower)
        upper = tuple(float(v) for v in self.upper)
        steps = tuple(_cell_count(s) for s in self.steps)
        if not (len(lower) == len(upper) == len(steps)) or not lower:
            raise InvalidGridError("lower, upper and steps must share a positive length")
        for lo, up, s in zip(lower, upper, steps):
            if not (math.isfinite(lo) and math.isfinite(up)):
                raise InvalidGridError("grid bounds must be finite")
            if lo > 0 or up <= 0:
                raise InvalidGridError(f"the grid must straddle the origin: lower <= 0 < upper, got [{lo}, {up}]")
            if s < 1 or up <= lo:
                raise InvalidGridError(f"axis [{lo}, {up}] with {s} cells has no volume")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "steps", steps)

    @property
    def dim(self) -> int:
        return len(self.steps)

    @property
    def cell_widths(self) -> tuple[float, ...]:
        return tuple((up - lo) / s for lo, up, s in zip(self.lower, self.upper, self.steps))

    @property
    def cell_volume(self) -> float:
        return math.prod(self.cell_widths)

    @property
    def ncells(self) -> int:
        return math.prod(self.steps)


def _axis_centers(spec: GridSpec) -> list[np.ndarray]:
    """Each axis's cell centers, ascending; an axis past numpy's size limit raises MemoryError, like one past memory."""
    try:
        return [lo + (np.arange(s) + 0.5) * w for lo, s, w in zip(spec.lower, spec.steps, spec.cell_widths)]
    except (ValueError, OverflowError) as exc:  # "Maximum allowed size exceeded", or a width no float holds
        raise MemoryError(f"cannot allocate an axis of at least 2^{max(spec.steps).bit_length() - 1} cells: {exc}") from None


@lru_cache(maxsize=8)
def _centers_flat(spec: GridSpec) -> np.ndarray:
    """Cell centers as a (ncells, N) array in C order of the cell grid."""
    mesh = np.meshgrid(*_axis_centers(spec), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


@dataclass(frozen=True, eq=False)
class SheetField:
    """One realization of the grid white noise: increments shaped like the grid."""

    spec: GridSpec
    increments: np.ndarray
    seed: RngSeed


def sheet_increments(spec: GridSpec, seed: RngSeed) -> SheetField:
    """Draw the grid's white-noise increments, one Normal(0, cell volume) per cell.

    The normals come from ``seed.generator()`` in C order. ``batch_paths``
    samples the integrals of such a field in law, at most one normal per
    point, so its rows do not reuse these draws.
    """
    z = seed.generator().standard_normal(spec.steps)
    return SheetField(spec, z * math.sqrt(spec.cell_volume), seed)


def _check_alpha(alpha, dim: int | None = None) -> np.ndarray:
    """Alpha as a flat array: nonempty, finite, positive, and ``dim`` long when a dimension is given."""
    a = np.asarray(alpha, dtype=float).reshape(-1)
    if dim is not None and a.size != dim:
        raise InvalidGridError(f"alpha has {a.size} entries but the grid has dimension {dim}")
    if a.size == 0 or np.any(~np.isfinite(a)) or np.any(a <= 0):
        raise InvalidGridError(f"alpha must be finite and positive, got {tuple(a.tolist())}")
    return a


def _check_sigma(sigma) -> float:
    """Sigma as a float that is finite and positive."""
    s = float(sigma)
    if not (math.isfinite(s) and s > 0):
        raise InvalidGridError(f"sigma must be finite and positive, got {s}")
    return s


def _check_point(spec: GridSpec, t: Corner | tuple) -> np.ndarray:
    if not isinstance(t, Corner):
        t = Corner(tuple(t))
    if t.dim != spec.dim:
        raise OutOfRangeError(f"point has dimension {t.dim}, grid has {spec.dim}")
    tv = np.asarray(t.coords)
    if np.any(tv > np.asarray(spec.upper)):
        raise OutOfRangeError(f"point {t.coords} lies outside the grid upper corner {spec.upper}")
    return tv


def _check_points(spec: GridSpec, points) -> np.ndarray:
    """The points as a (P, N) array, each checked by ``_check_point``."""
    return np.array([_check_point(spec, t) for t in points], dtype=float).reshape(-1, spec.dim)


def _cell_weights(spec: GridSpec, alpha, sigma: float, points, y0: float = 0.0,
                  stationary: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The support cells and each point's weights on them: ``(support, W, drift)``.

    ``support`` holds the flat C-order indices of the cells whose center u
    satisfies u <= t for some point t, leaving out the closed negative
    orthant in the point-started mode. Column j of ``W`` (one row per
    support cell) weights unit white noise at point j by sigma * exp(<alpha,
    u - t>) in both modes, the started mode around ``drift[j]`` = y0 *
    exp(-<alpha, t>). Taking the exponent of the difference keeps steep
    alpha finite where exp(-<alpha, t>) * exp(<alpha, u>) would be 0 * inf.
    A point's value is ``drift + dW[support] @ W``.
    """
    a = _check_alpha(alpha, spec.dim)
    sigma = _check_sigma(sigma)
    tvs = _check_points(spec, points)
    centers = _centers_flat(spec)
    inside = np.all(centers[:, None, :] <= tvs[None, :, :], axis=2)
    if not stationary:
        inside &= ~np.all(centers <= 0.0, axis=1)[:, None]
    support = np.flatnonzero(inside.any(axis=1))
    inside, centers = inside[support], centers[support]
    W = np.zeros((support.size, len(tvs)))
    drift = np.zeros(len(tvs))
    for j, tv in enumerate(tvs):
        rows = inside[:, j]
        W[rows, j] = sigma * np.exp((centers[rows] - tv) @ a)
        if not stationary:
            drift[j] = y0 * math.exp(-float(a @ tv))
    return support, W, drift


def integrate_mpou(field: SheetField, alpha, sigma: float, y0: float, t: Corner) -> float:
    """Midpoint-rule value of the sheet-driven OU process started at y0.

    Sums exp(<alpha, u - t>) dW(u) over cell centers u <= t that are not
    <= 0, around the drift y0 * exp(-<alpha, t>).
    """
    support, W, drift = _cell_weights(field.spec, alpha, sigma, [t], y0)
    return float(drift[0] + field.increments.ravel()[support] @ W[:, 0])


def integrate_stationary(field: SheetField, alpha, sigma: float, t: Corner) -> float:
    """Midpoint-rule value of the stationary sheet-driven OU process at t."""
    support, W, _ = _cell_weights(field.spec, alpha, sigma, [t], stationary=True)
    return float(field.increments.ravel()[support] @ W[:, 0])


def truncation_bound(alpha, L: float) -> float:
    """Relative second-moment error bound exp(-2 min(alpha) L) for a tail cut at L."""
    a = _check_alpha(alpha)
    if not (math.isfinite(L) and L > 0):
        raise InvalidGridError(f"the truncation distance must be positive, got {L}")
    return math.exp(-2.0 * float(a.min()) * L)


def equivalent_kernel_params(alpha, sigma: float) -> KernelParams:
    """Set-indexed OU parameters matched by the stationary sheet integral.

    Unit mean-reversion rate, axis measure weighted by alpha, and noise
    scale solving sigma_eff^2 = sigma^2 * 2^(1 - N) / prod(alpha). An
    InvalidGridError when they make no valid KernelParams: sigma_eff or its
    scale sigma_eff^2 / 2 is 0 or not finite, as when prod(alpha) or
    sigma^2 overflows or underflows.
    """
    a = _check_alpha(alpha)
    sigma = _check_sigma(sigma)
    measure = MeasureSpec.axis(tuple(a))
    prod = math.prod(a.tolist())  # Python floats: an overflow gives inf without a numpy warning
    try:
        sigma_eff = math.sqrt(sigma**2 * 2.0 ** (1 - a.size) / prod)
    except (OverflowError, ZeroDivisionError):
        sigma_eff = math.inf
    try:
        return KernelParams(lam=1.0, sigma=sigma_eff, measure=measure)
    except InvalidGeometryError:
        raise InvalidGridError(f"alpha {tuple(a.tolist())} and sigma {sigma} have no valid matched kernel: "
                               f"prod(alpha) = {prod}, sigma_eff = {sigma_eff}") from None


def _sheet_factor(spec: GridSpec, alpha, sigma: float, points, y0: float = 0.0,
                  stationary: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The points' midpoint sums in law: ``drift`` plus ``Gt`` times standard normals.

    ``Gt @ Gt.T`` is cell volume * W^T W for the ``_cell_weights`` W. It is
    sigma * peak times the ``factorize`` factor of the Gram of W / peak, W
    built for sigma = 1 and peak its column maxima, so neither a huge sigma
    nor a steep alpha overflows or underflows the squares. Points with one
    support (the same count of cell centers <= t on every axis) take the
    first such point's scaled column bit for bit, so their Gram rows repeat
    and ``factorize`` deflates them. All-zero columns are dropped: at most
    one normal per point, none for a point at its drift.
    """
    sigma = _check_sigma(sigma)
    _, W, drift = _cell_weights(spec, alpha, 1.0, points, y0, stationary)
    peak = W.max(axis=0, initial=0.0)
    peak[peak == 0.0] = 1.0
    W /= peak
    tvs = _check_points(spec, points)
    keys = np.stack([np.searchsorted(ax, tvs[:, i], side="right") for i, ax in enumerate(_axis_centers(spec))], axis=1)
    owner = _first_copies(keys)
    twins = np.flatnonzero(owner != np.arange(owner.size))
    W[:, twins] = W[:, owner[twins]]
    L, _ = factorize(spec.cell_volume * np.einsum("cp,cq->pq", W, W))
    Gt = (sigma * peak)[:, None] * L
    return drift, np.ascontiguousarray(Gt[:, Gt.any(axis=0)])


def batch_paths(spec: GridSpec, alpha, sigma: float, points, replicates: int, seed: RngSeed,
                y0: float = 0.0, stationary: bool = False) -> np.ndarray:
    """Many independent sheet realizations evaluated at several points at once.

    Returns a (replicates, len(points)) array whose row r holds the
    integrate_mpou (or integrate_stationary) values at every point for the
    r-th independent sheet, in law: the drift and covariance of the midpoint
    sums over a ``sheet_increments`` field, from ``_sheet_factor``.

    The rows are ``drift + z @ Gt.T`` for one ``(replicates, columns of Gt)``
    draw ``z`` from ``seed.generator()``, made by ``gaussian._draw_rows``
    under the block contract of the ``gaussian`` module docstring.
    """
    if replicates < 1:
        raise ConfigError(f"need at least one replicate, got {replicates}")
    if len(points) == 0:
        raise ConfigError("a sheet needs at least one point")
    drift, Gt = _sheet_factor(spec, alpha, sigma, points, y0, stationary)
    return _draw_rows(Gt, replicates, seed.generator(), drift)
