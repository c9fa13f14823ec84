"""Measures of rectangles and rectangle unions.

Two measure kinds drive the kernels. The Lebesgue measure of [0, t] is the
product of the coordinates of t. The axis measure with weight vector alpha
charges only the coordinate axes, giving [0, t] mass sum_i alpha_i t_i; it
grows linearly where the Lebesgue measure degenerates near the axes.
Unions are measured by exact inclusion-exclusion, summing the signed
meets of their corners (the geometry's fold), and set differences by
subtraction, so everything stays exact at desk scale.
The array forms :func:`measure_rows` and :func:`measure_symdiffs` feed the
covariance-matrix builder.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError, InvalidGeometryError
from .geometry import Corner, Increment, UnionSet, _as_rows, _signed_meets

# A measure difference computed by subtraction may round slightly negative;
# anything below this is a real inconsistency, anything above clamps to 0.
NEGATIVE_RESIDUE_FLOOR = -1e-9

__all__ = ["MeasureSpec", "measure_rect", "measure_rows", "measure_gap", "measure_union", "measure_symdiff",
           "measure_symdiffs", "measure_diff"]


@dataclass(frozen=True)
class MeasureSpec:
    """Which measure to use: ``lebesgue`` or ``axis`` with positive weights."""

    kind: str
    alpha: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("lebesgue", "axis"):
            raise InvalidGeometryError(f"unknown measure kind {self.kind!r}")
        if self.kind == "axis":
            if not self.alpha:
                raise InvalidGeometryError("axis measure needs a weight vector alpha")
            alpha = tuple(float(a) for a in self.alpha)
            if any(not np.isfinite(a) or a <= 0 for a in alpha):
                raise InvalidGeometryError(f"axis weights must be finite and positive, got {alpha}")
            object.__setattr__(self, "alpha", alpha)
        elif self.alpha is not None:
            raise InvalidGeometryError("the Lebesgue measure takes no weights")

    @classmethod
    def lebesgue(cls) -> "MeasureSpec":
        return cls("lebesgue")

    @classmethod
    def axis(cls, alpha) -> "MeasureSpec":
        return cls("axis", tuple(alpha))

    def check_dim(self, dim: int) -> None:
        if self.kind == "axis" and len(self.alpha) != dim:
            raise InvalidGeometryError(f"axis measure has {len(self.alpha)} weights but corners have dimension {dim}")

    def to_json(self) -> dict:
        if self.kind == "axis":
            return {"kind": "axis", "alpha": list(self.alpha)}
        return {"kind": "lebesgue"}


def measure_rect(spec: MeasureSpec, t: Corner) -> float:
    """Measure of the rectangle [0, t]."""
    spec.check_dim(t.dim)
    if spec.kind == "lebesgue":
        out = 1.0
        for c in t.coords:
            out *= c
        return out
    return float(sum(a * c for a, c in zip(spec.alpha, t.coords)))


def measure_rows(spec: MeasureSpec, rows) -> np.ndarray:
    """Measures of [0, t] for the corners t in a list, or in an array's rows (any leading shape).

    Combines one axis at a time in :func:`measure_rect`'s order, not through
    a BLAS product, so every entry equals it bit for bit.
    """
    rows = _as_rows(rows)
    spec.check_dim(rows.shape[-1])
    return _measure_array(spec, rows)


def _measure_array(spec: MeasureSpec, rows: np.ndarray) -> np.ndarray:
    """:func:`measure_rows` of a float array whose last axis the measure fits, unchecked."""
    if spec.kind == "lebesgue":
        return functools.reduce(np.multiply, [rows[..., i] for i in range(rows.shape[-1])])
    return functools.reduce(np.add, [a * rows[..., i] for i, a in enumerate(spec.alpha)])


def measure_gap(spec: MeasureSpec, a: Corner, f: Corner) -> float:
    """m([0, a]) - m([0, f]) for f <= a, as a sum of non-negative terms: never nan, possibly inf.

    Lebesgue: sum_k (a_k - f_k) prod_{j<k} f_j prod_{j>k} a_j, each product
    taken left to right after the difference, skipping terms with a zero
    factor. Axis: sum_k alpha_k (a_k - f_k).
    """
    spec.check_dim(a.dim)
    if spec.kind == "axis":
        return sum(al * (x - y) for al, x, y in zip(spec.alpha, a.coords, f.coords))
    total = 0.0
    for k, (x, y) in enumerate(zip(a.coords, f.coords)):
        factors = (*f.coords[:k], *a.coords[k + 1 :])
        if x != y and 0.0 not in factors:
            total += math.prod(factors, start=x - y)
    return total


def measure_union(spec: MeasureSpec, u: UnionSet) -> float:
    """Measure of a union of rectangles by exact inclusion-exclusion over its signed meets."""
    if not u.corners:
        return 0.0
    spec.check_dim(u.dim)
    meets, nets = zip(*_signed_meets(u.corners))
    total = float(np.array(nets, dtype=np.int64) @ measure_rows(spec, np.array(meets)))
    return float(_clamp_residue(total, "union measure"))


def measure_symdiff(spec: MeasureSpec, u: Corner, v: Corner) -> float:
    """Measure of the symmetric difference of [0, u] and [0, v]."""
    return float(measure_symdiffs(spec, [u], [v])[0, 0])


def measure_symdiffs(spec: MeasureSpec, a, b) -> np.ndarray:
    """Matrix of symmetric-difference measures between the corners in ``a`` and in ``b``, meets broadcast.

    A ``b`` that is ``a`` itself is converted and measured once.
    """
    same, a = b is a, _as_rows(a)
    b = a if same else _as_rows(b)
    if a.shape[-1] != b.shape[-1]:
        raise InvalidGeometryError(f"mixed dimensions {a.shape[-1]} and {b.shape[-1]}; the dimension is fixed per session")
    m_a = measure_rows(spec, a)
    m_b = m_a if same else _measure_array(spec, b)
    total = m_a[:, None] + m_b[None, :] - 2.0 * _measure_array(spec, np.minimum(a[:, None, :], b[None, :, :]))
    return _clamp_residue(total, "symmetric difference")


def measure_diff(spec: MeasureSpec, a: Corner, b: UnionSet) -> float:
    """Measure of the increment [0, a] minus the union b."""
    total = measure_rect(spec, a) - measure_union(spec, Increment(a, b).b)
    return float(_clamp_residue(total, "increment measure"))


def _clamp_residue(value, what: str):
    # Elementwise on arrays: non-finite values raise, roundoff negatives clamp to 0, real negatives raise.
    value = np.asarray(value)
    if not (value.min() >= 0.0 and value.max() < math.inf):  # the common case in one min and one max
        if not np.all(np.isfinite(value)):
            raise InvalidGeometryError(f"{what} came out {np.min(value)}: a rectangle's measure overflows float64")
        if not np.all(value >= NEGATIVE_RESIDUE_FLOOR):
            raise InternalConsistencyError(f"{what} came out {np.min(value)}, far below zero")
    return np.maximum(value, 0.0)
