"""Rectangle measures: Lebesgue and axis kinds, unions, differences, symdiff."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siou.errors import InternalConsistencyError, InvalidGeometryError
from siou.geometry import Corner, canonicalize
from siou.measures import (
    MeasureSpec,
    _clamp_residue,
    measure_diff,
    measure_gap,
    measure_rect,
    measure_symdiff,
    measure_union,
)


LEB = MeasureSpec.lebesgue()


def union_of(*tuples):
    return canonicalize([Corner(tuple(float(x) for x in t)) for t in tuples])


def riemann_union(union, cells=400):
    """Midpoint-grid oracle for the Lebesgue measure of a union of boxes."""
    hi = np.max([c.coords for c in union.corners], axis=0)
    dim = len(hi)
    axes = [np.linspace(0, h, cells, endpoint=False) + h / (2 * cells) for h in hi]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    inside = np.zeros(len(pts), dtype=bool)
    for c in union.corners:
        inside |= np.all(pts <= np.asarray(c.coords), axis=1)
    cell = float(np.prod(hi / cells))
    return float(inside.sum()) * cell


def test_measure_rect_examples():
    assert measure_rect(LEB, Corner((2.0, 3.0))) == 6.0
    assert measure_rect(MeasureSpec.axis((1.0, 2.0)), Corner((2.0, 3.0))) == 8.0
    assert measure_rect(LEB, Corner((0.0, 0.0))) == 0.0
    assert measure_rect(MeasureSpec.axis((1.0, 1.0)), Corner((0.0, 0.0))) == 0.0


def test_measure_union_examples():
    u = union_of((1, 2), (2, 1))
    assert measure_union(LEB, u) == pytest.approx(3.0, abs=1e-12)
    assert measure_union(MeasureSpec.axis((1.0, 1.0)), u) == pytest.approx(4.0, abs=1e-12)


def test_measure_union_matches_riemann_sum():
    rng = np.random.default_rng(11)
    for _ in range(25):
        dim = int(rng.integers(1, 3))
        u = union_of(*(tuple(0.25 * rng.integers(1, 9, size=dim)) for _ in range(4)))
        got = measure_union(LEB, u)
        oracle = riemann_union(u)
        assert got == pytest.approx(oracle, rel=0, abs=5e-2 * max(1.0, oracle))


def test_measure_union_axis_matches_componentwise_max():
    rng = np.random.default_rng(12)
    for _ in range(40):
        dim = int(rng.integers(1, 4))
        alpha = tuple(float(a) for a in rng.uniform(0.3, 2.5, size=dim))
        u = union_of(*(tuple(0.25 * rng.integers(0, 9, size=dim)) for _ in range(4)))
        oracle = sum(a * max(c.coords[j] for c in u.corners) for j, a in enumerate(alpha))
        got = measure_union(MeasureSpec.axis(alpha), u)
        assert got == pytest.approx(oracle, abs=1e-10)


def test_measure_diff_examples():
    assert measure_diff(LEB, Corner((2.0, 2.0)), union_of((1, 2), (2, 1))) == pytest.approx(1.0, abs=1e-12)
    got = measure_diff(MeasureSpec.axis((1.0, 2.0)), Corner((3.0, 4.0)), union_of((3, 0)))
    assert got == pytest.approx(8.0, abs=1e-12)


def test_measure_diff_clips_b_to_a():
    # corners of b outside the box only count through their clipped part
    got = measure_diff(LEB, Corner((2.0, 2.0)), union_of((5, 1),))
    assert got == pytest.approx(4.0 - 2.0, abs=1e-12)


def test_measure_symdiff_formula_and_symmetry():
    u, v = Corner((1.0, 2.0)), Corner((2.0, 1.0))
    assert measure_symdiff(LEB, u, v) == pytest.approx(2.0, abs=1e-12)
    assert measure_symdiff(LEB, u, v) == measure_symdiff(LEB, v, u)
    assert measure_symdiff(LEB, u, u) == 0.0


def test_symdiff_triangle_inequality():
    rng = np.random.default_rng(21)
    for _ in range(60):
        dim = int(rng.integers(1, 4))
        spec = LEB if rng.integers(2) else MeasureSpec.axis(tuple(rng.uniform(0.3, 2.0, size=dim)))
        u, v, w = (Corner(tuple(0.25 * rng.integers(0, 13, size=dim))) for _ in range(3))
        duv = measure_symdiff(spec, u, v)
        duw = measure_symdiff(spec, u, w)
        dwv = measure_symdiff(spec, w, v)
        assert duv <= duw + dwv + 1e-10


def test_monotonicity_of_diff():
    rng = np.random.default_rng(31)
    for _ in range(40):
        dim = int(rng.integers(1, 4))
        a = Corner(tuple(0.25 * rng.integers(4, 13, size=dim)))
        small = union_of(tuple(0.25 * rng.integers(1, 5, size=dim)))
        big = canonicalize(list(small.corners) + [Corner(tuple(0.25 * rng.integers(1, 9, size=dim)))])
        assert measure_diff(LEB, a, big) <= measure_diff(LEB, a, small) + 1e-10


def test_residue_clamp():
    assert _clamp_residue(-5e-10, "test") == 0.0
    assert _clamp_residue(0.25, "test") == 0.25
    with pytest.raises(InternalConsistencyError):
        _clamp_residue(-1e-6, "test")


def test_overflowing_measure_is_a_geometry_error():
    # m([0, u]) overflows to inf, so the symmetric difference is inf - inf = nan, not a negative residue.
    huge = Corner((1e200, 1e200))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InvalidGeometryError, match="overflows float64"):
        measure_symdiff(LEB, huge, huge)


@st.composite
def nested_quarter_corners(draw):
    """(a, f) with f <= a on the quarter grid, dimensions 1-4, axis corners included."""
    dim = draw(st.integers(1, 4))
    a = draw(st.lists(st.integers(0, 12), min_size=dim, max_size=dim))
    f = [draw(st.integers(0, q)) for q in a]
    return Corner(tuple(0.25 * q for q in a)), Corner(tuple(0.25 * q for q in f))


@settings(max_examples=200, deadline=None)
@given(nested_quarter_corners())
def test_measure_gap_is_the_measure_difference(case):
    # Quarter-grid measures are exact in binary, so the telescoped sum equals the subtraction bit for bit.
    a, f = case
    for spec in (LEB, MeasureSpec.axis(tuple(0.5 + 0.25 * i for i in range(a.dim)))):
        assert measure_gap(spec, a, f) == measure_rect(spec, a) - measure_rect(spec, f)


def test_measure_gap_overflows_to_inf_not_nan():
    # m(a) and m(f) both overflow; the gap's only nonzero term, 9e199 * 1e200, does too.
    assert measure_gap(LEB, Corner((1e200, 1e200)), Corner((1e200, 1e199))) == math.inf
    # A zero factor drops its term even after an earlier product overflowed.
    assert measure_gap(LEB, Corner((1e200, 1.0, 1e200)), Corner((1e200, 0.0, 0.0))) == math.inf
    assert measure_gap(LEB, Corner((1e200, 1e-300, 1.0)), Corner((1e200, 0.0, 1.0))) == 1e200 * 1e-300


def test_alpha_validation():
    with pytest.raises(InvalidGeometryError):
        MeasureSpec.axis((1.0, 0.0))
    with pytest.raises(InvalidGeometryError):
        MeasureSpec.axis((1.0, -2.0))
    MeasureSpec.axis((1.0, 2.0)).check_dim(2)
    with pytest.raises(InvalidGeometryError):
        MeasureSpec.axis((1.0, 2.0)).check_dim(3)


def test_union_complexity_guard():
    # 21 corners lay beyond the old 2^k expansion; a 2-D antichain's measure is its staircase sum.
    many = canonicalize([Corner((float(i + 1), float(22 - i))) for i in range(21)])
    xs = [c.coords[0] for c in many.corners]
    staircase = sum((x - prev) * c.coords[1] for x, prev, c in zip(xs, [0.0] + xs, many.corners))
    assert measure_union(LEB, many) == pytest.approx(staircase, rel=1e-12)


def test_large_coordinates_stay_finite():
    u = union_of((1e8, 2e8), (2e8, 1e8))
    assert math.isfinite(measure_union(LEB, u))
    assert math.isfinite(measure_symdiff(LEB, Corner((1e8, 1.0)), Corner((1.0, 1e8))))
