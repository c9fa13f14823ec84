"""Corner arithmetic, canonical unions, min-closures and signed frontiers."""

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from siou import geometry, measures
from siou.errors import ComplexityError, InvalidGeometryError, SiouError
from siou.geometry import (
    GEOM_ATOL,
    Corner,
    Frontier,
    Increment,
    UnionSet,
    canonicalize,
    frontier,
    min_closure,
)
from siou.measures import MeasureSpec, measure_union
from siou.simulator import plan


def corners(*tuples):
    return [Corner(tuple(float(x) for x in t)) for t in tuples]


def frontier_set(fr: Frontier):
    return {(c.coords, s) for c, s in fr.entries}


def test_corner_validation():
    with pytest.raises(InvalidGeometryError):
        Corner((-1.0, 2.0))
    with pytest.raises(InvalidGeometryError):
        Corner((float("nan"),))
    with pytest.raises(InvalidGeometryError):
        Corner((float("inf"), 1.0))
    with pytest.raises(InvalidGeometryError):
        Corner(())


def test_corner_order_and_meet():
    a = Corner((1.0, 2.0))
    b = Corner((2.0, 1.0))
    assert not a.leq(b) and not b.leq(a)
    assert a.meet(b).coords == (1.0, 1.0)
    assert a.leq(Corner((1.0, 2.0)))
    assert Corner.origin(3).coords == (0.0, 0.0, 0.0)


def test_canonicalize_drops_dominated():
    u = canonicalize(corners((1, 3), (2, 2), (1, 2)))
    assert [c.coords for c in u.corners] == [(1.0, 3.0), (2.0, 2.0)]


def test_canonicalize_dedupes_and_sorts():
    u = canonicalize(corners((2, 1), (1, 2), (2, 1)))
    assert [c.coords for c in u.corners] == [(1.0, 2.0), (2.0, 1.0)]


def test_canonicalize_idempotent():
    rng = np.random.default_rng(7)
    for _ in range(50):
        dim = int(rng.integers(1, 4))
        pts = corners(*(tuple(rng.integers(0, 5, size=dim) * 0.5) for _ in range(6)))
        once = canonicalize(pts)
        twice = canonicalize(list(once.corners))
        assert [c.coords for c in once.corners] == [c.coords for c in twice.corners]


def test_union_set_requires_canonical_form():
    with pytest.raises(InvalidGeometryError):
        UnionSet(tuple(corners((2, 2), (1, 1))))  # dominated corner present


def test_union_set_rejects_near_values():
    # Canonical but for near values: distinct coordinates 1e-13 apart, and one 5e-13 above 0.
    for near in (corners((1, 2), (1 + 1e-13, 1.5)), corners((5e-13, 1))):
        with pytest.raises(InvalidGeometryError, match="use canonicalize"):
            UnionSet(tuple(near))
        assert UnionSet(canonicalize(near).corners) == canonicalize(near)
    assert canonicalize(corners((5e-13, 1))).to_json() == [[0.0, 1.0]]


def _dominated(rows):
    """Whether each of the distinct rows lies componentwise below another, by an all-pairs ``(k, k, N)`` test."""
    below = np.all(rows[:, None, :] <= rows[None, :, :], axis=2)
    np.fill_diagonal(below, False)
    return below.any(axis=1)


def test_maxima_breaks_ties_of_rounded_sums():
    # 2e4 + 1.1e-12 rounds to 2e4, so the upper row ties with the one it dominates.
    rows = np.array([[2e4, 0.0], [2e4, 1.1e-12]])
    assert rows[0].sum() == rows[1].sum()
    assert geometry._maxima(rows).tolist() == rows[~_dominated(rows)].tolist() == [[2e4, 1.1e-12]]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda dim: st.lists(st.tuples(*[st.integers(0, 6)] * dim), min_size=1, max_size=40)))
def test_maxima_are_the_rows_no_other_row_dominates(quarters):
    rows = geometry._group(0.25 * np.array(quarters, dtype=float))
    assert geometry._maxima(rows).tolist() == rows[~_dominated(rows)].tolist()


def test_canonicalize_of_a_large_antichain_holds_no_pairwise_table():
    # 3,000 antichain corners, each with a corner just below it: the all-pairs test held 108 MB here.
    k = 3000
    anti = [Corner((0.25 * i, 0.25 * (k + 1 - i))) for i in range(1, k + 1)]
    below = [Corner((0.25 * i, 0.25 * (k - i))) for i in range(1, k)]
    canonicalize(anti[:20])  # a first call may import modules, which tracemalloc would count
    tracemalloc.start()
    try:
        u = canonicalize(below + anti)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert u.corners == tuple(anti)
    assert peak < k * k  # one (k, k) boolean table


def test_mixed_dimensions_rejected():
    with pytest.raises(InvalidGeometryError):
        canonicalize([Corner((1.0,)), Corner((1.0, 2.0))])
    with pytest.raises(InvalidGeometryError):
        Increment(Corner((1.0, 1.0)), canonicalize([Corner((1.0,))]))


def test_increment_clips_b_into_a():
    inc = Increment(Corner((2.0, 2.0)), canonicalize(corners((3, 1), (1, 3))))
    assert {c.coords for c in inc.b.corners} == {(2.0, 1.0), (1.0, 2.0)}


def test_semilattice_examples():
    # The meet semilattice of the b-corners is their min-closure without the origin.
    inc = Increment(Corner((4.0, 4.0)), canonicalize(corners((1, 2), (2, 1))))
    assert {c.coords for c in min_closure(inc.b.corners)} == {(0.0, 0.0), (1.0, 2.0), (2.0, 1.0), (1.0, 1.0)}
    single = Increment(Corner((3.0,)), canonicalize(corners((3,))))
    assert [c.coords for c in min_closure(single.b.corners)] == [(0.0,), (3.0,)]


def test_semilattice_three_corner_example():
    inc = Increment(Corner((4.0, 4.0)), canonicalize(corners((1, 4), (2, 3), (4, 1))))
    got = {c.coords for c in min_closure(inc.b.corners)}
    expected = {(0.0, 0.0), (1.0, 4.0), (2.0, 3.0), (4.0, 1.0), (1.0, 3.0), (2.0, 1.0), (1.0, 1.0)}
    assert got == expected


def test_frontier_two_corner_example():
    inc = Increment(Corner((2.0, 2.0)), canonicalize(corners((1, 2), (2, 1))))
    fr = frontier(inc)
    assert frontier_set(fr) == {((1.0, 2.0), 1), ((2.0, 1.0), 1), ((1.0, 1.0), -1)}


def test_frontier_empty_b_is_origin():
    inc = Increment(Corner((2.0, 3.0)), canonicalize([]))
    fr = frontier(inc)
    assert frontier_set(fr) == {((0.0, 0.0), 1)}


def test_frontier_single_corner():
    inc = Increment(Corner((5.0,)), canonicalize(corners((2,))))
    assert frontier_set(frontier(inc)) == {((2.0,), 1)}


def test_frontier_three_dim_seven_entries():
    inc = Increment(Corner((3.0, 3.0, 3.0)),
                    canonicalize(corners((2, 2, 1), (2, 1, 2), (1, 2, 2))))
    fr = frontier(inc)
    expected = {
        ((2.0, 2.0, 1.0), 1), ((2.0, 1.0, 2.0), 1), ((1.0, 2.0, 2.0), 1),
        ((2.0, 1.0, 1.0), -1), ((1.0, 2.0, 1.0), -1), ((1.0, 1.0, 2.0), -1),
        ((1.0, 1.0, 1.0), 1),
    }
    assert frontier_set(fr) == expected


def test_frontier_keeps_a_net_of_minus_two():
    # Three corners whose pairwise meets all equal the triple meet leave
    # (1,1,1) with net coefficient 0 - 3 + 1 = -2; the nets still sum to 1.
    inc = Increment(Corner((2.0, 2.0, 2.0)),
                    canonicalize(corners((2, 1, 1), (1, 2, 1), (1, 1, 2))))
    fr = frontier(inc)
    assert frontier_set(fr) == {((1.0, 1.0, 1.0), -2), ((1.0, 1.0, 2.0), 1), ((1.0, 2.0, 1.0), 1), ((2.0, 1.0, 1.0), 1)}
    assert sum(s for _, s in fr.entries) == 1


def _subset_meets(rows):
    """(meet, sign) over every nonempty subset of the rows: the itertools expansion."""
    for r in range(1, len(rows) + 1):
        for sub in itertools.combinations(rows, r):
            yield tuple(np.min(sub, axis=0).tolist()), (-1) ** (r + 1)


@st.composite
def quarter_increments(draw):
    """An increment on the quarter grid, dimensions 1-4, with up to 9 b-corners.

    Half the families take their b-corners from one level of {1, 2, 3}^N
    (in quarters), an antichain whose meets tie often and whose 3-D and 4-D
    families reach nets of +-2.
    """
    dim = draw(st.integers(1, 4))
    a = tuple(0.25 * q for q in draw(st.lists(st.integers(3, 8), min_size=dim, max_size=dim)))
    if draw(st.booleans()):
        level = [c for c in itertools.product((1, 2, 3), repeat=dim) if sum(c) == 2 * dim]
        quarter = st.sampled_from(level)
    else:
        quarter = st.tuples(*(st.integers(1, round(x / 0.25)) for x in a))
    k = draw(st.integers(1, 9))
    bs = draw(st.lists(quarter, min_size=k, max_size=k))
    return Corner(a), [Corner(tuple(0.25 * q for q in b)) for b in bs]


def level_antichain(dim, hi, total, k):
    """(a, b-corners): the first k points of {1, ..., hi}^dim (in quarters) whose coordinates sum to ``total``."""
    level = [q for q in itertools.product(range(1, hi + 1), repeat=dim) if sum(q) == total][:k]
    return Corner((0.25 * (hi + 1),) * dim), [Corner(tuple(0.25 * x for x in q)) for q in level]


@settings(max_examples=200, deadline=None)
@given(quarter_increments())
@example((Corner((0.75, 0.75, 0.75)), corners((0.5, 0.25, 0.25), (0.25, 0.5, 0.25), (0.25, 0.25, 0.5))))
# Level antichains of more than SMALL_FAMILY corners in 3-D and 4-D, with nets of +-2 and more.
@example(level_antichain(3, 4, 7, 12))
@example(level_antichain(4, 3, 6, 10))
@example(level_antichain(4, 3, 8, 14))
def test_frontier_matches_brute_force_expansion(case):
    a, bs = case
    inc = Increment(a, canonicalize(bs))
    rows = [c.coords for c in inc.b.corners]
    nets = {}
    for meet, sign in _subset_meets(rows):
        nets[meet] = nets.get(meet, 0) + sign
    got = [(c.coords, s) for c, s in frontier(inc).entries]
    assert got == sorted((u, n) for u, n in nets.items() if n != 0)
    for spec in (MeasureSpec.lebesgue(), MeasureSpec.axis(tuple(0.5 + i for i in range(a.dim)))):
        want = sum(n * float(np.prod(u) if spec.kind == "lebesgue" else np.dot(spec.alpha, u)) for u, n in nets.items())
        assert measure_union(spec, inc.b) == pytest.approx(want, rel=1e-12)
    closure = {(0.0,) * a.dim} | {meet for meet, _ in _subset_meets([b.coords for b in bs])}
    assert [c.coords for c in min_closure(bs)] == sorted(closure, key=lambda c: (sum(c), c))
    # Plans order the closure by either tiebreak, nets of +-2 included.
    for tiebreak, key in (("lex", lambda c: (sum(c), c)), ("revlex", lambda c: (sum(c), c[::-1]))):
        assert [c.coords for c in plan(bs, tiebreak=tiebreak).corners] == sorted(closure, key=key)


@pytest.mark.parametrize("scale", [4.0, 0.25])
def test_frontier_scales_with_the_coordinates(scale):
    # Powers of two scale floats exactly, so the scaled frontier must be the
    # frontier's corners times the scale, each with its sign unchanged.
    rng = np.random.default_rng(4025)
    for _ in range(60):
        dim = int(rng.integers(1, 5))
        a = Corner(tuple(0.25 * rng.integers(4, 13, size=dim)))
        bs = [Corner(tuple(0.25 * rng.integers(1, round(c / 0.25) + 1) for c in a.coords))
              for _ in range(int(rng.integers(0, 6)))]
        inc = Increment(a, canonicalize(bs))
        scaled = Increment(Corner(tuple(scale * x for x in a.coords)),
                           canonicalize([Corner(tuple(scale * x for x in b.coords)) for b in inc.b.corners]))
        want = {(tuple(scale * x for x in c.coords), s) for c, s in frontier(inc).entries}
        assert frontier_set(frontier(scaled)) == want


def test_frontier_support_avoids_covered_corners():
    # A retained corner is never strictly inside a single b-rectangle.
    rng = np.random.default_rng(99)
    for _ in range(120):
        dim = int(rng.integers(1, 4))
        a = Corner(tuple(0.25 * rng.integers(4, 13, size=dim)))
        k = int(rng.integers(1, 6))
        bs = [Corner(tuple(0.25 * rng.integers(1, round(c / 0.25) + 1) for c in a.coords))
              for _ in range(k)]
        inc = Increment(a, canonicalize(bs))
        for c, _ in frontier(inc).entries:
            covered = any(all(ci < bi - 1e-12 for ci, bi in zip(c.coords, b.coords))
                          for b in inc.b.corners)
            assert not covered, (inc.a.coords, c.coords)


def test_boundary_corner_can_cancel_to_zero():
    # The reverse inclusion fails in 3-D: this element touches the union's
    # boundary (no single b-corner strictly dominates it) yet cancels out.
    inc = Increment(Corner((1.25, 2.75, 2.0)),
                    canonicalize(corners((0.25, 1.5, 0.5), (0.25, 1.75, 0.25), (1.0, 1.25, 2.0))))
    fr = frontier(inc)
    support = {c.coords for c, _ in fr.entries}
    gone = (0.25, 1.25, 0.25)
    assert gone in {c.coords for c in min_closure(inc.b.corners)}
    assert gone not in support
    assert not any(all(g < b - 1e-12 for g, b in zip(gone, bc.coords)) for bc in inc.b.corners)


def test_frontier_sign_sum_matches_indicator():
    # Summing sign * 1[u <= F_i] over frontier entries reproduces the
    # 1[u <= some b_i] indicator at every probe inside the box.
    rng = np.random.default_rng(1234)
    for _ in range(60):
        dim = int(rng.integers(1, 4))
        a = Corner(tuple(0.25 * rng.integers(4, 13, size=dim)))
        k = int(rng.integers(1, 6))
        bs = [Corner(tuple(0.25 * rng.integers(1, round(c / 0.25) + 1) for c in a.coords))
              for _ in range(k)]
        inc = Increment(a, canonicalize(bs))
        fr = frontier(inc)
        for _ in range(20):
            u = tuple(rng.uniform(0.0, c) for c in a.coords)
            inside_b = any(all(ui <= bi for ui, bi in zip(u, b.coords)) for b in inc.b.corners)
            signed = sum(s for c, s in fr.entries if all(ui <= ci for ui, ci in zip(u, c.coords)))
            assert signed == (1 if inside_b else 0)


def test_min_closure_example():
    closed = min_closure(corners((1, 2), (2, 1)))
    assert [c.coords for c in closed] == [(0.0, 0.0), (1.0, 1.0), (1.0, 2.0), (2.0, 1.0)]


def test_min_closure_is_min_closed_and_linearly_extended():
    rng = np.random.default_rng(5)
    for _ in range(40):
        dim = int(rng.integers(1, 4))
        pts = corners(*(tuple(rng.integers(0, 6, size=dim) * 0.5) for _ in range(5)))
        closed = min_closure(pts)
        coords = {c.coords for c in closed}
        assert Corner.origin(dim).coords in coords
        for x, y in itertools.combinations(closed, 2):
            assert x.meet(y).coords in coords
        # ordering is a linear extension of componentwise order
        for i, x in enumerate(closed):
            for y in closed[i + 1:]:
                assert not y.leq(x)


def antichain(k):
    """The 2-D antichain (i, k + 1 - i), i = 1..k, in lexicographic order."""
    return corners(*((i, k + 1 - i) for i in range(1, k + 1)))


def antichain_frontier(cs):
    """Closed form of a sorted 2-D antichain's frontier: +1 per corner, -1 per meet of neighbours."""
    out = [(c.coords, 1) for c in cs] + [((u.coords[0], v.coords[1]), -1) for u, v in zip(cs, cs[1:])]
    return sorted(out)


def test_complexity_guard():
    # 21 corners lay beyond the old 2^k expansion; the fold holds 2k - 1 rows here.
    many = antichain(21)
    inc = Increment(Corner((50.0, 50.0)), canonicalize(many))
    fr = frontier(inc)
    assert len(fr) == 41
    assert [(c.coords, s) for c, s in fr.entries] == antichain_frontier(many)


def test_hundred_corner_antichain_frontier_is_the_closed_form():
    xs = np.cumsum(np.random.default_rng(8).integers(1, 4, size=100)) * 0.25
    ys = np.cumsum(np.random.default_rng(9).integers(1, 4, size=100))[::-1] * 0.25
    cs = [Corner((float(x), float(y))) for x, y in zip(xs, ys)]
    fr = frontier(Increment(Corner((100.0, 100.0)), canonicalize(cs)))
    assert [(c.coords, s) for c, s in fr.entries] == antichain_frontier(cs)


def test_expansion_guard_raises_before_allocating(monkeypatch):
    # With a cap of 6 rows the third corner's step (2 * 3 + 1 rows for the
    # signed fold, 2 * 4 + 1 for the closure from the origin) must raise
    # from the cap check, which each step runs on the rows it holds before it
    # builds anything, so no step larger than the cap is built.
    monkeypatch.setattr(geometry, "MAX_EXPANSION_ROWS", 6)
    held = []
    check = geometry._check_step

    def spy(i, k, rows):
        held.append(len(rows))
        return check(i, k, rows)

    monkeypatch.setattr(geometry, "_check_step", spy)
    fam = corners((1, 2, 3), (2, 3, 1), (3, 1, 2))
    inc = Increment(Corner((4.0, 4.0, 4.0)), canonicalize(fam))
    calls = [(lambda: frontier(inc), [0, 1, 3]), (lambda: measure_union(MeasureSpec.lebesgue(), inc.b), [0, 1, 3]),
             (lambda: min_closure(fam), [1, 2, 4])]
    for call, steps in calls:
        held.clear()
        with pytest.raises(ComplexityError, match="corner 3 of 3 would expand to"):
            call()
        assert held == steps
        assert all(2 * n + 1 <= 6 for n in held[:-1]) and 2 * held[-1] + 1 > 6


def test_frontier_rejects_bad_sign_values():
    for bad in (0, True, 1.0, 0.5):
        with pytest.raises(InvalidGeometryError, match="nonzero integers"):
            Frontier(((Corner((1.0,)), bad),))
    fr = Frontier(((Corner((1.0,)), 2), (Corner((0.5,)), np.int64(-1))))
    assert [s for _, s in fr.entries] == [2, -1]


def test_close_corners_merge():
    eps = 1e-14
    u = canonicalize([Corner((1.0, 2.0)), Corner((1.0 + eps, 2.0 - eps))])
    assert len(u.corners) == 1


def test_near_duplicates_merge_into_any_kept_corner():
    # Sorted, (1 + 2e-13, 2) sits next to (1 + 1e-13, 1), not to (1, 2); the
    # column snap still sends it to (1, 2), which then dominates (1, 1).
    u = canonicalize([Corner((1.0, 2.0)), Corner((1.0 + 1e-13, 1.0)), Corner((1.0 + 2e-13, 2.0))])
    assert u.to_json() == [[1.0, 2.0]]


def test_frontier_merges_near_duplicate_meets():
    # Two b-corners share the first coordinate only up to 1e-13. Unsnapped,
    # the fold would build meets such as (0.25, 1.5, 1.25) and
    # (0.25 + 1e-13, 1.5, 1.25) that must cancel as one corner.
    exact = corners((1, 1, 1.5), (0.25, 1.5, 1.75), (0.25, 2, 1.25))
    near = exact[:2] + [Corner((0.25 + 1e-13, 2.0, 1.25))]
    a = Corner((3.0, 3.0, 3.0))
    want = frontier(Increment(a, canonicalize(exact))).entries
    got = frontier(Increment(a, canonicalize(near))).entries
    assert len(got) == len(want) == 5
    for (c, s), (d, t) in zip(got, want):
        assert s == t and np.allclose(c.coords, d.coords, rtol=0.0, atol=GEOM_ATOL)


def test_json_round_trip():
    fr = frontier(Increment(Corner((2.0, 2.0)), canonicalize(corners((1, 2), (2, 1)))))
    blob = fr.to_json()
    assert {(tuple(e["corner"]), e["sign"]) for e in blob} == frontier_set(fr)


# The tuple path against the array path, bit for bit: canonicalize's tuple
# route (families of up to SMALL_FAMILY corners) against its array route,
# which every family takes while SMALL_FAMILY is patched below 0, and the
# signed fold, geometry's {coords: net} dict, against the array signed fold
# below, the reference for its meets, nets, order and -0.0 zeros.

def _array_signed_meets(corners):
    """The array signed fold: rows grouped by one lexsort, nets summed by ``reduceat``, zero nets dropped."""
    rows = np.array([c.coords for c in corners], dtype=float)
    held, nets = rows[:0], np.zeros(0, dtype=np.int64)
    for c in rows:
        held, nets = np.concatenate([held, c[None, :], np.minimum(held, c)]), np.concatenate([nets, [1], -nets])
        order = np.lexsort(held.T[::-1])
        held, nets = held[order], nets[order]
        starts = np.flatnonzero(np.concatenate([[True], np.any(held[1:] != held[:-1], axis=1)]))
        held, nets = held[starts], np.add.reduceat(nets, starts)
        held, nets = held[nets != 0], nets[nets != 0]
    return list(zip(map(tuple, held.tolist()), nets.tolist()))


def _bits(cs):
    return [tuple(x.hex() for x in c.coords) for c in cs]


@st.composite
def path_families(draw):
    """(a, corners): dimensions 1-4, up to SMALL_FAMILY + 4 corners, so canonical sizes straddle it.

    Three in four families are one level of the quarter grid, an antichain
    whose meets tie (nets of +-2 in 3-D and 4-D); the others lie anywhere on it,
    so some corners are dominated or repeated. A coordinate may move by less
    than GEOM_ATOL (the snap), a zero may be -0.0, ``a`` may clip the family,
    and one corner or ``a`` may have another dimension.
    """
    dim = draw(st.sampled_from((1, 2, 2, 3, 3, 4, 4)))  # 1-D unions have one corner
    m = (12, 12, 4, 3)[dim - 1]
    top = Corner((0.25 * m + 0.5,) * dim)
    k = draw(st.sampled_from(range(geometry.SMALL_FAMILY + 5)))
    if draw(st.integers(0, 3)):
        total = dim * (m + 1) // 2 + draw(st.integers(0, 1))
        level = [q for q in itertools.product(range(1, m + 1), repeat=dim) if sum(q) == total]
        qs = draw(st.lists(st.sampled_from(level), min_size=min(k, len(level)), max_size=k, unique=True))
    else:
        qs = draw(st.lists(st.tuples(*[st.integers(0, m)] * dim), min_size=k, max_size=k))
    shift = st.sampled_from((0.0,) * 9 + (3e-13, -4e-13, 9e-13) if draw(st.booleans()) else (0.0,))

    def coord(q):
        return -0.0 if q == 0 and draw(st.booleans()) else max(0.25 * q + draw(shift), 0.0)

    fam = [Corner(tuple(coord(x) for x in q)) for q in qs]
    a = top if draw(st.integers(0, 2)) else Corner(tuple(0.25 * x for x in draw(st.tuples(*[st.integers(1, m)] * dim))))
    odd = draw(st.sampled_from(("none",) * 8 + ("corner", "a")))
    if odd == "corner" and fam:
        fam[draw(st.integers(0, len(fam) - 1))] = Corner((1.0,) * (dim % 4 + 1))
    elif odd == "a":
        a = Corner((1.75,) * (dim % 4 + 1))
    return a, fam


def _path_outputs(a, fam):
    """canonicalize corners, clipped b, frontier entries and union measures, as bits; or the error raised."""
    try:
        u = geometry.canonicalize(fam)
        inc = Increment(a, u)
        entries = [(_bits([c])[0], n) for c, n in geometry.frontier(inc).entries]
        specs = (MeasureSpec.lebesgue(), MeasureSpec.axis(tuple(0.5 + i for i in range(a.dim))))
        return _bits(u.corners), _bits(inc.b.corners), entries, [measure_union(m, u).hex() for m in specs]
    except SiouError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(path_families())
def test_tuple_path_matches_array_path(case):
    got = _path_outputs(*case)
    with (mock.patch.object(geometry, "SMALL_FAMILY", -1),
          mock.patch.object(geometry, "_signed_meets", _array_signed_meets),
          mock.patch.object(measures, "_signed_meets", _array_signed_meets)):
        want = _path_outputs(*case)
    assert got == want
