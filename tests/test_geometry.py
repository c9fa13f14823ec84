"""Corner arithmetic, canonical unions, semilattices and signed frontiers."""

import itertools

import numpy as np
import pytest

from siou.errors import ComplexityError, InternalConsistencyError, InvalidGeometryError
from siou.geometry import (
    MAX_UNION_CORNERS,
    Corner,
    Frontier,
    Increment,
    UnionSet,
    canonicalize,
    frontier,
    min_closure,
    semilattice,
)


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


def test_mixed_dimensions_rejected():
    with pytest.raises(InvalidGeometryError):
        canonicalize([Corner((1.0,)), Corner((1.0, 2.0))])
    with pytest.raises(InvalidGeometryError):
        Increment(Corner((1.0, 1.0)), canonicalize([Corner((1.0,))]))


def test_increment_clips_b_into_a():
    inc = Increment(Corner((2.0, 2.0)), canonicalize(corners((3, 1), (1, 3))))
    assert {c.coords for c in inc.b.corners} == {(2.0, 1.0), (1.0, 2.0)}


def test_semilattice_examples():
    inc = Increment(Corner((4.0, 4.0)), canonicalize(corners((1, 2), (2, 1))))
    assert {c.coords for c in semilattice(inc)} == {(1.0, 2.0), (2.0, 1.0), (1.0, 1.0)}
    single = Increment(Corner((3.0,)), canonicalize(corners((3,))))
    assert [c.coords for c in semilattice(single)] == [(3.0,)]


def test_semilattice_three_corner_example():
    inc = Increment(Corner((4.0, 4.0)), canonicalize(corners((1, 4), (2, 3), (4, 1))))
    got = {c.coords for c in semilattice(inc)}
    expected = {(1.0, 4.0), (2.0, 3.0), (4.0, 1.0), (1.0, 3.0), (2.0, 1.0), (1.0, 1.0)}
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


def test_frontier_net_beyond_one_aborts():
    # Three corners whose pairwise meets all equal the triple meet leave
    # (1,1,1) with net coefficient -2, which the signed form cannot carry.
    inc = Increment(Corner((2.0, 2.0, 2.0)),
                    canonicalize(corners((2, 1, 1), (1, 2, 1), (1, 1, 2))))
    with pytest.raises(InternalConsistencyError):
        frontier(inc)


def test_frontier_matches_brute_force_expansion():
    rng = np.random.default_rng(20260816)
    checked = 0
    while checked < 120:
        dim = int(rng.integers(1, 5))
        a = Corner(tuple(0.25 * rng.integers(4, 13, size=dim)))
        k = int(rng.integers(1, 6))
        bs = [Corner(tuple(0.25 * rng.integers(1, round(c / 0.25) + 1) for c in a.coords))
              for _ in range(k)]
        inc = Increment(a, canonicalize(bs))
        nets = {}
        m = len(inc.b.corners)
        for r in range(1, m + 1):
            for sub in itertools.combinations(range(m), r):
                meet = tuple(np.min([inc.b.corners[i].coords for i in sub], axis=0))
                nets[meet] = nets.get(meet, 0) + (-1) ** (r + 1)
        try:
            fr = frontier(inc)
        except InternalConsistencyError:
            assert any(abs(n) > 1 for n in nets.values())
            continue
        expected = {(u, n) for u, n in nets.items() if n != 0}
        assert frontier_set(fr) == expected
        checked += 1


@pytest.mark.parametrize("scale", [4.0, 0.25])
def test_frontier_scales_with_the_coordinates(scale):
    # Powers of two scale floats exactly, so the scaled frontier must be the
    # frontier's corners times the scale, each with its sign unchanged.
    rng = np.random.default_rng(4025)
    checked = 0
    while checked < 60:
        dim = int(rng.integers(1, 5))
        a = Corner(tuple(0.25 * rng.integers(4, 13, size=dim)))
        bs = [Corner(tuple(0.25 * rng.integers(1, round(c / 0.25) + 1) for c in a.coords))
              for _ in range(int(rng.integers(0, 6)))]
        inc = Increment(a, canonicalize(bs))
        scaled = Increment(Corner(tuple(scale * x for x in a.coords)),
                           canonicalize([Corner(tuple(scale * x for x in b.coords)) for b in inc.b.corners]))
        try:
            fr = frontier(inc)
        except InternalConsistencyError:
            with pytest.raises(InternalConsistencyError):
                frontier(scaled)
            continue
        want = {(tuple(scale * x for x in c.coords), s) for c, s in fr.entries}
        assert frontier_set(frontier(scaled)) == want
        checked += 1


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
        try:
            fr = frontier(inc)
        except InternalConsistencyError:
            continue
        for c, _ in fr.entries:
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
    assert gone in {c.coords for c in semilattice(inc)}
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
        try:
            fr = frontier(inc)
        except InternalConsistencyError:
            continue
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
                assert not y.leq(x) or y.isclose(x)


def test_complexity_guard():
    many = corners(*((float(i + 1), float(MAX_UNION_CORNERS + 1 - i)) for i in range(MAX_UNION_CORNERS + 1)))
    inc = Increment(Corner((50.0, 50.0)), canonicalize(many))
    assert len(inc.b.corners) == MAX_UNION_CORNERS + 1
    with pytest.raises(ComplexityError):
        frontier(inc)
    with pytest.raises(ComplexityError):
        semilattice(inc)


def test_frontier_rejects_bad_sign_values():
    with pytest.raises(InvalidGeometryError):
        Frontier(((Corner((1.0,)), 2),))


def test_close_corners_merge():
    eps = 1e-14
    u = canonicalize([Corner((1.0, 2.0)), Corner((1.0 + eps, 2.0 - eps))])
    assert len(u.corners) == 1


def test_json_round_trip():
    fr = frontier(Increment(Corner((2.0, 2.0)), canonicalize(corners((1, 2), (2, 1)))))
    blob = fr.to_json()
    assert {(tuple(e["corner"]), e["sign"]) for e in blob} == frontier_set(fr)
