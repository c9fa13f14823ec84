"""Rectangle index geometry on R^N_+.

The indexing family consists of the rectangles [0, t] for t in R^N_+,
represented by their upper corners and ordered by componentwise <=
(rectangle inclusion). Intersections of rectangles are componentwise
minima of corners, so everything here reduces to corner arithmetic:

* a union of rectangles is stored as the antichain of its maximal corners
  (its extremal representation),
* an increment is a pair (a, b) standing for [0, a] minus the union b,
* the frontier of an increment is the set of meets (componentwise minima)
  of the union's corners whose inclusion-exclusion coefficients survive
  cancellation, together with those integer nets (+-1 up to two dimensions).

Corner families are held as coordinate tuples when they are small
(:func:`_small`) and as ``(k, N)`` float arrays otherwise; :class:`Corner`
appears only at the API boundary. One fold serves the frontier, the union
measure and the min-closure: it takes the b-corners one at a time and joins
each corner c to the rows held so far as ``rows + {c} + min(rows, c)``, with
signed nets ``nets + {+1} + (-nets)``, then merges equal rows and drops rows
whose net cancels to 0. This is incremental inclusion-exclusion, so the nets
are the Moebius coefficients of the meet semilattice (Rota 1964), and its
size is bounded by the rows the fold holds rather than by 2^k subsets. On
tuples the fold is a ``{coords: net}`` dict; ``min`` returns one of its
inputs, so both forms give the same meets, nets and order bit for bit.

The maximal rows of a family (a union's extremal representation) come
from one peel by descending coordinate sum (:func:`_maxima`), in
:func:`canonicalize` and on each step of a sequential plan. Rows the
module has made canonical itself become a UnionSet through :func:`_union`,
without a second validation, and an Increment whose b already lies inside
[0, a] keeps it as given. An Increment folds its frontier once and keeps
it.

One rule decides near values, :func:`_snap`, and :func:`canonicalize`,
:func:`min_closure` and the planner apply it once to their input. Meets
take their coordinates from the inputs bit for bit, so everything after
the snap (grouping, the peel) compares exactly.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from .errors import ComplexityError, InvalidGeometryError

GEOM_ATOL = 1e-12

# Rows one fold step may allocate. After i corners the signed fold holds at
# most 2^i - 1 rows, so every family of up to 20 corners fits.
MAX_EXPANSION_ROWS = 2**20

# Families of up to this many corners take the tuple path: its fold is 2-12x
# faster than the array fold up to 8 corners, and slower from 12-16 in 3-D and 4-D.
SMALL_FAMILY = 8

__all__ = [
    "GEOM_ATOL",
    "MAX_EXPANSION_ROWS",
    "SMALL_FAMILY",
    "Corner",
    "UnionSet",
    "Increment",
    "Frontier",
    "canonicalize",
    "frontier",
    "min_closure",
]


@dataclass(frozen=True)
class Corner:
    """Upper corner t of the rectangle [0, t] in R^N_+."""

    coords: tuple[float, ...]

    def __post_init__(self):
        coords = tuple(float(c) for c in self.coords)
        if not coords:
            raise InvalidGeometryError("a corner needs at least one coordinate")
        if not all(math.isfinite(c) and c >= 0.0 for c in coords):
            raise InvalidGeometryError(f"coordinates must be finite and nonnegative, got {coords}")
        object.__setattr__(self, "coords", coords)

    @classmethod
    def origin(cls, dim: int) -> "Corner":
        return cls((0.0,) * dim)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def _pairs(self, other: "Corner"):
        if other.dim != self.dim:
            raise InvalidGeometryError(f"mixed dimensions {sorted({self.dim, other.dim})}; the dimension is fixed per session")
        return zip(self.coords, other.coords)

    def leq(self, other: "Corner") -> bool:
        """Componentwise <=, i.e. rectangle inclusion, compared exactly."""
        return all(a <= b for a, b in self._pairs(other))

    def meet(self, other: "Corner") -> "Corner":
        """Corner of the rectangle intersection: the componentwise minimum."""
        return Corner(tuple(min(a, b) for a, b in self._pairs(other)))

    def to_json(self) -> list[float]:
        return list(self.coords)


def _checked(corners) -> list[Corner]:
    """Corners, coordinate sequences validated as corners, all of one dimension."""
    cs = [c if isinstance(c, Corner) else Corner(tuple(c)) for c in corners]
    if len(dims := {len(c.coords) for c in cs}) > 1:
        raise InvalidGeometryError(f"mixed dimensions {sorted(dims)}; the dimension is fixed per session")
    return cs


def _as_rows(corners) -> np.ndarray:
    """Corners (or coordinate sequences, validated as corners) as a ``(k, N)`` float array; arrays pass through."""
    if isinstance(corners, np.ndarray):
        return corners.astype(float, copy=False)
    cs = _checked(corners)
    return np.array([c.coords for c in cs], dtype=float) if cs else np.empty((0, 0))


def _corner(coords: tuple[float, ...]) -> Corner:
    """Corner whose coordinates come from validated corners, built without validating them again."""
    c = object.__new__(Corner)
    object.__setattr__(c, "coords", coords)
    return c


def _small(k: int) -> bool:
    """Whether a family of k corners takes the tuple path: few corners, and a fold the cap cannot stop."""
    return k <= SMALL_FAMILY and 2**k - 1 <= MAX_EXPANSION_ROWS


def _snap(rows: np.ndarray) -> np.ndarray:
    """Rows with each column's near values merged: the one tolerance rule of the module.

    A column's values, 0 included, are taken in ascending order, and a value
    within GEOM_ATOL of the last kept value takes it, so no coordinate moves
    up or by more than GEOM_ATOL. Kept values are more than GEOM_ATOL apart,
    so no column of the result holds two distinct values within GEOM_ATOL.
    """
    values = np.sort(np.vstack([np.zeros((1, rows.shape[1])), rows]), axis=0)
    gap = np.diff(values, axis=0)
    near = ((gap > 0) & (gap <= GEOM_ATOL)).any(axis=0)
    if not near.any():
        return rows
    out = rows.copy()
    for j in np.flatnonzero(near):
        kept = [0.0]
        for v in np.unique(values[:, j]).tolist():
            if v - kept[-1] > GEOM_ATOL:
                kept.append(v)
        out[:, j] = np.array(kept)[np.searchsorted(kept, rows[:, j], side="right") - 1]
    return out


def _group(rows: np.ndarray, nets: np.ndarray | None = None):
    """Sort rows lexicographically and merge equal rows, summing their nets."""
    if len(rows) == 0:
        return rows, nets
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = functools.reduce(np.logical_or, [c[1:] != c[:-1] for c in rows.T])
    starts = np.flatnonzero(first)
    if nets is not None:
        nets = np.add.reduceat(nets[order], starts)
    return rows[starts], nets


def _fold(corners: np.ndarray, rows: np.ndarray, nets: np.ndarray | None = None):
    """Join the corners one at a time to ``rows``: each corner, and its meet with every row.

    With ``nets`` the fold is signed inclusion-exclusion: a corner enters
    with +1 and each meet with minus the net of its row; rows whose net
    cancels to 0 are dropped, since all their later meets cancel too.
    Without, it is the closure of ``rows`` and the corners under minima.
    Meets take their coordinates from the inputs, so equal meets are equal
    bit for bit and grouping merges exactly. Each step checks
    MAX_EXPANSION_ROWS before it allocates.
    """
    for i, c in enumerate(corners):
        size = 2 * len(rows) + 1
        if size > MAX_EXPANSION_ROWS:
            raise ComplexityError(f"corner {i + 1} of {len(corners)} would expand to {size} meets (cap {MAX_EXPANSION_ROWS})")
        rows = np.concatenate([rows, c[None, :], np.minimum(rows, c)])
        if nets is not None:
            nets = np.concatenate([nets, [1], -nets])
        rows, nets = _group(rows, nets)
        if nets is not None:
            rows, nets = rows[nets != 0], nets[nets != 0]
    return rows, nets


def _signed_meets(corners) -> list[tuple[tuple[float, ...], int]]:
    """Meets of the corners with nonzero inclusion-exclusion nets, as ``(coords, net)`` in lexicographic order.

    The tuple fold visits the rows held in sorted order and takes c's value
    on ties, as the array fold does, so equal meets keep the same bits.
    """
    if not _small(len(corners)):
        rows = _as_rows(corners)
        rows, nets = _fold(rows, rows[:0], np.zeros(0, dtype=np.int64))
        return list(zip(map(tuple, rows.tolist()), nets.tolist()))
    entries = []
    for c in (corner.coords for corner in corners):
        nets = dict(entries)
        nets[c] = nets.get(c, 0) + 1
        for r, n in entries:
            m = tuple(map(min, c, r))
            nets[m] = nets.get(m, 0) - n
        entries = sorted(item for item in nets.items() if item[1])
    return entries


def _maxima(rows: np.ndarray) -> np.ndarray:
    """The rows of grouped (distinct, sorted) rows that lie below no other row, in order, at O(len(rows)) per maximum.

    Peels by descending coordinate sum (Kung, Luccio & Preparata 1975): the
    row of largest sum still in play is a maximum, and it drops every row it
    dominates, itself included. A row above another has at least its sum,
    rounding included, and comes later in the lexicographic order, so of
    rows with tied sums the last one is taken.
    """
    cols = np.ascontiguousarray(rows[::-1].T)  # reversed for the ties; column-wise compares are several times faster
    sums = cols.sum(axis=0)
    keep = np.zeros(len(rows), dtype=bool)
    while sums.size and sums[j := int(np.argmax(sums))] > -np.inf:
        sums[np.all(cols <= cols[:, j, None], axis=0)] = -np.inf
        keep[j] = True
    return rows[keep[::-1]]


@dataclass(frozen=True)
class UnionSet:
    """Finite union of rectangles, stored as the sorted antichain of maximal corners.

    Construct through :func:`canonicalize`; the constructor only validates
    that the representation is already canonical, free of near values
    included. Rows the module has made canonical itself go through
    :func:`_union`, which skips that check.
    """

    corners: tuple[Corner, ...]

    def __post_init__(self):
        corners = tuple(self.corners)
        if canonicalize(corners).corners != corners:
            raise InvalidGeometryError("union corners must be a sorted antichain without near values; "
                                       "use canonicalize()")
        object.__setattr__(self, "corners", corners)

    @property
    def dim(self) -> int:
        if not self.corners:
            raise InvalidGeometryError("empty union has no dimension")
        return self.corners[0].dim

    def __len__(self) -> int:
        return len(self.corners)

    def to_json(self) -> list[list[float]]:
        return [c.to_json() for c in self.corners]


def _union(rows) -> UnionSet:
    """UnionSet of canonical coordinate tuples taken from validated corners, built without validating them again."""
    u = object.__new__(UnionSet)
    object.__setattr__(u, "corners", tuple(map(_corner, rows)))
    return u


def canonicalize(corners) -> UnionSet:
    """Extremal representation of a union of rectangles.

    Snaps near values (:func:`_snap`), merges equal corners, removes every
    corner dominated by another, and sorts the survivors lexicographically.
    The empty input yields the empty union.
    """
    cs = _checked(corners)
    if _small(len(cs)):
        rows = {c.coords: None for c in cs}  # distinct rows, the first of equal ones kept, as _group keeps it
        # A column with a near pair goes the array route, so _snap stays the one near-value rule.
        if not any(0.0 < y - x <= GEOM_ATOL for col in zip(*rows) for x, y in pairwise(sorted({0.0, *col}))):
            return _union(sorted(r for r in rows if not any(r != s and all(map(operator.le, r, s)) for s in rows)))
    return _union(map(tuple, _maxima(_group(_snap(_as_rows(cs)))[0]).tolist()))


@dataclass(frozen=True)
class Increment:
    """Increment [0, a] minus a union b, with b clipped into [0, a].

    A b that already lies inside [0, a] is kept as given: clipping it would
    change nothing, and a UnionSet is canonical already. The signed frontier
    is folded on the first :func:`frontier` call and kept on the increment.
    """

    a: Corner
    b: UnionSet

    def __post_init__(self):
        if not all(c.leq(self.a) for c in self.b.corners):
            a = self.a.coords
            object.__setattr__(self, "b", canonicalize([tuple(map(min, a, c.coords)) for c in self.b.corners]))

    @property
    def dim(self) -> int:
        return self.a.dim

    @functools.cached_property
    def _frontier(self) -> "Frontier":
        if not self.b.corners:
            return Frontier(((Corner.origin(self.dim), 1),))
        return Frontier(tuple((_corner(c), n) for c, n in _signed_meets(self.b.corners)))


@dataclass(frozen=True)
class Frontier:
    """Corners that survive inclusion-exclusion over an increment's b-corners, each with its nonzero net (its sign)."""

    entries: tuple[tuple[Corner, int], ...]

    def __post_init__(self):
        seen = set()
        for corner, sign in self.entries:
            if isinstance(sign, bool) or not isinstance(sign, (int, np.integer)) or sign == 0:
                raise InvalidGeometryError(f"frontier nets must be nonzero integers, got {sign!r}")
            if corner.coords in seen:
                raise InvalidGeometryError(f"duplicate frontier corner {corner.coords}")
            seen.add(corner.coords)

    @property
    def corners(self) -> tuple[Corner, ...]:
        return tuple(c for c, _ in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def to_json(self) -> list[dict]:
        return [{"corner": c.to_json(), "sign": s} for c, s in self.entries]


def frontier(inc: Increment) -> Frontier:
    """Signed frontier of an increment after inclusion-exclusion cancellation.

    Folds the b-corners into their signed meets and keeps, in lexicographic
    order, the meets whose integer net coefficient is nonzero; the nets sum
    to 1. Three b-corners whose pairwise meets coincide leave that meet at
    -2. An empty b yields the origin with net +1, the convention for an
    unconditioned rectangle. The fold runs once per increment:
    later calls return the Frontier the first one built.
    """
    return inc._frontier


def min_closure(corners) -> list[Corner]:
    """Close a nonempty corner family under componentwise minima.

    Adds the origin, folds in every meet, and returns the closure sorted by
    (coordinate sum, lexicographic) order, which is a linear extension of
    componentwise <=: a corner always follows everything strictly below it.
    """
    rows = _as_rows(corners)
    if len(rows) == 0:
        raise InvalidGeometryError("min_closure needs at least one corner")
    rows, _ = _fold(_snap(rows), np.zeros((1, rows.shape[1])))
    # Sums added left to right, as Python's sum() of the coordinates would.
    sums = functools.reduce(np.add, rows.T)
    return [Corner(tuple(r)) for r in rows[np.lexsort([*rows.T[::-1], sums])].tolist()]
