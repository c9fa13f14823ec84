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

Corner families are held as ``(k, N)`` float arrays inside the module;
:class:`Corner` appears only at the API boundary. One fold serves the
frontier, the union measure and the min-closure: it takes the b-corners one
at a time and joins each corner c to the rows held so far as
``rows + {c} + min(rows, c)``, with signed nets ``nets + {+1} + (-nets)``,
then merges equal rows and drops rows whose net cancels to 0. This is
incremental inclusion-exclusion, so the nets are the Moebius coefficients
of the meet semilattice (Rota 1964), and its size is bounded by the rows the
fold holds rather than by 2^k subsets.

The maximal rows of a family (a union's extremal representation) come
from an all-pairs dominance test in :func:`canonicalize`, and from a peel
by descending coordinate sum (:func:`_maxima`) where there are many rows and
few maxima, as on each step of a sequential plan. Rows the module has made
canonical itself become a UnionSet through :func:`_union`, without a second
validation, and an Increment whose b already lies inside [0, a] keeps it as
given. An Increment folds its frontier once and keeps it.

Corners closer than ``GEOM_ATOL`` in every coordinate are treated as one
point. Exact cancellation in the frontier relies on equal inputs
collapsing, which componentwise ``min`` guarantees bitwise; the tolerance
only mops up near-duplicates in user input.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ComplexityError, InvalidGeometryError

GEOM_ATOL = 1e-12

# Rows one fold step may allocate. After i corners the signed fold holds at
# most 2^i - 1 rows, so every family of up to 20 corners fits.
MAX_EXPANSION_ROWS = 2**20

__all__ = [
    "GEOM_ATOL",
    "MAX_EXPANSION_ROWS",
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

    def leq(self, other: "Corner", atol: float = GEOM_ATOL) -> bool:
        """Componentwise <= up to ``atol``, i.e. rectangle inclusion."""
        return all(a <= b + atol for a, b in self._pairs(other))

    def meet(self, other: "Corner") -> "Corner":
        """Corner of the rectangle intersection: the componentwise minimum."""
        return Corner(tuple(min(a, b) for a, b in self._pairs(other)))

    def isclose(self, other: "Corner", atol: float = GEOM_ATOL) -> bool:
        return all(abs(a - b) <= atol for a, b in self._pairs(other))

    def to_json(self) -> list[float]:
        return list(self.coords)


def _as_rows(corners) -> np.ndarray:
    """Corners (or coordinate sequences, validated as corners) as a ``(k, N)`` float array; arrays pass through."""
    if isinstance(corners, np.ndarray):
        return corners.astype(float, copy=False)
    cs = [c if isinstance(c, Corner) else Corner(tuple(c)) for c in corners]
    dims = {c.dim for c in cs}
    if len(dims) > 1:
        raise InvalidGeometryError(f"mixed dimensions {sorted(dims)}; the dimension is fixed per session")
    return np.array([c.coords for c in cs], dtype=float) if cs else np.empty((0, 0))


def _corners(rows: np.ndarray) -> tuple[Corner, ...]:
    return tuple(Corner(tuple(r)) for r in rows.tolist())


def _has_near_values(rows: np.ndarray) -> bool:
    """Whether some column holds two distinct values within GEOM_ATOL of each other."""
    gap = np.diff(np.sort(rows, axis=0), axis=0)
    return bool(((gap > 0) & (gap <= GEOM_ATOL)).any())


def _snap_near_values(rows: np.ndarray) -> np.ndarray:
    """Rows with each coordinate moved to its column's representative.

    A column's values, 0 included, are merged by :func:`_group`'s rule:
    ascending, each value within GEOM_ATOL of a kept one joins it. The kept
    values are then more than GEOM_ATOL apart, so the result holds no near
    values and the closure of its rows needs no tolerance merge.
    """
    out = np.empty_like(rows)
    for j, col in enumerate(rows.T):
        reps = _group(np.unique(np.append(col, 0.0))[:, None])[0][:, 0]
        out[:, j] = reps[np.searchsorted(reps, col, side="right") - 1]
    return out


def _group(rows: np.ndarray, nets: np.ndarray | None = None, near: bool = True):
    """Sort rows lexicographically and drop each row within GEOM_ATOL of a kept one, summing nets into it.

    ``near=False`` skips the tolerance merge, for rows whose columns hold no
    two distinct values within GEOM_ATOL: only equal rows can merge then.
    """
    if len(rows) == 0:
        return rows, nets
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = functools.reduce(np.logical_or, [c[1:] != c[:-1] for c in rows.T])
    starts = np.flatnonzero(first)
    rows = rows[starts]
    if nets is not None:
        nets = np.add.reduceat(nets[order], starts)
    if not (near and _has_near_values(rows)):
        return rows, nets
    keep = np.ones(len(rows), dtype=bool)
    kept: list[int] = []
    for i in range(len(rows)):
        hit = np.flatnonzero(np.all(np.abs(rows[kept] - rows[i]) <= GEOM_ATOL, axis=1))
        if hit.size:
            keep[i] = False
            if nets is not None:
                nets[kept[hit[0]]] += nets[i]
        else:
            kept.append(i)
    return rows[keep], None if nets is None else nets[keep]


def _fold(corners: np.ndarray, rows: np.ndarray, nets: np.ndarray | None = None):
    """Join the corners one at a time to ``rows``: each corner, and its meet with every row.

    With ``nets`` the fold is signed inclusion-exclusion: a corner enters
    with +1 and each meet with minus the net of its row; rows whose net
    cancels to 0 are dropped, since all their later meets cancel too.
    Without, it is the closure of ``rows`` and the corners under minima.
    Each step checks MAX_EXPANSION_ROWS before it allocates.
    """
    # Meets take their coordinates from the inputs, so the tolerance merge is
    # needed only if some input column holds near-equal values.
    near = _has_near_values(np.concatenate([rows, corners]))
    for i, c in enumerate(corners):
        size = 2 * len(rows) + 1
        if size > MAX_EXPANSION_ROWS:
            raise ComplexityError(f"corner {i + 1} of {len(corners)} would expand to {size} meets (cap {MAX_EXPANSION_ROWS})")
        rows = np.concatenate([rows, c[None, :], np.minimum(rows, c)])
        if nets is not None:
            nets = np.concatenate([nets, [1], -nets])
        rows, nets = _group(rows, nets, near)
        if nets is not None:
            rows, nets = rows[nets != 0], nets[nets != 0]
    return rows, nets


def _signed_meets(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Meets of the rows with nonzero inclusion-exclusion nets, in lexicographic order."""
    return _fold(rows, rows[:0], np.zeros(0, dtype=np.int64))


def _dominated(rows: np.ndarray) -> np.ndarray:
    """Whether each row lies componentwise below another, up to GEOM_ATOL."""
    below = np.all(rows[:, None, :] <= rows[None, :, :] + GEOM_ATOL, axis=2)
    np.fill_diagonal(below, False)
    return below.any(axis=1)


def _maxima(rows: np.ndarray) -> np.ndarray:
    """``rows[~_dominated(rows)]`` for grouped rows, at O(len(rows)) per maximum.

    Peels by descending coordinate sum (Kung, Luccio & Preparata 1975): the
    row of largest sum still in play drops every row it dominates, itself
    included, and is kept unless some row dominates it. Under the GEOM_ATOL
    slack a row can be dominated by one of smaller sum, even by one already
    dropped, so that check runs over all rows. Grouped rows hold no two rows
    within GEOM_ATOL of each other, so no two rows dominate each other.
    """
    cols = np.ascontiguousarray(rows.T)  # column-wise compares are several times faster
    sums = cols.sum(axis=0)
    keep = np.zeros(len(rows), dtype=bool)
    while sums[j := int(np.argmax(sums))] > -np.inf:
        top = cols[:, j, None]
        sums[np.all(cols <= top + GEOM_ATOL, axis=0)] = -np.inf
        keep[j] = np.count_nonzero(np.all(top <= cols + GEOM_ATOL, axis=0)) == 1
    return rows[keep]


@dataclass(frozen=True)
class UnionSet:
    """Finite union of rectangles, stored as the sorted antichain of maximal corners.

    Construct through :func:`canonicalize`; the constructor only validates
    that the representation is already canonical. Rows the module has made
    canonical itself go through :func:`_union`, which skips that check.
    """

    corners: tuple[Corner, ...]

    def __post_init__(self):
        corners = tuple(self.corners)
        rows = _as_rows(corners)
        if not all(u.coords < v.coords for u, v in zip(corners, corners[1:])):
            raise InvalidGeometryError("union corners must be strictly sorted; use canonicalize()")
        if _dominated(rows).any():
            raise InvalidGeometryError("union corners must form an antichain; use canonicalize()")
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


def _union(rows: np.ndarray) -> UnionSet:
    """UnionSet of rows that are already canonical, built without validating them again."""
    u = object.__new__(UnionSet)
    object.__setattr__(u, "corners", _corners(rows))
    return u


def canonicalize(corners) -> UnionSet:
    """Extremal representation of a union of rectangles.

    Merges near-duplicate corners, removes every corner dominated by
    another, and sorts the survivors lexicographically. The empty input
    yields the empty union.
    """
    rows, _ = _group(_as_rows(corners))
    return _union(rows[~_dominated(rows)])


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
        rows = _as_rows((self.a, *self.b.corners))
        if not np.all(rows[1:] <= rows[0]):
            object.__setattr__(self, "b", canonicalize(np.minimum(rows[1:], rows[0])))

    @property
    def dim(self) -> int:
        return self.a.dim

    @functools.cached_property
    def _frontier(self) -> "Frontier":
        if not self.b.corners:
            return Frontier(((Corner.origin(self.dim), 1),))
        rows, nets = _signed_meets(_as_rows(self.b.corners))
        return Frontier(tuple(zip(_corners(rows), nets.tolist())))


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

    @property
    def signs(self) -> tuple[int, ...]:
        return tuple(s for _, s in self.entries)

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
    rows, _ = _fold(rows, np.zeros((1, rows.shape[1])))
    # Sums added left to right, as Python's sum() of the coordinates would.
    sums = functools.reduce(np.add, rows.T)
    return list(_corners(rows[np.lexsort([*rows.T[::-1], sums])]))
