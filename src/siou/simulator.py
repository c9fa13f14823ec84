"""Sequential Markov sampling of the set-indexed OU field on corner families.

A finite corner family is first closed under componentwise minima and
ordered by a linear extension of componentwise <=, with the origin first.
Each later corner a_i is reached through the increment [0, a_i] minus the
union of all earlier rectangles clipped into [0, a_i]; the frontier of
that increment consists of corners that appear strictly earlier in the
order, so one Gaussian draw per corner realizes the whole field. The
origin value is drawn from the configured initial law, and only that draw
depends on it, which is why arbitrary (including empirical) initial laws
are allowed.

Because the closure is min-closed, the maximal meets of a_i with the earlier
corners are a_i's lower covers, and there are few of them: usually at most
two per step of a 2-D family. An earlier corner is a meet of input corners
(generators), one of them g not >= a_i, so the covers are the maxima of
a_i's meets with such g and the origin: k + 1 meets for k generators, peeled
by descending coordinate sum (Kung, Luccio & Preparata 1975). The
generators are snapped once, by the geometry's one near-value rule, so the
closure, the covers and the parent lookup all compare exactly. Each step's
frontier is folded once; :func:`simulate` reuses it.

``simulate_exact`` bypasses the sequential kernel entirely. The field is
``X_U = exp(-lambda m(U)) X_0 + Z_U``, with Z the field started at 0 and
independent of X_0, so for every initial law it draws the origin values
first and then Z in one shot from its closed-form covariance, from the same
stream. It exists as an independent oracle for the sequential sampler. Z's
Gram has exactly zero rows (the origin, and axis corners under the
Lebesgue measure); the factor deflates them, so Z is 0 there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, PlanningError
from .gaussian import SAMPLE_BLOCK_ROWS, RngSeed, _draw_rows, _empty, factorize
from .geometry import Corner, Frontier, Increment, _as_rows, _group, _maxima, _snap, _union, frontier, min_closure
from .kernel import KernelParams, TransitionParams, cov_matrix, mean_vector, transition_params

__all__ = ["InitialLaw", "PlanStep", "Plan", "SamplePath", "plan", "simulate", "simulate_exact"]


@dataclass(frozen=True)
class InitialLaw:
    """Law of the origin value: dirac(x0), normal(mu, var) or empirical(values).

    The empirical law resamples the given values uniformly with
    replacement.
    """

    kind: str
    params: tuple[float, ...]

    def __post_init__(self):
        kind = self.kind
        ps = tuple(float(p) for p in self.params)
        if kind == "dirac":
            if len(ps) != 1:
                raise ConfigError("dirac initial law takes exactly one value")
        elif kind == "normal":
            if len(ps) != 2 or ps[1] < 0:
                raise ConfigError("normal initial law takes (mean, variance >= 0)")
        elif kind == "empirical":
            if not ps:
                raise ConfigError("empirical initial law needs at least one value")
        else:
            raise ConfigError(f"unknown initial law kind {kind!r}")
        if any(not math.isfinite(p) for p in ps):
            raise ConfigError(f"initial law parameters must be finite, got {ps}")
        object.__setattr__(self, "params", ps)

    @classmethod
    def dirac(cls, x0: float) -> "InitialLaw":
        return cls("dirac", (x0,))

    @classmethod
    def normal(cls, mu: float, var: float) -> "InitialLaw":
        return cls("normal", (mu, var))

    @classmethod
    def empirical(cls, values) -> "InitialLaw":
        return cls("empirical", tuple(values))

    def draw(self, gen: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == "dirac":
            return np.full(n, self.params[0])
        if self.kind == "normal":
            mu, var = self.params
            if var == 0.0:
                return np.full(n, mu)
            return mu + math.sqrt(var) * gen.standard_normal(n)
        values = np.asarray(self.params)
        return values[gen.integers(0, len(values), size=n)]


@dataclass(frozen=True)
class PlanStep:
    """One sequential step: reach corner ``a`` (position ``index`` in the order).

    ``parents`` are the positions of the frontier corners, aligned with the
    frontier entries; every parent precedes ``index``.
    """

    index: int
    a: Corner
    increment: Increment
    frontier: Frontier
    parents: tuple[int, ...]


@dataclass(frozen=True)
class Plan:
    """Ordered min-closed corner list plus one step per non-origin corner."""

    corners: tuple[Corner, ...]
    steps: tuple[PlanStep, ...]

    @property
    def dim(self) -> int:
        return self.corners[0].dim

    def to_json(self) -> dict:
        return {
            "corners": [c.to_json() for c in self.corners],
            "steps": [
                {
                    "index": s.index,
                    "a": s.a.to_json(),
                    "b": s.increment.b.to_json(),
                    "frontier": s.frontier.to_json(),
                    "parents": list(s.parents),
                }
                for s in self.steps
            ],
        }


def plan(corners, tiebreak: str = "lex") -> Plan:
    """Close the family under minima and lay out the sequential steps.

    ``tiebreak`` picks among valid linear extensions: corners are ordered
    by coordinate sum first, then lexicographically ("lex") or by the
    reversed coordinate tuple ("revlex"). Both orders sample the same law;
    having two lets the order-independence of the sampler be tested.
    """
    gens = _snap(_as_rows(corners))
    closed = min_closure(gens)
    if tiebreak == "lex":
        pass
    elif tiebreak == "revlex":
        closed = sorted(closed, key=lambda c: (sum(c.coords), c.coords[::-1]))
    else:
        raise ConfigError(f"unknown tiebreak {tiebreak!r}")
    if any(c != 0.0 for c in closed[0].coords):
        raise PlanningError("the closure must start at the origin")
    rows = _as_rows(closed)
    position = {c.coords: j for j, c in enumerate(closed)}
    steps = []
    for i in range(1, len(closed)):
        # b is canonicalize(min(rows[:i], a_i)), from the meets with the generators not >= a_i.
        meets = np.vstack([rows[:1], np.minimum(gens[~np.all(gens >= rows[i], axis=1)], rows[i])])
        inc = Increment(closed[i], _union(map(tuple, _maxima(_group(meets)).tolist())))
        fr = frontier(inc)
        # Frontier corners are meets of generators, so closure corners bit for bit.
        parents = tuple(position.get(c.coords, i) for c in fr.corners)
        if max(parents) >= i:
            corner = fr.corners[parents.index(max(parents))]
            raise PlanningError(f"frontier corner {corner.coords} of step {i} is not sampled before it")
        steps.append(PlanStep(i, closed[i], inc, fr, parents))
    return Plan(tuple(closed), tuple(steps))


@dataclass(frozen=True, eq=False)
class SamplePath:
    """Replicates of the field on an ordered corner family, one row per replicate.

    ``transitions`` holds the law :func:`simulate` used at each plan step (none for the exact sampler).
    """

    corners: tuple[Corner, ...]
    values: np.ndarray
    params: KernelParams
    initial: InitialLaw
    seed: RngSeed
    transitions: tuple[TransitionParams, ...] = ()

    def empirical_mean(self) -> np.ndarray:
        return self.values.mean(axis=0)

    def empirical_cov(self) -> np.ndarray:
        return np.atleast_2d(np.cov(self.values, rowvar=False, ddof=1))


def simulate(pl: Plan, params: KernelParams, initial: InitialLaw, replicates: int, seed: RngSeed) -> SamplePath:
    """Run the sequential sampler: one draw per corner, vectorized over replicates.

    Zero-variance steps contribute exactly their conditional mean. The
    output is deterministic given (plan, params, initial, replicates,
    seed): the stream is consumed one block of ``SAMPLE_BLOCK_ROWS``
    replicates at a time (the last may be shorter), and within a block
    the origin values come first, then one batch of the block's length
    per step in plan order. So a run of a whole number of blocks is the
    first rows of every longer run with the same seed.

    A block is worked in a reused ``(corners, block rows)`` array, one
    contiguous row per corner: the step's normals are drawn into its row
    and scaled by the conditional standard deviation, then each parent's
    row times its weight is added in frontier order, through a reused
    buffer. The block reaches the C-ordered ``(replicates, corners)``
    output in one transposed copy, so the sampler holds its output plus
    one block, and its values are the fixed-order sum ``sqrt(var) * z +
    w_1 x_1 + w_2 x_2 + ...``, with no BLAS call.
    """
    if replicates < 1:
        raise ConfigError(f"need at least one replicate, got {replicates}")
    params.measure.check_dim(pl.dim)
    transitions = tuple(transition_params(params, step.increment) for step in pl.steps)
    gen = seed.generator()
    n = replicates
    values = _empty((n, len(pl.corners)))
    work, term_buf = np.empty((len(pl.corners), min(n, SAMPLE_BLOCK_ROWS))), np.empty(min(n, SAMPLE_BLOCK_ROWS))
    for start in range(0, n, SAMPLE_BLOCK_ROWS):
        rows = min(n - start, SAMPLE_BLOCK_ROWS)
        block, term = work[:, :rows], term_buf[:rows]
        block[0] = initial.draw(gen, rows)
        for step, tp in zip(pl.steps, transitions):
            z = block[step.index]
            gen.standard_normal(out=z)
            z *= math.sqrt(tp.variance)
            for (_, w), p in zip(tp.weights, step.parents):
                z += np.multiply(block[p], w, out=term)
        values[start : start + rows] = block.T
    return SamplePath(pl.corners, values, params, initial, seed, transitions)


def simulate_exact(corners, params: KernelParams, initial: InitialLaw, replicates: int, seed: RngSeed) -> SamplePath:
    """Sample the joint law in one shot: the drawn origin, decayed, plus the point-started field.

    Takes a Plan, or a corner family that it plans in :func:`plan`'s
    default "lex" order, so columns line up with :func:`simulate` output
    on that plan. Every initial law takes one route,

        X_U = exp(-lambda m(U)) X_0 + Z_U,

    where Z, the field started at 0, is independent of X_0 and has the
    closed-form covariance s * exp(-lambda m(U sym-diff V)) - s *
    exp(-lambda (m(U) + m(V))), s = sigma^2/(2 lambda)
    (:func:`~siou.kernel.cov_matrix` with v0 = 0). Draws are consumed
    every replicate's origin first, then Z as
    :func:`~siou.gaussian.sample` draws it, from the same stream, under the
    block contract of the ``gaussian`` module docstring; a dirac start draws
    nothing for X_0. The decayed origin is added ``SAMPLE_BLOCK_ROWS`` rows
    at a time, so the sampler holds its output padded to whole blocks, one
    block and the replicates' origin values.
    """
    if replicates < 1:
        raise ConfigError(f"need at least one replicate, got {replicates}")
    pl = corners if isinstance(corners, Plan) else plan(corners)
    params.measure.check_dim(pl.dim)
    gen = seed.generator()
    x0 = initial.draw(gen, replicates)
    values = _draw_rows(factorize(cov_matrix(params, pl.corners, v0=0.0))[0], replicates, gen, 0.0)
    decay = mean_vector(params, pl.corners, 1.0)
    for start in range(0, replicates, SAMPLE_BLOCK_ROWS):
        blk = slice(start, start + SAMPLE_BLOCK_ROWS)
        values[blk] += x0[blk, None] * decay
    return SamplePath(pl.corners, values, params, initial, seed)
