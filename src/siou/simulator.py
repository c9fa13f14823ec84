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

``simulate_exact`` bypasses the sequential kernel entirely: it assembles
the joint mean and covariance in closed form and samples in one shot. It
exists as an independent oracle for the sequential sampler and therefore
supports only Gaussian initial laws. A point start's Gram has exactly zero
rows (the origin, and axis corners under the Lebesgue measure); the factor
deflates them, so those columns come out as their means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, PlanningError
from .gaussian import SAMPLE_BLOCK_ROWS, GaussianSpec, RngSeed, _empty, sample
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

    @property
    def is_gaussian(self) -> bool:
        return self.kind in ("dirac", "normal")

    @property
    def mean(self) -> float:
        if self.is_gaussian:
            return self.params[0]
        raise ConfigError("empirical initial law has no closed-form role here")

    @property
    def variance(self) -> float:
        if self.kind == "dirac":
            return 0.0
        if self.kind == "normal":
            return self.params[1]
        raise ConfigError("empirical initial law has no closed-form role here")

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
        inc = Increment(closed[i], _union(_maxima(_group(meets)[0])))
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
    seed): draws are consumed origin first, then one batch of
    ``replicates`` normals per step in plan order.

    Each column is filled ``SAMPLE_BLOCK_ROWS`` replicates at a time in a
    reused buffer: the block's normals are drawn into it and scaled by the
    conditional standard deviation, then each parent column times its
    weight is added in frontier order, through a second reused buffer. So
    the sampler holds its C-ordered ``(replicates, corners)`` output plus
    two blocks, and its values are the same fixed-order sum over whole
    columns, ``sqrt(var) * z + w_1 x_1 + w_2 x_2 + ...``, with no BLAS call.
    """
    if replicates < 1:
        raise ConfigError(f"need at least one replicate, got {replicates}")
    params.measure.check_dim(pl.dim)
    transitions = tuple(transition_params(params, step.increment) for step in pl.steps)
    gen = seed.generator()
    n = replicates
    values = _empty((n, len(pl.corners)))
    starts = range(0, n, SAMPLE_BLOCK_ROWS)
    for start in starts:
        values[start : start + SAMPLE_BLOCK_ROWS, 0] = initial.draw(gen, min(n - start, SAMPLE_BLOCK_ROWS))
    z_buf, term_buf = np.empty(min(n, SAMPLE_BLOCK_ROWS)), np.empty(min(n, SAMPLE_BLOCK_ROWS))
    for step, tp in zip(pl.steps, transitions):
        scale = math.sqrt(tp.variance)
        for start in starts:
            block = values[start : start + SAMPLE_BLOCK_ROWS]
            z, term = z_buf[: len(block)], term_buf[: len(block)]
            gen.standard_normal(out=z)
            z *= scale
            for (_, w), p in zip(tp.weights, step.parents):
                z += np.multiply(block[:, p], w, out=term)
            block[:, step.index] = z
    return SamplePath(pl.corners, values, params, initial, seed, transitions)


def simulate_exact(corners, params: KernelParams, initial: InitialLaw, replicates: int, seed: RngSeed,
                   tiebreak: str = "lex") -> SamplePath:
    """Sample the joint law in one shot from its closed-form mean and covariance.

    Accepts the same corner family as :func:`plan` (a prebuilt Plan also
    works) and uses the identical ordering, so columns line up with
    :func:`simulate` output. With initial law N(mu0, v0) the joint moments
    are

        E[X_U]        = mu0 * exp(-lambda m(U)),
        Cov(X_U, X_V) = s * exp(-lambda m(U sym-diff V))
                        + (v0 - s) * exp(-lambda (m(U) + m(V))),

    with s = sigma^2/(2 lambda) (:func:`~siou.kernel.cov_matrix`); a dirac x0 is
    the v0 = 0 case. Empirical initial laws have no closed-form joint
    Gaussian and are rejected.
    """
    if not initial.is_gaussian:
        raise ConfigError("simulate_exact needs a dirac or normal initial law")
    if replicates < 1:
        raise ConfigError(f"need at least one replicate, got {replicates}")
    pl = corners if isinstance(corners, Plan) else plan(corners, tiebreak=tiebreak)
    params.measure.check_dim(pl.dim)
    mean = mean_vector(params, pl.corners, initial.mean)
    cov = cov_matrix(params, pl.corners, v0=initial.variance)
    draws = sample(GaussianSpec(mean, cov), replicates, seed)
    return SamplePath(pl.corners, draws, params, initial, seed)
