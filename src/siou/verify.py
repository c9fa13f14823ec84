"""Verification harness: deterministic identity checks and Monte Carlo moment checks.

Deterministic checks compute the same quantity along two independent
routes (closed-form kernel vs linear-algebra conditioning, covariance vs
projected one-parameter forms, inclusion-exclusion vs direct measures) and
report the worst discrepancy against a fixed tolerance. Monte Carlo checks
compare empirical moments against closed-form moments in standard-error
units. Every check is deterministic given its seed and returns a
CheckReport; when a numerical route errors out the check fails with the
statistic pushed above any tolerance rather than raising. A check with
nothing to examine (zero trials, no flows) raises ConfigError instead of
passing.

The suite builders return ``(label, thunk)`` pairs, and :func:`run_suite`
runs them one after another, naming each report by its label.

Checks that consume a covariance take it as an injectable matrix function
``cov_fn(params, A, B=None) -> ndarray`` of two corner lists (B defaults
to A), so the harness can prove it is not vacuous: the sign-flipped
covariance fixture must make every deterministic check fail, and
:func:`negative_control_reports` runs exactly that battery.
"""

from __future__ import annotations

import itertools
import math
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace
from functools import cache, partial

import numpy as np

from .errors import ConfigError, SiouError
from .gaussian import GaussianSpec, RngSeed, _regression
from .geometry import Corner, Increment, canonicalize
from .kernel import KernelParams, TransitionParams, cov_matrix, mean_vector, transition_density, transition_params
from .measures import MeasureSpec, measure_diff, measure_rect, measure_symdiffs
from .sheet import GridSpec, batch_paths, equivalent_kernel_params
from .simulator import InitialLaw, SamplePath, plan, simulate, simulate_exact

# Statistic value used when a route errors out: above any tolerance, still JSON-safe.
BIG_STATISTIC = 1e308

# Moment checks refuse samples with fewer replicates than this.
MIN_REPLICATES = 1000

# check_continuity approaches each target in this many steps, shrinking the gap by RATIO each step.
CONTINUITY_REFINEMENTS = 40
CONTINUITY_RATIO = 0.5

# check_flow_projection compares the field at this many evenly spaced flow parameters.
FLOW_POINTS = 7

# cov_fn(params, A, B=None): covariance matrix between corner lists A and B (B defaults to A).
CovFn = Callable[..., np.ndarray]

# A suite entry: the report label and the thunk that runs the check.
LabelledCheck = tuple[str, Callable[[], "CheckReport"]]

__all__ = [
    "BIG_STATISTIC",
    "CheckReport",
    "FlowSpec",
    "sign_flipped_covariance",
    "theory_dirac",
    "theory_stationary",
    "matched_sequences",
    "moment_zscores",
    "check_psd",
    "check_kernel_schur",
    "schur_gap",
    "check_markov_orthogonality",
    "check_continuity",
    "check_stationarity",
    "check_flow_projection",
    "check_ou_reduction",
    "check_mc_moments",
    "check_mc_agreement",
    "run_suite",
    "negative_control_reports",
]


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one check: pass/fail, worst statistic, and its tolerance."""

    name: str
    passed: bool
    statistic: float
    tolerance: float
    details: str = ""
    seconds: float = field(default=0.0, compare=False)  # wall time in run_suite; not compared, not in to_json

    def __post_init__(self):
        if self.passed != (self.statistic <= self.tolerance):
            raise ValueError("passed must equal statistic <= tolerance")

    @classmethod
    def make(cls, name: str, statistic: float, tolerance: float, details: str = "") -> "CheckReport":
        statistic = float(min(statistic, BIG_STATISTIC))
        if math.isnan(statistic):
            statistic = BIG_STATISTIC
        return cls(name, statistic <= tolerance, statistic, tolerance, details)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "statistic": self.statistic,
            "tolerance": self.tolerance,
            "details": self.details,
        }


@dataclass(frozen=True)
class FlowSpec:
    """Nondecreasing piecewise-linear path of corners, starting at the origin.

    Parameterized by arc index: corner_at(s) for s in [0, len-1]
    interpolates between waypoints floor(s) and floor(s)+1.
    """

    waypoints: tuple[Corner, ...]

    def __post_init__(self):
        ws = tuple(self.waypoints)
        if len(ws) < 2:
            raise ConfigError("a flow needs at least two waypoints")
        if any(c != 0.0 for c in ws[0].coords):
            raise ConfigError("flows must start at the origin")
        for a, b in zip(ws, ws[1:]):
            if not a.leq(b):
                raise ConfigError("flow waypoints must be componentwise nondecreasing")
        object.__setattr__(self, "waypoints", ws)

    @property
    def dim(self) -> int:
        return self.waypoints[0].dim

    @property
    def max_param(self) -> float:
        return float(len(self.waypoints) - 1)

    def corner_at(self, s: float) -> Corner:
        if not 0.0 <= s <= self.max_param:
            raise ConfigError(f"flow parameter {s} outside [0, {self.max_param}]")
        k = min(int(math.floor(s)), len(self.waypoints) - 2)
        frac = s - k
        a, b = self.waypoints[k], self.waypoints[k + 1]
        return Corner(tuple(x + frac * (y - x) for x, y in zip(a.coords, b.coords)))


def sign_flipped_covariance(params: KernelParams, A, B=None) -> np.ndarray:
    """Deliberately corrupted covariance (exponent sign flipped): negative-control fixture."""
    sym = measure_symdiffs(params.measure, A, A if B is None else B)
    return params.stationary_variance * np.exp(params.lam * sym)


def _ou_gram(params: KernelParams, thetas) -> np.ndarray:
    """One-parameter OU covariance s exp(-lambda |theta_i - theta_j|): the time-change checks' oracle.

    It must not use the set-indexed builder it checks."""
    t = np.asarray(thetas, dtype=float)
    return params.stationary_variance * np.exp(-params.lam * np.abs(t[:, None] - t[None, :]))


def theory_dirac(params: KernelParams, corners: Sequence[Corner], x0: float) -> GaussianSpec:
    """Closed-form joint law of the field at the corners, started from a point x0."""
    return GaussianSpec(mean_vector(params, corners, x0), cov_matrix(params, corners, v0=0.0))


def theory_stationary(params: KernelParams, corners: Sequence[Corner]) -> GaussianSpec:
    """Closed-form joint law of the stationary field at the corners."""
    return GaussianSpec(np.zeros(len(corners)), cov_matrix(params, corners))


def _quarter_corner(gen: np.random.Generator, dim: int, lo: int, hi: int) -> Corner:
    return Corner(tuple(0.25 * gen.integers(lo, hi + 1, size=dim).astype(float)))


def _random_measure(gen: np.random.Generator, dim: int) -> MeasureSpec:
    if gen.integers(0, 2) == 0:
        return MeasureSpec.lebesgue()
    return MeasureSpec.axis(tuple(0.25 * gen.integers(2, 9, size=dim).astype(float)))


@cache
def _level(dim: int, total: int) -> tuple[Corner, ...]:
    """The corners of {1, 2, 3}^dim (in quarters) whose coordinates sum to ``total`` quarters, in product order."""
    return tuple(Corner(tuple(0.25 * q for q in c)) for c in itertools.product((1, 2, 3), repeat=dim) if sum(c) == total)


def _random_increment(gen: np.random.Generator, dim: int, max_b: int = 5, min_b: int = 0) -> Increment:
    """Random increment on the quarter grid.

    Half the time the b-corners come from one level of {1, 2, 3}^N (in
    quarters), a coordinate sum from N + 1 to 2N: an antichain whose meets
    tie often, so that 3-D and 4-D frontiers with nets of +-2 are common.
    """
    a = _quarter_corner(gen, dim, 4, 12)
    k = int(gen.integers(min_b, max_b + 1))
    if gen.random() < 0.5:
        level = _level(dim, int(gen.integers(dim + 1, 2 * dim + 1)))
        bs = [level[i] for i in gen.integers(0, len(level), size=k)]
    else:
        bs = [Corner(tuple(0.25 * gen.integers(1, round(c / 0.25) + 1) for c in a.coords)) for _ in range(k)]
    return Increment(a, canonicalize(bs))


def check_psd(params: KernelParams, trials: int, seed: RngSeed, cov_fn: CovFn = cov_matrix,
              max_corners: int = 12) -> CheckReport:
    """Gram matrices from the covariance must be positive semidefinite.

    Random corner sets of up to ``max_corners`` corners in dimensions 1 to
    3, under both measure kinds; the statistic is the worst
    -min_eigenvalue / trace seen.
    """
    if trials < 1:
        raise ConfigError(f"check_psd needs at least one trial, got {trials}")
    gen = seed.generator()
    worst = -math.inf
    for _ in range(trials):
        dim = int(gen.integers(1, 4))
        measure = _random_measure(gen, dim)
        local = KernelParams(params.lam, params.sigma, measure)
        corners: list[Corner] = []
        while len({c.coords for c in corners}) < 2:
            n = int(gen.integers(2, max_corners + 1))
            corners = [_quarter_corner(gen, dim, 1, 12) for _ in range(n)]
        g = cov_fn(local, corners)
        eigs = np.linalg.eigvalsh(g)
        worst = max(worst, -float(eigs[0]) / float(np.trace(g)))
    return CheckReport.make("psd", worst, 1e-10, f"trials={trials}, max_corners={max_corners}")


def check_kernel_schur(params: KernelParams, dim: int, trials: int, seed: RngSeed,
                       cov_fn: CovFn = cov_matrix) -> CheckReport:
    """Closed-form transition weights and variance must match Gaussian conditioning.

    For random increments, conditions the Gram matrix of (X_a, frontier)
    built from the covariance on the frontier block and compares the
    regression coefficients and residual variance against
    transition_params.
    """
    if trials < 1:
        raise ConfigError(f"check_kernel_schur needs at least one trial, got {trials}")
    params.measure.check_dim(dim)
    gen = seed.generator()
    worst = 0.0
    details = f"trials={trials}, dim={dim}"
    for _ in range(trials):
        inc = _random_increment(gen, dim)
        tp = transition_params(params, inc)
        g = cov_fn(params, [inc.a] + [c for c, _ in tp.weights])
        try:
            worst = max(worst, schur_gap(tp, g))
        except (SiouError, ValueError, np.linalg.LinAlgError) as exc:
            return CheckReport.make("kernel_schur", BIG_STATISTIC, 1e-8, f"{details}; conditioning failed: {exc}")
    return CheckReport.make("kernel_schur", worst, 1e-8, details)


def schur_gap(tp: TransitionParams, gram: np.ndarray) -> float:
    """Largest gap between a transition law and Gaussian conditioning of X_a on its frontier.

    ``gram`` is the covariance of X_a followed by X at tp's weighted corners, in order.
    """
    # One regression of X_a on the frontier block gives the variance and every weight.
    k_t, res = _regression(gram, list(range(1, len(gram))), [0])
    worst = abs(float(res[0, 0]) - tp.variance)
    for (_, w), k in zip(tp.weights, k_t[:, 0].tolist()):
        worst = max(worst, abs(k - w))
    return worst


def check_markov_orthogonality(params: KernelParams, dim: int, trials: int, seed: RngSeed,
                               cov_fn: CovFn = cov_matrix) -> CheckReport:
    """Cov(X_U, X_a - sum_i w_i X_{F_i}) must vanish for U inside the union.

    U qualifies when [0, u] meets [0, a] inside the union of the b-corners,
    checked at set level (the clipped corner u ^ a lies under some
    b-corner). Generated U that fail the precondition are skipped and
    counted.
    """
    if trials < 1:
        raise ConfigError(f"check_markov_orthogonality needs at least one trial, got {trials}")
    params.measure.check_dim(dim)
    gen = seed.generator()
    worst = 0.0
    used = skipped = attempts = 0
    while used < trials and attempts < 50 * trials:
        attempts += 1
        inc = _random_increment(gen, dim, min_b=1)
        pick = int(gen.integers(0, len(inc.b.corners)))
        base = inc.b.corners[pick]
        roll = gen.random()
        if roll < 0.25:
            u = base
        elif roll < 0.40:
            u = _quarter_corner(gen, dim, 1, 12)  # unconstrained; often violates
        else:
            u = Corner(tuple(0.25 * gen.integers(0, round(c / 0.25) + 1) for c in base.coords))
        w = u.meet(inc.a)
        if not any(w.leq(b) for b in inc.b.corners):
            skipped += 1
            continue
        used += 1
        tp = transition_params(params, inc)
        col = cov_fn(params, [inc.a] + [c for c, _ in tp.weights], [u])[:, 0]
        resid = col[0] - sum(wt * c for (_, wt), c in zip(tp.weights, col[1:]))
        worst = max(worst, abs(resid))
    tol = 1e-9 * params.stationary_variance
    details = f"pairs={used}, skipped={skipped} precondition violations, dim={dim}"
    return CheckReport.make("markov_orthogonality", worst, tol, details)


def check_continuity(params: KernelParams, flows: Sequence[FlowSpec], tolerance: float,
                     cov_fn: CovFn = cov_matrix) -> CheckReport:
    """L2 increments along monotone flows must shrink to zero, monotonically.

    Approaches a target corner from inside and from outside along each
    flow with geometrically refining parameters. The statistic is the
    worst of: the final squared L2 gap, any negative gap, and any growth
    of the gap along the refinement.
    """
    if not flows:
        raise ConfigError("check_continuity needs at least one flow")
    shrink = [CONTINUITY_RATIO**n for n in range(1, CONTINUITY_REFINEMENTS + 1)]
    worst = -math.inf
    for flow in flows:
        params.measure.check_dim(flow.dim)
        big = flow.max_param
        for target, approach in ((big, "inner"), (big / 2.0, "outer")):
            if approach == "inner":
                ss = [target * (1.0 - r) for r in shrink]
            else:
                ss = [target + (big - target) * r for r in shrink]
            g = cov_fn(params, [flow.corner_at(target)] + [flow.corner_at(s) for s in ss])
            gaps = g[0, 0] + np.diag(g)[1:] - 2.0 * g[0, 1:]
            worst = max(worst, gaps[-1], np.max(-gaps), np.max(np.diff(gaps)))
    details = f"flows={len(flows)}, refinements={CONTINUITY_REFINEMENTS}"
    return CheckReport.make("continuity", worst, tolerance, details)


def check_stationarity(params: KernelParams, v: Corner, u_seq: Sequence[Corner], a_seq: Sequence[Corner],
                       cov_fn: CovFn = cov_matrix) -> CheckReport:
    """Laws over V must match laws from the origin when increment measures match.

    Requires nested sequences with m(U_i minus V) equal to m(A_i); both
    Gram matrices must then coincide, and both must equal the closed-form
    Gram implied by the matched measures alone. Comparing against that
    predicted Gram keeps the check meaningful for corrupted covariances
    that would shift both empirical Grams the same way.
    """
    m = params.measure
    if len(u_seq) != len(a_seq) or not u_seq:
        raise ConfigError("need matching nonempty corner sequences")
    for seq in (u_seq, a_seq):
        for a, b in zip(seq, seq[1:]):
            if not a.leq(b):
                raise ConfigError("corner sequences must be componentwise nondecreasing")
    diffs = [measure_diff(m, u, canonicalize([v])) for u in u_seq]
    targets = [measure_rect(m, a) for a in a_seq]
    mismatch = max(abs(d - t) for d, t in zip(diffs, targets))
    if mismatch > 1e-9:
        raise ConfigError(f"increment measures do not match the origin sequence (off by {mismatch})")
    gu = cov_fn(params, list(u_seq))
    ga = cov_fn(params, list(a_seq))
    worst = max(float(np.max(np.abs(gu - ga))), float(np.max(np.abs(gu - _ou_gram(params, targets)))))
    return CheckReport.make("m_stationarity", worst, 1e-10, f"k={len(a_seq)}, matched measures {targets}")


def check_flow_projection(params: KernelParams, flow: FlowSpec, cov_fn: CovFn = cov_matrix) -> CheckReport:
    """The field along a monotone flow must be a one-parameter OU process.

    Time-changes the flow by theta(s) = m(f(s)) and compares the
    covariance of projected pairs against the classical form
    s * exp(-lambda |theta(t) - theta(s)|).
    """
    params.measure.check_dim(flow.dim)
    corners = [flow.corner_at(float(s)) for s in np.linspace(0.0, flow.max_param, FLOW_POINTS)]
    thetas = [measure_rect(params.measure, c) for c in corners]
    worst = float(np.max(np.abs(cov_fn(params, corners) - _ou_gram(params, thetas))))
    return CheckReport.make("flow_projection", worst, 1e-10, f"points={FLOW_POINTS}")


def check_ou_reduction(params: KernelParams, cov_fn: CovFn = cov_matrix) -> CheckReport:
    """In one Lebesgue dimension the kernel must be the classical OU kernel.

    Compares, over a grid of (s, t, x, y): the closed-form transition
    weight, variance and density against the textbook expressions, and the
    regression weight and residual variance implied by the covariance
    route. Pointwise agreement to 1e-12 is required.
    """
    if params.measure.kind != "lebesgue":
        raise ConfigError("the one-dimensional reduction check uses the Lebesgue measure")
    lam, sv = params.lam, params.stationary_variance
    worst = 0.0
    for s in (0.0, 0.3, 1.1):
        for dt in (0.2, 0.7, 1.6):
            t = s + dt
            w_ref = math.exp(-lam * dt)
            var_ref = sv * (1.0 - math.exp(-2.0 * lam * dt))
            inc = Increment(Corner((t,)), canonicalize([Corner((s,))]))
            tp = transition_params(params, inc)
            if len(tp.weights) != 1:
                return CheckReport.make("ou_reduction_1d", BIG_STATISTIC, 1e-12,
                                        f"expected one frontier corner, got {len(tp.weights)}")
            worst = max(worst, abs(tp.weights[0][1] - w_ref), abs(tp.variance - var_ref))
            g = cov_fn(params, [Corner((t,)), Corner((s,))])
            beta = g[0, 1] / g[1, 1]
            resid = g[0, 0] - g[0, 1] ** 2 / g[1, 1]
            worst = max(worst, abs(beta - w_ref), abs(resid - var_ref))
            for x in (-1.2, 0.0, 0.8):
                for y in (-0.5, 0.3, 1.2):
                    dens_ref = math.exp(-((y - x * w_ref) ** 2) / (2.0 * var_ref)) / math.sqrt(2.0 * math.pi * var_ref)
                    worst = max(worst, abs(transition_density(tp, [x], y) - dens_ref))
    return CheckReport.make("ou_reduction_1d", worst, 1e-12, "grid of (s, t, x, y) values")


def _moments(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return values.mean(axis=0), np.atleast_2d(np.cov(values, rowvar=False, ddof=1))


def moment_zscores(values: np.ndarray, theory: GaussianSpec, other: np.ndarray | None = None,
                   allowance: float = 0.0) -> tuple[float, str]:
    """Worst z-score of the sample mean and upper-triangle covariance, and its label.

    Scores ``values`` against ``theory``, or against ``other`` with standard
    errors scaled by sqrt(2). Standard errors use the Gaussian fourth-moment
    formula with the theory covariance; ``allowance`` is subtracted from
    each covariance discrepancy first. The label (``mean[i]``/``cov[i,j]``)
    is the first maximum's, and ``(0.0, "")`` means every score is 0.
    """
    n, d = values.shape
    tc = theory.cov
    mean, cov = _moments(values)
    ref_mean, ref_cov, scale = (theory.mean, tc, 1.0) if other is None else (*_moments(other), math.sqrt(2.0))
    iu, ju = np.triu_indices(d)
    var = np.diag(tc)
    diff = np.abs(np.concatenate([mean - ref_mean, cov[iu, ju] - ref_cov[iu, ju]]))
    diff[d:] = np.maximum(diff[d:] - allowance, 0.0)
    se = scale * np.sqrt(np.concatenate([var / n, (var[iu] * var[ju] + tc[iu, ju] ** 2) / n]))
    with np.errstate(divide="ignore", invalid="ignore"):
        z = diff / se
    # A zero-variance component must match its target up to the summation
    # error of averaging ~1e5 identical floats; any genuine law error moves
    # the moment by orders of magnitude more than this window.
    z[se == 0.0] = np.where(diff[se == 0.0] <= 1e-9, 0.0, BIG_STATISTIC)
    k = int(np.argmax(z))
    if not (z[k] > 0.0 or math.isnan(z[k])):
        return 0.0, ""
    where = f"mean[{k}]" if k < d else f"cov[{iu[k - d]},{ju[k - d]}]"
    return float(z[k]), where


def check_mc_moments(observed: SamplePath | np.ndarray, theory: GaussianSpec,
                     name: str = "mc_moments") -> CheckReport:
    """Empirical mean and covariance must sit within 5 standard errors of theory.

    Standard errors use the Gaussian fourth-moment formula with the theory
    values; a zero-variance component must match exactly and scores 0.
    """
    values = observed.values if isinstance(observed, SamplePath) else np.asarray(observed, dtype=float)
    if values.ndim != 2 or values.shape[1] != theory.dim:
        raise ConfigError(f"observed values of shape {values.shape} do not fit theory dimension {theory.dim}")
    n = values.shape[0]
    if n < MIN_REPLICATES:
        raise ConfigError(f"need at least {MIN_REPLICATES} replicates for a moment check, got {n}")
    worst, where = moment_zscores(values, theory)
    return CheckReport.make(name, worst, 5.0, f"replicates={n}, worst at {where}")


def check_mc_agreement(a: SamplePath | np.ndarray, b: SamplePath | np.ndarray, theory: GaussianSpec,
                       name: str = "mc_agreement") -> CheckReport:
    """Two samplers of the same law must agree within 5 standard errors of their difference."""
    va = a.values if isinstance(a, SamplePath) else np.asarray(a, dtype=float)
    vb = b.values if isinstance(b, SamplePath) else np.asarray(b, dtype=float)
    if va.shape != vb.shape:
        raise ConfigError(f"samplers disagree on shape: {va.shape} vs {vb.shape}")
    if va.shape[0] < MIN_REPLICATES:
        raise ConfigError(f"need at least {MIN_REPLICATES} replicates, got {va.shape[0]}")
    worst, where = moment_zscores(va, theory, other=vb)
    return CheckReport.make(name, worst, 5.0, f"replicates={va.shape[0]}, worst at {where}")


def matched_sequences(measure: MeasureSpec, dim: int, k: int = 4) -> tuple[Corner, list[Corner], list[Corner], str]:
    """Build nested sequences with m(U_i minus V) = m(A_i) for the stationarity check.

    V is the unit corner; U_i grows out of V along the first axis, and A_i
    grows from the origin along the last axis with its coordinate solved
    so the measures match exactly for the given measure kind.
    """
    v = Corner((1.0,) * dim)
    ts = [0.5 * (i + 1) for i in range(k)]
    u_seq = [Corner((1.0 + t,) + (1.0,) * (dim - 1)) for t in ts]
    if measure.kind == "lebesgue":
        if dim == 1:
            a_seq = [Corner((t,)) for t in ts]
        else:
            a_seq = [Corner((1.0,) * (dim - 1) + (t,)) for t in ts]
        note = "U grows along axis 0 out of the unit corner; A grows along the last axis"
    else:
        scale = measure.alpha[0] / measure.alpha[dim - 1]
        a_seq = [Corner((0.0,) * (dim - 1) + (scale * t,)) for t in ts]
        note = "axis measure: A coordinate rescaled by alpha_0/alpha_last"
    return v, u_seq, a_seq, note


# ---------------------------------------------------------------------------
# Suites


DETERMINISTIC_LAMBDAS = (0.5, 1.0, 2.0)
DETERMINISTIC_SIGMA2 = (1.0, 2.0)
DETERMINISTIC_DIMS = (1, 2, 3)
_AXIS_ALPHAS = {1: (1.0,), 2: (1.0, 0.5), 3: (1.0, 0.5, 2.0)}


def _flows_for(dim: int) -> list[FlowSpec]:
    origin = Corner.origin(dim)
    diag = FlowSpec((origin, Corner((1.5,) * dim)))
    if dim == 1:
        other = FlowSpec((origin, Corner((0.8,)), Corner((2.0,))))
    else:
        elbow = Corner((1.5,) + (0.0,) * (dim - 1))
        other = FlowSpec((origin, elbow, Corner((1.5,) * dim)))
    return [diag, other]


def _measures_for(dim: int) -> list[MeasureSpec]:
    return [MeasureSpec.lebesgue(), MeasureSpec.axis(_AXIS_ALPHAS[dim])]


def build_deterministic_checks(seed: RngSeed, cov_fn: CovFn = cov_matrix) -> list[LabelledCheck]:
    """(label, thunk) pairs for the deterministic battery over the parameter matrix."""
    checks: list[LabelledCheck] = []
    counter = iter(range(100_000))
    for lam in DETERMINISTIC_LAMBDAS:
        for sig2 in DETERMINISTIC_SIGMA2:
            sigma = math.sqrt(sig2)
            tag = f"lam={lam},sigma2={sig2}"
            base = KernelParams(lam, sigma, MeasureSpec.lebesgue())
            psd_seed = seed.child(next(counter))
            checks.append((f"psd[{tag}]", partial(check_psd, base, 10, psd_seed, cov_fn=cov_fn)))
            checks.append((f"ou_reduction_1d[{tag}]", partial(check_ou_reduction, base, cov_fn=cov_fn)))
            for dim in DETERMINISTIC_DIMS:
                for measure in _measures_for(dim):
                    params = KernelParams(lam, sigma, measure)
                    sub = f"{tag},N={dim},{measure.kind}"
                    s1, s2 = seed.child(next(counter)), seed.child(next(counter))
                    flows = _flows_for(dim)
                    v, u_seq, a_seq, _ = matched_sequences(measure, dim)
                    gap_tol = 1e-8 * params.stationary_variance
                    checks += [
                        (f"kernel_schur[{sub}]", partial(check_kernel_schur, params, dim, 10, s1, cov_fn=cov_fn)),
                        (f"markov_orthogonality[{sub}]",
                         partial(check_markov_orthogonality, params, dim, 20, s2, cov_fn=cov_fn)),
                        (f"continuity[{sub}]", partial(check_continuity, params, flows, gap_tol, cov_fn=cov_fn)),
                        (f"m_stationarity[{sub}]", partial(check_stationarity, params, v, u_seq, a_seq, cov_fn=cov_fn)),
                    ]
                    for fi, flow in enumerate(flows):
                        checks.append((f"flow_projection[{sub},flow={fi}]",
                                       partial(check_flow_projection, params, flow, cov_fn=cov_fn)))
    return checks


MC_FAMILY_2D = ((0.5, 0.5), (1.0, 2.0), (2.0, 1.0), (2.0, 2.0))


def build_mc_checks(seed: RngSeed) -> list[LabelledCheck]:
    """(label, thunk) pairs for the Monte Carlo battery: sampler laws and sheet representation."""
    params = KernelParams(1.0, math.sqrt(2.0), MeasureSpec.lebesgue())
    corners = [Corner(c) for c in MC_FAMILY_2D]
    pl = plan(corners)
    # dirac_markov and dirac_exact leave their paths here and dirac_agreement
    # pops them, drawing any that is missing, so no path outlives that check.
    held: dict[str, SamplePath] = {}

    def markov_path() -> SamplePath:
        return simulate(pl, params, InitialLaw.dirac(0.7), 100_000, seed.child(0))

    def exact_path() -> SamplePath:
        return simulate_exact(pl, params, InitialLaw.dirac(0.7), 100_000, seed.child(1))

    def dirac_markov() -> CheckReport:
        held["markov"] = markov_path()
        return check_mc_moments(held["markov"], theory_dirac(params, pl.corners, 0.7))

    def dirac_exact() -> CheckReport:
        held["exact"] = exact_path()
        return check_mc_moments(held["exact"], theory_dirac(params, pl.corners, 0.7))

    def dirac_agreement() -> CheckReport:
        a = held.pop("markov") if "markov" in held else markov_path()
        b = held.pop("exact") if "exact" in held else exact_path()
        return check_mc_agreement(a, b, theory_dirac(params, pl.corners, 0.7))

    def stationary_markov() -> CheckReport:
        initial = InitialLaw.normal(0.0, params.stationary_variance)
        path = simulate(pl, params, initial, 100_000, seed.child(2))
        return check_mc_moments(path, theory_stationary(params, pl.corners))

    def sheet_1d() -> CheckReport:
        alpha, sigma, y0 = (1.2,), 1.0, 0.4
        grid = GridSpec((-3.0,), (1.5,), (90,))
        points = [Corner((0.3,)), Corner((0.75,)), Corner((1.5,))]
        values = batch_paths(grid, alpha, sigma, points, 20_000, seed.child(3), y0=y0)
        eq = equivalent_kernel_params(alpha, sigma)
        return check_mc_moments(values, theory_dirac(eq, points, y0))

    def sheet_2d() -> CheckReport:
        alpha, sigma, step = (1.0, 2.0), 1.0, 0.05
        grid = GridSpec((-3.5, -3.5), (1.0, 1.0), (90, 90))
        points = [Corner((0.25, 0.5)), Corner((0.6, 0.3)), Corner((1.0, 1.0))]
        values = batch_paths(grid, alpha, sigma, points, 20_000, seed.child(4), stationary=True)
        eq = equivalent_kernel_params(alpha, sigma)
        allowance = 2.0 * step
        worst, where = moment_zscores(values, theory_stationary(eq, points), allowance=allowance)
        details = f"replicates={values.shape[0]}, allowance={allowance}, worst at {where}"
        return CheckReport.make("sheet_representation_2d", worst, 5.0, details)

    return [("mc.dirac_markov", dirac_markov), ("mc.dirac_exact", dirac_exact),
            ("mc.dirac_agreement", dirac_agreement), ("mc.stationary_markov", stationary_markov),
            ("mc.sheet_reduction_1d", sheet_1d), ("mc.sheet_representation_2d", sheet_2d)]


def run_suite(which: str, seed: RngSeed, cov_fn: CovFn = cov_matrix) -> list[CheckReport]:
    """Run a named check suite serially and return one report per check, in a stable order.

    ``which`` is "deterministic", "mc" or "all"; ``cov_fn`` replaces the
    covariance of the deterministic checks. Each report is named by its
    check's label and carries the seconds the check took. A check that
    raises a package error or a LinAlgError becomes a failing report under
    its label, so one broken route does not hide the others.
    """
    checks: list[LabelledCheck] = []
    if which in ("deterministic", "all"):
        checks += build_deterministic_checks(seed, cov_fn=cov_fn)
    if which in ("mc", "all"):
        checks += build_mc_checks(seed.child(10_000))
    if not checks:
        raise ConfigError(f"unknown suite {which!r}; pick deterministic, mc or all")
    reports = []
    for label, thunk in checks:
        start = time.perf_counter()
        try:
            report = thunk()
        except (SiouError, np.linalg.LinAlgError) as exc:
            report = CheckReport.make(label, BIG_STATISTIC, 0.0, f"errored {type(exc).__name__}: {exc}")
        reports.append(replace(report, name=label, seconds=time.perf_counter() - start))
    return reports


def negative_control_reports(seed: RngSeed) -> list[CheckReport]:
    """Every deterministic check run against the sign-flipped covariance fixture.

    All of these must FAIL; a pass would mean the corresponding check
    cannot see a corrupted kernel.
    """
    params = KernelParams(1.0, math.sqrt(2.0), MeasureSpec.lebesgue())
    params2 = KernelParams(1.0, math.sqrt(2.0), MeasureSpec.axis((1.0, 0.5)))
    flows = _flows_for(2)
    v, u_seq, a_seq, _ = matched_sequences(MeasureSpec.lebesgue(), 2)
    flip = sign_flipped_covariance
    reports = [
        check_psd(params, 10, seed.child(0), cov_fn=flip),
        check_kernel_schur(params2, 2, 10, seed.child(1), cov_fn=flip),
        check_markov_orthogonality(params, 2, 20, seed.child(2), cov_fn=flip),
        check_continuity(params, flows, 1e-8 * params.stationary_variance, cov_fn=flip),
        check_stationarity(params, v, u_seq, a_seq, cov_fn=flip),
        check_flow_projection(params, flows[1], cov_fn=flip),
        check_ou_reduction(params, cov_fn=flip),
    ]
    return reports
