"""Sequential Markov sampler, exact joint sampler, and the step planner."""

import dataclasses
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from siou import simulator
from siou.errors import ConfigError, PlanningError
from siou.gaussian import SAMPLE_BLOCK_ROWS, GaussianSpec, RngSeed
from siou.geometry import GEOM_ATOL, Corner, Frontier, Increment, canonicalize, frontier, min_closure
from siou.kernel import KernelParams, cov_dirac, cov_matrix, cov_stationary, mean_dirac, mean_vector, transition_params
from siou.measures import MeasureSpec
from siou.simulator import InitialLaw, plan, simulate, simulate_exact
from siou.verify import check_mc_agreement, check_mc_moments, schur_gap, sign_flipped_covariance, theory_dirac


LEB = MeasureSpec.lebesgue()
P = KernelParams(1.0, math.sqrt(2.0), LEB)
FAMILY = [Corner(c) for c in ((0.5, 0.5), (1.0, 2.0), (2.0, 1.0), (2.0, 2.0))]


def test_plan_closes_family_and_orders_origin_first():
    pl = plan(FAMILY)
    coords = [c.coords for c in pl.corners]
    assert coords[0] == (0.0, 0.0)
    assert coords == sorted(coords, key=lambda c: (sum(c), c))
    assert (1.0, 1.0) in coords  # meet of (1,2) and (2,1) added by closure
    assert len(pl.steps) == len(pl.corners) - 1


def test_plan_parents_precede_steps():
    pl = plan(FAMILY)
    for step in pl.steps:
        assert step.parents
        assert all(j < step.index for j in step.parents)


def test_plan_top_corner_conditions_on_three_parents():
    pl = plan(FAMILY)
    top = pl.steps[-1]
    assert top.a.coords == (2.0, 2.0)
    parents = {pl.corners[j].coords for j in top.parents}
    assert parents == {(1.0, 2.0), (2.0, 1.0), (1.0, 1.0)}


def test_plan_rejects_unknown_tiebreak():
    with pytest.raises(ConfigError):
        plan(FAMILY, tiebreak="random")


def _snapped(corners):
    """Each coordinate moved to the last kept value of its column (0 included, ascending) within GEOM_ATOL."""
    rows = np.array([c.coords for c in corners])
    for col in rows.T:
        keep = 0.0
        for v in sorted(set(col)):
            keep = keep if v - keep <= GEOM_ATOL else v
            col[col == v] = keep
    return [Corner(tuple(r)) for r in rows.tolist()]


def _reference_plan_json(corners, tiebreak):
    """Plan JSON built step by step from ``canonicalize`` and a tolerance search over all earlier corners."""
    closed = min_closure(_snapped(corners))
    if tiebreak == "revlex":
        closed = sorted(closed, key=lambda c: (sum(c.coords), c.coords[::-1]))
    rows = np.array([c.coords for c in closed])
    steps = []
    for i in range(1, len(closed)):
        b = canonicalize(np.minimum(rows[:i], rows[i]))
        fr = frontier(Increment(closed[i], b))
        near = np.all(np.abs(np.array([c.coords for c in fr.corners])[:, None, :] - rows[None, :i, :]) <= GEOM_ATOL,
                      axis=2)
        if not near.any(axis=1).all():
            raise PlanningError(f"step {i} has a frontier corner that is not sampled before it")
        steps.append({"index": i, "a": closed[i].to_json(), "b": b.to_json(), "frontier": fr.to_json(),
                      "parents": near.argmax(axis=1).tolist()})
    return {"corners": [c.to_json() for c in closed], "steps": steps}


@st.composite
def near_families(draw):
    """Quarter-grid families in dimensions 1-4, axis corners included; some coordinates moved by less than GEOM_ATOL."""
    dim = draw(st.integers(1, 4))
    k = draw(st.integers(1, 8 if dim <= 2 else 5))
    quarters = draw(st.lists(st.tuples(*[st.integers(0, 6)] * dim), min_size=k, max_size=k))
    shifts = st.sampled_from((0.0, 0.0, 3e-13, -4e-13, 9e-13))
    return [Corner(tuple(max(0.25 * q + draw(shifts), 0.0) for q in c)) for c in quarters]


@settings(max_examples=150, deadline=None)
@given(near_families(), st.sampled_from(["lex", "revlex"]))
def test_plan_steps_match_canonicalized_meets(corners, tiebreak):
    want = _reference_plan_json(corners, tiebreak)
    assert json.dumps(plan(corners, tiebreak=tiebreak).to_json()) == json.dumps(want)


@settings(max_examples=150, deadline=None)
@given(near_families())
def test_geometry_entry_points_snap_near_values(corners):
    snapped = _snapped(corners)
    assert canonicalize(corners) == canonicalize(snapped)
    assert min_closure(corners) == min_closure(snapped)
    top = Corner((2.0,) * corners[0].dim)
    assert frontier(Increment(top, canonicalize(corners))) == frontier(Increment(top, canonicalize(snapped)))


def _plan_digest(corners, tiebreak):
    return hashlib.sha256(json.dumps(plan(corners, tiebreak=tiebreak).to_json()).encode()).hexdigest()


GRID_12 = [Corner((0.25 * i, 0.25 * j)) for i in range(1, 13) for j in range(1, 13)]
# Corners on the axes: their meets fall on the axes and at the origin.
AXIS_3D = [Corner(c) for c in ((0.5, 0.0, 1.0), (0.0, 0.75, 0.5), (1.0, 0.5, 0.0), (0.25, 1.0, 0.75),
                               (0.0, 0.0, 1.25), (1.0, 1.0, 1.0))]


def _antichain_and_top(m):
    """A 2-D antichain of m corners plus a corner above them all, whose step has 2m - 1 parents."""
    anti = [Corner((0.25 * i, 0.25 * (m + 1 - i))) for i in range(1, m + 1)]
    return anti + [Corner((0.25 * (m + 1), 0.25 * (m + 1)))]


@pytest.mark.parametrize("corners, tiebreak, digest", [
    (GRID_12, "lex", "a7b04686370c93a789a41573d36ff58e589efd3a7849648209a1aa9a83167c15"),
    (GRID_12, "revlex", "fb69e016e25f90ce203da70090d4bb6cbf4fd5d1d51b7e5c70b511b0943ab1e6"),
    (FAMILY, "lex", "e88d494921bcc26c76b260c453a51e837ae594f82b1cf2f8e24f83a7d434cd18"),
    (FAMILY, "revlex", "818f5d1f4240284410066587700f55df823466116f9b14b9fc35213aea72048d"),
    (_antichain_and_top(20), "lex", "8a8f965cf4cc193dfe26c0baa699c58aad439c3e0817fe1970249c33b1b9ddc1"),
    (_antichain_and_top(20), "revlex", "59f8cdbd73ab62b8c62bb028871a74190d369be8665a88bb8e84f5c995fb9bad"),
    (AXIS_3D, "lex", "ba54403dfb9314407740b0d674f528711f9550024e3d87fda09ea7af11da6189"),
])
def test_plan_json_bytes_are_pinned(corners, tiebreak, digest):
    assert _plan_digest(corners, tiebreak) == digest


@pytest.mark.parametrize("stray", [lambda inc: Corner((0.3, 0.3)), lambda inc: inc.a], ids=["outside", "not_earlier"])
def test_plan_refuses_a_frontier_corner_not_sampled_before_its_step(monkeypatch, stray):
    monkeypatch.setattr(simulator, "frontier", lambda inc: Frontier(((stray(inc), 1),)))
    with pytest.raises(PlanningError, match="not sampled before it"):
        plan(FAMILY)


def test_sixty_corner_antichain_plan_ends_in_the_closed_form_frontier():
    # Corners (i, 61 - i): the closure adds the 1,770 pairwise meets and the origin.
    anti = [Corner((float(i), float(61 - i))) for i in range(1, 61)]
    pl = plan(anti + [Corner((61.0, 61.0))])
    assert len(pl.corners) == 1832
    top = pl.steps[-1]
    want = sorted([(c.coords, 1) for c in anti] + [((u.coords[0], v.coords[1]), -1) for u, v in zip(anti, anti[1:])])
    assert top.a.coords == (61.0, 61.0)
    assert [(c.coords, s) for c, s in top.frontier.entries] == want
    assert len(want) == 119
    assert hashlib.sha256(json.dumps(pl.to_json()).encode()).hexdigest() == (
        "5775491f61ebc32aeb55066842ed59b8db202a3a8085262e03460b06acc4cb01")


def test_overflowing_measure_gap_gives_a_zero_weight():
    # Both rectangles' measures overflow, and so does the telescoped gap between them: inf, never inf - inf.
    pl = plan([(1e200, 1e200), (1e200, 1e199)])
    path = simulate(pl, P, InitialLaw.dirac(0.0), 4, RngSeed(1))
    assert np.isfinite(path.values).all()
    top = path.transitions[-1]
    assert [w for _, w in top.weights] == [0.0]
    assert top.variance == P.stationary_variance


# Pairwise meets of its first three corners all equal (0.25, 0.25, 0.25), which the top step takes with net -2.
FOUR_CORNERS = [Corner(c) for c in ((0.25, 0.25, 0.5), (0.25, 0.5, 0.25), (0.5, 0.25, 0.25), (0.5, 0.5, 0.5))]


def _plan_factor_gap(pl, params, v0, cov_fn=cov_matrix):
    """max |B Sigma B^T - D| / s for the plan's transitions, with Sigma from ``cov_fn``.

    B is unit lower triangular with B[i, parents_i] = -w_i, and D holds the
    origin variance (v0, or s for the stationary field) and the transition
    variances. The sequential sampler is B X = D^(1/2) eps, so it draws the
    law Sigma exactly when B Sigma B^T = D.
    """
    s = params.stationary_variance
    n = len(pl.corners)
    b, d = np.eye(n), np.zeros(n)
    d[0] = s if v0 is None else v0
    for step in pl.steps:
        tp = transition_params(params, step.increment)
        b[step.index, list(step.parents)] -= [w for _, w in tp.weights]
        d[step.index] = tp.variance
    sigma = cov_fn(params, pl.corners) if v0 is None else cov_fn(params, pl.corners, v0=v0)
    return float(np.max(np.abs(b @ sigma @ b.T - np.diag(d)))) / s


@st.composite
def factor_cases(draw):
    """A quarter-grid family in dimensions 1-4 and a kernel.

    Half the families are corners from one level of {1, 2, 3}^N plus the
    corner (4, ..., 4) above them all, whose step meets nets of +-2 when
    the level's meets tie.
    """
    dim = draw(st.integers(1, 4))
    if draw(st.booleans()):
        total = draw(st.integers(dim + 1, 2 * dim))
        level = [c for c in itertools.product((1, 2, 3), repeat=dim) if sum(c) == total]
        k = min(draw(st.integers(1, 5)), len(level))
        quarters = draw(st.lists(st.sampled_from(level), min_size=k, max_size=k, unique=True)) + [(4,) * dim]
    else:
        quarters = draw(st.lists(st.tuples(*[st.integers(0, 6)] * dim), min_size=1, max_size=7 if dim <= 2 else 5))
    corners = [Corner(tuple(0.25 * q for q in c)) for c in quarters]
    measure = draw(st.sampled_from([LEB, MeasureSpec.axis(tuple(0.5 + 0.25 * i for i in range(dim)))]))
    params = KernelParams(draw(st.floats(0.3, 2.0)), draw(st.floats(0.5, 2.0)), measure)
    return corners, params


@settings(max_examples=150, deadline=None)
@given(factor_cases(), st.sampled_from(["lex", "revlex"]), st.sampled_from([None, 0.0, 0.3]))
@example((FOUR_CORNERS, P), "lex", None)
@example((FOUR_CORNERS, KernelParams(0.8, 1.3, MeasureSpec.axis((1.0, 0.5, 2.0)))), "revlex", 0.3)
def test_plan_transitions_factor_the_closed_form_covariance(case, tiebreak, v0):
    corners, params = case
    assert _plan_factor_gap(plan(corners, tiebreak=tiebreak), params, v0) <= 1e-12


def test_plan_factor_gap_sees_a_wrong_covariance_and_wrong_parents():
    pl = plan(FOUR_CORNERS)
    top = pl.steps[-1]
    assert [s for _, s in top.frontier.entries] == [-2, 1, 1, 1]
    assert _plan_factor_gap(pl, P, None) <= 1e-12
    assert _plan_factor_gap(pl, P, None, cov_fn=sign_flipped_covariance) > 1e-3
    swapped = dataclasses.replace(top, parents=top.parents[::-1])
    assert _plan_factor_gap(simulator.Plan(pl.corners, pl.steps[:-1] + (swapped,)), P, None) > 1e-3


def test_simulate_agrees_with_the_exact_sampler_across_a_net_of_minus_two():
    family = [Corner(c) for c in ((0.25, 0.25, 0.75), (0.25, 1.75, 0.25), (1.5, 1.25, 1.25), (1.25, 0.25, 0.25))]
    pl = plan(family)
    assert -2 in [s for _, s in pl.steps[-1].frontier.entries]
    params = KernelParams(0.8, 1.3, LEB)
    n = 40_000
    a = simulate(pl, params, InitialLaw.dirac(0.7), n, RngSeed(71))
    b = simulate_exact(pl, params, InitialLaw.dirac(0.7), n, RngSeed(72))
    report = check_mc_agreement(a, b, theory_dirac(params, pl.corners, 0.7))
    assert report.passed, report.details


def test_plan_snaps_coordinates_that_chain_within_tolerance():
    # 0.25 - 4e-13, 0.25 and 0.25 + 9e-13 chain within GEOM_ATOL, but their ends are 1.3e-12 apart.
    family = [Corner(c) for c in ((0.25, 0.25, 0.5), (0.25, 0.5, 0.25 + 9e-13), (0.25, 0.25, 0.25),
                                  (0.25, 0.25, 0.25 - 4e-13))]
    pl = plan(family)
    assert sorted({c.coords[2] for c in pl.corners}) == [0.0, 0.25 - 4e-13, 0.25 + 9e-13, 0.5]
    for params in (P, KernelParams(0.8, 1.3, MeasureSpec.axis((1.0, 0.5, 2.0)))):
        for step in pl.steps:
            tp = transition_params(params, step.increment)
            assert schur_gap(tp, cov_matrix(params, [step.a] + [c for c, _ in tp.weights])) <= 1e-8


def _one_shot(pl, params, initial, replicates, seed):
    """The sampler without reused buffers, block by block.

    Each block of ``SAMPLE_BLOCK_ROWS`` replicates (the last may be shorter)
    draws its origin values, then each column as ``sqrt(var) *
    standard_normal(rows) + w_1 x_1 + w_2 x_2 + ...`` in plan order.
    """
    gen = seed.generator()
    blocks = []
    for start in range(0, replicates, SAMPLE_BLOCK_ROWS):
        rows = min(SAMPLE_BLOCK_ROWS, replicates - start)
        values = np.empty((rows, len(pl.corners)))
        values[:, 0] = initial.draw(gen, rows)
        for step in pl.steps:
            tp = transition_params(params, step.increment)
            col = math.sqrt(tp.variance) * gen.standard_normal(rows)
            for (_, w), p in zip(tp.weights, step.parents):
                col += w * values[:, p]
            values[:, step.index] = col
        blocks.append(values)
    return np.vstack(blocks)


STARTS = [InitialLaw.dirac(0.7), InitialLaw.normal(0.3, 0.4), InitialLaw.empirical([0.0, 1.0, 3.5])]


@pytest.mark.parametrize("family", [FAMILY, _antichain_and_top(12)], ids=["readme", "antichain12_top"])
@pytest.mark.parametrize("initial", STARTS, ids=lambda law: law.kind)
@pytest.mark.parametrize("replicates", [1, SAMPLE_BLOCK_ROWS - 1, SAMPLE_BLOCK_ROWS, SAMPLE_BLOCK_ROWS + 1,
                                        SAMPLE_BLOCK_ROWS + 3, 20_000])
def test_simulate_matches_the_one_shot_sampler(family, initial, replicates):
    pl = plan(family)
    path = simulate(pl, P, initial, replicates, RngSeed(17))
    assert path.values.flags.c_contiguous
    np.testing.assert_array_equal(path.values, _one_shot(pl, P, initial, replicates, RngSeed(17)))


@pytest.mark.parametrize("initial", STARTS, ids=lambda law: law.kind)
def test_a_run_of_whole_blocks_is_the_prefix_of_every_longer_run(initial):
    pl = plan(FAMILY)
    runs = {n: simulate(pl, P, initial, n, RngSeed(19)).values
            for n in (SAMPLE_BLOCK_ROWS, SAMPLE_BLOCK_ROWS + 1, 2 * SAMPLE_BLOCK_ROWS, 2 * SAMPLE_BLOCK_ROWS + 7)}
    for j in (1, 2):
        for n in [n for n in runs if n > j * SAMPLE_BLOCK_ROWS]:
            np.testing.assert_array_equal(runs[n][: j * SAMPLE_BLOCK_ROWS], runs[j * SAMPLE_BLOCK_ROWS])


@pytest.mark.parametrize("initial", STARTS[:2], ids=lambda law: law.kind)
def test_simulate_holds_its_output_plus_one_block(initial):
    pl = plan(FAMILY)
    tracemalloc.start()
    try:
        path = simulate(pl, P, initial, 200_000, RngSeed(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * path.values.nbytes


@pytest.mark.parametrize("initial", STARTS, ids=lambda law: law.kind)
def test_simulate_exact_holds_its_output_plus_one_block(initial):
    pl = plan(_antichain_and_top(12))
    n = 20_000
    simulate_exact(pl, P, initial, 1, RngSeed(5))  # a first call imports modules, which tracemalloc would count
    tracemalloc.start()
    try:
        path = simulate_exact(pl, P, initial, n, RngSeed(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = SAMPLE_BLOCK_ROWS * len(pl.corners) * 8
    assert peak < path.values.nbytes + block + 4 * n * 8


# Digests of a point-started simulate_exact run on the 12x12 quarter grid
# (145 corners, 4,096 + 811 replicates) and of factorize on its Gram.
_ORACLE_DIGESTS = """
import hashlib, math
from siou.gaussian import RngSeed, factorize
from siou.geometry import Corner
from siou.kernel import KernelParams, cov_matrix
from siou.measures import MeasureSpec
from siou.simulator import InitialLaw, plan, simulate_exact

params = KernelParams(1.0, math.sqrt(2.0), MeasureSpec.lebesgue())
pl = plan([Corner((0.25 * i, 0.25 * j)) for i in range(1, 13) for j in range(1, 13)])
values = simulate_exact(pl, params, InitialLaw.dirac(0.7), 4096 + 811, RngSeed(24)).values
factor, _ = factorize(cov_matrix(params, pl.corners, v0=0.0))
print(len(pl.corners), hashlib.sha256(values.tobytes()).hexdigest(), hashlib.sha256(factor.tobytes()).hexdigest())
"""


def test_point_started_exact_draws_do_not_depend_on_blas_threads():
    src = str(Path(__file__).resolve().parent.parent / "src")
    digests = {}
    for threads in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", _ORACLE_DIGESTS], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        digests[threads] = dict(zip(("corners", "draws", "factor"), proc.stdout.split()))
    assert digests["1"]["corners"] == "145"
    assert digests["2"]["factor"] == digests["1"]["factor"]
    assert digests["2"]["draws"] == digests["1"]["draws"]


def test_initial_law_variants():
    with pytest.raises(ConfigError):
        InitialLaw.normal(0.0, -1.0)
    with pytest.raises(ConfigError):
        InitialLaw.empirical([])


def test_simulate_is_reproducible():
    pl = plan(FAMILY)
    a = simulate(pl, P, InitialLaw.dirac(0.7), 64, RngSeed(3))
    b = simulate(pl, P, InitialLaw.dirac(0.7), 64, RngSeed(3))
    np.testing.assert_array_equal(a.values, b.values)
    c = simulate(pl, P, InitialLaw.dirac(0.7), 64, RngSeed(4))
    assert not np.array_equal(a.values, c.values)


def test_simulate_returns_the_transitions_it_used():
    pl = plan(FAMILY)
    path = simulate(pl, P, InitialLaw.dirac(0.7), 10, RngSeed(4))
    assert path.transitions == tuple(transition_params(P, step.increment) for step in pl.steps)
    exact = simulate_exact(pl, P, InitialLaw.dirac(0.7), 10, RngSeed(4))
    assert exact.transitions == ()


def test_simulate_dirac_start_pins_origin():
    pl = plan(FAMILY)
    path = simulate(pl, P, InitialLaw.dirac(0.7), 100, RngSeed(8))
    assert np.unique(path.values[:, 0]).tolist() == [0.7]


def test_zero_variance_normal_matches_dirac():
    pl = plan(FAMILY)
    a = simulate(pl, P, InitialLaw.dirac(0.7), 32, RngSeed(11))
    b = simulate(pl, P, InitialLaw.normal(0.7, 0.0), 32, RngSeed(11))
    np.testing.assert_array_equal(a.values, b.values)


def test_simulate_matches_dirac_moments():
    pl = plan(FAMILY)
    n = 60_000
    path = simulate(pl, P, InitialLaw.dirac(0.7), n, RngSeed(21))
    mean = path.empirical_mean()
    cov = path.empirical_cov()
    for i, u in enumerate(pl.corners):
        want = mean_dirac(P, 0.7, u)
        se = math.sqrt(max(cov_dirac(P, u, u), 1e-30) / n)
        assert abs(mean[i] - want) <= 5 * se + 1e-9
        for j, v in enumerate(pl.corners):
            cw = cov_dirac(P, u, v)
            se_c = math.sqrt((cov_dirac(P, u, u) * cov_dirac(P, v, v) + cw * cw) / n)
            assert abs(cov[i, j] - cw) <= 5 * se_c + 1e-9


def test_simulate_matches_stationary_moments():
    pl = plan(FAMILY)
    n = 60_000
    initial = InitialLaw.normal(0.0, P.stationary_variance)
    path = simulate(pl, P, initial, n, RngSeed(22))
    cov = path.empirical_cov()
    for i, u in enumerate(pl.corners):
        for j, v in enumerate(pl.corners):
            cw = cov_stationary(P, u, v)
            se_c = math.sqrt((cov_stationary(P, u, u) * cov_stationary(P, v, v) + cw * cw) / n)
            assert abs(cov[i, j] - cw) <= 5 * se_c


def test_simulate_agrees_with_exact_sampler():
    pl = plan(FAMILY)
    n = 60_000
    a = simulate(pl, P, InitialLaw.dirac(0.7), n, RngSeed(31))
    b = simulate_exact(pl, P, InitialLaw.dirac(0.7), n, RngSeed(32))
    root2 = math.sqrt(2.0)
    for i, u in enumerate(pl.corners):
        se = root2 * math.sqrt(max(cov_dirac(P, u, u), 1e-30) / n)
        assert abs(a.values[:, i].mean() - b.values[:, i].mean()) <= 5 * se + 1e-9


def test_order_independence_of_the_sampled_law():
    # different linear extensions sample the same joint law
    n = 60_000
    a = simulate(plan(FAMILY, tiebreak="lex"), P, InitialLaw.dirac(0.4), n, RngSeed(41))
    b = simulate(plan(FAMILY, tiebreak="revlex"), P, InitialLaw.dirac(0.4), n, RngSeed(42))
    order_a = [c.coords for c in a.corners]
    order_b = [c.coords for c in b.corners]
    assert set(order_a) == set(order_b)
    perm = [order_b.index(c) for c in order_a]
    cov_a = a.empirical_cov()
    cov_b = b.empirical_cov()[np.ix_(perm, perm)]
    var = np.diag(cov_a)
    se = np.sqrt((np.outer(var, var) + cov_a**2) / n)
    assert np.all(np.abs(cov_a - cov_b) <= 2 * 5 * se + 1e-9)


def test_empirical_initial_propagates_mixture():
    vals = [0.0, 10.0]
    pl = plan([Corner((1.0,))])
    n = 40_000
    path = simulate(pl, P, InitialLaw.empirical(vals), n, RngSeed(55))
    col0 = path.values[:, 0]
    assert set(np.unique(col0)) == {0.0, 10.0}
    # value at t=1 decays the drawn start: mean is mixture mean * e^{-1}
    want = np.mean(vals) * math.exp(-1.0)
    sd = math.sqrt(P.stationary_variance + (np.var(vals)) * math.exp(-2.0))
    assert abs(path.values[:, 1].mean() - want) <= 5 * sd / math.sqrt(n)


def _third_moments(values):
    """Each column's third central moment and its standard error (delta method)."""
    c = values - values.mean(axis=0)
    influence = c**3 - 3 * (c**2).mean(axis=0) * c
    return (c**3).mean(axis=0), influence.std(axis=0) / math.sqrt(len(values))


def test_both_samplers_decay_a_skewed_empirical_start_onto_the_point_started_field():
    # X_U = e^{-lambda m(U)} X_0 + Z_U with Z the field started at 0, independent of X_0.
    skewed = [-1.0, 0.0, 0.0, 0.0, 4.0]
    pl = plan(FAMILY)
    n = 100_000
    decay = mean_vector(P, pl.corners, 1.0)
    theory = theory_dirac(P, pl.corners, 0.0)
    paths = [simulate(pl, P, InitialLaw.empirical(skewed), n, RngSeed(81)),
             simulate_exact(pl, P, InitialLaw.empirical(skewed), n, RngSeed(82))]
    residuals = []
    for path in paths:
        x0 = path.values[:, 0]
        assert set(np.unique(x0)) == set(skewed)
        residual = path.values - np.outer(x0, decay)
        report = check_mc_moments(residual, theory)
        assert report.passed, report.details
        live = residual[:, np.diag(theory.cov) > 0]
        for start in (x0, x0**2):
            corr = (start - start.mean()) @ (live - live.mean(axis=0)) / (n * start.std() * live.std(axis=0))
            assert np.all(np.abs(corr) <= 5 / math.sqrt(n)), corr
        residuals.append(residual)
    report = check_mc_agreement(*residuals, theory)
    assert report.passed, report.details
    # The origin's skew reaches every corner as e^{-3 lambda m} times its third central moment.
    want = np.mean((np.array(skewed) - np.mean(skewed)) ** 3) * decay**3
    (ma, sa), (mb, sb) = (_third_moments(path.values) for path in paths)
    assert np.all(np.abs(ma - want) <= 5 * sa), (ma, want)
    assert np.all(np.abs(ma - mb) <= 5 * np.hypot(sa, sb)), (ma, mb)


def test_simulate_exact_from_a_normal_start_has_the_closed_form_law():
    pl = plan(FAMILY)
    path = simulate_exact(pl, P, InitialLaw.normal(0.3, 0.4), 100_000, RngSeed(83))
    theory = GaussianSpec(mean_vector(P, pl.corners, 0.3), cov_matrix(P, pl.corners, v0=0.4))
    report = check_mc_moments(path, theory)
    assert report.passed, report.details


def test_simulate_exact_from_raw_corners_matches_plan_layout():
    a = simulate_exact(FAMILY, P, InitialLaw.dirac(0.7), 16, RngSeed(9))
    pl = plan(FAMILY)
    assert [c.coords for c in a.corners] == [c.coords for c in pl.corners]
    np.testing.assert_array_equal(a.values[:, 0], np.full(16, 0.7))


def test_refinement_keeps_marginals():
    # adding corners to the family must not change the law at shared corners
    n = 60_000
    small = [Corner((1.0,)), Corner((2.0,))]
    big = small + [Corner((0.5,)), Corner((1.5,))]
    pa = simulate(plan(small), P, InitialLaw.dirac(0.9), n, RngSeed(61))
    pb = simulate(plan(big), P, InitialLaw.dirac(0.9), n, RngSeed(62))
    ia = [c.coords for c in pa.corners].index((2.0,))
    ib = [c.coords for c in pb.corners].index((2.0,))
    va = cov_dirac(P, Corner((2.0,)), Corner((2.0,)))
    se = math.sqrt(2.0) * math.sqrt(va / n)
    assert abs(pa.values[:, ia].mean() - pb.values[:, ib].mean()) <= 5 * se
    se_v = math.sqrt(2.0) * math.sqrt(2.0 * va * va / n)
    assert abs(pa.values[:, ia].var() - pb.values[:, ib].var()) <= 5 * se_v


def test_replicate_validation():
    pl = plan(FAMILY)
    with pytest.raises(ConfigError):
        simulate(pl, P, InitialLaw.dirac(0.0), 0, RngSeed(1))
    with pytest.raises(ConfigError):
        simulate_exact(pl, P, InitialLaw.dirac(0.0), 0, RngSeed(1))


def test_dimension_mismatch_rejected():
    pl = plan(FAMILY)
    axis3 = KernelParams(1.0, 1.0, MeasureSpec.axis((1.0, 1.0, 1.0)))
    with pytest.raises(Exception):
        simulate(pl, axis3, InitialLaw.dirac(0.0), 4, RngSeed(1))
