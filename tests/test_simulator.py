"""Sequential Markov sampler, exact joint sampler, and the step planner."""

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siou.errors import ConfigError, InternalConsistencyError, PlanningError
from siou.gaussian import SAMPLE_BLOCK_ROWS, RngSeed
from siou.geometry import GEOM_ATOL, Corner, Increment, canonicalize, frontier, min_closure
from siou.kernel import KernelParams, cov_dirac, cov_matrix, cov_stationary, mean_dirac, transition_params
from siou.measures import MeasureSpec
from siou.simulator import InitialLaw, plan, simulate, simulate_exact
from siou.verify import schur_gap


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
    """Quarter-grid families in dimensions 1-4; some coordinates moved by less than GEOM_ATOL."""
    dim = draw(st.integers(1, 4))
    k = draw(st.integers(1, 8 if dim <= 2 else 5))
    quarters = draw(st.lists(st.tuples(*[st.integers(1, 6)] * dim), min_size=k, max_size=k))
    shifts = st.sampled_from((0.0, 0.0, 3e-13, -4e-13, 9e-13))
    return [Corner(tuple(0.25 * q + draw(shifts) for q in c)) for c in quarters]


@settings(max_examples=150, deadline=None)
@given(near_families(), st.sampled_from(["lex", "revlex"]))
def test_plan_steps_match_canonicalized_meets(corners, tiebreak):
    try:
        want = _reference_plan_json(corners, tiebreak)
    except InternalConsistencyError:
        # A net of +-2 in dimensions 3-4: the plan refuses it the same way.
        with pytest.raises(InternalConsistencyError):
            plan(corners, tiebreak=tiebreak)
        return
    assert json.dumps(plan(corners, tiebreak=tiebreak).to_json()) == json.dumps(want)


def _plan_digest(corners, tiebreak):
    return hashlib.sha256(json.dumps(plan(corners, tiebreak=tiebreak).to_json()).encode()).hexdigest()


GRID_12 = [Corner((0.25 * i, 0.25 * j)) for i in range(1, 13) for j in range(1, 13)]


@pytest.mark.parametrize("corners, tiebreak, digest", [
    (GRID_12, "lex", "a7b04686370c93a789a41573d36ff58e589efd3a7849648209a1aa9a83167c15"),
    (GRID_12, "revlex", "fb69e016e25f90ce203da70090d4bb6cbf4fd5d1d51b7e5c70b511b0943ab1e6"),
    (FAMILY, "lex", "e88d494921bcc26c76b260c453a51e837ae594f82b1cf2f8e24f83a7d434cd18"),
    (FAMILY, "revlex", "818f5d1f4240284410066587700f55df823466116f9b14b9fc35213aea72048d"),
])
def test_plan_json_bytes_are_pinned(corners, tiebreak, digest):
    assert _plan_digest(corners, tiebreak) == digest


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


def _antichain_and_top(m):
    """A 2-D antichain of m corners plus a corner above them all, whose step has 2m - 1 parents."""
    anti = [Corner((0.25 * i, 0.25 * (m + 1 - i))) for i in range(1, m + 1)]
    return anti + [Corner((0.25 * (m + 1), 0.25 * (m + 1)))]


def _one_shot(pl, params, initial, replicates, seed):
    """The sampler without blocks: each column drawn as one ``mean + sqrt(var) * standard_normal(R)``."""
    gen = seed.generator()
    values = np.empty((replicates, len(pl.corners)))
    values[:, 0] = initial.draw(gen, replicates)
    for step in pl.steps:
        tp = transition_params(params, step.increment)
        mean = values[:, list(step.parents)] @ np.array([wt for _, wt in tp.weights])
        values[:, step.index] = mean + math.sqrt(tp.variance) * gen.standard_normal(replicates)
    return values


STARTS = [InitialLaw.dirac(0.7), InitialLaw.normal(0.3, 0.4), InitialLaw.empirical([0.0, 1.0, 3.5])]


@pytest.mark.parametrize("family", [FAMILY, _antichain_and_top(12)], ids=["readme", "antichain12_top"])
@pytest.mark.parametrize("initial", STARTS, ids=lambda law: law.kind)
@pytest.mark.parametrize("replicates", [1, SAMPLE_BLOCK_ROWS - 1, SAMPLE_BLOCK_ROWS, SAMPLE_BLOCK_ROWS + 1,
                                        SAMPLE_BLOCK_ROWS + 3, 20_000])
def test_simulate_matches_the_one_shot_sampler(family, initial, replicates):
    # A plain per-block product moves one value of the top column at 4,099 normal replicates.
    pl = plan(family)
    path = simulate(pl, P, initial, replicates, RngSeed(17))
    assert path.values.flags.c_contiguous
    np.testing.assert_array_equal(path.values, _one_shot(pl, P, initial, replicates, RngSeed(17)))


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


def test_initial_law_variants():
    d = InitialLaw.dirac(0.7)
    n = InitialLaw.normal(0.0, 2.0)
    e = InitialLaw.empirical([1.0, 2.0, 3.0])
    assert d.is_gaussian and n.is_gaussian and not e.is_gaussian
    assert d.mean == 0.7 and d.variance == 0.0
    assert n.variance == 2.0
    with pytest.raises(ConfigError):
        _ = e.mean
    with pytest.raises(ConfigError):
        InitialLaw.normal(0.0, -1.0)
    with pytest.raises(ConfigError):
        InitialLaw.empirical([])


def test_initial_law_json_round_trip():
    for law in (InitialLaw.dirac(0.5), InitialLaw.normal(1.0, 2.0), InitialLaw.empirical([1.0, 4.0])):
        assert InitialLaw.from_json(law.to_json()) == law


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


def test_simulate_exact_rejects_empirical():
    with pytest.raises(ConfigError):
        simulate_exact(FAMILY, P, InitialLaw.empirical([1.0]), 10, RngSeed(1))


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
