"""Covariance formulas and the frontier transition kernel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siou import geometry
from siou.errors import DegenerateKernelError, InvalidGeometryError, SiouError
from siou.gaussian import RngSeed
from siou.geometry import Corner, Increment, canonicalize
from siou.kernel import (
    KernelParams,
    cov_dirac,
    cov_matrix,
    cov_stationary,
    mean_dirac,
    mean_vector,
    transition_density,
    transition_params,
)
from siou.measures import MeasureSpec, measure_gap, measure_rect, measure_rows, measure_symdiff, measure_symdiffs
from siou.sheet import GridSpec, batch_paths
from siou.simulator import InitialLaw, plan, simulate, simulate_exact
from siou.verify import theory_dirac, theory_stationary


LEB = MeasureSpec.lebesgue()
P = KernelParams(1.0, math.sqrt(2.0), LEB)
FAMILY_2D = [(0.5, 0.5), (1.0, 2.0), (2.0, 1.0), (2.0, 2.0)]


def union_of(*tuples):
    return canonicalize([Corner(tuple(float(x) for x in t)) for t in tuples])


def random_increment(rng, dim):
    a = Corner(tuple(0.25 * rng.integers(4, 13, size=dim)))
    k = int(rng.integers(0, 6))
    bs = [Corner(tuple(0.25 * rng.integers(1, round(c / 0.25) + 1) for c in a.coords)) for _ in range(k)]
    return Increment(a, canonicalize(bs))


def test_params_validation():
    with pytest.raises(InvalidGeometryError):
        KernelParams(0.0, 1.0, LEB)
    with pytest.raises(InvalidGeometryError):
        KernelParams(1.0, -1.0, LEB)
    assert KernelParams(2.0, 2.0, LEB).stationary_variance == 1.0
    # s = sigma^2 / (2 lambda) must be finite and positive too.
    for lam, sigma in [(1e-310, 1.0), (1.0, 1e200), (1.0, 1e-200), (1e300, 1e-20)]:
        with pytest.raises(InvalidGeometryError, match=r"lambda .* and sigma .* give the scale s = "):
            KernelParams(lam, sigma, LEB)


def test_params_store_python_floats_and_reject_bools():
    # numpy scalars are stored as floats, so an overflowing scale raises without a numpy warning.
    params = KernelParams(np.float64(0.5), np.float32(2.0), LEB)
    assert type(params.lam) is float and type(params.sigma) is float
    assert params == KernelParams(0.5, 2.0, LEB)
    with pytest.raises(InvalidGeometryError, match="give the scale s = "):
        KernelParams(np.float64(1.0), np.float64(1e200), LEB)
    for bad in [(True, 1.0), (1.0, np.True_), ("1.0", 1.0), (1.0, None)]:
        with pytest.raises(InvalidGeometryError, match="must be a real number"):
            KernelParams(*bad, LEB)


@pytest.mark.parametrize("measure", [LEB, MeasureSpec.axis((1.0, 2.0))], ids=["lebesgue", "axis"])
def test_an_empty_corner_list_is_a_geometry_error_under_both_measures(measure):
    params = KernelParams(1.0, math.sqrt(2.0), measure)
    calls = [lambda: measure_rows(measure, []), lambda: cov_matrix(params, []), lambda: cov_matrix(params, [], v0=0.0),
             lambda: mean_vector(params, [], 0.7), lambda: theory_stationary(params, []),
             lambda: theory_dirac(params, [], 0.7)]
    for call in calls:
        with pytest.raises(InvalidGeometryError, match="empty corner list"):
            call()


FAMILIES = {1: [(0.5,), (1.0,), (2.0,)], 2: FAMILY_2D, 3: [(0.5, 0.5, 0.5), (1.0, 2.0, 1.0), (2.0, 1.0, 1.5), (2.0, 2.0, 2.0)]}


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.floats(-300.0, 300.0), st.floats(-300.0, 300.0), st.sampled_from(sorted(FAMILIES)), st.booleans())
def test_any_kernel_scale_gives_finite_values_or_a_siou_error(log_lam, log_sigma, dim, axis):
    # lambda and sigma log-uniform over [1e-300, 1e300], both measure kinds,
    # families in dimensions 1-3; the sheet takes the same sigma.
    family, alpha = FAMILIES[dim], (1.0, 0.5, 2.0)[:dim]
    grid = GridSpec((-1.0,) * dim, (2.0,) * dim, (3,) * dim)
    calls = {
        "batch_paths": lambda: [batch_paths(grid, alpha, 10.0**log_sigma, family, 8, RngSeed(3), y0=0.7,
                                            stationary=stationary) for stationary in (False, True)],
    }
    try:
        params = KernelParams(10.0**log_lam, 10.0**log_sigma, MeasureSpec.axis(alpha) if axis else LEB)
    except SiouError:
        params = None
    if params is not None:
        pl = plan(family)
        starts = (InitialLaw.dirac(0.7), InitialLaw.normal(0.0, params.stationary_variance))
        calls |= {
            "cov_matrix": lambda: [cov_matrix(params, family), cov_matrix(params, family, v0=0.0)],
            "transition_params": lambda: [[w for _, w in tp.weights] + [tp.variance]
                                          for tp in (transition_params(params, step.increment) for step in pl.steps)],
            "simulate": lambda: [simulate(pl, params, initial, 8, RngSeed(3)).values for initial in starts],
            "simulate_exact": lambda: [simulate_exact(pl, params, initial, 8, RngSeed(3)).values for initial in starts],
        }
    for name, call in calls.items():
        try:
            values = call()
        except SiouError:
            continue
        assert all(np.all(np.isfinite(v)) for v in values), name


def test_stationary_covariance_values():
    assert cov_stationary(P, Corner((1.0,)), Corner((2.0,))) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert cov_stationary(P, Corner((1.0, 2.0)), Corner((2.0, 1.0))) == pytest.approx(math.exp(-2.0), rel=1e-15)
    assert cov_stationary(P, Corner((3.0, 3.0)), Corner((3.0, 3.0))) == pytest.approx(1.0, rel=1e-15)


def test_dirac_mean_and_covariance_values():
    assert mean_dirac(P, 0.7, Corner((1.0, 1.0))) == pytest.approx(0.7 * math.exp(-1.0), rel=1e-15)
    got = cov_dirac(P, Corner((1.0,)), Corner((2.0,)))
    assert got == pytest.approx(math.exp(-1.0) - math.exp(-3.0), rel=1e-14)
    # starting from a point leaves zero variance at the origin rectangle
    assert cov_dirac(P, Corner((0.0,)), Corner((0.0,))) == 0.0


def test_dirac_covariance_converges_to_stationary():
    u, v = Corner((8.0, 9.0)), Corner((9.0, 8.0))
    assert cov_dirac(P, u, v) == pytest.approx(cov_stationary(P, u, v), abs=1e-12)


def test_transition_two_corner_example():
    inc = Increment(Corner((2.0, 2.0)), union_of((1, 2), (2, 1)))
    tp = transition_params(P, inc)
    got = {c.coords: w for c, w in tp.weights}
    assert got[(1.0, 2.0)] == pytest.approx(math.exp(-2.0), rel=1e-14)
    assert got[(2.0, 1.0)] == pytest.approx(math.exp(-2.0), rel=1e-14)
    assert got[(1.0, 1.0)] == pytest.approx(-math.exp(-3.0), rel=1e-14)
    assert tp.variance == pytest.approx(1.0 - 2.0 * math.exp(-4.0) + math.exp(-6.0), rel=1e-14)


def test_transition_one_dim_classical_form():
    lam, sigma = 0.8, 1.3
    params = KernelParams(lam, sigma, LEB)
    s, t = 0.6, 1.9
    tp = transition_params(params, Increment(Corner((t,)), union_of((s,))))
    (corner, w), = tp.weights
    assert corner.coords == (s,)
    assert w == pytest.approx(math.exp(-lam * (t - s)), rel=1e-14)
    sv = sigma**2 / (2 * lam)
    assert tp.variance == pytest.approx(sv * (1 - math.exp(-2 * lam * (t - s))), rel=1e-13)


def test_transition_empty_history_conditions_on_origin():
    tp = transition_params(P, Increment(Corner((1.0, 2.0)), canonicalize([])))
    (corner, w), = tp.weights
    assert corner.coords == (0.0, 0.0)
    assert w == pytest.approx(math.exp(-2.0), rel=1e-14)
    assert tp.variance == pytest.approx(1.0 - math.exp(-4.0), rel=1e-14)


def test_transition_zero_measure_increment_is_degenerate():
    # conditioning corner already covers a: zero elapsed measure, zero variance
    tp = transition_params(P, Increment(Corner((2.0, 2.0)), union_of((2, 2))))
    assert tp.variance == 0.0
    assert tp.conditional_mean([1.3]) == pytest.approx(1.3, rel=1e-15)
    with pytest.raises(DegenerateKernelError):
        transition_density(tp, [1.3], 1.3)


def test_transition_matches_gaussian_conditioning():
    # Independent oracle: regression of X_a on the frontier values computed
    # by plain linear algebra from the stationary covariance.
    rng = np.random.default_rng(77)
    for trial in range(60):
        dim = int(rng.integers(1, 4))
        lam = float(rng.uniform(0.4, 2.2))
        sigma = float(rng.uniform(0.6, 1.8))
        measure = LEB if rng.integers(2) else MeasureSpec.axis(tuple(rng.uniform(0.4, 2.0, size=dim)))
        params = KernelParams(lam, sigma, measure)
        inc = random_increment(rng, dim)
        tp = transition_params(params, inc)
        corners = [inc.a] + [c for c, _ in tp.weights]
        n = len(corners)
        gram = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                gram[i, j] = cov_stationary(params, corners[i], corners[j])
        kvec = np.linalg.solve(gram[1:, 1:], gram[1:, 0])
        resid = gram[0, 0] - gram[0, 1:] @ kvec
        np.testing.assert_allclose([w for _, w in tp.weights], kvec, atol=1e-8)
        assert tp.variance == pytest.approx(resid, abs=1e-8)


def test_transition_variance_within_bounds():
    rng = np.random.default_rng(88)
    for _ in range(80):
        dim = int(rng.integers(1, 4))
        inc = random_increment(rng, dim)
        tp = transition_params(P, inc)
        assert 0.0 <= tp.variance <= P.stationary_variance + 1e-12


def test_gram_matrices_positive_semidefinite():
    rng = np.random.default_rng(17)
    for _ in range(50):
        dim = int(rng.integers(1, 4))
        measure = LEB if rng.integers(2) else MeasureSpec.axis(tuple(rng.uniform(0.4, 2.0, size=dim)))
        params = KernelParams(float(rng.uniform(0.4, 2.2)), float(rng.uniform(0.6, 1.8)), measure)
        pts = [Corner(tuple(0.25 * rng.integers(0, 13, size=dim))) for _ in range(int(rng.integers(2, 13)))]
        n = len(pts)
        gram = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                gram[i, j] = cov_stationary(params, pts[i], pts[j])
        eigs = np.linalg.eigvalsh(gram)
        assert eigs[0] >= -1e-10 * np.trace(gram)


def test_density_is_normal_pdf_and_integrates_to_one():
    inc = Increment(Corner((2.0, 2.0)), union_of((1, 2), (2, 1)))
    tp = transition_params(P, inc)
    x = [0.4, -0.2, 0.9]
    mean = tp.conditional_mean(x)
    ys = np.linspace(mean - 10 * math.sqrt(tp.variance), mean + 10 * math.sqrt(tp.variance), 4001)
    dens = np.array([transition_density(tp, x, float(y)) for y in ys])
    assert float(np.trapezoid(dens, ys)) == pytest.approx(1.0, abs=1e-6)
    direct = math.exp(-((0.9 - mean) ** 2) / (2 * tp.variance)) / math.sqrt(2 * math.pi * tp.variance)
    assert transition_density(tp, x, 0.9) == pytest.approx(direct, rel=1e-14)


def test_conditional_mean_checks_arity():
    tp = transition_params(P, Increment(Corner((2.0, 2.0)), union_of((1, 2), (2, 1))))
    with pytest.raises(ValueError):
        tp.conditional_mean([1.0])


def test_exponent_gaps_never_overflow():
    big = KernelParams(2.0, 1.0, LEB)
    inc = Increment(Corner((400.0, 400.0)), union_of((399.0, 400.0), (400.0, 399.0)))
    tp = transition_params(big, inc)
    assert all(math.isfinite(w) for _, w in tp.weights)
    assert math.isfinite(tp.variance)
    assert tp.variance > 0


def test_small_gap_variance_keeps_its_relative_precision():
    # 1 - exp(-2 lambda g) loses about 1e-7 of its value to cancellation at g = 1e-9; expm1 keeps it.
    lam, sigma = 0.8, 1.3
    params = KernelParams(lam, sigma, LEB)
    gap = (1.0 + 1e-9) - 1.0
    tp = transition_params(params, Increment(Corner((1.0 + 1e-9,)), union_of((1.0,))))
    want = -params.stationary_variance * math.expm1(-2.0 * lam * gap)
    assert abs(tp.variance - want) <= 1e-15 * want
    assert tp.weights[0][1] == math.exp(-lam * gap)


def test_small_gap_is_the_telescoped_difference():
    # m(a) - m(f) by subtraction of the two products is off by about 7e-8 of the gap here.
    a, f = Corner((0.3, 0.7 + 1e-9)), Corner((0.3, 0.7))
    gap = 0.3 * ((0.7 + 1e-9) - 0.7)
    assert measure_gap(LEB, a, f) == gap
    tp = transition_params(P, Increment(a, canonicalize([f])))
    want = -P.stationary_variance * math.expm1(-2.0 * P.lam * gap)
    assert abs(tp.variance - want) <= 1e-15 * want
    assert tp.weights[0][1] == math.exp(-P.lam * gap)


def test_nets_of_two_transition_like_conditioning():
    # The four-corner family's top step conditions on (0.25, 0.25, 0.25) with net -2.
    inc = Increment(Corner((0.5, 0.5, 0.5)),
                    union_of((0.25, 0.25, 0.5), (0.25, 0.5, 0.25), (0.5, 0.25, 0.25)))
    for measure in (LEB, MeasureSpec.axis((1.0, 0.5, 2.0))):
        params = KernelParams(0.8, 1.3, measure)
        tp = transition_params(params, inc)
        (low, w_low), *_ = tp.weights
        assert low.coords == (0.25, 0.25, 0.25)
        assert w_low == -2.0 * math.exp(-0.8 * measure_gap(measure, inc.a, low))
        corners = [inc.a] + [c for c, _ in tp.weights]
        gram = cov_matrix(params, corners)
        kvec = np.linalg.solve(gram[1:, 1:], gram[1:, 0])
        np.testing.assert_allclose([w for _, w in tp.weights], kvec, rtol=0, atol=1e-13)
        assert tp.variance == pytest.approx(gram[0, 0] - gram[0, 1:] @ kvec, rel=0, abs=1e-13)


def test_symdiff_drives_stationary_covariance():
    rng = np.random.default_rng(3)
    for _ in range(40):
        dim = int(rng.integers(1, 4))
        u = Corner(tuple(0.25 * rng.integers(0, 13, size=dim)))
        v = Corner(tuple(0.25 * rng.integers(0, 13, size=dim)))
        expected = P.stationary_variance * math.exp(-P.lam * measure_symdiff(LEB, u, v))
        assert cov_stationary(P, u, v) == pytest.approx(expected, rel=1e-15)


@st.composite
def kernel_families(draw):
    """Kernel parameters, two corner lists of one dimension (1-4), an origin variance and mean."""
    dim = draw(st.integers(1, 4))
    coord = st.floats(0.0, 4.0, allow_nan=False, allow_infinity=False)
    corner = st.tuples(*[coord] * dim).map(Corner)
    if draw(st.booleans()):
        measure = LEB
    else:
        measure = MeasureSpec.axis(draw(st.tuples(*[st.floats(0.25, 4.0)] * dim)))
    params = KernelParams(draw(st.floats(0.1, 3.0)), draw(st.floats(0.3, 2.0)), measure)
    A = draw(st.lists(corner, min_size=1, max_size=6))
    B = draw(st.lists(corner, min_size=1, max_size=6))
    v0 = draw(st.sampled_from([None, 0.0, draw(st.floats(0.01, 3.0))]))
    return params, A, B, v0, draw(st.floats(-3.0, 3.0))


@settings(max_examples=300, deadline=None)
@given(kernel_families())
def test_cov_matrix_and_mean_vector_match_the_scalar_formulas(case):
    params, A, B, v0, mu0 = case
    m, lam, s = params.measure, params.lam, params.stationary_variance
    # The array measures are the scalar ones, bit for bit.
    assert list(measure_rows(m, A)) == [measure_rect(m, u) for u in A]
    assert measure_symdiffs(m, A, B).tolist() == [[measure_symdiff(m, u, v) for v in B] for u in A]
    got = cov_matrix(params, A, B, v0=v0)
    assert got.shape == (len(A), len(B))
    for i, u in enumerate(A):
        for j, v in enumerate(B):
            want = s * math.exp(-lam * measure_symdiff(m, u, v))
            if v0 is not None:
                want += (v0 - s) * math.exp(-lam * (measure_rect(m, u) + measure_rect(m, v)))
            assert abs(got[i, j] - want) <= 1e-15 * max(s, abs(v0 or 0.0))
    means = mean_vector(params, A, mu0)
    for u, got_mean in zip(A, means):
        assert abs(got_mean - mu0 * math.exp(-lam * measure_rect(m, u))) <= 1e-15 * abs(mu0)
    # B defaults to A, and the Gram is exactly symmetric.
    gram = cov_matrix(params, A, v0=v0)
    assert np.array_equal(gram, gram.T)
    assert np.array_equal(gram, cov_matrix(params, A, A, v0=v0))


def test_cov_matrix_rejects_mixed_dimensions():
    with pytest.raises(InvalidGeometryError):
        cov_matrix(P, [Corner((1.0,))], [Corner((1.0, 2.0))])
    with pytest.raises(InvalidGeometryError):
        cov_matrix(P, [Corner((1.0,)), Corner((1.0, 2.0))])


def test_cov_matrix_converts_each_corner_list_once(monkeypatch):
    # The 145-corner plan of the 12 x 12 quarter grid. A Corner list reaches rows through
    # geometry._checked; a B that is A, or left out, is not converted again.
    corners = plan([Corner((0.25 * i, 0.25 * j)) for i in range(1, 13) for j in range(1, 13)]).corners
    rows = np.array([c.coords for c in corners])
    calls = []
    checked = geometry._checked
    monkeypatch.setattr(geometry, "_checked", lambda cs: calls.append(cs) or checked(cs))
    for v0 in (None, 0.0, 0.5):
        for B, conversions in ((None, 1), (corners, 1), (list(corners), 2)):
            calls.clear()
            got = cov_matrix(P, corners, B, v0=v0)
            assert len(calls) == conversions
            assert got.tobytes() == cov_matrix(P, rows, None if B is None else rows, v0=v0).tobytes()
