"""Grid white noise, sheet-driven OU integrals, and the matched kernel."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siou.errors import ConfigError, InvalidGridError, OutOfRangeError
from siou.gaussian import SAMPLE_BLOCK_ROWS, RngSeed, factorize
from siou.geometry import GEOM_ATOL, Corner
from siou.kernel import cov_stationary
from siou.measures import MeasureSpec
from siou import sheet
from siou.sheet import (
    GridSpec,
    SheetField,
    _cell_weights,
    batch_paths,
    equivalent_kernel_params,
    integrate_mpou,
    integrate_stationary,
    sheet_increments,
    truncation_bound,
)


GRID_1D = GridSpec((-8.0,), (1.0,), (180,))
GRID_2D = GridSpec((-3.0, -3.0), (1.0, 1.0), (40, 40))


def test_grid_validation():
    with pytest.raises(InvalidGridError):
        GridSpec((), (), ())
    with pytest.raises(InvalidGridError):
        GridSpec((-1.0,), (1.0, 1.0), (4, 4))
    with pytest.raises(InvalidGridError):
        GridSpec((0.5,), (1.0,), (4,))  # lower must not be positive
    with pytest.raises(InvalidGridError):
        GridSpec((-1.0,), (0.0,), (4,))  # upper must be positive
    with pytest.raises(InvalidGridError):
        GridSpec((-1.0,), (1.0,), (0,))
    with pytest.raises(InvalidGridError):
        GridSpec((-math.inf,), (1.0,), (4,))


def test_grid_cell_counts_must_be_integers():
    for bad in (10.7, True, np.True_, "10", None):
        with pytest.raises(InvalidGridError, match="cell counts must be integers"):
            GridSpec((-1.0,), (1.0,), (bad,))
    for good in (10, 10.0, np.int64(10), np.float32(10.0)):
        spec = GridSpec((-1.0,), (1.0,), (good,))
        assert spec == GridSpec((-1.0,), (1.0,), (10,)) and type(spec.steps[0]) is int


def test_grid_geometry_properties():
    g = GridSpec((-2.0, -1.0), (2.0, 1.0), (8, 4))
    assert g.dim == 2
    assert g.cell_widths == (0.5, 0.5)
    assert g.cell_volume == 0.25
    assert g.ncells == 32


def test_increments_shape_scale_and_reproducibility():
    f = sheet_increments(GRID_2D, RngSeed(5))
    assert f.increments.shape == (40, 40)
    # per-cell variance is the cell volume
    vol = GRID_2D.cell_volume
    sample_var = float(f.increments.var())
    assert abs(sample_var - vol) <= 5 * vol * math.sqrt(2.0 / f.increments.size)
    again = sheet_increments(GRID_2D, RngSeed(5))
    np.testing.assert_array_equal(f.increments, again.increments)


def test_mpou_at_origin_is_the_start_value():
    f = sheet_increments(GRID_2D, RngSeed(6))
    assert integrate_mpou(f, (1.0, 1.0), 1.0, 0.7, Corner((0.0, 0.0))) == 0.7


def test_point_validation():
    f = sheet_increments(GRID_1D, RngSeed(6))
    with pytest.raises(OutOfRangeError):
        integrate_stationary(f, (1.0,), 1.0, Corner((1.5,)))
    with pytest.raises(OutOfRangeError):
        integrate_mpou(f, (1.0,), 1.0, 0.0, Corner((0.5, 0.5)))
    with pytest.raises(InvalidGridError):
        integrate_stationary(f, (1.0, 1.0), 1.0, Corner((0.5,)))
    with pytest.raises(InvalidGridError):
        integrate_stationary(f, (-1.0,), 1.0, Corner((0.5,)))
    # a point at the upper corner is inside the grid, and any point beyond it is not
    integrate_stationary(f, (1.0,), 1.0, Corner((1.0,)))
    with pytest.raises(OutOfRangeError):
        integrate_stationary(f, (1.0,), 1.0, Corner((1.0 + 0.5 * GEOM_ATOL,)))


def test_integrals_accept_bare_tuples():
    f = sheet_increments(GRID_1D, RngSeed(7))
    a = integrate_stationary(f, (1.0,), 1.0, Corner((0.5,)))
    b = integrate_stationary(f, (1.0,), 1.0, (0.5,))
    assert a == b


def test_stationary_integral_matches_discrete_weights():
    # the integral is a linear functional of the increments; recompute it
    # from first principles for one realization
    f = sheet_increments(GRID_1D, RngSeed(8))
    alpha, sigma, t = 1.3, 0.9, 0.75
    lo, up, s = GRID_1D.lower[0], GRID_1D.upper[0], GRID_1D.steps[0]
    w = (up - lo) / s
    total = 0.0
    for i in range(s):
        u = lo + (i + 0.5) * w
        if u <= t:
            total += math.exp(alpha * (u - t)) * f.increments[i]
    want = sigma * total
    got = integrate_stationary(f, (alpha,), sigma, Corner((t,)))
    assert abs(got - want) <= 1e-12


def test_truncation_bound_values_and_validation():
    assert abs(truncation_bound((1.0, 1.0), 5.0) - math.exp(-10.0)) < 1e-18
    assert abs(truncation_bound((2.0, 0.5), 4.0) - math.exp(-4.0)) < 1e-18
    with pytest.raises(InvalidGridError):
        truncation_bound((0.0,), 1.0)
    with pytest.raises(InvalidGridError):
        truncation_bound((1.0,), -1.0)


def test_equivalent_kernel_params_closed_form():
    p = equivalent_kernel_params((1.0, 2.0), 1.0)
    assert p.lam == 1.0
    assert abs(p.sigma**2 - 0.25) < 1e-15
    assert p.measure == MeasureSpec.axis((1.0, 2.0))
    p1 = equivalent_kernel_params((2.0,), 1.0)
    assert abs(p1.sigma**2 - 0.5) < 1e-15
    with pytest.raises(InvalidGridError):
        equivalent_kernel_params((1.0, -1.0), 1.0)


@pytest.mark.parametrize("alpha", [(), (0.0,), (1.0, -1.0), (1.0, math.inf), (math.nan,)])
def test_alpha_checks_agree_across_the_sheet_api(alpha):
    with pytest.raises(InvalidGridError):
        truncation_bound(alpha, 1.0)
    with pytest.raises(InvalidGridError):
        equivalent_kernel_params(alpha, 1.0)
    if len(alpha) == 2:
        with pytest.raises(InvalidGridError):
            batch_paths(GRID_2D, alpha, 1.0, [(0.5, 0.5)], 10, RngSeed(1))


@pytest.mark.parametrize("sigma", [math.nan, math.inf, 0.0, -1.0])
def test_sigma_must_be_finite_and_positive(sigma):
    f = sheet_increments(GRID_1D, RngSeed(1))
    with pytest.raises(InvalidGridError, match="sigma must be finite and positive"):
        batch_paths(GRID_1D, (1.0,), sigma, [(0.5,)], 10, RngSeed(1))
    with pytest.raises(InvalidGridError):
        integrate_mpou(f, (1.0,), sigma, 0.3, Corner((0.5,)))
    with pytest.raises(InvalidGridError):
        integrate_stationary(f, (1.0,), sigma, Corner((0.5,)))
    with pytest.raises(InvalidGridError):
        equivalent_kernel_params((1.0,), sigma)


@pytest.mark.parametrize("alpha, sigma, prod, sigma_eff", [
    ((1e200, 1e200), 1.0, "inf", "0.0"),  # prod(alpha) overflows
    ((1.0,), 1e-200, "1.0", "0.0"),  # sigma^2 underflows
    ((1.0,), 2.2e-162, "1.0", "2.2227587494850775e-162"),  # sigma_eff > 0, but its scale sigma_eff^2 / 2 underflows
    ((1e-300, 1e-300), 1.0, "0.0", "inf"),  # prod(alpha) underflows
], ids=["alpha_product_overflows", "sigma_squared_underflows", "scale_underflows", "alpha_product_underflows"])
def test_a_matched_kernel_that_is_no_valid_kernel_names_alpha_and_sigma(alpha, sigma, prod, sigma_eff):
    # An InvalidGridError, not KernelParams' message about a sigma of 0 the user never gave, and no numpy warning.
    with pytest.raises(InvalidGridError) as err:
        equivalent_kernel_params(alpha, sigma)
    assert str(err.value) == (f"alpha {alpha} and sigma {sigma} have no valid matched kernel: "
                              f"prod(alpha) = {prod}, sigma_eff = {sigma_eff}")


@pytest.mark.parametrize("replicates", [0, -1])
def test_batch_paths_needs_at_least_one_replicate(replicates):
    with pytest.raises(ConfigError, match=f"need at least one replicate, got {replicates}"):
        batch_paths(GRID_1D, (1.0,), 1.0, [(0.5,)], replicates, RngSeed(1))


@pytest.mark.parametrize("stationary", [False, True])
def test_batch_paths_needs_at_least_one_point(stationary):
    with pytest.raises(ConfigError, match="a sheet needs at least one point"):
        batch_paths(GRID_1D, (1.0,), 1.0, [], 10, RngSeed(1), stationary=stationary)


PTS_2D = [(0.25, 0.25), (0.5, 1.0), (1.0, 1.0)]


def _field_realizing(spec, support, W, z, seed, junk=1e6):
    """A sheet field whose midpoint sums equal ``drift + Gt @ z``, junk off the support.

    For W of full column rank, W = Q R (Householder QR, R's diagonal made
    positive) gives W^T W = R^T R, so sqrt(cell volume) R^T is the Cholesky
    factor ``Gt``. Normal k spreads over the support along column k of Q,
    dW = sqrt(cell volume) Q z, whose sums W^T dW are exactly Gt z.
    """
    Q, R = np.linalg.qr(W)
    Q *= np.sign(np.diag(R))
    flat = np.full(spec.ncells, junk)
    flat[support] = math.sqrt(spec.cell_volume) * (Q @ z)
    return SheetField(spec, flat.reshape(spec.steps), seed)


def test_batch_paths_first_row_matches_pointwise_integrals():
    # Row 0 equals the pointwise integrals of a field that spreads each normal
    # over the support cells; junk in every other cell changes nothing.
    pts = [Corner((0.25,)), Corner((0.75,))]
    alpha, sigma, y0 = (1.2,), 0.8, 0.4
    for stationary in (False, True):
        rows = batch_paths(GRID_1D, alpha, sigma, pts, 1, RngSeed(10), y0=y0, stationary=stationary)
        support, W, _ = _cell_weights(GRID_1D, alpha, sigma, pts, y0, stationary)
        assert support.size < GRID_1D.ncells
        z = RngSeed(10).generator().standard_normal((1, len(pts)))[0]
        f = _field_realizing(GRID_1D, support, W, z, RngSeed(10))
        for j, t in enumerate(pts):
            if stationary:
                want = integrate_stationary(f, alpha, sigma, t)
            else:
                want = integrate_mpou(f, alpha, sigma, y0, t)
            assert abs(rows[0, j] - want) <= 1e-10 * (1.0 + abs(want))


def test_steep_alpha_dirac_paths_stay_finite():
    # exp(-<alpha, t>) underflows to 0 and exp(<alpha, u>) overflows here, so
    # weights formed as their product were 0 * inf = NaN.
    spec, alpha, pt = GridSpec((-1.0,), (2.0,), (30,)), (400.0,), Corner((1.9,))
    rows = batch_paths(spec, alpha, 1.0, [pt], 3, RngSeed(1), y0=0.5)
    assert np.all(np.isfinite(rows))
    support, W, _ = _cell_weights(spec, alpha, 1.0, [pt], 0.5)
    z = RngSeed(1).generator().standard_normal((3, 1))
    for r in range(3):
        f = _field_realizing(spec, support, W, z[r], RngSeed(1))
        want = integrate_mpou(f, alpha, 1.0, 0.5, pt)
        assert math.isfinite(want)
        assert abs(rows[r, 0] - want) <= 1e-10 * (1.0 + abs(want))
    # Stationary, the cells centered below 0.04 carry weights that underflow to 0:
    # the point's column of the factor is still nonzero, so each replicate draws one normal.
    seed = _CountingSeed(RngSeed(1))
    rows = batch_paths(spec, alpha, 1.0, [pt], 3, seed, stationary=True)
    _, W, _ = _cell_weights(spec, alpha, 1.0, [pt], stationary=True)
    assert np.any(W == 0.0) and np.all(np.isfinite(rows))
    assert seed.drawn == 3


def test_sigma_whose_square_overflows_keeps_finite_paths():
    # sigma^2 overflows float64, so the factor must not square raw cell weights:
    # it divides each point's column by its peak before the Gram and scales back after.
    pts = [(0.25, 0.5), (1.0, 1.0)]
    unit = batch_paths(GRID_2D, (1.0, 2.0), 1.0, pts, 70, RngSeed(19), stationary=True)
    huge = batch_paths(GRID_2D, (1.0, 2.0), 1e200, pts, 70, RngSeed(19), stationary=True)
    assert np.all(np.isfinite(huge))
    np.testing.assert_allclose(huge, 1e200 * unit, rtol=1e-12)


def _factor_gap(Gt, W, cell_volume):
    """Largest |Gt Gt^T - S| entry over sqrt(S_pp S_qq), for S = cell_volume * W^T W.

    Both sides are first divided by each point's largest weight. That leaves
    the ratio unchanged and keeps a steep alpha from underflowing the squares.
    """
    scale = W.max(axis=0, initial=0.0)
    scale[scale == 0.0] = 1.0
    A, Wn = Gt / scale[:, None], W / scale
    want = cell_volume * (Wn.T @ Wn)
    d = np.sqrt(np.diag(want))
    return float(np.max(np.abs(A @ A.T - want) / np.maximum(np.outer(d, d), np.finfo(float).tiny), initial=0.0))


def test_whole_grid_support_has_the_covariance_of_the_grid_noise():
    # A stationary point at the upper corner puts every cell in the support.
    # The integrals of a sheet_increments field are increments @ W, whose
    # covariance is cell_volume * W.T @ W; the two points' factor matches it.
    pts = [Corner((0.25, 0.5)), Corner((1.0, 1.0))]
    support, W, _ = _cell_weights(GRID_2D, (1.0, 2.0), 1.0, pts, stationary=True)
    assert np.array_equal(support, np.arange(GRID_2D.ncells))
    f = sheet_increments(GRID_2D, RngSeed(13))
    for j, t in enumerate(pts):
        want = float(f.increments.ravel() @ W[:, j])
        assert abs(integrate_stationary(f, (1.0, 2.0), 1.0, t) - want) <= 1e-12 * (1.0 + abs(want))
    _, Gt = sheet._sheet_factor(GRID_2D, (1.0, 2.0), 1.0, pts, stationary=True)
    assert Gt.shape == (2, 2)
    assert _factor_gap(Gt, W, GRID_2D.cell_volume) <= 1e-12


class _CountingSeed:
    """Stands in for RngSeed and counts the normals drawn from its generators."""

    def __init__(self, seed):
        self.seed, self.drawn = seed, 0

    def generator(self):
        gen, counter = self.seed.generator(), self

        class Counting:
            def standard_normal(self, size=None, out=None):
                counter.drawn += int(np.prod(size)) if out is None else out.size
                return gen.standard_normal(size, out=out)

        return Counting()


def test_dirac_points_at_the_origin_return_y0_and_draw_nothing():
    seed = _CountingSeed(RngSeed(14))
    rows = batch_paths(GRID_2D, (1.0, 2.0), 1.0, [(0.0, 0.0), Corner((0.0, 0.0))], 700, seed, y0=-0.35)
    assert rows.shape == (700, 2)
    assert np.all(rows == -0.35)
    assert seed.drawn == 0


def test_each_replicate_draws_one_normal_per_point():
    # Hundreds of support cells, two points: a replicate takes two normals.
    pts = [(0.5, 0.5), (1.0, 0.25)]
    seed = _CountingSeed(RngSeed(15))
    batch_paths(GRID_2D, (1.0, 1.0), 1.0, pts, 300, seed)
    support, _, _ = _cell_weights(GRID_2D, (1.0, 1.0), 1.0, pts)
    assert support.size > 100
    assert seed.drawn == 300 * len(pts)


@st.composite
def grids_and_points(draw):
    """A grid in dimension 1-3 (lower corners sometimes on the origin) and 1-5 points inside it.

    Points lie anywhere in the grid or on a cell center, and one point may
    be drawn twice.
    """
    dim = draw(st.integers(1, 3))
    lower = tuple(draw(st.sampled_from([0.0, -0.5, draw(st.floats(-2.0, -0.01))])) for _ in range(dim))
    upper = tuple(draw(st.floats(0.1, 2.0)) for _ in range(dim))
    steps = tuple(draw(st.integers(1, 6)) for _ in range(dim))
    spec = GridSpec(lower, upper, steps)
    point = st.tuples(*[st.floats(0.0, up) for up in upper])
    centers = [tuple(c) for c in sheet._centers_flat(spec).tolist() if min(c) >= 0.0]
    if centers:
        point = st.one_of(point, st.sampled_from(centers))
    points = draw(st.lists(point, min_size=1, max_size=4))
    if draw(st.booleans()):
        points.append(draw(st.sampled_from(points)))
    return spec, points, draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(grids_and_points())
def test_cell_weights_support_matches_a_brute_force_mask(case):
    spec, points, stationary = case
    alpha = (1.0, 0.5, 2.0)[: spec.dim]
    support, W, _ = _cell_weights(spec, alpha, 0.7, points, 0.2, stationary)
    widths = spec.cell_widths
    want, regions = [], []
    for flat, idx in enumerate(itertools.product(*[range(s) for s in spec.steps])):
        u = [lo + (k + 0.5) * w for lo, k, w in zip(spec.lower, idx, widths)]
        region = [all(c <= x for c, x in zip(u, t)) and (stationary or not all(c <= 0.0 for c in u))
                  for t in points]
        if any(region):
            want.append(flat)
            regions.append(region)
    assert support.tolist() == want
    assert W.shape == (len(want), len(points))
    assert np.array_equal(W > 0.0, np.array(regions, dtype=bool).reshape(W.shape))


class _ZeroSeed:
    """Stands in for RngSeed and draws only zeros, so batch_paths returns its drift."""

    def generator(self):
        class Zeros:
            def standard_normal(self, size=None, out=None):
                if out is None:
                    return np.zeros(size)
                out.fill(0.0)
                return out

        return Zeros()


@settings(max_examples=200, deadline=None)
@given(grids_and_points(), st.sampled_from([1.0, 40.0]))
def test_sheet_factor_has_the_law_of_the_cell_weights(case, steepness):
    # At steepness 40 a point's largest weight can be as small as exp(-560),
    # so squares of unscaled weights underflow. It stays above the subnormal
    # range, where float64 keeps too few bits for a relative check.
    spec, points, stationary = case
    alpha = tuple(steepness * a for a in (1.0, 0.5, 2.0)[: spec.dim])
    _, W, drift = _cell_weights(spec, alpha, 0.7, points, 0.2, stationary)
    jitters = []

    def spy(cov):
        L, jitter = factorize(cov)
        jitters.append(jitter)
        return L, jitter

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sheet, "factorize", spy)
        got_drift, Gt = sheet._sheet_factor(spec, alpha, 0.7, points, 0.2, stationary)
    assert jitters == [0.0]
    np.testing.assert_array_equal(got_drift, drift)
    assert Gt.shape[0] == len(points) and Gt.shape[1] <= len(points)
    assert _factor_gap(Gt, W, spec.cell_volume) <= 1e-12
    rows = batch_paths(spec, alpha, 0.7, points, 3, _ZeroSeed(), y0=0.2, stationary=stationary)
    np.testing.assert_array_equal(rows, np.broadcast_to(drift, rows.shape))


def _crowded_points(spec: GridSpec) -> list[tuple[float, ...]]:
    """Many points over a few cells: on a center, just above it, just below it, and repeated."""
    widths = np.array(spec.cell_widths)
    points = []
    centers = sheet._centers_flat(spec)
    for center in centers[np.all(centers >= 0.4 * widths, axis=1)][::3]:
        for shift in (0.0, 0.25, -0.25, 0.1, 0.0, -0.4):
            points.append(tuple(center + shift * widths))
        points.append(tuple(center + np.array([0.3, -0.2]) * widths))
    return points


@pytest.mark.parametrize("stationary", [False, True])
@pytest.mark.parametrize("steepness", [1.0, 40.0])
def test_points_sharing_a_support_are_deflated_without_jitter(steepness, stationary):
    # Points with one support get one column and one normal. A point on a
    # cell center has that cell in its support; one just below it does not.
    spec = GridSpec((-0.5, -0.25), (1.0, 1.0), (9, 7))
    points = _crowded_points(spec)
    alpha = (steepness, 0.5 * steepness)
    _, W, _ = _cell_weights(spec, alpha, 0.7, points, 0.2, stationary)
    supports = {tuple(W[:, j] > 0.0) for j in range(len(points)) if W[:, j].any()}
    jitters = []

    def spy(cov):
        L, jitter = factorize(cov)
        jitters.append(jitter)
        return L, jitter

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sheet, "factorize", spy)
        _, Gt = sheet._sheet_factor(spec, alpha, 0.7, points, 0.2, stationary)
    assert len(points) > 3 * len(supports)
    assert jitters == [0.0]
    assert Gt.shape == (len(points), len(supports))
    assert _factor_gap(Gt, W, spec.cell_volume) <= 1e-12


@pytest.mark.parametrize("stationary", [False, True])
def test_batch_paths_runs_of_whole_blocks_are_prefixes_of_longer_runs(stationary):
    # Row blocks of SAMPLE_BLOCK_ROWS draws; a short last block is drawn and
    # multiplied as a whole block into an output padded to whole blocks, and
    # the drift is added to each block's own rows.
    block = SAMPLE_BLOCK_ROWS
    longest = batch_paths(GRID_2D, (1.0, 0.5), 0.7, PTS_2D, 3 * block, RngSeed(26), y0=0.2, stationary=stationary)
    for n in (block, 2 * block, 2 * block + 17):
        rows = batch_paths(GRID_2D, (1.0, 0.5), 0.7, PTS_2D, n, RngSeed(26), y0=0.2, stationary=stationary)
        whole = n // block * block
        np.testing.assert_array_equal(rows[:whole], longest[:whole])


@pytest.mark.parametrize("stationary", [False, True])
def test_batch_paths_runs_of_at_least_one_block_are_prefixes_of_longer_runs_at_300_points(stationary):
    # 300 points past OpenBLAS's 256-column rounding limit (see the gaussian test at 300 columns).
    grid = GridSpec((-1.0, -1.0), (1.0, 1.0), (24, 24))
    points = [tuple(p) for p in np.random.default_rng(24).uniform(0.0, 1.0, (300, 2))]
    runs = {n: batch_paths(grid, (1.0, 0.5), 0.7, points, n, RngSeed(26), y0=0.2, stationary=stationary)
            for n in (SAMPLE_BLOCK_ROWS, SAMPLE_BLOCK_ROWS + 17, 2 * SAMPLE_BLOCK_ROWS + 17)}
    for short, long in itertools.combinations(runs, 2):
        np.testing.assert_array_equal(runs[long][:short], runs[short], err_msg=f"{short} rows against {long}")


def test_cell_weights_summed_not_squared_fail_the_law():
    # Negative control: one normal weighted by each point's summed cell
    # weights, not their root sum of squares, gives the covariance of fully
    # correlated cells, not independent ones.
    _, W, _ = _cell_weights(GRID_2D, (1.0, 1.0), 1.0, PTS_2D, 0.2)
    summed = math.sqrt(GRID_2D.cell_volume) * W.sum(axis=0)[:, None]
    assert _factor_gap(summed, W, GRID_2D.cell_volume) > 1e-12
    _, Gt = sheet._sheet_factor(GRID_2D, (1.0, 1.0), 1.0, PTS_2D, 0.2)
    assert _factor_gap(Gt, W, GRID_2D.cell_volume) <= 1e-12


@pytest.mark.parametrize("stationary", [False, True])
def test_batch_paths_agree_with_integrals_of_grid_noise(stationary):
    # Two-sample check at 5 SE: integrate_* over independent sheet_increments
    # fields against batch_paths, on means and covariances around the drift.
    spec, alpha, sigma, y0 = GridSpec((-2.0, -2.0), (1.0, 1.0), (6, 6)), (1.0, 2.0), 0.8, 0.3
    pts = [Corner((0.5, 0.5)), Corner((1.0, 0.25)), Corner((1.0, 1.0))]
    _, _, drift = _cell_weights(spec, alpha, sigma, pts, y0, stationary)
    fields = []
    for k in range(3000):
        f = sheet_increments(spec, RngSeed(17, k))
        if stationary:
            fields.append([integrate_stationary(f, alpha, sigma, t) for t in pts])
        else:
            fields.append([integrate_mpou(f, alpha, sigma, y0, t) for t in pts])
    paths = batch_paths(spec, alpha, sigma, pts, 20_000, RngSeed(18), y0=y0, stationary=stationary)
    samples = [np.asarray(fields) - drift, paths - drift]
    stats = [[x] + [x[:, i] * x[:, j] for i in range(len(pts)) for j in range(i, len(pts))] for x in samples]
    for a, b in zip(stats[0], stats[1]):
        se = np.sqrt(a.var(axis=0) / len(a) + b.var(axis=0) / len(b))
        assert np.all(np.abs(a.mean(axis=0) - b.mean(axis=0)) <= 5.0 * se)


def test_stationary_sheet_matches_kernel_covariance():
    # 1-D spot check of the distributional representation
    n = 20_000
    pts = [Corner((0.25,)), Corner((1.0,))]
    vals = batch_paths(GRID_1D, (1.0,), 1.0, pts, n, RngSeed(11), stationary=True)
    params = equivalent_kernel_params((1.0,), 1.0)
    step = GRID_1D.cell_widths[0]
    for i in range(2):
        for j in range(2):
            want = cov_stationary(params, pts[i], pts[j])
            got = float(np.mean(vals[:, i] * vals[:, j]))
            se = math.sqrt(2.0 / n) * params.stationary_variance
            assert abs(got - want) <= 5 * se + 2 * step * want


def test_mpou_variance_grows_from_zero():
    n = 20_000
    pts = [Corner((0.1,)), Corner((0.5,)), Corner((1.0,))]
    vals = batch_paths(GRID_1D, (1.0,), 1.0, pts, n, RngSeed(12), y0=0.0)
    variances = vals.var(axis=0)
    assert variances[0] < variances[1] < variances[2]
    # matched-kernel prediction sv * (1 - exp(-2 t))
    sv = equivalent_kernel_params((1.0,), 1.0).stationary_variance
    step = GRID_1D.cell_widths[0]
    for v, t in zip(variances, (0.1, 0.5, 1.0)):
        want = sv * (1.0 - math.exp(-2.0 * t))
        se = math.sqrt(2.0 / n) * sv
        assert abs(v - want) <= 5 * se + 2 * step * sv
