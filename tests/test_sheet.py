"""Grid white noise, sheet-driven OU integrals, and the matched kernel."""

import itertools
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siou.errors import ConfigError, InvalidGridError, OutOfRangeError
from siou.gaussian import RngSeed
from siou.geometry import Corner
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


@pytest.mark.parametrize("replicates", [0, -1])
def test_batch_paths_needs_at_least_one_replicate(replicates):
    with pytest.raises(ConfigError, match=f"need at least one replicate, got {replicates}"):
        batch_paths(GRID_1D, (1.0,), 1.0, [(0.5,)], replicates, RngSeed(1))


@pytest.mark.parametrize("stationary", [False, True])
def test_batch_paths_needs_at_least_one_point(stationary):
    with pytest.raises(ConfigError, match="a sheet needs at least one point"):
        batch_paths(GRID_1D, (1.0,), 1.0, [], 10, RngSeed(1), stationary=stationary)


PTS_2D = [(0.25, 0.25), (0.5, 1.0), (1.0, 1.0)]


def _with_workers(monkeypatch, n):
    monkeypatch.setattr(sheet, "_worker_count", lambda blocks: n)


def test_batch_paths_bit_identical_for_any_worker_count(monkeypatch):
    runs = []
    for n in (1, 2, 8):
        _with_workers(monkeypatch, n)
        runs.append(batch_paths(GRID_2D, (1.0, 1.0), 1.0, PTS_2D, 300, RngSeed(9), y0=0.2))
    assert runs[0].shape == (300, 3)
    for other in runs[1:]:
        np.testing.assert_array_equal(runs[0], other)
    # block 0 is drift + einsum(z, W.T) over the first 64 rows of substream 0, bit for bit
    support, W, drift = _cell_weights(GRID_2D, (1.0, 1.0), 1.0, PTS_2D, 0.2)
    z = RngSeed(9).substream(0).standard_normal((sheet.BLOCK_ROWS, support.size))
    wt = np.ascontiguousarray(W.T) * math.sqrt(GRID_2D.cell_volume)
    np.testing.assert_array_equal(runs[0][: sheet.BLOCK_ROWS], drift + np.einsum("rc,pc->rp", z, wt))


def test_batch_paths_prefix_does_not_depend_on_the_replicate_count():
    short = batch_paths(GRID_2D, (1.0, 1.0), 1.0, PTS_2D, 300, RngSeed(9))
    long = batch_paths(GRID_2D, (1.0, 1.0), 1.0, PTS_2D, 600, RngSeed(9))
    # blocks 0-3 are whole in both runs
    np.testing.assert_array_equal(short[:256], long[:256])


def test_more_workers_than_cores_with_a_short_switch_interval_match_one_worker(monkeypatch):
    workers = 2 * (os.cpu_count() or 1) + 1
    replicates = 3 * workers * sheet.BLOCK_ROWS
    args = (GRID_2D, (1.0, 2.0), 0.8, PTS_2D, replicates, RngSeed(16))
    _with_workers(monkeypatch, 1)
    want = batch_paths(*args)
    _with_workers(monkeypatch, workers)
    runner = ThreadPoolExecutor(1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = runner.submit(batch_paths, *args).result(timeout=120)
    finally:
        sys.setswitchinterval(interval)
        runner.shutdown(wait=False)
    np.testing.assert_array_equal(got, want)


def test_worker_count_follows_the_cpu_affinity_within_its_caps(monkeypatch):
    monkeypatch.setattr(sheet.os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    assert sheet._worker_count(100) == sheet.MAX_ROWS_IN_FLIGHT // sheet.BLOCK_ROWS
    assert sheet._worker_count(3) == 3
    assert sheet._worker_count(0) == 1
    monkeypatch.setattr(sheet.os, "sched_getaffinity", lambda pid: {0})
    assert sheet._worker_count(100) == 1
    monkeypatch.delattr(sheet.os, "sched_getaffinity")
    monkeypatch.setattr(sheet.os, "cpu_count", lambda: 2)
    assert sheet._worker_count(100) == 2


def _field_from_support_draws(spec, support, seed, junk=1e6):
    """The field row 0 of batch_paths sees: its draws on the support, junk elsewhere."""
    flat = np.full(spec.ncells, junk)
    flat[support] = seed.substream(0).standard_normal((1, support.size))[0] * math.sqrt(spec.cell_volume)
    return SheetField(spec, flat.reshape(spec.steps), seed)


def test_batch_paths_first_row_matches_pointwise_integrals():
    # Row 0 reads only the support draws, so junk in every other cell
    # leaves the pointwise integrals unchanged.
    pts = [Corner((0.25,)), Corner((0.75,))]
    alpha, sigma, y0 = (1.2,), 0.8, 0.4
    for stationary in (False, True):
        rows = batch_paths(GRID_1D, alpha, sigma, pts, 1, RngSeed(10), y0=y0, stationary=stationary)
        support, _, _ = _cell_weights(GRID_1D, alpha, sigma, pts, y0, stationary)
        assert support.size < GRID_1D.ncells
        f = _field_from_support_draws(GRID_1D, support, RngSeed(10))
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
    support, _, _ = _cell_weights(spec, alpha, 1.0, [pt], 0.5)
    draws = RngSeed(1).substream(0).standard_normal((3, support.size)) * math.sqrt(spec.cell_volume)
    for r in range(3):
        flat = np.zeros(spec.ncells)
        flat[support] = draws[r]
        want = integrate_mpou(SheetField(spec, flat.reshape(spec.steps), RngSeed(1)), alpha, 1.0, 0.5, pt)
        assert math.isfinite(want)
        assert abs(rows[r, 0] - want) <= 1e-10 * (1.0 + abs(want))


def test_whole_grid_support_draws_the_full_grid_noise():
    # A stationary point at the upper corner puts every cell in the support,
    # so row 0 consumes the same normals as sheet_increments.
    pts = [Corner((0.25, 0.5)), Corner((1.0, 1.0))]
    support, _, _ = _cell_weights(GRID_2D, (1.0, 2.0), 1.0, pts, stationary=True)
    assert np.array_equal(support, np.arange(GRID_2D.ncells))
    rows = batch_paths(GRID_2D, (1.0, 2.0), 1.0, pts, 1, RngSeed(13), stationary=True)
    f = sheet_increments(GRID_2D, RngSeed(13))
    z = RngSeed(13).substream(0).standard_normal(GRID_2D.steps)
    np.testing.assert_array_equal(f.increments, z * math.sqrt(GRID_2D.cell_volume))
    for j, t in enumerate(pts):
        want = integrate_stationary(f, (1.0, 2.0), 1.0, t)
        assert abs(rows[0, j] - want) <= 1e-10 * (1.0 + abs(want))


class _CountingSeed:
    """Stands in for RngSeed and counts the normals drawn from its substreams."""

    def __init__(self, seed):
        self.seed, self.counters, self.blocks = seed, [], []

    @property
    def drawn(self):
        return sum(c.drawn for c in self.counters)

    def substream(self, index):
        gen = self.seed.substream(index)

        class Counting:
            drawn = 0

            def standard_normal(self, size):
                self.drawn += int(np.prod(size))
                return gen.standard_normal(size)

        # list.append is atomic, and each counter is only touched by the worker that owns it
        counter = Counting()
        self.blocks.append(index)
        self.counters.append(counter)
        return counter


def test_dirac_points_at_the_origin_return_y0_and_draw_nothing():
    seed = _CountingSeed(RngSeed(14))
    rows = batch_paths(GRID_2D, (1.0, 2.0), 1.0, [(0.0, 0.0), Corner((0.0, 0.0))], 700, seed, y0=-0.35)
    assert rows.shape == (700, 2)
    assert np.all(rows == -0.35)
    assert seed.drawn == 0


def test_support_draws_count_one_normal_per_support_cell():
    pts = [(0.5, 0.5), (1.0, 0.25)]
    seed = _CountingSeed(RngSeed(15))
    batch_paths(GRID_2D, (1.0, 1.0), 1.0, pts, 300, seed)
    support, W, _ = _cell_weights(GRID_2D, (1.0, 1.0), 1.0, pts)
    assert seed.drawn == 300 * support.size
    assert sorted(seed.blocks) == list(range(5))
    assert W.shape == (support.size, 2)


@st.composite
def grids_and_points(draw):
    """A grid in dimension 1-3 (lower corners sometimes on the origin) and 1-4 points inside it."""
    dim = draw(st.integers(1, 3))
    lower = tuple(draw(st.sampled_from([0.0, -0.5, draw(st.floats(-2.0, -0.01))])) for _ in range(dim))
    upper = tuple(draw(st.floats(0.1, 2.0)) for _ in range(dim))
    steps = tuple(draw(st.integers(1, 6)) for _ in range(dim))
    spec = GridSpec(lower, upper, steps)
    point = st.tuples(*[st.floats(0.0, up) for up in upper])
    points = draw(st.lists(point, min_size=1, max_size=4))
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


def test_grid_json_round_trip():
    g = GridSpec((-2.0, -1.0), (2.0, 1.0), (8, 4))
    assert g.to_json() == {"lower": [-2.0, -1.0], "upper": [2.0, 1.0], "steps": [8, 4]}
