"""Factorization, seeded sampling and conditioning of dense Gaussians."""

import math
import tracemalloc

import numpy as np
import pytest

from siou import gaussian
from siou.errors import NotPSDError
from siou.gaussian import SAMPLE_BLOCK_ROWS, GaussianSpec, RngSeed, conditional, factorize, sample
from siou.geometry import Corner
from siou.kernel import KernelParams, cov_matrix, mean_vector
from siou.measures import MeasureSpec


def point_started_gram(k: int, x0: float = 0.4) -> GaussianSpec:
    """Law of the point-started field on the origin and the k x k quarter grid."""
    params = KernelParams(0.9, 1.3, MeasureSpec.lebesgue())
    corners = [Corner((0.0, 0.0))] + [Corner((0.25 * i, 0.25 * j)) for i in range(1, k + 1) for j in range(1, k + 1)]
    return GaussianSpec(mean_vector(params, corners, x0), cov_matrix(params, corners, v0=0.0))


def test_factorize_two_by_two():
    r = math.exp(-1.0)
    cov = np.array([[1.0, r], [r, 1.0]])
    L, jitter = factorize(cov)
    assert jitter == 0.0
    assert L[0, 0] == pytest.approx(1.0, rel=1e-15)
    assert L[1, 0] == pytest.approx(r, rel=1e-15)
    assert L[1, 1] == pytest.approx(math.sqrt(1 - r * r), rel=1e-14)
    assert L[0, 1] == 0.0


def test_factorize_rejects_indefinite():
    with pytest.raises(NotPSDError) as err:
        factorize(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert "-1.0" in str(err.value)


def test_factorize_rejects_asymmetric():
    with pytest.raises(ValueError):
        factorize(np.array([[1.0, 0.5], [0.2, 1.0]]))


def test_factorize_zero_matrix():
    L, jitter = factorize(np.zeros((3, 3)))
    assert jitter == 0.0
    assert not L.any()


def test_factorize_singular_psd_without_jitter():
    cov = np.array([[1.0, 1.0], [1.0, 1.0]])
    L, jitter = factorize(cov)
    assert jitter == 0.0
    np.testing.assert_allclose(L @ L.T, cov, atol=1e-14)
    assert L[1, 1] == 0.0
    assert np.allclose(np.triu(L, 1), 0.0)


def test_factorize_zero_variance_row_stays_exact():
    cov = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.3], [0.0, 0.3, 1.0]])
    L, jitter = factorize(cov)
    assert jitter == 0.0
    np.testing.assert_allclose(L @ L.T, cov, atol=1e-15)
    assert not L[0].any()


def test_factorize_absorbs_roundoff_negativity():
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    cov = q @ np.diag([1.0, 0.5, 1e-13, -1e-13]) @ q.T
    cov = 0.5 * (cov + cov.T)
    L, jitter = factorize(cov)
    assert 0.0 <= jitter <= 1e-8 * float(np.max(np.diag(cov)))
    err = float(np.max(np.abs(L @ L.T - cov)))
    assert err <= 1e-10 * float(np.max(np.abs(cov)))


def test_factorize_jitter_ladder_for_larger_negativity():
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    cov = q @ np.diag([1.0, 0.5, 0.2, -5e-10]) @ q.T
    cov = 0.5 * (cov + cov.T)
    L, jitter = factorize(cov)
    assert jitter > 0.0
    err = float(np.max(np.abs(L @ L.T - cov)))
    assert err <= 1e-7 * float(np.max(np.abs(cov)))


def test_factorize_deflates_the_origin_row_of_a_point_started_gram(monkeypatch):
    def no_python_pass(cov, scale):
        raise AssertionError("the rank-deficient pass ran")

    monkeypatch.setattr(gaussian, "_rank_deficient_cholesky", no_python_pass)
    cov = point_started_gram(12).cov
    L, jitter = factorize(cov)
    assert jitter == 0.0
    assert not L[0].any() and not L[:, 0].any()
    assert float(np.max(np.abs(L @ L.T - cov))) <= 1e-12 * float(np.max(np.diag(cov)))


def test_factorize_duplicated_corner_takes_the_rank_deficient_pass(monkeypatch):
    calls = []
    python_pass = gaussian._rank_deficient_cholesky

    def spy(cov, scale):
        calls.append(cov.shape)
        return python_pass(cov, scale)

    monkeypatch.setattr(gaussian, "_rank_deficient_cholesky", spy)
    params = KernelParams(0.9, 1.3, MeasureSpec.lebesgue())
    corners = [Corner((0.0, 0.0)), Corner((0.5, 1.0)), Corner((1.0, 0.5)), Corner((0.5, 1.0))]
    cov = cov_matrix(params, corners, v0=0.0)
    L, jitter = factorize(cov)
    assert calls == [(4, 4)]
    assert jitter == 0.0
    assert L[3, 3] == 0.0
    np.testing.assert_allclose(L @ L.T, cov, atol=1e-14)


def test_factorize_zero_pivot_with_off_diagonal_weight_is_not_deflated():
    # Row 0 has a zero variance but covaries with row 1: not PSD, so no exact
    # factor exists, and the jitter ladder cannot fix a -0.25 eigenvalue.
    cov = np.array([[0.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(NotPSDError):
        factorize(cov)
    # Roundoff-sized weight ends in the jitter ladder instead.
    cov = np.array([[0.0, 1e-9, 0.0], [1e-9, 1.0, 0.2], [0.0, 0.2, 1.0]])
    L, jitter = factorize(cov)
    assert jitter > 0.0
    assert L[0, 0] > 0.0


@pytest.mark.parametrize("n", [1, SAMPLE_BLOCK_ROWS - 1, SAMPLE_BLOCK_ROWS, SAMPLE_BLOCK_ROWS + 1, 20_000])
def test_block_streamed_sample_equals_the_one_shot_product(n):
    spec = point_started_gram(12)
    L, _ = factorize(spec.cov)
    z = RngSeed(7, 3).generator().standard_normal((n, spec.dim))
    want = spec.mean[None, :] + z @ L.T
    got = sample(spec, n, RngSeed(7, 3))
    assert got.shape == (n, 145)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [SAMPLE_BLOCK_ROWS + 1, 2 * SAMPLE_BLOCK_ROWS + 8])
def test_block_streamed_sample_above_256_corners_stays_within_rounding_of_the_one_shot_product(n):
    # Past 256 columns OpenBLAS's rounding of a row follows the product's
    # shape, so a few draws may differ from the one-shot product in the last bit.
    spec = point_started_gram(17)
    L, _ = factorize(spec.cov)
    want = spec.mean[None, :] + RngSeed(7).generator().standard_normal((n, spec.dim)) @ L.T
    got = sample(spec, n, RngSeed(7))
    assert got.shape == (n, 290)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14 * np.abs(want).max())


def test_block_streamed_sample_holds_one_block_beside_the_output():
    spec = point_started_gram(12)
    sample(spec, 8, RngSeed(1))
    tracemalloc.start()
    try:
        out = sample(spec, 20_000, RngSeed(2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * out.nbytes


def test_sample_reproducible_and_stream_separated():
    cov = np.array([[1.0, 0.4], [0.4, 1.0]])
    spec = GaussianSpec(np.array([1.0, -2.0]), cov)
    a = sample(spec, 8, RngSeed(42))
    b = sample(spec, 8, RngSeed(42))
    c = sample(spec, 8, RngSeed(42, stream=1))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert sample(spec, 0, RngSeed(1)).shape == (0, 2)


def test_child_streams_are_deterministic():
    s = RngSeed(9)
    assert s.child(3) == RngSeed(9, 3)
    x = s.child(3).generator().standard_normal(4)
    y = s.child(3).generator().standard_normal(4)
    np.testing.assert_array_equal(x, y)
    # the golden sample, sheet and verify digests pin the stream generator's bytes
    assert isinstance(s.generator().bit_generator, np.random.Philox)


def test_degenerate_component_samples_as_constant():
    cov = np.array([[0.0, 0.0], [0.0, 1.0]])
    spec = GaussianSpec(np.array([0.7, 0.0]), cov)
    draws = sample(spec, 500, RngSeed(5))
    assert np.unique(draws[:, 0]).tolist() == [0.7]
    assert draws[:, 1].std() > 0.5


def test_sample_moments_converge():
    r = 0.6
    cov = np.array([[2.0, r], [r, 1.0]])
    spec = GaussianSpec(np.array([1.0, -1.0]), cov)
    draws = sample(spec, 200_000, RngSeed(123))
    np.testing.assert_allclose(draws.mean(axis=0), spec.mean, atol=0.02)
    np.testing.assert_allclose(np.cov(draws, rowvar=False), cov, atol=0.03)


def test_conditional_textbook_values():
    mean = np.array([1.0, 2.0])
    cov = np.array([[2.0, 0.6], [0.6, 1.0]])
    post = conditional(GaussianSpec(mean, cov), [1], np.array([3.0]))
    assert post.mean[0] == pytest.approx(1.0 + 0.6 * (3.0 - 2.0), rel=1e-14)
    assert post.cov[0, 0] == pytest.approx(2.0 - 0.36, rel=1e-14)


def test_conditional_independent_blocks_unchanged():
    cov = np.diag([1.0, 2.0, 3.0])
    spec = GaussianSpec(np.array([0.0, 5.0, -1.0]), cov)
    post = conditional(spec, [1], np.array([9.0]))
    np.testing.assert_allclose(post.mean, [0.0, -1.0], atol=1e-14)
    np.testing.assert_allclose(post.cov, np.diag([1.0, 3.0]), atol=1e-14)


def test_conditional_all_observed_is_point_mass():
    spec = GaussianSpec(np.zeros(2), np.eye(2))
    post = conditional(spec, [1, 0], np.array([4.0, 5.0]))
    np.testing.assert_array_equal(post.mean, [4.0, 5.0])
    assert not post.cov.any()


def test_conditional_singular_observed_block():
    # duplicated coordinate: conditioning must fall back to pseudo-inverse
    cov = np.array([[1.0, 1.0, 0.5], [1.0, 1.0, 0.5], [0.5, 0.5, 2.0]])
    spec = GaussianSpec(np.zeros(3), cov)
    post = conditional(spec, [0, 1], np.array([1.2, 1.2]))
    assert post.mean[0] == pytest.approx(0.5 * 1.2, rel=1e-12)
    assert post.cov[0, 0] == pytest.approx(2.0 - 0.25, rel=1e-12)


def test_conditional_validates_indices():
    spec = GaussianSpec(np.zeros(2), np.eye(2))
    with pytest.raises(ValueError):
        conditional(spec, [0, 0], np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        conditional(spec, [5], np.array([1.0]))
    with pytest.raises(ValueError):
        conditional(spec, [0], np.array([1.0, 2.0]))


def test_spec_validates_shapes_and_symmetry():
    with pytest.raises(ValueError):
        GaussianSpec(np.zeros(2), np.eye(3))
    with pytest.raises(ValueError):
        GaussianSpec(np.zeros(2), np.array([[1.0, 0.5], [0.1, 1.0]]))


def test_seed_validation():
    with pytest.raises(ValueError):
        RngSeed(-1)
    with pytest.raises(ValueError):
        RngSeed(2**64)
    with pytest.raises(ValueError):
        RngSeed(1.5)


def test_schur_route_matches_dense_solve():
    rng = np.random.default_rng(31)
    for _ in range(25):
        n = int(rng.integers(3, 8))
        m = rng.normal(size=(n, n))
        cov = m @ m.T + 0.5 * np.eye(n)
        mean = rng.normal(size=n)
        spec = GaussianSpec(mean, cov)
        k = int(rng.integers(1, n))
        obs = sorted(rng.choice(n, size=k, replace=False).tolist())
        free = [i for i in range(n) if i not in obs]
        vals = rng.normal(size=k)
        post = conditional(spec, obs, vals)
        kmat = cov[np.ix_(free, obs)] @ np.linalg.inv(cov[np.ix_(obs, obs)])
        want_mean = mean[free] + kmat @ (vals - mean[obs])
        want_cov = cov[np.ix_(free, free)] - kmat @ cov[np.ix_(obs, free)]
        np.testing.assert_allclose(post.mean, want_mean, atol=1e-10)
        np.testing.assert_allclose(post.cov, want_cov, atol=1e-10)
