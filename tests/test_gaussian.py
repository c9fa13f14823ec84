"""Factorization, seeded sampling and conditioning of dense Gaussians."""

import math

import numpy as np
import pytest

from siou.errors import NotPSDError
from siou.gaussian import GaussianSpec, RngSeed, conditional, factorize, sample


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


def test_substreams_are_children_of_the_stream_seed_sequence():
    parent = np.random.SeedSequence(entropy=31, spawn_key=(4,))
    children = parent.spawn(6)
    for b in (0, 5):
        want = np.random.Generator(np.random.SFC64(children[b])).standard_normal(8)
        np.testing.assert_array_equal(RngSeed(31, 4).substream(b).standard_normal(8), want)
    assert not np.array_equal(RngSeed(31, 4).substream(0).standard_normal(8), RngSeed(31, 4).generator().standard_normal(8))
    # the golden sample and verify digests pin the stream generator's bytes
    assert isinstance(RngSeed(31, 4).generator().bit_generator, np.random.Philox)
