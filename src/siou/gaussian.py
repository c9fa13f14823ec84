"""Dense multivariate Gaussian helpers: factorization, sampling, conditioning.

Sampling is deterministic by construction. A (seed, stream) pair addresses
a Philox counter-based bit generator through numpy's SeedSequence, and
standard normals come from the Generator's ziggurat implementation, which
is stable across runs on a given platform. Parallel consumers should take
distinct stream values rather than partitioning one stream.

Factorization is Cholesky. Exactly zero rows (a point start's origin, and
axis corners under the Lebesgue measure) are deflated: LAPACK factors the
rest and those rows of the factor stay 0, so degenerate components sample
as constants. Other singular matrices go through a rank-deficient pass that
skips exactly zero pivots, and a short jitter ladder of 1e-12, 1e-10 and
1e-8 times the largest diagonal entry catches matrices that are indefinite
only through roundoff. Matrices that fail the whole ladder are reported as
not positive semidefinite together with their most negative eigenvalue (the
offending pivot scale).

:func:`sample` streams: it draws ``SAMPLE_BLOCK_ROWS`` rows of normals at a
time and writes their product with the factor straight into the output, so
it holds the output plus one block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPSDError

JITTER_LADDER = (0.0, 1e-12, 1e-10, 1e-8)

# Rows of normals :func:`sample` draws and multiplies at a time.
SAMPLE_BLOCK_ROWS = 4096

# Relative asymmetry above this is a construction bug, not roundoff.
SYMMETRY_RTOL = 1e-12

__all__ = ["JITTER_LADDER", "SAMPLE_BLOCK_ROWS", "RngSeed", "GaussianSpec", "factorize", "sample", "conditional"]


@dataclass(frozen=True)
class RngSeed:
    """Address of one deterministic random stream: 64-bit seed plus stream index."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        for name in ("seed", "stream"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or not 0 <= v < 2**64:
                raise ValueError(f"{name} must be an integer in [0, 2^64), got {v!r}")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.Philox(ss))

    def child(self, offset: int) -> "RngSeed":
        """Seed for an independent stream, offset from this one."""
        return RngSeed(self.seed, self.stream + offset)

    def to_json(self) -> dict:
        return {"seed": self.seed, "stream": self.stream}


def _empty(shape) -> np.ndarray:
    """``np.empty(shape)``; a shape past numpy's size limit raises MemoryError, like one past memory."""
    try:
        return np.empty(shape)
    except ValueError as exc:  # "Maximum allowed dimension exceeded" or "array is too big"
        raise MemoryError(f"cannot allocate an array of shape {shape}: {exc}") from None


@dataclass(frozen=True, eq=False)
class GaussianSpec:
    """Mean vector and covariance matrix of a finite-dimensional Gaussian."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        cov = np.asarray(self.cov, dtype=float)
        if cov.shape != (mean.size, mean.size):
            raise ValueError(f"covariance shape {cov.shape} does not match mean of length {mean.size}")
        if cov.size:
            scale = max(1.0, float(np.max(np.abs(cov))))
            if float(np.max(np.abs(cov - cov.T))) > SYMMETRY_RTOL * scale:
                raise ValueError("covariance is not symmetric")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.size


def _rank_deficient_cholesky(cov: np.ndarray, scale: float) -> np.ndarray | None:
    """Outer-product Cholesky that zeroes non-positive pivots.

    Returns a lower-triangular L with L @ L.T equal to cov up to roundoff
    when cov is positive semidefinite with exact rank deficiencies, or None
    when a pivot is genuinely negative or a zeroed pivot would discard
    off-diagonal weight (either means the matrix is not PSD as given).
    """
    n = cov.shape[0]
    a = cov.copy()
    out = np.zeros((n, n))
    pivot_tol = 1e-13 * scale
    for j in range(n):
        pivot = float(a[j, j])
        if pivot <= pivot_tol:
            if pivot < -1e-10 * scale:
                return None
            if j + 1 < n and float(np.max(np.abs(a[j + 1 :, j]))) > 1e-10 * scale:
                return None
            continue
        root = math.sqrt(pivot)
        col = a[j + 1 :, j] / root
        out[j, j] = root
        out[j + 1 :, j] = col
        a[j + 1 :, j + 1 :] -= np.outer(col, col)
    return out


def factorize(cov) -> tuple[np.ndarray, float]:
    """Cholesky factor of cov plus the jitter that made it work.

    Returns (L, jitter) with L @ L.T equal to cov + jitter * I. Rows and
    columns that are exactly zero are deflated: LAPACK factors the rest, and
    those rows of L are 0. Other exactly singular PSD matrices factorize
    without jitter through the rank-deficient pass, so degenerate components
    stay degenerate. The jitter ladder is relative to the largest diagonal
    entry; an exactly zero matrix factorizes to zero. Raises NotPSDError
    when the ladder runs out.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError(f"need a square matrix, got shape {cov.shape}")
    d = cov.shape[0]
    if d == 0:
        return np.zeros((0, 0)), 0.0
    scale = max(1.0, float(np.max(np.abs(cov))))
    if float(np.max(np.abs(cov - cov.T))) > SYMMETRY_RTOL * scale:
        raise ValueError("covariance is not symmetric")
    max_diag = float(np.max(np.diag(cov)))
    if max_diag <= 0.0:
        if not np.any(cov):
            return np.zeros((d, d)), 0.0
    else:
        live = np.any(cov, axis=0) | np.any(cov, axis=1)
        try:
            if live.all():
                return np.linalg.cholesky(cov), 0.0
            low = np.zeros((d, d))
            low[np.ix_(live, live)] = np.linalg.cholesky(cov[np.ix_(live, live)])
            return low, 0.0
        except np.linalg.LinAlgError:
            pass
        low = _rank_deficient_cholesky(cov, max_diag)
        if low is not None and float(np.max(np.abs(low @ low.T - cov))) <= 1e-8 * max_diag:
            return low, 0.0
        eye = np.eye(d)
        for level in JITTER_LADDER[1:]:
            jitter = level * max_diag
            try:
                return np.linalg.cholesky(cov + jitter * eye), jitter
            except np.linalg.LinAlgError:
                continue
    worst = float(np.linalg.eigvalsh(cov)[0])
    raise NotPSDError(f"matrix is not positive semidefinite within the jitter ladder; most negative eigenvalue {worst:.6e}")


def sample(spec: GaussianSpec, n: int, seed: RngSeed) -> np.ndarray:
    """n independent draws, one per row, deterministic given the seed.

    The draws are ``mean + z @ L.T`` for one ``(n, d)`` draw z, but z is
    drawn and multiplied ``SAMPLE_BLOCK_ROWS`` rows at a time straight into
    the output. Every product has that many rows (or n, if fewer): a short
    last block keeps the end of the block before it and rewrites those rows.
    OpenBLAS rounds a row the same in any product of that shape as in the
    one-shot product when d <= 256. Above that its rounding follows the
    product's shape: for n > SAMPLE_BLOCK_ROWS a few draws differ from the
    one-shot product in the last bit (39 of 2.4e6 at d = 290, n = 8200, 2 threads).
    Products of fewer rows take another kernel, so for n < SAMPLE_BLOCK_ROWS
    the draws need not be a longer run's first n rows (n = 1 at d = 2 and 8;
    n = 1, 2, 3, 7, 64, 100 at d = 145), unlike ``sheet.batch_paths`` rows.
    """
    if n < 0:
        raise ValueError(f"need a nonnegative draw count, got {n}")
    L, _ = factorize(spec.cov)
    gen = seed.generator()
    out = _empty((n, spec.dim))
    z = np.empty((min(n, SAMPLE_BLOCK_ROWS), spec.dim))
    for start in range(0, n, SAMPLE_BLOCK_ROWS):
        fresh = min(len(z), n - start)
        z[: len(z) - fresh] = z[fresh:]
        gen.standard_normal(out=z[len(z) - fresh :])
        stop = start + fresh
        np.matmul(z, L.T, out=out[stop - len(z) : stop])
    out += spec.mean
    return out


def conditional(spec: GaussianSpec, observed_indices, observed_values) -> GaussianSpec:
    """Law of the unobserved coordinates given exact values at the observed ones.

    Returns the conditional Gaussian over the unobserved coordinates in
    their original order. Observing every coordinate leaves nothing random:
    the result is then the point mass at the observed values (zero
    covariance, mean in the order the indices were given). A singular PSD
    observed block is conditioned through its pseudo-inverse; one that is
    indefinite beyond the jitter ladder raises NotPSDError.
    """
    obs = [int(i) for i in observed_indices]
    vals = np.asarray(observed_values, dtype=float).reshape(-1)
    if len(obs) != vals.size:
        raise ValueError(f"{len(obs)} observed indices but {vals.size} values")
    if len(set(obs)) != len(obs):
        raise ValueError("observed indices must be distinct")
    if any(i < 0 or i >= spec.dim for i in obs):
        raise ValueError(f"observed indices out of range for dimension {spec.dim}")
    free = [i for i in range(spec.dim) if i not in set(obs)]
    if not free:
        return GaussianSpec(vals, np.zeros((len(obs), len(obs))))
    k_t, cov = _regression(spec.cov, obs, free)
    return GaussianSpec(spec.mean[free] + k_t.T @ (vals - spec.mean[obs]), cov)


def _regression(cov: np.ndarray, obs: list[int], free: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Regression of the free coordinates on the observed ones.

    Returns K^T = Sigma_oo^+ Sigma_of and the residual covariance Sigma_ff - K Sigma_of, symmetrized.
    """
    s_oo = cov[np.ix_(obs, obs)]
    s_fo = cov[np.ix_(free, obs)]
    L, _ = factorize(s_oo)
    if np.all(np.diag(L) > 0.0):
        # K = Sigma_fo Sigma_oo^{-1} via two triangular solves on the factor.
        k_t = np.linalg.solve(L.T, np.linalg.solve(L, s_fo.T))
    else:
        k_t = np.linalg.pinv(s_oo, hermitian=True) @ s_fo.T
    res = cov[np.ix_(free, free)] - k_t.T @ s_fo.T
    return k_t, 0.5 * (res + res.T)
