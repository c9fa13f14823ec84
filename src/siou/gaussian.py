"""Dense multivariate Gaussian helpers: factorization, sampling, conditioning.

Sampling is deterministic by construction. A (seed, stream) pair addresses
an SFC64 bit generator through numpy's SeedSequence, the stream as its
spawn key, and standard normals come from the Generator's ziggurat
implementation, which is stable across runs on a given platform. Streams
are told apart by their spawn keys, never by jumping one generator ahead,
so a counter-based generator such as Philox would buy nothing here, and
SFC64 draws a standard normal in 0.6-0.7 of Philox's time (2 cores).
Parallel consumers should take distinct stream values rather than
partitioning one stream.

Factorization is Cholesky with one deflation rule. A row that is exactly
zero (a point start's origin, axis corners under the Lebesgue measure) or
that repeats an earlier row bit for bit (a repeated corner, two sheet
points with one support) is deflated: LAPACK factors the other rows once,
a zero row's factor row is 0 and a repeat takes its first copy's, so
degenerate components sample as constants or as their twins. If LAPACK
fails, a short jitter ladder of 1e-12, 1e-10 and 1e-8 times the largest
diagonal entry catches matrices that are indefinite only through
roundoff. Matrices that fail the whole ladder are reported as not positive
semidefinite together with their most negative eigenvalue (the offending
pivot scale).

:func:`_draw_rows` streams every factor draw (:func:`sample`,
``simulate_exact``, ``sheet.batch_paths``): it draws the normals in C order
and multiplies them ``SAMPLE_BLOCK_ROWS`` rows at a time into an output
padded to whole blocks, so it holds that output plus one block. The block
contract: every product has one shape, so with the same seed a run of at
least one block is the first rows of every longer run, at any width. A
shorter run is a product of its own length, which OpenBLAS may round
otherwise (n = 1 at d = 2, 3 and 8; n = 1, 2, 3 and 7 at d = 145).

:func:`factorize`'s LAPACK calls and :func:`_draw_rows`' block products run on
one OpenBLAS thread, whatever ``OPENBLAS_NUM_THREADS`` says, and the pool's
count is restored afterwards. LAPACK's factor of a Gram differs in the last
bits between thread counts, so draws made on the pool's count would follow
it; on siou's sizes a second thread also saves no wall time, while its
worker spins after every call. The count is reached through the OpenBLAS
that numpy loaded; under another BLAS nothing is set. It is one count per
process, so while such a call runs, BLAS work in other Python threads runs
on one thread too. The price shows on large products: at d = 1,025 the five
4,096-row blocks of 2e4 draws take 0.64-0.71 s on one thread against
0.32-0.41 s on two, warm (2 cores).
"""

from __future__ import annotations

import contextlib
import ctypes
import threading
from dataclasses import dataclass

import numpy as np
from numpy._core import _multiarray_umath

from .errors import NotPSDError

JITTER_LADDER = (0.0, 1e-12, 1e-10, 1e-8)

# Rows of normals :func:`_draw_rows` draws and multiplies at a time; ``simulate``'s replicate block.
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
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or not 0 <= v < 2**64:
                raise ValueError(f"{name} must be an integer in [0, 2^64), got {v!r}")
            object.__setattr__(self, name, int(v))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.SFC64(ss))

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
            _check_symmetric(cov)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.size


def _check_symmetric(cov: np.ndarray) -> None:
    """Raise ValueError when cov is asymmetric beyond SYMMETRY_RTOL of its largest entry (or of 1)."""
    scale = max(1.0, float(np.max(np.abs(cov))))
    if float(np.max(np.abs(cov - cov.T))) > SYMMETRY_RTOL * scale:
        raise ValueError("covariance is not symmetric")


def _first_copies(rows: np.ndarray) -> np.ndarray:
    """For each row, the index of the first row equal to it bit for bit."""
    firsts: dict[bytes, int] = {}
    return np.array([firsts.setdefault(row.tobytes(), i) for i, row in enumerate(rows)], dtype=int)


def _openblas_thread_calls():
    """(get, set) of the thread count of the OpenBLAS numpy calls into, or None under another BLAS.

    The symbols are looked up through numpy's own extension module, so they
    resolve to the library it loaded (scipy-openblas wheels prefix and
    suffix their names).
    """
    try:
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except OSError:
        return None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                put.argtypes, put.restype = (ctypes.c_int,), None
                return get, put
    return None


_OPENBLAS = _openblas_thread_calls()
# OpenBLAS's pool is one per process, so the scopes that hold it at one
# thread are counted per process: the first to open saves the count and
# the last to close restores it, whichever Python threads they run on.
_SCOPE_LOCK = threading.Lock()
_scopes_open = 0
_threads_before = 1


@contextlib.contextmanager
def _one_blas_thread():
    """Hold OpenBLAS at one thread inside the block, then restore its count; a no-op under another BLAS."""
    global _scopes_open, _threads_before
    if _OPENBLAS is None:
        yield
        return
    get, put = _OPENBLAS
    with _SCOPE_LOCK:
        if _scopes_open == 0:
            _threads_before = get()
            put(1)
        _scopes_open += 1
    try:
        yield
    finally:
        with _SCOPE_LOCK:
            _scopes_open -= 1
            if _scopes_open == 0:
                put(_threads_before)


def factorize(cov) -> tuple[np.ndarray, float]:
    """Cholesky factor of cov plus the jitter that made it work.

    Returns (L, jitter) with L @ L.T equal to cov + jitter * I. A row that
    is exactly zero, or that repeats an earlier row bit for bit, is
    deflated: LAPACK factors the other rows, a zero row of L stays 0 and a
    repeated row of L equals its first copy's, so degenerate components stay
    degenerate without jitter. If LAPACK fails, the jitter ladder, relative
    to the largest diagonal entry, factors the whole matrix; an exactly zero
    matrix factorizes to zero. Raises NotPSDError when the ladder runs out.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError(f"need a square matrix, got shape {cov.shape}")
    d = cov.shape[0]
    if d == 0:
        return np.zeros((0, 0)), 0.0
    _check_symmetric(cov)
    max_diag = float(np.max(np.diag(cov)))
    if max_diag <= 0.0:
        if not np.any(cov):
            return np.zeros((d, d)), 0.0
    else:
        owner = _first_copies(cov)
        kept = np.flatnonzero((owner == np.arange(d)) & cov.any(axis=1))
        with _one_blas_thread():
            try:
                if kept.size == d:
                    return np.linalg.cholesky(cov), 0.0
                low = np.zeros((d, d))
                low[np.ix_(kept, kept)] = np.linalg.cholesky(cov[np.ix_(kept, kept)])
                return low[owner], 0.0
            except np.linalg.LinAlgError:
                pass
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

    The draws are ``mean + z @ L.T`` for one ``(n, d)`` draw z and the
    :func:`factorize` factor L, made by :func:`_draw_rows` under the block
    contract. Past d = 256 OpenBLAS rounds a row by the product's shape, so
    for n > SAMPLE_BLOCK_ROWS a few draws differ from the one-shot product
    in the last bit (at d = 290, n = 8,200: 15 of 2.4e6 against it on one
    thread, 31 on two).
    """
    if n < 0:
        raise ValueError(f"need a nonnegative draw count, got {n}")
    return _draw_rows(factorize(spec.cov)[0], n, seed.generator(), spec.mean)


def _draw_rows(factor: np.ndarray, n: int, gen: np.random.Generator, mean) -> np.ndarray:
    """n rows ``mean + z @ factor.T`` for a ``(d, k)`` factor and standard normals z from ``gen``.

    Each whole block of z is multiplied into its own rows of the padded
    output on one OpenBLAS thread; the first n rows are returned.
    """
    z = np.empty((min(n, SAMPLE_BLOCK_ROWS), factor.shape[1]))
    out = _empty((-(-n // SAMPLE_BLOCK_ROWS) * len(z), factor.shape[0]))
    with _one_blas_thread():
        for start in range(0, n, SAMPLE_BLOCK_ROWS):
            rows = out[start : start + len(z)]
            gen.standard_normal(out=z)
            np.matmul(z, factor.T, out=rows)
            rows += mean
    return out[:n]


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
