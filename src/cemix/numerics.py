"""Deterministic numerical utilities: the row-block thread pool, Cholesky,
root finding, and the normal CDF oracle."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np
from scipy.special import ndtr

from .errors import NoBracket, NotPositiveDefinite

# blocks write disjoint slices of one output: no result depends on the size
_POOL = ThreadPoolExecutor(os.cpu_count() or 1)


def _block_rows(d: int) -> int:
    """Rows per block of a d-column batch: ~2^16 words, at least 8192 to amortise the GIL."""
    return max(8192, 2 ** 16 // (d + 1))


def _step(n: int, size: int, parts: int = 1) -> int:
    """Length of near-equal blocks of range(n), at most size rows and a multiple of parts
    in number.  Blocks start on multiples of 16 rows, the widest BLAS kernel unroll: a
    row's matmul bits then do not depend on where the blocks fall."""
    unit = min(16, size)
    count = -(-n // (size // unit * unit))
    count = -(-count // parts) * parts
    return -(-n // (count * unit)) * unit


def _for_blocks(fn: Callable[[int, int], None], n: int, size: int):
    """fn(start, stop) for the _step blocks of range(n) on the pool, inline for one block.
    fn calls no public cemix callable: perfbench's tracer has one span stack."""
    if n <= size:
        return fn(0, n)
    step = _step(n, size, _POOL._max_workers)
    list(_POOL.map(lambda start: fn(start, min(start + step, n)), range(0, n, step)))


def cholesky(sigma: np.ndarray) -> np.ndarray:
    """Lower-triangular C with C @ C.T == sigma.

    Raises NotPositiveDefinite when sigma is not symmetric positive
    definite.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise NotPositiveDefinite("matrix must be square")
    if not np.allclose(sigma, sigma.T, atol=1e-12):
        raise NotPositiveDefinite("matrix must be symmetric")
    try:
        return np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc


def bisect_root(g: Callable[[float], float], lo: float, hi: float, tol: float = 1e-10) -> float:
    """Bisection root of a continuous monotone g on [lo, hi].

    The result is accurate to the final bracket width <= tol.  Raises
    NoBracket when g(lo) and g(hi) have the same strict sign.
    """
    glo, ghi = g(lo), g(hi)
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    if glo * ghi > 0:
        raise NoBracket(f"g({lo})={glo} and g({hi})={ghi} have the same sign")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if gm == 0.0:
            return mid
        if glo * gm < 0:
            hi = mid
        else:
            lo, glo = mid, gm
    return 0.5 * (lo + hi)


def normal_cdf(z) -> float:
    """Standard normal CDF, accurate to better than 1e-10."""
    return ndtr(z)
