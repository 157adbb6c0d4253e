"""Deterministic numerical utilities: the row-block thread pool, Cholesky,
root finding, the normal CDF oracle, and the loader of scipy's ndtr and ndtri
ufuncs that skips scipy.special's package __init__."""

from __future__ import annotations

import importlib.util
import os
import sys
import types
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

from .errors import NoBracket, NotPositiveDefinite


def _load_normal_ufuncs() -> tuple:
    """(ndtr, ndtri), the same objects as scipy.special's.  Its package __init__ loads
    scipy's array-API layer, more modules than cemix and numpy together, so they come
    from the compiled scipy.special._ufuncs, imported under a stub package that holds
    only the real __path__ and never outlives the import."""
    if "scipy.special" not in sys.modules:
        stub = types.ModuleType("scipy.special")
        stub.__path__ = importlib.util.find_spec("scipy.special").submodule_search_locations
        sys.modules["scipy.special"] = stub
        try:
            from scipy.special._ufuncs import ndtr, ndtri
            return ndtr, ndtri
        except ImportError:  # _ufuncs is private: a scipy that moved it takes the package
            pass
        finally:
            del sys.modules["scipy.special"]
    from scipy.special import ndtr, ndtri
    return ndtr, ndtri


ndtr, ndtri = _load_normal_ufuncs()

# blocks write disjoint slices of one output: no result depends on the size
_POOL = ThreadPoolExecutor(os.cpu_count() or 1)

# multiply-adds per product slice: OpenBLAS runs a product this small on the calling
# thread, so none of its threads wakes to spin against the pool and no product's bits
# depend on its thread count
_PRODUCT_MADDS = 2 ** 18


def _block_rows(d: int, words: int = 2 ** 16) -> int:
    """Rows per block of d columns: ~words words (2^16 for a final pass, 2^15 for a pilot),
    at least 4096 to amortise the GIL; a final block is twice a pilot one for d < 8."""
    return max(4096, words // (d + 1))


def _blocks(n: int, size: int) -> list:
    """The row partition of every pool pass and serial row loop: near-equal slices of
    range(n), at most size rows each (size < 1 counts as 1), none for n = 0.  They
    depend on n and size only, never on the pool size.  Slices start on multiples of
    16 rows, the widest BLAS kernel unroll: a row's matmul bits then do not depend on
    where the slices fall."""
    size = max(size, 1)
    unit = min(16, size)
    count = -(-max(n, 1) // (size // unit * unit))
    step = -(-max(n, 1) // (count * unit)) * unit
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _map(fn: Callable, items) -> list:
    """[fn(item) for item in items] in order, on the pool; inline for one item.  fn calls
    no public cemix callable: perfbench's tracer has one span stack.  If fn raises, _map
    raises the exception of the first failing item, for any pool size: Executor.map
    yields in order."""
    if len(items) <= 1:
        return [fn(item) for item in items]
    return list(_POOL.map(fn, items))


def _submit(fn: Callable, items) -> list:
    """The futures of fn(item) on the pool, not waited for; fn is as for _map."""
    return [_POOL.submit(fn, item) for item in items]


def _fold_columns(op, columns) -> np.ndarray:
    """The binary ufunc op folded left over the 1-d columns into a copy of the first,
    op(op(c0, c1), c2)...: a row reduction such as max(axis=1) that loops along the rows."""
    columns = iter(columns)
    out = np.array(next(columns))
    for column in columns:
        op(out, column, out=out)
    return out


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

    The result is accurate to the final bracket width: <= tol, or two adjacent
    doubles, which a finite bracket narrows to in at most 2099 halvings.  Raises
    NoBracket when lo or hi is not finite or nonzero g(lo) and g(hi) share a sign.
    """
    if not np.all(np.isfinite([lo, hi])):
        raise NoBracket(f"bracket [{lo}, {hi}] is not finite")
    glo, ghi = g(lo), g(hi)
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    if (glo > 0) == (ghi > 0):  # signs, not the product, which can overflow
        raise NoBracket(f"g({lo})={glo} and g({hi})={ghi} have the same sign")
    while hi - lo > tol:
        mid = 0.5 * lo + 0.5 * hi  # 0.5 * (lo + hi) without overflow
        gm = g(mid)
        if gm == 0.0 or mid in (lo, hi):  # a root, or adjacent doubles
            return mid
        if (gm > 0) != (glo > 0):
            hi = mid
        else:
            lo, glo = mid, gm
    return 0.5 * lo + 0.5 * hi


def normal_cdf(z) -> float:
    """Standard normal CDF, accurate to better than 1e-10."""
    return ndtr(z)
