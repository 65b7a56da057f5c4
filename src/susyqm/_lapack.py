"""Lowest eigenpairs of a real symmetric tridiagonal matrix through LAPACK.

``eigh_lowest`` runs what ``scipy.linalg.eigh_tridiagonal(d, e,
select="i")`` runs, and returns the same bits: DSTEBZ (bisection, RANGE='I',
ORDER='B', ABSTOL=0) for the eigenvalues, DSTEIN (inverse iteration) for
their vectors, then a sort into ascending order (LAPACK Users' Guide, 3rd
ed., SIAM 1999, on xSTEBZ/xSTEIN).  The two routines are called through
ctypes in the ILP64 OpenBLAS that numpy's wheels bundle and that importing
numpy has already loaded, so a solve does not import scipy, whose import
costs about 0.3 s per process.  Where numpy carries no such library (a
numpy built on MKL, Accelerate or a system BLAS) the solve falls back to
scipy.
"""

from __future__ import annotations

import ctypes
import functools

import numpy as np

from .errors import ConvergenceError

_INT = ctypes.c_int64  # ILP64: every LAPACK INTEGER is 64 bits wide


@functools.cache
def _openblas():
    """numpy's bundled ``(dstebz, dstein)``, or None where numpy has none.

    ``dlsym`` on numpy's core extension also searches the libraries it was
    linked against, which is where the wheels' ``libscipy_openblas64_``
    sits.  The ``_64_`` suffix marks the ILP64 build the prototypes below
    assume; a library without these exact names is never called.
    """
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        stebz, stein = lib.scipy_dstebz_64_, lib.scipy_dstein_64_
    except (AttributeError, OSError):
        return None
    i, d, buf = ctypes.POINTER(_INT), ctypes.POINTER(ctypes.c_double), ctypes.c_void_p
    # DSTEBZ(RANGE, ORDER, N, VL, VU, IL, IU, ABSTOL, D, E, M, NSPLIT, W,
    #        IBLOCK, ISPLIT, WORK, IWORK, INFO), then the hidden lengths of
    #        the two CHARACTER arguments
    stebz.argtypes = [ctypes.c_char_p, ctypes.c_char_p, i, d, d, i, i, d, buf, buf,
                      i, i, buf, buf, buf, buf, buf, i, ctypes.c_size_t, ctypes.c_size_t]
    # DSTEIN(N, D, E, M, W, IBLOCK, ISPLIT, Z, LDZ, WORK, IWORK, IFAIL, INFO)
    stein.argtypes = [i, buf, buf, i, buf, buf, buf, buf, i, buf, buf, buf, i]
    stebz.restype = stein.restype = None
    return stebz, stein


def _check_inputs(d: np.ndarray, e: np.ndarray, k: int) -> None:
    """Reject what would make the LAPACK call read or write out of bounds."""
    if not isinstance(k, (int, np.integer)):
        raise ValueError(f"k={k!r} must be an integer")
    if k < 1:
        raise ValueError(f"k={k} must be at least 1")
    for name, a in (("diagonal", d), ("off-diagonal", e)):
        if a.dtype != np.float64 or a.ndim != 1 or not a.flags.c_contiguous:
            raise ValueError(f"{name} must be a C-contiguous 1-D float64 array")
    if e.size != d.size - 1:
        raise ValueError(f"off-diagonal length {e.size} does not fit diagonal length {d.size}")
    if k > d.size:
        raise ValueError(f"k={k} exceeds matrix dimension {d.size}")


def _check_info(routine: str, info: int) -> None:
    """Map a LAPACK ``INFO`` to an exception: > 0 did not converge, < 0 misuse."""
    if info < 0:
        raise RuntimeError(f"internal error: {routine} rejected argument {-info}")
    if info > 0:
        failed = (f"{info} eigenvector(s) did not converge" if routine == "dstein"
                  else f"bisection did not converge (INFO={info})")
        raise ConvergenceError(f"tridiagonal eigensolver failed: {routine}: {failed}")


def eigh_lowest(d: np.ndarray, e: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k lowest eigenvalues, ascending, and their eigenvectors as rows.

    ``d`` is the diagonal and ``e`` the off-diagonal; both must be finite.
    """
    _check_inputs(d, e, k)
    n = d.size
    routines = _openblas()
    if routines is None:
        return _scipy_lowest(d, e, k)
    stebz, stein = routines
    m, nsplit, info = _INT(), _INT(), _INT()
    w = np.empty(n)
    iblock, isplit = np.empty(n, np.int64), np.empty(n, np.int64)
    work, iwork = np.empty(5 * n), np.empty(3 * n, np.int64)  # 4n, 3n for dstebz; 5n, n for dstein
    ref = ctypes.byref
    zero, n_ = ctypes.c_double(0.0), _INT(n)
    stebz(b"I", b"B", ref(n_), ref(zero), ref(zero), ref(_INT(1)), ref(_INT(k)), ref(zero),
          d.ctypes.data, e.ctypes.data, ref(m), ref(nsplit), w.ctypes.data,
          iblock.ctypes.data, isplit.ctypes.data, work.ctypes.data, iwork.ctypes.data,
          ref(info), 1, 1)
    _check_info("dstebz", info.value)
    found = m.value  # k, as INFO is 0
    vecs, ifail = np.empty((found, n)), np.empty(found, np.int64)  # rows are DSTEIN's columns
    stein(ref(n_), d.ctypes.data, e.ctypes.data, ref(m), w.ctypes.data,
          iblock.ctypes.data, isplit.ctypes.data, vecs.ctypes.data, ref(n_),
          work.ctypes.data, iwork.ctypes.data, ifail.ctypes.data, ref(info))
    _check_info("dstein", info.value)
    order = np.argsort(w[:found])  # ORDER='B' groups by split block; scipy's sort
    return w[order], vecs[order]


def _scipy_lowest(d, e, k):
    from scipy.linalg import eigh_tridiagonal

    try:
        vals, vecs = eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(f"tridiagonal eigensolver failed: {exc}") from exc
    return vals, vecs.T
