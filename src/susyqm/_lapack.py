"""Lowest eigenvalues of real symmetric tridiagonal and banded matrices through LAPACK.

``eigh_lowest`` runs what ``scipy.linalg.eigh_tridiagonal(d, e,
select="i")`` runs, and returns the same bits: DSTEBZ (bisection, RANGE='I',
ORDER='B', ABSTOL=0) for the eigenvalues, DSTEIN (inverse iteration) for
their vectors, then a sort into ascending order (LAPACK Users' Guide, 3rd
ed., SIAM 1999, on xSTEBZ/xSTEIN).  ``band_lowest`` runs what
``scipy.linalg.eigvals_banded(band, lower=True, select="i",
select_range=(0, 0))`` runs on a pentadiagonal band, with the same bits:
DSBEVX (JOBZ='N', RANGE='I', IL = IU = 1) with scipy's ABSTOL,
2·DLAMCH('S'), twice the safe minimum, which asks the bisection for full
accuracy (LAPACK Users' Guide, on xSBEVX).  The routines are called through
ctypes in the ILP64 OpenBLAS that numpy's wheels bundle and that importing
numpy has already loaded, so no call imports scipy, whose import costs
about 0.2 s and 28 MB per process.  Where numpy carries no such library (a
numpy built on MKL, Accelerate or a system BLAS) both entries fall back to
scipy, which is then the ``scipy`` extra.
"""

from __future__ import annotations

import ctypes
import functools

import numpy as np

from .errors import ConvergenceError, SusyQMError

_INT = ctypes.c_int64  # ILP64: every LAPACK INTEGER is 64 bits wide


@functools.cache
def _openblas():
    """numpy's bundled ``(dstebz, dstein, dsbevx, dlamch)``, or None where
    numpy has none.

    ``dlsym`` on numpy's core extension also searches the libraries it was
    linked against, which is where the wheels' ``libscipy_openblas64_``
    sits.  The ``_64_`` suffix marks the ILP64 build the prototypes below
    assume; a library without these exact names is never called.
    """
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        stebz, stein = lib.scipy_dstebz_64_, lib.scipy_dstein_64_
        sbevx, lamch = lib.scipy_dsbevx_64_, lib.scipy_dlamch_64_
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
    # DSBEVX(JOBZ, RANGE, UPLO, N, KD, AB, LDAB, Q, LDQ, VL, VU, IL, IU,
    #        ABSTOL, M, W, Z, LDZ, WORK, IWORK, IFAIL, INFO), then three lengths
    sbevx.argtypes = [ctypes.c_char_p, ctypes.c_char_p, ctypes.c_char_p, i, i, buf, i, buf,
                      i, d, d, i, i, d, i, buf, buf, i, buf, buf, buf, i,
                      ctypes.c_size_t, ctypes.c_size_t, ctypes.c_size_t]
    # DLAMCH(CMACH), then its length
    lamch.argtypes = [ctypes.c_char_p, ctypes.c_size_t]
    lamch.restype = ctypes.c_double
    stebz.restype = stein.restype = sbevx.restype = None
    return stebz, stein, sbevx, lamch


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
    stebz, stein, _, _ = routines
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


def _checked_band(band) -> np.ndarray:
    """band as float64; ValueError unless it is a finite (5, m) array, m ≥ 1.

    DSBEVX reads LDAB × N doubles from its rows 2–4, so a band of another
    shape would be solved as a matrix of another width or read past its end.
    """
    a = np.asarray(band)
    if a.dtype.kind not in "biuf":
        got = f"dtype {a.dtype}"
    elif a.ndim != 2 or a.shape[0] != 5 or a.shape[1] < 1:
        got = f"shape {a.shape}"
    elif not np.isfinite(a).all():
        got = "entries that are not finite"
    else:
        return a.astype(np.float64, copy=False)
    raise ValueError(f"band must be a finite float64 array of shape (5, m), m >= 1; got {got}")


def band_lowest(band) -> np.ndarray:
    """The lowest eigenvalue of a symmetric pentadiagonal matrix, as a
    one-element array.

    ``band`` is its offset-major band: row k holds the entries (i, i+k−2)
    for i = 0…m−1.  Rows 2–4 hold diagonals 0, 1 and 2 from column 0, which
    is LAPACK's lower band storage; rows 0–1 are not read.  Anything that
    converts to a finite float64 array of shape (5, m), m ≥ 1, is accepted,
    and anything else raises ValueError before LAPACK is called.
    """
    lower = _checked_band(band)[2:]
    routines = _openblas()
    if routines is None:
        return _scipy_band_lowest(lower)
    _, _, sbevx, lamch = routines
    n = lower.shape[1]
    ab = lower.T.copy()  # the Fortran (3, n) layout; DSBEVX overwrites it
    m, info = _INT(), _INT()
    w, z, q = np.empty(n), np.empty(1), np.empty(1)  # Q and Z unread with JOBZ='N'
    work, iwork, ifail = np.empty(7 * n), np.empty(5 * n, np.int64), np.empty(n, np.int64)
    abstol = ctypes.c_double(2.0 * lamch(b"S", 1))
    ref, zero, one = ctypes.byref, ctypes.c_double(0.0), _INT(1)
    sbevx(b"N", b"I", b"L", ref(_INT(n)), ref(_INT(2)), ab.ctypes.data, ref(_INT(3)),
          q.ctypes.data, ref(one), ref(zero), ref(zero), ref(one), ref(one), ref(abstol),
          ref(m), w.ctypes.data, z.ctypes.data, ref(one), work.ctypes.data,
          iwork.ctypes.data, ifail.ctypes.data, ref(info), 1, 1, 1)
    _check_info("dsbevx", info.value)
    return w[:m.value]


def _scipy_linalg():
    """scipy.linalg, for the fallbacks; SusyQMError naming the extra if absent."""
    try:
        import scipy.linalg
    except ImportError:
        raise SusyQMError("no LAPACK: numpy bundles no ILP64 OpenBLAS and scipy is not "
                          "installed; pip install 'susyqm[scipy]'") from None
    return scipy.linalg


def _scipy_band_lowest(lower):
    return _scipy_linalg().eigvals_banded(lower, lower=True, select="i", select_range=(0, 0))


def _scipy_lowest(d, e, k):
    eigh_tridiagonal = _scipy_linalg().eigh_tridiagonal
    try:
        vals, vecs = eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(f"tridiagonal eigensolver failed: {exc}") from exc
    return vals, vecs.T
