"""Eigenvalues of a symmetric-definite banded pencil through LAPACK's dsbgvx.

scipy.linalg.lapack wraps no banded generalized solver, but
scipy.linalg.cython_lapack exports dsbgvx as a C function pointer in a
PyCapsule; ctypes binds it once, at import. Only eigenvalues are asked for
(JOBZ='N'): dsbgvx's eigenvectors come through a dense n x n transform.
"""

from __future__ import annotations

import ctypes

import numpy as np
from scipy.linalg import cython_lapack

from .errors import EigFailure, NotPositiveDefinite


def _capsule_address(capsule) -> int:
    name = ctypes.pythonapi.PyCapsule_GetName
    name.restype, name.argtypes = ctypes.c_char_p, [ctypes.py_object]
    pointer = ctypes.pythonapi.PyCapsule_GetPointer
    pointer.restype, pointer.argtypes = ctypes.c_void_p, [ctypes.py_object, ctypes.c_char_p]
    return pointer(capsule, name(capsule))


_C, _I, _D = ctypes.c_char_p, ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_double)
# JOBZ RANGE UPLO N KA KB AB LDAB BB LDBB Q LDQ VL VU IL IU ABSTOL M W Z LDZ WORK IWORK IFAIL INFO
_DSBGVX = ctypes.CFUNCTYPE(None, _C, _C, _C, _I, _I, _I, _D, _I, _D, _I, _D, _I, _D, _D,
                           _I, _I, _D, _I, _D, _D, _I, _D, _I, _I, _I)(
    _capsule_address(cython_lapack.__pyx_capi__["dsbgvx"]))
_ABSTOL = 2.0 * np.finfo(float).tiny  # bisection to full accuracy


def _int(value: int):
    return ctypes.byref(ctypes.c_int(value))


def _double(value: float):
    return ctypes.byref(ctypes.c_double(value))


def _ptr(arr: np.ndarray, kind=_D):
    return arr.ctypes.data_as(kind)


def pencil_eigvals(a_band: np.ndarray, b_band: np.ndarray, *,
                   index: int | tuple[int, int] | None = None,
                   interval: tuple[float, float] | None = None) -> np.ndarray:
    """Eigenvalues of the pencil (A, B), B positive definite, ascending.

    Both matrices come in upper band storage, a_band[w + i - j, j] = A[i, j]
    for i <= j, with the same half-bandwidth w. Exactly one selector: the
    index-th smallest eigenvalue (1-based), the il-th to iu-th smallest for
    an inclusive 1-based index range (il, iu), or those in the half-open
    interval (lo, hi]. Neither band array is modified. A B that is not
    positive definite raises NotPositiveDefinite, any other LAPACK failure
    EigFailure.
    """
    rows, n = a_band.shape
    il, iu = (0, 0) if index is None else index if isinstance(index, tuple) else (index, index)
    # dsbgvx writes through these pointers: sizes are checked before it runs
    if b_band.shape != a_band.shape or (interval is None) == (index is None) or (
            index is not None and not 1 <= il <= iu <= n):
        raise ValueError(f"bad banded pencil call: shapes {a_band.shape}, {b_band.shape}, "
                         f"index {index}, interval {interval}")
    ab = np.array(a_band, dtype=float, order="F")
    bb = np.array(b_band, dtype=float, order="F")
    lo, hi = (0.0, 0.0) if interval is None else interval
    values, unused = np.zeros(n), np.zeros(1)
    work, iwork, ifail = np.zeros(7 * n), np.zeros(5 * n, np.intc), np.zeros(n, np.intc)
    found, info = ctypes.c_int(0), ctypes.c_int(0)
    _DSBGVX(b"N", b"I" if interval is None else b"V", b"U", _int(n), _int(rows - 1),
            _int(rows - 1), _ptr(ab), _int(rows), _ptr(bb), _int(rows), _ptr(unused), _int(1),
            _double(lo), _double(hi), _int(il), _int(iu), _double(_ABSTOL),
            ctypes.byref(found), _ptr(values), _ptr(unused), _int(1), _ptr(work),
            _ptr(iwork, _I), _ptr(ifail, _I), ctypes.byref(info))
    if info.value > n:
        raise NotPositiveDefinite(
            f"banded Gram matrix is not positive definite (dsbgvx info {info.value})")
    if info.value != 0:
        raise EigFailure(f"banded pencil eigensolve failed (dsbgvx info {info.value})")
    return values[:found.value]
