"""Entangled-mode counts for continuous-variable generator sets.

Generators are rows of a real (Z part | X part) matrix; the pairwise
product matrix HX @ HZ^T - HZ @ HX^T is antisymmetric, and half its
numerical rank counts the entangled modes the set consumes.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .errors import InternalInvariantError, NonFiniteEntryError, ShapeError

__all__ = ["RealCheckMatrix", "cv_ebit_count", "numerical_rank"]

DEFAULT_TOLERANCE = 1e-10


class RealCheckMatrix(namedtuple("RealCheckMatrix", "hz hx tolerance")):
    """Real-valued (Z part, X part) pair with a rank-decision tolerance.

    ``tolerance``, in [0, 1), is relative to the largest absolute entry of
    the product matrix (at 1 or more every rank would read 0);
    near-threshold inputs are the caller's call to make.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, hz, hx, tolerance: float = DEFAULT_TOLERANCE):
        hz = np.array(hz, dtype=np.float64)
        hx = np.array(hx, dtype=np.float64)
        if hz.ndim != 2 or hx.ndim != 2:
            raise ShapeError("Z and X parts must be 2-D")
        if hz.shape != hx.shape:
            raise ShapeError("Z and X parts must have identical shape")
        if not (np.isfinite(hz).all() and np.isfinite(hx).all()):
            raise NonFiniteEntryError("check matrix entries must be finite")
        if not 0 <= tolerance < 1:
            raise ValueError(f"tolerance must be a nonnegative number below 1, got {tolerance}")
        hz.setflags(write=False)
        hx.setflags(write=False)
        return super().__new__(cls, hz, hx, tolerance)

    @property
    def n(self) -> int:
        return self.hz.shape[1]

    @property
    def generators(self) -> int:
        return self.hz.shape[0]


def numerical_rank(a: np.ndarray, relative_tolerance: float) -> int:
    """Pivot count of elimination with full pivoting on magnitude.

    Entries are treated as zero once the largest remaining magnitude
    drops to ``relative_tolerance`` times the largest magnitude of the
    original matrix.  Deterministic, no LAPACK involved.
    """
    work = np.array(a, dtype=np.float64)
    nrows, ncols = work.shape
    if nrows == 0 or ncols == 0:
        return 0
    reference = float(np.abs(work).max())
    if reference == 0.0:
        return 0
    # A power-of-two scale is exact; it keeps the elimination's growth finite.
    work = np.ldexp(work, -np.frexp(reference)[1])
    threshold = relative_tolerance * float(np.abs(work).max())
    for r in range(min(nrows, ncols)):
        sub = np.abs(work[r:, r:])
        pi, pj = divmod(int(sub.argmax()), sub.shape[1])
        if sub[pi, pj] <= threshold:
            return r
        work[[r, r + pi]] = work[[r + pi, r]]
        work[:, [r, r + pj]] = work[:, [r + pj, r]]
        below = work[r + 1 :, r:]
        below -= np.outer(below[:, 0] / work[r, r], work[r, r:])
    return min(nrows, ncols)


def cv_ebit_count(h: RealCheckMatrix) -> int:
    """Entangled modes consumed by a real generator set.

    The product matrix is formed once and antisymmetrized analytically,
    so antisymmetry holds exactly in floating point unless it overflows,
    which raises; the even-rank check still runs before halving.
    """
    with np.errstate(all="ignore"):
        half = h.hx @ h.hz.T
        omega = half - half.T
    if not np.isfinite(omega).all():
        raise NonFiniteEntryError("real product matrix overflowed the float64 range")
    skew_defect = np.abs(omega + omega.T).max() if omega.size else 0.0
    if skew_defect != 0.0:
        raise InternalInvariantError("real product matrix lost exact antisymmetry")
    r = numerical_rank(omega, h.tolerance)
    if r % 2:
        raise InternalInvariantError(f"real product matrix has odd numerical rank {r}")
    return r // 2
