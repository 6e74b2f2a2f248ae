"""Entangled-mode counts for continuous-variable generator sets.

Generators are rows of a real (Z part | X part) matrix; the pairwise
product matrix HX @ HZ^T - HZ @ HX^T is antisymmetric, and half its
numerical rank counts the entangled modes the set consumes.
"""

from __future__ import annotations

import numpy as np

from .errors import InternalInvariantError, NonFiniteEntryError, ShapeError

__all__ = ["DEFAULT_TOLERANCE", "cv_ebit_count", "numerical_rank"]

DEFAULT_TOLERANCE = 1e-10


def numerical_rank(a: np.ndarray, relative_tolerance: float) -> int:
    """Pivot count of elimination with full pivoting on magnitude.

    Entries are treated as zero once the largest remaining magnitude
    drops to ``relative_tolerance`` times the largest magnitude of the
    original matrix; that tolerance must lie in [0, 1), since at 1 or
    more every rank would read 0.  Deterministic, no LAPACK involved.
    """
    if not 0 <= relative_tolerance < 1:  # also rejects NaN
        raise ValueError(
            f"tolerance must be a nonnegative number below 1, got {relative_tolerance}"
        )
    work = np.array(a, dtype=np.float64)
    nrows, ncols = work.shape
    if nrows == 0 or ncols == 0:
        return 0
    reference = float(np.abs(work).max())
    if reference == 0.0:
        return 0
    # A power-of-two scale is exact: it keeps the elimination's growth finite,
    # and the largest magnitude becomes the mantissa of `reference`.
    mantissa, exponent = np.frexp(reference)
    work = np.ldexp(work, -exponent)
    threshold = relative_tolerance * float(mantissa)
    for r in range(min(nrows, ncols)):
        sub = np.abs(work)  # `work` is the trailing block still to be eliminated
        pi, pj = divmod(int(sub.argmax()), sub.shape[1])
        if sub[pi, pj] <= threshold:
            return r
        work[[0, pi]] = work[[pi, 0]]
        work[:, [0, pj]] = work[:, [pj, 0]]
        work = work[1:, 1:] - np.outer(work[1:, 0] / work[0, 0], work[0, 1:])
    return min(nrows, ncols)


def cv_ebit_count(
    hz: np.typing.ArrayLike, hx: np.typing.ArrayLike, tolerance: float = DEFAULT_TOLERANCE
) -> int:
    """Entangled modes consumed by a real generator set (HZ | HX).

    The parts are read as float64 arrays, which must be 2-D, of one
    shape, and finite.  ``tolerance`` decides the rank as in
    :func:`numerical_rank`.  The product matrix half - half^T is exactly
    antisymmetric in floating point, as fl(a - b) = -fl(b - a); an
    overflow raises.
    """
    hz = np.asarray(hz, dtype=np.float64)
    hx = np.asarray(hx, dtype=np.float64)
    if hz.ndim != 2 or hx.ndim != 2:
        raise ShapeError("Z and X parts must be 2-D")
    if hz.shape != hx.shape:
        raise ShapeError("Z and X parts must have identical shape")
    if not (np.isfinite(hz).all() and np.isfinite(hx).all()):
        raise NonFiniteEntryError("check matrix entries must be finite")
    with np.errstate(all="ignore"):
        half = hx @ hz.T
        omega = half - half.T
    if not np.isfinite(omega).all():
        raise NonFiniteEntryError("real product matrix overflowed the float64 range")
    r = numerical_rank(omega, tolerance)
    if r % 2:
        raise InternalInvariantError(f"real product matrix has odd numerical rank {r}")
    return r // 2
