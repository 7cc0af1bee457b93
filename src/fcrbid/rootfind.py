"""Scalar bisection helpers.

:func:`bisect_root` locates the band exits in ``max_feasible_bid`` and
:func:`bisect_threshold` the solver's stationary candidate.  Both run until
the bracket collapses to adjacent floats (at most 200 halvings), which keeps
every result exactly covariant under power-of-two rescaling of the inputs:
the midpoint of a scaled bracket is the scaled midpoint, bit for bit.
"""

BISECT_MAX_ITER = 200


def bisect_root(fn, lo, hi, f_lo=None, f_hi=None):
    """Locate a sign change of ``fn`` on [lo, hi] by bisection.

    Endpoint values may be passed in when already known.  ``fn`` must be
    monotone enough for the sign change to be unique; the returned point is
    the midpoint of the final one-ulp bracket.
    """
    if f_lo is None:
        f_lo = fn(lo)
    if f_hi is None:
        f_hi = fn(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise ValueError(f"root not bracketed on [{lo:g}, {hi:g}]")
    positive_left = f_lo > 0.0
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        f_mid = fn(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == positive_left:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bisect_threshold(pred, lo, hi):
    """Smallest point of [lo, hi] satisfying a monotone predicate.

    ``pred`` must be false at ``lo``, true at ``hi`` and switch once.
    Returns the upper end of the final bracket so the predicate holds at
    the returned point.
    """
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi
