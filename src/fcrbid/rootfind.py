"""Scalar bisection helper.

:func:`bisect_threshold` serves both bid searches: the largest deliverable
bid in ``max_feasible_bid`` and the solver's stationary candidate.  It runs
until the bracket collapses to adjacent floats (at most 200 halvings), which
keeps every result exactly covariant under power-of-two rescaling of the
inputs: the midpoint of a scaled bracket is the scaled midpoint, bit for bit.
"""

BISECT_MAX_ITER = 200


def bisect_threshold(pred, lo, hi):
    """End of the final one-ulp bracket at which a monotone predicate holds.

    ``pred`` must be false at ``lo``, true at ``hi`` and switch once between
    them; ``lo`` may lie above ``hi``.  Returns the ``hi`` end of the final
    bracket, so the predicate holds at the returned point.
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
