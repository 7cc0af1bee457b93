"""Threshold searches for the bids.  Every bid is settled by
:func:`last_true` onto the last float a predicate admits, from a guess: a
closed form, a kink or line root of a discrete law's piece, or the bids at
the ends of a Newton bracket in u.  Bisection runs until the bracket
collapses to adjacent floats (at most 200 halvings), which keeps every
result exactly covariant under power-of-two rescaling of the inputs.
"""

import math

BISECT_MAX_ITER = 200


def bisect_threshold(pred, lo, hi):
    """Final one-ulp bracket (lo, hi) of a monotone predicate.

    ``pred`` must be false at ``lo``, true at ``hi`` and switch once between
    them; ``lo`` may lie above ``hi``.
    """
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def last_true(pred, lo, hi):
    """Largest float >= 0 where ``pred`` holds and fails at the next float up,
    from a guess [lo, hi] of the bracket; ``pred`` holds at 0 and fails far
    out.  An end on the wrong side moves outward by doubling steps, then bisect;
    no point is tested twice."""
    lo = max(lo, 0.0)
    hi = max(hi, math.nextafter(lo, math.inf))
    step = hi - lo
    holds = pred(lo)
    while holds and pred(hi):
        lo, hi, step = hi, hi + step, 2.0 * step
    while not holds:
        lo, hi, step = max(lo - step, 0.0), lo, 2.0 * step
        holds = pred(lo)
    return bisect_threshold(lambda x: not pred(x), lo, hi)[0]
