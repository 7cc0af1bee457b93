"""The implicit purchase function behind a regulation bid.

A storage device that sells regulation power must also buy a baseline of
energy so that the expected drift of its state of charge stays on target.
This module evaluates that coupling, one float bid at a time:

* :func:`expected_charge_rate` -- mean drift of the state of charge for a
  given purchase and bid;
* :func:`purchase_power` -- the purchase required to hold the drift target,
  and :func:`purchase_power_many`, the one array entry point, which maps it;
* :func:`purchase_slopes` -- one-sided derivatives of the purchase with
  respect to the bid;
* :func:`asymptotic_slope` / :func:`slope_bounds` -- the marginal purchase
  per unit of bid in the large-bid limit, and closed-form brackets for it;
* :func:`purchase_bounds` -- closed-form envelopes of the whole purchase
  curve, valid for every distribution with the same mean absolute
  deviation.

The rate is 1-homogeneous in (purchase, bid): rate(xb, xr) = xr * g(xb / xr)
with g(u) = eta_plus * u - drain * scdf(-u), strictly increasing in u.  At a
given bid the purchase and its slopes come from one scalar Newton inverse of
g, each step taking scdf(-u) and both limits of F(-u) from one evaluation of
the law, and the slopes reuse the last step's; a bid too small to divide by
gets the zero-bid answers, exact beyond the support.  The stationary bid's
search goes the other way: at a purchase per unit of bid u the bid
drift_target / g(u), the purchase bid * u and the slopes are explicit, and
under a discrete law g is affine between atoms.

Powers are in kW, energies in kWh; deviations are normalised to [-1, 1].
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .distributions import DeviationDistribution
from .errors import AssumptionError
from .rootfind import BISECT_MAX_ITER

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "EfficiencyPair",
    "PurchaseContext",
    "expected_charge_rate",
    "asymptotic_slope",
    "slope_bounds",
    "purchase_power",
    "purchase_power_many",
    "purchase_slopes",
    "purchase_bounds",
]


@dataclass(frozen=True)
class EfficiencyPair:
    """Charging and discharging efficiencies, both in (0, 1]."""

    eta_plus: float
    eta_minus: float

    def __post_init__(self):
        for name in ("eta_plus", "eta_minus"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {v}")

    @property
    def roundtrip(self) -> float:
        return self.eta_plus * self.eta_minus

    @property
    def drain(self) -> float:
        """Energy lost per unit of balanced charge/discharge activity."""
        return 1.0 / self.eta_minus - self.eta_plus


def expected_charge_rate(xb, xr, eff: EfficiencyPair, dist: DeviationDistribution) -> float:
    """Expected drift of the state of charge, in kW.

    Parameters
    ----------
    xb : float
        Baseline purchase power (may be negative: net selling).
    xr : float
        Regulation bid, nonnegative.
    eff, dist
        Efficiencies and deviation law of the regulation signal.

    Returns
    -------
    float
        eta_plus * xb - drain * xr * scdf(-xb / xr); at ``xr = 0`` (or where
        xb / xr overflows) the limit eta_plus * [xb]+ - [xb]- / eta_minus.

    Notes
    -----
    Strictly increasing in ``xb`` and nonincreasing in ``xr``.
    """
    xb, xr = float(xb), float(xr)
    if xr < 0.0:
        raise ValueError("bid must be nonnegative")
    if xr == 0.0 or math.isinf(u := xb / xr):
        return eff.eta_plus * xb - eff.drain * max(-xb, 0.0)
    if xr < sys.float_info.min:
        # drain * xr would round a subnormal bid away; xr * scdf(-u) keeps its bits.
        return eff.eta_plus * xb - eff.drain * (xr * dist.scdf(-u))
    return eff.eta_plus * xb - eff.drain * xr * dist.scdf(-u)


def _inverse_unit_rate(v: float, eff: EfficiencyPair, dist: DeviationDistribution) -> tuple:
    """Purchase per unit of bid, u, solving g(u) = v, and the law values
    ``scdf_cdf(-u)`` of the last Newton step, taken at that u.

    g(u) = eta_plus * u - drain * scdf(-u) is increasing and concave, with
    g'(u) = eta_plus + drain * F(-u), both from one ``scdf_cdf`` call per
    step; either one-sided CDF limit is a supergradient, so a Newton tangent
    never overshoots the root.  The start inverts min(eta_plus * u,
    u / eta_minus), which lies above g, so it sits below the root; Newton
    then climbs and stops once the iterate no longer rises.  The result
    depends on v alone, which keeps purchases exactly covariant under
    power-of-two rescaling of the bid and the target.
    """
    eta_p, drain = eff.eta_plus, eff.drain
    u = max(v / eta_p, eff.eta_minus * v)
    phi, f_left, f = dist.scdf_cdf(-u)
    for _ in range(BISECT_MAX_ITER):
        new = u - (eta_p * u - drain * phi - v) / (eta_p + drain * f)
        if not new > u:
            break
        u = new
        phi, f_left, f = dist.scdf_cdf(-u)
    return u, phi, f_left, f


def asymptotic_slope(eff: EfficiencyPair, dist: DeviationDistribution) -> float:
    """Marginal purchase per unit of bid in the large-bid limit.

    The unique fixed point in [0, 1) of  s = (1 - roundtrip) * scdf(s); by
    the scdf symmetry identity this is the root of g(s) = 0, the purchase
    per unit of bid that holds a balanced target.
    """
    if 1.0 - (1.0 - eff.roundtrip) * dist.scdf(1.0) <= 0.0:
        raise AssumptionError(
            "deviation law too heavy for the efficiency: no slope below one"
        )
    return _inverse_unit_rate(0.0, eff, dist)[0]


def slope_bounds(eff: EfficiencyPair, mad: float) -> tuple[float, float]:
    """Closed-form bracket of the asymptotic slope over all laws with this mad.

    The bounds are the exact slopes under the two-point and three-point
    extremal distributions.
    """
    a = eff.roundtrip
    lower = mad * (1.0 - a) / (1.0 + a)
    upper = 1.0 - 1.0 / (1.0 + (1.0 / a - 1.0) * mad / 2.0)
    return lower, upper


@dataclass(frozen=True, eq=False)
class PurchaseContext:
    """One problem's efficiencies, deviation law and drift target.

    ``drift_target`` is the required mean rate of change of the state of
    charge in kW, i.e. (target - initial) / horizon.  The asymptotic slope
    is computed once at construction.
    """

    eff: EfficiencyPair
    dist: DeviationDistribution
    drift_target: float
    slope: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "slope", asymptotic_slope(self.eff, self.dist))

    @property
    def base_purchase(self) -> float:
        """Purchase power at zero bid (deterministic charging or discharging)."""
        d = self.drift_target
        return d / self.eff.eta_plus if d >= 0.0 else self.eff.eta_minus * d


def purchase_power(xr: float, ctx: PurchaseContext) -> float:
    """Baseline purchase holding the drift target at bid ``xr``.

    Nondecreasing and convex in ``xr``.  For a balanced target the curve is
    exactly ``slope * xr``; otherwise it is xr * u with u the Newton inverse
    of the per-unit-bid rate g at drift_target / xr, or the zero-bid
    purchase where u overflows.
    """
    xr = float(xr)
    if xr < 0.0:
        raise ValueError("bid must be nonnegative")
    if xr == 0.0:
        return ctx.base_purchase
    if ctx.drift_target == 0.0:
        return ctx.slope * xr
    u = _inverse_unit_rate(ctx.drift_target / xr, ctx.eff, ctx.dist)[0]
    return ctx.base_purchase if math.isinf(u) else xr * u


def purchase_power_many(xr, ctx: PurchaseContext) -> np.ndarray:
    """:func:`purchase_power` at every bid of an array, in its shape."""
    import numpy as np
    xr = np.asarray(xr, dtype=float)
    return np.array([purchase_power(x, ctx) for x in np.ravel(xr)], dtype=float).reshape(xr.shape)


def purchase_slopes(xr: float, ctx: PurchaseContext) -> tuple[float, float]:
    """One-sided derivatives (left, right) of the purchase at bid ``xr``.

    Both lie in [0, slope] and the pair is nondecreasing: the purchase curve
    is convex.  A balanced target's purchase slope * xr gives (slope, slope)
    at every bid.  Otherwise both come from the one-sided CDF limits at the
    active deviation ratio and differ at a kink (discrete deviation law); at
    ``xr = 0``, and at a bid too small to divide by, both report the right
    derivative, zero.
    """
    return _purchase_point(xr, ctx)[1:]


def _purchase_point(xr: float, ctx: PurchaseContext) -> tuple[float, float, float]:
    """Purchase and slopes (left, right) at bid ``xr``: :func:`purchase_power`
    and :func:`purchase_slopes` from one inverse of g and its last law values."""
    xr = float(xr)
    if xr < 0.0:
        raise ValueError("bid must be nonnegative")
    if ctx.drift_target == 0.0:
        return ctx.slope * xr, ctx.slope, ctx.slope
    if xr == 0.0:
        return ctx.base_purchase, 0.0, 0.0
    u, phi, f_left, f_right = _inverse_unit_rate(ctx.drift_target / xr, ctx.eff, ctx.dist)
    if math.isinf(u):
        return ctx.base_purchase, 0.0, 0.0
    eta_p, drain = ctx.eff.eta_plus, ctx.eff.drain
    s1 = drain * (phi + u * f_left) / (eta_p + drain * f_left)
    s2 = drain * (phi + u * f_right) / (eta_p + drain * f_right)
    return xr * u, min(s1, s2), max(s1, s2)


def purchase_bounds(xr: float, ctx: PurchaseContext) -> tuple[float, float]:
    """Closed-form envelopes of the purchase curve at bid ``xr``.

    Returns ``(lower, upper)``.  The envelopes are the exact purchase curves
    under the two-point and three-point extremal laws with the context's
    mean absolute deviation, so they sandwich the purchase for every
    deviation law with that mad.
    """
    x = float(xr)
    if x < 0.0:
        raise ValueError("bids must be nonnegative")
    a = ctx.eff.roundtrip
    s_low, s_up = slope_bounds(ctx.eff, ctx.dist.mad)
    base = ctx.base_purchase
    base_pos, base_neg = max(base, 0.0), max(-base, 0.0)
    phi0 = ctx.dist.scdf(0.0)
    lower = max(base, s_low * x + base - (1.0 - a) / (1.0 + a) * abs(base))
    mid_piece = ((1.0 - a) * phi0 * x - base_neg) / (a + (1.0 - a) * (1.0 - phi0))
    top_piece = s_up * x + (a * base_pos - base_neg) / (a + (1.0 - a) * phi0)
    return lower, max(base, mid_piece, top_piece)
