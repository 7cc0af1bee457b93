"""Optimal regulation bids.

The net cost of a bid over the horizon is

    horizon * (buy_price(purchase) * purchase - bid_price(bid) * bid)

with the purchase tied to the bid through the drift target.  The cost is
convex in the bid, so the optimum is one of three candidates: zero, the
largest deliverable bid, or the smallest stationary point where the price
ratio enters the purchase curve's subdifferential.  Ties break toward the
smaller bid.  A balanced target has both slopes equal to the asymptotic
slope m, so fixed prices pick zero or the largest bid by m against the ratio
and affine prices meet it at a closed form.
An unbalanced target's stationary point comes from the law's pieces: under a
discrete law the purchase is piecewise linear in the bid, so the point is a
kink or the root of one linear equation, found on the atom tables; under the
logistic a safeguarded Newton step in the purchase per unit of bid u, where
bid, purchase and slopes are explicit, brackets it.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass

from .distributions import DeviationDistribution
from .errors import AssumptionError
from .feasible import BatterySpec, RegulationContract, context_for, max_feasible_bid
from .purchase import PurchaseContext, _purchase_point, _unit_bid, purchase_power, purchase_slopes
from .rootfind import BISECT_MAX_ITER, last_true

__all__ = [
    "MarketPrices",
    "BidSolution",
    "solve",
    "solve_inelastic",
    "solve_elastic",
]


@dataclass(frozen=True)
class MarketPrices:
    """Market prices, all in cents.

    Inelastic mode: ``cb`` (per kWh bought) and ``cr`` (per kW of regulation
    per hour).  Elastic mode: affine price curves cb0 + cbd * purchase for
    energy and ca0 - cad * bid for regulation, with nonnegative elasticities.
    """

    mode: str = "inelastic"
    cb: float | None = None
    cr: float | None = None
    cb0: float | None = None
    cbd: float | None = None
    ca0: float | None = None
    cad: float | None = None

    def __post_init__(self):
        if self.mode == "inelastic":
            if self.cb is None or self.cb <= 0.0:
                raise ValueError("cb must be positive for inelastic prices")
            if self.cr is None or self.cr <= 0.0:
                raise ValueError("cr must be positive for inelastic prices")
        elif self.mode == "elastic":
            for name in ("cb0", "ca0"):
                v = getattr(self, name)
                if v is None or v <= 0.0:
                    raise ValueError(f"{name} must be positive for elastic prices")
            for name in ("cbd", "cad"):
                v = getattr(self, name)
                if v is None or v < 0.0:
                    raise ValueError(f"{name} must be nonnegative for elastic prices")
        else:
            raise ValueError(f"unknown price mode {self.mode!r}")

    @property
    def coefficients(self) -> tuple[float, float, float, float]:
        """Affine price curves (cb0, cbd, ca0, cad); fixed prices have zero slopes."""
        if self.mode == "inelastic":
            return self.cb, 0.0, self.cr, 0.0
        return self.cb0, self.cbd, self.ca0, self.cad


@dataclass(frozen=True)
class BidSolution:
    """Solver output: the bid, its purchase, and how it was selected."""

    xr_kw: float
    xb_kw: float
    objective_cts: float
    candidate: str  # "zero" | "boundary" | "stationary"
    xr_max_kw: float
    slope: float
    diagnostics: dict

    def to_dict(self) -> dict:
        return asdict(self)


def _ratio(coefficients, xr: float, xb: float) -> float:
    """Marginal bid revenue over marginal purchase price at bid ``xr`` with purchase ``xb``."""
    cb0, cbd, ca0, cad = coefficients
    margin = ca0 - 2.0 * cad * xr
    level = cb0 + 2.0 * cbd * xb
    if level <= 0.0:
        return float("inf") if margin > 0.0 else float("-inf")
    return margin / level


def _line_root(coefficients, s: float, c: float) -> float:
    """Bid where the ratio meets ``s`` along the purchase line c + s x (inf if nowhere):
    s (cb0 + 2 cbd (c + s x)) = ca0 - 2 cad x."""
    cb0, cbd, ca0, cad = coefficients
    denominator = 2.0 * (cad + s * s * cbd)
    return (ca0 - s * (cb0 + 2.0 * cbd * c)) / denominator if denominator > 0.0 else math.inf


def _kink_guess(ctx: PurchaseContext, coefficients, xr_max: float, u_max: float) -> float:
    """First bid whose right slope reaches the ratio, under a discrete law.

    On piece k between atoms the purchase is the line d / D + s x, with D =
    eta_plus + drain cum[k] and s = -drain cum_wx[k] / D.  A bisection over
    the atoms' bids d / g(-loc) below ``xr_max`` (table arithmetic, no law
    evaluation) finds the piece; the ratio meets s at its line root or at
    the kink that ends it.
    """
    locs, cum, cum_wx = ctx.dist._tables
    eta_p, drain, d, n = ctx.eff.eta_plus, ctx.eff.drain, ctx.drift_target, len(locs)

    def slope(k):
        return -drain * cum_wx[k] / (eta_p + drain * cum[k])

    def atom(p):  # bid at the p-th atom up from zero bid, and whether it reaches
        j = p if d > 0.0 else n - 1 - p
        rate = -eta_p * locs[j] - drain * (cum[j + 1] * locs[j] - cum_wx[j + 1])
        x = d / rate if rate * d > 0.0 else math.inf
        return x, max(slope(j), slope(j + 1)) >= _ratio(coefficients, x, -x * locs[j])

    top = bisect_left(locs, -u_max) if d > 0.0 else n - bisect_right(locs, -u_max)
    p = bisect_left(range(top), True, key=lambda p: atom(p)[1])  # the first atom that reaches
    k = p if d > 0.0 else n - p
    x = _line_root(coefficients, slope(k), d / (eta_p + drain * cum[k]))
    return min(max(x, atom(p - 1)[0] if p else 0.0), atom(p)[0] if p < top else xr_max)


def _newton_bracket(ctx: PurchaseContext, coefficients, xr_max: float,
                    u_max: float) -> tuple[float, float]:
    """Bids at the ends of a bracket of two ulps of u where h(u) = right slope
    - ratio changes sign, under the logistic law.

    Safeguarded Newton (Brent, 1973) with s'(u) = -drain f(-u) g(u) /
    (eta_plus + drain F(-u))^2, f = theta F (1 - F), where one law
    evaluation per step gives scdf(-u) and F(-u): a step that leaves the
    bracket bisects it.  The zero-bid end starts at |u| = 1 and doubles while
    the untruncated law's slope still reaches the ratio there.
    """
    cb0, cbd, _, cad = coefficients
    eta_p, drain, d, theta = ctx.eff.eta_plus, ctx.eff.drain, ctx.drift_target, ctx.dist.theta

    def h(u):  # h, h' and the bid; g = d / x and g' = eta_plus + drain F(-u)
        x, xb, phi, f = _unit_bid(u, ctx)
        dg, ratio, level = eta_p + drain * f, _ratio(coefficients, x, xb), cb0 + 2.0 * cbd * xb
        dx = -x * x * dg / d
        d_ratio = -2.0 * (cad * dx + ratio * cbd * (x + u * dx)) / level if level > 0.0 else 0.0
        return (drain * (phi + u * f) / dg - ratio,
                -drain * theta * f * (1.0 - f) * d / (x * dg * dg) - d_ratio, x)

    b, x_b, a = u_max, xr_max, math.copysign(1.0, d)
    for _ in range(BISECT_MAX_ITER):
        u, (hu, du, x_a) = a, h(a)
        if hu < 0.0:
            break
        b, x_b, a = a, x_a, 2.0 * a
    for _ in range(BISECT_MAX_ITER):
        tol = 2.0 * math.ulp(u)
        if abs(b - a) <= tol:
            break
        new = u - hu / du if du != 0.0 else math.nan
        if abs(new - u) < tol:  # converged: step past the root to close the bracket
            new = u + math.copysign(tol, (b if u == a else a) - u)
        elif not min(a, b) < new < max(a, b):
            new = 0.5 * (a + b)
        u = new
        hu, du, x = h(u)
        if hu < 0.0:
            a, x_a = u, x
        else:
            b, x_b = u, x
    return x_a, x_b


def _solve_with_ratio(bat: BatterySpec, con: RegulationContract, ctx: PurchaseContext,
                      coefficients) -> tuple[float, float, str, float]:
    """Shared three-candidate selection: (bid, purchase, candidate, xr_max).

    ``coefficients`` are the affine price curves (cb0, cbd, ca0, cad), whose
    ratio of marginal bid revenue to marginal purchase price falls with the
    bid; for fixed prices it is constant.  The optimum is the smallest bid
    whose right slope reaches the ratio, or a boundary candidate.  A guess
    of that bid (the line root for a balanced target, :func:`_kink_guess`
    or :func:`_newton_bracket` otherwise) is settled on the predicate itself
    by :func:`last_true`.  Where rounding makes the predicate flicker near
    its threshold, the bid is the first float of the run the search lands in.
    """
    ratio_at = functools.partial(_ratio, coefficients)
    xr_max = max_feasible_bid(bat, con, ctx)
    if xr_max <= 0.0 or purchase_slopes(0.0, ctx)[1] >= ratio_at(0.0, ctx.base_purchase):
        return 0.0, ctx.base_purchase, "zero", xr_max
    xb_max, left, _ = _purchase_point(xr_max, ctx)
    if left < ratio_at(xr_max, xb_max):
        return xr_max, xb_max, "boundary", xr_max

    def reaches(x: float) -> bool:
        xb, _, right = _purchase_point(x, ctx)
        return right >= ratio_at(x, xb)

    if ctx.drift_target == 0.0:  # a balanced target's purchase is the line slope * x
        lo = hi = min(_line_root(coefficients, ctx.slope, 0.0), xr_max)
    elif ctx.dist.is_discrete:
        lo = hi = _kink_guess(ctx, coefficients, xr_max, xb_max / xr_max)
    else:
        lo, hi = (min(x, xr_max) for x in _newton_bracket(ctx, coefficients, xr_max,
                                                           xb_max / xr_max))
    xr = math.nextafter(last_true(lambda x: not reaches(x), lo, hi), math.inf)
    return xr, purchase_power(xr, ctx), "stationary", xr_max


def solve(bat: BatterySpec, con: RegulationContract,
          prices: MarketPrices, dist: DeviationDistribution) -> BidSolution:
    """Minimise the net cost under either price model.

    Fixed prices are the affine curves with zero slopes, so both models go
    through the same candidate tests and searches.  Convexity of the
    net cost requires the energy price to stay nonnegative over the purchase
    range, i.e. base purchase >= -cb0 / (2 cbd); violated input raises.
    """
    cb0, cbd, ca0, cad = coefficients = prices.coefficients
    ctx = context_for(bat, con, dist)
    if cbd > 0.0 and ctx.base_purchase < -cb0 / (2.0 * cbd):
        raise AssumptionError("energy price elasticity turns the net cost non-convex "
                              "at the base purchase")
    xr, xb, candidate, xr_max = _solve_with_ratio(bat, con, ctx, coefficients)
    objective = con.horizon_h * (cb0 * xb + cbd * xb * xb - ca0 * xr + cad * xr * xr)
    # A zero marginal energy price leaves the ratio unbounded; JSON has no infinity.
    at_zero, at_xr = (r if math.isfinite(r) else None
                      for r in (_ratio(coefficients, 0.0, ctx.base_purchase),
                                _ratio(coefficients, xr, xb)))
    return BidSolution(
        xr, xb, objective, candidate, xr_max, ctx.slope,
        {
            "price_ratio": at_zero,
            "price_ratio_at_solution": at_xr,
            "base_purchase_kw": ctx.base_purchase,
            "right_slope_at_zero": purchase_slopes(0.0, ctx)[1],
        },
    )


def solve_inelastic(bat: BatterySpec, con: RegulationContract,
                    prices: MarketPrices, dist: DeviationDistribution) -> BidSolution:
    """:func:`solve` for fixed prices; other prices raise ``ValueError``."""
    if prices.mode != "inelastic":
        raise ValueError("solve_inelastic needs inelastic prices")
    return solve(bat, con, prices, dist)


def solve_elastic(bat: BatterySpec, con: RegulationContract,
                  prices: MarketPrices, dist: DeviationDistribution) -> BidSolution:
    """:func:`solve` for affine prices; other prices raise ``ValueError``."""
    if prices.mode != "elastic":
        raise ValueError("solve_elastic needs elastic prices")
    return solve(bat, con, prices, dist)

