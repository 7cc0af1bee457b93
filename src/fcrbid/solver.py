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
An unbalanced target's stationary point is searched in the purchase per unit
of bid u, where bid, purchase and slopes are explicit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .distributions import DeviationDistribution
from .errors import AssumptionError
from .feasible import BatterySpec, RegulationContract, context_for, max_feasible_bid
from .purchase import PurchaseContext, _unit_bid, _unit_point, purchase_power, purchase_slopes
from .rootfind import bisect_threshold, expand_until, last_true

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
                raise ValueError("inelastic prices need cb > 0")
            if self.cr is None or self.cr <= 0.0:
                raise ValueError("inelastic prices need cr > 0")
        elif self.mode == "elastic":
            for name in ("cb0", "ca0"):
                v = getattr(self, name)
                if v is None or v <= 0.0:
                    raise ValueError(f"elastic prices need {name} > 0")
            for name in ("cbd", "cad"):
                v = getattr(self, name)
                if v is None or v < 0.0:
                    raise ValueError(f"elastic prices need {name} >= 0")
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


def _solve_with_ratio(bat: BatterySpec, con: RegulationContract, ctx: PurchaseContext,
                      ratio_at, balanced_root: float = 0.0) -> tuple[float, float, str, float]:
    """Shared three-candidate selection: (bid, purchase, candidate, xr_max).

    ``ratio_at(xr, xb)`` returns the marginal bid revenue over the marginal
    purchase price at bid ``xr`` with purchase ``xb``; for fixed prices it
    is constant.  The optimum is the smallest bid whose right slope reaches
    the ratio, or a boundary candidate; for a balanced target it is settled
    from ``balanced_root``, where the ratio meets the slope.
    """
    xr_max = max_feasible_bid(bat, con, ctx)
    if xr_max <= 0.0 or purchase_slopes(0.0, ctx)[1] >= ratio_at(0.0, ctx.base_purchase):
        return 0.0, ctx.base_purchase, "zero", xr_max
    xb_max = purchase_power(xr_max, ctx)
    if purchase_slopes(xr_max, ctx)[0] < ratio_at(xr_max, xb_max):
        return xr_max, xb_max, "boundary", xr_max

    def reaches(x: float) -> bool:
        return purchase_slopes(x, ctx)[1] >= ratio_at(x, purchase_power(x, ctx))

    if ctx.drift_target == 0.0:
        lo = hi = min(balanced_root, xr_max)
    else:
        def reaches_at_unit(u: float) -> bool:
            x, xb, _, right = _unit_point(u, ctx)
            return right >= ratio_at(x, xb)

        # Toward zero bid |u| grows and the right slope vanishes below the ratio.
        far = expand_until(lambda u: not reaches_at_unit(u), math.copysign(1.0, ctx.drift_target))
        # One float of u may span many of the bid: settle on the bids of the final bracket.
        lo, hi = (min(_unit_bid(u, ctx)[0], xr_max)
                  for u in bisect_threshold(reaches_at_unit, far, xb_max / xr_max))
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
    cb0, cbd, ca0, cad = prices.coefficients
    ctx = context_for(bat, con, dist)
    if cbd > 0.0 and ctx.base_purchase < -cb0 / (2.0 * cbd):
        raise AssumptionError("energy price elasticity turns the net cost non-convex "
                              "at the base purchase")

    def ratio_at(xr: float, xb: float) -> float:
        margin = ca0 - 2.0 * cad * xr
        level = cb0 + 2.0 * cbd * xb
        if level <= 0.0:
            return float("inf") if margin > 0.0 else float("-inf")
        return margin / level

    # A balanced target's purchase is m x: m (cb0 + 2 cbd m x) = ca0 - 2 cad x.
    m = ctx.slope
    root = (ca0 - m * cb0) / (2.0 * (cad + m * m * cbd)) if cad + m * m * cbd > 0.0 else 0.0
    xr, xb, candidate, xr_max = _solve_with_ratio(bat, con, ctx, ratio_at, root)
    objective = con.horizon_h * (cb0 * xb + cbd * xb * xb - ca0 * xr + cad * xr * xr)
    # A zero marginal energy price leaves the ratio unbounded; JSON has no infinity.
    at_zero, at_xr = (r if math.isfinite(r) else None
                      for r in (ratio_at(0.0, ctx.base_purchase), ratio_at(xr, xb)))
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

