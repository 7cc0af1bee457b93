"""Deliverable regulation bids for a storage device.

A bid is deliverable when the purchase band admitted by the power caps and
the worst-case energy excursions still contains the purchase required to
hold the drift target.  Each edge is two affine pieces of the bid, of slopes
1 and the activation ratio; the lower edge rises and the upper falls.  The
band's crossing and a balanced target's largest bid are closed forms in the
pieces' offsets; elsewhere the purchase meets a piece at a Newton root in
the purchase per unit of bid, one of the paper's rational functions for a
discrete deviation law.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .distributions import DeviationDistribution
from .errors import AssumptionError, InfeasibleProblemError, TargetMismatchError
from .purchase import EfficiencyPair, PurchaseContext, purchase_power
from .rootfind import BISECT_MAX_ITER, last_true

__all__ = [
    "BatterySpec",
    "RegulationContract",
    "context_for",
    "envelopes",
    "envelope_crossing",
    "analytic_bid",
    "max_feasible_bid",
]


@dataclass(frozen=True)
class BatterySpec:
    """Physical storage parameters.  Energies in kWh, powers in kW."""

    cap_kwh: float
    charge_cap_kw: float
    discharge_cap_kw: float
    soc0_kwh: float
    soc_target_kwh: float
    eff: EfficiencyPair

    def __post_init__(self):
        if self.cap_kwh <= 0.0:
            raise ValueError("cap_kwh must be positive")
        if self.charge_cap_kw <= 0.0 or self.discharge_cap_kw <= 0.0:
            raise ValueError("power caps must be positive")
        if not 0.0 <= self.soc0_kwh <= self.cap_kwh:
            raise ValueError("soc0_kwh must lie in [0, cap_kwh]")
        if not 0.0 <= self.soc_target_kwh <= self.cap_kwh:
            raise ValueError("soc_target_kwh must lie in [0, cap_kwh]")

    @property
    def headroom_kwh(self) -> float:
        """Energy room to the ceiling at the start of the horizon."""
        return self.cap_kwh - self.soc0_kwh


@dataclass(frozen=True)
class RegulationContract:
    """Delivery horizon and worst-case activation budget, both in hours."""

    horizon_h: float
    budget_h: float

    def __post_init__(self):
        if self.horizon_h <= 0.0:
            raise ValueError("horizon_h must be positive")
        if not 0.0 < self.budget_h <= self.horizon_h:
            raise ValueError("budget_h must lie in (0, horizon_h]")

    @property
    def activation(self) -> float:
        """Budget as a fraction of the horizon."""
        return self.budget_h / self.horizon_h


def context_for(bat: BatterySpec, con: RegulationContract,
                dist: DeviationDistribution) -> PurchaseContext:
    """Purchase context for one problem instance."""
    drift = (bat.soc_target_kwh - bat.soc0_kwh) / con.horizon_h
    return PurchaseContext(bat.eff, dist, drift)


def _band(bat: BatterySpec, con: RegulationContract) -> tuple[float, ...]:
    """Offsets (l1, l2, u1, u2) and activation ratio q of the band's pieces:
    lower = max(x - l1, q x - l2) and upper = min(u1 - x, u2 - q x)."""
    eta_p, eta_m = bat.eff.eta_plus, bat.eff.eta_minus
    y0, head = bat.soc0_kwh, bat.headroom_kwh
    return (min(bat.discharge_cap_kw, eta_m * y0 / con.budget_h), eta_m * y0 / con.horizon_h,
            min(bat.charge_cap_kw, head / (eta_p * con.budget_h)), head / (eta_p * con.horizon_h),
            con.activation)


def _edges(x: float, l1, l2, u1, u2, q) -> tuple[float, float]:
    """Band (lower, upper) at bid ``x`` from the offsets of :func:`_band`."""
    return max(x - l1, q * x - l2), min(u1 - x, u2 - q * x)


def envelopes(xr: float, bat: BatterySpec, con: RegulationContract) -> tuple[float, float]:
    """Admissible purchase band (lower, upper) at bid ``xr``.

    The lower edge is strictly increasing in the bid, the upper edge
    strictly decreasing.
    """
    return _edges(float(xr), *_band(bat, con))


def _crossing(l1, l2, u1, u2, q) -> float:
    return min(0.5 * (l1 + u1), (l1 + u2) / (1.0 + q), (l2 + u1) / (1.0 + q), 0.5 * (l2 + u2) / q)


def envelope_crossing(bat: BatterySpec, con: RegulationContract) -> float:
    """Bid at which the purchase band closes (lower edge meets upper edge).

    Closed form: upper - lower is the least of the four differences of an
    upper and a lower piece, each affine and falling, so the band closes at
    the least of their four roots.
    """
    return _crossing(*_band(bat, con))


def _balanced_bid(m: float, l1, l2, u1, u2, q) -> float:
    # The purchase m x meets q x - l2 only if q > m, at l2 / (q - m) =
    # eta_m y0 / (budget - horizon m) >= eta_m y0 / (budget (1 - m)) >=
    # l1 / (1 - m) since horizon >= budget: that piece never binds first.
    return min(l1 / (1.0 - m), u1 / (1.0 + m), u2 / (q + m))


def analytic_bid(bat: BatterySpec, con: RegulationContract, slope: float) -> float:
    """Closed-form largest deliverable bid for a balanced drift target.

    Requires the state-of-charge target to equal the initial state: the
    purchase slope * bid then leaves the band where it first meets a piece.
    """
    if bat.soc_target_kwh != bat.soc0_kwh:
        raise TargetMismatchError("closed form needs soc_target_kwh == soc0_kwh")
    return _balanced_bid(slope, *_band(bat, con))


def _piece_bid(k: float, c: float, ctx: PurchaseContext) -> float:
    """Bid at which the purchase first meets the band piece k x + c from zero
    bid (inf if never).

    The bid is d / g(u) at the first root of h(u) = d (u - k) - c g(u).  As
    g(u) <= s u (s = eta_plus for d > 0, 1/eta_minus for d < 0; equal for
    |u| >= 1 under a law on [-1, 1]), the root of d (u - k) = c s u lies on
    the zero-bid side of it, and h is concave (k > 0) or convex: Newton with
    g's left derivative climbs from there, g and g' from one law evaluation
    per step.
    """
    d, dist = ctx.drift_target, ctx.dist
    eta_p, drain = ctx.eff.eta_plus, ctx.eff.drain
    u = d * k / (d - c * (eta_p if d > 0.0 else 1.0 / ctx.eff.eta_minus))
    for _ in range(BISECT_MAX_ITER):
        phi, _, f = dist.scdf_cdf(-u)
        g = eta_p * u - drain * phi
        slope = d - c * (eta_p + drain * f)
        if not slope * k > 0.0:
            return math.inf
        new = u - (d * (u - k) - c * g) / slope
        if not new > u:
            break
        u = new
    if d * g <= 0.0:  # past the balanced root: no bid
        return math.inf
    return d / g


def max_feasible_bid(bat: BatterySpec, con: RegulationContract,
                     ctx: PurchaseContext) -> float:
    """Largest deliverable bid: the last float at which the purchase of
    :func:`purchase_power` lies inside the band exactly, not only to rounding.

    That is the band's crossing when the purchase lies inside the band there.
    Otherwise :func:`analytic_bid` for a balanced target, else the least bid
    at which the purchase meets a band piece it crosses (one Newton solve in
    the purchase per unit of bid each), is settled onto the last float.

    Raises
    ------
    AssumptionError
        If the roundtrip efficiency is not above 1/3 (the band-crossing
        argument needs the purchase slope below the band slopes).
    InfeasibleProblemError
        If the zero-bid purchase exceeds a power cap.  The energy edges
        hold at zero bid for every target in [0, cap_kwh].

    Warns when the deviation law's mean absolute deviation exceeds the
    activation ratio; deliverability margins may then be optimistic, though
    the returned bid still keeps the purchase inside the band.
    """
    if ctx.eff.roundtrip <= 1.0 / 3.0:
        raise AssumptionError(
            f"roundtrip efficiency {ctx.eff.roundtrip:.3f} not above 1/3; "
            "the deliverable-bid interval is not guaranteed"
        )
    if ctx.dist.mad > con.activation:
        warnings.warn(
            "mean absolute deviation exceeds the activation ratio; "
            "deliverability margins may be optimistic",
            UserWarning,
            stacklevel=2,
        )
    base = ctx.base_purchase
    if base > bat.charge_cap_kw:
        raise InfeasibleProblemError(f"required purchase at zero bid ({base:.6g} kW) exceeds "
                                     f"the admissible maximum ({bat.charge_cap_kw:.6g} kW)")
    if base < -bat.discharge_cap_kw:
        raise InfeasibleProblemError(f"required purchase at zero bid ({base:.6g} kW) is below "
                                     f"the admissible minimum ({-bat.discharge_cap_kw:.6g} kW)")
    l1, l2, u1, u2, q = band = _band(bat, con)
    crossing = _crossing(*band)
    d = ctx.drift_target
    # A full charge (discharge) puts the zero-bid purchase on an edge: closed.
    gap = min(u1, u2) - base if d > 0.0 else base + min(l1, l2)
    if crossing <= 0.0 or d != 0.0 and gap <= 8.0 * math.ulp(base):
        return 0.0

    def delivers(x: float, purchase: float | None = None) -> bool:
        """Whether the purchase (by default purchase_power's) lies in the band at bid x."""
        lower, upper = _edges(x, *band)
        return lower <= (purchase_power(x, ctx) if purchase is None else purchase) <= upper

    # The purchase meets each piece once, save that for d < 0 and a slope
    # above q it can dip below the lower energy piece and come back.
    at_crossing = purchase_power(crossing, ctx)
    inside = delivers(crossing, at_crossing)
    dips = d < 0.0 and q < ctx.slope
    if inside and not dips:
        return crossing
    if d == 0.0:
        x = _balanced_bid(ctx.slope, *band)
    else:
        pieces = ((1.0, -l1), (q, -l2), (-1.0, u1), (-q, u2))  # xb = k x + c, k > 0 below
        x = min(_piece_bid(k, c, ctx) for k, c in pieces
                if dips and k == q or k * (at_crossing - (k * crossing + c)) < 0.0)
        if inside and x >= crossing:
            return crossing
    return last_true(delivers, x, x)
