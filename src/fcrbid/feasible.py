"""Deliverable regulation bids for a storage device.

A bid is deliverable when the purchase band admitted by the power caps and
the worst-case energy excursions still contains the purchase required to
hold the drift target.  The band's lower edge rises and its upper edge
falls with the bid, so the deliverable set is an interval [0, max_bid].
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import DeviationDistribution
from .errors import AssumptionError, InfeasibleProblemError
from .purchase import EfficiencyPair, PurchaseContext, _unit_bid, purchase_power
from .rootfind import bisect_threshold, expand_until, threshold_via

__all__ = [
    "BatterySpec",
    "RegulationContract",
    "context_for",
    "envelopes",
    "envelope_crossing",
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


def envelopes(xr, bat: BatterySpec, con: RegulationContract):
    """Admissible purchase band (lower, upper) at bid ``xr``.

    The lower edge is strictly increasing in the bid, the upper edge
    strictly decreasing.  Accepts floats or arrays.
    """
    scalar = isinstance(xr, (int, float))
    x = float(xr) if scalar else np.asarray(xr, dtype=float)
    larger, smaller = (max, min) if scalar else (np.maximum, np.minimum)
    eta_p, eta_m = bat.eff.eta_plus, bat.eff.eta_minus
    horizon, budget = con.horizon_h, con.budget_h
    q = con.activation
    y0, head = bat.soc0_kwh, bat.headroom_kwh
    lower = larger(
        x - min(bat.discharge_cap_kw, eta_m * y0 / budget),
        q * x - eta_m * y0 / horizon,
    )
    upper = smaller(
        min(bat.charge_cap_kw, head / (eta_p * budget)) - x,
        head / (eta_p * horizon) - q * x,
    )
    return lower, upper


def envelope_crossing(bat: BatterySpec, con: RegulationContract) -> float:
    """Bid at which the purchase band closes (lower edge meets upper edge).

    Closed form: the minimum over the pairwise intersections of the band's
    affine pieces.  Agrees with bisection of upper - lower to rounding.
    """
    eta_p, eta_m = bat.eff.eta_plus, bat.eff.eta_minus
    a = bat.eff.roundtrip
    horizon, budget = con.horizon_h, con.budget_h
    y0, cap, head = bat.soc0_kwh, bat.cap_kwh, bat.headroom_kwh
    up, dn = bat.charge_cap_kw, bat.discharge_cap_kw
    t_over_b = horizon / budget
    terms = (
        0.5 * (up + dn),
        0.5 * (up + eta_m * y0 / budget),
        (horizon * up + eta_m * y0) / (budget + horizon),
        0.5 * (dn + head / (eta_p * budget)),
        (horizon * dn + head / eta_p) / (budget + horizon),
        (cap + (a * t_over_b - 1.0) * y0) / (eta_p * (budget + horizon)),
        (t_over_b * cap - (t_over_b - a) * y0) / (eta_p * (budget + horizon)),
    )
    return min(terms)


def max_feasible_bid(bat: BatterySpec, con: RegulationContract,
                     ctx: PurchaseContext) -> float:
    """Largest deliverable bid.

    Returns the crossing of the band's edges when the purchase lies inside
    the band there.  Otherwise one bisection runs from the crossing toward
    zero: in the bid for a balanced target, else in the purchase per unit of
    bid u, from the crossing's u to the first of +-1, +-2, +-4, ... at which
    the band holds, one law evaluation per probe.  The purchase of
    :func:`purchase_power` lies inside the band at the returned bid exactly,
    not only to rounding.

    Raises
    ------
    AssumptionError
        If the roundtrip efficiency is not above 1/3 (the band-crossing
        argument needs the purchase slope below the band slopes).
    InfeasibleProblemError
        If even the zero bid cannot hold the drift target.

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
    low0, up0 = envelopes(0.0, bat, con)
    if base > up0:
        raise InfeasibleProblemError(
            f"required purchase at zero bid ({base:.6g} kW) exceeds the "
            f"admissible maximum ({up0:.6g} kW)"
        )
    if base < low0:
        raise InfeasibleProblemError(
            f"required purchase at zero bid ({base:.6g} kW) is below the "
            f"admissible minimum ({low0:.6g} kW)"
        )
    crossing = envelope_crossing(bat, con)
    if crossing <= 0.0:
        return 0.0

    def delivers(x: float, purchase: float | None = None) -> bool:
        """Whether the purchase (by default purchase_power's) lies in the band at bid x."""
        lower, upper = envelopes(x, bat, con)
        return lower <= (purchase_power(x, ctx) if purchase is None else purchase) <= upper

    # The edges meet at the crossing, so only one of them can lie on the wrong
    # side of the purchase there; both distances fall as the bid grows.
    at_crossing = purchase_power(crossing, ctx)
    if delivers(crossing, at_crossing):
        return crossing
    if ctx.drift_target == 0.0:
        return bisect_threshold(delivers, crossing, 0.0)[1]

    def at_unit(u: float) -> bool:
        return delivers(*_unit_bid(u, ctx)[:2])

    # No far end: the band closes within 2**-200 drift_target of zero bid.
    far = expand_until(at_unit, math.copysign(1.0, ctx.drift_target))
    return 0.0 if far is None else threshold_via(
        at_unit, at_crossing / crossing, far, lambda u: _unit_bid(u, ctx)[0], delivers, 0.0)
