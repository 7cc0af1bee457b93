"""Profitability of regulation service for energy-constrained storage.

All prices are in cents; annualized figures convert to currency units
(divide by 100) so they can be netted against capex annuities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .feasible import BatterySpec, RegulationContract
from .purchase import EfficiencyPair
from .solver import MarketPrices

__all__ = [
    "HOURS_PER_YEAR",
    "InvestmentSpec",
    "SizingRule",
    "energy_constrained_optimum",
    "unit_profit",
    "operating_profit",
    "required_charger_rate",
    "annuity_factor",
    "annualized_cost",
    "effective_yearly_profit",
]

HOURS_PER_YEAR = 8760.0


@dataclass(frozen=True)
class InvestmentSpec:
    """Capex and financing terms for a storage device.

    Capex is quoted per kWh of storage and per kW of charger capacity in a
    foreign currency; ``fx_rate`` is the divisor that converts it into the
    reporting currency.  Lifetimes are in years, the discount rate per year.
    Zero capex is allowed (a component the operator already owns).
    """

    energy_capex: float
    power_capex: float
    energy_lifetime_yr: float
    power_lifetime_yr: float
    discount_rate: float
    fx_rate: float = 1.0

    def __post_init__(self):
        for name in ("energy_capex", "power_capex"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")
        for name in ("energy_lifetime_yr", "power_lifetime_yr", "fx_rate"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.discount_rate < 1.0:
            raise ValueError("discount_rate must lie in (0, 1)")


class SizingRule(NamedTuple):
    """Energy-optimal operating point for a balanced storage device."""

    xr_kw: float
    soc0_kwh: float
    c_rate_per_h: float
    binding: str


def _energy_denominator(eff: EfficiencyPair, con: RegulationContract, slope: float) -> float:
    """Denominator of the energy-bound bid eta_minus * capacity / (horizon *
    denominator): q (1 + a - m) + a m for activation q, roundtrip a, slope m."""
    a = eff.roundtrip
    q = con.activation
    return q * (1.0 + a - slope) + a * slope


def energy_constrained_optimum(bat: BatterySpec, con: RegulationContract,
                               slope: float) -> SizingRule:
    """Best bid over the initial state of charge, and the sizing it implies.

    Maximising the closed-form bid over the initial state equalises the
    ceiling and floor energy terms.  Returns the maximal bid, the optimal
    initial state, the minimum charger size per kWh of storage that keeps
    the energy term binding, and which term limits the bid.
    """
    a = bat.eff.roundtrip
    horizon = con.horizon_h
    terms = {
        "discharge_cap": bat.discharge_cap_kw / (1.0 - slope),
        "charge_cap": bat.charge_cap_kw / (1.0 + slope),
        "energy": bat.eff.eta_minus / _energy_denominator(bat.eff, con, slope)
        * bat.cap_kwh / horizon,
    }
    binding = min(terms, key=terms.get)
    soc0 = (1.0 - slope) * bat.cap_kwh / (
        1.0 + a + (a * horizon / con.budget_h - 1.0) * slope
    )
    c_rate = required_charger_rate(bat.eff, con, slope)
    return SizingRule(terms[binding], soc0, c_rate, binding)


def unit_profit(prices: MarketPrices, slope: float) -> float:
    """Profit per kW of regulation per hour, net of expected losses.

    Covering the losses costs ``slope`` kW of energy purchase per kW of
    regulation sold, so the margin is ``cr - slope * cb``.  May be negative.
    """
    if prices.mode != "inelastic":
        raise ValueError("unit_profit needs inelastic prices")
    return prices.cr - slope * prices.cb


def operating_profit(bat: BatterySpec, con: RegulationContract,
                     prices: MarketPrices, slope: float) -> float:
    """Profit per kWh of storage capacity over one horizon, in cents.

    Assumes the device is energy-constrained and starts at the bid-maximal
    state of charge; the bid is then capacity / horizon scaled by the
    efficiency terms, and the horizon length cancels out of the product,
    leaving a function of the activation ratio alone.
    """
    denom = _energy_denominator(bat.eff, con, slope)
    return unit_profit(prices, slope) * bat.eff.eta_minus / denom


def required_charger_rate(eff: EfficiencyPair, con: RegulationContract,
                          slope: float) -> float:
    """Minimum charger size per kWh of storage that keeps the energy term
    binding, in kW per kWh (equivalently 1/h)."""
    denom = _energy_denominator(eff, con, slope)
    return (1.0 + slope) * eff.eta_minus / denom / con.horizon_h


def annuity_factor(rate: float, years: float) -> float:
    """Constant yearly payment per unit of upfront cost."""
    return rate / (1.0 - math.pow(1.0 + rate, -years))


def annualized_cost(inv: InvestmentSpec) -> tuple[float, float]:
    """Yearly cost of the storage and charger capex, per kWh and per kW."""
    energy = inv.energy_capex / inv.fx_rate * annuity_factor(
        inv.discount_rate, inv.energy_lifetime_yr
    )
    power = inv.power_capex / inv.fx_rate * annuity_factor(
        inv.discount_rate, inv.power_lifetime_yr
    )
    return energy, power


def effective_yearly_profit(bat: BatterySpec, con: RegulationContract,
                            prices: MarketPrices, slope: float,
                            inv: InvestmentSpec, horizons_per_year: float,
                            charger_kw_per_kwh: float | None = None) -> float:
    """Yearly operating profit net of capex annuities, per kWh of storage.

    The charger is costed at ``charger_kw_per_kwh`` kW per kWh of storage,
    defaulting to the smallest size that keeps the device energy-constrained.
    Shortening the horizon at a fixed activation ratio scales the operating
    term by the ratio of horizon counts and scales the default charger size
    the same way.
    """
    if charger_kw_per_kwh is None:
        charger_kw_per_kwh = required_charger_rate(bat.eff, con, slope)
    energy_cost, power_cost = annualized_cost(inv)
    operating = operating_profit(bat, con, prices, slope)
    return (
        horizons_per_year * operating / 100.0
        - energy_cost
        - power_cost * charger_kw_per_kwh
    )
