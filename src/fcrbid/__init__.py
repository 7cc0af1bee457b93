"""Robust frequency-regulation bidding for electricity storage.

The library answers three questions for a storage operator who must
guarantee delivery of regulation power against every deviation signal
within an activation budget: how much baseline power to buy for a given
bid, how large a bid stays deliverable, and which bid maximizes profit.
A simulation oracle checks the closed forms pathwise, and small fitting
helpers estimate the model inputs from raw frequency and price series.
"""

from .distributions import (
    DeviationDistribution,
    build_distribution,
    empirical,
    logistic,
    three_point_upper,
    two_point_lower,
)
from .econ import (
    HOURS_PER_YEAR,
    InvestmentSpec,
    SizingRule,
    annualized_cost,
    annuity_factor,
    effective_yearly_profit,
    energy_constrained_optimum,
    operating_profit,
    required_charger_rate,
    unit_profit,
)
from .errors import (
    AssumptionError,
    ConfigError,
    DegenerateSignalError,
    InfeasibleProblemError,
    SingularFitError,
    TargetMismatchError,
)
from .feasible import (
    BatterySpec,
    RegulationContract,
    analytic_bid,
    context_for,
    envelope_crossing,
    envelopes,
    max_feasible_bid,
)
from .ingest import (
    FrequencySeries,
    PriceSeries,
    fit_elasticity,
    fit_logistic,
    normalize_frequency,
    read_frequency_csv,
    read_price_csv,
    reduce_prices,
)
from .purchase import (
    EfficiencyPair,
    PurchaseContext,
    asymptotic_slope,
    expected_charge_rate,
    purchase_bounds,
    purchase_power,
    purchase_power_many,
    purchase_slopes,
    slope_bounds,
)
from .simulate import (
    FeasibilityReport,
    Trajectory,
    check_robust_feasibility,
    integrate_soc,
    mc_expected_terminal_soc,
    rearrange_nonincreasing,
    read_trajectory_csv,
    sample_trajectory,
    worst_case_signals,
    write_trajectory_csv,
)
from .solver import (
    BidSolution,
    MarketPrices,
    solve,
    solve_elastic,
    solve_inelastic,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # distributions
    "DeviationDistribution",
    "build_distribution",
    "logistic",
    "two_point_lower",
    "three_point_upper",
    "empirical",
    # purchase curve
    "EfficiencyPair",
    "PurchaseContext",
    "expected_charge_rate",
    "asymptotic_slope",
    "slope_bounds",
    "purchase_power",
    "purchase_power_many",
    "purchase_slopes",
    "purchase_bounds",
    # feasibility
    "BatterySpec",
    "RegulationContract",
    "context_for",
    "envelopes",
    "envelope_crossing",
    "analytic_bid",
    "max_feasible_bid",
    # solver
    "MarketPrices",
    "BidSolution",
    "solve",
    "solve_inelastic",
    "solve_elastic",
    # economics
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
    # simulation
    "Trajectory",
    "sample_trajectory",
    "integrate_soc",
    "worst_case_signals",
    "mc_expected_terminal_soc",
    "rearrange_nonincreasing",
    "FeasibilityReport",
    "check_robust_feasibility",
    "read_trajectory_csv",
    "write_trajectory_csv",
    # ingest
    "FrequencySeries",
    "PriceSeries",
    "normalize_frequency",
    "fit_logistic",
    "reduce_prices",
    "fit_elasticity",
    "read_frequency_csv",
    "read_price_csv",
    # errors
    "ConfigError",
    "AssumptionError",
    "InfeasibleProblemError",
    "TargetMismatchError",
    "DegenerateSignalError",
    "SingularFitError",
]
