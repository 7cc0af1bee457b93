import math

import numpy as np
import pytest

from fcrbid import (
    AssumptionError,
    BatterySpec,
    EfficiencyPair,
    InfeasibleProblemError,
    MarketPrices,
    RegulationContract,
    TargetMismatchError,
    analytic_bid,
    asymptotic_slope,
    context_for,
    empirical,
    energy_constrained_optimum,
    envelope_crossing,
    envelopes,
    logistic,
    max_feasible_bid,
    purchase_power,
    purchase_power_many,
    purchase_slopes,
    required_charger_rate,
    solve,
    solve_elastic,
    solve_inelastic,
    three_point_upper,
    two_point_lower,
)
from fcrbid.rootfind import bisect_threshold
from fcrbid.solver import _solve_with_ratio

import oracles
from test_purchase import FOUR_LAWS, count_scdf_calls


def big_balanced_battery(eff, cap=1_000_000.0):
    return BatterySpec(cap, cap / 10.0, cap / 10.0, cap / 2.0, cap / 2.0, eff)


def test_market_prices_inelastic_validation():
    MarketPrices(cb=3.5, cr=0.9)
    with pytest.raises(ValueError):
        MarketPrices(cb=None, cr=0.9)
    with pytest.raises(ValueError):
        MarketPrices(cb=0.0, cr=0.9)
    with pytest.raises(ValueError):
        MarketPrices(cb=3.5, cr=0.0)
    with pytest.raises(ValueError):
        MarketPrices(cb=3.5, cr=-0.1)


def test_market_prices_elastic_validation():
    MarketPrices(mode="elastic", cb0=1.0, cbd=0.0, ca0=1.0, cad=0.0)
    with pytest.raises(ValueError):
        MarketPrices(mode="elastic", cb0=0.0, cbd=0.1, ca0=1.0, cad=0.1)
    with pytest.raises(ValueError):
        MarketPrices(mode="elastic", cb0=1.0, cbd=0.1, ca0=0.0, cad=0.1)
    with pytest.raises(ValueError):
        MarketPrices(mode="elastic", cb0=1.0, cbd=-0.1, ca0=1.0, cad=0.1)
    with pytest.raises(ValueError):
        MarketPrices(mode="elastic", cb0=1.0, cbd=0.1, ca0=1.0, cad=-0.1)
    with pytest.raises(ValueError):
        MarketPrices(mode="elastic", cb0=1.0, cbd=0.1, ca0=1.0, cad=None)
    with pytest.raises(ValueError):
        MarketPrices(mode="auction", cb=1.0, cr=1.0)


def test_solver_rejects_mismatched_mode():
    bat = BatterySpec(60.0, 18.0, 15.0, 20.0, 20.0, EfficiencyPair(0.9, 0.8))
    con = RegulationContract(12.0, 2.4)
    d = logistic(0.1)
    with pytest.raises(ValueError, match="inelastic"):
        solve_inelastic(bat, con, MarketPrices(mode="elastic", cb0=1.0,
                                               cbd=0.0, ca0=1.0, cad=0.0), d)
    with pytest.raises(ValueError, match="elastic"):
        solve_elastic(bat, con, MarketPrices(cb=1.0, cr=1.0), d)


def test_zero_candidate_when_revenue_is_too_thin():
    bat = BatterySpec(60.0, 18.0, 15.0, 20.0, 20.0, EfficiencyPair(0.9, 0.8))
    con = RegulationContract(12.0, 2.4)
    d = logistic(0.1)
    slope = asymptotic_slope(bat.eff, d)
    sol = solve_inelastic(bat, con, MarketPrices(cb=1.0, cr=slope / 2.0), d)
    assert sol.candidate == "zero"
    assert sol.xr_kw == 0.0
    assert sol.xb_kw == 0.0
    assert sol.objective_cts == 0.0
    assert sol.diagnostics["right_slope_at_zero"] == slope


def test_boundary_candidate_when_revenue_dominates():
    bat = BatterySpec(60.0, 18.0, 15.0, 20.0, 20.0, EfficiencyPair(0.9, 0.8))
    con = RegulationContract(12.0, 2.4)
    d = logistic(0.1)
    slope = asymptotic_slope(bat.eff, d)
    sol = solve_inelastic(bat, con, MarketPrices(cb=1.0, cr=2.0 * slope), d)
    assert sol.candidate == "boundary"
    assert sol.xr_kw == sol.xr_max_kw
    assert math.isclose(sol.xr_max_kw, analytic_bid(bat, con, slope),
                        rel_tol=1e-10)
    assert sol.objective_cts < 0.0


def test_whole_ray_optimal_returns_the_smallest_bid():
    """With the price ratio exactly at the balanced slope the net cost is
    flat in the bid, and the solver picks the smallest optimum."""
    bat = BatterySpec(60.0, 18.0, 15.0, 20.0, 20.0, EfficiencyPair(0.9, 0.8))
    con = RegulationContract(12.0, 2.4)
    d = two_point_lower(0.15)
    slope = asymptotic_slope(bat.eff, d)
    sol = solve_inelastic(bat, con, MarketPrices(cb=1.0, cr=slope), d)
    assert sol.candidate == "zero"
    assert sol.xr_kw == 0.0


def test_stationary_candidate_lands_on_the_slope_threshold():
    bat = BatterySpec(500.0, 50.0, 50.0, 200.0, 206.0, EfficiencyPair(0.9, 0.8))
    con = RegulationContract(24.0, 7.2)
    d = logistic(0.3)
    ratio = oracles.PURCHASE_SLOPE[(2.0, 0.25)]
    sol = solve_inelastic(bat, con, MarketPrices(cb=1.0, cr=ratio), d)
    assert sol.candidate == "stationary"
    assert math.isclose(sol.xr_kw, 2.0, rel_tol=1e-7)
    ctx = context_for(bat, con, d)
    assert sol.xb_kw == purchase_power(sol.xr_kw, ctx)
    assert 0.0 < sol.xr_kw < sol.xr_max_kw


def test_stationary_solution_beats_a_fine_grid():
    bat = BatterySpec(500.0, 50.0, 50.0, 200.0, 206.0, EfficiencyPair(0.9, 0.8))
    con = RegulationContract(24.0, 7.2)
    d = logistic(0.3)
    prices = MarketPrices(cb=1.0, cr=0.046)
    sol = solve_inelastic(bat, con, prices, d)
    ctx = context_for(bat, con, d)
    grid = np.linspace(0.0, sol.xr_max_kw, 2001)
    obj = con.horizon_h * (prices.cb * purchase_power_many(grid, ctx)
                           - prices.cr * grid)
    best = float(np.min(obj))
    assert sol.objective_cts <= best + 1e-7 * (1.0 + abs(best))


def test_kink_optimum_under_a_discrete_law():
    """A two-point law makes the purchase flat until |base| / mad; with the
    ratio inside the flat-to-rising gap the optimum is exactly the kink."""
    bat = BatterySpec(100.0, 20.0, 20.0, 50.0, 46.4, EfficiencyPair(0.9, 0.8))
    con = RegulationContract(12.0, 2.4)
    d = two_point_lower(0.15)
    ctx = context_for(bat, con, d)
    kink = abs(ctx.base_purchase) / 0.15
    a = bat.eff.roundtrip
    s_low = 0.15 * (1.0 - a) / (1.0 + a)
    sol = solve_inelastic(bat, con, MarketPrices(cb=1.0, cr=0.5 * s_low), d)
    assert sol.candidate == "stationary"
    assert math.isclose(sol.xr_kw, kink, rel_tol=1e-6)


def test_zero_bid_when_nothing_is_deliverable():
    bat = BatterySpec(50.0, 10.0, 10.0, 0.0, 0.0, EfficiencyPair(0.9, 0.8))
    con = RegulationContract(24.0, 4.8)
    sol = solve_inelastic(bat, con, MarketPrices(cb=1.0, cr=5.0), logistic(0.1))
    assert sol.candidate == "zero"
    assert sol.xr_kw == 0.0
    assert sol.xr_max_kw == 0.0


@pytest.mark.parametrize("target", [60.0, 0.0])
@pytest.mark.parametrize("law", FOUR_LAWS, ids=lambda d: d.kind)
def test_full_charge_or_discharge_bids_zero(law, target):
    """Charging the README battery full or draining it empty over the horizon
    is deliverable at zero bid only, though the zero-bid purchase equals an
    energy edge of the band only up to rounding."""
    bat = BatterySpec(60.0, 18.0, 15.0, 20.0, target, EfficiencyPair(0.9, 0.8))
    con = RegulationContract(12.0, 2.4)
    for prices in (MarketPrices(cb=5.1, cr=0.9),
                   MarketPrices(mode="elastic", cb0=5.1, cbd=0.01, ca0=0.9, cad=0.001)):
        sol = solve(bat, con, prices, law)
        assert (sol.candidate, sol.xr_kw, sol.xr_max_kw) == ("zero", 0.0, 0.0)
        assert sol.xb_kw == context_for(bat, con, law).base_purchase


def test_infeasible_instance_raises():
    bat = BatterySpec(100.0, 1.0, 5.0, 0.0, 90.0, EfficiencyPair(0.9, 0.8))
    con = RegulationContract(10.0, 2.0)
    with pytest.raises(InfeasibleProblemError):
        solve_inelastic(bat, con, MarketPrices(cb=1.0, cr=1.0), logistic(0.1))


def test_solution_to_dict():
    bat = BatterySpec(60.0, 18.0, 15.0, 20.0, 20.0, EfficiencyPair(0.9, 0.8))
    con = RegulationContract(12.0, 2.4)
    sol = solve_inelastic(bat, con, MarketPrices(cb=3.5, cr=0.9), logistic(0.1))
    doc = sol.to_dict()
    assert set(doc) == {"xr_kw", "xb_kw", "objective_cts", "candidate",
                        "xr_max_kw", "slope", "diagnostics"}
    assert doc["xr_kw"] == sol.xr_kw
    assert doc["diagnostics"]["price_ratio"] == 0.9 / 3.5


def test_elastic_with_zero_elasticities_matches_inelastic_bitwise(monkeypatch):
    """`solve`, `solve_inelastic` and zero-slope `solve_elastic` return the
    same solution to the bit with the same law evaluations, over every law,
    a balanced target and targets above and below it, and price ratios that
    pick each candidate.  The first case is the original instance."""
    calls = count_scdf_calls(monkeypatch)
    eff = EfficiencyPair(0.9, 0.8)
    con = RegulationContract(24.0, 7.2)
    cases = [(BatterySpec(500.0, 50.0, 50.0, 200.0, 206.0, eff), logistic(0.3), 0.05)]
    for law in FOUR_LAWS:
        slope = asymptotic_slope(eff, law)
        for target in (200.0, 206.0, 194.0):
            bat = BatterySpec(500.0, 50.0, 50.0, 200.0, target, eff)
            ctx = context_for(bat, con, law)
            inner = purchase_slopes(0.5 * max_feasible_bid(bat, con, ctx), ctx)[1]
            cases += [(bat, law, 1.3 * r) for r in (0.5 * slope, inner, 2.0 * slope)]
    candidates = set()
    for bat, d, cr in cases:
        flat = MarketPrices(cb=1.3, cr=cr)
        curvy = MarketPrices(mode="elastic", cb0=1.3, cbd=0.0, ca0=cr, cad=0.0)
        runs = []
        for fn, prices in ((solve, flat), (solve_inelastic, flat), (solve_elastic, curvy)):
            calls.clear()
            sol = fn(bat, con, prices, d)
            runs.append((repr(sol), len(calls)))
        assert runs[1] == runs[0]
        assert runs[2] == runs[0]
        # A constant ratio: the solve costs the context, the selection and
        # the purchase at the bid, and nothing more.
        calls.clear()
        ctx = context_for(bat, con, d)
        xr = _solve_with_ratio(bat, con, ctx, lambda _x, _xb: cr / 1.3)[0]
        purchase_power(xr, ctx)
        assert (xr, len(calls)) == (sol.xr_kw, runs[0][1])
        candidates.add(sol.candidate)
    assert candidates == {"zero", "stationary", "boundary"}


def test_elastic_interior_optimum_closed_form():
    """On a balanced instance with room to spare, the stationary bid solves
    ca0 - 2 cad x = slope * (cb0 + 2 cbd slope x)."""
    eff = EfficiencyPair(0.92, 0.92)
    bat = big_balanced_battery(eff)
    con = RegulationContract(24.0, 4.8)
    d = logistic(0.0816)
    prices = MarketPrices(mode="elastic", cb0=1.0, cbd=1e-4, ca0=1.0, cad=1e-4)
    sol = solve_elastic(bat, con, prices, d)
    m = sol.slope
    want = (prices.ca0 - m * prices.cb0) / (2.0 * (prices.cad + m * m * prices.cbd))
    assert sol.candidate == "stationary"
    assert math.isclose(sol.xr_kw, want, rel_tol=1e-8)
    ratio = sol.diagnostics["price_ratio_at_solution"]
    assert math.isclose(ratio, m, rel_tol=1e-7)


def test_elastic_boundary_candidate():
    bat = BatterySpec(60.0, 18.0, 15.0, 20.0, 20.0, EfficiencyPair(0.9, 0.8))
    con = RegulationContract(12.0, 2.4)
    d = logistic(0.1)
    prices = MarketPrices(mode="elastic", cb0=1.0, cbd=1e-5, ca0=1.0, cad=1e-5)
    sol = solve_elastic(bat, con, prices, d)
    assert sol.candidate == "boundary"
    assert sol.xr_kw == sol.xr_max_kw


def test_elastic_convexity_guard():
    bat = BatterySpec(100.0, 20.0, 20.0, 80.0, 20.0, EfficiencyPair(0.9, 0.8))
    con = RegulationContract(12.0, 2.4)
    prices = MarketPrices(mode="elastic", cb0=1.0, cbd=10.0, ca0=1.0, cad=0.0)
    with pytest.raises(AssumptionError, match="non-convex"):
        solve_elastic(bat, con, prices, logistic(0.1))


def test_solve_scale_covariance():
    """Doubling every battery quantity doubles the bid, purchase and
    objective bit for bit; tripling matches to rounding."""
    con = RegulationContract(24.0, 7.2)
    d = logistic(0.3)
    prices = MarketPrices(cb=1.0, cr=0.046)

    def battery(k):
        return BatterySpec(500.0 * k, 50.0 * k, 50.0 * k, 200.0 * k,
                           206.0 * k, EfficiencyPair(0.9, 0.8))

    sol1 = solve_inelastic(battery(1.0), con, prices, d)
    sol2 = solve_inelastic(battery(2.0), con, prices, d)
    sol3 = solve_inelastic(battery(3.0), con, prices, d)
    assert sol2.xr_kw == 2.0 * sol1.xr_kw
    assert sol2.xb_kw == 2.0 * sol1.xb_kw
    assert sol2.objective_cts == 2.0 * sol1.objective_cts
    assert math.isclose(sol3.xr_kw, 3.0 * sol1.xr_kw, rel_tol=1e-12)
    assert math.isclose(sol3.objective_cts, 3.0 * sol1.objective_cts,
                        rel_tol=1e-12)


def _x_space_solve(bat, con, prices, d):
    """Reference: both bid searches bisect the bid itself, with every probe
    evaluated through purchase_power and purchase_slopes."""
    ctx = context_for(bat, con, d)
    cb0, cbd, ca0, cad = prices.coefficients

    def delivers(x):
        lower, upper = envelopes(x, bat, con)
        return lower <= purchase_power(x, ctx) <= upper

    def ratio(x):
        return (ca0 - 2.0 * cad * x) / (cb0 + 2.0 * cbd * purchase_power(x, ctx))

    crossing = envelope_crossing(bat, con)
    xr_max = crossing if delivers(crossing) else bisect_threshold(delivers, crossing, 0.0)[1]
    if purchase_slopes(0.0, ctx)[1] >= ratio(0.0):
        xr, candidate = 0.0, "zero"
    elif purchase_slopes(xr_max, ctx)[0] < ratio(xr_max):
        xr, candidate = xr_max, "boundary"
    else:
        xr = bisect_threshold(lambda x: purchase_slopes(x, ctx)[1] >= ratio(x), 0.0, xr_max)[1]
        candidate = "stationary"
    xb = purchase_power(xr, ctx)
    terms = (cb0 * xb, cbd * xb * xb, -ca0 * xr, cad * xr * xr)
    return xr, candidate, xr_max, con.horizon_h * sum(terms), con.horizon_h * sum(map(abs, terms))


@pytest.mark.filterwarnings("ignore:mean absolute deviation exceeds")
def test_unit_searches_match_the_bid_space_reference():
    """Searching the purchase per unit of bid, and the balanced closed form,
    give the reference's candidate, bids and objective, over the four laws,
    targets above, below and at the initial state, and fixed and affine
    prices; at a stationary bid the predicate holds as purchase_slopes
    evaluates it."""
    rng = np.random.default_rng(606)
    laws = (logistic, two_point_lower, three_point_upper,
            lambda mad: empirical(np.clip(rng.normal(0.0, mad, 30), -1.0, 1.0)))
    con = RegulationContract(12.0, 2.4)
    candidates = {"unbalanced": set(), "balanced": set()}
    for i in range(160):
        y0 = float(rng.uniform(15.0, 45.0))
        target = y0 + float(rng.choice([-1.0, 1.0])) * float(rng.uniform(0.5, 10.0))
        eff = EfficiencyPair(float(rng.uniform(0.8, 0.98)), float(rng.uniform(0.8, 0.98)))
        d = laws[i % 4](float(rng.uniform(0.05, 0.4)))
        ratio = asymptotic_slope(eff, d) * float(rng.uniform(0.02, 1.5))
        if i % 8 < 4:
            prices = MarketPrices(cb=2.0, cr=2.0 * ratio)
        else:
            prices = MarketPrices(mode="elastic", cb0=2.0, cbd=float(rng.uniform(0.0, 0.02)),
                                  ca0=2.0 * ratio, cad=float(rng.uniform(0.0, 0.001)))
        for tag, bat in (("unbalanced", BatterySpec(60.0, 18.0, 15.0, y0, target, eff)),
                         ("balanced", BatterySpec(60.0, 18.0, 15.0, y0, y0, eff))):
            try:
                sol = solve(bat, con, prices, d)
            except InfeasibleProblemError:
                continue
            xr, candidate, xr_max, objective, scale = _x_space_solve(bat, con, prices, d)
            assert sol.candidate == candidate, (i, tag)
            assert math.isclose(sol.xr_max_kw, xr_max, rel_tol=1e-12), (i, tag)
            assert math.isclose(sol.xr_kw, xr, rel_tol=1e-12), (i, tag)
            # The objective is a difference of terms; compare it at their scale.
            assert abs(sol.objective_cts - objective) <= 1e-12 * scale, (i, tag)
            if candidate == "stationary":
                ctx = context_for(bat, con, d)
                cb0, cbd, ca0, cad = prices.coefficients
                level = cb0 + 2.0 * cbd * purchase_power(sol.xr_kw, ctx)
                assert purchase_slopes(sol.xr_kw, ctx)[1] >= (ca0 - 2.0 * cad * sol.xr_kw) / level
            candidates[tag].add(candidate)
    assert candidates["unbalanced"] == {"boundary", "stationary"}
    assert candidates["balanced"] == {"zero", "boundary", "stationary"}


@pytest.mark.parametrize("law", FOUR_LAWS, ids=lambda d: d.kind)
def test_unbalanced_solves_are_scale_covariant(law):
    """Halving or doubling every battery quantity scales the bid, purchase and
    objective bit for bit, for boundary and stationary solves charging and
    discharging, and for a balanced target."""
    con = RegulationContract(12.0, 2.4)
    eff = EfficiencyPair(0.9, 0.8)
    candidates = set()
    for target in (26.0, 14.0, 20.0):
        for cr in (0.9, 0.05, 0.02):
            prices = MarketPrices(cb=5.1, cr=cr)
            sols = [solve(BatterySpec(60.0 * k, 18.0 * k, 15.0 * k, 20.0 * k, target * k, eff),
                          con, prices, law) for k in (1.0, 0.5, 2.0)]
            for k, sol in zip((0.5, 2.0), sols[1:]):
                assert sol.candidate == sols[0].candidate
                assert (sol.xr_kw, sol.xb_kw, sol.objective_cts, sol.xr_max_kw) == (
                    k * sols[0].xr_kw, k * sols[0].xb_kw, k * sols[0].objective_cts,
                    k * sols[0].xr_max_kw)
            candidates.add(sols[0].candidate)
    assert {"boundary", "stationary"} <= candidates


def test_analytic_bid_hand_instance():
    bat = BatterySpec(60.0, 18.0, 15.0, 20.0, 20.0, EfficiencyPair(0.9, 0.8))
    con = RegulationContract(12.0, 2.4)
    got = analytic_bid(bat, con, 0.05)
    # the stored-energy term binds here
    want = 0.8 * 20.0 / (2.4 * 0.95)
    assert got == want
    assert math.isclose(got, 7.017543859649122, rel_tol=1e-15)


def test_analytic_bid_needs_balanced_target():
    bat = BatterySpec(60.0, 18.0, 15.0, 20.0, 32.0, EfficiencyPair(0.9, 0.8))
    con = RegulationContract(12.0, 2.4)
    with pytest.raises(TargetMismatchError):
        analytic_bid(bat, con, 0.05)


def test_analytic_bid_power_terms():
    # with power caps in the ratio (1+m) : (1-m) both caps bind at once
    m = 0.04
    bat = BatterySpec(1e6, 1.0 + m, 1.0 - m, 5e5, 5e5, EfficiencyPair(0.9, 0.9))
    con = RegulationContract(24.0, 4.8)
    got = analytic_bid(bat, con, m)
    assert math.isclose(got, 1.0, rel_tol=1e-12)


def test_analytic_bid_matches_bisection():
    """The closed form agrees with a bisection of the band in bid space, and
    max_feasible_bid returns the bisection's bid exactly."""
    rng = np.random.default_rng(33)
    con = RegulationContract(24.0, 4.8)
    for _ in range(20):
        cap = float(rng.uniform(20.0, 300.0))
        bat = BatterySpec(cap, float(rng.uniform(2.0, 60.0)),
                          float(rng.uniform(2.0, 60.0)),
                          float(rng.uniform(0.1, 0.9)) * cap,
                          0.0, EfficiencyPair(float(rng.uniform(0.65, 1.0)),
                                              float(rng.uniform(0.65, 1.0))))
        bat = BatterySpec(bat.cap_kwh, bat.charge_cap_kw, bat.discharge_cap_kw,
                          bat.soc0_kwh, bat.soc0_kwh, bat.eff)
        ctx = context_for(bat, con, logistic(0.1))

        def delivers(x):
            lower, upper = envelopes(x, bat, con)
            return lower <= ctx.slope * x <= upper

        crossing = envelope_crossing(bat, con)
        reference = crossing if delivers(crossing) else bisect_threshold(delivers, crossing, 0.0)[1]
        assert math.isclose(reference, analytic_bid(bat, con, ctx.slope), rel_tol=1e-10)
        assert max_feasible_bid(bat, con, ctx) == reference


def test_energy_constrained_optimum_binding_labels():
    con = RegulationContract(24.0, 4.8)
    eff = EfficiencyPair(0.92, 0.92)
    slope = 0.0068
    small_dn = BatterySpec(100.0, 50.0, 0.5, 50.0, 50.0, eff)
    assert energy_constrained_optimum(small_dn, con, slope).binding == "discharge_cap"
    small_up = BatterySpec(100.0, 0.5, 50.0, 50.0, 50.0, eff)
    assert energy_constrained_optimum(small_up, con, slope).binding == "charge_cap"
    roomy = BatterySpec(100.0, 50.0, 50.0, 50.0, 50.0, eff)
    rule = energy_constrained_optimum(roomy, con, slope)
    assert rule.binding == "energy"
    a = eff.roundtrip
    q = con.activation
    denom = q * (1.0 + a - slope) + a * slope
    assert math.isclose(rule.xr_kw, 0.92 / denom * 100.0 / 24.0, rel_tol=1e-15)


def test_optimal_initial_state_maximises_the_closed_form():
    con = RegulationContract(24.0, 4.8)
    eff = EfficiencyPair(0.88, 0.79)
    slope = asymptotic_slope(eff, logistic(0.0816))
    base = BatterySpec(100.0, 1e6, 1e6, 50.0, 50.0, eff)
    rule = energy_constrained_optimum(base, con, slope)
    best = analytic_bid(
        BatterySpec(100.0, 1e6, 1e6, rule.soc0_kwh, rule.soc0_kwh, eff),
        con, slope)
    assert math.isclose(best, rule.xr_kw, rel_tol=1e-12)
    for y0 in np.linspace(1.0, 99.0, 99):
        bat = BatterySpec(100.0, 1e6, 1e6, float(y0), float(y0), eff)
        assert analytic_bid(bat, con, slope) <= best + 1e-9


def test_charger_rate_consistency():
    con = RegulationContract(24.0, 4.8)
    eff = EfficiencyPair(0.92, 0.92)
    slope = 0.0068045653592720293
    bat = BatterySpec(100.0, 1e5, 1e5, 50.0, 50.0, eff)
    rule = energy_constrained_optimum(bat, con, slope)
    assert rule.c_rate_per_h == required_charger_rate(eff, con, slope)


def test_sizing_with_zero_slope():
    con = RegulationContract(24.0, 4.8)
    eff = EfficiencyPair(1.0, 1.0)
    bat = BatterySpec(100.0, 1e5, 1e5, 10.0, 10.0, eff)
    rule = energy_constrained_optimum(bat, con, 0.0)
    assert rule.soc0_kwh == 50.0
    assert math.isclose(rule.xr_kw, 100.0 / (2.0 * 4.8), rel_tol=1e-14)


@pytest.mark.parametrize("a,q", sorted(oracles.SOC_RATIO))
def test_optimal_state_of_charge_ratio(a, q):
    con = RegulationContract(24.0, 24.0 * q)
    eff = EfficiencyPair(a, 1.0)
    slope = asymptotic_slope(eff, logistic(0.0816))
    bat = BatterySpec(100.0, 1e5, 1e5, 50.0, 50.0, eff)
    rule = energy_constrained_optimum(bat, con, slope)
    assert math.isclose(rule.soc0_kwh / 100.0, oracles.SOC_RATIO[(a, q)],
                        rel_tol=1e-12)


@pytest.mark.parametrize("device", sorted(oracles.NORMALIZED_BID))
def test_normalized_bid_reference(device):
    ep, em = oracles.DEVICES[device]
    con = RegulationContract(24.0, 4.8)
    eff = EfficiencyPair(ep, em)
    slope = asymptotic_slope(eff, logistic(0.0816))
    bat = BatterySpec(100.0, 1e5, 1e5, 50.0, 50.0, eff)
    rule = energy_constrained_optimum(bat, con, slope)
    normalized = rule.xr_kw / (100.0 / (2.0 * 4.8))
    assert math.isclose(normalized, oracles.NORMALIZED_BID[device],
                        rel_tol=1e-11)
