"""Acceptance suite: one test per release gate.

conftest picks up every ``test_criterion_NN`` result and prints a pass/fail
line per criterion after the run.  The tolerances are fixed gates; when one
of them trips, fix the library, not the number.
"""

import math
import time

import numpy as np
import pytest

from fcrbid import (
    BatterySpec,
    EfficiencyPair,
    InvestmentSpec,
    MarketPrices,
    RegulationContract,
    Trajectory,
    annualized_cost,
    asymptotic_slope,
    check_robust_feasibility,
    context_for,
    empirical,
    energy_constrained_optimum,
    envelopes,
    expected_charge_rate,
    fit_elasticity,
    fit_logistic,
    integrate_soc,
    logistic,
    max_feasible_bid,
    mc_expected_terminal_soc,
    operating_profit,
    purchase_bounds,
    purchase_power,
    purchase_power_many,
    rearrange_nonincreasing,
    reduce_prices,
    slope_bounds,
    solve_elastic,
    solve_inelastic,
    three_point_upper,
    two_point_lower,
    unit_profit,
)
from fcrbid import PriceSeries

REFERENCE_MAD = 0.0816

DEVICES = {
    "li_ion": EfficiencyPair(0.92, 0.92),
    "v2g": EfficiencyPair(0.88, 0.79),
    "h2": EfficiencyPair(0.80, 0.58),
}

WHOLESALE = MarketPrices(cb=0.9 / 0.251, cr=0.9)
RETAIL = MarketPrices(cb=0.9 / 0.059, cr=0.9)


def _sizing_battery(eff):
    # Power caps far above anything the contract can use, so the storage
    # capacity is the binding constraint.
    return BatterySpec(100.0, 1e5, 1e5, 50.0, 50.0, eff)


def _random_law(rng):
    # The logistic stays in the realistic dispersion range: its tail mass
    # outside the unit band, negligible there, would otherwise bias the
    # clipped sampler away from the closed-form expectations.
    kind = rng.integers(0, 4)
    if kind == 0:
        return logistic(rng.uniform(0.04, 0.15))
    if kind == 1:
        return two_point_lower(rng.uniform(0.05, 0.9))
    if kind == 2:
        return three_point_upper(rng.uniform(0.05, 0.9))
    return empirical(rng.uniform(-1.0, 1.0, size=rng.integers(3, 12)))


def _random_balanced_instance(rng, dyadic_budget=False):
    """A random balanced battery, contract and deviation law that admit a
    positive feasible bid."""
    while True:
        horizon = float(rng.choice([6.0, 12.0, 24.0]))
        if dyadic_budget:
            activation = int(rng.integers(5, 20)) / 64.0
        else:
            activation = rng.uniform(0.08, 0.3)
        cap = rng.uniform(20.0, 200.0)
        soc0 = rng.uniform(0.3, 0.7) * cap
        charge = rng.uniform(0.05, 0.3) * cap
        discharge = rng.uniform(0.05, 0.3) * cap
        ep = rng.uniform(0.75, 0.98)
        em = rng.uniform(0.7, 0.98)
        if ep * em < 0.4:
            continue
        bat = BatterySpec(cap, charge, discharge, soc0, soc0,
                          EfficiencyPair(ep, em))
        con = RegulationContract(horizon, activation * horizon)
        mad = rng.uniform(0.03, 0.95 * activation)
        kind = rng.integers(0, 2)
        dist = logistic(mad) if kind == 0 else two_point_lower(mad)
        ctx = context_for(bat, con, dist)
        xr_max = max_feasible_bid(bat, con, ctx)
        if xr_max > 1e-6:
            return bat, con, dist, ctx, xr_max


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------


def test_criterion_01():
    """asymptotic slope matches the reference values in under a millisecond"""
    dist = logistic(REFERENCE_MAD)
    table = {0.35: 0.0430, 0.60: 0.0209, 0.85: 0.0066}
    for roundtrip, want in table.items():
        eff = EfficiencyPair(roundtrip, 1.0)
        got = asymptotic_slope(eff, dist)
        assert abs(got - want) <= 0.0005
        asymptotic_slope(eff, dist)
        best = min(_timed(lambda: asymptotic_slope(eff, dist))
                   for _ in range(9))
        assert best < 1e-3


def test_criterion_02():
    """slope lower bound gap stays below 4.59e-4 beyond roundtrip 0.60"""
    dist = logistic(REFERENCE_MAD)
    gaps = {}
    for k in range(60, 101):
        roundtrip = k / 100.0
        eff = EfficiencyPair(roundtrip, 1.0)
        lower, _ = slope_bounds(eff, REFERENCE_MAD)
        gaps[roundtrip] = asymptotic_slope(eff, dist) - lower
    assert all(gap >= 0.0 for gap in gaps.values())
    assert all(gap < 4.59e-4 for rt, gap in gaps.items() if rt > 0.60)
    # The gap is largest exactly at 0.60, where it equals 4.5962e-4; the
    # quoted constant is that limit truncated to three digits, so the grid
    # point at 0.60 itself sits 6.2e-7 above it.
    assert 4.59e-4 < gaps[0.60] < 4.60e-4


def test_criterion_03():
    """computed slope equals the extremal-law closed forms to 1e-10"""
    rng = np.random.default_rng(31)
    for _ in range(100):
        eff = EfficiencyPair(rng.uniform(0.1, 0.99), 1.0)
        mad = rng.uniform(0.01, 0.95)
        lower, upper = slope_bounds(eff, mad)
        assert math.isclose(
            lower, asymptotic_slope(eff, two_point_lower(mad)), rel_tol=1e-10)
        assert math.isclose(
            upper, asymptotic_slope(eff, three_point_upper(mad)), rel_tol=1e-10)


def test_criterion_04():
    """normalized energy-constrained bids match the device table within 0.01"""
    con = RegulationContract(24.0, 4.8)
    table = {"li_ion": 0.98, "v2g": 0.91, "h2": 0.77}
    for device, want in table.items():
        bat = _sizing_battery(DEVICES[device])
        slope = asymptotic_slope(bat.eff, logistic(REFERENCE_MAD))
        rule = energy_constrained_optimum(bat, con, slope)
        assert rule.binding == "energy"
        normalized = rule.xr_kw / (bat.cap_kwh / (2.0 * con.budget_h))
        assert abs(normalized - want) <= 0.01


def test_criterion_05():
    """bid-maximising initial state of charge sits in the expected bands"""
    bands = {0.85: (0.52, 0.53), 0.35: (0.66, 0.69)}
    for roundtrip, (lo, hi) in bands.items():
        eff = EfficiencyPair(roundtrip, 1.0)
        slope = asymptotic_slope(eff, logistic(REFERENCE_MAD))
        for q in (0.1, 0.2):
            con = RegulationContract(24.0, 24.0 * q)
            rule = energy_constrained_optimum(_sizing_battery(eff), con, slope)
            ratio = rule.soc0_kwh / 100.0
            assert lo - 0.005 <= ratio <= hi + 0.005


def test_criterion_06():
    """unit and operating profits match the device/market table"""
    # The quoted margins are for the headline hydrogen roundtrip of 0.35.
    slope_35 = asymptotic_slope(EfficiencyPair(0.35, 1.0), logistic(REFERENCE_MAD))
    assert abs(unit_profit(WHOLESALE, slope_35) - 0.73) <= 0.02
    assert abs(unit_profit(RETAIL, slope_35) - 0.24) <= 0.02

    lossless = BatterySpec(100.0, 1e5, 1e5, 50.0, 50.0, EfficiencyPair(1.0, 1.0))
    con_02 = RegulationContract(24.0, 4.8)
    assert abs(operating_profit(lossless, con_02, WHOLESALE, 0.0) - 2.25) <= 0.05

    table = {
        ("li_ion", "wholesale"): 2.15, ("li_ion", "retail"): 1.96,
        ("v2g", "wholesale"): 1.92, ("v2g", "retail"): 1.53,
        ("h2", "wholesale"): 1.49, ("h2", "retail"): 0.81,
    }
    markets = {"wholesale": WHOLESALE, "retail": RETAIL}
    con_01 = RegulationContract(24.0, 2.4)
    for (device, market), want in table.items():
        bat = _sizing_battery(DEVICES[device])
        slope = asymptotic_slope(bat.eff, logistic(REFERENCE_MAD))
        at_02 = operating_profit(bat, con_02, markets[market], slope)
        assert abs(at_02 - want) <= 0.05
        ratio = operating_profit(bat, con_01, markets[market], slope) / at_02
        assert 1.9 <= ratio <= 2.1


def test_criterion_07():
    """annualized investment costs match the reference figures within 0.1"""
    cheap = InvestmentSpec(85.0, 710.0, 10.0, 30.0, 0.02, 1.15)
    dear = InvestmentSpec(165.0, 860.0, 10.0, 30.0, 0.02, 1.15)
    table = [(cheap, 8.2, 27.6), (dear, 16.0, 33.4)]
    for spec, want_energy, want_power in table:
        energy, power = annualized_cost(spec)
        assert abs(energy - want_energy) <= 0.1
        assert abs(power - want_power) <= 0.1


def test_criterion_08():
    """analytic expected terminal SoC lies in the 99% Monte-Carlo interval"""
    rng = np.random.default_rng(88)
    start = time.perf_counter()
    misses = 0
    for i in range(20):
        horizon = float(rng.choice([6.0, 12.0, 24.0]))
        con = RegulationContract(horizon, rng.uniform(0.08, 0.3) * horizon)
        eff = EfficiencyPair(rng.uniform(0.7, 1.0), rng.uniform(0.6, 1.0))
        bat = BatterySpec(1e6, 1e6, 1e6, 500.0, 500.0, eff)
        dist = _random_law(rng)
        xb = rng.uniform(-2.0, 3.0)
        xr = rng.uniform(0.0, 10.0)
        n_steps = int(rng.integers(24, 49))
        analytic = bat.soc0_kwh + horizon * expected_charge_rate(
            xb, xr, eff, dist)
        mean, half = mc_expected_terminal_soc(
            xb, xr, bat, con, dist, n_steps, 100_000, seed=1000 + i)
        if abs(mean - analytic) > half:
            misses += 1
    assert misses <= 1
    assert time.perf_counter() - start < 30.0


def test_criterion_09():
    """closed-form feasibility is pathwise sound and tight to 1e-9"""
    rng = np.random.default_rng(99)
    for i in range(50):
        bat, con, dist, ctx, xr_max = _random_balanced_instance(
            rng, dyadic_budget=True)
        xr = rng.uniform(0.0, 1.0) * xr_max
        floor, ceiling = envelopes(xr, bat, con)
        xb = floor + rng.uniform(0.0, 1.0) * (ceiling - floor)
        report = check_robust_feasibility(
            xb, xr, bat, con, n_random=1000, seed=i, n_steps=64)
        assert report.feasible
        assert report.n_signals == 1002
        assert report.sampled_max_violation <= 1e-9
        for closed_form, pathwise in report.attained.values():
            assert abs(closed_form - pathwise) <= 1e-9


def test_criterion_10():
    """nonincreasing rearrangement dominates the state of charge pathwise"""
    rng = np.random.default_rng(10)
    for _ in range(100):
        n = int(rng.integers(10, 200))
        traj = Trajectory(rng.uniform(0.0, 1.0, size=n),
                          float(rng.choice([0.25, 0.5])))
        cap = rng.uniform(50.0, 500.0)
        bat = BatterySpec(cap, cap, cap, cap / 2.0, cap / 2.0,
                          EfficiencyPair(rng.uniform(0.7, 1.0),
                                         rng.uniform(0.6, 1.0)))
        xb = rng.uniform(0.0, 2.0)
        xr = rng.uniform(0.0, 5.0)
        ordered = rearrange_nonincreasing(traj)
        slack = integrate_soc(xb, xr, ordered, bat) - integrate_soc(
            xb, xr, traj, bat)
        assert float(np.min(slack)) >= -1e-12


def _grid_gap(sol, objective_on):
    grid = np.linspace(0.0, sol.xr_max_kw, 10_000)
    best = float(np.min(objective_on(grid)))
    return sol.objective_cts - best, 1e-7 * (1.0 + abs(best))


def test_criterion_11():
    """solver output is optimal against a 10^4-point grid in both modes"""
    rng = np.random.default_rng(11)
    for _ in range(200):
        bat, con, dist, ctx, _ = _random_balanced_instance(rng)
        cb = rng.uniform(2.0, 8.0)
        cr = cb * ctx.slope * rng.uniform(0.2, 3.0)
        prices = MarketPrices(cb=cb, cr=cr)
        sol = solve_inelastic(bat, con, prices, dist)
        horizon = con.horizon_h

        def inelastic_objective(grid):
            g = purchase_power_many(grid, ctx)
            return cb * horizon * g - cr * horizon * grid

        gap, tol = _grid_gap(sol, inelastic_objective)
        assert gap <= tol

    for _ in range(200):
        bat, con, dist, ctx, xr_max = _random_balanced_instance(rng)
        cb0 = rng.uniform(2.0, 8.0)
        ca0 = cb0 * ctx.slope * rng.uniform(0.2, 3.0)
        scale = max(xr_max, 1.0)
        cbd = rng.uniform(0.0, 0.2) * cb0 / scale
        cad = rng.uniform(0.0, 0.2) * ca0 / scale
        prices = MarketPrices(mode="elastic", cb0=cb0, cbd=cbd,
                              ca0=ca0, cad=cad)
        sol = solve_elastic(bat, con, prices, dist)
        horizon = con.horizon_h

        def elastic_objective(grid):
            g = purchase_power_many(grid, ctx)
            return (cb0 + cbd * g) * horizon * g - (ca0 - cad * grid) * horizon * grid

        gap, tol = _grid_gap(sol, elastic_objective)
        assert gap <= tol

    # With both elasticities at zero, the elastic path must agree exactly.
    bat, con, dist, ctx, _ = _random_balanced_instance(rng)
    flat = MarketPrices(mode="elastic", cb0=4.0, cbd=0.0,
                        ca0=4.0 * ctx.slope, cad=0.0)
    fixed = MarketPrices(cb=4.0, cr=4.0 * ctx.slope)
    a = solve_elastic(bat, con, flat, dist)
    b = solve_inelastic(bat, con, fixed, dist)
    assert a.xr_kw == b.xr_kw
    assert a.xb_kw == b.xb_kw
    assert a.objective_cts == b.objective_cts


def test_criterion_12():
    """extremal envelopes sandwich the law and its purchase curve"""
    rng = np.random.default_rng(12)
    zs = np.linspace(-1.0, 1.0, 1000)
    for _ in range(20):
        law = empirical(rng.uniform(-1.0, 1.0, size=rng.integers(3, 12)))
        floor = two_point_lower(law.mad)
        ceiling = three_point_upper(law.mad)
        assert min(law.scdf(z) - floor.scdf(z) for z in zs) >= -1e-10
        assert min(ceiling.scdf(z) - law.scdf(z) for z in zs) >= -1e-10

        cap = rng.uniform(50.0, 300.0)
        bat = BatterySpec(cap, 0.2 * cap, 0.2 * cap, cap / 2.0, cap / 2.0,
                          EfficiencyPair(rng.uniform(0.7, 0.98),
                                         rng.uniform(0.65, 0.98)))
        con = RegulationContract(24.0, rng.uniform(2.0, 7.0))
        ctx = context_for(bat, con, law)
        xs = np.linspace(0.0, 3.0 * bat.charge_cap_kw, 1000)
        g = purchase_power_many(xs, ctx)
        lower, upper = np.array([purchase_bounds(x, ctx) for x in xs]).T
        assert float(np.min(g - lower)) >= -1e-10
        assert float(np.min(upper - g)) >= -1e-10


def test_criterion_13(tmp_path, capsys):
    """ingestion recovers known parameters from synthetic data"""
    # Dispersion: iid draws from a known law, straight and with the daily cap.
    law = logistic(REFERENCE_MAD)
    dev = law.sample(seed=2024, n=20_000)
    fitted = fit_logistic(dev)
    assert abs(fitted.mad - REFERENCE_MAD) < 0.002

    calm = logistic(0.07).sample(seed=7, n=96 * 10)
    stormy = np.tile([1.0, -1.0], 96)
    mixed = np.concatenate([calm, stormy])
    capped = fit_logistic(mixed, mad_cap=0.2, samples_per_day=96)
    day_mads = np.abs(mixed).reshape(-1, 96).mean(axis=1)
    want = float(np.mean(np.minimum(day_mads, 0.2)))
    assert math.isclose(capped.mad, want, rel_tol=1e-12)
    assert capped.mad < fit_logistic(mixed).mad

    # Prices: exact averages, with the deviation-weighted delivery correction.
    delta = np.tile([0.5, -0.5], 24)
    series = PriceSeries(np.full(48, 5.0), pa=np.full(48, 0.9),
                         pd=np.full(48, 7.0), delta=delta)
    cb, cr = reduce_prices(series)
    assert cb == 5.0 and cr == 0.9

    # Elasticity: noisy affine curve, seed-pinned recovery within 2%.
    rng = np.random.default_rng(13)
    volumes = rng.uniform(0.0, 2000.0, size=2000)
    prices = 0.9 - 1e-4 * volumes + rng.normal(0.0, 0.005, size=2000)
    intercept, slope = fit_elasticity(prices, volumes)
    assert abs(intercept - 0.9) / 0.9 < 0.02
    assert abs(slope + 1e-4) / 1e-4 < 0.02

    # End to end through the command line on generated files.
    from datetime import datetime, timedelta
    from fcrbid.cli import main

    freq = tmp_path / "freq.csv"
    stamp = datetime(2024, 1, 1)
    rows = ["timestamp,hz"]
    for v in dev[:5000]:
        rows.append(f"{stamp.isoformat()},{float(50.0 + 0.2 * v)!r}")
        stamp += timedelta(minutes=15)
    freq.write_text("\n".join(rows) + "\n", encoding="utf-8")

    curve = tmp_path / "curve.csv"
    curve.write_text(
        "volume_kw,price_cts\n"
        + "\n".join(f"{v!r},{0.9 - 1e-4 * v!r}" for v in (50.0, 400.0, 1200.0))
        + "\n",
        encoding="utf-8",
    )
    assert main(["fit", "--frequency", str(freq),
                 "--elastic-regulation", str(curve)]) == 0
    import json
    report = json.loads(capsys.readouterr().out)
    assert abs(report["mad"] - float(np.mean(np.abs(dev[:5000])))) < 1e-9
    assert math.isclose(report["ca0"], 0.9, rel_tol=1e-9)
    assert math.isclose(report["cad"], 1e-4, rel_tol=1e-6)
