import math

import numpy as np
import pytest

from fcrbid import (
    AssumptionError,
    BatterySpec,
    EfficiencyPair,
    InfeasibleProblemError,
    RegulationContract,
    analytic_bid,
    context_for,
    empirical,
    envelope_crossing,
    envelopes,
    logistic,
    max_feasible_bid,
    purchase_power,
    purchase_power_many,
    three_point_upper,
    two_point_lower,
)

import oracles


def asymmetric_instance():
    """Charging battery with uneven power caps; mad above the activation
    ratio, so the deliverability warning fires."""
    bat = BatterySpec(60.0, 18.0, 15.0, 20.0, 32.0, EfficiencyPair(0.9, 0.8))
    con = RegulationContract(12.0, 2.4)
    return bat, con, logistic(0.25)


def test_battery_spec_validation():
    eff = EfficiencyPair(0.9, 0.9)
    with pytest.raises(ValueError):
        BatterySpec(0.0, 10.0, 10.0, 5.0, 5.0, eff)
    with pytest.raises(ValueError):
        BatterySpec(50.0, 0.0, 10.0, 5.0, 5.0, eff)
    with pytest.raises(ValueError):
        BatterySpec(50.0, 10.0, -1.0, 5.0, 5.0, eff)
    with pytest.raises(ValueError):
        BatterySpec(50.0, 10.0, 10.0, 51.0, 5.0, eff)
    with pytest.raises(ValueError):
        BatterySpec(50.0, 10.0, 10.0, 5.0, -0.1, eff)
    bat = BatterySpec(50.0, 10.0, 10.0, 12.0, 30.0, eff)
    assert bat.headroom_kwh == 38.0


def test_contract_validation():
    with pytest.raises(ValueError):
        RegulationContract(0.0, 0.0)
    with pytest.raises(ValueError):
        RegulationContract(24.0, 0.0)
    with pytest.raises(ValueError):
        RegulationContract(24.0, 25.0)
    con = RegulationContract(24.0, 4.8)
    assert con.activation == 4.8 / 24.0
    assert math.isclose(con.activation, 0.2, rel_tol=1e-15)
    assert RegulationContract(24.0, 24.0).activation == 1.0
    assert RegulationContract(24.0, 3.0).activation == 0.125


def test_context_for_drift():
    bat = BatterySpec(60.0, 18.0, 15.0, 20.0, 32.0, EfficiencyPair(0.9, 0.8))
    con = RegulationContract(12.0, 2.4)
    ctx = context_for(bat, con, logistic(0.1))
    assert ctx.drift_target == 1.0
    assert ctx.base_purchase == 1.0 / 0.9


def test_envelope_lower_hand_value():
    # discharge cap 6 kW binds: lower(10) = 10 - 6 = 4
    bat = BatterySpec(100.0, 20.0, 6.0, 50.0, 50.0, EfficiencyPair(0.9, 0.92))
    con = RegulationContract(24.0, 5.0)
    lower, _ = envelopes(10.0, bat, con)
    assert lower == 4.0


def test_envelope_pieces():
    bat = BatterySpec(100.0, 20.0, 6.0, 50.0, 50.0, EfficiencyPair(0.9, 0.92))
    con = RegulationContract(24.0, 5.0)
    q = con.activation
    for x in (0.0, 3.0, 10.0, 14.0):
        lower, upper = envelopes(x, bat, con)
        want_lower = max(x - min(6.0, 0.92 * 50.0 / 5.0),
                         q * x - 0.92 * 50.0 / 24.0)
        want_upper = min(min(20.0, 50.0 / (0.9 * 5.0)) - x,
                         50.0 / (0.9 * 24.0) - q * x)
        assert lower == want_lower
        assert upper == want_upper


def test_envelope_lower_with_empty_store():
    """With nothing stored the battery cannot cover any discharge, so the
    whole bid must be backed by purchase."""
    bat = BatterySpec(50.0, 10.0, 10.0, 0.0, 0.0, EfficiencyPair(0.9, 0.8))
    con = RegulationContract(24.0, 4.8)
    for x in (0.0, 1.0, 4.0):
        lower, _ = envelopes(x, bat, con)
        assert lower == x


def test_envelopes_array_matches_scalar():
    bat, con, _ = asymmetric_instance()
    grid = np.linspace(0.0, 12.0, 25)
    lower, upper = envelopes(grid, bat, con)
    for i, x in enumerate(grid):
        lo, up = envelopes(float(x), bat, con)
        assert lower[i] == lo
        assert upper[i] == up


def test_envelopes_monotone():
    bat, con, _ = asymmetric_instance()
    grid = np.linspace(0.0, 15.0, 301)
    lower, upper = envelopes(grid, bat, con)
    assert np.all(np.diff(lower) > 0.0)
    assert np.all(np.diff(upper) < 0.0)


def test_envelope_crossing_reference():
    bat, con, _ = asymmetric_instance()
    assert math.isclose(envelope_crossing(bat, con), oracles.CROSSING,
                        rel_tol=1e-14)


def test_envelope_crossing_closes_the_band():
    bat, con, _ = asymmetric_instance()
    x = envelope_crossing(bat, con)
    lower, upper = envelopes(x, bat, con)
    assert abs(upper - lower) < 1e-12
    lo1, up1 = envelopes(0.999 * x, bat, con)
    assert up1 > lo1
    lo2, up2 = envelopes(1.001 * x, bat, con)
    assert up2 < lo2


def test_max_feasible_bid_reference_and_warning():
    bat, con, dist = asymmetric_instance()
    ctx = context_for(bat, con, dist)
    with pytest.warns(UserWarning, match="activation ratio"):
        got = max_feasible_bid(bat, con, ctx)
    assert math.isclose(got, oracles.MAX_BID, rel_tol=1e-12)
    assert got < envelope_crossing(bat, con)


def test_max_bid_sits_on_the_band_edge():
    bat, con, dist = asymmetric_instance()
    ctx = context_for(bat, con, dist)
    with pytest.warns(UserWarning):
        xmax = max_feasible_bid(bat, con, ctx)
    grid = np.linspace(0.0, xmax, 200)
    g = purchase_power_many(grid, ctx)
    lower, upper = envelopes(grid, bat, con)
    assert np.all(g >= lower - 1e-9)
    assert np.all(g <= upper + 1e-9)
    beyond = 1.002 * xmax
    g_b = purchase_power_many(np.array([beyond]), ctx)[0]
    lo_b, up_b = envelopes(beyond, bat, con)
    assert min(up_b - g_b, g_b - lo_b) < 0.0


def test_max_bid_balanced_matches_closed_form():
    bat = BatterySpec(60.0, 18.0, 15.0, 20.0, 20.0, EfficiencyPair(0.9, 0.8))
    con = RegulationContract(12.0, 2.4)
    ctx = context_for(bat, con, logistic(0.1))
    got = max_feasible_bid(bat, con, ctx)
    want = analytic_bid(bat, con, ctx.slope)
    assert math.isclose(got, want, rel_tol=1e-10)


def test_max_bid_rejects_low_roundtrip():
    bat = BatterySpec(60.0, 18.0, 15.0, 20.0, 20.0, EfficiencyPair(0.5, 0.5))
    con = RegulationContract(12.0, 2.4)
    ctx = context_for(bat, con, logistic(0.1))
    with pytest.raises(AssumptionError, match="1/3"):
        max_feasible_bid(bat, con, ctx)


def test_max_bid_infeasible_charging():
    bat = BatterySpec(100.0, 1.0, 5.0, 0.0, 90.0, EfficiencyPair(0.9, 0.8))
    con = RegulationContract(10.0, 2.0)
    ctx = context_for(bat, con, logistic(0.1))
    with pytest.raises(InfeasibleProblemError, match="exceeds the admissible"):
        max_feasible_bid(bat, con, ctx)


def test_max_bid_infeasible_discharging():
    bat = BatterySpec(100.0, 5.0, 1.0, 90.0, 0.0, EfficiencyPair(0.9, 0.8))
    con = RegulationContract(1.0, 0.2)
    ctx = context_for(bat, con, logistic(0.1))
    with pytest.raises(InfeasibleProblemError, match="below the admissible"):
        max_feasible_bid(bat, con, ctx)


def test_max_bid_zero_when_store_is_empty():
    bat = BatterySpec(50.0, 10.0, 10.0, 0.0, 0.0, EfficiencyPair(0.9, 0.8))
    con = RegulationContract(24.0, 4.8)
    ctx = context_for(bat, con, logistic(0.1))
    assert max_feasible_bid(bat, con, ctx) == 0.0


def test_max_bid_random_instances():
    rng = np.random.default_rng(17)
    con = RegulationContract(24.0, 4.8)
    for _ in range(25):
        cap = float(rng.uniform(10.0, 200.0))
        up = float(rng.uniform(1.0, 50.0))
        dn = float(rng.uniform(1.0, 50.0))
        y0 = float(rng.uniform(0.05, 0.95)) * cap
        eff = EfficiencyPair(float(rng.uniform(0.6, 1.0)),
                             float(rng.uniform(0.6, 1.0)))
        bat = BatterySpec(cap, up, dn, y0, y0, eff)
        ctx = context_for(bat, con, logistic(float(rng.uniform(0.02, 0.15))))
        xmax = max_feasible_bid(bat, con, ctx)
        crossing = envelope_crossing(bat, con)
        assert 0.0 < xmax <= crossing + 1e-12
        lo, hi = envelopes(xmax, bat, con)
        g = ctx.slope * xmax
        assert lo - 1e-9 <= g <= hi + 1e-9
        probe = xmax + max(1e-6, 0.05 * xmax)
        lo_p, hi_p = envelopes(probe, bat, con)
        assert min(hi_p - ctx.slope * probe, ctx.slope * probe - lo_p) < 0.0


@pytest.mark.filterwarnings("ignore:mean absolute deviation exceeds")
def test_max_bid_is_exactly_deliverable():
    """At the returned bid the purchase lies inside the band in floating
    point, not just to rounding, and at the next float up it does not: 1200
    random problems over the four laws and balanced, charging and
    discharging targets."""
    rng = np.random.default_rng(2023)
    laws = (
        logistic,
        two_point_lower,
        three_point_upper,
        lambda mad: empirical(np.clip(rng.normal(0.0, mad, 40), -1.0, 1.0)),
    )
    for i in range(1200):
        cap = float(rng.uniform(20.0, 200.0))
        y0 = float(rng.uniform(0.2, 0.8)) * cap
        target = (y0, y0 + float(rng.uniform(0.0, 0.3)) * (cap - y0),
                  y0 - float(rng.uniform(0.0, 0.3)) * y0)[i // 4 % 3]
        eff = EfficiencyPair(float(rng.uniform(0.7, 1.0)),
                             float(rng.uniform(0.7, 1.0)))
        bat = BatterySpec(cap, float(rng.uniform(0.05, 0.5)) * cap,
                          float(rng.uniform(0.05, 0.5)) * cap, y0, target, eff)
        horizon = float(rng.choice([4.0, 6.0, 12.0, 24.0]))
        con = RegulationContract(horizon, float(rng.uniform(0.05, 0.5)) * horizon)
        ctx = context_for(bat, con, laws[i % 4](float(rng.uniform(0.02, 0.6))))
        xmax = max_feasible_bid(bat, con, ctx)
        lower, upper = envelopes(xmax, bat, con)
        purchase = purchase_power(xmax, ctx)
        assert min(upper - purchase, purchase - lower) >= 0.0, (i, xmax)
        # The bid is settled onto the last float the band admits.
        above = math.nextafter(xmax, math.inf)
        lower, upper = envelopes(above, bat, con)
        assert not lower <= purchase_power(above, ctx) <= upper, (i, xmax)


@pytest.mark.filterwarnings("ignore:mean absolute deviation exceeds")
@pytest.mark.parametrize("law", [logistic(0.8), two_point_lower(0.8), three_point_upper(0.8),
                                 empirical(np.linspace(0.6, 1.0, 9))], ids=lambda d: d.kind)
def test_max_bid_is_where_the_purchase_first_leaves_the_band(law):
    """Discharging with an activation ratio below the purchase slope, the
    purchase dips below the lower energy piece well short of the crossing
    and comes back above it: the largest bid is where it first leaves the
    band, every bid below it delivers, and some larger bids deliver again."""
    bat = BatterySpec(60.0, 100.0, 80.0, 6.0, 1.0, EfficiencyPair(0.65, 0.7))
    con = RegulationContract(168.0, 42.0)
    ctx = context_for(bat, con, law)
    assert con.activation < ctx.slope
    xmax = max_feasible_bid(bat, con, ctx)
    assert 0.0 < xmax < 0.1 * envelope_crossing(bat, con)
    grid = np.linspace(0.0, xmax, 2001)
    lower, upper = envelopes(grid, bat, con)
    purchase = purchase_power_many(grid, ctx)
    assert np.all((lower <= purchase) & (purchase <= upper))
    above = math.nextafter(xmax, math.inf)
    lower, upper = envelopes(above, bat, con)
    assert not lower <= purchase_power(above, ctx) <= upper
    grid = np.linspace(above, envelope_crossing(bat, con), 2001)
    lower, upper = envelopes(grid, bat, con)
    purchase = purchase_power_many(grid, ctx)
    assert np.any((lower <= purchase) & (purchase <= upper))
