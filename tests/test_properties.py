"""Property tests: invariants over random instances drawn by Hypothesis.

Runs are derandomized and keep no example database, so a plain ``pytest``
run is deterministic.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fcrbid import (
    AssumptionError,
    BatterySpec,
    EfficiencyPair,
    MarketPrices,
    RegulationContract,
    analytic_bid,
    asymptotic_slope,
    check_robust_feasibility,
    context_for,
    empirical,
    envelope_crossing,
    envelopes,
    logistic,
    max_feasible_bid,
    purchase_power,
    purchase_slopes,
    solve,
    three_point_upper,
    two_point_lower,
)

from test_solver import _x_space_solve

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True,
                    database=None)
SEEDS = st.integers(0, 2**32 - 1)
SHARES = st.floats(0.0, 1.0)


@st.composite
def balanced_instances(draw, activations=st.integers(5, 19).map(lambda k: k / 64.0)):
    """A balanced battery, a contract whose budget is by default a whole
    number of 64ths of the horizon, and a law whose mean absolute deviation
    stays below the activation ratio: the instances of acceptance
    criterion 09."""
    horizon = draw(st.sampled_from([6.0, 12.0, 24.0]))
    activation = draw(activations)
    cap = draw(st.floats(20.0, 200.0))
    soc0 = draw(st.floats(0.3, 0.7)) * cap
    bat = BatterySpec(
        cap, draw(st.floats(0.05, 0.3)) * cap, draw(st.floats(0.05, 0.3)) * cap,
        soc0, soc0,
        EfficiencyPair(draw(st.floats(0.75, 0.98)), draw(st.floats(0.7, 0.98))),
    )
    con = RegulationContract(horizon, activation * horizon)
    law = draw(st.sampled_from([logistic, two_point_lower]))
    return bat, con, law(draw(st.floats(0.03, 0.95 * activation)))


def sweep_inside_the_envelopes(instance, bid_share, band_share, seed):
    """Feasibility report, on a 64-step grid, for a bid up to the largest
    deliverable one and a purchase inside the band at that bid."""
    bat, con, law = instance
    xr = bid_share * max_feasible_bid(bat, con, context_for(bat, con, law))
    floor, ceiling = envelopes(xr, bat, con)
    xb = floor + band_share * (ceiling - floor)
    report = check_robust_feasibility(xb, xr, bat, con, n_random=1000,
                                      seed=seed, n_steps=64)
    assert report.feasible
    assert report.sampled_max_violation <= 1e-9
    return report


@PROPERTY
@given(balanced_instances(), SHARES, SHARES, SEEDS)
def test_bids_inside_the_envelopes_pass_the_sweep(instance, bid_share,
                                                  band_share, seed):
    report = sweep_inside_the_envelopes(instance, bid_share, band_share, seed)
    for closed_form, pathwise in report.attained.values():
        assert abs(closed_form - pathwise) <= 1e-9


@PROPERTY
@given(balanced_instances(st.floats(5 / 64, 19 / 64)), SHARES, SHARES, SEEDS)
def test_unaligned_budgets_pass_the_sweep(instance, bid_share, band_share,
                                          seed):
    """A budget drawn as a float is seldom a whole number of steps; the
    extreme signals then stay within the closed-form worst case (for the
    floor soc_min, at or above it)."""
    report = sweep_inside_the_envelopes(instance, bid_share, band_share, seed)
    for name, (closed_form, pathwise) in report.attained.items():
        excess = closed_form - pathwise if name == "soc_min" else pathwise - closed_form
        assert excess <= 1e-9


@PROPERTY
@given(balanced_instances(), SEEDS)
def test_the_sweep_finds_an_overbid(instance, seed):
    bat, con, law = instance
    slope = asymptotic_slope(bat.eff, law)
    xr = 1.5 * analytic_bid(bat, con, slope)
    report = check_robust_feasibility(slope * xr, xr, bat, con, n_random=1000,
                                      seed=seed, n_steps=64)
    assert not report.feasible
    assert report.sampled_max_violation > 1e-6


@st.composite
def unbalanced_instances(draw):
    """A battery charging or discharging by up to 95% of its room, any of the
    four laws, and a contract with a budget of 5-50% of the horizon."""
    horizon = draw(st.sampled_from([4.0, 6.0, 12.0, 24.0]))
    cap = draw(st.floats(20.0, 200.0))
    soc0 = draw(st.floats(0.1, 0.9)) * cap
    share = draw(st.floats(0.001, 0.95))
    target = soc0 + share * (cap - soc0) if draw(st.booleans()) else soc0 - share * soc0
    eff = EfficiencyPair(draw(st.floats(0.7, 1.0)), draw(st.floats(0.7, 1.0)))
    bat = BatterySpec(cap, draw(st.floats(0.05, 1.0)) * cap, draw(st.floats(0.05, 1.0)) * cap,
                      soc0, target, eff)
    con = RegulationContract(horizon, draw(st.floats(0.05, 0.5)) * horizon)
    mad = draw(st.floats(0.02, 0.6))
    kind = draw(st.sampled_from(["logistic", "two_point_lower", "three_point_upper",
                                 "empirical"]))
    if kind == "empirical":
        rng = np.random.default_rng(draw(SEEDS))
        law = empirical(np.clip(rng.normal(0.0, mad, 40), -1.0, 1.0))
    else:
        law = {"logistic": logistic, "two_point_lower": two_point_lower,
               "three_point_upper": three_point_upper}[kind](mad)
    return bat, con, law


@PROPERTY
@pytest.mark.filterwarnings("ignore:mean absolute deviation exceeds")
@given(unbalanced_instances())
def test_unbalanced_max_bid_is_the_last_deliverable_float(instance):
    """The largest deliverable bid of an unbalanced target lies in (0,
    crossing]; the purchase is inside the band there and, short of the
    crossing, outside it at the next float up."""
    bat, con, law = instance
    ctx = context_for(bat, con, law)
    assume(-bat.discharge_cap_kw < ctx.base_purchase < bat.charge_cap_kw)
    xmax = max_feasible_bid(bat, con, ctx)
    assert 0.0 < xmax <= envelope_crossing(bat, con)
    lower, upper = envelopes(xmax, bat, con)
    assert lower <= purchase_power(xmax, ctx) <= upper
    above = math.nextafter(xmax, math.inf)
    lower, upper = envelopes(above, bat, con)
    assert xmax == envelope_crossing(bat, con) or not (
        lower <= purchase_power(above, ctx) <= upper)


@PROPERTY
@pytest.mark.filterwarnings("ignore:mean absolute deviation exceeds")
@given(unbalanced_instances(), st.floats(0.02, 1.5), st.booleans(), SHARES, SHARES)
def test_stationary_bid_is_the_first_float_that_reaches_the_ratio(instance, share, affine,
                                                                  cbd_share, cad_share):
    """Over the four laws, both target signs and fixed and affine prices, the
    solver picks the bid-space reference's candidate, and at a stationary bid
    the right slope reaches the price ratio while one float below it does not."""
    bat, con, law = instance
    ctx = context_for(bat, con, law)
    assume(ctx.slope > 0.0 and -bat.discharge_cap_kw < ctx.base_purchase < bat.charge_cap_kw)
    ratio = share * ctx.slope
    prices = (MarketPrices(mode="elastic", cb0=2.0, cbd=0.02 * cbd_share, ca0=2.0 * ratio,
                           cad=0.001 * cad_share) if affine else MarketPrices(cb=2.0, cr=2.0 * ratio))
    try:
        sol = solve(bat, con, prices, law)
    except AssumptionError:  # affine prices that are not convex at this base purchase
        assume(False)
    _, candidate, xr_max = _x_space_solve(bat, con, prices, law)[:3]
    # The reference bisects deliverability for a single switch; where the
    # purchase dips out of the band and comes back, its largest bid is a later one.
    assume(math.isclose(xr_max, sol.xr_max_kw, rel_tol=1e-12))
    assert sol.candidate == candidate
    cb0, cbd, ca0, cad = prices.coefficients

    def reaches(x):
        level = cb0 + 2.0 * cbd * purchase_power(x, ctx)
        return purchase_slopes(x, ctx)[1] >= (ca0 - 2.0 * cad * x) / level

    if sol.candidate == "stationary":
        assert reaches(sol.xr_kw)
        assert not reaches(math.nextafter(sol.xr_kw, 0.0))


@st.composite
def deviation_laws(draw):
    """Any of the four laws with a random mad; an empirical law from up to
    1000 random samples."""
    mad = draw(st.floats(1e-6, 1.0))
    kind = draw(st.sampled_from([logistic, two_point_lower, three_point_upper, empirical]))
    if kind is empirical:
        rng = np.random.default_rng(draw(SEEDS))
        return empirical(np.clip(rng.normal(0.0, mad, draw(st.integers(1, 1000))), -1.0, 1.0))
    return kind(mad)


@PROPERTY
@given(deviation_laws(), st.floats(-1.5, 1.5))
def test_scdf_symmetry_identity(law, z):
    """scdf(z) - scdf(-z) = z up to rounding: for the logistic one unit in
    the last place of scdf(|z|) < 2, which the bound reaches near |z| = 1;
    for a discrete law one such unit per atom, because its prefix sums
    accumulate rounding."""
    steps = 1 if law.theta is not None else law._locs.size
    assert abs(law.scdf(z) - law.scdf(-z) - z) <= steps * 2.0**-52 * max(1.0, abs(z))
