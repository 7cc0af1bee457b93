"""Property tests: invariants over random instances drawn by Hypothesis.

Runs are derandomized and keep no example database, so a plain ``pytest``
run is deterministic.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from fcrbid import (
    BatterySpec,
    EfficiencyPair,
    RegulationContract,
    analytic_bid,
    asymptotic_slope,
    check_robust_feasibility,
    context_for,
    envelopes,
    logistic,
    max_feasible_bid,
    two_point_lower,
)

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
