import math
from fractions import Fraction

import numpy as np
import pytest

from fcrbid import (
    AssumptionError,
    BatterySpec,
    EfficiencyPair,
    MarketPrices,
    PurchaseContext,
    RegulationContract,
    asymptotic_slope,
    context_for,
    empirical,
    expected_charge_rate,
    logistic,
    max_feasible_bid,
    purchase_bounds,
    purchase_power,
    purchase_power_many,
    purchase_slopes,
    slope_bounds,
    solve,
    solve_inelastic,
    three_point_upper,
    two_point_lower,
)
from fcrbid.distributions import DeviationDistribution
from fcrbid.purchase import _inverse_unit_rate, _purchase_point

import oracles


def ctx_for(eta_plus, eta_minus, dist, target):
    return PurchaseContext(EfficiencyPair(eta_plus, eta_minus), dist, target)


def test_efficiency_pair_validation():
    for bad in (0.0, -0.2, 1.0001):
        with pytest.raises(ValueError):
            EfficiencyPair(bad, 0.9)
        with pytest.raises(ValueError):
            EfficiencyPair(0.9, bad)
    eff = EfficiencyPair(1.0, 1.0)
    assert eff.roundtrip == 1.0
    assert eff.drain == 0.0


def test_efficiency_pair_properties():
    eff = EfficiencyPair(0.9, 0.8)
    assert eff.roundtrip == 0.9 * 0.8
    assert math.isclose(eff.drain, 1.0 / 0.8 - 0.9, rel_tol=1e-15)
    assert math.isclose(eff.drain, (1.0 - eff.roundtrip) / 0.8, rel_tol=1e-14)


def test_expected_rate_zero_bid():
    """Without a bid the rate is plain one-way conversion."""
    eff = EfficiencyPair(0.9, 0.8)
    d = logistic(0.3)
    assert expected_charge_rate(1.0, 0.0, eff, d) == 0.9
    assert expected_charge_rate(-1.0, 0.0, eff, d) == pytest.approx(-1.25, rel=1e-15)
    assert expected_charge_rate(0.0, 0.0, eff, d) == 0.0


def test_expected_rate_balanced_drain():
    # at zero purchase the bid only drains the store, at drain * scdf(0) per kW
    eff = EfficiencyPair(0.92, 0.92)
    d = logistic(0.0816)
    got = expected_charge_rate(0.0, 1.0, eff, d)
    assert math.isclose(got, -eff.drain * 0.0408, rel_tol=1e-14)


@pytest.mark.parametrize("law", [logistic(0.3), two_point_lower(0.3), three_point_upper(0.3),
                                 empirical([0.5, -0.25, 0.125])], ids=lambda d: d.kind)
def test_expected_rate_at_a_subnormal_bid(law):
    """xb / xr lies beyond the support, so the rate is the zero-bid limit
    eta_plus * xb - drain * |xb|, and drain * xr must not round the bid away."""
    eff = EfficiencyPair(0.9, 0.8)
    exact = Fraction(eff.eta_plus) * Fraction(-1e-300) - Fraction(eff.drain) * Fraction(1e-300)
    got = expected_charge_rate(-1e-300, 5e-324, eff, law)
    assert abs(Fraction(got) - exact) <= 2 * Fraction(math.ulp(float(exact)))


def test_expected_rate_at_normal_bids_keeps_its_rounding():
    """Only a subnormal bid scales by the law value first; every other bid
    keeps the product drain * xr * scdf(-xb / xr) as written."""
    eff = EfficiencyPair(0.9, 0.8)
    law = three_point_upper(0.3)
    rng = np.random.default_rng(11)
    for xr in [2.2250738585072014e-308, 1e-300, *rng.uniform(0.0, 50.0, 200)]:
        xb = float(rng.uniform(-2.0, 2.0)) * xr
        want = eff.eta_plus * xb - eff.drain * xr * law.scdf(-(xb / xr))
        assert expected_charge_rate(xb, xr, eff, law) == want


def test_expected_rate_reference_values():
    for (xb, xr, ep, em, mad), want in oracles.EXPECTED_RATE.items():
        got = expected_charge_rate(xb, xr, EfficiencyPair(ep, em), logistic(mad))
        assert math.isclose(got, want, rel_tol=1e-13)


def test_expected_rate_rejects_negative_bid():
    eff = EfficiencyPair(0.9, 0.9)
    d = logistic(0.1)
    with pytest.raises(ValueError):
        expected_charge_rate(1.0, -0.5, eff, d)


def test_expected_rate_array_matches_scalar():
    """A NumPy scalar or a 0-d array gives the float result, bid 0 included,
    bit for bit."""
    eff = EfficiencyPair(0.85, 0.7)
    xb = np.linspace(-2.0, 2.0, 21)
    xr = np.linspace(0.0, 3.0, 21)
    for d in (logistic(0.12), logistic(0.3), two_point_lower(0.3), three_point_upper(0.4),
              empirical([0.5, -0.2, 0.05])):
        for b, r in zip(xb.tolist(), xr.tolist()):
            want = expected_charge_rate(b, r, eff, d)
            assert type(want) is float
            assert expected_charge_rate(np.float64(b), np.array(r), eff, d) == want, d.kind


def test_expected_rate_monotone():
    eff = EfficiencyPair(0.9, 0.8)
    d = logistic(0.2)
    xb = np.linspace(-3.0, 3.0, 301)
    rates = [expected_charge_rate(b, 1.5, eff, d) for b in xb]
    assert np.all(np.diff(rates) > 0.0)
    xr = np.linspace(0.0, 5.0, 201)
    rates = [expected_charge_rate(0.4, r, eff, d) for r in xr]
    assert np.all(np.diff(rates) <= 1e-15)


@pytest.mark.parametrize("roundtrip,mad", sorted(oracles.SLOPES))
def test_asymptotic_slope_reference(roundtrip, mad):
    eff = EfficiencyPair(roundtrip, 1.0)
    got = asymptotic_slope(eff, logistic(mad))
    assert math.isclose(got, oracles.SLOPES[(roundtrip, mad)], rel_tol=1e-13)


def test_asymptotic_slope_depends_on_product_only():
    d = logistic(0.0816)
    s1 = asymptotic_slope(EfficiencyPair(0.92, 0.92), d)
    s2 = asymptotic_slope(EfficiencyPair(0.8464, 1.0), d)
    assert math.isclose(s1, s2, rel_tol=1e-12)


def test_asymptotic_slope_perfect_efficiency_is_zero():
    """A lossless device needs no purchase per unit of bid: the inversion
    gives +0.0 under every law."""
    for law in (logistic(0.3),) + FOUR_LAWS:
        slope = asymptotic_slope(EfficiencyPair(1.0, 1.0), law)
        assert (slope, math.copysign(1.0, slope)) == (0.0, 1.0), law.kind


def test_asymptotic_slope_heavy_tail_raises():
    # the logistic carries mass outside the band, so scdf(1) > 1 and a
    # vanishing roundtrip leaves no fixed point below one
    with pytest.raises(AssumptionError):
        asymptotic_slope(EfficiencyPair(1e-6, 1e-6), logistic(0.5))
    # an in-support law always admits one
    s = asymptotic_slope(EfficiencyPair(1e-6, 1e-6), two_point_lower(0.9))
    assert 0.8 < s < 1.0


def test_asymptotic_slope_fixed_point_residual():
    for eff, d in [(EfficiencyPair(0.9, 0.8), logistic(0.3)),
                   (EfficiencyPair(0.95, 0.6), three_point_upper(0.4)),
                   (EfficiencyPair(0.7, 0.7), empirical([0.1, -0.3, 0.25]))]:
        s = asymptotic_slope(eff, d)
        assert abs(s - (1.0 - eff.roundtrip) * d.scdf(s)) < 1e-12


def test_slope_bounds_are_the_extremal_slopes():
    """The closed-form bracket equals the computed slope under the matching
    extremal law, so the bracket is tight."""
    rng = np.random.default_rng(3)
    for _ in range(100):
        a = float(rng.uniform(0.05, 0.99))
        mad = float(rng.uniform(0.01, 1.0))
        eff = EfficiencyPair(a, 1.0)
        lower, upper = slope_bounds(eff, mad)
        s_lo = asymptotic_slope(eff, two_point_lower(mad))
        s_hi = asymptotic_slope(eff, three_point_upper(mad))
        assert math.isclose(lower, s_lo, rel_tol=1e-10, abs_tol=1e-13)
        assert math.isclose(upper, s_hi, rel_tol=1e-10, abs_tol=1e-13)


def test_slope_bounds_bracket_in_support_laws():
    rng = np.random.default_rng(4)
    for _ in range(50):
        a = float(rng.uniform(0.1, 0.98))
        draws = rng.uniform(-1.0, 1.0, int(rng.integers(3, 50)))
        d = empirical(draws)
        eff = EfficiencyPair(a, 1.0)
        lower, upper = slope_bounds(eff, d.mad)
        s = asymptotic_slope(eff, d)
        assert lower <= s + 1e-12
        assert s <= upper + 1e-12


def test_slope_bounds_and_the_logistic():
    """The floor holds for the logistic at any calibration (extra tail mass
    only raises the slope); the ceiling holds at moderate spread, where the
    out-of-band mass is negligible."""
    rng = np.random.default_rng(8)
    for _ in range(50):
        a = float(rng.uniform(0.1, 0.98))
        mad = float(rng.uniform(0.02, 0.95))
        eff = EfficiencyPair(a, 1.0)
        lower, _ = slope_bounds(eff, mad)
        assert lower <= asymptotic_slope(eff, logistic(mad)) + 1e-12
    for a in np.linspace(0.2, 0.95, 10):
        eff = EfficiencyPair(float(a), 1.0)
        _, upper = slope_bounds(eff, 0.0816)
        assert asymptotic_slope(eff, logistic(0.0816)) <= upper + 1e-12


def test_slope_monotone_in_efficiency_and_mad():
    d = logistic(0.0816)
    slopes = [asymptotic_slope(EfficiencyPair(a, 1.0), d)
              for a in np.linspace(0.2, 0.95, 16)]
    assert all(s1 > s2 for s1, s2 in zip(slopes, slopes[1:]))
    eff = EfficiencyPair(0.9, 0.8)
    slopes = [asymptotic_slope(eff, logistic(m))
              for m in np.linspace(0.05, 0.9, 18)]
    assert all(s1 < s2 for s1, s2 in zip(slopes, slopes[1:]))


def test_balanced_purchase_is_exactly_linear():
    ctx = ctx_for(0.9, 0.8, logistic(0.3), 0.0)
    for xr in (0.0, 0.5, 1.0, 7.3, 1e6, 1e13):
        assert purchase_power(xr, ctx) == ctx.slope * xr
    grid = np.array([0.0, 0.5, 1.0, 7.3, 1e6, 1e13])
    np.testing.assert_array_equal(purchase_power_many(grid, ctx), ctx.slope * grid)
    for xr in (0.5, 1.0, 7.3, 1e6, 1e13):
        assert purchase_slopes(xr, ctx) == (ctx.slope, ctx.slope)


def test_purchase_at_zero_bid_is_the_base():
    up = ctx_for(0.9, 0.8, logistic(0.3), 0.25)
    assert purchase_power(0.0, up) == 0.25 / 0.9
    down = ctx_for(0.9, 0.8, logistic(0.3), -0.15)
    assert purchase_power(0.0, down) == 0.8 * -0.15


@pytest.mark.parametrize("xr,target", sorted(oracles.PURCHASE))
def test_purchase_reference_values(xr, target):
    ctx = ctx_for(0.9, 0.8, logistic(0.3), target)
    got = purchase_power(xr, ctx)
    assert math.isclose(got, oracles.PURCHASE[(xr, target)], rel_tol=1e-12)


def test_purchase_flat_then_rises_under_two_point_law():
    """With a discharging target and a two-point law the purchase stays at
    its zero-bid level until the bid reaches |base| / mad, then grows
    linearly at the lower-envelope slope."""
    ctx = ctx_for(0.9, 0.8, two_point_lower(0.5), -0.3)
    base = ctx.base_purchase
    assert base == 0.8 * -0.3
    kink = abs(base) / 0.5
    for xr in (0.25 * kink, 0.5 * kink, 0.99 * kink):
        assert math.isclose(purchase_power(xr, ctx), base, abs_tol=1e-12)
    a = ctx.eff.roundtrip
    s_low = 0.5 * (1.0 - a) / (1.0 + a)
    for xr in (1.5 * kink, 3.0 * kink):
        want = s_low * xr + 2.0 * base / (1.0 + a)
        assert math.isclose(purchase_power(xr, ctx), want, rel_tol=1e-9,
                            abs_tol=1e-12)


def test_purchase_solves_the_rate_equation():
    rng = np.random.default_rng(9)
    draws = np.random.default_rng(10)
    for _ in range(40):
        ep = float(rng.uniform(0.4, 1.0))
        em = float(rng.uniform(0.4, 1.0))
        mad = float(rng.uniform(0.03, 0.9))
        target = float(rng.uniform(-1.0, 1.0))
        xr = float(rng.uniform(0.01, 50.0))
        laws = (logistic(mad), two_point_lower(mad), three_point_upper(mad),
                empirical(draws.uniform(-1.0, 1.0, 9)))
        for law in laws:
            ctx = ctx_for(ep, em, law, target)
            xb = purchase_power(xr, ctx)
            rate = expected_charge_rate(xb, xr, ctx.eff, ctx.dist)
            assert abs(rate - target) <= 1e-9 * (1.0 + abs(target))


def test_purchase_nondecreasing_and_convex():
    for target in (0.3, -0.2):
        ctx = ctx_for(0.9, 0.8, logistic(0.2), target)
        grid = np.linspace(0.0, 20.0, 401)
        g = purchase_power_many(grid, ctx)
        diffs = np.diff(g)
        assert np.all(diffs >= -1e-12)
        assert np.all(np.diff(diffs) >= -1e-10)


def test_purchase_scale_covariance_across_1e12():
    """Doubling the bid and the drift target doubles the purchase bit for bit
    at any size: no large-bid switch to the asymptote breaks the covariance."""
    for law in (logistic(0.3), two_point_lower(0.3), three_point_upper(0.3),
                empirical([0.1, -0.4, 0.25, 0.7])):
        for drift in (0.25, -0.25):
            ctx1, ctx2 = ctx_for(0.9, 0.8, law, drift), ctx_for(0.9, 0.8, law, 2.0 * drift)
            assert purchase_power(1.2e12, ctx2) == 2.0 * purchase_power(6e11, ctx1), law.kind


def test_purchase_many_matches_scalar():
    """Bit for bit, over the four laws, both target signs, zero bid and a bid
    of 2e12 kW, in the shape of the input; the one-inverse point evaluation
    gives the same purchase, balanced targets included."""
    grid = np.array([[0.0, 0.3, 1.0, 4.0], [7.7, 25.0, 1e6, 2e12]])
    for law in (logistic(0.3),) + FOUR_LAWS:
        for target in (0.25, -0.25, 0.0):
            ctx = ctx_for(0.9, 0.8, law, target)
            got = purchase_power_many(grid, ctx)
            want = [[purchase_power(float(x), ctx) for x in row] for row in grid]
            np.testing.assert_array_equal(got, want)
            for x in grid.ravel().tolist():
                assert _purchase_point(x, ctx) == (purchase_power(x, ctx),
                                                   *purchase_slopes(x, ctx)), (law.kind, x)
    ctx = ctx_for(0.9, 0.8, logistic(0.3), 0.25)
    with pytest.raises(ValueError):
        purchase_power_many(np.array([-1.0]), ctx)
    with pytest.raises(ValueError):
        purchase_power(-1.0, ctx)


@pytest.mark.parametrize("xr,target", sorted(oracles.PURCHASE_SLOPE))
def test_purchase_slope_reference_values(xr, target):
    ctx = ctx_for(0.9, 0.8, logistic(0.3), target)
    left, right = purchase_slopes(xr, ctx)
    want = oracles.PURCHASE_SLOPE[(xr, target)]
    assert math.isclose(left, want, rel_tol=1e-11)
    assert left == right


def test_purchase_slopes_at_zero_bid():
    balanced = ctx_for(0.9, 0.8, logistic(0.3), 0.0)
    assert purchase_slopes(0.0, balanced) == (balanced.slope, balanced.slope)
    skewed = ctx_for(0.9, 0.8, logistic(0.3), 0.25)
    assert purchase_slopes(0.0, skewed) == (0.0, 0.0)


def test_purchase_slopes_match_finite_differences():
    ctx = ctx_for(0.9, 0.8, logistic(0.3), 0.25)
    for xr in (0.5, 2.0, 10.0):
        left, right = purchase_slopes(xr, ctx)
        h = 1e-5 * xr
        fd = (purchase_power(xr + h, ctx) - purchase_power(xr - h, ctx)) / (2 * h)
        assert math.isclose(0.5 * (left + right), fd, rel_tol=1e-5)


def test_purchase_slopes_across_a_kink():
    ctx = ctx_for(0.9, 0.8, two_point_lower(0.5), -0.3)
    kink = abs(ctx.base_purchase) / 0.5
    before = purchase_slopes(0.8 * kink, ctx)
    assert abs(before[0]) < 1e-9 and abs(before[1]) < 1e-9
    after = purchase_slopes(1.25 * kink, ctx)
    a = ctx.eff.roundtrip
    s_low = 0.5 * (1.0 - a) / (1.0 + a)
    assert math.isclose(after[0], s_low, rel_tol=1e-9)
    assert math.isclose(after[1], s_low, rel_tol=1e-9)


def test_purchase_slopes_ordered_and_bounded():
    rng = np.random.default_rng(21)
    laws = [logistic(0.25), two_point_lower(0.4), empirical([0.3, -0.7, 0.1])]
    for d in laws:
        for target in (-0.4, 0.0, 0.6):
            ctx = ctx_for(0.88, 0.77, d, target)
            for xr in rng.uniform(0.01, 30.0, 20):
                left, right = purchase_slopes(float(xr), ctx)
                assert 0.0 <= left <= right
                assert right <= ctx.slope + 1e-12


def test_purchase_bounds_are_attained_by_extremal_laws():
    for target in (0.0, 0.3, -0.25):
        lo_ctx = ctx_for(0.9, 0.8, two_point_lower(0.35), target)
        hi_ctx = ctx_for(0.9, 0.8, three_point_upper(0.35), target)
        grid = np.linspace(0.0, 12.0, 49)
        lo_band = [purchase_bounds(x, lo_ctx)[0] for x in grid]
        hi_band = [purchase_bounds(x, hi_ctx)[1] for x in grid]
        np.testing.assert_allclose(
            purchase_power_many(grid, lo_ctx), lo_band, rtol=1e-9, atol=1e-10)
        np.testing.assert_allclose(
            purchase_power_many(grid, hi_ctx), hi_band, rtol=1e-9, atol=1e-10)


def test_purchase_bounds_sandwich_in_support_laws():
    rng = np.random.default_rng(30)
    grid = np.linspace(0.0, 15.0, 61)
    for _ in range(8):
        draws = rng.uniform(-1.0, 1.0, int(rng.integers(4, 40)))
        d = empirical(draws)
        for target in (0.0, 0.2, -0.3):
            ctx = ctx_for(0.9, 0.8, d, target)
            g = purchase_power_many(grid, ctx)
            lower, upper = np.array([purchase_bounds(x, ctx) for x in grid]).T
            assert np.all(lower <= g + 1e-9)
            assert np.all(g <= upper + 1e-9)


def test_purchase_bounds_lower_holds_for_the_logistic():
    # the two-point law minimises over laws confined to the band, and extra
    # tail mass only raises the purchase, so the floor holds here too
    ctx = ctx_for(0.9, 0.8, logistic(0.2), 0.15)
    grid = np.linspace(0.0, 15.0, 61)
    lower = [purchase_bounds(x, ctx)[0] for x in grid]
    assert np.all(lower <= purchase_power_many(grid, ctx) + 1e-9)


def test_purchase_scale_covariance():
    """Doubling the bid and the drift target doubles the purchase bit for
    bit; scaling by three matches to rounding."""
    for law in (logistic(0.3), two_point_lower(0.3),
                empirical([0.1, -0.4, 0.25, 0.7])):
        ctx1 = ctx_for(0.9, 0.8, law, 0.25)
        ctx2 = ctx_for(0.9, 0.8, law, 0.5)
        ctx3 = ctx_for(0.9, 0.8, law, 0.75)
        for xr in (0.5, 2.0, 11.0):
            g = purchase_power(xr, ctx1)
            assert purchase_power(2.0 * xr, ctx2) == 2.0 * g
            assert math.isclose(purchase_power(3.0 * xr, ctx3), 3.0 * g,
                                rel_tol=1e-12)


# the README law first, then the other families at the same spread
FOUR_LAWS = (logistic(0.0816), two_point_lower(0.0816),
             three_point_upper(0.0816), empirical([0.02, -0.1, 0.05, 0.15]))


def count_law_calls(monkeypatch):
    """Record the argument of every ``scdf_cdf`` call.  ``scdf``, ``cdf`` and
    ``cdf_pair`` are views of it, so every evaluation of the law counts
    once."""
    calls = []
    scdf_cdf = DeviationDistribution.scdf_cdf

    def counted(self, z):
        calls.append(z)
        return scdf_cdf(self, z)

    monkeypatch.setattr(DeviationDistribution, "scdf_cdf", counted)
    return calls


@pytest.mark.parametrize("law", FOUR_LAWS, ids=lambda d: d.kind)
def test_inversion_work_is_bounded(law, monkeypatch):
    """The slope and each purchase take a handful of law evaluations, the
    largest deliverable bid of the README battery, charging or discharging,
    takes at most 40, an unbalanced solve stays within 200 whichever
    candidate wins, an unbalanced stationary solve within 40 under a
    discrete law (its piece comes from the atom tables) and 90 under the
    logistic (a bisection in u took 82-122), and a balanced solve makes no
    law evaluation beyond the slope's."""
    calls = count_law_calls(monkeypatch)
    eff = EfficiencyPair(0.9, 0.8)
    asymptotic_slope(eff, law)
    assert 0 < len(calls) <= 10
    slope_calls = len(calls)
    for target in (0.25, -0.15):
        ctx = PurchaseContext(eff, law, target)
        for xr in (0.05, 0.7, 4.0, 60.0):
            calls.clear()
            purchase_power(xr, ctx)
            assert 0 < len(calls) <= 10
    con = RegulationContract(horizon_h=12.0, budget_h=2.4)
    for target in (26.0, 14.0):
        bat = BatterySpec(60.0, 18.0, 15.0, 20.0, target, eff)
        ctx = context_for(bat, con, law)
        calls.clear()
        max_feasible_bid(bat, con, ctx)
        assert len(calls) <= 40
        for cr in (0.9, 0.2, 0.05):
            calls.clear()
            solve_inelastic(bat, con, MarketPrices(cb=5.1, cr=cr), law)
            assert len(calls) <= 200
    fixed = MarketPrices(cb=5.1, cr=0.02)
    affine = MarketPrices(mode="elastic", cb0=5.1, cbd=0.01, ca0=0.02, cad=0.005)
    for target, prices in ((26.0, fixed), (26.0, affine), (14.0, affine)):
        calls.clear()
        sol = solve(BatterySpec(60.0, 18.0, 15.0, 20.0, target, eff), con, prices, law)
        assert sol.candidate == "stationary"
        assert len(calls) <= (40 if law.is_discrete else 90)
    bat = BatterySpec(60.0, 18.0, 15.0, 20.0, 20.0, eff)
    for prices in (*(MarketPrices(cb=5.1, cr=cr) for cr in (0.9, 0.2, 0.05)),
                   MarketPrices(mode="elastic", cb0=5.1, cbd=0.01, ca0=0.1, cad=0.005)):
        calls.clear()
        solve(bat, con, prices, law)
        assert len(calls) == slope_calls


@pytest.mark.parametrize("law", FOUR_LAWS, ids=lambda d: d.kind)
def test_purchase_point_evaluates_the_law_only_in_the_inverse(law, monkeypatch):
    """The purchase and both slopes at a bid come from the law values of the
    inverse's last Newton step, taken at the returned u: ``_purchase_point``
    makes exactly the law evaluations of ``_inverse_unit_rate`` alone."""
    calls = count_law_calls(monkeypatch)
    for target in (0.25, -0.15):
        ctx = ctx_for(0.9, 0.8, law, target)
        for xr in (0.05, 0.7, 4.0, 60.0):
            calls.clear()
            u, *values = _inverse_unit_rate(target / xr, ctx.eff, law)
            inverse = len(calls)
            assert values == list(law.scdf_cdf(-u)), (target, xr)
            calls.clear()
            _purchase_point(xr, ctx)
            assert len(calls) == inverse > 0, (target, xr)


@pytest.mark.filterwarnings("ignore:mean absolute deviation exceeds")
def test_piece_bid_is_settled_from_the_root(monkeypatch):
    """The largest deliverable bid of the README battery charging to 26 kWh
    under the three-point law is settled from the piece's Newton root alone:
    at most 11 law evaluations."""
    calls = count_law_calls(monkeypatch)
    bat = BatterySpec(60.0, 18.0, 15.0, 20.0, 26.0, EfficiencyPair(0.9, 0.8))
    con = RegulationContract(horizon_h=12.0, budget_h=2.4)
    ctx = context_for(bat, con, three_point_upper(0.3))
    calls.clear()
    max_feasible_bid(bat, con, ctx)
    assert len(calls) <= 11


def test_purchase_at_large_bids_with_a_small_target():
    """Far out on the curve the purchase still solves the rate equation and
    stays between its zero-bid level and the asymptote, both to rounding at
    the bid's scale."""
    for law in FOUR_LAWS:
        for target in (-2e-6, 2e-6):
            ctx = ctx_for(0.9, 0.8, law, target)
            base = ctx.base_purchase
            for xr in (1e9, 3e10, 4e11):
                xb = purchase_power(xr, ctx)
                rate = expected_charge_rate(xb, xr, ctx.eff, ctx.dist)
                assert abs(rate - target) <= 1e-14 * xr
                assert base - 1e-14 * xr <= xb <= base + (ctx.slope + 1e-14) * xr


def test_bids_too_small_to_divide_by_get_the_zero_bid_answers():
    """Where drift target / bid overflows, or the Newton start drift target /
    (eta_plus bid) does (at 1.45e-309 for a 0.25 kW target), the purchase, its
    slopes and the rate are the zero-bid ones, exact beyond the support, not
    infinities or NaN; just above the overflow the inverse agrees with them."""
    eff = EfficiencyPair(0.9, 0.8)
    for law in (logistic(0.3),) + FOUR_LAWS:
        for target in (0.25, -0.25):
            ctx = PurchaseContext(eff, law, target)
            base = ctx.base_purchase
            overflows = (5e-324, 1e-309, 1.45e-309) if target > 0.0 else (5e-324, 1e-309)
            for xr in (5e-324, 1e-309, 1.45e-309, 1e-300):
                xb, left, right = _purchase_point(xr, ctx)
                assert (left, right) == purchase_slopes(xr, ctx) == (0.0, 0.0), (law.kind, xr)
                assert xb == purchase_power(xr, ctx), (law.kind, xr)
                if xr in overflows:
                    assert xb == base, (law.kind, target, xr)
                else:
                    assert math.isclose(xb, base, rel_tol=1e-15), (law.kind, target, xr)
        for xb in (-0.12, 0.12):
            assert expected_charge_rate(xb, 5e-324, eff, law) \
                == expected_charge_rate(xb, 0.0, eff, law), law.kind
        assert expected_charge_rate(1e300, 1e-300, eff, law) == 0.9 * 1e300, law.kind


def test_context_slope_matches_free_function():
    eff = EfficiencyPair(0.9, 0.8)
    d = logistic(0.3)
    ctx = PurchaseContext(eff, d, 0.25)
    assert ctx.slope == asymptotic_slope(eff, d)
