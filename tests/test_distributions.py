import functools
import math

import numpy as np
import pytest

from fcrbid import (
    DegenerateSignalError,
    build_distribution,
    empirical,
    logistic,
    three_point_upper,
    two_point_lower,
)

import oracles

LN2 = math.log(2.0)


def test_logistic_theta_calibration():
    d = logistic(0.0816)
    assert d.kind == "logistic"
    assert d.mad == 0.0816
    assert d.theta == 2.0 * LN2 / 0.0816
    assert not d.is_discrete


@pytest.mark.parametrize("mad,z", sorted(oracles.LOGISTIC_SCDF))
def test_logistic_scdf_reference_values(mad, z):
    got = logistic(mad).scdf(z)
    want = oracles.LOGISTIC_SCDF[(mad, z)]
    # At z = -1 the value is the bare tail integral exp(-theta)/theta, and
    # the float rounding of theta is amplified by the factor theta itself.
    tol = 1e-13 if z == -1.0 else 1e-15
    assert math.isclose(got, want, rel_tol=tol)


def test_logistic_scdf_symmetry_is_exact():
    """scdf(z) - scdf(-z) == z holds bit for bit for z >= 0, because both
    sides round the identical real sum; for z < 0 recovering the tail
    costs at most one rounding step at unit scale."""
    d = logistic(0.0816)
    for z in np.linspace(0.0, 1.0, 201):
        z = float(z)
        assert d.scdf(z) == d.scdf(-z) + z
    for z in np.linspace(-1.0, 0.0, 201):
        z = float(z)
        assert abs(d.scdf(z) - (d.scdf(-z) + z)) <= 3e-16


def test_discrete_scdf_symmetry():
    laws = [two_point_lower(0.4), three_point_upper(0.3),
            empirical([0.1, -0.55, 0.3, 0.3])]
    for d in laws:
        for z in np.linspace(-1.0, 1.0, 81):
            z = float(z)
            assert abs(d.scdf(z) - (d.scdf(-z) + z)) < 1e-15


def test_logistic_cdf_values():
    d = logistic(0.0816)
    assert d.cdf(0.0) == 0.5
    # theta * mad = 2 ln 2, so the CDF at one mean absolute deviation is 0.8
    assert math.isclose(d.cdf(0.0816), 0.8, rel_tol=1e-14)
    assert math.isclose(d.cdf(-0.0816), 0.2, rel_tol=1e-14)
    for z in (-0.7, -0.05, 0.3):
        assert math.isclose(d.cdf(z) + d.cdf(-z), 1.0, rel_tol=1e-14)


def test_scdf_derivative_matches_cdf():
    """The super-cumulative is the antiderivative of the CDF."""
    d = logistic(0.3)
    h = 1e-6
    for z in (-0.8, -0.2, 0.0, 0.15, 0.6):
        fd = (d.scdf(z + h) - d.scdf(z - h)) / (2.0 * h)
        assert math.isclose(fd, d.cdf(z), rel_tol=1e-7, abs_tol=1e-9)


def test_scdf_at_zero_is_half_mad():
    for mad in (0.0816, 0.25, 0.5, 1.0):
        assert math.isclose(logistic(mad).scdf(0.0), mad / 2.0, rel_tol=1e-15)
        assert two_point_lower(mad).scdf(0.0) == mad / 2.0
        assert three_point_upper(mad).scdf(0.0) == mad / 2.0


def test_two_point_scdf_piecewise():
    d = two_point_lower(0.5)
    assert d.scdf(-0.5) == 0.0
    assert d.scdf(0.0) == 0.25
    assert d.scdf(0.5) == 0.5
    assert d.scdf(0.75) == 0.75
    for z in np.linspace(-1.0, 1.0, 101):
        z = float(z)
        want = max(0.0, (z + 0.5) / 2.0, z)
        assert abs(d.scdf(z) - want) < 1e-15


def test_three_point_scdf_piecewise():
    d = three_point_upper(0.5)
    assert d.scdf(-1.0) == 0.0
    assert d.scdf(0.0) == 0.25
    assert d.scdf(0.5) == 0.625
    assert d.scdf(1.0) == 1.0


def test_discrete_cdf_pair_left_right_limits():
    d = two_point_lower(0.4)
    assert d.cdf_pair(-0.4) == (0.0, 0.5)
    assert d.cdf_pair(0.4) == (0.5, 1.0)
    assert d.cdf_pair(0.0) == (0.5, 0.5)
    t = three_point_upper(0.3)
    left, right = t.cdf_pair(0.0)
    assert left == 0.15 and right == 0.85


def test_continuous_cdf_pair_collapses():
    d = logistic(0.2)
    for z in (-0.3, 0.0, 0.7):
        left, right = d.cdf_pair(z)
        assert left == right == d.cdf(z)


def test_scdf_convex_and_nondecreasing():
    rng = np.random.default_rng(5)
    laws = [logistic(0.0816), logistic(0.6), two_point_lower(0.3),
            three_point_upper(0.7), empirical(rng.uniform(-1, 1, 40))]
    z = np.linspace(-1.2, 1.2, 241)
    for d in laws:
        vals = [d.scdf(v) for v in z]
        diffs = np.diff(vals)
        assert np.all(diffs >= -1e-15)
        assert np.all(np.diff(diffs) >= -1e-12)


def test_scdf_outside_support():
    for d in (two_point_lower(0.4), three_point_upper(0.25)):
        assert d.scdf(-1.0) == 0.0
        assert d.scdf(1.0) == 1.0
        assert d.scdf(-2.0) == 0.0
        assert d.scdf(2.0) == 2.0
    # the empirical prefix sums cancel only up to accumulation order
    e = empirical([0.2, -0.6, 0.35])
    assert abs(e.scdf(-1.0)) <= 1e-15
    assert abs(e.scdf(1.0) - 1.0) <= 1e-15
    assert abs(e.scdf(2.0) - 2.0) <= 1e-15
    # The logistic family carries a sliver of mass outside [-1, 1], so its
    # super-cumulative is positive at -1 and exceeds one at +1.
    d = logistic(0.0816)
    assert 0.0 < d.scdf(-1.0) < 1e-8
    assert 1.0 < d.scdf(1.0) < 1.0 + 1e-8


def test_array_and_scalar_paths_agree():
    """Every law returns floats, and a NumPy scalar or a 0-d array gives the
    same float: for the discrete laws at every atom, at +-0.0 and at other
    points, where the left CDF limit at z is also the CDF at the float below
    z."""
    z = np.concatenate((np.linspace(-1.1, 1.1, 57), [0.0, -0.0],
                        np.random.default_rng(6).uniform(-1.2, 1.2, 200)))
    rng = np.random.default_rng(5)
    for d in (two_point_lower(0.3), three_point_upper(0.4), empirical([0.5, -0.2]),
              empirical(rng.uniform(-1.0, 1.0, 50))):
        for zi in [*z.tolist(), *d._tables[0]]:
            got = (d.scdf(zi), d.cdf(zi), d.cdf_pair(zi))
            assert got[2] == (d.cdf(math.nextafter(zi, -math.inf)), got[1]), (d.kind, zi)
            assert all(type(v) is float for v in (*got[:2], *got[2]))
            for same in (np.float64(zi), np.array(zi)):
                assert (d.scdf(same), d.cdf(same), d.cdf_pair(same)) == got
    for d in (logistic(0.0816), logistic(0.3), logistic(1.0)):
        for zi in z.tolist():
            assert (d.scdf(np.float64(zi)), d.cdf(np.array(zi))) == (d.scdf(zi), d.cdf(zi))


def reference_draws(dist, rng, size):
    """The sampler as it read before the guide table, a binary search over
    the cumulative masses for a discrete law: the bit-identity reference."""
    u = rng.random(size)
    if dist.theta is not None:
        with np.errstate(divide="ignore"):
            draw = np.log(u / (1.0 - u)) / dist.theta
        return np.clip(draw, -1.0, 1.0)
    locs, cum, _ = dist._tables
    idx = np.searchsorted(cum[1:], u, side="right")
    return np.asarray(locs)[np.minimum(idx, len(locs) - 1)]


class CountedUniforms(np.ndarray):
    """Fixed uniforms that count the guide lookup's correction passes: each
    pass compares ``edges[i] <= u``, which NumPy hands to ``u.__ge__``."""

    def __ge__(self, other):
        self.passes += 1
        return np.asarray(self) >= other


class FixedGenerator:
    """Stands in for a Generator whose ``random`` returns given uniforms."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        assert size == self.u.shape
        return self.u


def atom_index(law, u):
    """The atom index ``sample_with`` looks up for each uniform in ``u``,
    and the number of correction passes it took."""
    counted = np.asarray(u, dtype=float).view(CountedUniforms)
    counted.passes = 0
    index = law.sample_with(FixedGenerator(counted), counted.shape, lambda z: np.arange(z.size))
    return np.asarray(index), counted.passes


def searched_index(law, u):
    cum = law._tables[1]
    return np.minimum(np.searchsorted(cum[1:], u, "right"), len(cum) - 2)


def edge_uniforms(law):
    """0, the largest float below 1, and each mass edge below 1 with the
    float just under it."""
    edges = [c for c in law._tables[1] if c < 1.0]
    return np.array([0.0, 1.0 - 2.0**-53, *edges, *(math.nextafter(c, 0.0) for c in edges)])


@functools.cache
def clustered_laws():
    """Masses far below the guide's cell: one value a million times beside
    1000 singletons, and the three-point law whose middle atom has mass 1e-12."""
    singletons = np.random.default_rng(21).uniform(-1.0, 1.0, 1000)
    return (empirical(np.concatenate((np.full(10**6, 0.3), singletons))),
            three_point_upper(1.0 - 1e-12))


def perfbench_like_laws():
    """The extremal laws over their mad range and 128-sample empirical laws
    drawn as the benchmark draws them."""
    rng = np.random.default_rng(22)
    laws = [f(mad) for mad in np.linspace(0.01, 1.0, 100) for f in (two_point_lower, three_point_upper)]
    for mad in rng.uniform(0.02, 0.9, 20):
        laws.append(empirical(np.clip(rng.laplace(0.0, mad, 128), -1.0, 1.0).round(6)))
    return laws


def test_sampling_matches_the_binary_search_bit_for_bit():
    """The guide-table sampler returns the draws of the binary search, byte
    for byte, and a discrete law's f is applied to its atoms."""
    for law in (logistic(0.0816), two_point_lower(0.3), three_point_upper(0.2),
                empirical(np.random.default_rng(3).uniform(-1.0, 1.0, 607)), *clustered_laws()):
        for size in (1000, (13, 48)):
            got = law.sample_with(np.random.default_rng([4, 1]), size)
            want = reference_draws(law, np.random.default_rng([4, 1]), size)
            assert got.tobytes() == want.tobytes(), law.kind
            doubled = law.sample_with(np.random.default_rng([4, 1]), size, lambda z: 2.0 * z)
            assert doubled.tobytes() == (2.0 * want).tobytes(), law.kind


def test_guide_lookup_takes_at_most_two_passes():
    """Deterministic work count: on the extremal laws and 128-sample empirical
    laws a lookup moves at most one atom, so it compares at most twice."""
    u = np.concatenate((np.random.default_rng(23).random(20_000), [0.0, 1.0 - 2.0**-53]))
    for law in perfbench_like_laws():
        for us in (u, edge_uniforms(law)):
            index, passes = atom_index(law, us)
            assert 1 <= passes <= 2, (law.kind, law.mad)
            np.testing.assert_array_equal(index, searched_index(law, us))


def test_guide_lookup_stays_exact_on_clustered_masses():
    """Where many edges share a guide cell the lookup takes more passes (about
    30 for the empirical law), and still lands on the binary search's atom."""
    u = np.random.default_rng(24).random(20_000)
    for law in clustered_laws():
        for us in (u, edge_uniforms(law)):
            np.testing.assert_array_equal(atom_index(law, us)[0], searched_index(law, us))
    crowded = clustered_laws()[0]
    assert atom_index(crowded, edge_uniforms(crowded))[1] > 20


def test_sampling_is_deterministic():
    d = logistic(0.1)
    a = d.sample(42, 1000)
    b = d.sample(42, 1000)
    np.testing.assert_array_equal(a, b)
    c = d.sample(43, 1000)
    assert not np.array_equal(a, c)


def test_logistic_sampling_stats():
    d = logistic(0.0816)
    draws = d.sample(7, 200_000)
    assert draws.shape == (200_000,)
    assert np.all(np.abs(draws) <= 1.0)
    assert abs(np.mean(np.abs(draws)) - 0.0816) < 0.003
    assert abs(np.mean(draws)) < 0.003


def test_two_point_sampling_support():
    d = two_point_lower(0.3)
    draws = d.sample(1, 5000)
    assert set(np.unique(draws)) == {-0.3, 0.3}
    assert abs(np.mean(draws > 0) - 0.5) < 0.03


def test_three_point_sampling_zero_fraction():
    d = three_point_upper(0.3)
    draws = d.sample(11, 100_000)
    assert abs(np.mean(draws == 0.0) - 0.7) < 0.01
    assert set(np.unique(draws)) <= {-1.0, 0.0, 1.0}


def test_empirical_symmetrisation():
    d = empirical([0.3, -0.1])
    assert d.kind == "empirical"
    assert d.is_discrete
    assert d.mad == 0.2
    # reflection makes the law exactly symmetric
    for z in (0.1, 0.3, 0.05):
        left, right = d.cdf_pair(-z)
        left2, right2 = d.cdf_pair(z)
        assert left == 1.0 - right2
        assert right == 1.0 - left2
    draws = d.sample(3, 2000)
    assert set(np.unique(draws)) <= {-0.3, -0.1, 0.1, 0.3}


def test_empirical_rejects_bad_input():
    with pytest.raises(ValueError):
        empirical([])
    with pytest.raises(ValueError):
        empirical([0.2, float("nan")])
    with pytest.raises(ValueError):
        empirical([0.2, 1.5])
    with pytest.raises(DegenerateSignalError):
        empirical([0.0, 0.0, 0.0])


def test_empirical_tracks_the_generating_law():
    gen = logistic(0.1)
    draws = gen.sample(7, 10_000)
    d = empirical(draws)
    z = np.linspace(-0.9, 0.9, 181)
    gap = max(abs(d.cdf(v) - gen.cdf(v)) for v in z)
    assert gap < 5.0 / math.sqrt(10_000)
    assert abs(d.mad - 0.1) < 0.003


def test_extremal_laws_sandwich_any_in_support_law():
    """Among laws supported on [-1, 1] with a given mean absolute deviation,
    the two-point law minimises the super-cumulative pointwise and the
    three-point law maximises it."""
    rng = np.random.default_rng(12)
    z = np.linspace(-1.0, 1.0, 201)
    for _ in range(10):
        n = int(rng.integers(3, 60))
        draws = rng.uniform(-1.0, 1.0, n)
        law = empirical(draws)
        lo = two_point_lower(law.mad)
        hi = three_point_upper(law.mad)
        for v in z:
            mid = law.scdf(v)
            assert lo.scdf(v) <= mid + 1e-12
            assert mid <= hi.scdf(v) + 1e-12


def test_logistic_sits_above_the_lower_envelope():
    for mad in (0.0816, 0.3, 0.9):
        d = logistic(mad)
        lo = two_point_lower(mad)
        for z in np.linspace(-1.0, 1.0, 501):
            assert lo.scdf(z) <= d.scdf(z) + 1e-15


def test_logistic_upper_envelope_holds_away_from_the_edge():
    """The three-point ceiling bounds the logistic except within the last
    few percent of the band, where the logistic's out-of-band tail mass
    pushes its super-cumulative slightly over the ceiling."""
    mad = 0.0816
    d = logistic(mad)
    hi = three_point_upper(mad)
    for z in np.linspace(-0.95, 0.95, 381):
        assert d.scdf(z) <= hi.scdf(z) + 1e-12
    assert d.scdf(1.0) > hi.scdf(1.0)
    assert d.scdf(-1.0) > hi.scdf(-1.0)


def test_build_distribution_dispatch():
    assert build_distribution("logistic", mad=0.2).theta == logistic(0.2).theta
    assert build_distribution("two_point_lower", mad=0.2).kind == "two_point_lower"
    assert build_distribution("three_point_upper", mad=0.2).kind == "three_point_upper"
    d = build_distribution("empirical", samples=[0.1, -0.4])
    assert d.mad == 0.25
    with pytest.raises(ValueError):
        build_distribution("gaussian", mad=0.2)
    with pytest.raises(ValueError):
        build_distribution("empirical")


def test_mad_domain_is_checked():
    for bad in (0.0, -0.1, 1.0001):
        for factory in (logistic, two_point_lower, three_point_upper):
            with pytest.raises(ValueError):
                factory(bad)
    assert logistic(1.0).mad == 1.0


def test_logistic_rejects_a_mad_whose_scale_overflows():
    """Below 2 ln 2 / DBL_MAX (about 7.7e-309) theta = 2 ln 2 / mad is inf and
    the CDF at zero would be inf * 0; such a mad is rejected, and the
    smallest one above it still gives finite values."""
    for mad in (1e-310, 5e-324, 7.6e-309):
        with pytest.raises(ValueError, match="too small for the logistic law"):
            logistic(mad)
    d = logistic(7.8e-309)
    assert math.isfinite(d.theta)
    assert d.cdf(0.0) == 0.5
    assert d.scdf(0.0) == pytest.approx(7.8e-309 / 2.0, rel=1e-12)
    assert two_point_lower(1e-310).scdf(0.0) == 1e-310 / 2.0
