import math
import tracemalloc

import numpy as np
import pytest

from fcrbid import simulate
from fcrbid import (
    BatterySpec,
    EfficiencyPair,
    RegulationContract,
    Trajectory,
    analytic_bid,
    asymptotic_slope,
    check_robust_feasibility,
    context_for,
    empirical,
    expected_charge_rate,
    integrate_soc,
    logistic,
    mc_expected_terminal_soc,
    purchase_power,
    read_trajectory_csv,
    rearrange_nonincreasing,
    sample_trajectory,
    three_point_upper,
    two_point_lower,
    worst_case_signals,
    write_trajectory_csv,
)

from test_distributions import reference_draws


def balanced_instance():
    bat = BatterySpec(60.0, 18.0, 15.0, 20.0, 20.0, EfficiencyPair(0.9, 0.8))
    con = RegulationContract(12.0, 2.4)
    return bat, con


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(np.array([]), 1.0)
    with pytest.raises(ValueError):
        Trajectory(np.zeros((2, 2)), 1.0)
    with pytest.raises(ValueError):
        Trajectory(np.array([0.1, np.nan]), 1.0)
    with pytest.raises(ValueError):
        Trajectory(np.array([1.5]), 1.0)
    with pytest.raises(ValueError):
        Trajectory(np.array([0.5]), 0.0)


def test_trajectory_properties():
    traj = Trajectory(np.array([1.0, -0.5, 0.0, 0.25]), 0.5)
    assert traj.n_steps == 4
    assert traj.horizon_h == 2.0
    assert traj.budget_h == 0.875
    assert traj.within_budget(0.875)
    assert traj.within_budget(0.875 - 1e-12)
    assert not traj.within_budget(0.8)


def test_sampling_caps_at_the_budget():
    con = RegulationContract(24.0, 12.0)
    traj = sample_trajectory(two_point_lower(1.0), con, 24, seed=5)
    assert np.all(np.abs(traj.values[:12]) == 1.0)
    assert np.all(traj.values[12:] == 0.0)
    assert traj.budget_h == 12.0


def test_capping_scales_the_crossing_step():
    con = RegulationContract(24.0, 11.5)
    traj = sample_trajectory(two_point_lower(1.0), con, 24, seed=5)
    assert abs(traj.values[11]) == 0.5
    assert np.all(traj.values[12:] == 0.0)
    assert traj.budget_h == 11.5


def test_capping_noop_when_budget_covers_the_horizon():
    con = RegulationContract(24.0, 24.0)
    capped = sample_trajectory(two_point_lower(1.0), con, 24, seed=7)
    raw = sample_trajectory(two_point_lower(1.0), con, 24, seed=7,
                            cap_budget=False)
    np.testing.assert_array_equal(capped.values, raw.values)


def test_sampling_rejects_empty_grid():
    con = RegulationContract(24.0, 4.8)
    with pytest.raises(ValueError):
        sample_trajectory(logistic(0.1), con, 0, seed=1)


def test_daily_capping_frequency_at_coarse_resolution():
    """At 50 steps per day and the case-study spread, a few percent of days
    overrun a 10% activation budget."""
    con = RegulationContract(24.0, 2.4)
    d = logistic(0.0816)
    n_days = 1500
    overruns = sum(
        not sample_trajectory(d, con, 50, seed=k, cap_budget=False).within_budget(
            con.budget_h)
        for k in range(n_days)
    )
    assert 0.01 <= overruns / n_days <= 0.06


def test_integrate_soc_constant_charge():
    bat, _ = balanced_instance()
    traj = Trajectory(np.zeros(4), 1.0)
    soc = integrate_soc(2.0, 0.0, traj, bat)
    np.testing.assert_allclose(soc, [20.0, 21.8, 23.6, 25.4, 27.2], rtol=1e-15)


def test_integrate_soc_constant_discharge():
    bat, _ = balanced_instance()
    traj = Trajectory(np.zeros(4), 1.0)
    soc = integrate_soc(-2.0, 0.0, traj, bat)
    np.testing.assert_allclose(soc, [20.0, 17.5, 15.0, 12.5, 10.0], rtol=1e-15)


def test_integrate_soc_mixed_signal():
    bat, _ = balanced_instance()
    traj = Trajectory(np.array([1.0, -1.0]), 1.0)
    soc = integrate_soc(0.0, 1.0, traj, bat)
    np.testing.assert_allclose(soc, [20.0, 20.9, 19.65], rtol=1e-15)


def test_integrate_soc_does_not_clip():
    bat, _ = balanced_instance()
    traj = Trajectory(np.zeros(8), 12.0)
    soc = integrate_soc(-5.0, 0.0, traj, bat)
    assert soc[-1] < 0.0


def test_worst_case_signals():
    con = RegulationContract(24.0, 6.0)
    up, down = worst_case_signals(con, 24)
    assert up.dt_h == 1.0
    np.testing.assert_array_equal(up.values[:6], np.ones(6))
    np.testing.assert_array_equal(up.values[6:], np.zeros(18))
    np.testing.assert_array_equal(down.values, -up.values)
    assert up.budget_h == 6.0


def test_worst_case_signals_split_the_crossing_step():
    con = RegulationContract(24.0, 2.5)
    up, down = worst_case_signals(con, 24)
    np.testing.assert_array_equal(up.values, [1.0, 1.0, 0.5] + [0.0] * 21)
    np.testing.assert_array_equal(down.values, -up.values)
    assert up.budget_h == 2.5
    up, _ = worst_case_signals(con, 48)
    assert up.budget_h == 2.5


def test_mc_zero_bid_is_deterministic():
    bat, con = balanced_instance()
    mean, half = mc_expected_terminal_soc(1.5, 0.0, bat, con, logistic(0.1),
                                          48, 100, seed=3)
    assert half == 0.0
    assert mean == 20.0 + 12.0 * 0.9 * 1.5


def test_mc_interval_covers_the_closed_form():
    bat, con = balanced_instance()
    d = two_point_lower(0.5)
    want = 20.0 + 12.0 * expected_charge_rate(0.0, 1.0, bat.eff, d)
    assert math.isclose(want, 20.0 - 12.0 * 0.0875, rel_tol=1e-12)
    mean, half = mc_expected_terminal_soc(0.0, 1.0, bat, con, d, 24, 40_000,
                                          seed=11)
    assert half < 0.1
    assert abs(mean - want) <= half


def test_mc_interval_logistic():
    bat, con = balanced_instance()
    d = logistic(0.0816)
    xr = 3.0
    xb = asymptotic_slope(bat.eff, d) * xr
    want = 20.0 + 12.0 * expected_charge_rate(xb, xr, bat.eff, d)
    mean, half = mc_expected_terminal_soc(xb, xr, bat, con, d, 24, 60_000,
                                          seed=2)
    assert abs(mean - want) <= half


def test_mc_determinism_and_chunking():
    bat, con = balanced_instance()
    d = logistic(0.1)
    args = (0.5, 2.0, bat, con, d)
    a = mc_expected_terminal_soc(*args, 24, 9000, seed=4)
    b = mc_expected_terminal_soc(*args, 24, 9000, seed=4)
    assert a == b
    c = mc_expected_terminal_soc(*args, 24, 9000, seed=5)
    assert a != c
    with pytest.raises(ValueError):
        mc_expected_terminal_soc(*args, 24, 99, seed=4)


def _mc_reference(xb, xr, bat, con, dist, n_steps, n_paths, seed):
    """The oracle as it read with one (CHUNK, n_steps) draw array per chunk,
    the rate taken per draw and a binary-search sampler: the reference that
    row blocks and per-atom rates must match bit for bit."""
    dt = con.horizon_h / n_steps
    chunks = []
    done = 0
    chunk_idx = 0
    while done < n_paths:
        size = min(simulate.CHUNK, n_paths - done)
        rng = np.random.default_rng([seed, chunk_idx])
        draws = reference_draws(dist, rng, (size, n_steps))
        rate = simulate._charge_rate(xb + draws * xr, bat.eff)
        chunks.append(bat.soc0_kwh + dt * rate.sum(axis=1))
        done += size
        chunk_idx += 1
    terminal = np.concatenate(chunks)
    mean = float(np.mean(terminal))
    half_width = simulate.Z99 * float(np.std(terminal, ddof=1)) / math.sqrt(n_paths)
    return mean, half_width


MC_LAWS = [logistic(0.25), two_point_lower(0.3), three_point_upper(0.2),
           empirical(np.random.default_rng(3).uniform(-1.0, 1.0, 607))]


@pytest.mark.parametrize("law", MC_LAWS, ids=lambda law: law.kind)
@pytest.mark.parametrize("target", [20.0, 35.0, 5.0], ids=["balanced", "charging", "discharging"])
def test_mc_matches_the_unblocked_oracle_bit_for_bit(law, target):
    """Row blocks, one charge rate per atom and the guide table keep every
    float: mean and half-width equal the one-array oracle's across chunk
    edges (8192, 8193 paths) and step counts from 1 to 700."""
    bat = BatterySpec(60.0, 18.0, 15.0, 20.0, target, EfficiencyPair(0.9, 0.8))
    con = RegulationContract(12.0, 2.4)
    xr = 4.0
    xb = purchase_power(xr, context_for(bat, con, law))
    for n_paths in (100, 8192, 8193, 20000):
        for n_steps in (1, 48, 700):
            args = (xb, xr, bat, con, law, n_steps, n_paths, 9)
            assert mc_expected_terminal_soc(*args) == _mc_reference(*args), (n_paths, n_steps)


@pytest.mark.parametrize("law", [MC_LAWS[0], MC_LAWS[3]], ids=lambda law: law.kind)
def test_mc_memory_is_bounded_by_the_block(law):
    """200 paths of 100 000 steps: the oracle's peak allocation stays at a
    few row blocks (here one 800 kB row each), not at (paths, steps)."""
    bat, con = balanced_instance()
    n_steps = 100_000
    block_bytes = 8 * max(simulate.SWEEP_BLOCK, n_steps)
    tracemalloc.start()
    try:
        mc_expected_terminal_soc(0.5, 2.0, bat, con, law, n_steps, 200, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * block_bytes


def test_rearrangement():
    traj = Trajectory(np.array([0.0, 1.0, 0.5]), 1.0)
    out = rearrange_nonincreasing(traj)
    np.testing.assert_array_equal(out.values, [1.0, 0.5, 0.0])
    assert out.budget_h == traj.budget_h
    sorted_traj = Trajectory(np.array([0.9, 0.4, 0.1]), 1.0)
    np.testing.assert_array_equal(
        rearrange_nonincreasing(sorted_traj).values, sorted_traj.values)
    with pytest.raises(ValueError, match="nonnegative"):
        rearrange_nonincreasing(Trajectory(np.array([-0.1, 0.5]), 1.0))


def test_rearrangement_dominates_pathwise():
    """Front-loading a nonnegative signal can only raise the running state
    of charge when charging."""
    bat, _ = balanced_instance()
    rng = np.random.default_rng(6)
    for _ in range(10):
        traj = Trajectory(rng.uniform(0.0, 1.0, 32), 0.25)
        front = rearrange_nonincreasing(traj)
        soc = integrate_soc(1.0, 2.0, traj, bat)
        soc_front = integrate_soc(1.0, 2.0, front, bat)
        assert np.all(soc_front >= soc - 1e-12)


def test_feasibility_report_interior_point():
    bat, con = balanced_instance()
    slope = asymptotic_slope(bat.eff, logistic(0.1))
    xr = 0.5 * analytic_bid(bat, con, slope)
    xb = slope * xr
    report = check_robust_feasibility(xb, xr, bat, con, n_random=200, seed=1)
    assert report.feasible
    assert report.sampled_max_violation == 0.0
    assert report.n_signals == 202
    names = [c.name for c in report.checks]
    assert names == ["charge_power", "discharge_power", "soc_ceiling",
                     "soc_floor"]
    assert all(c.margin > 0.0 for c in report.checks)
    for key, (closed_form, pathwise) in report.attained.items():
        assert abs(closed_form - pathwise) <= 1e-9 * (1.0 + abs(closed_form)), key


def test_feasibility_report_at_the_boundary():
    bat, con = balanced_instance()
    slope = asymptotic_slope(bat.eff, logistic(0.1))
    xr = analytic_bid(bat, con, slope)
    xb = slope * xr
    report = check_robust_feasibility(xb, xr, bat, con, n_random=100, seed=2)
    assert report.feasible
    tightest = min(c.margin for c in report.checks)
    assert abs(tightest) <= 1e-9
    assert report.sampled_max_violation <= 1e-9


def test_feasibility_report_flags_overbidding():
    bat, con = balanced_instance()
    slope = asymptotic_slope(bat.eff, logistic(0.1))
    xr = 1.5 * analytic_bid(bat, con, slope)
    xb = slope * xr
    report = check_robust_feasibility(xb, xr, bat, con, n_random=100, seed=3)
    assert not report.feasible
    assert report.sampled_max_violation > 1e-6
    doc = report.to_dict()
    assert doc["feasible"] is False
    assert len(doc["constraints"]) == 4
    assert set(doc["attained"]) == {"charge_power", "discharge_power",
                                    "soc_max", "soc_min"}


@pytest.mark.parametrize("extremes", ["worst_case", "zero"])
def test_feasibility_sweep_matches_a_per_signal_loop(monkeypatch, extremes):
    """The array sweep gives exactly the violation of integrating every
    signal on its own.  With the extreme signals replaced by zero ones, the
    random members set the maximum, so their draw is checked too.  The
    budget is half the horizon, about the mean activation of an unscaled
    member, so some members are scaled to the budget and some are not."""
    bat, _ = balanced_instance()
    con = RegulationContract(12.0, 6.0)
    n_steps, n_random, seed = 4096, 1000, 8
    xb, xr = 2.0, 60.0
    dt = con.horizon_h / n_steps
    if extremes == "zero":
        zero = Trajectory(np.zeros(n_steps), dt)
        monkeypatch.setattr(simulate, "worst_case_signals",
                            lambda con, n_steps: (zero, zero))
    members = np.random.default_rng(seed).uniform(-1.0, 1.0, (n_random, n_steps))
    for values in members:
        activation = np.sum(np.abs(values)) * dt
        if activation > con.budget_h:
            values *= con.budget_h / activation
    assert np.all(np.abs(members) <= 1.0)
    assert np.all(np.sum(np.abs(members), axis=1) * dt
                  <= con.budget_h * (1.0 + 1e-12))

    signals = [t.values for t in simulate.worst_case_signals(con, n_steps)]
    worst = 0.0
    for values in signals + list(members):
        power = xb + values * xr
        soc = integrate_soc(xb, xr, Trajectory(values, dt), bat)
        worst = max(worst, float(np.max(power)) - bat.charge_cap_kw,
                    float(np.max(-power)) - bat.discharge_cap_kw,
                    float(np.max(soc)) - bat.cap_kwh, -float(np.min(soc)))
    report = check_robust_feasibility(xb, xr, bat, con, n_random=n_random,
                                      seed=seed, n_steps=n_steps)
    assert report.n_signals == n_random + 2
    assert worst > 1.0
    assert report.sampled_max_violation == worst


def test_feasibility_rejects_negative_bid():
    bat, con = balanced_instance()
    with pytest.raises(ValueError):
        check_robust_feasibility(0.0, -1.0, bat, con)


def test_trajectory_csv_roundtrip(tmp_path):
    path = tmp_path / "traj.csv"
    traj = sample_trajectory(logistic(0.3), RegulationContract(24.0, 4.8),
                             96, seed=9)
    write_trajectory_csv(traj, path)
    back = read_trajectory_csv(path)
    np.testing.assert_array_equal(back.values, traj.values)
    assert back.dt_h == traj.dt_h


def test_trajectory_csv_errors(tmp_path):
    missing = tmp_path / "no_header.csv"
    missing.write_text("0.5\n0.25\n")
    with pytest.raises(ValueError, match="header"):
        read_trajectory_csv(missing)

    bad_fields = tmp_path / "bad_fields.csv"
    bad_fields.write_text("# dt=0.5\n0.5\n")
    with pytest.raises(ValueError, match="dt=<hours> T=<hours>"):
        read_trajectory_csv(bad_fields)

    bad_value = tmp_path / "bad_value.csv"
    bad_value.write_text("# dt=1.0 T=2.0\n0.5\noops\n")
    with pytest.raises(ValueError, match="line 3"):
        read_trajectory_csv(bad_value)

    mismatch = tmp_path / "mismatch.csv"
    mismatch.write_text("# dt=1.0 T=5.0\n0.5\n0.25\n")
    with pytest.raises(ValueError, match="does not match"):
        read_trajectory_csv(mismatch)
