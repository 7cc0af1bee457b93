"""Data ingestion: normalization, distribution/price fitting, CSV readers."""

import csv
import math
import re

import numpy as np
import pytest

from fcrbid import (
    DegenerateSignalError,
    FrequencySeries,
    PriceSeries,
    SingularFitError,
    fit_elasticity,
    fit_logistic,
    normalize_frequency,
    read_elasticity_csv,
    read_frequency_csv,
    read_price_csv,
    reduce_prices,
)


# ---------------------------------------------------------------------------
# normalize_frequency


def test_normalize_nominal_is_zero():
    fs = FrequencySeries(np.array([50.0, 50.0]), 50.0, 0.2, 1.0)
    assert np.array_equal(normalize_frequency(fs), np.zeros(2))


def test_normalize_linear_ramp():
    nu = np.array([49.9, 50.0, 50.1, 50.2])
    fs = FrequencySeries(nu, 50.0, 0.2, 1.0)
    out = normalize_frequency(fs)
    np.testing.assert_allclose(out, [-0.5, 0.0, 0.5, 1.0], atol=1e-12)


def test_normalize_clips_beyond_saturation():
    """Deviations past delta_nu saturate at full activation."""
    fs = FrequencySeries(np.array([49.0, 51.0, 50.3]), 50.0, 0.2, 1.0)
    assert np.array_equal(normalize_frequency(fs), [-1.0, 1.0, 1.0])


def test_normalize_idempotent_on_normalized_values():
    rng = np.random.default_rng(7)
    dev = rng.uniform(-1.0, 1.0, size=64)
    fs = FrequencySeries(dev, 0.0, 1.0, 1.0)
    assert np.array_equal(normalize_frequency(fs), dev)


def test_frequency_series_validation():
    with pytest.raises(ValueError):
        FrequencySeries(np.array([]), 50.0, 0.2, 1.0)
    with pytest.raises(ValueError):
        FrequencySeries(np.array([50.0]), 50.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        FrequencySeries(np.array([50.0]), 50.0, 0.2, -1.0)


# ---------------------------------------------------------------------------
# fit_logistic


def test_fit_logistic_matches_mean_absolute_deviation():
    dev = np.array([0.1, -0.1] * 4)
    law = fit_logistic(dev)
    assert law.mad == 0.1
    assert law.theta == 2.0 * math.log(2.0) / 0.1


def test_fit_logistic_recovers_known_dispersion():
    """Fitting samples of a known law recovers its dispersion."""
    true = fit_logistic([0.0816, -0.0816])
    rng = np.random.default_rng(123)
    draws = true.sample_with(rng, 100_000)
    fitted = fit_logistic(draws)
    assert abs(fitted.mad - 0.0816) < 0.002


def test_fit_logistic_empty_rejected():
    with pytest.raises(ValueError, match="empty"):
        fit_logistic([])


def test_fit_logistic_all_zero_rejected():
    with pytest.raises(DegenerateSignalError):
        fit_logistic(np.zeros(100))


def test_fit_logistic_daily_cap():
    # Two full days plus a short third one; per-day means 0.5, 0.125 and
    # 0.75 are capped at 0.25 before averaging.
    dev = np.concatenate([
        np.full(4, 0.5),
        np.full(4, -0.125),
        np.array([0.75]),
    ])
    law = fit_logistic(dev, mad_cap=0.25, samples_per_day=4)
    assert math.isclose(law.mad, (0.25 + 0.125 + 0.25) / 3.0, rel_tol=1e-15)


def test_fit_logistic_cap_inactive_when_loose():
    dev = np.array([0.05, -0.15, 0.1, -0.1])
    capped = fit_logistic(dev, mad_cap=10.0, samples_per_day=2)
    plain = fit_logistic(dev)
    assert capped.mad == plain.mad


def test_fit_logistic_cap_requires_samples_per_day():
    with pytest.raises(ValueError, match="samples_per_day"):
        fit_logistic([0.1, 0.2], mad_cap=0.5)
    with pytest.raises(ValueError, match="samples_per_day"):
        fit_logistic([0.1, 0.2], mad_cap=0.5, samples_per_day=0)


# ---------------------------------------------------------------------------
# reduce_prices


def test_reduce_prices_energy_only():
    ps = PriceSeries(np.array([5.0, 7.0, 6.0]))
    cb, cr = reduce_prices(ps)
    assert cb == 6.0
    assert cr is None


def test_reduce_prices_availability_without_delivery():
    ps = PriceSeries(np.array([5.0, 7.0]), pa=np.array([0.8, 1.0]))
    cb, cr = reduce_prices(ps)
    assert cb == 6.0
    assert cr == 0.9


def test_reduce_prices_delivery_correction():
    pb = np.array([6.0, 6.0, 6.0, 6.0])
    pa = np.array([1.0, 1.0, 1.0, 1.0])
    pd = np.array([2.0, 2.0, 4.0, 4.0])
    delta = np.array([0.5, -0.25, 0.25, 0.0])
    ps = PriceSeries(pb, pa=pa, pd=pd, delta=delta)
    cb, cr = reduce_prices(ps)
    assert cb == 6.0
    expected = 1.0 - np.mean(delta * pd)
    assert math.isclose(cr, expected, rel_tol=1e-15)
    assert math.isclose(cr, 1.0 - 0.375, rel_tol=1e-15)


def test_reduce_prices_balanced_deliveries_cancel():
    """An alternating deviation column contributes nothing on average."""
    n = 48
    pa = np.full(n, 0.9)
    pd = np.full(n, 7.0)
    delta = np.tile([0.5, -0.5], n // 2)
    ps = PriceSeries(np.full(n, 5.0), pa=pa, pd=pd, delta=delta)
    _, cr = reduce_prices(ps)
    assert cr == 0.9


def test_price_series_misaligned_columns():
    with pytest.raises(ValueError, match="misaligned"):
        PriceSeries(np.array([1.0, 2.0]), pa=np.array([1.0]))
    with pytest.raises(ValueError, match="empty"):
        PriceSeries(np.array([]))


# ---------------------------------------------------------------------------
# fit_elasticity


def test_fit_elasticity_exact_affine():
    v = np.array([100.0, 250.0, 400.0, 900.0, 1500.0])
    p = 3.9 - 1e-7 * v
    intercept, slope = fit_elasticity(p, v)
    assert math.isclose(intercept, 3.9, rel_tol=1e-9)
    assert math.isclose(slope, -1e-7, rel_tol=1e-6)


def test_fit_elasticity_two_points():
    intercept, slope = fit_elasticity([2.0, 1.0], [0.0, 10.0])
    assert math.isclose(intercept, 2.0, rel_tol=1e-12)
    assert math.isclose(slope, -0.1, rel_tol=1e-12)


def test_fit_elasticity_noisy_recovery():
    rng = np.random.default_rng(42)
    v = rng.uniform(0.0, 2000.0, size=1000)
    p = 2.0 - 5e-4 * v + rng.normal(0.0, 0.01, size=1000)
    intercept, slope = fit_elasticity(p, v)
    assert abs(intercept - 2.0) / 2.0 < 0.05
    assert abs(slope + 5e-4) / 5e-4 < 0.05


def test_fit_elasticity_positive_slope_kept():
    # The sign convention is the caller's business.
    _, slope = fit_elasticity([1.0, 2.0], [0.0, 1.0])
    assert slope == pytest.approx(1.0)


def test_fit_elasticity_degenerate_inputs():
    with pytest.raises(SingularFitError, match="two points"):
        fit_elasticity([1.0], [5.0])
    with pytest.raises(SingularFitError, match="constant"):
        fit_elasticity([1.0, 2.0, 3.0], [7.0, 7.0, 7.0])
    with pytest.raises(ValueError, match="misaligned"):
        fit_elasticity([1.0, 2.0], [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# frequency CSV


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_read_frequency_csv(tmp_path):
    f = _write(tmp_path / "f.csv", "\n".join([
        "timestamp,hz",
        "2024-01-01T00:00:00,50.01",
        "2024-01-01T00:15:00,49.98",
        "2024-01-01T00:30:00,50.00",
        "2024-01-01T00:45:00,50.05",
    ]) + "\n")
    fs = read_frequency_csv(f, nu0=50.0, delta_nu=0.1)
    assert fs.dt_h == 0.25
    assert fs.nu0 == 50.0 and fs.delta_nu == 0.1
    np.testing.assert_array_equal(fs.nu, [50.01, 49.98, 50.0, 50.05])
    dev = normalize_frequency(fs)
    assert math.isclose(dev[3], 0.5, rel_tol=1e-12)


def test_read_frequency_csv_single_row_default_spacing(tmp_path):
    f = _write(tmp_path / "one.csv",
               "timestamp,hz\n2024-01-01T00:00:00,50.0\n")
    assert read_frequency_csv(f).dt_h == 1.0


def test_read_frequency_csv_skips_blank_lines(tmp_path):
    f = _write(tmp_path / "blank.csv", "\n".join([
        "timestamp,hz",
        "2024-01-01T00:00:00,50.0",
        "",
        "2024-01-01T01:00:00,50.1",
    ]) + "\n")
    assert read_frequency_csv(f).nu.size == 2


def test_read_frequency_csv_bad_header(tmp_path):
    f = _write(tmp_path / "h.csv", "time,frequency\n2024-01-01T00:00:00,50\n")
    with pytest.raises(ValueError, match="timestamp,hz"):
        read_frequency_csv(f)


def test_read_frequency_csv_bad_timestamp_is_line_numbered(tmp_path):
    f = _write(tmp_path / "t.csv", "\n".join([
        "timestamp,hz",
        "2024-01-01T00:00:00,50.0",
        "not-a-date,50.0",
    ]) + "\n")
    with pytest.raises(ValueError, match="line 3: bad timestamp"):
        read_frequency_csv(f)


def test_read_frequency_csv_bad_value_is_line_numbered(tmp_path):
    f = _write(tmp_path / "v.csv",
               "timestamp,hz\n2024-01-01T00:00:00,fifty\n")
    with pytest.raises(ValueError, match="line 2: bad hz"):
        read_frequency_csv(f)


def test_read_frequency_csv_short_row(tmp_path):
    f = _write(tmp_path / "s.csv", "timestamp,hz\n2024-01-01T00:00:00\n")
    with pytest.raises(ValueError, match="expected 2 columns"):
        read_frequency_csv(f)


def test_read_frequency_csv_no_rows(tmp_path):
    f = _write(tmp_path / "e.csv", "timestamp,hz\n")
    with pytest.raises(ValueError, match="no data rows"):
        read_frequency_csv(f)


def test_read_frequency_csv_non_uniform_spacing(tmp_path):
    f = _write(tmp_path / "g.csv", "\n".join([
        "timestamp,hz",
        "2024-01-01T00:00:00,50.0",
        "2024-01-01T00:15:00,50.0",
        "2024-01-01T00:45:00,50.0",
    ]) + "\n")
    with pytest.raises(ValueError, match="line 4: non-uniform"):
        read_frequency_csv(f)


def test_read_frequency_csv_decreasing_timestamps(tmp_path):
    f = _write(tmp_path / "d.csv", "\n".join([
        "timestamp,hz",
        "2024-01-01T01:00:00,50.0",
        "2024-01-01T00:00:00,50.0",
    ]) + "\n")
    with pytest.raises(ValueError, match="strictly increasing"):
        read_frequency_csv(f)


# ---------------------------------------------------------------------------
# price CSV


def test_read_price_csv_all_columns(tmp_path):
    f = _write(tmp_path / "p.csv", "\n".join([
        "timestamp,pb_cts_per_kwh,pa_cts_per_kw_h,pd_cts_per_kwh,delta",
        "2024-01-01T00:00:00,5.1,0.9,7.0,0.5",
        "2024-01-01T01:00:00,4.9,0.9,7.0,-0.5",
    ]) + "\n")
    ps = read_price_csv(f)
    assert ps.dt_h == 1.0
    np.testing.assert_array_equal(ps.pb, [5.1, 4.9])
    np.testing.assert_array_equal(ps.pa, [0.9, 0.9])
    np.testing.assert_array_equal(ps.pd, [7.0, 7.0])
    np.testing.assert_array_equal(ps.delta, [0.5, -0.5])
    cb, cr = reduce_prices(ps)
    assert cb == 5.0
    assert cr == 0.9


def test_read_price_csv_energy_only(tmp_path):
    f = _write(tmp_path / "pb.csv", "\n".join([
        "timestamp,pb_cts_per_kwh",
        "2024-01-01T00:00:00,5.0",
        "2024-01-01T01:00:00,6.0",
    ]) + "\n")
    ps = read_price_csv(f)
    assert ps.pa is None and ps.pd is None and ps.delta is None


def test_read_price_csv_prefix_columns(tmp_path):
    f = _write(tmp_path / "pr.csv", "\n".join([
        "timestamp,pb_cts_per_kwh,pa_cts_per_kw_h",
        "2024-01-01T00:00:00,5.0,1.0",
        "2024-01-01T01:00:00,6.0,0.8",
    ]) + "\n")
    ps = read_price_csv(f)
    assert ps.pa is not None and ps.pd is None


def test_read_price_csv_out_of_order_columns(tmp_path):
    f = _write(tmp_path / "o.csv", "\n".join([
        "timestamp,pa_cts_per_kw_h,pb_cts_per_kwh",
        "2024-01-01T00:00:00,1.0,5.0",
    ]) + "\n")
    with pytest.raises(ValueError, match="in order"):
        read_price_csv(f)


def test_read_price_csv_gap_in_columns(tmp_path):
    # delta without the delivery price is not a valid prefix.
    f = _write(tmp_path / "gap.csv", "\n".join([
        "timestamp,pb_cts_per_kwh,delta",
        "2024-01-01T00:00:00,5.0,0.5",
    ]) + "\n")
    with pytest.raises(ValueError, match="in order"):
        read_price_csv(f)


def test_read_price_csv_ragged_row(tmp_path):
    f = _write(tmp_path / "r.csv", "\n".join([
        "timestamp,pb_cts_per_kwh,pa_cts_per_kw_h",
        "2024-01-01T00:00:00,5.0",
    ]) + "\n")
    with pytest.raises(ValueError, match="line 2: expected 3 columns"):
        read_price_csv(f)


def test_read_price_csv_no_rows(tmp_path):
    f = _write(tmp_path / "n.csv", "timestamp,pb_cts_per_kwh\n")
    with pytest.raises(ValueError, match="no data rows"):
        read_price_csv(f)


# ---------------------------------------------------------------------------
# one row reader: every error names the file and the line


def test_reader_errors_name_the_file(tmp_path):
    f = _write(tmp_path / "v.csv", "timestamp,hz\n2024-01-01T00:00:00,fifty\n")
    with pytest.raises(ValueError) as exc:
        read_frequency_csv(f)
    assert str(exc.value) == f"{f}: line 2: bad hz value 'fifty'"


@pytest.mark.parametrize("reader,header", [
    (read_frequency_csv, "timestamp,hz"),
    (read_price_csv, "timestamp,pb_cts_per_kwh"),
])
def test_mixed_utc_offsets_are_a_line_error(tmp_path, reader, header):
    """A timestamp with a UTC offset after naive ones cannot be differenced;
    that is a bad row, not a TypeError."""
    f = _write(tmp_path / "mixed.csv", "\n".join([
        header,
        "2024-01-01T00:00:00,50.0",
        "2024-01-01T00:00:10+00:00,50.0",
    ]) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(f))}: line 3: timestamps mix UTC"):
        reader(f)


def test_blank_lines_keep_the_file_line_numbers(tmp_path):
    f = _write(tmp_path / "g.csv", "\n".join([
        "timestamp,hz",
        "2024-01-01T00:00:00,50.01",
        "",
        "2024-01-01T00:00:01,50.02",
        "2024-01-01T00:00:03,49.99",
    ]) + "\n")
    with pytest.raises(ValueError, match="line 5: non-uniform"):
        read_frequency_csv(f)


def test_whitespace_only_lines_are_blank(tmp_path):
    f = _write(tmp_path / "w.csv", "timestamp,hz\n  \n2024-01-01T00:00:00,50.0\n \t\n"
               "2024-01-01T01:00:00,50.1\n")
    fs = read_frequency_csv(f)
    assert fs.nu.size == 2 and fs.dt_h == 1.0


def test_a_later_non_increasing_timestamp_is_named(tmp_path):
    f = _write(tmp_path / "d.csv", "\n".join([
        "timestamp,hz",
        "2024-01-01T00:00:00,50.0",
        "2024-01-01T01:00:00,50.0",
        "2024-01-01T01:00:00,50.0",
    ]) + "\n")
    with pytest.raises(ValueError, match="line 4: timestamps must be strictly increasing"):
        read_frequency_csv(f)


def test_csv_syntax_error_names_the_line(tmp_path):
    f = _write(tmp_path / "big.csv", "timestamp,hz\n2024-01-01T00:00:00,"
               + "5" * (csv.field_size_limit() + 1) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(f))}: line 2: field larger"):
        read_frequency_csv(f)


def test_read_elasticity_csv(tmp_path):
    f = _write(tmp_path / "e.csv", "volume_kw,price_cts,note\n100,5.0,a\n\n400, 4.9\n")
    assert read_elasticity_csv(f) == ([5.0, 4.9], [100.0, 400.0])


@pytest.mark.parametrize("text,message", [
    ("volume,price\n1,2\n", "expected header 'volume_kw,price_cts'"),
    ("volume_kw,price_cts\n100,5.0\n400\n", "line 3: expected 2 columns"),
    ("volume_kw,price_cts\n100,5.0\n400,nan\n", "line 3: bad price_cts value 'nan'"),
    ("volume_kw,price_cts\n1e400,5.0\n", "line 2: bad volume_kw value '1e400'"),
])
def test_read_elasticity_csv_errors(tmp_path, text, message):
    f = _write(tmp_path / "e.csv", text)
    with pytest.raises(ValueError) as exc:
        read_elasticity_csv(f)
    assert str(exc.value) == f"{f}: {message}"
