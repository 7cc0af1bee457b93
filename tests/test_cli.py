"""End-to-end CLI tests, run in process through ``main(argv)``."""

import csv
import importlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

import fcrbid
from fcrbid import (
    BatterySpec,
    EfficiencyPair,
    InvestmentSpec,
    MarketPrices,
    RegulationContract,
    analytic_bid,
    annualized_cost,
    asymptotic_slope,
    context_for,
    logistic,
    max_feasible_bid,
    operating_profit,
    purchase_power,
    required_charger_rate,
    unit_profit,
)
from fcrbid import __version__
from fcrbid.cli import main

# The shared config deliberately has dispersion above the activation ratio,
# which max_feasible_bid flags; the warning itself is covered elsewhere.
pytestmark = pytest.mark.filterwarnings(
    "ignore:mean absolute deviation exceeds the activation ratio"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def base_doc():
    return {
        "schema_version": 1,
        "battery": {
            "cap_kwh": 60.0,
            "charge_cap_kw": 18.0,
            "discharge_cap_kw": 15.0,
            "soc0_kwh": 20.0,
            "soc_target_kwh": 20.0,
            "eta_plus": 0.9,
            "eta_minus": 0.8,
        },
        "contract": {"horizon_h": 12.0, "budget_h": 2.4},
        "prices": {
            "mode": "inelastic",
            "cb_cts_per_kwh": 5.1,
            "cr_cts_per_kw_h": 0.9,
        },
        "distribution": {"kind": "logistic", "mad": 0.25},
    }


@pytest.fixture
def config(tmp_path):
    def write(doc=None, name="cfg.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc if doc is not None else base_doc()))
        return str(path)

    return write


def _parts():
    doc = base_doc()
    bat = BatterySpec(60.0, 18.0, 15.0, 20.0, 20.0, EfficiencyPair(0.9, 0.8))
    con = RegulationContract(12.0, 2.4)
    dist = logistic(0.25)
    prices = MarketPrices(mode="inelastic", cb=5.1, cr=0.9)
    return doc, bat, con, dist, prices


# ---------------------------------------------------------------------------
# solve / analytic


def test_solve_writes_json_report(config, capsys):
    code, out, err = run(capsys, "solve", "--config", config())
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["schema_version"] == 1
    assert report["command"] == "solve"
    sol = report["solution"]
    assert set(sol) >= {"xr_kw", "xb_kw", "objective_cts", "candidate",
                        "xr_max_kw", "slope"}
    assert sol["xr_kw"] >= 0.0
    assert sol["candidate"] in {"zero", "boundary", "stationary"}


def test_solve_out_file_matches_stdout(config, tmp_path, capsys):
    cfg = config()
    _, out, _ = run(capsys, "solve", "--config", cfg)
    target = tmp_path / "report.json"
    code, out2, _ = run(capsys, "solve", "--config", cfg, "--out", str(target))
    assert code == 0
    assert out2 == ""
    assert target.read_text(encoding="utf-8") == out


def test_solve_reports_an_unbounded_price_ratio_as_null(config, capsys):
    """At the convexity limit (cb0 + 2 cbd * base purchase = 1 - 2.5 * 0.4 = 0)
    the marginal energy price at a zero bid is zero, so the ratio there is
    unbounded: the solve still succeeds and reports it as null."""
    doc = base_doc()
    doc["battery"].update(cap_kwh=500.0, charge_cap_kw=50.0, discharge_cap_kw=50.0,
                          soc0_kwh=200.0, soc_target_kwh=194.0)
    doc["contract"] = {"horizon_h": 24.0, "budget_h": 7.2}
    doc["prices"] = {"mode": "elastic", "cb0_cts_per_kwh": 1.0, "cbd_cts_per_kwh_per_kw": 2.5,
                     "ca0_cts_per_kw_h": 1.0, "cad_cts_per_kw_h_per_kw": 0.0}
    doc["distribution"]["mad"] = 0.1
    code, out, err = run(capsys, "solve", "--config", config(doc))
    assert code == 0 and err == ""
    diagnostics = json.loads(out)["solution"]["diagnostics"]
    assert diagnostics["base_purchase_kw"] == -0.2
    assert diagnostics["price_ratio"] is None
    assert diagnostics["price_ratio_at_solution"] > 0.0


@pytest.mark.parametrize("target", [60.0, 0.0])
def test_solve_full_charge_or_discharge_bids_zero(config, capsys, target):
    doc = base_doc()
    doc["battery"]["soc_target_kwh"] = target
    code, out, err = run(capsys, "solve", "--config", config(doc))
    assert code == 0 and err == ""
    sol = json.loads(out)["solution"]
    assert (sol["candidate"], sol["xr_kw"], sol["xr_max_kw"]) == ("zero", 0.0, 0.0)


@pytest.mark.parametrize("command", ["solve", "analytic"])
def test_documented_full_example_runs(tmp_path, capsys, command):
    """The full example of docs/config.md (balanced target, affine prices)
    stays a valid config that the closed-form commands accept."""
    text = (Path(__file__).resolve().parents[1] / "docs" / "config.md").read_text()
    block = text.split("## Full example", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    path = tmp_path / "full.json"
    path.write_text(block)
    code, out, err = run(capsys, command, "--config", str(path))
    assert code == 0 and err == ""
    assert json.loads(out)["command"] == command


def test_analytic_matches_library(config, capsys):
    _, bat, con, dist, _ = _parts()
    ctx = context_for(bat, con, dist)
    code, out, _ = run(capsys, "analytic", "--config", config())
    assert code == 0
    report = json.loads(out)
    assert report["slope"] == ctx.slope
    assert report["analytic_bid_kw"] == analytic_bid(bat, con, ctx.slope)
    assert set(report["sizing"]) == {"xr_kw", "soc0_kwh", "c_rate_per_h", "binding"}


# ---------------------------------------------------------------------------
# bounds


def test_bounds_default_grid(config, capsys):
    _, bat, con, dist, _ = _parts()
    ctx = context_for(bat, con, dist)
    code, out, _ = run(capsys, "bounds", "--config", config())
    assert code == 0
    report = json.loads(out)
    rows = report["rows"]
    assert len(rows) == 101
    assert rows[0]["xr_kw"] == 0.0
    assert math.isclose(rows[-1]["xr_kw"], max_feasible_bid(bat, con, ctx),
                        rel_tol=1e-12)
    assert report["slope_lower"] <= report["slope"] <= report["slope_upper"]
    for row in rows:
        assert row["purchase_lower_kw"] <= row["purchase_kw"] + 1e-12
        assert row["purchase_kw"] <= row["purchase_upper_kw"] + 1e-12
        assert row["feasible_floor_kw"] <= row["purchase_kw"] + 1e-9
        assert row["purchase_kw"] <= row["feasible_ceiling_kw"] + 1e-9


def test_bounds_csv_with_explicit_grid(config, capsys):
    code, out, _ = run(capsys, "bounds", "--config", config(),
                       "--grid", "11", "--max-xr", "2.0", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 11
    assert float(rows[-1]["xr_kw"]) == 2.0
    assert rows[0].keys() == {
        "xr_kw", "purchase_kw", "purchase_lower_kw", "purchase_upper_kw",
        "feasible_floor_kw", "feasible_ceiling_kw",
    }


def doc_26kwh_two_point():
    """The README battery charging to 26 kWh under the two-point law."""
    doc = base_doc()
    doc["battery"]["soc_target_kwh"] = 26.0
    doc["distribution"] = {"kind": "two_point_lower", "mad": 0.3}
    return doc


@pytest.mark.parametrize("argv", [("--max-xr", "5e-324", "--grid", "3"),
                                  ("--max-xr", "1e-309", "--grid", "3", "--format", "csv")])
def test_bounds_at_bids_too_small_to_divide_by(config, capsys, argv):
    """Where drift target / bid overflows the purchase is the zero-bid one,
    so the report is finite and the command exits 0."""
    code, out, err = run(capsys, "bounds", "--config", config(doc_26kwh_two_point()), *argv)
    assert (code, err) == (0, "")
    assert not any(word in out for word in ("inf", "nan", "Infinity", "NaN"))
    rows = (json.loads(out)["rows"] if "csv" not in argv
            else list(csv.DictReader(io.StringIO(out))))
    assert {float(row["purchase_kw"]) for row in rows} == {float(rows[0]["purchase_kw"])}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", ["bounds", "profit", "sweep-slope"])
def test_table_report_with_a_non_finite_value_exits_2(config, capsys, monkeypatch,
                                                      command, fmt):
    """Neither format writes NaN or Infinity: a table that meets one exits 2
    with nothing on stdout."""
    argv = {"bounds": ["bounds", "--config", config(), "--grid", "3"],
            "profit": ["profit", "--config", config()],
            "sweep-slope": ["sweep-slope", "--eta-grid", "0.8:0.9:0.1", "--mad", "0.2"]}
    monkeypatch.setattr(fcrbid.cli, {"bounds": "purchase_power", "profit": "operating_profit",
                              "sweep-slope": "asymptotic_slope"}[command],
                        lambda *args, **kwargs: math.nan)
    code, out, err = run(capsys, *argv[command], "--format", fmt)
    assert (code, out) == (2, "")
    assert err.startswith("error: Out of range float values are not ")
    assert "nan" in err


# ---------------------------------------------------------------------------
# sweep-slope


def test_sweep_slope_csv(capsys):
    code, out, _ = run(capsys, "sweep-slope",
                       "--eta-grid", "0.7:0.9:0.1", "--mad", "0.0816")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["roundtrip"] for row in rows] == ["0.7", "0.8", "0.9"]
    dist = logistic(0.0816)
    for row in rows:
        eff = EfficiencyPair(float(row["roundtrip"]), 1.0)
        want = asymptotic_slope(eff, dist)
        assert math.isclose(float(row["slope"]), want, rel_tol=1e-9)
        assert float(row["slope_lower"]) <= float(row["slope"])
        assert float(row["slope"]) <= float(row["slope_upper"])


def test_sweep_slope_json(capsys):
    code, out, _ = run(capsys, "sweep-slope", "--eta-grid", "0.8:0.8:0.1",
                       "--mad", "0.25", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "sweep-slope"
    assert report["mad"] == 0.25
    assert len(report["rows"]) == 1


def test_sweep_slope_bad_grid(capsys):
    code, out, err = run(capsys, "sweep-slope",
                         "--eta-grid", "0.9:0.6:0.1", "--mad", "0.25")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("grid", ["nan:1:0.1", "0.5:inf:0.1", "-inf:1:0.1", "0:1:inf"])
def test_sweep_slope_non_finite_grid_exits_2(grid):
    """A grid with a non-finite value is rejected instead of stepping without
    end; the command runs in its own interpreter, so a loop fails on the
    timeout rather than hanging the suite."""
    env = dict(os.environ, PYTHONPATH=str(Path(fcrbid.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "fcrbid.cli", "sweep-slope", f"--eta-grid={grid}", "--mad", "0.25"],
        capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: bad grid {grid!r}")


@pytest.mark.parametrize("argv,message", [
    (["sweep-slope", "--eta-grid", "0:1:1e-10", "--mad", "0.25"],
     "error: bad grid '0:1:1e-10'; too large"),
    (["bounds", "--grid", "1000000000"],
     "fcrbid bounds: error: argument --grid: must be at most 1000000, got 1000000000"),
    (["simulate", "--n-steps", "10000000000"],
     "fcrbid simulate: error: argument --n-steps: must be at most 1000000, got 10000000000"),
    (["verify", "--n-steps", "1000001"],
     "fcrbid verify: error: argument --n-steps: must be at most 1000000, got 1000001"),
], ids=["sweep-slope", "bounds", "simulate", "verify"])
def test_oversized_grid_or_size_exits_2(config, argv, message):
    """A grid or size above the CLI's cap of 10^6 exits 2 naming the flag,
    before anything is allocated.  Each command runs in its own interpreter
    under a 1 GiB address-space limit, so a failure cannot use up the
    machine."""
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    if argv[0] != "sweep-slope":
        argv = [argv[0], "--config", config(), *argv[1:]]
    # one BLAS thread, so the limit bounds the command, not thread stacks
    env = dict(os.environ, PYTHONPATH=str(Path(fcrbid.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "fcrbid.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=60, preexec_fn=limit)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith(message)


# ---------------------------------------------------------------------------
# profit


def test_profit_defaults(config, capsys):
    _, bat, con, dist, prices = _parts()
    ctx = context_for(bat, con, dist)
    code, out, _ = run(capsys, "profit", "--config", config())
    assert code == 0
    report = json.loads(out)
    assert report["unit_profit_cts_per_kw_h"] == unit_profit(prices, ctx.slope)
    assert "annualized_energy_cost_per_kwh_yr" not in report
    (row,) = report["rows"]
    assert row["horizon_h"] == 12.0
    assert row["activation_ratio"] == 2.4 / 12.0
    assert row["operating_cts_per_kwh"] == operating_profit(bat, con, prices, ctx.slope)
    assert math.isclose(
        row["yearly_operating_eur_per_kwh"],
        8760.0 / 12.0 * row["operating_cts_per_kwh"] / 100.0,
        rel_tol=1e-15,
    )
    assert row["charger_kw_per_kwh"] == required_charger_rate(bat.eff, con, ctx.slope)
    assert "effective_eur_per_kwh_yr" not in row


def test_profit_horizons_and_investment(config, capsys):
    doc = base_doc()
    doc["investment"] = {
        "energy_capex": 85.0,
        "power_capex": 165.0,
        "energy_lifetime_yr": 10.0,
        "power_lifetime_yr": 10.0,
        "discount_rate": 0.02,
        "fx_rate": 1.15,
    }
    code, out, _ = run(capsys, "profit", "--config", config(doc),
                       "--horizons", "4,24")
    assert code == 0
    report = json.loads(out)
    inv = InvestmentSpec(85.0, 165.0, 10.0, 10.0, 0.02, 1.15)
    energy_cost, power_cost = annualized_cost(inv)
    assert report["annualized_energy_cost_per_kwh_yr"] == energy_cost
    assert report["annualized_power_cost_per_kw_yr"] == power_cost
    assert [row["horizon_h"] for row in report["rows"]] == [4.0, 24.0]
    for row in report["rows"]:
        assert "effective_eur_per_kwh_yr" in row
        assert row["activation_ratio"] == 2.4 / 12.0


def test_profit_csv_format(config, capsys):
    code, out, _ = run(capsys, "profit", "--config", config(),
                       "--horizons", "6,12", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 2
    assert float(rows[0]["horizon_h"]) == 6.0


def test_profit_rejects_elastic_prices(config, capsys):
    doc = base_doc()
    doc["prices"] = {
        "mode": "elastic",
        "cb0_cts_per_kwh": 5.1,
        "cbd_cts_per_kwh_per_kw": 0.001,
        "ca0_cts_per_kw_h": 0.9,
        "cad_cts_per_kw_h_per_kw": 0.0001,
    }
    code, _, err = run(capsys, "profit", "--config", config(doc))
    assert code == 2
    assert "inelastic" in err


# ---------------------------------------------------------------------------
# fit


def _write_frequency(path, deviations, dt_h=1.0, nu0=50.0, delta_nu=0.2):
    lines = ["timestamp,hz"]
    stamp = datetime(2024, 1, 1)
    step = timedelta(hours=dt_h)
    for dev in deviations:
        lines.append(f"{stamp.isoformat()},{float(nu0 + delta_nu * dev)!r}")
        stamp += step
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_fit_frequency_recovers_dispersion(tmp_path, capsys):
    law = logistic(0.1)
    dev = law.sample(seed=5, n=4000)
    freq = _write_frequency(tmp_path / "f.csv", dev, dt_h=0.25)
    code, out, _ = run(capsys, "fit", "--frequency", freq)
    assert code == 0
    report = json.loads(out)
    want = float(np.mean(np.abs(dev)))
    assert math.isclose(report["mad"], want, rel_tol=1e-9)
    assert math.isclose(report["theta"], 2.0 * math.log(2.0) / want, rel_tol=1e-9)
    assert report["cb"] is None and report["cr"] is None


def test_fit_frequency_with_daily_cap(tmp_path, capsys):
    # Day one saturates (dispersion 1.0, capped at 0.5), day two sits at 0.1.
    dev = np.concatenate([np.ones(24), np.full(24, 0.1)])
    freq = _write_frequency(tmp_path / "f.csv", dev, dt_h=1.0)
    code, out, _ = run(capsys, "fit", "--frequency", freq, "--mad-cap", "0.5")
    assert code == 0
    assert math.isclose(json.loads(out)["mad"], 0.3, rel_tol=1e-12)


def test_fit_prices(tmp_path, capsys):
    path = tmp_path / "p.csv"
    path.write_text("\n".join([
        "timestamp,pb_cts_per_kwh,pa_cts_per_kw_h,pd_cts_per_kwh,delta",
        "2024-01-01T00:00:00,5.0,1.0,8.0,0.25",
        "2024-01-01T01:00:00,6.0,0.8,8.0,-0.25",
    ]) + "\n", encoding="utf-8")
    code, out, _ = run(capsys, "fit", "--prices", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["cb"] == 5.5
    assert report["cr"] == 0.9
    assert report["mad"] is None


def _write_curve(path, intercept, slope, volumes):
    lines = ["volume_kw,price_cts"]
    for v in volumes:
        lines.append(f"{v!r},{intercept + slope * v!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_fit_elastic_curves(tmp_path, capsys):
    energy = _write_curve(tmp_path / "e.csv", 5.0, -2e-4,
                          [100.0, 400.0, 900.0, 1600.0])
    regulation = _write_curve(tmp_path / "r.csv", 0.9, -1e-5,
                              [50.0, 300.0, 750.0, 2000.0])
    code, out, _ = run(capsys, "fit", "--elastic-energy", energy,
                       "--elastic-regulation", regulation)
    assert code == 0
    report = json.loads(out)
    assert math.isclose(report["cb0"], 5.0, rel_tol=1e-9)
    assert math.isclose(report["cbd"], -2e-4, rel_tol=1e-6)
    assert math.isclose(report["ca0"], 0.9, rel_tol=1e-9)
    # The regression slope is negated into the decreasing-price coefficient.
    assert math.isclose(report["cad"], 1e-5, rel_tol=1e-6)


def test_fit_without_inputs(capsys):
    code, _, err = run(capsys, "fit")
    assert code == 2
    assert "nothing to do" in err


def test_fit_bad_elastic_header(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("volume,price\n1,2\n", encoding="utf-8")
    code, _, err = run(capsys, "fit", "--elastic-energy", str(path))
    assert code == 2
    assert "volume_kw,price_cts" in err


def test_fit_missing_file(capsys):
    code, _, err = run(capsys, "fit", "--prices", "/nonexistent/p.csv")
    assert code == 2
    assert err.startswith("error:")


def test_fit_malformed_data_file(tmp_path, capsys):
    """Bad values in a data file come back as a line-numbered error, not
    a traceback."""
    path = tmp_path / "f.csv"
    path.write_text("timestamp,hz\n2024-01-01T00:00:00,fifty\n",
                    encoding="utf-8")
    code, _, err = run(capsys, "fit", "--frequency", str(path))
    assert code == 2
    assert err.startswith(f"error: {path}: line 2: bad hz value 'fifty'")


@pytest.mark.parametrize("flag,rows,message", [
    ("--prices", ["timestamp,pb_cts_per_kwh,pa_cts_per_kw_h", "2024-01-01T00:00:00,5.0,nan",
                  "2024-01-01T01:00:00,6.0,0.8"], "line 2: bad pa_cts_per_kw_h value 'nan'"),
    ("--prices", ["timestamp,pb_cts_per_kwh", "2024-01-01T00:00:00,5.0",
                  "2024-01-01T01:00:00,-inf"], "line 3: bad pb_cts_per_kwh value '-inf'"),
    ("--frequency", ["timestamp,hz", "2024-01-01T00:00:00,inf", "2024-01-01T01:00:00,50.0"],
     "line 2: bad hz value 'inf'"),
    pytest.param("--elastic-energy", ["volume_kw,price_cts", "100,5.0", "400,nan", "900,4.8"],
                 "line 3: bad price_cts value 'nan'",
                 id="--elastic-energy-rows3-line 3: bad row"),
])
def test_fit_non_finite_cell_exits_2(tmp_path, capsys, flag, rows, message):
    """A non-finite cell is a bad value on its line, not a NaN in the report."""
    path = tmp_path / "data.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "fit", flag, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}: ") and message in err


def test_fit_mixed_utc_offsets_exits_2(tmp_path, capsys):
    """A frequency file mixing offset and naive timestamps exits 2 naming the
    file and the line, not with a TypeError."""
    path = tmp_path / "f.csv"
    path.write_text("timestamp,hz\n2024-01-01T00:00:00,50.0\n"
                    "2024-01-01T00:00:10+01:00,50.0\n", encoding="utf-8")
    code, out, err = run(capsys, "fit", "--frequency", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: line 3: timestamps mix UTC offsets")


# ---------------------------------------------------------------------------
# simulate


def test_simulate_defaults_to_max_feasible_bid(config, capsys):
    doc = base_doc()
    doc["solver"] = {"seed": 3, "n_steps": 96}
    _, bat, con, dist, _ = _parts()
    ctx = context_for(bat, con, dist)
    code, out, _ = run(capsys, "simulate", "--config", config(doc))
    assert code == 0
    report = json.loads(out)
    xr = max_feasible_bid(bat, con, ctx)
    assert report["xr_kw"] == xr
    assert report["xb_kw"] == purchase_power(xr, ctx)
    assert report["seed"] == 3
    assert report["n_steps"] == 96
    assert report["min_soc_kwh"] <= report["terminal_soc_kwh"] <= report["max_soc_kwh"]


def test_simulate_explicit_bid_and_steps(config, capsys):
    doc = base_doc()
    doc["solver"] = {"n_steps": 96}
    code, out, _ = run(capsys, "simulate", "--config", config(doc),
                       "--xr", "1.0", "--xb", "0.5", "--n-steps", "24",
                       "--seed", "9")
    assert code == 0
    report = json.loads(out)
    assert report["xr_kw"] == 1.0
    assert report["xb_kw"] == 0.5
    assert report["n_steps"] == 24
    assert report["seed"] == 9


def test_simulate_trajectory_roundtrip(config, tmp_path, capsys):
    traj_path = tmp_path / "traj.csv"
    code, out, _ = run(capsys, "simulate", "--config", config(),
                       "--n-steps", "48", "--seed", "1", "--no-cap",
                       "--trajectory-out", str(traj_path))
    assert code == 0
    report = json.loads(out)
    assert traj_path.read_text(encoding="utf-8").startswith("# dt=0.25 T=12.0\n")
    values = np.loadtxt(traj_path)
    assert values.size == 48
    assert math.isclose(report["budget_h"], float(np.abs(values).sum()) * 0.25, rel_tol=1e-12)


@pytest.mark.parametrize("flag", ["--xb=1e308", "--xb=-1e308", "--xr=1e308"])
def test_simulate_power_above_the_cap_exits_2(config, capsys, flag):
    """A power above 1e12 kW in size would overflow the SoC integration;
    the parser rejects it, naming the flag, before anything is computed."""
    with warnings.catch_warnings(record=True) as caught, pytest.raises(SystemExit) as exc:
        warnings.simplefilter("always")
        main(["simulate", "--config", config(), "--n-steps", "10", flag])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"argument {flag.split('=')[0]}: must be at " in captured.err
    assert "Traceback" not in captured.err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_simulate_energy_beyond_float_range_exits_2(config, capsys):
    """The power cap does not bound the energy: over a horizon of 1e300 h
    the state of charge leaves float range.  That exits 2 naming the horizon
    and the power flags, with no warning and no report."""
    doc = base_doc()
    doc["contract"] = {"horizon_h": 1e300, "budget_h": 2e299}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "simulate", "--config", config(doc),
                             "--xr", "1e12", "--xb=1e12", "--n-steps", "10")
    assert (code, out) == (2, "")
    assert err.startswith("error: contract.horizon_h: ")
    assert "--xr" in err and "--xb" in err
    assert "Traceback" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_simulate_at_a_bid_too_small_to_divide_by(config, capsys):
    """A bid whose drift target / bid overflows simulates with the zero-bid
    purchase, not an infinite one."""
    code, out, err = run(capsys, "simulate", "--config", config(doc_26kwh_two_point()),
                         "--xr", "5e-324", "--n-steps", "10")
    assert (code, err) == (0, "")
    assert json.loads(out)["xb_kw"] == (26.0 - 20.0) / 12.0 / 0.9


def test_simulate_capped_budget_never_exceeds_contract(config, capsys):
    code, out, _ = run(capsys, "simulate", "--config", config(),
                       "--n-steps", "200", "--seed", "7")
    assert code == 0
    report = json.loads(out)
    assert report["budget_h"] <= 2.4 + 1e-9
    assert report["capped"] is True


# ---------------------------------------------------------------------------
# verify


def test_verify_passes_and_is_deterministic(config, capsys):
    cfg = config()
    argv = ("verify", "--config", cfg, "--paths", "2000",
            "--n-steps", "24", "--n-random", "50", "--seed", "4")
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["ok"] is True
    assert report["expected_terminal_soc"]["ok"] is True
    assert report["robust_feasibility"]["ok"] is True
    assert report["rearrangement"]["ok"] is True
    code2, out2, _ = run(capsys, *argv)
    assert code2 == 0
    assert out2 == out


def test_verify_passes_on_a_budget_the_grid_cannot_resolve(config, capsys):
    doc = base_doc()
    doc["contract"]["budget_h"] = 2.40007
    code, out, err = run(capsys, "verify", "--config", config(doc), "--paths", "2000",
                         "--n-steps", "24", "--n-random", "50", "--seed", "4")
    assert code == 0 and err == ""
    assert json.loads(out)["robust_feasibility"]["ok"] is True


def test_verify_reads_the_path_count_from_the_config(config, capsys):
    doc = base_doc()
    doc["solver"] = {"n_paths": 200}
    cfg = config(doc)
    flags = ("--n-steps", "24", "--n-random", "50", "--seed", "4")
    reports = [json.loads(run(capsys, "verify", "--config", cfg, *extra, *flags)[1])
               for extra in ((), ("--paths", "200"))]
    half_widths = [r["expected_terminal_soc"]["mc_half_width_kwh"] for r in reports]
    assert half_widths[0] == half_widths[1]


# ---------------------------------------------------------------------------
# errors and plumbing


def test_invalid_config_exits_2(config, capsys):
    doc = base_doc()
    del doc["battery"]
    code, out, err = run(capsys, "solve", "--config", config(doc))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "battery" in err


@pytest.mark.parametrize("section,key", [("contract", "horizon_h"),
                                         ("prices", "cb_cts_per_kwh")])
def test_non_finite_number_exits_2(config, capsys, section, key):
    doc = base_doc()
    doc[section][key] = math.inf
    code, out, err = run(capsys, "solve", "--config", config(doc))
    assert code == 2
    assert out == ""
    assert f"{section}.{key}: expected a finite number" in err


@pytest.mark.parametrize("section,key", [("battery", "cap_kwh"),
                                         ("contract", "budget_h")])
@pytest.mark.parametrize("value,message", [
    (None, "missing required field"),
    ("ten", "expected a number"),
    (math.inf, "expected a finite number"),
])
def test_field_error_names_its_path_once(config, capsys, section, key,
                                         value, message):
    doc = base_doc()
    if value is None:
        del doc[section][key]
    else:
        doc[section][key] = value
    code, out, err = run(capsys, "solve", "--config", config(doc))
    assert code == 2
    assert out == ""
    assert err == f"error: {section}.{key}: {message}\n"


@pytest.mark.parametrize("command", ["solve", "bounds"])
def test_logistic_mad_too_small_exits_2(config, capsys, command):
    """A logistic mad whose scale 2 ln 2 / mad overflows is rejected with its
    field path, instead of solving on NaN law values or failing at emit."""
    doc = base_doc()
    doc["distribution"]["mad"] = 1e-310
    code, out, err = run(capsys, command, "--config", config(doc))
    assert code == 2
    assert out == ""
    assert err.startswith("error: distribution.mad: mean absolute deviation 1e-310 is too small")


@pytest.mark.parametrize("command", ["solve", "simulate", "verify"])
@pytest.mark.parametrize("key,value,floor", [("n_paths", 50, 100), ("seed", -1, 0),
                                             ("n_steps", 0, 1)])
def test_solver_count_below_its_floor_exits_2(config, capsys, command, key, value,
                                              floor):
    doc = base_doc()
    doc["solver"] = {key: value}
    code, out, err = run(capsys, command, "--config", config(doc))
    assert code == 2
    assert out == ""
    assert err == f"error: solver.{key}: must be at least {floor}, got {value}\n"


@pytest.mark.parametrize("command", ["solve", "analytic", "profit", "simulate"])
@pytest.mark.parametrize("eta_plus,eta_minus,low,high", [(0.5, 0.5, "eta_plus", "eta_minus"),
                                                         (0.9, 0.3, "eta_minus", "eta_plus")])
def test_low_roundtrip_efficiency_exits_2(config, capsys, command, eta_plus, eta_minus,
                                          low, high):
    """Each efficiency lies in (0, 1], but their product is at most 1/3: the
    parse rejects it, naming the smaller efficiency first, for every command."""
    doc = base_doc()
    doc["battery"].update(eta_plus=eta_plus, eta_minus=eta_minus)
    code, out, err = run(capsys, command, "--config", config(doc))
    assert (code, out) == (2, "")
    assert err == (f"error: battery.{low}: roundtrip efficiency {low} * {high} = "
                   f"{eta_plus * eta_minus:.3f} must be above 1/3\n")


@pytest.mark.parametrize("charger", [-5.0, 0.0])
def test_non_positive_charger_rate_exits_2(config, capsys, charger):
    doc = base_doc()
    doc["solver"] = {"charger_kw_per_kwh": charger}
    code, out, err = run(capsys, "profit", "--config", config(doc))
    assert (code, out) == (2, "")
    assert err == f"error: solver.charger_kw_per_kwh: must be positive, got {charger}\n"


def test_analytic_on_an_unbalanced_target_exits_2(config, capsys):
    doc = base_doc()
    doc["battery"]["soc_target_kwh"] = 26.0
    code, out, err = run(capsys, "analytic", "--config", config(doc))
    assert (code, out) == (2, "")
    assert err == "error: battery.soc_target_kwh: closed form needs soc_target_kwh == soc0_kwh\n"


@pytest.mark.parametrize("command", ["solve", "simulate", "verify"])
def test_solver_steps_above_the_cap_exit_2(config, capsys, command):
    """The config's step count has the --n-steps flag's cap of 10**6."""
    doc = base_doc()
    doc["solver"] = {"n_steps": 1_000_001}
    code, out, err = run(capsys, command, "--config", config(doc))
    assert code == 2
    assert out == ""
    assert err == "error: solver.n_steps: must be at most 1000000, got 1000001\n"


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "solve", "--config", str(path))
    assert code == 2
    assert "not valid JSON" in err


def test_wrong_schema_version_exits_2(config, capsys):
    doc = base_doc()
    doc["schema_version"] = 99
    code, _, err = run(capsys, "solve", "--config", config(doc))
    assert code == 2
    assert "schema_version" in err


def test_infeasible_problem_exits_3(config, capsys):
    doc = base_doc()
    # Reaching the target would need far more charge power than the charger has.
    doc["battery"]["soc_target_kwh"] = 59.0
    doc["battery"]["soc0_kwh"] = 1.0
    doc["battery"]["charge_cap_kw"] = 1.0
    doc["contract"] = {"horizon_h": 1.0, "budget_h": 0.2}
    code, out, err = run(capsys, "solve", "--config", config(doc))
    assert code == 3
    report = json.loads(out)
    assert report["status"] == "infeasible"
    assert report["command"] == "solve"
    assert report["reason"]


@pytest.mark.parametrize("argv", [
    ("bounds", "--grid", "0", "--format", "csv"),
    ("bounds", "--grid", "-1"),
    ("simulate", "--n-steps", "0"),
    ("verify", "--n-steps", "0"),
    ("verify", "--n-random", "-3", "--paths", "2000", "--n-steps", "24"),
    ("verify", "--paths", "99"),
    ("verify", "--paths", "1e5"),
    ("simulate", "--seed", "-1"),
    ("verify", "--seed", "-2"),
    ("bounds", "--max-xr", "-1"),
    ("simulate", "--xr", "-0.5"),
])
def test_bad_count_flag_exits_2(config, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--config", config()])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert argv[1] in captured.err


@pytest.mark.parametrize("argv", [
    ("bounds", "--max-xr", "nan", "--format", "csv"),
    ("bounds", "--max-xr", "inf", "--format", "csv"),
    ("simulate", "--xr", "nan"),
    ("simulate", "--xb=-inf"),
    ("profit", "--horizons", "inf"),
    ("profit", "--horizons", "4,nan"),
])
def test_non_finite_float_flag_exits_2(config, capsys, argv):
    """A non-finite float flag is rejected by the parser, naming the flag,
    before any report is written."""
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--config", config()])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"argument {argv[1].split('=')[0]}: expected a finite number" in captured.err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# import cost


def _child(*argv):
    """Run Python in a fresh interpreter on the package under test."""
    env = dict(os.environ, PYTHONPATH=str(Path(fcrbid.__file__).parents[1]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=env, timeout=120)


def test_closed_form_commands_do_not_load_numpy(config):
    """Closed forms run on floats: neither ``from fcrbid import *`` nor a
    closed-form command, nor a rejected config, loads NumPy."""
    bad = base_doc()
    bad["battery"]["cap_kwh"] = -1.0
    cfg = config()
    runs = [
        (["solve", "--config", cfg], 0),
        (["analytic", "--config", cfg], 0),
        (["bounds", "--config", cfg, "--grid", "11"], 0),
        (["profit", "--config", cfg, "--horizons", "4,12"], 0),
        (["sweep-slope", "--eta-grid", "0.40:1.00:0.02", "--mad", "0.1"], 0),
        (["solve", "--config", config(bad, "bad.json")], 2),
    ]
    script = "\n".join([
        "import json, sys",
        "from fcrbid import *",
        "from fcrbid.cli import main",
        "assert 'numpy' not in sys.modules, 'from fcrbid import *'",
        "for argv, code in json.loads(sys.argv[1]):",
        "    assert main(argv) == code, argv",
        "    assert 'numpy' not in sys.modules, argv",
    ])
    proc = _child("-c", script, json.dumps(runs))
    assert proc.returncode == 0, proc.stderr


def test_package_exports_each_library_name_once():
    """``fcrbid.__all__`` is ``__version__`` and the public names of the eight
    library modules, each once and each the module's own object."""
    assert len(fcrbid.__all__) == len(set(fcrbid.__all__))
    names = {"__version__"}
    for m in ("distributions", "purchase", "feasible", "solver", "econ", "simulate", "ingest",
              "errors"):
        module = importlib.import_module(f"fcrbid.{m}")
        for name in module.__all__:
            assert getattr(fcrbid, name) is getattr(module, name), (module.__name__, name)
        names.update(module.__all__)
    assert set(fcrbid.__all__) == names


@pytest.mark.parametrize("argv", [
    ["simulate", "--n-steps", "48"],
    ["verify", "--paths", "200", "--n-steps", "12", "--n-random", "10"],
    ["fit"],
])
def test_numpy_commands_run_in_a_fresh_interpreter(config, tmp_path, argv):
    """The commands that sample or fit import NumPy where they need it."""
    if argv == ["fit"]:
        argv = ["fit", "--frequency", _write_frequency(tmp_path / "f.csv", [0.1, -0.3, 0.2])]
    else:
        argv = [*argv, "--config", config()]
    proc = _child("-m", "fcrbid.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["command"] == argv[0]


# ---------------------------------------------------------------------------
# empirical samples, inline and from a file

SAMPLES = [0.5, -0.25, 0.125, 0.75, -1.0, 0.0625]


def _empirical_doc(**distribution):
    doc = base_doc()
    doc["distribution"] = {"kind": "empirical", **distribution}
    return doc


def test_samples_path_solves_as_the_inline_samples(config, tmp_path, capsys):
    (tmp_path / "samples.txt").write_text(
        "\n".join(map(repr, SAMPLES[:3])) + "\n\n  \n" + "\n".join(map(repr, SAMPLES[3:])),
        encoding="utf-8")
    reports = [run(capsys, "solve", "--config", config(_empirical_doc(**dist)))
               for dist in ({"samples": SAMPLES}, {"samples_path": "samples.txt"})]
    assert reports[0][0] == 0
    assert reports[0] == reports[1]


def test_samples_path_missing_file_exits_2(config, capsys):
    code, out, err = run(capsys, "solve", "--config",
                         config(_empirical_doc(samples_path="nowhere.txt")))
    assert (code, out) == (2, "")
    assert err.startswith("error: distribution.samples_path: ") and "nowhere.txt" in err


@pytest.mark.parametrize("line,message", [
    ("nan", "bad sample value 'nan'"),
    ("inf", "bad sample value 'inf'"),
    ("1.5", "bad sample value '1.5'"),
    ("zero", "bad sample value 'zero'"),
    ("0.2,0.3", "expected 1 column"),
])
def test_samples_path_bad_line_exits_2(config, tmp_path, capsys, line, message):
    path = tmp_path / "samples.txt"
    path.write_text(f"0.5\n\n{line}\n-0.25\n", encoding="utf-8")
    code, out, err = run(capsys, "solve", "--config",
                         config(_empirical_doc(samples_path="samples.txt")))
    assert (code, out) == (2, "")
    assert err == f"error: distribution.samples_path: {path}: line 3: {message}\n"


@pytest.mark.parametrize("samples,index", [
    ([True, 0.5, "0.25", -0.1], 0),
    ([0.5, "0.25", -0.1], 1),
    ([[0.5], [0.25]], 0),
    ([0.5, {"a": 1}], 1),
    ([0.5, -0.25, None], 2),
    ([0.5, 1.5], 1),
    ([0.5, 10**400], 1),
])
def test_inline_samples_must_be_finite_numbers(config, capsys, samples, index):
    """Each inline sample is a finite JSON number in [-1, 1], as a scalar field
    is a finite number: no bool, string, nested list or object."""
    code, out, err = run(capsys, "solve", "--config", config(_empirical_doc(samples=samples)))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: distribution.samples[{index}]: expected a finite number")


def test_non_finite_inline_sample_exits_2(config, capsys):
    code, _, err = run(capsys, "solve", "--config",
                       config(_empirical_doc(samples=[0.5, math.nan])))
    assert code == 2
    assert err.startswith("error: distribution.samples[1]: expected a finite number")


def test_non_numeric_integer_flag_names_the_flag(config, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", config(), "--seed", "abc"])
    assert exc.value.code == 2
    assert "argument --seed: expected an integer, got 'abc'" in capsys.readouterr().err
