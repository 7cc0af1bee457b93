"""Command-line front-end.

Every subcommand reads a JSON problem config (`fit` reads data files
through the ingest readers instead, and `sweep-slope` works from flags),
runs the library, and emits a JSON or CSV report to --out or stdout.
Exit codes: 0 success, 1 failed verification, 2 invalid input, 3 infeasible problem.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

from . import __version__
from .config import MAX_POINTS, SCHEMA_VERSION, load_config
from .distributions import logistic
from .econ import (
    HOURS_PER_YEAR,
    annualized_cost,
    effective_yearly_profit,
    energy_constrained_optimum,
    operating_profit,
    required_charger_rate,
    unit_profit,
)
from .errors import ConfigError, InfeasibleProblemError
from .feasible import RegulationContract, analytic_bid, context_for, envelopes, max_feasible_bid
from .ingest import (
    fit_elasticity,
    fit_logistic,
    normalize_frequency,
    read_elasticity_csv,
    read_frequency_csv,
    read_price_csv,
    reduce_prices,
)
from .purchase import (
    XR_ASYMPTOTE,
    EfficiencyPair,
    asymptotic_slope,
    expected_charge_rate,
    purchase_bounds,
    purchase_power,
    slope_bounds,
)
from .simulate import (
    check_robust_feasibility,
    integrate_soc,
    mc_expected_terminal_soc,
    rearrange_nonincreasing,
    sample_trajectory,
    write_trajectory_csv,
)
from .solver import solve
from .solver import solve_elastic, solve_inelastic  # noqa: F401  traced by perfbench/layers.py

__all__ = ["main"]


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_json(report: dict, out: str | None) -> None:
    report = {"schema_version": SCHEMA_VERSION, **report}
    _emit(json.dumps(report, indent=2, allow_nan=False) + "\n", out)


def _emit_rows(report: dict, rows: list[dict], fmt: str, out: str | None) -> None:
    """A table report: the JSON report with the rows under "rows", or the rows
    alone as CSV.  Either format refuses NaN and infinities (exit 2)."""
    if fmt == "json":
        return _emit_json({**report, "rows": rows}, out)

    def cell(value):
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"Out of range float values are not CSV compliant: {value}")
        return f"{value:.10g}" if isinstance(value, float) else value

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows({k: cell(v) for k, v in row.items()} for row in rows)
    _emit(buf.getvalue(), out)


def _bounded(kind=float, floor=-math.inf, ceiling=math.inf):
    """argparse type for a finite ``kind`` flag in [``floor``, ``ceiling``]."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not -math.inf < value < math.inf:
            noun = "an integer" if kind is int else "a finite number"
            raise argparse.ArgumentTypeError(f"expected {noun}, got {text!r}")
        # .12g prints 1000000 whole and 1e12 as 1e+12.
        if value < floor:
            raise argparse.ArgumentTypeError(f"must be at least {floor:.12g}, got {value}")
        if value > ceiling:
            raise argparse.ArgumentTypeError(f"must be at most {ceiling:.12g}, got {value}")
        return value
    return parse


def _linspace(stop: float, num: int) -> list[float]:
    """The floats of numpy.linspace(0.0, stop, num), bit for bit, without NumPy."""
    if num == 1:
        return [0.0]
    step = stop / (num - 1)
    # As numpy does: scale by stop when the step underflows, then add the start.
    return [(i * step if step else i / (num - 1) * stop) + 0.0 for i in range(num - 1)] + [stop]


def _parse_grid(text: str) -> list[float]:
    try:
        start, stop, step = (float(tok) for tok in text.split(":"))
    except ValueError:
        raise ConfigError(f"bad grid {text!r}; expected start:stop:step") from None
    if not all(map(math.isfinite, (start, stop, step))) or step <= 0.0 or stop < start:
        raise ConfigError(f"bad grid {text!r}; need finite values, step > 0 and stop >= start")
    if (stop - start) / step >= MAX_POINTS:
        raise ConfigError(f"bad grid {text!r}; too large, more than {MAX_POINTS} points")
    values = []
    k = 0
    while True:
        v = start + k * step
        if v > stop + 1e-12:
            break
        values.append(min(v, stop))
        k += 1
    return values


# ---------------------------------------------------------------- commands


def _cmd_solve(args) -> int:
    cfg = load_config(args.config)
    sol = solve(cfg.battery, cfg.contract, cfg.prices, cfg.distribution)
    _emit_json({"command": "solve", "solution": sol.to_dict()}, args.out)
    return 0


def _cmd_analytic(args) -> int:
    cfg = load_config(args.config)
    ctx = context_for(cfg.battery, cfg.contract, cfg.distribution)
    bid = analytic_bid(cfg.battery, cfg.contract, ctx.slope)
    sizing = energy_constrained_optimum(cfg.battery, cfg.contract, ctx.slope)
    _emit_json(
        {
            "command": "analytic",
            "slope": ctx.slope,
            "analytic_bid_kw": bid,
            "sizing": sizing._asdict(),
        },
        args.out,
    )
    return 0


def _cmd_bounds(args) -> int:
    cfg = load_config(args.config)
    ctx = context_for(cfg.battery, cfg.contract, cfg.distribution)
    lo_slope, hi_slope = slope_bounds(cfg.battery.eff, cfg.distribution.mad)
    if args.max_xr is not None:
        xr_hi = args.max_xr
    else:
        xr_hi = max_feasible_bid(cfg.battery, cfg.contract, ctx)
    rows = []
    for x in _linspace(xr_hi, args.grid):
        lower, upper = purchase_bounds(x, ctx)
        floor, ceiling = envelopes(x, cfg.battery, cfg.contract)
        rows.append(
            {
                "xr_kw": x,
                "purchase_kw": purchase_power(x, ctx),
                "purchase_lower_kw": lower,
                "purchase_upper_kw": upper,
                "feasible_floor_kw": floor,
                "feasible_ceiling_kw": ceiling,
            }
        )
    _emit_rows({"command": "bounds", "slope": ctx.slope, "slope_lower": lo_slope,
                "slope_upper": hi_slope}, rows, args.format, args.out)
    return 0


def _cmd_sweep_slope(args) -> int:
    dist = logistic(args.mad)
    rows = []
    for roundtrip in _parse_grid(args.eta_grid):
        eff = EfficiencyPair(roundtrip, 1.0)
        lo, hi = slope_bounds(eff, args.mad)
        rows.append(
            {
                "roundtrip": roundtrip,
                "slope": asymptotic_slope(eff, dist),
                "slope_lower": lo,
                "slope_upper": hi,
            }
        )
    _emit_rows({"command": "sweep-slope", "mad": args.mad}, rows, args.format, args.out)
    return 0


def _cmd_profit(args) -> int:
    cfg = load_config(args.config)
    if cfg.prices.mode != "inelastic":
        raise ConfigError("profit tables need inelastic prices")
    ctx = context_for(cfg.battery, cfg.contract, cfg.distribution)
    slope = ctx.slope
    activation = cfg.contract.activation
    horizons = args.horizons or [cfg.contract.horizon_h]
    inv = cfg.investment
    rows = []
    for horizon in horizons:
        con = RegulationContract(horizon_h=horizon, budget_h=activation * horizon)
        op = operating_profit(cfg.battery, con, cfg.prices, slope)
        per_year = HOURS_PER_YEAR / horizon
        charger = cfg.charger_kw_per_kwh
        if charger is None:
            charger = required_charger_rate(cfg.battery.eff, con, slope)
        row = {
            "horizon_h": horizon,
            "activation_ratio": activation,
            "operating_cts_per_kwh": op,
            "yearly_operating_eur_per_kwh": per_year * op / 100.0,
            "charger_kw_per_kwh": charger,
        }
        if inv is not None:
            row["effective_eur_per_kwh_yr"] = effective_yearly_profit(
                cfg.battery, con, cfg.prices, slope, inv, per_year,
                charger_kw_per_kwh=charger,
            )
        rows.append(row)
    header = {
        "command": "profit",
        "slope": slope,
        "unit_profit_cts_per_kw_h": unit_profit(cfg.prices, slope),
    }
    if inv is not None:
        energy_cost, power_cost = annualized_cost(inv)
        header["annualized_energy_cost_per_kwh_yr"] = energy_cost
        header["annualized_power_cost_per_kw_yr"] = power_cost
    _emit_rows(header, rows, args.format, args.out)
    return 0


def _cmd_fit(args) -> int:
    report = dict.fromkeys(["mad", "theta", "cb", "cr", "cb0", "cbd", "ca0", "cad"])
    if args.frequency:
        fs = read_frequency_csv(args.frequency, nu0=args.nu0, delta_nu=args.delta_nu)
        samples_per_day = round(24.0 / fs.dt_h) if args.mad_cap is not None else None
        dist = fit_logistic(normalize_frequency(fs), mad_cap=args.mad_cap,
                            samples_per_day=samples_per_day)
        report["mad"], report["theta"] = dist.mad, dist.theta
    if args.prices:
        report["cb"], report["cr"] = reduce_prices(read_price_csv(args.prices))
    if args.elastic_energy:
        report["cb0"], report["cbd"] = fit_elasticity(*read_elasticity_csv(args.elastic_energy))
    if args.elastic_regulation:
        c0, cd = fit_elasticity(*read_elasticity_csv(args.elastic_regulation))
        # The availability-price model is decreasing in volume; flip the
        # regression slope into the model's nonnegative coefficient.
        report["ca0"], report["cad"] = c0, -cd
    if all(v is None for v in report.values()):
        raise ConfigError("fit: nothing to do; pass at least one input file")
    _emit_json({"command": "fit", **report}, args.out)
    return 0


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    ctx = context_for(cfg.battery, cfg.contract, cfg.distribution)
    xr = args.xr if args.xr is not None else max_feasible_bid(cfg.battery, cfg.contract, ctx)
    xb = args.xb if args.xb is not None else purchase_power(xr, ctx)
    # The SoC moves by at most horizon * (|xb| + xr) / eta_minus; 4x is room for rounding.
    if not math.isfinite(4.0 * cfg.contract.horizon_h * (abs(xb) + xr) / cfg.battery.eff.eta_minus):
        raise ConfigError(f"contract.horizon_h: {cfg.contract.horizon_h} h with --xr {xr} kW and "
                          f"--xb {xb} kW moves the state of charge beyond float range")
    n_steps = args.n_steps or cfg.n_steps or 8640
    seed = args.seed if args.seed is not None else cfg.seed
    traj = sample_trajectory(
        cfg.distribution, cfg.contract, n_steps, seed,
        cap_budget=not args.no_cap,
    )
    soc = integrate_soc(xb, xr, traj, cfg.battery)
    if args.trajectory_out:
        write_trajectory_csv(traj, args.trajectory_out)
    _emit_json(
        {
            "command": "simulate",
            "xr_kw": xr,
            "xb_kw": xb,
            "seed": seed,
            "n_steps": n_steps,
            "budget_h": traj.budget_h,
            "capped": traj.budget_h >= cfg.contract.budget_h - 1e-9,
            "terminal_soc_kwh": float(soc[-1]),
            "min_soc_kwh": float(soc.min()),
            "max_soc_kwh": float(soc.max()),
        },
        args.out,
    )
    return 0


def _cmd_verify(args) -> int:
    cfg = load_config(args.config)
    sol = solve(cfg.battery, cfg.contract, cfg.prices, cfg.distribution)
    xr, xb = sol.xr_kw, sol.xb_kw
    seed = args.seed if args.seed is not None else cfg.seed
    paths = args.paths if args.paths is not None else cfg.n_paths

    analytic = (
        cfg.battery.soc0_kwh
        + cfg.contract.horizon_h
        * expected_charge_rate(xb, xr, cfg.battery.eff, cfg.distribution)
    )
    mean, half_width = mc_expected_terminal_soc(
        xb, xr, cfg.battery, cfg.contract, cfg.distribution,
        args.n_steps, paths, seed,
    )
    esoc_ok = abs(mean - analytic) <= half_width or half_width == 0.0

    feas = check_robust_feasibility(
        xb, xr, cfg.battery, cfg.contract, n_random=args.n_random, seed=seed,
    )
    feas_ok = feas.feasible and feas.sampled_max_violation <= 1e-9

    traj = sample_trajectory(cfg.distribution, cfg.contract, args.n_steps, seed)
    absolute = type(traj)(abs(traj.values), traj.dt_h)
    ordered = rearrange_nonincreasing(absolute)
    slack = float((integrate_soc(xb, xr, ordered, cfg.battery)
                   - integrate_soc(xb, xr, absolute, cfg.battery)).min())
    rearrange_ok = slack >= -1e-12

    ok = esoc_ok and feas_ok and rearrange_ok
    _emit_json(
        {
            "command": "verify",
            "ok": ok,
            "solution": {"xr_kw": xr, "xb_kw": xb},
            "expected_terminal_soc": {
                "analytic_kwh": analytic,
                "mc_mean_kwh": mean,
                "mc_half_width_kwh": half_width,
                "ok": esoc_ok,
            },
            "robust_feasibility": {**feas.to_dict(), "ok": feas_ok},
            "rearrangement": {"min_slack_kwh": slack, "ok": rearrange_ok},
        },
        args.out,
    )
    return 0 if ok else 1


# ----------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fcrbid",
        description="Robust regulation bidding for electricity storage.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, config=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if config:
            p.add_argument("--config", required=True, help="problem config JSON")
        p.add_argument("--out", help="write the report here instead of stdout")
        return p

    add("solve", _cmd_solve, "optimal bid for the configured problem")
    add("analytic", _cmd_analytic, "closed forms for a balanced target")

    p = add("bounds", _cmd_bounds, "purchase curve with envelopes over a bid grid")
    p.add_argument("--grid", type=_bounded(int, 1, MAX_POINTS), default=101,
                   help="number of grid points")
    p.add_argument("--max-xr", type=_bounded(float, 0.0), default=None,
                   help="grid upper end in kW")
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = add("sweep-slope", _cmd_sweep_slope,
            "asymptotic slope and its bounds over a roundtrip grid", config=False)
    p.add_argument("--eta-grid", required=True, help="roundtrip grid start:stop:step")
    p.add_argument("--mad", type=_bounded(), required=True, help="mean absolute deviation")
    p.add_argument("--format", choices=["json", "csv"], default="csv")

    p = add("profit", _cmd_profit, "per-unit, operating and yearly profit tables")
    p.add_argument("--horizons", type=lambda text: list(map(_bounded(), text.split(","))),
                   help="comma-separated horizon lengths in hours")
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = add("fit", _cmd_fit, "estimate model parameters from data files", config=False)
    p.add_argument("--frequency", help="frequency CSV (timestamp,hz)")
    p.add_argument("--nu0", type=_bounded(), default=50.0, help="nominal frequency in Hz")
    p.add_argument("--delta-nu", type=_bounded(), default=0.2,
                   help="saturation deviation in Hz")
    p.add_argument("--mad-cap", type=_bounded(), default=None,
                   help="cap per-day dispersion at this value before fitting")
    p.add_argument("--prices", help="price CSV")
    p.add_argument("--elastic-energy", help="volume_kw,price_cts CSV for the energy market")
    p.add_argument("--elastic-regulation",
                   help="volume_kw,price_cts CSV for the regulation market")

    p = add("simulate", _cmd_simulate, "sample one trajectory and integrate the SoC")
    # Capped so that the SoC integration cannot overflow.
    p.add_argument("--xr", type=_bounded(float, 0.0, XR_ASYMPTOTE), default=None,
                   help="bid in kW (default: max feasible)")
    p.add_argument("--xb", type=_bounded(float, -XR_ASYMPTOTE, XR_ASYMPTOTE), default=None,
                   help="purchase in kW (default: implied by the bid)")
    p.add_argument("--n-steps", type=_bounded(int, 1, MAX_POINTS), default=None)
    p.add_argument("--seed", type=_bounded(int, 0), default=None)
    p.add_argument("--no-cap", action="store_true", help="skip budget capping")
    p.add_argument("--trajectory-out", help="also write the trajectory CSV here")

    p = add("verify", _cmd_verify, "check the closed forms against simulation")
    p.add_argument("--paths", type=_bounded(int, 100), default=None,
                   help="Monte-Carlo paths (default: the config's solver.n_paths)")
    p.add_argument("--seed", type=_bounded(int, 0), default=None)
    p.add_argument("--n-steps", type=_bounded(int, 1, MAX_POINTS), default=48)
    p.add_argument("--n-random", type=_bounded(int, 0), default=1000)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        # Every input error of the package is a ValueError: a config field, a
        # bad value, or a data file's line-numbered message meant for the user.
        # A MemoryError is an input that asks for more than the machine has.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except InfeasibleProblemError as exc:
        _emit_json(
            {"command": args.command, "status": "infeasible", "reason": str(exc)},
            args.out,
        )
        return 3


if __name__ == "__main__":
    sys.exit(main())
