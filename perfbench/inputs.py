"""Seeded inputs for the benchmark workloads.

One generator serves every workload.  It draws problem configs in the
package's JSON schema (docs/config.md), plus the CSV series that `fit`
reads, so the program only ever sees generated inputs and the seed never
reaches it.

Draws are stratified: each stratum (deviation law, SoC target, price
model, dispersion range and, for solve, price-ratio bin) gets a fixed
number of members, and the input lists interleave the strata round by
round.  Every prefix of a list then
has nearly the same composition, which keeps the timing medians steady
from one seed to the next; only the parameters inside a stratum vary.
"""

from __future__ import annotations

import json
import math
from datetime import datetime, timedelta

import numpy as np

LAWS = ("logistic", "two_point_lower", "three_point_upper", "empirical")
UNBALANCED_TARGETS = ("above", "below")
PRICE_MODELS = ("inelastic", "elastic")
# The calibrated range holds the dispersions seen in grid data; the wide
# range covers the rest of the valid domain, including the high-mad
# logistic region of known defect 4a.
MAD_RANGES = {"calibrated": (0.02, 0.2), "wide": (0.2, 0.8)}
HORIZONS_H = (4.0, 6.0, 8.0, 12.0, 24.0)
EMPIRICAL_SAMPLES = 128

# Price ratio over the slope: one bin below it (zero or stationary bids),
# two above it (boundary bids), so each SoC target class has a fixed mix
# of solver candidates.
RATIO_BINS = ((0.3, 0.8), (1.05, 1.4), (1.4, 2.0))
# A fifth of the solve problems are balanced.  The median over all solves
# then falls inside the cluster of unbalanced boundary solves, not at the
# edge between two clusters, where a small change of mix would move it.
SOLVE_TARGETS = ("balanced", "above", "below", "above", "below")
# Each stratum appears in three rounds, so the ten slowest solves of a run,
# which set the tail, come from several problems rather than one repeated.
SOLVE_ROUNDS = 3
VERIFY_PATHS = 20000
VERIFY_STEPS = 48
VERIFY_RANDOM = 1000
SIMULATE_STEPS = 8640
BOUNDS_GRID = 201
FREQUENCY_ROWS = 8640     # one day at 10 s
PRICE_ROWS = 96           # four days, hourly
NON_FINITE_FIELDS = {
    "non_finite_horizon": ("contract", "horizon_h"),
    "non_finite_budget": ("contract", "budget_h"),
    "non_finite_cb": ("prices", "cb_cts_per_kwh"),
}


def _law(rng, law: str, mads: str) -> dict:
    mad = float(rng.uniform(*MAD_RANGES[mads]))
    if law == "empirical":
        draws = np.clip(rng.laplace(0.0, mad, EMPIRICAL_SAMPLES), -1.0, 1.0)
        return {"kind": "empirical", "samples": [round(float(v), 6) for v in draws]}
    return {"kind": law, "mad": mad}


def _reference_scdf(dist_doc: dict):
    """The law's scdf, the integral of its CDF from -1, as the package
    defined it when the benchmark was written: the logistic one untruncated
    (ROADMAP 4a), the discrete ones exact."""
    kind = dist_doc["kind"]
    if kind == "logistic":
        th = 2.0 * math.log(2.0) / dist_doc["mad"]
        return lambda z: max(z, 0.0) + math.log1p(math.exp(-th * abs(z))) / th
    if kind == "empirical":
        draws = np.asarray(dist_doc["samples"])
        locs = np.concatenate((draws, -draws))
        mass = np.full(locs.size, 1.0 / locs.size)
    else:
        mad = dist_doc["mad"]
        if kind == "two_point_lower":
            locs, mass = np.array([-mad, mad]), np.array([0.5, 0.5])
        else:
            locs, mass = np.array([-1.0, 0.0, 1.0]), np.array([mad / 2, 1.0 - mad, mad / 2])
    return lambda z: float(np.dot(mass, np.maximum(z - locs, 0.0)))


def reference_slope(roundtrip: float, dist_doc: dict) -> float:
    """The asymptotic slope, the fixed point in [0, 1) of
    s = (1 - roundtrip) scdf(s), by bisection.  The benchmark keeps its own
    copy, so that the generated prices depend on the seed alone and not on
    the package under test."""
    scdf, loss = _reference_scdf(dist_doc), 1.0 - roundtrip
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if mid - loss * scdf(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _budget(rng, horizon: float, resolution: str) -> float:
    if resolution == "steps":
        # a rational activation ratio p/q: the budget is a whole number of
        # steps on the grid that verify's feasibility sweep picks
        q = int(rng.integers(2, 13))
        return horizon * int(rng.integers(1, q)) / q
    # an arbitrary budget at 1e-5 h resolution (known defect 4b region)
    return round(horizon * float(rng.uniform(0.05, 0.95)), 5)


def problem(rng, law: str, target: str, model: str, mads: str,
            resolution: str = "steps", ratio=(0.3, 1.7)) -> dict:
    """One valid problem config.  The price ratio is drawn from `ratio`, in
    multiples of the law's asymptotic slope, so the ranges decide which
    solver candidates occur."""
    cap = float(rng.uniform(20.0, 200.0))
    soc0 = cap * float(rng.uniform(0.25, 0.75))
    if target == "balanced":
        soc_target = soc0
    elif target == "above":
        soc_target = soc0 + (cap - soc0) * float(rng.uniform(0.05, 0.4))
    else:
        soc_target = soc0 * (1.0 - float(rng.uniform(0.05, 0.4)))
    eta_plus, eta_minus = float(rng.uniform(0.8, 0.98)), float(rng.uniform(0.75, 0.98))
    charge = cap * float(rng.uniform(0.1, 0.6))
    horizon = float(rng.choice(HORIZONS_H))
    dist_doc = _law(rng, law, mads)
    slope = reference_slope(eta_plus * eta_minus, dist_doc)
    factor = float(rng.uniform(*ratio))
    if model == "inelastic":
        cb = float(rng.uniform(2.0, 8.0))
        prices = {"cb_cts_per_kwh": cb, "cr_cts_per_kw_h": cb * slope * factor}
    else:
        cb0 = float(rng.uniform(2.0, 8.0))
        ca0 = cb0 * slope * factor
        prices = {
            "mode": "elastic",
            "cb0_cts_per_kwh": cb0,
            "cbd_cts_per_kwh_per_kw": float(rng.uniform(0.0, 0.2)) * cb0 / charge,
            "ca0_cts_per_kw_h": ca0,
            "cad_cts_per_kw_h_per_kw": float(rng.uniform(0.0, 0.2)) * ca0 / charge,
        }
    return {
        "schema_version": 1,
        "battery": {
            "cap_kwh": cap,
            "charge_cap_kw": charge,
            "discharge_cap_kw": cap * float(rng.uniform(0.1, 0.6)),
            "soc0_kwh": soc0,
            "soc_target_kwh": soc_target,
            "eta_plus": eta_plus,
            "eta_minus": eta_minus,
        },
        "contract": {"horizon_h": horizon, "budget_h": _budget(rng, horizon, resolution)},
        "prices": prices,
        "distribution": dist_doc,
        "solver": {"seed": int(rng.integers(0, 2**31))},
    }


def _interleave(rng, strata: list, rounds: int) -> list:
    order = []
    for _ in range(rounds):
        order.extend(strata[i] for i in rng.permutation(len(strata)))
    return order


def solve_inputs(seed: int) -> list[tuple[str, dict]]:
    """(tag, config) pairs; tag is "balanced" or "unbalanced"."""
    rng = np.random.default_rng([seed, 1])
    strata = [(law, target, model, mads, ratio) for law in LAWS for target in SOLVE_TARGETS
              for model in PRICE_MODELS for mads in MAD_RANGES for ratio in RATIO_BINS]
    return [
        ("balanced" if target == "balanced" else "unbalanced",
         problem(rng, law, target, model, mads, ratio=ratio))
        for law, target, model, mads, ratio in _interleave(rng, strata, SOLVE_ROUNDS)
    ]


def verify_inputs(seed: int) -> list[tuple[str, dict]]:
    """32 configs: 4 laws x {balanced, unbalanced} x 2 mad ranges x 2 price
    models.  Price ratios sit above the slope, so every verified bid is
    positive and the Monte-Carlo oracle has work.  The calibrated two-point
    configs carry a budget that is not a whole number of steps (known defect
    4b region); the wide logistic ones sit in the known defect 4a region.
    Nothing is filtered."""
    rng = np.random.default_rng([seed, 2])
    strata = [(law, balanced, mads, model) for law in LAWS for balanced in (True, False)
              for mads in MAD_RANGES for model in PRICE_MODELS]
    out = []
    for law, balanced, mads, model in _interleave(rng, strata, 1):
        target = "balanced" if balanced else str(rng.choice(UNBALANCED_TARGETS))
        resolution = ("fractional" if law == "two_point_lower" and mads == "calibrated"
                      else "steps")
        out.append(("balanced" if balanced else "unbalanced",
                    problem(rng, law, target, model, mads, resolution, ratio=(1.05, 1.7))))
    return out


def _invalid(rng, doc: dict, kind: str) -> dict:
    doc = json.loads(json.dumps(doc))
    if kind == "missing":
        sec = str(rng.choice(["battery", "contract", "prices"]))
        del doc[sec][str(rng.choice(sorted(k for k in doc[sec] if k != "mode")))]
    elif kind == "out_of_range":
        sec, key, value = [
            ("battery", "eta_plus", 1.25),
            ("battery", "soc0_kwh", doc["battery"]["cap_kwh"] * 1.5),
            ("contract", "budget_h", doc["contract"]["horizon_h"] * 2.0),
            ("distribution", "mad", 1.5),
        ][int(rng.integers(0, 4))]
        if sec == "distribution":
            doc["distribution"] = {"kind": "logistic", "mad": value}
        else:
            doc[sec][key] = value
    else:
        # JSON Infinity or NaN in one of the fields named by known defect 4c
        sec, key = NON_FINITE_FIELDS[kind]
        doc[sec][key] = [math.inf, math.nan][int(rng.integers(0, 2))]
    return doc


def cli_inputs(seed: int) -> tuple[list[dict], dict]:
    """One cycle of CLI operations, and the files they read.

    Each operation is {"name", "argv", "expect", "tag"}, where "expect" is
    the exit code an invalid config must give (0 marks a valid one).  The
    files map a file name to its text; "argv" names files by those names.
    """
    rng = np.random.default_rng([seed, 3])
    # Each config keeps a fixed law and SoC target, like the strata of the
    # other workloads, so only its parameters vary with the seed: with a few
    # commands per tag, a law drawn per seed would move the tag medians.
    laws = LAWS * 3
    up, down = UNBALANCED_TARGETS
    docs = {
        "solve_bal.json": problem(rng, laws[0], "balanced", "inelastic", "calibrated"),
        "solve_unbal.json": problem(rng, laws[1], up, "elastic", "calibrated"),
        "analytic.json": problem(rng, laws[2], "balanced", "inelastic", "calibrated"),
        "bounds_bal.json": problem(rng, laws[3], "balanced", "inelastic", "calibrated"),
        "bounds_unbal.json": problem(rng, laws[4], down, "inelastic", "calibrated"),
        "profit.json": problem(rng, laws[5], "balanced", "inelastic", "calibrated"),
        "simulate_bal.json": problem(rng, laws[6], "balanced", "inelastic", "calibrated"),
        "simulate_unbal.json": problem(rng, laws[7], down, "elastic", "calibrated"),
    }
    docs["profit.json"]["investment"] = {
        "energy_capex": float(rng.uniform(50.0, 400.0)),
        "power_capex": float(rng.uniform(100.0, 800.0)),
        "energy_lifetime_yr": 10.0,
        "power_lifetime_yr": 20.0,
        "discount_rate": float(rng.uniform(0.01, 0.08)),
    }
    for kind in ("missing", "out_of_range", *NON_FINITE_FIELDS):
        base = problem(rng, laws[8], "balanced", "inelastic", "calibrated")
        docs[f"invalid_{kind}.json"] = _invalid(rng, base, kind)
    files = {name: json.dumps(doc, indent=1) for name, doc in docs.items()}
    files["freq.csv"] = frequency_csv(rng)
    files["prices.csv"] = price_csv(rng)

    def op(name, args, expect=0, tag=None):
        return {"name": name, "argv": args, "expect": expect, "tag": tag}

    mad = float(rng.uniform(*MAD_RANGES["calibrated"]))
    ops = [
        op("solve", ["solve", "--config", "solve_bal.json"], tag="balanced"),
        op("solve", ["solve", "--config", "solve_unbal.json"], tag="unbalanced"),
        op("analytic", ["analytic", "--config", "analytic.json"], tag="balanced"),
        op("bounds", ["bounds", "--config", "bounds_bal.json", "--grid", str(BOUNDS_GRID)],
           tag="balanced"),
        op("bounds", ["bounds", "--config", "bounds_unbal.json", "--grid", str(BOUNDS_GRID)],
           tag="unbalanced"),
        op("profit", ["profit", "--config", "profit.json", "--horizons", "4,12,24"],
           tag="balanced"),
        op("sweep-slope", ["sweep-slope", "--eta-grid", "0.40:1.00:0.02", "--mad", repr(mad)]),
        op("simulate", ["simulate", "--config", "simulate_bal.json",
                        "--n-steps", str(SIMULATE_STEPS)], tag="balanced"),
        op("simulate", ["simulate", "--config", "simulate_unbal.json",
                        "--n-steps", str(SIMULATE_STEPS)], tag="unbalanced"),
        op("fit", ["fit", "--frequency", "freq.csv", "--prices", "prices.csv",
                   "--mad-cap", "0.2"]),
        op("invalid_missing", ["solve", "--config", "invalid_missing.json"], expect=2),
        op("invalid_out_of_range", ["solve", "--config", "invalid_out_of_range.json"],
           expect=2),
    ]
    ops += [op(f"invalid_{kind}", ["solve", "--config", f"invalid_{kind}.json"], expect=2)
            for kind in NON_FINITE_FIELDS]
    return ops, files


def frequency_csv(rng) -> str:
    mad = float(rng.uniform(*MAD_RANGES["calibrated"]))
    hz = 50.0 + 0.2 * np.clip(rng.laplace(0.0, mad, FREQUENCY_ROWS), -1.2, 1.2)
    t0 = datetime(2024, 1, 1)
    rows = ["timestamp,hz"]
    rows += [f"{(t0 + timedelta(seconds=10 * i)).isoformat()},{v:.5f}"
             for i, v in enumerate(hz)]
    return "\n".join(rows) + "\n"


def price_csv(rng) -> str:
    t0 = datetime(2024, 1, 1)
    rows = ["timestamp,pb_cts_per_kwh,pa_cts_per_kw_h,pd_cts_per_kwh,delta"]
    for i in range(PRICE_ROWS):
        rows.append(
            f"{(t0 + timedelta(hours=i)).isoformat()},{rng.uniform(2.0, 9.0):.4f},"
            f"{rng.uniform(0.3, 2.0):.4f},{rng.uniform(2.0, 9.0):.4f},"
            f"{rng.uniform(-0.05, 0.05):.5f}"
        )
    return "\n".join(rows) + "\n"
