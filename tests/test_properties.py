"""Property tests: invariants over random instances drawn by Hypothesis.

Runs are derandomized and keep no example database, so a plain ``pytest``
run is deterministic.
"""

import contextlib
import io
import json
import math
import re
import sys
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
from fcrbid.cli import _linspace, main

from test_distributions import atom_index, edge_uniforms, searched_index
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
    steps = 1 if law.theta is not None else len(law._tables[0])
    assert abs(law.scdf(z) - law.scdf(-z) - z) <= steps * 2.0**-52 * max(1.0, abs(z))


@PROPERTY
@given(deviation_laws().filter(lambda law: law.is_discrete),
       st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20))
@example(three_point_upper(1.0 - 1e-12), [])
@example(empirical([0.3] * 100_000 + [k / 1000.0 - 0.5 for k in range(1000)]), [])
def test_guide_lookup_is_the_binary_search(law, us):
    """The guide table's atom index is min(searchsorted(cum[1:], u, "right"),
    K - 1) at 0, just below 1, on and just below every mass edge and at any
    other u in [0, 1), also where tiny masses crowd one cell."""
    u = np.concatenate((edge_uniforms(law), us))
    np.testing.assert_array_equal(atom_index(law, u)[0], searched_index(law, u))


@PROPERTY
@given(st.floats(0.0, math.inf, exclude_max=True), st.integers(1, 1000))
@example(0.0, 1)
@example(0.0, 201)
@example(-0.0, 3)
@example(5e-324, 201)
@example(1e300, 2)
@example(1.7976931348623157e308, 201)
def test_bounds_grid_is_numpy_linspace(hi, n):
    """The float grid of ``fcrbid bounds`` is numpy.linspace(0, hi, n) bit
    for bit, also where the step underflows to zero."""
    with np.errstate(over="ignore"):  # numpy overwrites an overflowed last point with hi
        want = np.linspace(0.0, hi, n).tolist()
    assert [*map(float.hex, _linspace(hi, n))] == [*map(float.hex, want)]


# ---------------------------------------------------------------------------
# outside input: every bad config or data file exits 2 and says where

def _configs(samples_file: str) -> list[dict]:
    """Valid configs that together read every config field."""
    battery = {"cap_kwh": 60.0, "charge_cap_kw": 18.0, "discharge_cap_kw": 15.0,
               "soc0_kwh": 20.0, "soc_target_kwh": 20.0, "eta_plus": 0.9, "eta_minus": 0.8}
    base = {"schema_version": 1, "battery": battery,
            "contract": {"horizon_h": 12.0, "budget_h": 2.4},
            "prices": {"cb_cts_per_kwh": 5.1, "cr_cts_per_kw_h": 0.9},
            "distribution": {"kind": "logistic", "mad": 0.0816}}
    return [
        {**base, "solver": {"seed": 3, "n_steps": 96, "n_paths": 1000,
                            "charger_kw_per_kwh": 0.5},
         "investment": {"energy_capex": 300.0, "power_capex": 100.0,
                        "energy_lifetime_yr": 10.0, "power_lifetime_yr": 20.0,
                        "discount_rate": 0.05, "fx_rate": 1.1}},
        {**base, "prices": {"mode": "elastic", "cb0_cts_per_kwh": 5.1,
                            "cbd_cts_per_kwh_per_kw": 0.01, "ca0_cts_per_kw_h": 0.9,
                            "cad_cts_per_kw_h_per_kw": 0.001},
         "distribution": {"kind": "three_point_upper", "mad": 0.1}},
        {**base, "distribution": {"kind": "empirical", "samples": [0.05, -0.025, 0.0125, -0.1]}},
        {**base, "distribution": {"kind": "empirical", "samples_path": samples_file}},
    ]


def _fields(doc, path=""):
    """(path, container, key) of every section, field and list entry of ``doc``."""
    for key, value in (enumerate(doc) if isinstance(doc, list) else doc.items()):
        here = f"{path}[{key}]" if isinstance(doc, list) else f"{path}.{key}".lstrip(".")
        yield here, doc, key
        if isinstance(value, (dict, list)):
            yield from _fields(value, here)


def _outside(lo, hi):
    """Floats below ``lo`` or above ``hi``; a bound of None has nothing beyond it."""
    below = [] if lo is None else [st.floats(max_value=lo, exclude_max=True)]
    above = [] if hi is None else [st.floats(min_value=hi, exclude_min=True)]
    return st.one_of(*below, *above)


# Values outside each bounded field's own range; a sample lies in [-1, 1].
OUT_OF_RANGE = {
    "battery.cap_kwh": st.floats(max_value=0.0),
    "battery.charge_cap_kw": st.floats(max_value=0.0),
    "battery.discharge_cap_kw": st.floats(max_value=0.0),
    "battery.soc0_kwh": _outside(0.0, 60.0),
    "battery.soc_target_kwh": _outside(0.0, 60.0),
    "battery.eta_plus": st.one_of(st.floats(max_value=0.0), _outside(None, 1.0)),
    "battery.eta_minus": st.one_of(st.floats(max_value=0.0), _outside(None, 1.0)),
    "contract.horizon_h": st.floats(max_value=0.0),
    "contract.budget_h": st.one_of(st.floats(max_value=0.0), _outside(None, 12.0)),
    "prices.cb_cts_per_kwh": st.floats(max_value=0.0),
    "prices.cr_cts_per_kw_h": st.floats(max_value=0.0),
    "prices.cb0_cts_per_kwh": st.floats(max_value=0.0),
    "prices.cbd_cts_per_kwh_per_kw": _outside(0.0, None),
    "prices.ca0_cts_per_kw_h": st.floats(max_value=0.0),
    "prices.cad_cts_per_kw_h_per_kw": _outside(0.0, None),
    "distribution.mad": st.one_of(st.floats(max_value=0.0), _outside(None, 1.0)),
    "solver.seed": st.integers(max_value=-1),
    "solver.n_steps": st.one_of(st.integers(max_value=0), st.integers(min_value=10**6 + 1)),
    "solver.n_paths": st.integers(max_value=99),
    "investment.energy_capex": _outside(0.0, None),
    "investment.power_capex": _outside(0.0, None),
    "investment.energy_lifetime_yr": st.floats(max_value=0.0),
    "investment.power_lifetime_yr": st.floats(max_value=0.0),
    "investment.discount_rate": st.one_of(st.floats(max_value=0.0), st.floats(min_value=1.0)),
    "investment.fx_rate": st.floats(max_value=0.0),
    "schema_version": st.integers().filter(lambda v: v != 1),
}
VALID_WORDS = {"logistic", "two_point_lower", "three_point_upper", "empirical",
               "inelastic", "elastic", "samples.txt"}
# JSON null stands for "absent" in these optional places.
NULL_IS_DEFAULT = {"solver", "investment", "solver.charger_kw_per_kwh"}


def _bad_values(path):
    """Values that make the field at ``path`` invalid."""
    if path.startswith("distribution.samples["):
        out_of_range = _outside(-1.0, 1.0)
    else:
        out_of_range = OUT_OF_RANGE.get(path, st.nothing())
    return st.one_of(
        st.text(max_size=8).filter(lambda t: t not in VALID_WORDS),
        st.booleans(),
        st.nothing() if path in NULL_IS_DEFAULT else st.none(),
        st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=2).map(lambda xs: [xs]),
        # Any object is a solver section: its fields are optional.
        st.nothing() if path == "solver" else
        st.dictionaries(st.text(max_size=3), st.floats(-1.0, 1.0), max_size=2),
        st.sampled_from([math.inf, -math.inf, math.nan]),
        out_of_range,
    )


# Each field path once, with the first config that has it.
CONFIG_FIELDS = {path: i for i, doc in reversed([*enumerate(_configs("samples.txt"))])
                 for path, _, _ in _fields(doc)}


def _run(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of the CLI run in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("path", sorted(CONFIG_FIELDS))
@settings(PROPERTY, max_examples=25)
@given(data=st.data())
def test_mutated_config_exits_2_naming_the_field(tmp_path_factory, path, data):
    """One field of a valid config made the wrong type (string, bool, null,
    nested list, object), non-finite or out of its range: `solve` exits 2
    and the message starts with that field's path."""
    doc = json.loads(json.dumps(_configs("samples.txt")[CONFIG_FIELDS[path]]))
    _, container, key = next(field for field in _fields(doc) if field[0] == path)
    container[key] = data.draw(_bad_values(path))
    folder = tmp_path_factory.getbasetemp() / "mutated_configs"
    folder.mkdir(exist_ok=True)
    (folder / "samples.txt").write_text("0.05\n-0.025\n0.0125\n-0.1\n", encoding="utf-8")
    (folder / "cfg.json").write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = _run(["solve", "--config", str(folder / "cfg.json")])
    assert (code, out) == (2, "")
    assert re.match(rf"error: {re.escape(path)}[:.[]", err), (path, err)


def _stamps(n, step_s):
    t0 = datetime(2024, 1, 1)
    return [(t0 + timedelta(seconds=step_s * i)).isoformat() for i in range(n)]


# Valid data files: the header, or None, and the cells of each data row.
DATA_FILES = {
    "frequency": ("timestamp,hz", [[t, f"{50.0 + 0.01 * i:.2f}"]
                                   for i, t in enumerate(_stamps(6, 10))]),
    "prices": ("timestamp,pb_cts_per_kwh,pa_cts_per_kw_h,pd_cts_per_kwh,delta",
               [[t, f"{5.0 + i}", "0.9", "7.0", f"{(-0.5) ** i}"]
                for i, t in enumerate(_stamps(5, 3600))]),
    "elasticity": ("volume_kw,price_cts", [["100", "5.0"], ["400", "4.9"], ["900", "4.8"],
                                           ["1600", "4.6"]]),
    "samples": (None, [["0.05"], ["-0.025"], ["0.0125"], ["-0.1"], ["0.075"]]),
}
EXACT_ROWS = {"prices", "samples"}  # rows of these files hold no extra column


def _not_a_number(token, lo=-sys.float_info.max, hi=sys.float_info.max):
    try:
        return not lo <= float(token) <= hi
    except ValueError:
        return True


def _not_a_timestamp(token):
    try:
        datetime.fromisoformat(token.strip())
    except ValueError:
        return True
    return False


JUNK = st.text(st.characters(blacklist_characters=',"\r\n', blacklist_categories=["Cs"]),
               min_size=1, max_size=8).filter(str.strip)


@st.composite
def mutated_data_files(draw, kind):
    """A valid ``kind`` file with one cell or line made bad, and its line number."""
    header, rows = DATA_FILES[kind]
    rows = [list(row) for row in rows]
    stamped = header is not None and header.startswith("timestamp")
    # The first gap is the reference spacing, so a timestamp that moves is
    # drawn after the first two rows.
    k = draw(st.integers(2 if stamped else 0, len(rows) - 1))
    row = rows[k]
    how = draw(st.sampled_from(["cell", "line", "short", "extra", "offset", "shift"]))
    if how == "line":
        rows[k] = [draw(JUNK.filter(_not_a_number if kind == "samples" else bool))]
    elif how == "short" and len(row) > 1:
        row.pop()
    elif how == "extra" and kind in EXACT_ROWS:
        row.append("1.0")
    elif how == "offset" and stamped:
        row[0] += draw(st.sampled_from(["+00:00", "Z", "-05:30"]))
    elif how == "shift" and stamped:
        when = datetime.fromisoformat(row[0]) + timedelta(seconds=draw(st.sampled_from([-1, 1, 7])))
        row[0] = when.isoformat()
    else:
        j = draw(st.integers(0, len(row) - 1))
        if stamped and j == 0:
            row[0] = draw(JUNK.filter(_not_a_timestamp))
        else:
            bounds = (-1.0, 1.0) if kind == "samples" else ()
            row[j] = draw(st.one_of(
                JUNK.filter(lambda t: _not_a_number(t, *bounds)),
                st.sampled_from(["nan", "inf", "-Infinity", "1e999"]),
                st.sampled_from(["1.5", "-2"] if kind == "samples" else ["", " "])))
    lines = ([header] if header else []) + [",".join(r) for r in rows]
    return "\n".join(lines) + "\n", k + (2 if header else 1)


@pytest.mark.parametrize("kind", sorted(DATA_FILES))
@settings(PROPERTY, max_examples=50)
@given(data=st.data())
def test_mutated_data_file_exits_2_naming_the_file_and_line(tmp_path_factory, kind, data):
    """One cell or line of a valid frequency, price, elasticity or samples
    file made bad (junk, non-finite, out of range, a missing or extra cell,
    a UTC offset among naive times, a moved timestamp): the command that
    reads it exits 2, and the message names the file and the line."""
    text, lineno = data.draw(mutated_data_files(kind))
    folder = tmp_path_factory.getbasetemp() / "mutated_data_files"
    folder.mkdir(exist_ok=True)
    path = folder / f"{kind}.txt"
    path.write_text(text, encoding="utf-8")
    if kind == "samples":
        cfg = _configs(path.name)[3]
        (folder / "cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
        argv = ["solve", "--config", str(folder / "cfg.json")]
    else:
        flag = {"frequency": "--frequency", "prices": "--prices",
                "elasticity": "--elastic-energy"}[kind]
        argv = ["fit", flag, str(path)]
    code, out, err = _run(argv)
    assert (code, out) == (2, "")
    assert f"{path}: line {lineno}: " in err, err


@pytest.mark.parametrize("kind", sorted(DATA_FILES))
def test_unmutated_data_files_are_read(tmp_path, kind):
    header, rows = DATA_FILES[kind]
    path = tmp_path / f"{kind}.txt"
    path.write_text("\n".join(([header] if header else []) + [",".join(r) for r in rows]),
                    encoding="utf-8")
    if kind == "samples":
        (tmp_path / "cfg.json").write_text(json.dumps(_configs(path.name)[3]), encoding="utf-8")
        argv = ["solve", "--config", str(tmp_path / "cfg.json")]
    else:
        argv = ["fit", {"frequency": "--frequency", "prices": "--prices",
                        "elasticity": "--elastic-energy"}[kind], str(path)]
    assert _run(argv)[0] == 0
