"""JSON problem configuration.

Field names embed their units (`cap_kwh`, `horizon_h`, ...) and validation
errors carry the offending field path, so a bad config fails loudly and
points at the exact key.  Schema is versioned; see docs/config.md.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from .distributions import MAD_LAWS, DeviationDistribution, empirical
from .econ import InvestmentSpec
from .errors import ConfigError
from .feasible import BatterySpec, RegulationContract
from .ingest import _columns, _rows
from .purchase import EfficiencyPair
from .solver import MarketPrices

__all__ = ["MAX_POINTS", "SCHEMA_VERSION", "ProblemConfig", "load_config", "parse_config"]

SCHEMA_VERSION = 1

# Most points a grid, or steps a trajectory, may have; a larger request is
# rejected before anything is allocated.
MAX_POINTS = 10**6

_MISSING = object()


@dataclass(frozen=True)
class ProblemConfig:
    battery: BatterySpec
    contract: RegulationContract
    prices: MarketPrices
    distribution: DeviationDistribution
    seed: int = 0
    n_steps: int | None = None
    n_paths: int = 100_000
    investment: InvestmentSpec | None = None
    charger_kw_per_kwh: float | None = None


def _object(doc: dict, key: str, required: bool = True) -> dict | None:
    value = doc.get(key)
    if value is None:
        if required:
            raise ConfigError(f"{key}: missing required section")
        return None
    if not isinstance(value, dict):
        raise ConfigError(f"{key}: expected an object")
    return value


def _num(sec: dict, key: str, path: str, default=_MISSING) -> float:
    if key not in sec:
        if default is _MISSING:
            raise ConfigError(f"{path}.{key}: missing required field")
        return default
    value = sec[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number")
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{path}.{key}: expected a finite number")
    return float(value)


def _int(sec: dict, key: str, path: str, floor: int, default=_MISSING, ceiling=math.inf) -> int:
    """An integer field in [``floor``, ``ceiling``]."""
    if key not in sec:
        if default is _MISSING:
            raise ConfigError(f"{path}.{key}: missing required field")
        return default
    value = sec[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}.{key}: expected an integer")
    if value < floor:
        raise ConfigError(f"{path}.{key}: must be at least {floor}, got {value}")
    if value > ceiling:
        raise ConfigError(f"{path}.{key}: must be at most {ceiling}, got {value}")
    return value


@contextmanager
def _section(name: str, sec=(), keys=None):
    """Prefix a value error from a constructor with its field path: ``name.key``
    when the message opens with the argument for the key ``key`` of ``sec``
    (``keys`` maps the arguments named otherwise), else ``name``.  A
    ConfigError already names its field path and passes through as is."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        arg, _, rest = str(exc).partition(" ")
        key = (keys or {}).get(arg, arg)
        raise ConfigError(f"{name}.{key}: {rest}" if key in sec else f"{name}: {exc}") from exc


def _battery(sec: dict) -> BatterySpec:
    with _section("battery", sec):
        eff = EfficiencyPair(
            _num(sec, "eta_plus", "battery"), _num(sec, "eta_minus", "battery")
        )
        if eff.roundtrip <= 1.0 / 3.0:  # the test of max_feasible_bid
            low, high = sorted(["eta_plus", "eta_minus"], key=lambda key: getattr(eff, key))
            raise ConfigError(f"battery.{low}: roundtrip efficiency {low} * {high} = "
                              f"{eff.roundtrip:.3f} must be above 1/3")
        return BatterySpec(
            cap_kwh=_num(sec, "cap_kwh", "battery"),
            charge_cap_kw=_num(sec, "charge_cap_kw", "battery"),
            discharge_cap_kw=_num(sec, "discharge_cap_kw", "battery"),
            soc0_kwh=_num(sec, "soc0_kwh", "battery"),
            soc_target_kwh=_num(sec, "soc_target_kwh", "battery"),
            eff=eff,
        )


def _contract(sec: dict) -> RegulationContract:
    with _section("contract", sec):
        return RegulationContract(
            horizon_h=_num(sec, "horizon_h", "contract"),
            budget_h=_num(sec, "budget_h", "contract"),
        )


# The config key of each MarketPrices argument, by price mode.
_PRICE_KEYS = {
    "inelastic": {"cb": "cb_cts_per_kwh", "cr": "cr_cts_per_kw_h"},
    "elastic": {"cb0": "cb0_cts_per_kwh", "cbd": "cbd_cts_per_kwh_per_kw",
                "ca0": "ca0_cts_per_kw_h", "cad": "cad_cts_per_kw_h_per_kw"},
}


def _prices(sec: dict) -> MarketPrices:
    mode = sec.get("mode", "inelastic")
    if not isinstance(mode, str) or mode not in _PRICE_KEYS:
        raise ConfigError(f"prices.mode: unknown mode {mode!r}")
    keys = _PRICE_KEYS[mode]
    with _section("prices", sec, keys):
        return MarketPrices(mode, **{arg: _num(sec, key, "prices") for arg, key in keys.items()})


def _samples(raw) -> list:
    """Inline deviation samples: a list of finite JSON numbers in [-1, 1]."""
    if not isinstance(raw, list):
        raise ConfigError("distribution.samples: expected a list")
    for i, value in enumerate(raw):
        # A bool is not a number here, and a large int fails the range test.
        if type(value) not in (int, float) or not -1.0 <= value <= 1.0:
            raise ConfigError(f"distribution.samples[{i}]: expected a finite number "
                              f"in [-1, 1], got {value!r}")
    return raw


def _distribution(sec: dict, base_dir: Path) -> DeviationDistribution:
    kind = sec.get("kind")
    if kind not in [*MAD_LAWS, "empirical"]:
        raise ConfigError(f"distribution.kind: unknown kind {kind!r}")
    if kind in MAD_LAWS:
        with _section("distribution.mad"):
            return MAD_LAWS[kind](_num(sec, "mad", "distribution"))
    if "samples" in sec:
        field, samples = "distribution.samples", _samples(sec["samples"])
    elif "samples_path" in sec:
        field = "distribution.samples_path"
        try:
            with _rows(base_dir / str(sec["samples_path"])) as rows:
                [samples] = _columns(rows, ["sample"], -1.0, 1.0)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{field}: {exc}") from exc
    else:
        raise ConfigError("distribution: empirical kind needs samples or samples_path")
    with _section(field):
        return empirical(samples)


def _investment(sec: dict) -> InvestmentSpec:
    with _section("investment", sec):
        return InvestmentSpec(
            energy_capex=_num(sec, "energy_capex", "investment"),
            power_capex=_num(sec, "power_capex", "investment"),
            energy_lifetime_yr=_num(sec, "energy_lifetime_yr", "investment"),
            power_lifetime_yr=_num(sec, "power_lifetime_yr", "investment"),
            discount_rate=_num(sec, "discount_rate", "investment"),
            fx_rate=_num(sec, "fx_rate", "investment", 1.0),
        )


def parse_config(doc: dict, base_dir: Path | None = None) -> ProblemConfig:
    """Validate a decoded JSON document into a ProblemConfig."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version: expected {SCHEMA_VERSION}, got {version!r}"
        )
    base_dir = base_dir or Path.cwd()
    solver_sec = _object(doc, "solver", required=False) or {}
    inv_sec = _object(doc, "investment", required=False)
    charger = solver_sec.get("charger_kw_per_kwh")
    if charger is not None:
        charger = _num(solver_sec, "charger_kw_per_kwh", "solver")
        if not charger > 0.0:
            raise ConfigError(f"solver.charger_kw_per_kwh: must be positive, got {charger}")
    return ProblemConfig(
        battery=_battery(_object(doc, "battery")),
        contract=_contract(_object(doc, "contract")),
        prices=_prices(_object(doc, "prices")),
        distribution=_distribution(_object(doc, "distribution"), base_dir),
        seed=_int(solver_sec, "seed", "solver", 0, 0),
        n_steps=_int(solver_sec, "n_steps", "solver", 1, None, MAX_POINTS),
        n_paths=_int(solver_sec, "n_paths", "solver", 100, 100_000),
        investment=_investment(inv_sec) if inv_sec is not None else None,
        charger_kw_per_kwh=charger,
    )


def load_config(path) -> ProblemConfig:
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(doc, base_dir=path.parent)
