"""JSON problem configuration.

Field names embed their units (`cap_kwh`, `horizon_h`, ...) and validation
errors carry the offending field path, so a bad config fails loudly and
points at the exact key.  Schema is versioned; see docs/config.md.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from .distributions import MAD_LAWS, DeviationDistribution, build_distribution
from .econ import InvestmentSpec
from .errors import ConfigError
from .feasible import BatterySpec, RegulationContract
from .purchase import EfficiencyPair
from .solver import MarketPrices

__all__ = ["SCHEMA_VERSION", "ProblemConfig", "load_config", "parse_config"]

SCHEMA_VERSION = 1

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


def _int(sec: dict, key: str, path: str, floor: int, default=_MISSING) -> int:
    """An integer field of at least ``floor``."""
    if key not in sec:
        if default is _MISSING:
            raise ConfigError(f"{path}.{key}: missing required field")
        return default
    value = sec[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}.{key}: expected an integer")
    if value < floor:
        raise ConfigError(f"{path}.{key}: must be at least {floor}, got {value}")
    return value


@contextmanager
def _section(name: str):
    """Prefix a value error from a constructor with the section name.

    A ConfigError already names its field path and passes through as is.
    """
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def _battery(sec: dict) -> BatterySpec:
    with _section("battery"):
        eff = EfficiencyPair(
            _num(sec, "eta_plus", "battery"), _num(sec, "eta_minus", "battery")
        )
        return BatterySpec(
            cap_kwh=_num(sec, "cap_kwh", "battery"),
            charge_cap_kw=_num(sec, "charge_cap_kw", "battery"),
            discharge_cap_kw=_num(sec, "discharge_cap_kw", "battery"),
            soc0_kwh=_num(sec, "soc0_kwh", "battery"),
            soc_target_kwh=_num(sec, "soc_target_kwh", "battery"),
            eff=eff,
        )


def _contract(sec: dict) -> RegulationContract:
    with _section("contract"):
        return RegulationContract(
            horizon_h=_num(sec, "horizon_h", "contract"),
            budget_h=_num(sec, "budget_h", "contract"),
        )


def _prices(sec: dict) -> MarketPrices:
    mode = sec.get("mode", "inelastic")
    with _section("prices"):
        if mode == "inelastic":
            return MarketPrices(
                mode="inelastic",
                cb=_num(sec, "cb_cts_per_kwh", "prices"),
                cr=_num(sec, "cr_cts_per_kw_h", "prices"),
            )
        if mode == "elastic":
            return MarketPrices(
                mode="elastic",
                cb0=_num(sec, "cb0_cts_per_kwh", "prices"),
                cbd=_num(sec, "cbd_cts_per_kwh_per_kw", "prices"),
                ca0=_num(sec, "ca0_cts_per_kw_h", "prices"),
                cad=_num(sec, "cad_cts_per_kw_h_per_kw", "prices"),
            )
    raise ConfigError(f"prices.mode: unknown mode {mode!r}")


def _distribution(sec: dict, base_dir: Path) -> DeviationDistribution:
    kind = sec.get("kind")
    if not isinstance(kind, str):
        raise ConfigError("distribution.kind: missing or not a string")
    samples = None
    if kind == "empirical":
        if "samples" in sec:
            raw = sec["samples"]
            if not isinstance(raw, list):
                raise ConfigError("distribution.samples: expected a list")
            samples = raw
        elif "samples_path" in sec:
            path = base_dir / str(sec["samples_path"])
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    samples = [float(line) for line in fh if line.strip()]
            except OSError as exc:
                raise ConfigError(f"distribution.samples_path: {exc}") from exc
            except ValueError as exc:
                raise ConfigError(
                    f"distribution.samples_path: bad value in {path}: {exc}"
                ) from exc
        else:
            raise ConfigError(
                "distribution: empirical kind needs samples or samples_path"
            )
    if kind not in MAD_LAWS:
        with _section("distribution"):
            return build_distribution(kind, samples=samples)
    with _section("distribution.mad"):
        return build_distribution(kind, mad=_num(sec, "mad", "distribution"))


def _investment(sec: dict) -> InvestmentSpec:
    with _section("investment"):
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
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version: expected {SCHEMA_VERSION}, got {version!r}"
        )
    base_dir = base_dir or Path.cwd()
    solver_sec = _object(doc, "solver", required=False) or {}
    inv_sec = _object(doc, "investment", required=False)
    charger = solver_sec.get("charger_kw_per_kwh")
    if charger is not None:
        charger = _num(solver_sec, "charger_kw_per_kwh", "solver")
    return ProblemConfig(
        battery=_battery(_object(doc, "battery")),
        contract=_contract(_object(doc, "contract")),
        prices=_prices(_object(doc, "prices")),
        distribution=_distribution(_object(doc, "distribution"), base_dir),
        seed=_int(solver_sec, "seed", "solver", 0, 0),
        n_steps=_int(solver_sec, "n_steps", "solver", 1, None),
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
