"""Turn raw frequency and price series into model parameters.

Readers are deliberately strict: malformed rows fail with their line
number, and timestamps must be uniformly spaced.  No imputation.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .distributions import DeviationDistribution, logistic
from .errors import DegenerateSignalError, SingularFitError

__all__ = [
    "FrequencySeries",
    "PriceSeries",
    "normalize_frequency",
    "fit_logistic",
    "reduce_prices",
    "fit_elasticity",
    "read_frequency_csv",
    "read_price_csv",
]


@dataclass(frozen=True, eq=False)
class FrequencySeries:
    """Grid frequency samples with the normalization parameters.

    ``nu0`` is the nominal frequency and ``delta_nu`` the deviation at
    which regulation saturates; both in Hz.
    """

    nu: np.ndarray
    nu0: float
    delta_nu: float
    dt_h: float

    def __post_init__(self):
        arr = np.asarray(self.nu, dtype=float)
        if arr.size == 0:
            raise ValueError("frequency series is empty")
        if not self.delta_nu > 0.0:
            raise ValueError("delta_nu must be positive")
        if not self.dt_h > 0.0:
            raise ValueError("dt_h must be positive")
        object.__setattr__(self, "nu", arr)


@dataclass(frozen=True, eq=False)
class PriceSeries:
    """Aligned price samples in cents; optional availability, delivery and
    deviation columns for the regulation-price correction."""

    pb: np.ndarray
    pa: np.ndarray | None = None
    pd: np.ndarray | None = None
    delta: np.ndarray | None = None
    dt_h: float = 1.0

    def __post_init__(self):
        pb = np.asarray(self.pb, dtype=float)
        if pb.size == 0:
            raise ValueError("price series is empty")
        object.__setattr__(self, "pb", pb)
        for name in ("pa", "pd", "delta"):
            col = getattr(self, name)
            if col is None:
                continue
            col = np.asarray(col, dtype=float)
            if col.size != pb.size:
                raise ValueError(f"column {name} is misaligned with pb")
            object.__setattr__(self, name, col)


def normalize_frequency(fs: FrequencySeries) -> np.ndarray:
    """Clipped-ramp normalization of frequency into deviations in [-1, 1]."""
    return np.clip((fs.nu - fs.nu0) / fs.delta_nu, -1.0, 1.0)


def fit_logistic(deviations, mad_cap: float | None = None,
                 samples_per_day: int | None = None) -> DeviationDistribution:
    """Fit the logistic deviation law by matching the mean absolute deviation.

    With ``mad_cap`` set, the dispersion is estimated as the mean of per-day
    mean absolute deviations, each capped at ``mad_cap`` (days of
    ``samples_per_day`` samples, last day possibly short).  Capping is off
    by default; for realistic activation ratios it changes the fit by well
    under the approximation error of the logistic shape.
    """
    arr = np.abs(np.asarray(deviations, dtype=float))
    if arr.size == 0:
        raise ValueError("cannot fit a distribution to an empty series")
    if mad_cap is not None:
        if samples_per_day is None or samples_per_day < 1:
            raise ValueError("mad_cap needs samples_per_day")
        day_mads = [
            float(np.mean(arr[i:i + samples_per_day]))
            for i in range(0, arr.size, samples_per_day)
        ]
        mad = float(np.mean(np.minimum(day_mads, mad_cap)))
    else:
        mad = float(np.mean(arr))
    if mad == 0.0:
        raise DegenerateSignalError("all deviations are zero; nothing to fit")
    return logistic(mad)


def reduce_prices(ps: PriceSeries) -> tuple[float, float | None]:
    """Average the price series into (energy price, regulation price).

    The regulation price is the mean availability price minus the mean of
    the deviation-weighted delivery price; the correction is omitted when
    either column is absent, and the regulation price is None without an
    availability column.
    """
    cb = float(np.mean(ps.pb))
    if ps.pa is None:
        return cb, None
    cr = float(np.mean(ps.pa))
    if ps.pd is not None and ps.delta is not None:
        cr -= float(np.mean(ps.delta * ps.pd))
    return cb, cr


def fit_elasticity(prices, volumes) -> tuple[float, float]:
    """Ordinary least squares of price on traded volume: (intercept, slope).

    The slope keeps its sign; callers fitting the availability curve negate
    it to obtain the elasticity coefficient of the decreasing price model.
    """
    p = np.asarray(prices, dtype=float)
    v = np.asarray(volumes, dtype=float)
    if p.size != v.size:
        raise ValueError("prices and volumes are misaligned")
    if p.size < 2:
        raise SingularFitError("need at least two points to fit a line")
    if float(np.min(v)) == float(np.max(v)):
        raise SingularFitError("volumes are constant; slope is unidentified")
    design = np.column_stack([np.ones_like(v), v])
    coeffs, *_ = np.linalg.lstsq(design, p, rcond=None)
    return float(coeffs[0]), float(coeffs[1])


def _parse_timestamp(token: str, lineno: int) -> datetime:
    try:
        return datetime.fromisoformat(token)
    except ValueError as exc:
        raise ValueError(f"line {lineno}: bad timestamp {token!r}") from exc


def _parse_float(token: str, lineno: int, column: str) -> float:
    try:
        if math.isfinite(value := float(token)):
            return value
    except ValueError:
        pass
    raise ValueError(f"line {lineno}: bad {column} value {token!r}")


def _uniform_dt_hours(stamps: list[datetime]) -> float:
    if len(stamps) < 2:
        return 1.0
    gaps = [
        (b - a).total_seconds() for a, b in zip(stamps, stamps[1:])
    ]
    first = gaps[0]
    if first <= 0.0:
        raise ValueError("timestamps must be strictly increasing")
    for lineno, gap in enumerate(gaps[1:], start=4):
        if abs(gap - first) > 1e-6:
            raise ValueError(f"line {lineno}: non-uniform timestamp spacing")
    return first / 3600.0


def read_frequency_csv(path, nu0: float = 50.0,
                       delta_nu: float = 0.2) -> FrequencySeries:
    """Read a `timestamp,hz` CSV with ISO-8601 timestamps."""
    stamps: list[datetime] = []
    values: list[float] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["timestamp", "hz"]:
            raise ValueError("expected header 'timestamp,hz'")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < 2:
                raise ValueError(f"line {lineno}: expected 2 columns")
            stamps.append(_parse_timestamp(row[0].strip(), lineno))
            values.append(_parse_float(row[1].strip(), lineno, "hz"))
    if not values:
        raise ValueError("frequency file has no data rows")
    return FrequencySeries(np.array(values), nu0, delta_nu, _uniform_dt_hours(stamps))


_PRICE_COLUMNS = ["pb_cts_per_kwh", "pa_cts_per_kw_h", "pd_cts_per_kwh", "delta"]


def read_price_csv(path) -> PriceSeries:
    """Read a price CSV; availability, delivery and deviation columns are
    optional but must come in the documented order."""
    stamps: list[datetime] = []
    columns: list[list[float]] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[0].strip() != "timestamp":
            raise ValueError("expected a 'timestamp' first column")
        names = [h.strip() for h in header[1:]]
        if names != _PRICE_COLUMNS[: len(names)] or not names:
            raise ValueError(
                "price columns must be, in order: " + ",".join(_PRICE_COLUMNS)
            )
        columns = [[] for _ in names]
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(names) + 1:
                raise ValueError(
                    f"line {lineno}: expected {len(names) + 1} columns"
                )
            stamps.append(_parse_timestamp(row[0].strip(), lineno))
            for col, token, name in zip(columns, row[1:], names):
                col.append(_parse_float(token.strip(), lineno, name))
    if not columns or not columns[0]:
        raise ValueError("price file has no data rows")
    dt = _uniform_dt_hours(stamps)
    arrays = [np.array(c) for c in columns]
    arrays += [None] * (4 - len(arrays))
    return PriceSeries(arrays[0], arrays[1], arrays[2], arrays[3], dt)
