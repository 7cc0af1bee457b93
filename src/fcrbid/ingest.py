"""Turn raw frequency, price and volume series into model parameters.

Every data file of the package is read here, by one row reader.  Readers
are deliberately strict: a malformed row fails with the file's path and its
line number, every number must be finite, and timestamps must be uniformly
spaced.  No imputation.
"""

from __future__ import annotations

import csv
import operator
import sys
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import TYPE_CHECKING

from .distributions import DeviationDistribution, logistic
from .errors import DegenerateSignalError, SingularFitError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "FrequencySeries",
    "PriceSeries",
    "normalize_frequency",
    "fit_logistic",
    "reduce_prices",
    "fit_elasticity",
    "read_frequency_csv",
    "read_price_csv",
    "read_elasticity_csv",
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
        import numpy as np
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
        import numpy as np
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
    return ((fs.nu - fs.nu0) / fs.delta_nu).clip(-1.0, 1.0)


def fit_logistic(deviations, mad_cap: float | None = None,
                 samples_per_day: int | None = None) -> DeviationDistribution:
    """Fit the logistic deviation law by matching the mean absolute deviation.

    With ``mad_cap`` set, the dispersion is estimated as the mean of per-day
    mean absolute deviations, each capped at ``mad_cap`` (days of
    ``samples_per_day`` samples, last day possibly short).  Capping is off
    by default; for realistic activation ratios it changes the fit by well
    under the approximation error of the logistic shape.
    """
    import numpy as np
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
    cb = float(ps.pb.mean())
    if ps.pa is None:
        return cb, None
    cr = float(ps.pa.mean())
    if ps.pd is not None and ps.delta is not None:
        cr -= float((ps.delta * ps.pd).mean())
    return cb, cr


def fit_elasticity(prices, volumes) -> tuple[float, float]:
    """Ordinary least squares of price on traded volume: (intercept, slope).

    The slope keeps its sign; callers fitting the availability curve negate
    it to obtain the elasticity coefficient of the decreasing price model.
    """
    import numpy as np
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


_MAX = sys.float_info.max


@contextmanager
def _rows(path):
    """The rows of the CSV file at ``path`` that hold more than whitespace, with their
    line numbers; a ValueError raised in the ``with`` block gets the path as a prefix."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            yield ((reader.line_num, row) for row in reader
                   if len(row) > 1 or row and row[0].strip())
    except csv.Error as exc:
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _header(rows, *names: str) -> list[str]:
    """The stripped cells of the first row, which must begin with ``names``."""
    header = [cell.strip() for cell in next(rows, (1, []))[1]]
    if header[:len(names)] != list(names):
        raise ValueError(f"expected header {','.join(names)!r}")
    return header


def _number(token: str, lineno: int, column: str, lo: float = -_MAX, hi: float = _MAX) -> float:
    """The float in ``token``, which must lie in [``lo``, ``hi``]: finite by default."""
    try:
        if lo <= (value := float(token)) <= hi:
            return value
    except ValueError:
        pass
    raise ValueError(f"line {lineno}: bad {column} value {token.strip()!r}")


def _timestamp(token: str, lineno: int) -> datetime:
    try:
        return datetime.fromisoformat(token)
    except ValueError as exc:
        raise ValueError(f"line {lineno}: bad timestamp {token!r}") from exc


def _uniform_dt_hours(stamps: dict[int, datetime], name: str) -> float:
    """The spacing, in hours, of a ``name`` file's timestamps, keyed by line number."""
    if not stamps:
        raise ValueError(f"{name} file has no data rows")
    lines, times = list(stamps), list(stamps.values())
    with suppress(TypeError):  # equal positive gaps, the common case, checked in C
        gaps = list(map(operator.sub, times[1:], times))
        if gaps and gaps[0] > timedelta(0) and gaps.count(gaps[0]) == len(gaps):
            return gaps[0].total_seconds() / 3600.0
    first = None
    for lineno, a, b in zip(lines[1:], times, times[1:]):
        try:
            gap = (b - a).total_seconds()
        except TypeError:
            raise ValueError(f"line {lineno}: timestamps mix UTC offsets and naive ones") from None
        if gap <= 0.0:
            raise ValueError(f"line {lineno}: timestamps must be strictly increasing")
        if abs(gap - (first := first or gap)) > 1e-6:
            raise ValueError(f"line {lineno}: non-uniform timestamp spacing")
    return first / 3600.0 if first else 1.0


def _columns(rows, names: list[str], lo: float = -_MAX, hi: float = _MAX,
             exact: bool = True) -> list[list[float]]:
    """The numbers in [``lo``, ``hi``] that open each row, one per name; an
    ``exact`` row holds no more."""
    columns: list[list[float]] = [[] for _ in names]
    for lineno, row in rows:
        if len(row) < len(names) or exact and len(row) > len(names):
            plural = "s" * (len(names) > 1)
            raise ValueError(f"line {lineno}: expected {len(names)} column{plural}")
        for column, token, name in zip(columns, row, names):
            column.append(_number(token, lineno, name, lo, hi))
    return columns


def read_frequency_csv(path, nu0: float = 50.0, delta_nu: float = 0.2) -> FrequencySeries:
    """Read a `timestamp,hz` CSV with ISO-8601 timestamps; later columns are ignored."""
    stamps: dict[int, datetime] = {}
    values: list[float] = []
    with _rows(path) as rows:
        _header(rows, "timestamp", "hz")
        for lineno, row in rows:
            if len(row) < 2:
                raise ValueError(f"line {lineno}: expected 2 columns")
            stamps[lineno] = _timestamp(row[0].strip(), lineno)
            values.append(_number(row[1], lineno, "hz"))
        dt_h = _uniform_dt_hours(stamps, "frequency")
    return FrequencySeries(values, nu0, delta_nu, dt_h)


_PRICE_COLUMNS = ["pb_cts_per_kwh", "pa_cts_per_kw_h", "pd_cts_per_kwh", "delta"]


def read_price_csv(path) -> PriceSeries:
    """Read a price CSV; availability, delivery and deviation columns are
    optional but must come in the documented order."""
    stamps: dict[int, datetime] = {}
    with _rows(path) as rows:
        names = _header(rows, "timestamp")[1:]
        if names != _PRICE_COLUMNS[: len(names)] or not names:
            raise ValueError("price columns must be, in order: " + ",".join(_PRICE_COLUMNS))
        columns: list[list[float]] = [[] for _ in names]
        for lineno, row in rows:
            if len(row) != len(names) + 1:
                raise ValueError(f"line {lineno}: expected {len(names) + 1} columns")
            stamps[lineno] = _timestamp(row[0].strip(), lineno)
            for col, token, name in zip(columns, row[1:], names):
                col.append(_number(token, lineno, name))
        dt_h = _uniform_dt_hours(stamps, "price")
    return PriceSeries(*columns, *[None] * (4 - len(columns)), dt_h)


def read_elasticity_csv(path) -> tuple[list[float], list[float]]:
    """Read a `volume_kw,price_cts` CSV into (prices, volumes), the argument
    order of :func:`fit_elasticity`; later columns are ignored."""
    with _rows(path) as rows:
        _header(rows, "volume_kw", "price_cts")
        volumes, prices = _columns(rows, ["volume_kw", "price_cts"], exact=False)
    return prices, volumes
