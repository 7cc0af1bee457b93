"""Trajectory-level oracle for the closed-form results.

Everything here works on explicit deviation trajectories: sampling them
(with or without the activation-budget cap), integrating the state of
charge step by step, building the two extreme signals, and checking the
closed-form feasibility reductions pathwise.  The step integration is
exact because signals are piecewise constant, so any disagreement with
the closed forms is a real defect, not discretization error.  The
Monte-Carlo oracle and the feasibility sweep work in row blocks of at most
SWEEP_BLOCK elements: draws continue one seeded stream from block to block
and every row is reduced whole, so no output depends on the block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

from .distributions import DeviationDistribution
from .feasible import BatterySpec, RegulationContract
from .ingest import _columns, _rows
from .purchase import EfficiencyPair

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Trajectory",
    "sample_trajectory",
    "integrate_soc",
    "worst_case_signals",
    "mc_expected_terminal_soc",
    "rearrange_nonincreasing",
    "ConstraintCheck",
    "FeasibilityReport",
    "check_robust_feasibility",
    "read_trajectory_csv",
    "write_trajectory_csv",
]

# Two-sided 99% normal quantile, for Monte-Carlo confidence intervals.
Z99 = 2.5758293035489004

# Paths per sampling chunk.  Chunk c draws from its own generator, seeded by
# (seed, c), so results for a given (seed, n_paths) do not depend on how
# chunks are scheduled, as long as their rows land in path order.
CHUNK = 8192

# Array elements per row block (see above).  It bounds the memory, and 64 KiB
# temporaries stay in L2 and below the 128 KiB at which malloc maps fresh
# pages, which are faulted in anew on every allocation.
SWEEP_BLOCK = 8192


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A normalized deviation signal, piecewise constant on a uniform grid."""

    values: np.ndarray
    dt_h: float

    def __post_init__(self):
        import numpy as np
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("trajectory needs a nonempty 1-d value array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("trajectory values must be finite")
        if float(np.max(np.abs(arr))) > 1.0 + 1e-9:
            raise ValueError("trajectory values must lie in [-1, 1]")
        if not self.dt_h > 0.0:
            raise ValueError("dt_h must be positive")
        object.__setattr__(self, "values", arr)

    @property
    def n_steps(self) -> int:
        return self.values.size

    @property
    def horizon_h(self) -> float:
        return self.n_steps * self.dt_h

    @property
    def budget_h(self) -> float:
        """Total absolute activation time, sum of |value| * dt."""
        return float(abs(self.values).sum() * self.dt_h)

    def within_budget(self, budget_h: float, tol: float = 1e-9) -> bool:
        return self.budget_h <= budget_h + tol


def _cap_to_budget(values: np.ndarray, dt_h: float, budget_h: float) -> np.ndarray:
    """Zero the signal once its cumulative |value|*dt reaches the budget.

    The crossing step is scaled so the budget binds exactly; earlier steps
    are untouched.
    """
    cum = abs(values).cumsum() * dt_h
    over = cum > budget_h
    if not over.any():
        return values
    k = int(over.argmax())
    spent = cum[k - 1] if k > 0 else 0.0
    out = values.copy()
    room = (budget_h - spent) / dt_h
    out[k] = math.copysign(room, values[k]) if room > 0.0 else 0.0
    out[k + 1:] = 0.0
    return out


def sample_trajectory(dist: DeviationDistribution, con: RegulationContract,
                      n_steps: int, seed: int,
                      cap_budget: bool = True) -> Trajectory:
    """Draw one iid trajectory; by default, cap it at the activation budget.

    With the cap on, the result is always a member of the contract's
    uncertainty set.  The uncapped mode matches the marginal-law setting
    under which the expected-charge-rate formula is derived.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    dt = con.horizon_h / n_steps
    values = dist.sample(seed, n_steps)
    if cap_budget:
        values = _cap_to_budget(values, dt, con.budget_h)
    return Trajectory(values, dt)


def _charge_rate(power, eff: EfficiencyPair):
    """Rate of change of the state of charge at a grid power: eta_plus * p
    when charging, p / eta_minus when discharging (both efficiencies <= 1)."""
    import numpy as np
    return np.minimum(eff.eta_plus * power, power / eff.eta_minus)


def integrate_soc(xb: float, xr: float, traj: Trajectory,
                  bat: BatterySpec) -> np.ndarray:
    """State of charge on the trajectory's grid, length n_steps + 1.

    Charging applies the charge efficiency, discharging the reciprocal of
    the discharge efficiency.  No clipping at the capacity bounds: bound
    violations are exactly what the feasibility checks look for.
    """
    import numpy as np
    power = xb + traj.values * xr
    soc = np.empty(traj.n_steps + 1)
    soc[0] = 0.0
    np.cumsum(_charge_rate(power, bat.eff) * traj.dt_h, out=soc[1:])
    soc += bat.soc0_kwh
    return soc


def _aligned_steps(con: RegulationContract, target: int) -> int:
    """Smallest step count >= target at which the budget is a whole number
    of steps, if its share of the horizon is a fraction with denominator at
    most 512.  The count stays below target + 512."""
    ratio = Fraction(con.budget_h / con.horizon_h).limit_denominator(512)
    q = ratio.denominator
    return ((target + q - 1) // q) * q


def worst_case_signals(con: RegulationContract,
                       n_steps: int) -> tuple[Trajectory, Trajectory]:
    """The two extreme members of the uncertainty set: full positive
    deviation for exactly the budget, then zero; and its negation.

    When the budget is not a whole number of steps, the step in which it
    runs out carries the fraction of the budget that is left.
    """
    import numpy as np
    dt = con.horizon_h / n_steps
    steps = con.budget_h / dt
    k = round(steps)
    up = np.zeros(n_steps)
    if abs(steps - k) > 1e-6:
        # The budget runs out inside step k, which gets the fraction left.
        k = math.floor(steps)
        up[k] = steps - k
    up[:k] = 1.0
    return Trajectory(up, dt), Trajectory(-up, dt)


def mc_expected_terminal_soc(xb: float, xr: float, bat: BatterySpec,
                             con: RegulationContract,
                             dist: DeviationDistribution, n_steps: int,
                             n_paths: int, seed: int) -> tuple[float, float]:
    """Monte-Carlo mean terminal state of charge and its 99% half-width.

    Paths draw iid deviations per step without budget capping, matching
    the marginal-law derivation of the closed-form expectation.  Chunk c of
    CHUNK paths reads ``default_rng([seed, c])`` in row blocks, and
    ``sample_with`` maps each draw to its charge rate (once per atom for a
    discrete law), so the output depends only on (seed, n_paths).
    """
    import numpy as np
    if n_paths < 100:
        raise ValueError("n_paths must be at least 100")
    dt = con.horizon_h / n_steps
    if xr == 0.0:
        # Deterministic: every path charges at the same constant rate.
        return bat.soc0_kwh + con.horizon_h * float(_charge_rate(xb, bat.eff)), 0.0
    terminal = np.empty(n_paths)
    rows = max(1, SWEEP_BLOCK // n_steps)
    for chunk_idx, start in enumerate(range(0, n_paths, CHUNK)):
        rng = np.random.default_rng([seed, chunk_idx])
        stop = min(start + CHUNK, n_paths)
        for lo in range(start, stop, rows):
            hi = min(lo + rows, stop)
            rate = dist.sample_with(rng, (hi - lo, n_steps),
                                    lambda z: _charge_rate(xb + z * xr, bat.eff))
            terminal[lo:hi] = bat.soc0_kwh + dt * rate.sum(axis=1)
    mean = float(np.mean(terminal))
    half_width = Z99 * float(np.std(terminal, ddof=1)) / math.sqrt(n_paths)
    return mean, half_width


def rearrange_nonincreasing(traj: Trajectory) -> Trajectory:
    """Sort a nonnegative trajectory in nonincreasing order.

    The rearranged signal front-loads the deviations; it dominates the
    original pathwise in state of charge and preserves the budget exactly.
    """
    import numpy as np
    if float(np.min(traj.values)) < 0.0:
        raise ValueError(
            "rearrangement needs a nonnegative signal; apply to absolute "
            "values first"
        )
    ordered = np.sort(traj.values)[::-1].copy()
    return Trajectory(ordered, traj.dt_h)


@dataclass(frozen=True)
class ConstraintCheck:
    """One closed-form constraint: satisfied iff lhs <= rhs."""

    name: str
    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def ok(self) -> bool:
        return self.lhs <= self.rhs + 1e-9


@dataclass(frozen=True)
class FeasibilityReport:
    """Closed-form constraint margins against pathwise evidence.

    ``attained`` maps each worst-case quantity to its closed-form value and
    the value reached by the matching extreme signal; the two agree up to
    roundoff when the reduction is tight.  On a grid that cannot resolve the
    budget (not a whole number of steps) the pathwise value may fall short
    of the closed form.  ``sampled_max_violation`` is the largest pathwise
    bound violation over all ``n_signals`` checked signals: the two extreme
    ones plus random members of the uncertainty set, iid uniform on [-1, 1]
    per step, scaled to the budget and drawn in one stream from the seed.
    """

    checks: tuple[ConstraintCheck, ...]
    feasible: bool
    attained: dict = field(repr=False)
    sampled_max_violation: float = 0.0
    n_signals: int = 0

    def to_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "constraints": [
                {"name": c.name, "lhs": c.lhs, "rhs": c.rhs, "margin": c.margin}
                for c in self.checks
            ],
            "attained": {
                k: {"closed_form": v[0], "pathwise": v[1]}
                for k, v in self.attained.items()
            },
            "sampled_max_violation": self.sampled_max_violation,
            "n_signals": self.n_signals,
        }


def check_robust_feasibility(xb: float, xr: float, bat: BatterySpec,
                             con: RegulationContract, n_random: int = 1000,
                             seed: int = 0,
                             n_steps: int | None = None) -> FeasibilityReport:
    """Compare the closed-form feasibility reduction against trajectories.

    Reports the four closed-form constraints, the worst-case power and
    state-of-charge levels attained by the two extreme signals, and the
    largest pathwise violation over the extreme signals plus ``n_random``
    random members of the uncertainty set: iid uniform on [-1, 1] per step,
    drawn in one stream from ``seed``, each scaled down where its activation
    sum |v| * dt exceeds the budget.  The signals are swept as row blocks
    of one array, at most about SWEEP_BLOCK elements at a time.

    By default the grid has fewer than 1024 steps and resolves the budget
    when its share of the horizon is a fraction with denominator at most
    512.  On a grid that cannot resolve the budget, the extreme signals
    spend its last fraction of a step at part deviation, so a pathwise
    attained level may fall short of its closed form.
    """
    import numpy as np
    if xr < 0.0:
        raise ValueError("regulation power must be nonnegative")
    gamma = con.budget_h
    horizon = con.horizon_h
    eta_p, eta_m = bat.eff.eta_plus, bat.eff.eta_minus
    y0 = bat.soc0_kwh
    checks = (
        ConstraintCheck("charge_power", xr + xb, bat.charge_cap_kw),
        ConstraintCheck("discharge_power", xr - xb, bat.discharge_cap_kw),
        ConstraintCheck(
            "soc_ceiling",
            xr + max(horizon / gamma * xb, xb),
            (bat.cap_kwh - y0) / (eta_p * gamma),
        ),
        ConstraintCheck(
            "soc_floor",
            xr - min(horizon / gamma * xb, xb),
            eta_m * y0 / gamma,
        ),
    )
    feasible = all(c.ok for c in checks)

    if n_steps is None:
        n_steps = _aligned_steps(con, 512)
    dt = horizon / n_steps
    up, down = worst_case_signals(con, n_steps)
    rng = np.random.default_rng(seed)
    rows = max(1, SWEEP_BLOCK // n_steps)
    values = np.stack((up.values, down.values))
    worst, n_signals = 0.0, 0
    while True:
        power = np.multiply(values, xr, out=values)
        power += xb
        # Energy stored after each step, the state of charge less y0 (which
        # lies in [0, cap]).  Rounding is monotone, so y0 + max(stored) is
        # exactly the largest state of charge, and likewise the smallest.
        stored = _charge_rate(power, bat.eff)
        stored *= dt
        np.cumsum(stored, axis=1, out=stored)
        if not n_signals:  # rows 0 and 1 are the up and down signals
            attained = {
                "charge_power": (xr + xb, float(power[0].max())),
                "discharge_power": (xr - xb, -float(power[1].min())),
                "soc_max": (
                    y0 + eta_p * max(0.0, gamma * (xb + xr), gamma * xr + horizon * xb),
                    y0 + max(0.0, float(stored[0].max())),
                ),
                "soc_min": (
                    y0 - max(0.0, gamma * (xr - xb), gamma * xr - horizon * xb) / eta_m,
                    y0 + min(0.0, float(stored[1].min())),
                ),
            }
        worst = max(
            worst,
            float(power.max()) - bat.charge_cap_kw,
            -float(power.min()) - bat.discharge_cap_kw,
            y0 + float(stored.max()) - bat.cap_kwh,
            -(y0 + float(stored.min())),
        )
        n_signals += len(values)
        if n_signals >= n_random + 2:
            break
        values = rng.uniform(-1.0, 1.0, (min(rows, n_random + 2 - n_signals), n_steps))
        activation = np.abs(values).sum(axis=1) * dt
        values *= np.minimum(1.0, gamma / activation)[:, None]
    return FeasibilityReport(checks, feasible, attained, worst, n_signals)


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """One value per line after a `# dt=<hours> T=<hours>` header."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# dt={traj.dt_h!r} T={traj.horizon_h!r}\n")
        for v in traj.values:
            fh.write(f"{float(v)!r}\n")


def read_trajectory_csv(path) -> Trajectory:
    """Read a file written by :func:`write_trajectory_csv`."""
    with _rows(path) as rows:
        header = next(rows, (1, [""]))[1][0].strip()
        if not header.startswith("#"):
            raise ValueError("missing trajectory header line")
        fields = dict(token.split("=", 1) for token in header.lstrip("# ").split() if "=" in token)
        try:
            dt, horizon = float(fields["dt"]), float(fields["T"])
        except (KeyError, ValueError) as exc:
            raise ValueError("header must carry dt=<hours> T=<hours>") from exc
        traj = Trajectory(_columns(rows, ["signal"], -1.0, 1.0)[0], dt)
        if abs(traj.horizon_h - horizon) > 1e-9 * max(1.0, horizon):
            raise ValueError(
                f"header horizon {horizon} h does not match "
                f"{traj.n_steps} steps of {dt} h"
            )
    return traj
