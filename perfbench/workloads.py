"""The three workloads: their operations, the correctness gate, the timed loop.

Each workload is a list of distinct inputs, an operation run on one input,
and a gate that judges the operation's result.  The loop is closed with one
caller: the next operation starts when the previous one returns.  Only the
operation itself is timed.  The gate judges the first result of every
input, outside the timed section; later results of the same input must
repeat it exactly, since every operation is deterministic.

A gate verdict is "ok", "refused" (a documented refusal: an
InfeasibleProblemError or AssumptionError, or exit 3) or "failed".  A
failure is attributed to a known defect (ROADMAP item 4, or the mc99
sampling miss) when it carries that defect's signature, and counts as
unexpected otherwise.

Machine-speed calibration: a shared VM flips between a fast and a slow
state every few seconds to minutes, and in the slow state the same work
runs up to 1.9 times slower.  So after every operation, outside its
timing, the loop also times a calibration kernel that calls no fcrbid
code and resembles the operation's own work.  Each operation's time is
scaled by the kernel's reference duration over the median kernel time of
the CAL_WINDOW operations around it, which cancels the drift; a change to
the package cannot move the kernel.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import fcrbid.cli as cli
import fcrbid.solver as solver
from fcrbid.config import parse_config
from fcrbid.errors import AssumptionError, InfeasibleProblemError
from fcrbid.feasible import context_for, envelopes
from fcrbid.purchase import expected_charge_rate, purchase_power_many
from fcrbid.simulate import Z99

import inputs

GRID_POINTS = 1001
DRIFT_TOL = 1e-9      # kW, relative to 1 + |xb| + xr
OBJECTIVE_TOL = 1e-7  # relative to 1 + |best grid objective|, as acceptance criterion 11
ENVELOPE_TOL = 1e-9   # kW, relative to 1 + |xb|
NOISE_Z = 4.0         # a terminal-SoC gap of more standard errors is never sampling noise
# ids of the known defects a failure can be attributed to; README.md
# describes each and its signature
KNOWN_DEFECTS = {"4a", "4b", "4c", "mc99"}


@dataclass
class Verdict:
    status: str                 # "ok" | "refused" | "failed"
    defect: str | None = None   # known defect id, or a reason for an unexpected failure


@dataclass
class Workload:
    items: list                 # distinct inputs, in loop order; "tag" marks the SoC target
    run: callable               # item -> result; a failure is returned, not raised
    judge: callable             # (item, result) -> Verdict
    fingerprint: callable       # result -> comparable value
    calibrate: callable         # the calibration kernel
    reference_ms: float         # the kernel's duration at the reference speed


_CAL_Z = [i / 150.0 - 1.0 for i in range(300)]
_CAL_KNOTS = np.array([-0.5, 0.0, 0.5])
_CAL_U = np.random.default_rng(0).random((2048, 48))
# Kernel medians on a shared 2-core x86-64 KVM guest (Xeon, 2.0 GHz) in its
# faster periods, Python 3.11.7, NumPy 2.4.6.  They only fix the unit of the
# scaled times.
SCALAR_KERNEL_MS = 0.45
VERIFY_KERNEL_MS = 3.4
IMPORT_KERNEL_MS = 140.0
CAL_WINDOW = 15


def scalar_kernel():
    """Scalar float work with math and NumPy scalar calls, the instruction
    mix of the solver's bisection loops."""
    s = 0.0
    for z in _CAL_Z:
        s += math.log1p(math.exp(-8.0 * abs(z))) + float(np.searchsorted(_CAL_KNOTS, z))
    return s


def verify_kernel():
    """The scalar kernel, then the array work of a quarter of a Monte-Carlo
    chunk: logit, clip and the charge-rate sum.  Verify mixes both, and in
    the machine's slow periods scalar code slows by about 1.9x, array code
    by 1.3x and verify by 1.4x, so neither kernel alone tracks it."""
    scalar_kernel()
    z = np.clip(np.log(_CAL_U / (1.0 - _CAL_U)) / 7.0, -1.0, 1.0)
    power = 0.5 + 0.3 * z
    return float((0.9 * np.maximum(power, 0.0) - 1.1 * np.maximum(-power, 0.0)).sum())


def import_kernel(env: dict, root: Path):
    """A fresh interpreter that imports NumPy: the start-up work of every CLI
    operation that the package does not own."""
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, cwd=root, check=True,
                   timeout=60)


def strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-finite number {token}")
    return json.loads(text, parse_constant=reject)


# ------------------------------------------------------------------ solve


def _solve(item):
    p = item["problem"]
    fn = solver.solve_elastic if p.prices.mode == "elastic" else solver.solve_inelastic
    try:
        return fn(p.battery, p.contract, p.prices, p.distribution)
    except (InfeasibleProblemError, AssumptionError) as exc:
        return exc
    except Exception as exc:  # a crash is a gate failure, not a benchmark crash
        return ("crash", repr(exc))


def _objective(prices, horizon, xb, xr):
    if prices.mode == "elastic":
        return horizon * (prices.cb0 * xb + prices.cbd * xb * xb
                          - prices.ca0 * xr + prices.cad * xr * xr)
    return horizon * (prices.cb * xb - prices.cr * xr)


def judge_solve(item, sol) -> Verdict:
    if isinstance(sol, (InfeasibleProblemError, AssumptionError)):
        return Verdict("refused")
    if isinstance(sol, tuple):
        return Verdict("failed", f"exception {sol[1]}")
    p = item["problem"]
    values = (sol.xr_kw, sol.xb_kw, sol.objective_cts, sol.xr_max_kw, sol.slope)
    if not all(math.isfinite(v) for v in values):
        return Verdict("failed", "non-finite field")
    xr, xb = sol.xr_kw, sol.xb_kw
    ctx = context_for(p.battery, p.contract, p.distribution)
    rate = expected_charge_rate(xb, xr, p.battery.eff, p.distribution)
    if abs(rate - ctx.drift_target) > DRIFT_TOL * (1.0 + abs(xb) + xr):
        return Verdict("failed", "drift target missed")
    if not 0.0 <= xr <= sol.xr_max_kw:
        return Verdict("failed", "bid outside [0, xr_max]")
    lo, hi = envelopes(xr, p.battery, p.contract)
    pad = ENVELOPE_TOL * (1.0 + abs(xb))
    if not lo - pad <= xb <= hi + pad:
        return Verdict("failed", "purchase outside the envelopes")
    grid = np.linspace(0.0, sol.xr_max_kw, GRID_POINTS)
    best = float(np.min(_objective(p.prices, p.contract.horizon_h,
                                   purchase_power_many(grid, ctx), grid)))
    if sol.objective_cts - best > OBJECTIVE_TOL * (1.0 + abs(best)):
        return Verdict("failed", "objective worse than the bid grid")
    return Verdict("ok")


def _solve_fingerprint(sol):
    if isinstance(sol, BaseException):
        return (type(sol).__name__, str(sol))
    if isinstance(sol, tuple):
        return sol
    return (sol.xr_kw, sol.xb_kw, sol.objective_cts, sol.candidate, sol.xr_max_kw)


def solve_workload(seed: int, workdir: Path) -> Workload:
    docs = inputs.solve_inputs(seed)
    (workdir / "solve_inputs.json").write_text(json.dumps([d for _, d in docs]))
    items = [{"tag": tag, "doc": doc, "problem": parse_config(doc)} for tag, doc in docs]
    return Workload(items, _solve, judge_solve, _solve_fingerprint, scalar_kernel,
                    SCALAR_KERNEL_MS)


# ----------------------------------------------------------------- verify


def verify_argv(path: Path, out: Path) -> list[str]:
    return ["verify", "--config", str(path), "--paths", str(inputs.VERIFY_PATHS),
            "--n-steps", str(inputs.VERIFY_STEPS), "--n-random", str(inputs.VERIFY_RANDOM),
            "--out", str(out)]


def _verify(item):
    out = item["out"]
    out.unlink(missing_ok=True)
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            rc = cli.main(item["argv"])
    except Exception as exc:
        return ("crash", repr(exc), "")
    return (rc, out.read_text(encoding="utf-8") if out.exists() else "", err.getvalue())


def _passes_at_another_seed(item) -> bool:
    """Whether verify passes with a fresh Monte-Carlo seed.  A correct config
    misses the 99% interval at two fixed seeds with probability 1e-4, while
    a bias of a few standard errors misses again."""
    with contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main([*item["argv"], "--seed", str(item["doc"]["solver"]["seed"] + 1)])
    return rc == 0


def judge_verify(item, result) -> Verdict:
    rc, report, err = result
    if rc == "crash":
        return Verdict("failed", f"exception {report}")
    if rc == 2:
        if "not a whole number of steps" in err:
            return Verdict("failed", "4b")
        return Verdict("failed", f"exit 2: {err.strip()}")
    try:
        doc = strict_json(report)
    except ValueError as exc:
        return Verdict("failed", f"report is not strict JSON: {exc}")
    if rc == 3:
        return Verdict("refused")
    if rc == 1:
        checks = (doc["expected_terminal_soc"]["ok"], doc["robust_feasibility"]["ok"],
                  doc["rearrangement"]["ok"])
        if checks == (False, True, True):
            law = item["doc"]["distribution"]
            if law["kind"] == "logistic" and law["mad"] > inputs.MAD_RANGES["calibrated"][1]:
                return Verdict("failed", "4a")
            e = doc["expected_terminal_soc"]
            z = abs(e["mc_mean_kwh"] - e["analytic_kwh"]) / (e["mc_half_width_kwh"] / Z99)
            if z < NOISE_Z and _passes_at_another_seed(item):
                return Verdict("failed", "mc99")
            return Verdict("failed", f"terminal SoC off by {z:.1f} standard errors")
        return Verdict("failed", f"exit 1 with checks {checks}")
    if rc != 0 or doc.get("ok") is not True:
        return Verdict("failed", f"exit {rc}")
    return Verdict("ok")


def verify_workload(seed: int, workdir: Path) -> Workload:
    items = []
    for i, (tag, doc) in enumerate(inputs.verify_inputs(seed)):
        path = workdir / f"verify_{i:02d}.json"
        path.write_text(json.dumps(doc, indent=1))
        out = workdir / f"verify_{i:02d}.out.json"
        items.append({"tag": tag, "doc": doc, "out": out, "argv": verify_argv(path, out)})
    return Workload(items, _verify, judge_verify, lambda r: r[:2], verify_kernel,
                    VERIFY_KERNEL_MS)


# -------------------------------------------------------------------- cli


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _cli(item):
    proc = subprocess.run([sys.executable, "-m", "fcrbid.cli", *item["argv"]],
                          cwd=item["cwd"], env=item["env"], capture_output=True,
                          text=True, timeout=120)
    return (proc.returncode, proc.stdout, proc.stderr)


def judge_cli(item, result) -> Verdict:
    rc, out, err = result
    expected = (item["expect"],) if item["expect"] else (0, 3)
    if "Traceback" in err:
        return Verdict("failed", "traceback on stderr")
    if rc not in expected or "NaN" in out or "Infinity" in out:
        if item["name"].startswith("invalid_non_finite"):
            return Verdict("failed", "4c")
        return Verdict("failed", f"exit {rc}, expected {item['expect']}")
    return Verdict("refused" if rc == 3 else "ok")


def cli_workload(seed: int, workdir: Path, root: Path) -> Workload:
    ops, files = inputs.cli_inputs(seed)
    for name, text in files.items():
        (workdir / name).write_text(text, encoding="utf-8")
    env = child_env(root)
    items = [{**op, "argv": [str(workdir / a) if a in files else a for a in op["argv"]],
              "cwd": workdir, "env": env} for op in ops]
    return Workload(items, _cli, judge_cli, lambda r: r[:2],
                    lambda: import_kernel(env, workdir), IMPORT_KERNEL_MS)


def build(name: str, seed: int, workdir: Path, root: Path) -> Workload:
    """Generate a workload's inputs from the seed and write them to workdir."""
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "solve":
        return solve_workload(seed, workdir)
    if name == "verify":
        return verify_workload(seed, workdir)
    return cli_workload(seed, workdir, root)


# ------------------------------------------------------------------- loop


@dataclass
class LoopResult:
    samples: list                           # (tag, scaled ms, status) per timed operation
    verdicts: dict                          # input index -> first Verdict
    mismatches: int
    kernel_ms: float                        # median calibration kernel time
    unscaled_ms_p50: float                  # median time of all operations, as measured


def run_loop(wl: Workload, seconds: float) -> LoopResult:
    """Closed loop over the inputs, for at least `seconds` and at least one
    full pass, so every input meets the gate in every run."""
    wl.run(wl.items[0])  # warm-up, neither timed nor judged
    first, samples, mismatches, kernel = {}, [], 0, []
    start = time.perf_counter()
    i = 0
    while i < len(wl.items) or time.perf_counter() - start < seconds:
        idx = i % len(wl.items)
        item = wl.items[idx]
        t0 = time.perf_counter_ns()
        result = wl.run(item)
        ms = (time.perf_counter_ns() - t0) / 1e6
        if idx not in first:
            first[idx] = (wl.fingerprint(result), wl.judge(item, result))
        fp, verdict = first[idx]
        if wl.fingerprint(result) != fp:
            verdict = Verdict("failed", "result differs between repeats")
            mismatches += 1
        samples.append((item["tag"], ms, verdict.status))
        kernel.append(time_ms(wl.calibrate))
        i += 1
    half = CAL_WINDOW // 2
    local = [statistics.median(kernel[max(0, j - half):j + half + 1]) for j in range(len(kernel))]
    scaled = [(tag, ms * wl.reference_ms / k, status)
              for (tag, ms, status), k in zip(samples, local)]
    return LoopResult(scaled, {k: v for k, (_, v) in first.items()}, mismatches,
                      statistics.median(kernel), statistics.median(ms for _, ms, _ in samples))


def time_ms(fn) -> float:
    t0 = time.perf_counter_ns()
    fn()
    return (time.perf_counter_ns() - t0) / 1e6


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it:
    (value, percentile, sample count).  Fewer than 11 samples give the max."""
    xs = sorted(values)
    n = len(xs)
    k = n - 10
    if k < 1:
        return xs[-1], 100.0, n
    return xs[k - 1], 100.0 * k / n, n


def end_to_end(res: LoopResult) -> tuple[dict, str]:
    """The end-to-end metrics of one loop, at the reference speed, and a
    note with the tail percentile and the unscaled times."""
    done = [(tag, ms) for tag, ms, status in res.samples if status != "failed"]
    ms_all = [ms for _, ms in done]
    value, pct, n = tail(ms_all)
    by_tag = lambda t: statistics.median([ms for tag, ms in done if tag == t])
    return {
        "ops_per_s": len(res.samples) / (sum(ms for _, ms, _ in res.samples) / 1e3),
        "op_ms_p50": statistics.median(ms_all),
        "op_ms_tail": value,
        "balanced_ms_p50": by_tag("balanced"),
        "unbalanced_ms_p50": by_tag("unbalanced"),
    }, (f"op_ms_tail is p{pct:.1f} of {n} completed operations; calibration kernel "
        f"median {res.kernel_ms:.4g} ms; unscaled median of all operations "
        f"{res.unscaled_ms_p50:.4g} ms")
