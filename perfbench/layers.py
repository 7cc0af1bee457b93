"""The traced run: spans and counters around the package's layers.

Spans are recorded by wrapping public functions where the calling module
looks them up (for example `fcrbid.solver.max_feasible_bid`), and calls
are counted by wrapping the public `DeviationDistribution.scdf`;
`sample_with` gets a span.  Every wrapper lives here and only for the traced run;
nothing is added to the package.  Spans stay in memory; a span's self
time is its duration minus the named child spans.

The layer pass makes one traced pass over the distinct inputs of every
workload (the same seeded inputs as the timed runs), plus direct probes
for per-call costs.  The pass is fixed in size, so the count metrics
repeat exactly for a seed.
"""

from __future__ import annotations

import contextlib
import functools
import io
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

import numpy as np

import fcrbid.cli
import fcrbid.feasible
import fcrbid.purchase
import fcrbid.simulate
import fcrbid.solver
from fcrbid.distributions import DeviationDistribution
from fcrbid.feasible import context_for, max_feasible_bid
from fcrbid.ingest import (fit_logistic, normalize_frequency, read_frequency_csv,
                           read_price_csv, reduce_prices)
from fcrbid.purchase import purchase_power, purchase_power_many

import inputs

LAWS = inputs.LAWS
CLI_COMMANDS = ("solve", "analytic", "bounds", "profit", "sweep-slope", "simulate", "fit")
PROBE_REPS = 5


class Span:
    __slots__ = ("name", "parent", "t0", "t1", "scdf", "note", "ok")

    @property
    def ms(self) -> float:
        return (self.t1 - self.t0) / 1e6


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.calls = Counter()
        self._stack: list[int] = []
        self._undo = []

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def count(self, attr: str):
        original = getattr(DeviationDistribution, attr)
        calls = self.calls

        @functools.wraps(original)
        def counted(dist, *args, **kwargs):
            calls[attr] += 1
            return original(dist, *args, **kwargs)
        self._patch(DeviationDistribution, attr, counted)

    def span(self, owner, attr: str, name: str, note=None):
        """Wrap owner.attr in a span; `note` keeps a small fact about the result."""
        original = getattr(owner, attr)
        spans, stack, calls = self.spans, self._stack, self.calls

        @functools.wraps(original)
        def traced(*args, **kwargs):
            s = Span()
            s.name, s.parent, s.note, s.ok = name, stack[-1] if stack else -1, None, False
            s.scdf = calls["scdf"]
            stack.append(len(spans))
            spans.append(s)
            s.t0 = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
                s.ok = True
                if note is not None:
                    s.note = note(result)
                return result
            finally:
                s.t1 = time.perf_counter_ns()
                s.scdf = calls["scdf"] - s.scdf
                stack.pop()
        self._patch(owner, attr, traced)

    def close(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def install() -> Tracer:
    """Wrap every layer boundary the per-layer metrics read."""
    t = Tracer()
    t.count("scdf")
    t.span(DeviationDistribution, "sample_with", "distributions.sample_with")
    t.span(fcrbid.purchase, "asymptotic_slope", "purchase.asymptotic_slope")
    t.span(fcrbid.feasible, "purchase_power", "feasible.purchase_power")
    for attr in ("solve_inelastic", "solve_elastic"):
        t.span(fcrbid.solver, attr, "solver.solve")
        t.span(fcrbid.cli, attr, "cli.solve")
    for attr in ("context_for", "max_feasible_bid", "purchase_power", "purchase_slopes",
                 "_solve_with_ratio"):
        t.span(fcrbid.solver, attr, f"solver.{attr}")
    t.span(fcrbid.cli, "main", "cli.main")
    t.span(fcrbid.cli, "load_config", "config.load_config")
    t.span(fcrbid.cli, "mc_expected_terminal_soc", "simulate.mc")
    t.span(fcrbid.cli, "check_robust_feasibility", "simulate.feasibility",
           note=lambda report: report.n_signals)
    return t


def _children(spans, lo, hi, parent):
    return [s for s in spans[lo:hi] if s.parent == parent]


# ------------------------------------------------------------- per workload


def _solve_layers(t: Tracer, wl) -> dict:
    per_solve = {"balanced": [], "unbalanced": []}
    mfb_ms = {"balanced": [], "unbalanced": []}
    mfb_scdf, pp_us, pp_scdf, slopes_us, slope_us, select_self = [], [], [], [], [], []
    candidates, refused = Counter(), 0
    for item in wl.items:
        lo = len(t.spans)
        sol = wl.run(item)
        hi = len(t.spans)
        tag = item["tag"]
        root = next(i for i in range(lo, hi) if t.spans[i].name == "solver.solve")
        rs = t.spans[root]
        per_solve[tag].append(rs.scdf)
        if not rs.ok:
            refused += 1
            continue
        candidates[sol.candidate] += 1
        window = t.spans[lo:hi]
        mfb = [s for s in window if s.name == "solver.max_feasible_bid"]
        mfb_ms[tag] += [s.ms for s in mfb]
        slope_us += [s.ms * 1e3 for s in window if s.name == "purchase.asymptotic_slope"]
        if tag == "unbalanced":
            mfb_scdf += [s.scdf for s in mfb]
            pps = [s for s in window if s.name == "feasible.purchase_power"]
            pp_us += [s.ms * 1e3 for s in pps]
            pp_scdf += [s.scdf for s in pps]
        if sol.candidate == "stationary":
            slopes_us += [s.ms * 1e3 for s in window if s.name == "solver.purchase_slopes"]
        direct = _children(t.spans, lo, hi, root)
        excluded = sum(s.ms for s in direct if s.name in (
            "solver.context_for", "solver.purchase_power"))
        select_self.append(rs.ms - excluded - sum(s.ms for s in mfb))
    n = len(wl.items)
    solved = n - refused
    out = {
        f"distributions.scdf_calls_per_solve.{k}": statistics.fmean(v)
        for k, v in per_solve.items()
    }
    out.update({
        "purchase.asymptotic_slope_us": statistics.median(slope_us),
        "purchase.purchase_power_us.unbalanced": statistics.median(pp_us),
        "purchase.scdf_calls_per_purchase_power": statistics.fmean(pp_scdf),
        "purchase.purchase_slopes_us": statistics.median(slopes_us),
        "feasible.max_feasible_bid_ms.balanced": statistics.median(mfb_ms["balanced"]),
        "feasible.max_feasible_bid_ms.unbalanced": statistics.median(mfb_ms["unbalanced"]),
        "feasible.scdf_calls_per_max_feasible_bid": statistics.fmean(mfb_scdf),
        "solver.select_self_ms": statistics.median(select_self),
        "solver.refused_share": refused / n,
    })
    for cand in ("zero", "boundary", "stationary"):
        out[f"solver.candidate_share.{cand}"] = candidates[cand] / solved if solved else 0.0
    return out


def _verify_layers(t: Tracer, wl) -> dict:
    mc_ms, mc_sample_ms, feas_ms, feas_signals, self_ms = defaultdict(list), [], [], [], []
    for item in wl.items:
        lo = len(t.spans)
        wl.run(item)
        hi = len(t.spans)
        root = next(i for i in range(lo, hi) if t.spans[i].name == "cli.main")
        direct = _children(t.spans, lo, hi, root)
        law = item["doc"]["distribution"]["kind"]
        for i in range(lo, hi):
            s = t.spans[i]
            if s.name == "simulate.mc" and s.ok:
                mc_ms[law].append(s.ms)
                mc_sample_ms.append(sum(c.ms for c in _children(t.spans, i, hi, i)
                                        if c.name == "distributions.sample_with"))
            elif s.name == "simulate.feasibility" and s.ok:
                feas_ms.append(s.ms)
                feas_signals.append(s.note)
        if all(s.ok for s in direct) and any(s.name == "simulate.feasibility" for s in direct):
            self_ms.append(t.spans[root].ms - sum(
                s.ms for s in direct
                if s.name in ("cli.solve", "simulate.mc", "simulate.feasibility")))
    mc_all = [ms for v in mc_ms.values() for ms in v]
    out = {f"simulate.mc_ms.{law}": statistics.median(mc_ms[law]) for law in LAWS}
    out.update({
        "simulate.mc_path_steps_per_s":
            len(mc_all) * inputs.VERIFY_PATHS * inputs.VERIFY_STEPS / (sum(mc_all) / 1e3),
        "simulate.mc_sample_share": sum(mc_sample_ms) / sum(mc_all),
        "simulate.feasibility_ms": statistics.median(feas_ms),
        "simulate.feasibility_signals_per_s": sum(feas_signals) / (sum(feas_ms) / 1e3),
        "cli.verify_self_ms": statistics.median(self_ms),
    })
    return out


def _cli_layers(t: Tracer, wl) -> dict:
    inproc = defaultdict(list)
    out_path = wl.items[0]["cwd"] / "inproc.out"
    with contextlib.redirect_stderr(io.StringIO()):
        for _ in range(3):
            for item in wl.items:
                t0 = time.perf_counter_ns()
                rc = fcrbid.cli.main([*item["argv"], "--out", str(out_path)])
                if item["expect"] == 0 and rc == 0:
                    inproc[item["name"]].append((time.perf_counter_ns() - t0) / 1e6)
    load_ms = [s.ms for s in t.spans if s.name == "config.load_config" and s.ok]
    out = {f"cli.inproc_ms.{cmd}": statistics.median(inproc[cmd]) for cmd in CLI_COMMANDS}
    out["config.load_ms"] = statistics.median(load_ms)
    return out


# ------------------------------------------------------------------ probes


def _time_ns(fn, reps=PROBE_REPS) -> float:
    runs = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        fn()
        runs.append(time.perf_counter_ns() - t0)
    return statistics.median(runs)


def _first_of_law(items, law):
    return next(it for it in items if it["doc"]["distribution"]["kind"] == law)


def probes(seed, solve_wl, cli_wl, root) -> dict:
    """Per-call costs timed directly, with no wrapper installed."""
    rng = np.random.default_rng([seed, 9])
    zs = [float(z) for z in rng.uniform(-1.2, 1.2, 2000)]
    out = {}
    for law in LAWS:
        dist = _first_of_law(solve_wl.items, law)["problem"].distribution
        out[f"distributions.scdf_ns_per_call.{law}"] = _time_ns(
            lambda: [dist.scdf(z) for z in zs]) / len(zs)
        shape = (fcrbid.simulate.CHUNK, inputs.VERIFY_STEPS)
        gen = np.random.default_rng([seed, 10])
        out[f"distributions.sample_ns_per_draw.{law}"] = _time_ns(
            lambda: dist.sample_with(gen, shape)) / (shape[0] * shape[1])

    scalar, many = [], []
    unbalanced = [it for it in solve_wl.items
                  if it["tag"] == "unbalanced" and it["problem"].prices.mode == "inelastic"]
    for item in unbalanced[:8]:
        p = item["problem"]
        ctx = context_for(p.battery, p.contract, p.distribution)
        grid = np.linspace(0.0, max_feasible_bid(p.battery, p.contract, ctx),
                           inputs.BOUNDS_GRID)
        scalar.append(_time_ns(lambda: [purchase_power(x, ctx) for x in grid], 3) / 1e6)
        many.append(_time_ns(lambda: purchase_power_many(grid, ctx), 3) / 1e6)
    out["purchase.bounds_curve_ms.scalar"] = statistics.median(scalar)
    out["purchase.bounds_curve_ms.many"] = statistics.median(many)

    cwd = cli_wl.items[0]["cwd"]
    fs = read_frequency_csv(cwd / "freq.csv")
    read_ns = _time_ns(lambda: read_frequency_csv(cwd / "freq.csv"), 3)
    out["ingest.read_frequency_rows_per_s"] = fs.nu.size / (read_ns / 1e9)
    out["ingest.fit_ms"] = _time_ns(lambda: (
        fit_logistic(normalize_frequency(fs), mad_cap=0.2,
                     samples_per_day=round(24.0 / fs.dt_h)),
        reduce_prices(read_price_csv(cwd / "prices.csv")))) / 1e6

    env = cli_wl.items[0]["env"]
    bare = _child_ms(["-c", "pass"], env, root)
    out["cli.interpreter_ms"] = bare
    out["cli.import_ms"] = _child_ms(["-c", "import fcrbid"], env, root) - bare
    return out


def _child_ms(args, env, root) -> float:
    return _time_ns(lambda: subprocess.run([sys.executable, *args], env=env, cwd=root,
                                           check=True, timeout=60)) / 1e6


def layer_pass(seed, built: dict, root) -> dict:
    """All per-layer metrics, from fixed traced passes and direct probes."""
    out = probes(seed, built["solve"], built["cli"], root)
    tracer = install()
    try:
        out.update(_solve_layers(tracer, built["solve"]))
        out.update(_verify_layers(tracer, built["verify"]))
        out.update(_cli_layers(tracer, built["cli"]))
    finally:
        tracer.close()
    return out
