"""The benchmark's traced run (perfbench/layers.py) wraps package functions
where their callers look them up, by name, and its workloads
(perfbench/workloads.py) import and read package names.  A refactor that
drops one of those names must fail here rather than break `perfbench/run.py`."""

from pathlib import Path

import pytest

import fcrbid.cli
import fcrbid.feasible
import fcrbid.purchase
import fcrbid.simulate
import fcrbid.solver
from fcrbid.config import parse_config
from fcrbid.distributions import DeviationDistribution

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
OWNERS = (fcrbid.cli, fcrbid.feasible, fcrbid.purchase, fcrbid.simulate, fcrbid.solver,
          DeviationDistribution)


def _attributes():
    return {(owner, name): value for owner in OWNERS for name, value in vars(owner).items()}


def test_tracer_wraps_and_restores_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    before = _attributes()
    tracer = layers.install()
    try:
        during = _attributes()
    finally:
        tracer.close()
    wrapped = {key for key, value in during.items() if value is not before[key]}
    assert {(fcrbid.solver, "solve_inelastic"), (fcrbid.solver, "solve_elastic"),
            (fcrbid.solver, "_solve_with_ratio"), (fcrbid.cli, "solve_inelastic"),
            (fcrbid.cli, "solve_elastic"), (DeviationDistribution, "scdf"),
            (fcrbid.feasible, "purchase_power"), (fcrbid.solver, "max_feasible_bid"),
            (fcrbid.solver, "purchase_power"), (fcrbid.solver, "purchase_slopes")} <= wrapped
    for key in wrapped:
        assert during[key].__wrapped__ is before[key]
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


@pytest.mark.filterwarnings("ignore:mean absolute deviation exceeds the activation ratio")
def test_benchmark_solve_runs_and_judges(monkeypatch):
    """The benchmark's `solve` operation and gate run on the first 8 seed-1
    inputs, both price models among them.  They call and read package names
    (solve_elastic, purchase_power_many, MarketPrices.mode, .cb, ...) that a
    refactor must keep."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import inputs
    import workloads

    items = [{"tag": tag, "doc": doc, "problem": parse_config(doc)}
             for tag, doc in inputs.solve_inputs(1)[:8]]
    assert {item["problem"].prices.mode for item in items} == {"inelastic", "elastic"}
    for item in items:
        assert workloads.judge_solve(item, workloads._solve(item)).status == "ok"
