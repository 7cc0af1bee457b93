"""The benchmark's traced run (perfbench/layers.py) wraps package functions
where their callers look them up, by name.  A refactor that drops one of
those names must fail here rather than break `perfbench/run.py --trace 1`."""

from pathlib import Path

import fcrbid.cli
import fcrbid.feasible
import fcrbid.purchase
import fcrbid.simulate
import fcrbid.solver
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
