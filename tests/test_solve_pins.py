"""Pinned ``solve`` outputs: a regression guard on the bits.

Every row is the README battery under one law, SoC target and price set,
with the float.hex values of (xr, xb, objective, xr_max) and the winning
candidate.  A change that moves bits on purpose regenerates the table with

    PYTHONPATH=src python tests/test_solve_pins.py

pastes the printed ``PINNED`` over the one below, and names every row that
moved, with the reason, in CHANGES.md.
"""

import random

import pytest

from fcrbid import (
    BatterySpec,
    EfficiencyPair,
    MarketPrices,
    RegulationContract,
    empirical,
    logistic,
    solve,
    three_point_upper,
    two_point_lower,
)
from test_purchase import count_law_calls


def seeded_samples(seed: int, n: int) -> list[float]:
    """n uniform deviations on [-0.3, 0.3] from the standard library's
    generator, whose stream does not depend on the NumPy version."""
    rng = random.Random(seed)
    return [rng.uniform(-0.3, 0.3) for _ in range(n)]


LAWS = {
    "logistic(0.0816)": logistic(0.0816),
    "two_point_lower(0.3)": two_point_lower(0.3),
    "three_point_upper(0.3)": three_point_upper(0.3),
    "empirical(seed 7)": empirical(seeded_samples(7, 32)),
}
PRICES = {
    "cr 0.9": MarketPrices(cb=5.1, cr=0.9),
    "cr 0.2": MarketPrices(cb=5.1, cr=0.2),
    "cr 0.02": MarketPrices(cb=5.1, cr=0.02),
    "affine": MarketPrices(mode="elastic", cb0=5.1, cbd=0.01, ca0=0.02, cad=0.005),
}
TARGETS = (14.0, 20.0, 26.0)
CONTRACT = RegulationContract(horizon_h=12.0, budget_h=2.4)


def pinned_row(law: str, target: float, prices: str) -> tuple:
    bat = BatterySpec(60.0, 18.0, 15.0, 20.0, target, EfficiencyPair(0.9, 0.8))
    sol = solve(bat, CONTRACT, PRICES[prices], LAWS[law])
    return (*(v.hex() for v in (sol.xr_kw, sol.xb_kw, sol.objective_cts, sol.xr_max_kw)),
            sol.candidate)


PINNED = {
    ('logistic(0.0816)', 14.0, 'cr 0.9'):
        ('0x1.305ec056c02d2p+2', '-0x1.8759543fbb2b4p-2', '-0x1.2b01b65e97aa0p+6', '0x1.305ec056c02d2p+2', 'boundary'),
    ('logistic(0.0816)', 14.0, 'cr 0.2'):
        ('0x1.305ec056c02d2p+2', '-0x1.8759543fbb2b4p-2', '-0x1.166cbc6218be4p+5', '0x1.305ec056c02d2p+2', 'boundary'),
    ('logistic(0.0816)', 14.0, 'cr 0.02'):
        ('0x1.3f0fd70c1f68ep+1', '-0x1.96e29d532a94ap-2', '-0x1.8ea7e5369c8a2p+4', '0x1.305ec056c02d2p+2', 'stationary'),
    ('logistic(0.0816)', 14.0, 'affine'):
        ('0x1.803a495e2e826p+0', '-0x1.9953b24e95e70p-2', '-0x1.8ab683c94475ap+4', '0x1.305ec056c02d2p+2', 'stationary'),
    ('logistic(0.0816)', 20.0, 'cr 0.9'):
        ('0x1.b0770d6681629p+2', '0x1.7318aef5adf82p-4', '-0x1.0dbc2f638209ap+6', '0x1.b0770d6681629p+2', 'boundary'),
    ('logistic(0.0816)', 20.0, 'cr 0.2'):
        ('0x1.b0770d6681629p+2', '0x1.7318aef5adf82p-4', '-0x1.55870fa0bdaeep+3', '0x1.b0770d6681629p+2', 'boundary'),
    ('logistic(0.0816)', 20.0, 'cr 0.02'):
        ('0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x1.b0770d6681629p+2', 'zero'),
    ('logistic(0.0816)', 20.0, 'affine'):
        ('0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x1.b0770d6681629p+2', 'zero'),
    ('logistic(0.0816)', 26.0, 'cr 0.9'):
        ('0x1.d09813aff5f95p+2', '0x1.2f6b482a5a754p-1', '-0x1.510eb72b725d4p+5', '0x1.d09813aff5f95p+2', 'boundary'),
    ('logistic(0.0816)', 26.0, 'cr 0.2'):
        ('0x1.d09813aff5f95p+2', '0x1.2f6b482a5a754p-1', '0x1.2d88549a9fd10p+4', '0x1.d09813aff5f95p+2', 'boundary'),
    ('logistic(0.0816)', 26.0, 'cr 0.02'):
        ('0x1.8441bdae8f8fcp+1', '0x1.1df7da8f912f4p-1', '0x1.0ba21aa2300a1p+5', '0x1.d09813aff5f95p+2', 'stationary'),
    ('logistic(0.0816)', 26.0, 'affine'):
        ('0x1.b3d45e27a961ep+0', '0x1.1c85afdb40731p-1', '0x1.0e7e4a43fe5ffp+5', '0x1.d09813aff5f95p+2', 'stationary'),
    ('two_point_lower(0.3)', 14.0, 'cr 0.9'):
        ('0x1.6f96f96f96f97p+2', '-0x1.7a17a17a17a17p-3', '-0x1.255121deeabb8p+6', '0x1.6f96f96f96f97p+2', 'boundary'),
    ('two_point_lower(0.3)', 14.0, 'cr 0.2'):
        ('0x1.5555555555555p+0', '-0x1.9999999999998p-2', '-0x1.bae147ae147acp+4', '0x1.6f96f96f96f97p+2', 'stationary'),
    ('two_point_lower(0.3)', 14.0, 'cr 0.02'):
        ('0x1.5555555555555p+0', '-0x1.9999999999998p-2', '-0x1.8ccccccccccccp+4', '0x1.6f96f96f96f97p+2', 'stationary'),
    ('two_point_lower(0.3)', 14.0, 'affine'):
        ('0x1.5555555555555p+0', '-0x1.9999999999998p-2', '-0x1.8ac94008bcf64p+4', '0x1.6f96f96f96f97p+2', 'stationary'),
    ('two_point_lower(0.3)', 20.0, 'cr 0.9'):
        ('0x1.c092e1bf52699p+2', '0x1.5e83714a7bee7p-2', '-0x1.b5fc3e9778cd6p+5', '0x1.c092e1bf52699p+2', 'boundary'),
    ('two_point_lower(0.3)', 20.0, 'cr 0.2'):
        ('0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x1.c092e1bf52699p+2', 'zero'),
    ('two_point_lower(0.3)', 20.0, 'cr 0.02'):
        ('0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x1.c092e1bf52699p+2', 'zero'),
    ('two_point_lower(0.3)', 20.0, 'affine'):
        ('0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x1.c092e1bf52699p+2', 'zero'),
    ('two_point_lower(0.3)', 26.0, 'cr 0.9'):
        ('0x1.dfde9e25f8e80p+2', '0x1.a99f9bda71eabp-1', '-0x1.e1a49dbb262eap+4', '0x1.dfde9e25f8e80p+2', 'boundary'),
    ('two_point_lower(0.3)', 26.0, 'cr 0.2'):
        ('0x1.da12f684bda12p+0', '0x1.1c71c71c71c71p-1', '0x1.d8e38e38e38e2p+4', '0x1.dfde9e25f8e80p+2', 'stationary'),
    ('two_point_lower(0.3)', 26.0, 'cr 0.02'):
        ('0x1.da12f684bda12p+0', '0x1.1c71c71c71c71p-1', '0x1.0c71c71c71c70p+5', '0x1.dfde9e25f8e80p+2', 'stationary'),
    ('two_point_lower(0.3)', 26.0, 'affine'):
        ('0x1.da12f684bda12p+0', '0x1.1c71c71c71c71p-1', '0x1.0e63075fde49ap+5', '0x1.dfde9e25f8e80p+2', 'stationary'),
    ('three_point_upper(0.3)', 14.0, 'cr 0.9'):
        ('0x1.77546bb182f76p+2', '-0x1.488e5fd431488p-3', '-0x1.249ecd58fbe4bp+6', '0x1.77546bb182f76p+2', 'boundary'),
    ('three_point_upper(0.3)', 14.0, 'cr 0.2'):
        ('0x1.9999999999999p-2', '-0x1.9999999999999p-2', '-0x1.970a3d70a3d70p+4', '0x1.77546bb182f76p+2', 'stationary'),
    ('three_point_upper(0.3)', 14.0, 'cr 0.02'):
        ('0x1.9999999999999p-2', '-0x1.9999999999999p-2', '-0x1.89374bc6a7ef8p+4', '0x1.77546bb182f76p+2', 'stationary'),
    ('three_point_upper(0.3)', 14.0, 'affine'):
        ('0x1.9999999999999p-2', '-0x1.9999999999999p-2', '-0x1.88c154c985f06p+4', '0x1.77546bb182f76p+2', 'stationary'),
    ('three_point_upper(0.3)', 20.0, 'cr 0.9'):
        ('0x1.c38e38e38e38ep+2', '0x1.8e38e38e38e39p-2', '-0x1.a333333333332p+5', '0x1.c38e38e38e38ep+2', 'boundary'),
    ('three_point_upper(0.3)', 20.0, 'cr 0.2'):
        ('0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x1.c38e38e38e38ep+2', 'zero'),
    ('three_point_upper(0.3)', 20.0, 'cr 0.02'):
        ('0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x1.c38e38e38e38ep+2', 'zero'),
    ('three_point_upper(0.3)', 20.0, 'affine'):
        ('0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x1.c38e38e38e38ep+2', 'zero'),
    ('three_point_upper(0.3)', 26.0, 'cr 0.9'):
        ('0x1.e71c71c71c71cp+2', '0x1.e38e38e38e38ep-1', '-0x1.8666666666666p+4', '0x1.e71c71c71c71cp+2', 'boundary'),
    ('three_point_upper(0.3)', 26.0, 'cr 0.2'):
        ('0x1.1c71c71c71c72p-1', '0x1.1c71c71c71c71p-1', '0x1.0555555555554p+5', '0x1.e71c71c71c71cp+2', 'stationary'),
    ('three_point_upper(0.3)', 26.0, 'cr 0.02'):
        ('0x1.1c71c71c71c72p-1', '0x1.1c71c71c71c71p-1', '0x1.0eeeeeeeeeeeep+5', '0x1.e71c71c71c71cp+2', 'stationary'),
    ('three_point_upper(0.3)', 26.0, 'affine'):
        ('0x1.1c71c71c71c72p-1', '0x1.1c71c71c71c71p-1', '0x1.0f60b60b60b5fp+5', '0x1.e71c71c71c71cp+2', 'stationary'),
    ('empirical(seed 7)', 14.0, 'cr 0.9'):
        ('0x1.400d5f857e1e2p+2', '-0x1.552a8a108e8e6p-2', '-0x1.2998657baa68dp+6', '0x1.400d5f857e1e2p+2', 'boundary'),
    ('empirical(seed 7)', 14.0, 'cr 0.2'):
        ('0x1.400d5f857e1e2p+2', '-0x1.552a8a108e8e6p-2', '-0x1.0322c044c3984p+5', '0x1.400d5f857e1e2p+2', 'boundary'),
    ('empirical(seed 7)', 14.0, 'cr 0.02'):
        ('0x1.7d04752572810p+0', '-0x1.99675d41fcac4p-2', '-0x1.8d3526228ab22p+4', '0x1.400d5f857e1e2p+2', 'stationary'),
    ('empirical(seed 7)', 14.0, 'affine'):
        ('0x1.6659f2fc81ae4p+0', '-0x1.999999999999ap-2', '-0x1.8addf2793bbc5p+4', '0x1.400d5f857e1e2p+2', 'stationary'),
    ('empirical(seed 7)', 20.0, 'cr 0.9'):
        ('0x1.b5d55d5e19366p+2', '0x1.6556566dd177dp-3', '-0x1.f9a633c8c78fap+5', '0x1.b5d55d5e19366p+2', 'boundary'),
    ('empirical(seed 7)', 20.0, 'cr 0.2'):
        ('0x1.b5d55d5e19366p+2', '0x1.6556566dd177dp-3', '-0x1.6f648dfc9be72p+2', '0x1.b5d55d5e19366p+2', 'boundary'),
    ('empirical(seed 7)', 20.0, 'cr 0.02'):
        ('0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x1.b5d55d5e19366p+2', 'zero'),
    ('empirical(seed 7)', 20.0, 'affine'):
        ('0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x1.b5d55d5e19366p+2', 'zero'),
    ('empirical(seed 7)', 26.0, 'cr 0.9'):
        ('0x1.d555f88ab839dp+2', '0x1.555a6f006c794p-1', '-0x1.332f2efc77608p+5', '0x1.d555f88ab839dp+2', 'boundary'),
    ('empirical(seed 7)', 26.0, 'cr 0.2'):
        ('0x1.d555f88ab839dp+2', '0x1.555a6f006c794p-1', '0x1.733c925d941ecp+4', '0x1.d555f88ab839dp+2', 'boundary'),
    ('empirical(seed 7)', 26.0, 'cr 0.02'):
        ('0x1.05805940e1e51p+1', '0x1.1c90f1efde880p-1', '0x1.0c31a37414ed5p+5', '0x1.d555f88ab839dp+2', 'stationary'),
    ('empirical(seed 7)', 26.0, 'affine'):
        ('0x1.f1b5d17b25e3cp+0', '0x1.1c71c71c71c71p-1', '0x1.0e60b6f80b0ecp+5', '0x1.d555f88ab839dp+2', 'stationary'),
}


@pytest.mark.filterwarnings("ignore:mean absolute deviation exceeds")
@pytest.mark.parametrize("key", sorted(PINNED), ids=lambda key: "/".join(map(str, key)))
def test_solve_outputs_are_pinned(key):
    assert pinned_row(*key) == PINNED[key]


def test_every_problem_is_pinned():
    assert set(PINNED) == {(law, t, p) for law in LAWS for t in TARGETS for p in PRICES}


@pytest.mark.filterwarnings("ignore:mean absolute deviation exceeds")
def test_pinned_problems_do_not_make_more_law_evaluations(monkeypatch):
    """The 48 pinned solves make at most 992 law evaluations (``scdf_cdf``
    calls), the count once the purchase point took its slopes from the
    inverse's last Newton step; a second evaluation per point breaks it."""
    calls = count_law_calls(monkeypatch)
    for key in PINNED:
        pinned_row(*key)
    assert len(calls) <= 992


if __name__ == "__main__":
    import warnings

    warnings.simplefilter("ignore")
    print("PINNED = {")
    for law in LAWS:
        for target in TARGETS:
            for prices in PRICES:
                print(f"    {(law, target, prices)!r}:\n        {pinned_row(law, target, prices)!r},")
    print("}")
