"""Symmetric deviation distributions and their super-cumulative functions.

The regulation signal is modelled as a stationary random deviation on
[-1, 1], symmetric about zero.  Every family exposes the cumulative
distribution function, its antiderivative anchored at -1 (the
super-cumulative distribution function, ``scdf``) and seeded sampling.
``cdf`` and ``scdf`` take a float; sampling returns arrays.  The
mean absolute deviation ``mad`` acts as the single shape parameter; all
families satisfy mad = 2 * scdf(0).

Supported families
------------------
logistic
    F(z) = 1 / (1 + exp(-theta z)) with theta = 2 ln 2 / mad.  The support
    is unbounded, so scdf(-1) is not exactly zero; the truncation error
    exp(-theta)/theta is negligible for realistic mad (about 2.5e-9 at
    mad = 0.0816).  Samples are clipped to [-1, 1].
two_point_lower
    Mass 1/2 at -mad and +mad.  Among symmetric distributions on [-1, 1]
    with the given mad this minimises the scdf pointwise.
three_point_upper
    Mass mad/2 at -1 and +1 and mass 1 - mad at 0; maximises the scdf
    pointwise.
empirical
    Step CDF built from a sample, symmetrised by reflecting every value
    about zero.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import TYPE_CHECKING

from .errors import DegenerateSignalError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "DeviationDistribution",
    "logistic",
    "two_point_lower",
    "three_point_upper",
    "empirical",
    "build_distribution",
]

_LN2 = math.log(2.0)


def _sigmoid(t: float) -> float:
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


@dataclass(frozen=True, eq=False)
class DeviationDistribution:
    """A symmetric deviation distribution on [-1, 1].

    Build instances through the module factories (:func:`logistic`,
    :func:`two_point_lower`, :func:`three_point_upper`, :func:`empirical`,
    or :func:`build_distribution`).  ``theta`` is set for the logistic
    family only; the discrete families carry their support and masses.
    """

    kind: str
    mad: float
    theta: float | None = None
    # Discrete machinery, as float tuples: atom locations (ascending) and the
    # zero-padded prefix sums of mass and of mass * location.  They make the
    # scdf one binary search; the mass sums are the sampler's inverse CDF.
    _tables: tuple | None = field(default=None, repr=False)

    @property
    def is_discrete(self) -> bool:
        return self.theta is None

    def cdf(self, z: float) -> float:
        """Right-continuous CDF."""
        if self.theta is not None:
            return _sigmoid(self.theta * float(z))
        return self._tables[1][bisect_right(self._tables[0], float(z))]

    def cdf_pair(self, z: float) -> tuple[float, float]:
        """Left and right limits of the CDF at ``z`` (equal when continuous)."""
        if self.theta is not None:
            v = self.cdf(float(z))
            return v, v
        z = float(z)
        locs, cum, _ = self._tables
        return cum[bisect_left(locs, z)], cum[bisect_right(locs, z)]

    def scdf(self, z: float) -> float:
        """Antiderivative of the CDF with scdf(-1) = 0.

        Convex, nondecreasing, and equal to max(0, z) outside the support.
        Satisfies the symmetry identity scdf(z) = scdf(-z) + z.
        """
        z = float(z)
        if self.theta is not None:
            th = self.theta
            if z > 0.0:
                return z + math.log1p(math.exp(-th * z)) / th
            return math.log1p(math.exp(th * z)) / th
        locs, cum, cum_wx = self._tables
        k = bisect_right(locs, z)
        return cum[k] * z - cum_wx[k]

    def sample(self, seed, n: int) -> np.ndarray:
        """Draw ``n`` iid deviations with a fresh generator seeded by ``seed``."""
        import numpy as np
        return self.sample_with(np.random.default_rng(seed), n)

    def sample_with(self, rng: np.random.Generator, size, f=None) -> np.ndarray:
        """Draw deviations from an existing generator (shape ``size``) and
        return ``f(draws)``, the draws by default.  A discrete law applies
        ``f`` to its atoms once and gathers by atom index, which equals ``f``
        per draw bit for bit when ``f`` acts element by element."""
        import numpy as np
        u = rng.random(size)
        if self.theta is not None:
            with np.errstate(divide="ignore"):
                draw = np.clip(np.log(u / (1.0 - u)) / self.theta, -1.0, 1.0)
            return draw if f is None else f(draw)
        locs, edges, scale, guide = self._guide
        i = guide[(u * scale).astype(np.intp)]
        while (step := edges[i] <= u).any():
            i += step
        return (locs if f is None else f(locs))[i]

    @cached_property
    def _guide(self) -> tuple:
        """A discrete law's indexed search (Chen & Asau 1974): the atoms, the
        upper mass edges with the last at infinity, a power of two M at most
        2**16 and the atom index at each u = j / M.  u * M is exact, so the
        lookup gives min(searchsorted(cum[1:], u, "right"), K - 1); a cell is
        at most half the least mass wide, so it moves up at most one atom."""
        import numpy as np
        locs, cum, _ = self._tables
        least = min(b - a for a, b in zip(cum, cum[1:]))
        scale = 2.0 ** (2 - math.frexp(max(least, 2.0 ** -15))[1])
        edges = np.array((*cum[1:-1], math.inf))
        guide = np.searchsorted(edges, np.arange(scale) / scale, "right")
        return np.asarray(locs), edges, scale, guide


def _check_mad(mad: float) -> float:
    mad = float(mad)
    if not 0.0 < mad <= 1.0:
        raise ValueError(f"mean absolute deviation must lie in (0, 1], got {mad}")
    return mad


def _discrete(kind: str, mad: float, locs, mass) -> DeviationDistribution:
    atoms = [(float(z), float(w)) for z, w in zip(locs, mass) if w > 0.0]
    cum = (0.0, *accumulate(w for _, w in atoms))
    cum_wx = (0.0, *accumulate(w * z for z, w in atoms))
    return DeviationDistribution(kind, mad, _tables=(tuple(z for z, _ in atoms), cum, cum_wx))


def logistic(mad: float) -> DeviationDistribution:
    """Logistic deviation law calibrated to the given mean absolute deviation."""
    mad = _check_mad(mad)
    theta = 2.0 * _LN2 / mad
    if theta == math.inf:
        raise ValueError(f"mean absolute deviation {mad} is too small for the logistic law: "
                         "its scale 2 ln 2 / mad overflows")
    return DeviationDistribution("logistic", mad, theta=theta)


def two_point_lower(mad: float) -> DeviationDistribution:
    """Two-point law (mass 1/2 at -mad and +mad); pointwise scdf minimiser."""
    mad = _check_mad(mad)
    return _discrete("two_point_lower", mad, [-mad, mad], [0.5, 0.5])


def three_point_upper(mad: float) -> DeviationDistribution:
    """Three-point law (mad/2 at -1 and +1, rest at 0); pointwise scdf maximiser."""
    mad = _check_mad(mad)
    return _discrete(
        "three_point_upper", mad, [-1.0, 0.0, 1.0], [mad / 2.0, 1.0 - mad, mad / 2.0]
    )


def empirical(samples) -> DeviationDistribution:
    """Symmetrised empirical distribution of observed deviations.

    The sample is reflected about zero so the result is exactly symmetric;
    this leaves the mean absolute deviation unchanged.  Values must lie in
    [-1, 1].
    """
    import numpy as np
    arr = np.asarray(samples, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("empirical distribution needs at least one sample")
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples must be finite")
    if arr.min() < -1.0 or arr.max() > 1.0:
        raise ValueError("samples must lie in [-1, 1]")
    mad = float(np.mean(np.abs(arr)))
    if mad == 0.0:
        raise DegenerateSignalError("all deviations are zero; nothing to model")
    locs, counts = np.unique(np.concatenate((arr, -arr)), return_counts=True)
    mass = counts / (2.0 * arr.size)
    return _discrete("empirical", mad, locs, mass)


# The laws set by their mean absolute deviation alone, by kind.
MAD_LAWS = {"logistic": logistic, "two_point_lower": two_point_lower,
            "three_point_upper": three_point_upper}


def build_distribution(kind: str, mad: float | None = None, samples=None) -> DeviationDistribution:
    """Factory used by configuration loading."""
    if kind in MAD_LAWS:
        return MAD_LAWS[kind](mad)
    if kind == "empirical":
        if samples is None:
            raise ValueError("empirical distribution requires samples")
        return empirical(samples)
    raise ValueError(f"unknown distribution kind {kind!r}")
