"""Weighted plane measure with kernel |y - x|^(gamma-1) in one dimension.

Pairs (x, y) with x < y are parametrised as (x, h) with h = y - x > 0, so
the measure of a set A in the quarter-plane is the integral of
h^(gamma-1) over A.  The gamma-dependence lives entirely in the exact
per-box mass ``kernel_mass``; closed forms for the three calibration
regions (triangle, curved hypograph, axis-aligned slab) are used as test
oracles throughout and the midpoint/corner quadrature ``nu_quadrature_oracle``
provides an independent two-sided check for arbitrary indicator regions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GammaParam",
    "as_gamma",
    "Enclosure",
    "PlaneBox",
    "kernel_mass",
    "nu_triangle",
    "nu_curved",
    "nu_slab",
    "nu_quadrature_oracle",
    "triangle_indicator",
    "curved_indicator",
]


@dataclass(frozen=True)
class GammaParam:
    """Validated kernel exponent, required strictly positive."""

    value: float

    def __post_init__(self):
        v = float(self.value)
        if not (math.isfinite(v) and v > 0.0):
            raise ValueError(f"gamma must be a finite positive number, got {self.value!r}")
        object.__setattr__(self, "value", v)

    def __float__(self) -> float:
        return self.value


def as_gamma(gamma) -> float:
    """Coerce a float or GammaParam to a validated positive float."""
    if isinstance(gamma, GammaParam):
        return gamma.value
    return GammaParam(float(gamma)).value


@dataclass(frozen=True)
class Enclosure:
    """Closed interval [lo, hi] certified to contain a quantity.

    ``tol_met`` records whether the producing computation reached its
    requested width; an enclosure is valid either way.  The ends are held
    as Python floats and the flag as a Python bool.
    """

    lo: float
    hi: float
    tol_met: bool = True

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        object.__setattr__(self, "tol_met", bool(self.tol_met))
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo <= self.hi):
            raise ValueError(f"invalid enclosure [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, value: float, slack: float = 0.0) -> bool:
        return self.lo - slack <= value <= self.hi + slack

    def overlaps(self, other: "Enclosure") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def scaled(self, factor: float) -> "Enclosure":
        if factor < 0:
            raise ValueError("enclosure scaling must be nonnegative")
        return Enclosure(factor * self.lo, factor * self.hi, self.tol_met)


@dataclass(frozen=True)
class PlaneBox:
    """Axis-aligned box in (x, h) coordinates, h strictly increasing from >= 0."""

    x_interval: tuple[float, float]
    h_interval: tuple[float, float]

    def __post_init__(self):
        x0, x1 = (float(self.x_interval[0]), float(self.x_interval[1]))
        h0, h1 = (float(self.h_interval[0]), float(self.h_interval[1]))
        if not (math.isfinite(x0) and math.isfinite(x1) and x0 <= x1):
            raise ValueError(f"bad x interval {self.x_interval}")
        if not (math.isfinite(h0) and math.isfinite(h1) and 0.0 <= h0 < h1):
            raise ValueError(f"bad h interval {self.h_interval}; need 0 <= h_lo < h_hi")
        object.__setattr__(self, "x_interval", (x0, x1))
        object.__setattr__(self, "h_interval", (h0, h1))


def kernel_mass(box: PlaneBox, gamma) -> float:
    """Exact measure of a box: (x1 - x0) * (h1^gamma - h0^gamma) / gamma."""
    g = as_gamma(gamma)
    (x0, x1), (h0, h1) = box.x_interval, box.h_interval
    return (x1 - x0) * (h1**g - h0**g) / g


# ---------------------------------------------------------------------------
# Closed-form calibration regions
# ---------------------------------------------------------------------------


def nu_triangle(delta: float, gamma) -> float:
    """Kernel mass of the pairs straddling a point at separations < delta.

    The set is {(x, y): s - delta < x < s < y < x + delta}; in (x, h)
    coordinates its x extent at height h is h itself, so the mass is
    the integral of h^gamma, i.e. delta^(1+gamma) / (1+gamma).
    """
    g = as_gamma(gamma)
    if not (delta >= 0 and math.isfinite(delta)):
        raise ValueError("delta must be a finite nonnegative number")
    return delta ** (1.0 + g) / (1.0 + g)


def nu_curved(r: float, gamma) -> float:
    """Measure of the curved hypograph used by the staircase gadgets.

    The region is the set of pairs x < 0 < y with y - x below the
    threshold curve (y)^(1/(1+gamma)) * r^(gamma/(1+gamma)), restricted to
    -r < x and y < r.  Its closed form is gamma * r^(1+gamma)
    / ((1+2 gamma) (1+gamma)).
    """
    g = as_gamma(gamma)
    if not (r >= 0 and math.isfinite(r)):
        raise ValueError("r must be a finite nonnegative number")
    return g * r ** (1.0 + g) / ((1.0 + 2.0 * g) * (1.0 + g))


def nu_slab(x_interval: tuple[float, float], h_interval: tuple[float, float], gamma) -> float:
    """Measure of an axis-aligned slab; thin named wrapper over kernel_mass."""
    return kernel_mass(PlaneBox(x_interval, h_interval), gamma)


# ---------------------------------------------------------------------------
# Independent quadrature oracle
# ---------------------------------------------------------------------------


def triangle_indicator(delta: float):
    """Indicator of the straddle triangle of nu_triangle, centred at 0.

    In (x, h) coordinates: -delta < x < 0 < x + h and h < delta.  A
    bounding box is (-delta, 0) x (0, delta).
    """

    def ind(x, h):
        return (x < 0.0) & (x + h > 0.0) & (h < delta)

    return ind


def curved_indicator(r: float, gamma):
    """Indicator of the curved hypograph in (x, h) coordinates."""
    g = as_gamma(gamma)
    scale = r ** (g / (1.0 + g))

    def ind(x, h):
        y = x + h
        inside = (x > -r) & (x < 0.0) & (y > 0.0) & (y < r)
        return inside & (h < scale * np.where(y > 0.0, y, 0.0) ** (1.0 / (1.0 + g)))

    return ind


def nu_quadrature_oracle(indicator, box: PlaneBox, gamma, n: int = 512) -> Enclosure:
    """Two-sided quadrature estimate of the measure of a region in a box.

    The box is cut into an n-by-n grid; each cell is probed at a 3x3
    stencil (corners, edge midpoints, center).  A cell with all nine
    probes inside contributes its exact kernel mass to both bounds; a
    cell with any probe inside contributes to the upper bound only.  For
    regions whose boundary is a graph over one axis this brackets the
    true measure up to boundary cells, which shrink like 1/n.
    """
    g = as_gamma(gamma)
    if n < 1:
        raise ValueError("n must be at least 1")
    (x0, x1), (h0, h1) = box.x_interval, box.h_interval
    xs = np.linspace(x0, x1, 2 * n + 1)
    hs = np.linspace(h0, h1, 2 * n + 1)
    probe = indicator(xs[:, None], hs[None, :])
    if probe.shape != (2 * n + 1, 2 * n + 1):
        raise ValueError("indicator must broadcast over its grid arguments")

    all_in = np.ones((n, n), dtype=bool)
    any_in = np.zeros((n, n), dtype=bool)
    for di in range(3):
        for dj in range(3):
            sub = probe[di::2, dj::2][:n, :n]
            all_in &= sub
            any_in |= sub

    # Exact mass of each cell, separable in x and h.
    wx = np.diff(xs[::2])
    hpow = hs[::2] ** g / g
    wh = np.diff(hpow)
    cell_mass = wx[:, None] * wh[None, :]
    lo = float(np.sum(cell_mass, where=all_in))
    hi = float(np.sum(cell_mass, where=any_in))
    return Enclosure(lo, max(lo, hi))
