"""Certified enclosures for the exceedance functional of 1D BV functions.

For a kernel exponent gamma > 0 and a threshold slope lam > 0, the
functional evaluated here is

    F(u) = 2 * lam * nu(E),
    E = {(x, h) : h > 0, |u(x + h) - u(x)| > lam * h^(1 + gamma)},

where nu integrates h^(gamma - 1) dx dh (see :mod:`nugamma.numeasure`).
The factor 2 accounts for ordered pairs x > y, which contribute the same
mass by symmetry.

The computation is a branch-and-bound over axis-aligned boxes in the
(x, h) plane.  For each box we certify an upper and a lower bound on the
pair increment |u(x + h) - u(x)|; comparing these against the threshold
at the box's h-extremes classifies the box as fully inside E, fully
outside, or mixed.  Mixed boxes are bisected, the split point on the
h axis chosen so that both children carry equal kernel mass.  Inside
mass accumulates into the enclosure's lower end; unresolved mass widens
the upper end.  All boxes of a run live in flat numpy arrays, so many
sections (as used by the N-dimensional sectioning estimator) refine in
the same vectorised wave.

All bounds here err on the safe side: upper pair bounds only ever
over-estimate and lower pair bounds under-estimate, so the returned
interval is a true enclosure regardless of whether the width target was
reached (the ``tol_met`` flag records that separately).

A function made of jumps only (every line section of a set's indicator,
for instance) skips the refinement: its exceedance set is a union of
trapezoid slabs, one per run of consecutive jumps, whose kernel mass has
a closed form.  :func:`_jump_sections_F` evaluates it with outward
rounding, so those enclosures are about 1e-14 wide relative to the value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

import numpy as np

from .bvmodel import (
    BVFunction1D,
    CantorPiece,
    JumpPiece,
    PolynomialProfile,
    ShapedRamp,
    SmoothPiece,
    _SHAPE_CODE,
    _shape_deriv,
    _shape_unit,
    cantor_eval_array,
)
from .numeasure import Enclosure, PlaneBox, as_gamma

__all__ = [
    "ZeroVariationError",
    "ExceedanceQuery",
    "BoxVerdict",
    "truncation_radius",
    "classify_box",
    "pair_increment_bounds",
    "measure_exceedance",
    "F_value",
    "f_enclosures_batch",
    "closed_form_jump_F",
    "DEFAULT_TOL_SCALE",
]

#: Relative scale of the default enclosure width target; the absolute
#: default is DEFAULT_TOL_SCALE * max(1, jump-only functional value).
DEFAULT_TOL_SCALE = 1e-4

#: Boxes classified per vectorised slice; bounds peak memory.
_WAVE_CHUNK = 1 << 16

#: Hard cap on simultaneously alive boxes.  Beyond it the smallest-mass
#: boxes are retired into the enclosure's slack instead of splitting.
_WAVE_CAP = 3_000_000

#: Outward/inward safety nudge, in normalized-coordinate units, applied
#: before staircase evaluations so float rounding cannot flip a certified
#: bound across a point of increase.
_TNUDGE = 5e-15

_LOG3 = math.log(3.0)

_EPS = float(np.finfo(float).eps)

#: Float error of one ramp mass in :func:`_ramp_mass`, in units of eps
#: times the sum of its terms' magnitudes.  Each term takes a power (at
#: most 4 ulp in numpy's SIMD kernels), a product and a division; the
#: two additions add two rounding steps.  That is about 7 eps; 16 leaves
#: a margin.
_RAMP_ERR = 16.0


class ZeroVariationError(ValueError):
    """Raised when a computation needs a nonconstant function."""


class BoxVerdict(Enum):
    INSIDE = "inside"
    OUTSIDE = "outside"
    MIXED = "mixed"


@dataclass(frozen=True)
class ExceedanceQuery:
    """Parameters of one functional evaluation.

    ``tol`` is the requested enclosure width in functional units (after
    the 2 * lam scaling); None picks a default proportional to the size
    of the function.  ``max_depth`` caps bisection depth per box.
    """

    gamma: float
    lam: float
    tol: float | None = None
    max_depth: int = 40

    def __post_init__(self):
        object.__setattr__(self, "gamma", as_gamma(self.gamma))
        lam = float(self.lam)
        if not (math.isfinite(lam) and lam > 0.0):
            raise ValueError(f"lam must be a finite positive number, got {self.lam!r}")
        object.__setattr__(self, "lam", lam)
        if self.tol is not None:
            t = float(self.tol)
            if not (math.isfinite(t) and t > 0.0):
                raise ValueError(f"tol must be positive when given, got {self.tol!r}")
            object.__setattr__(self, "tol", t)
        if int(self.max_depth) < 1:
            raise ValueError("max_depth must be at least 1")
        object.__setattr__(self, "max_depth", int(self.max_depth))


def truncation_radius(variation, lam: float, gamma) -> float:
    """Pair separation beyond which no pair can exceed the threshold.

    For |u(y) - u(x)| <= V the exceedance condition fails whenever
    h >= (V / lam)^(1 / (1 + gamma)).  Accepts the total variation as a
    number or any object with a ``total_variation`` attribute.
    """
    g = as_gamma(gamma)
    v = getattr(variation, "total_variation", variation)
    v = float(v)
    if not (math.isfinite(v) and v >= 0.0):
        raise ValueError("variation must be finite and nonnegative")
    if v == 0.0:
        raise ZeroVariationError("constant function: no exceedance pairs at any scale")
    lam = float(lam)
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError("lam must be a finite positive number")
    return (v / lam) ** (1.0 / (1.0 + g))


def closed_form_jump_F(height: float, gamma) -> float:
    """Functional value of a single jump: 2 |height| / (1 + gamma).

    Independent of lam: the exceedance set of a jump is the triangle of
    pairs straddling it below the cutoff separation, whose weighted mass
    scales exactly like 1 / lam.
    """
    g = as_gamma(gamma)
    return 2.0 * abs(float(height)) / (1.0 + g)


# ---------------------------------------------------------------------------
# Batched piece tables
# ---------------------------------------------------------------------------


def _polyval_grid(coef: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Evaluate polynomials with trailing-axis coefficients on a grid.

    ``coef`` has shape (..., D) and ``t`` shape (..., M) sharing the
    leading axes; the result has the shape of ``t``.
    """
    r = np.zeros_like(t)
    for k in range(coef.shape[-1] - 1, -1, -1):
        r = r * t + coef[..., k, None]
    return r


def _table(rows, fill, dtype=float, tail=()) -> np.ndarray:
    """Stack ragged per-section rows into one array padded with ``fill``.

    ``rows[i]`` lists section i's entries, so the result has shape
    (len(rows), longest row, *tail).  With a ``tail`` every entry is a
    sequence no longer than tail[0], padded the same way.
    """
    out = np.full((len(rows), max(map(len, rows), default=0), *tail), fill, dtype=dtype)
    if out.size:
        for i, row in enumerate(rows):
            if tail:
                for k, v in enumerate(row):
                    out[i, k, : len(v)] = v
            else:
                out[i, : len(row)] = row
    return out


class _Batch:
    """Padded struct-of-arrays view of several functions' pieces.

    Sections with different piece counts are padded with inert slots
    (zero rise, zero height, far-away features) so a whole wave of boxes
    indexes the tables with plain fancy indexing.

    Locations are stored relative to each section's ``origin``, the start
    of its derivative support, so the support is [0, supp_w].  Boxes then
    live near 0, and splitting resolves the same scales wherever the
    function sits on the line; F is translation invariant.
    """

    def __init__(self, funcs: Sequence[BVFunction1D]):
        self.S = len(funcs)
        jumps: list[list[JumpPiece]] = []
        shaped: list[list[SmoothPiece]] = []
        cantor: list[list[CantorPiece]] = []
        poly: list[list[SmoothPiece]] = []
        feats: list[list[float]] = []
        jump_only: list[bool] = []
        hulls = []
        for u in funcs:
            js, sh, ca, po = [], [], [], []
            ft: list[float] = []
            for p in u.pieces:
                if isinstance(p, JumpPiece):
                    js.append(p)
                    ft.append(p.location)
                    continue
                ft.extend(p.support)
                if isinstance(p, CantorPiece):
                    ca.append(p)
                elif isinstance(p.profile, ShapedRamp):
                    sh.append(p)
                else:
                    po.append(p)
                    a, b = p.support
                    ft.extend(a + c * (b - a) for c in p.profile.crit)
            jumps.append(js)
            jump_only.append(len(js) == len(u.pieces))
            shaped.append(sh)
            cantor.append(ca)
            poly.append(po)
            feats.append(ft)
            hulls.append(u.derivative_support() or (0.0, 0.0))
        # Sections whose pieces are all jumps (constant ones included)
        # are evaluated in closed form from jloc/jh instead of refined.
        self.jump_only = np.array(jump_only, dtype=bool)
        self.tv = np.array([u.total_variation for u in funcs], dtype=float)
        supp = np.array(hulls, dtype=float).reshape(-1, 2)
        self.origin = supp[:, 0]
        self.supp_w = supp[:, 1] - supp[:, 0]

        def rows(groups, get):
            return [[get(p) for p in v] for v in groups]

        self.jloc = _table(rows(jumps, lambda p: p.location), np.inf)
        self.jh = _table(rows(jumps, lambda p: p.height), 0.0)

        self.sa = _table(rows(shaped, lambda p: p.support[0]), 0.0)
        self.sb = _table(rows(shaped, lambda p: p.support[1]), 1.0)
        self.srise = _table(rows(shaped, lambda p: p.profile.rise), 0.0)
        self.scode = _table(rows(shaped, lambda p: _SHAPE_CODE[p.profile.shape]), 0, np.int8)
        # Non-affine ramps have varying slope, so boxes overlapping them
        # benefit from x-refinement (localising the derivative window).
        self.svar = _table(rows(shaped, lambda p: p.profile.shape != "affine"), False, bool)

        self.ca = _table(rows(cantor, lambda p: p.support[0]), 0.0)
        self.cb = _table(rows(cantor, lambda p: p.support[1]), 1.0)
        self.crise = _table(rows(cantor, lambda p: p.rise), 0.0)

        profs = [p.profile for v in poly for p in v]
        D = max((len(q.coeffs) for q in profs), default=1)
        C = max((len(q.crit) for q in profs), default=0)
        C2 = max((len(q.dcrit) for q in profs), default=0)
        self.pa = _table(rows(poly, lambda p: p.support[0]), 0.0)
        self.pb = _table(rows(poly, lambda p: p.support[1]), 1.0)
        self.pcoef = _table(rows(poly, lambda p: p.profile.coeffs), 0.0, tail=(D,))
        der = rows(poly, lambda p: [k * c for k, c in enumerate(p.profile.coeffs)][1:])
        self.pder = _table(der, 0.0, tail=(D,))
        self.pcrit = _table(rows(poly, lambda p: p.profile.crit), np.nan, tail=(C,))
        self.pdcrit = _table(rows(poly, lambda p: p.profile.dcrit), np.nan, tail=(C2,))
        self.pvar = (self.pder[..., 1:] != 0.0).any(axis=-1)

        self.feat = _table(feats, np.inf)
        self.Kj, self.Ks, self.Kc, self.Kp, self.Kf = (
            t.shape[1] for t in (self.jloc, self.sa, self.ca, self.pa, self.feat)
        )

        o = self.origin[:, None]
        for t in (self.jloc, self.sa, self.sb, self.ca, self.cb, self.pa, self.pb, self.feat):
            t -= o


# ---------------------------------------------------------------------------
# Certified pair-increment bounds over a wave of boxes
# ---------------------------------------------------------------------------


def _holder_cap(r: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Staircase increment cap over windows of normalized length tau.

    A window of length tau <= 3^-k meets at most two triadic intervals
    of level k, each carrying staircase increment 2^-k, so the increment
    is at most 2 * 2^-k with k = floor(log3(1/tau)), taken a hair small
    to absorb log rounding.
    """
    out = np.where(tau >= 1.0, r, 0.0)
    m = (tau > 0.0) & (tau < 1.0)
    if m.any():
        k = np.floor(-np.log(tau[m]) / _LOG3 - 1e-12)
        k = np.maximum(k, 0.0)
        out[m] = r[m] * np.minimum(2.0 * np.exp2(-k), 1.0)
    return out


def _add_signed(LU, s, low, up):
    """Add the pieces' signed increment intervals to the rows of ``LU``.

    ``low`` and ``up`` bound each piece's |increment| over a box and
    ``s`` is the piece's direction on the pair span (only its sign is
    read).  An increasing piece moves by [low, up], a decreasing one by
    [-up, -low], and one not known to be monotone (s = 0) by [-up, up].
    """
    LU[0] += np.where(s > 0, low, -up).sum(axis=1)
    LU[1] += np.where(s < 0, -low, up).sum(axis=1)


def _wave_bounds(B: _Batch, sid, x0, x1, h0, h1):
    """Upper/lower bounds on |u(x+h) - u(x)| over each box, plus two
    flags telling the splitter what x-structure the box's pair span
    holds: point features (jump locations, support ends, interior
    extrema) versus smooth slope variation.

    Each piece bounds its own |increment| over the box's pairs from
    above by the smaller of its oscillation over the span [x0, x1 + h1]
    and a window cap (slope, or triadic for staircase pieces) using that
    pair separations never exceed h1; jumps count whenever some pair can
    straddle them.  From below it is bounded by the jumps that every
    pair straddles, the piece increment over the core interval
    [x1, x0 + h0] that every pair's window contains, and the minimum
    pair increment at the shortest separation h0.  The lower bound only
    holds for a piece monotone on the span, whose direction then turns
    the two magnitudes into a signed interval for its increment (see
    :func:`_add_signed`).  The increment of u lies in the sum [L, U] of
    these intervals, so |u(x+h) - u(x)| lies in
    [max(0, L, -U), max(U, -L)]: same-direction pieces add, and opposite
    ones cancel, e.g. two opposite jumps that every pair straddles.
    """
    W = x0.size
    span_hi = x1 + h1
    core_lo = x1
    core_hi = x0 + h0
    core_ok = core_hi > core_lo
    win_hi = x1 + h0

    LU = np.zeros((2, W))
    xfeat = np.zeros(W, dtype=bool)
    xsmooth = np.zeros(W, dtype=bool)

    if B.Kf:
        f = B.feat[sid]
        xfeat |= ((f > x0[:, None]) & (f < span_hi[:, None])).any(axis=1)

    if B.Kj:
        jl = B.jloc[sid]
        jh = B.jh[sid]
        ja = np.abs(jh)
        poss = (x0[:, None] < jl) & (jl <= span_hi[:, None])
        always = (core_lo[:, None] < jl) & (jl <= core_hi[:, None])
        _add_signed(LU, jh, np.where(always, ja, 0.0), np.where(poss, ja, 0.0))

    if B.Ks:
        a = B.sa[sid]
        b = B.sb[sid]
        w = b - a
        rise = B.srise[sid]
        code = B.scode[sid]
        xsmooth |= (
            B.svar[sid] & (a < span_hi[:, None]) & (b > x0[:, None])
        ).any(axis=1)
        t0 = np.clip((x0[:, None] - a) / w, 0.0, 1.0)
        t1 = np.clip((span_hi[:, None] - a) / w, 0.0, 1.0)
        osc = np.abs(rise) * (_shape_unit(code, t1) - _shape_unit(code, t0))
        ov = np.minimum(span_hi[:, None], b) - np.maximum(x0[:, None], a)
        win = np.minimum(h1[:, None], np.maximum(ov, 0.0))
        # Local slope cap: the unit derivative is unimodal, so its max
        # over the span's t range sits at an end or at the clamped peak.
        tm = np.clip(0.5, t0, t1)
        smax = np.maximum(
            np.maximum(_shape_deriv(code, t0), _shape_deriv(code, t1)),
            _shape_deriv(code, tm),
        )
        up_i = np.minimum(osc, np.abs(rise) * smax / w * win)
        tc0 = np.clip((core_lo[:, None] - a) / w, 0.0, 1.0)
        tc1 = np.clip((core_hi[:, None] - a) / w, 0.0, 1.0)
        inc = np.abs(rise) * (_shape_unit(code, tc1) - _shape_unit(code, tc0))
        inc = np.where(core_ok[:, None], np.maximum(inc, 0.0), 0.0)
        # Exact minimum pair increment at separation h0: the clipped
        # profile is monotone with a unimodal extended derivative, so
        # x -> F(x + h0) - F(x) is quasi-concave and attains its minimum
        # at an end of the box's x range.  Two evaluations certify it.
        th0 = np.clip(((x0 + h0)[:, None] - a) / w, 0.0, 1.0)
        tx1 = np.clip((x1[:, None] - a) / w, 0.0, 1.0)
        tw1 = np.clip((win_hi[:, None] - a) / w, 0.0, 1.0)
        inc_lo = _shape_unit(code, th0) - _shape_unit(code, t0)
        inc_hi = _shape_unit(code, tw1) - _shape_unit(code, tx1)
        dwin = np.abs(rise) * np.minimum(inc_lo, inc_hi)
        # Multiplicative floor for the same minimum: h0 times the least
        # slope over the window hull (at a hull end, the derivative
        # being unimodal).  The endpoint differences above quantise to
        # zero once h0 drops below one ulp of the x coordinates; this
        # product form cannot, so thin boxes deep inside the exceedance
        # region still certify.  Valid only for unclipped windows.
        win_in = (x0[:, None] >= a) & (win_hi[:, None] <= b) & (h0 > 0.0)[:, None]
        smin = np.minimum(_shape_deriv(code, t0), _shape_deriv(code, tw1))
        dmul = np.where(win_in, np.abs(rise) * (h0[:, None] / w) * smin, 0.0)
        _add_signed(LU, rise, np.maximum(inc, np.maximum(dwin, dmul)), up_i)

    if B.Kc:
        a = B.ca[sid]
        b = B.cb[sid]
        w = b - a
        crise = B.crise[sid]
        r = np.abs(crise)
        xfeat |= ((r > 0.0) & (a < span_hi[:, None]) & (b > x0[:, None])).any(axis=1)
        ts0 = np.clip((x0[:, None] - a) / w - _TNUDGE, 0.0, 1.0)
        ts1 = np.clip((span_hi[:, None] - a) / w + _TNUDGE, 0.0, 1.0)
        tc0 = np.clip((core_lo[:, None] - a) / w + _TNUDGE, 0.0, 1.0)
        tc1 = np.clip((core_hi[:, None] - a) / w - _TNUDGE, 0.0, 1.0)
        cv = cantor_eval_array(np.stack([ts0, ts1, tc0, tc1]))
        osc = r * np.maximum(cv[1] - cv[0], 0.0)
        ov = np.minimum(span_hi[:, None], b) - np.maximum(x0[:, None], a)
        tau = np.minimum(h1[:, None], np.maximum(ov, 0.0)) / w
        inc = np.where(core_ok[:, None], r * np.maximum(cv[3] - cv[2], 0.0), 0.0)
        _add_signed(LU, crise, inc, np.minimum(osc, _holder_cap(r, tau)))

    if B.Kp:
        a = B.pa[sid]
        b = B.pb[sid]
        w = b - a
        coef = B.pcoef[sid]
        der = B.pder[sid]
        crit = B.pcrit[sid]
        dcrit = B.pdcrit[sid]
        xsmooth |= (
            B.pvar[sid] & (a < span_hi[:, None]) & (b > x0[:, None])
        ).any(axis=1)
        t0 = np.clip((x0[:, None] - a) / w, 0.0, 1.0)
        t1 = np.clip((span_hi[:, None] - a) / w, 0.0, 1.0)
        cmask = np.isfinite(crit) & (crit > t0[..., None]) & (crit < t1[..., None])
        tcand = np.concatenate(
            [t0[..., None], t1[..., None], np.where(cmask, crit, t0[..., None])],
            axis=-1,
        )
        vals = _polyval_grid(coef, tcand)
        osc = vals.max(axis=-1) - vals.min(axis=-1)
        ov = np.minimum(span_hi[:, None], b) - np.maximum(x0[:, None], a)
        win = np.minimum(h1[:, None], np.maximum(ov, 0.0))
        # Local slope cap over the span's t range: |P'| peaks at an end
        # or at an inflection point inside it.
        smask = np.isfinite(dcrit) & (dcrit > t0[..., None]) & (dcrit < t1[..., None])
        scand = np.concatenate(
            [t0[..., None], t1[..., None], np.where(smask, dcrit, t0[..., None])],
            axis=-1,
        )
        smax = np.abs(_polyval_grid(der, scand)).max(axis=-1)
        up_i = np.minimum(osc, smax / w * win)
        # With an extremum inside the span the piece is not monotone
        # there, so its lower bounds below are discarded.
        direction = np.where(cmask.any(axis=-1), 0.0, vals[..., 1] - vals[..., 0])
        tc = np.stack(
            [
                np.clip((core_lo[:, None] - a) / w, 0.0, 1.0),
                np.clip((core_hi[:, None] - a) / w, 0.0, 1.0),
            ],
            axis=-1,
        )
        vc = _polyval_grid(coef, tc)
        inc = np.where(core_ok[:, None], np.abs(vc[..., 1] - vc[..., 0]), 0.0)
        tw1 = np.clip((win_hi[:, None] - a) / w, 0.0, 1.0)
        dmask = np.isfinite(dcrit) & (dcrit > t0[..., None]) & (dcrit < tw1[..., None])
        dcand = np.concatenate(
            [t0[..., None], tw1[..., None], np.where(dmask, dcrit, t0[..., None])],
            axis=-1,
        )
        dvals = np.abs(_polyval_grid(der, dcand))
        dmin = dvals.min(axis=-1)
        win_in = (x0[:, None] >= a) & (win_hi[:, None] <= b) & (h0 > 0.0)[:, None]
        dwin = np.where(win_in, h0[:, None] * dmin / w, 0.0)
        # With no inflection point in the window hull the derivative is
        # monotone there, so x -> P(x + h0) - P(x) is too and its minimum
        # sits at an end of the x range.  That beats the min-slope
        # product whenever the slope varies across the hull.
        tg = np.stack(
            [
                t0,
                np.clip(((x0 + h0)[:, None] - a) / w, 0.0, 1.0),
                np.clip((x1[:, None] - a) / w, 0.0, 1.0),
                tw1,
            ],
            axis=-1,
        )
        gv = _polyval_grid(coef, tg)
        ginc = np.minimum(
            np.abs(gv[..., 1] - gv[..., 0]), np.abs(gv[..., 3] - gv[..., 2])
        )
        gwin = np.where(win_in & ~dmask.any(axis=-1), ginc, 0.0)
        _add_signed(LU, direction, np.maximum(inc, np.maximum(dwin, gwin)), up_i)

    L, U = LU
    low = np.maximum(np.maximum(L, -U), 0.0)
    return np.maximum(U, -L), low, xfeat, xsmooth


# ---------------------------------------------------------------------------
# Wave-based branch and bound
# ---------------------------------------------------------------------------


def _split_wave(B, gamma, lam, tol_nu, max_depth, rows):
    """Run the refinement for the sections ``rows`` of a batch at once.

    Returns arrays (lo, slack, tol_met) over all sections of the batch,
    in kernel-measure units: the certified enclosure of a refined section
    is [lo, lo + slack].  Sections not in ``rows`` get no boxes and read
    (0, 0, True).
    """
    S = B.S
    g = gamma
    lo_acc = np.zeros(S)
    stuck = np.zeros(S)
    frozen_extra = np.zeros(S)
    frozen = np.zeros(S, dtype=bool)

    # Root boxes: beyond separation H nothing exceeds, and pairs moving u
    # must touch the derivative support.  H is padded a hair to absorb
    # rounding in the power.
    H = (B.tv[rows] / lam) ** (1.0 / (1.0 + g)) * (1.0 + 1e-12)
    x0 = -H
    x1 = B.supp_w[rows]
    h0 = np.zeros(rows.size)
    h1 = H.copy()
    sid = rows
    depth = np.zeros(rows.size, dtype=np.int32)

    while x0.size:
        W = x0.size
        up = np.empty(W)
        low = np.empty(W)
        xfeat = np.empty(W, dtype=bool)
        xsmooth = np.empty(W, dtype=bool)
        for i in range(0, W, _WAVE_CHUNK):
            sl = slice(i, min(i + _WAVE_CHUNK, W))
            up[sl], low[sl], xfeat[sl], xsmooth[sl] = _wave_bounds(
                B, sid[sl], x0[sl], x1[sl], h0[sl], h1[sl]
            )
        thr_lo = lam * h0 ** (1.0 + g)
        thr_hi = lam * h1 ** (1.0 + g)
        outside = up <= thr_lo
        inside = ~outside & (low > thr_hi)
        mass = (x1 - x0) * (h1**g - h0**g) / g
        if inside.any():
            lo_acc += np.bincount(sid[inside], weights=mass[inside], minlength=S)
        mixed = ~outside & ~inside
        gap = np.bincount(sid[mixed], weights=mass[mixed], minlength=S)
        rem = gap + stuck
        freeze_now = ~frozen & (rem <= tol_nu)
        if freeze_now.any():
            frozen_extra = np.where(freeze_now, rem, frozen_extra)
            frozen = frozen | freeze_now

        keep = mixed & ~frozen[sid]
        splittable = keep & (depth < max_depth)
        capped = keep & ~splittable
        if capped.any():
            stuck += np.bincount(sid[capped], weights=mass[capped], minlength=S)
        idx = np.nonzero(splittable)[0]
        if idx.size == 0:
            break
        if 2 * idx.size > _WAVE_CAP:
            order = np.argsort(-mass[idx], kind="stable")
            keep_n = _WAVE_CAP // 2
            dropped = idx[order[keep_n:]]
            stuck += np.bincount(sid[dropped], weights=mass[dropped], minlength=S)
            idx = np.sort(idx[order[:keep_n]])

        bx0, bx1 = x0[idx], x1[idx]
        bh0, bh1 = h0[idx], h1[idx]
        xm = 0.5 * (bx0 + bx1)
        with np.errstate(divide="ignore", invalid="ignore"):
            hk = (0.5 * (bh0**g + bh1**g)) ** (1.0 / g)
        hm = np.where(bh0 == 0.0, bh1 * 2.0 ** (-1.0 / g), hk)
        ha = 0.5 * (bh0 + bh1)
        hm = np.where((hm > bh0) & (hm < bh1), hm, ha)
        ok_x = (xm > bx0) & (xm < bx1)
        ok_h = (hm > bh0) & (hm < bh1)
        bxw = bx1 - bx0
        bhw = bh1 - bh0
        # Point features (jumps, support ends, interior extrema) pay off
        # at any h, so split toward them while x is the wider side.
        # Slope variation only matters relative to the support scale,
        # and tightening the h band is relative to its own height, so
        # those boxes compare the two improvement ratios instead.
        want_x = (xfeat[idx] & (bxw >= bhw)) | (
            xsmooth[idx] & (bxw * bh1 >= bhw * B.supp_w[sid[idx]])
        )
        do_x = (want_x & ok_x) | (~ok_h & ok_x)
        do_h = ~do_x & ok_h
        dead = ~do_x & ~do_h
        if dead.any():
            jd = idx[dead]
            stuck += np.bincount(sid[jd], weights=mass[jd], minlength=S)

        xi = np.nonzero(do_x)[0]
        hi_ = np.nonzero(do_h)[0]
        nx0 = np.concatenate([bx0[xi], xm[xi], bx0[hi_], bx0[hi_]])
        nx1 = np.concatenate([xm[xi], bx1[xi], bx1[hi_], bx1[hi_]])
        nh0 = np.concatenate([bh0[xi], bh0[xi], bh0[hi_], hm[hi_]])
        nh1 = np.concatenate([bh1[xi], bh1[xi], hm[hi_], bh1[hi_]])
        par = np.concatenate([idx[xi], idx[xi], idx[hi_], idx[hi_]])
        nsid = sid[par]
        ndepth = depth[par] + 1
        x0, x1, h0, h1, sid, depth = nx0, nx1, nh0, nh1, nsid, ndepth
        # Free this wave's arrays before the next, larger wave allocates
        # its own; the deepest waves set the run's peak memory.
        del up, low, xfeat, xsmooth, thr_lo, thr_hi, outside, inside, mass
        del mixed, keep, splittable, capped, idx, bx0, bx1, bh0, bh1, xm, hk
        del hm, ha, ok_x, ok_h, bxw, bhw, want_x, do_x, do_h, dead, xi, hi_, par

    slack = np.where(frozen, frozen_extra, stuck)
    tol_met = frozen | (stuck <= tol_nu)
    return lo_acc, slack, tol_met


# ---------------------------------------------------------------------------
# Closed form for jump-only sections
# ---------------------------------------------------------------------------


def _widen(v, r):
    """Outward float bracket of [v - r, v + r], clipped at 0 from below.

    Where r is 0, v is exact and is returned as both ends.
    """
    lo = np.where(r > 0, np.maximum(np.nextafter(v - r, -np.inf), 0.0), v)
    hi = np.where(r > 0, np.nextafter(v + r, np.inf), v)
    return lo, hi


def _gap(a, b):
    """Bracket of the true distance between jumps stored at a >= b.

    A stored location is the section's location minus its origin,
    rounded, so it is off by at most u times its magnitude, and the
    difference rounds once more; 4u (|a| + |b|) covers all three.  A gap
    to an end sentinel or a padded slot is +inf.
    """
    with np.errstate(invalid="ignore"):
        e = a - b
    fin = np.isfinite(e)
    e = np.where(fin, e, np.inf)
    r = np.where(fin, 2.0 * _EPS * (np.abs(a) + np.abs(b)), 0.0)
    return _widen(e, r)


def _cutoff(d_lo, d_hi, lam, g):
    """Bracket of the cutoff (d / lam)^(1/(1+g)) for d in [d_lo, d_hi].

    One ulp around the quotient covers its rounding, subnormal results
    included.  The power is within 4 ulp, and an exponent a off by the
    relative error da moves the result by da |ln c| relative; 8 eps plus
    twice that covers both twice over.
    """
    a = 1.0 / (1.0 + g)
    da = float(abs(1 / (1 + Fraction(g)) - Fraction(a))) / a
    c_lo = np.nextafter(d_lo / lam, 0.0) ** a
    c_hi = np.nextafter(d_hi / lam, np.inf) ** a

    def rel(c):
        return 8.0 * _EPS + 2.0 * da * np.abs(np.log(np.where(c > 0, c, 1.0)))

    return (
        np.nextafter(c_lo * (1.0 - rel(c_lo)), 0.0),
        np.nextafter(c_hi * (1.0 + rel(c_hi)), np.inf),
    )


def _ramp_mass(e, c, g):
    """Kernel mass below the cutoff c of a unit ramp starting at e.

    Returns Q(e, c) = integral of h^(g-1) (h - e) over h in [e, c], which
    is c^(1+g)/(1+g) - e c^g/g + e^(1+g)/(g(1+g)) for e < c and 0
    otherwise, and a bound on its float error.  Q falls as e grows and
    rises with c.
    """
    on = e < c
    e = np.where(on, e, 0.0)
    c = np.where(on, c, 0.0)
    cg = c**g
    t1 = c * cg / (1.0 + g)
    t2 = e * cg / g
    t3 = e * e**g / (g * (1.0 + g))
    return t1 - t2 + t3, _RAMP_ERR * _EPS * (t1 + t2 + t3)


def _jump_sections_F(B: _Batch, rows, gamma, lam):
    """Certified enclosures (lo, hi) of F for the jump-only sections ``rows``.

    Sort a section's jumps to p_1 <= ... <= p_K, with sentinels
    p_0 = -inf and p_(K+1) = +inf, and let D_ij = J_i + ... + J_j.  The
    pairs that straddle exactly the jumps i..j move by D_ij, so they
    exceed the threshold iff h < c_ij = (|D_ij| / lam)^(1/(1+gamma)).  At
    separation h their x-length is the overlap of [p_(i-1), p_i) with
    [p_j - h, p_(j+1) - h): a trapezoid in h, made of four unit ramps
    that start at the gaps p_j - p_i, p_j - p_(i-1), p_(j+1) - p_i and
    p_(j+1) - p_(i-1) with signs +, -, -, +.  So nu is the sum over
    i <= j of the four signed :func:`_ramp_mass` terms at c_ij, and
    F = 2 lam nu.

    Certification.  The mass of one (i, j) slab rises with c (its
    derivative is c^(g-1) times the trapezoid's length at c), and each
    ramp mass falls as its gap grows.  So the lower end takes the low
    cutoff and, term by term, the gap end that lowers the signed term;
    the upper end takes the reverse.  Gaps and cutoffs come as outward
    brackets (:func:`_gap`, :func:`_cutoff`), the float error of every
    term and of the sums is added outward, and the ends are rounded
    outward.  Padded slots sit at +inf and add exactly 0, so a section
    with no jumps gives exactly [0, 0]; any other gets a positive width.
    """
    g = gamma
    loc = B.jloc[rows]
    order = np.argsort(loc, axis=1, kind="stable")
    p = np.take_along_axis(loc, order, axis=1)
    J = np.take_along_axis(B.jh[rows], order, axis=1)
    R, K = p.shape
    end = np.full((R, 1), np.inf)
    P = np.concatenate([-end, p, end], axis=1)  # P[:, k + 1] = p_k
    lo, hi, mag_lo, mag_hi = np.zeros((4, R))
    for i in range(K):
        j = np.arange(i, K)
        # Partial sums J_i + ... + J_j, each off by at most (j - i) u times
        # the sum of the magnitudes.
        D = np.abs(np.cumsum(J[:, i:], axis=1))
        dD = 2.0 * _EPS * (j - i) * np.cumsum(np.abs(J[:, i:]), axis=1)
        c_lo, c_hi = _cutoff(*_widen(D, dD), lam, g)
        ramps = (
            (1.0, p[:, j], p[:, i, None]),
            (-1.0, p[:, j], P[:, i, None]),
            (-1.0, P[:, j + 2], p[:, i, None]),
            (1.0, P[:, j + 2], P[:, i, None]),
        )
        for k, (sign, a, b) in enumerate(ramps):
            e_lo, e_hi = _gap(a, b)
            if k == 0:
                # A jump's distance to itself (j = i) is exactly 0.
                e_hi[:, 0] = e_lo[:, 0]
            if sign < 0:
                e_lo, e_hi = e_hi, e_lo
            q_lo, err_lo = _ramp_mass(e_hi, c_lo, g)
            q_hi, err_hi = _ramp_mass(e_lo, c_hi, g)
            lo += (sign * q_lo - err_lo).sum(axis=1)
            hi += (sign * q_hi + err_hi).sum(axis=1)
            mag_lo += (np.abs(q_lo) + err_lo).sum(axis=1)
            mag_hi += (np.abs(q_hi) + err_hi).sum(axis=1)
    # Each end sums n = 2K(K+1) terms, one rounding each on the way in and
    # at most n - 1 more in the sum, so it errs by less than n u = K(K+1)
    # eps times the sum of the terms' magnitudes.
    n_eps = K * (K + 1) * _EPS
    scale = 2.0 * lam
    F_lo = np.nextafter(scale * np.nextafter(lo - n_eps * mag_lo, -np.inf), -np.inf)
    F_hi = np.nextafter(scale * np.nextafter(hi + n_eps * mag_hi, np.inf), np.inf)
    moved = mag_hi > 0
    return np.where(moved, np.maximum(F_lo, 0.0), 0.0), np.where(moved, F_hi, 0.0)


def f_enclosures_batch(
    funcs: Sequence[BVFunction1D],
    gamma,
    lam: float,
    tol: float | None = None,
    max_depth: int = 40,
) -> list[Enclosure]:
    """Enclosures of the functional for many functions in one refinement.

    All functions share gamma, lam, and the width target semantics of
    :class:`ExceedanceQuery`, which validates them.  A function made of
    jumps only, constant ones included, is evaluated in closed form
    (:func:`_jump_sections_F`); a constant one gives exactly [0, 0].
    Every other function goes through the branch-and-bound refinement.
    """
    q = ExceedanceQuery(gamma, lam, tol, max_depth)
    batch = _Batch(funcs)
    scale = 2.0 * q.lam
    if q.tol is None:
        tol_f = DEFAULT_TOL_SCALE * np.maximum(1.0, 2.0 * batch.tv / (1.0 + q.gamma))
    else:
        tol_f = np.full(batch.S, q.tol)
    exact = np.nonzero(batch.jump_only)[0]
    refine = np.nonzero(~batch.jump_only)[0]
    lo, slack, met = _split_wave(
        batch, q.gamma, q.lam, tol_f / scale, q.max_depth, refine
    )
    F_lo = scale * lo
    F_hi = scale * (lo + slack)
    F_lo[exact], F_hi[exact] = _jump_sections_F(batch, exact, q.gamma, q.lam)
    met[exact] = F_hi[exact] - F_lo[exact] <= tol_f[exact]
    return [Enclosure(F_lo[k], F_hi[k], met[k]) for k in range(batch.S)]


def measure_exceedance(u: BVFunction1D, query: ExceedanceQuery) -> Enclosure:
    """Enclosure of the kernel measure of the exceedance pair set."""
    enc = F_value(u, query)
    return enc.scaled(1.0 / (2.0 * query.lam))


def F_value(u: BVFunction1D, query: ExceedanceQuery) -> Enclosure:
    """Enclosure of the functional 2 * lam * nu(exceedance set)."""
    return f_enclosures_batch(
        [u], query.gamma, query.lam, query.tol, query.max_depth
    )[0]


def _shifted(x: float, o: float, outward: float) -> float:
    """x - o, moved one ulp toward ``outward`` when the difference rounded,
    so a shifted box still covers the given one."""
    s = x - o
    return s if math.fsum((x, -o, -s)) == 0.0 else math.nextafter(s, outward)


def pair_increment_bounds(u: BVFunction1D, box: PlaneBox) -> tuple[float, float]:
    """Certified (lower, upper) bounds of |u(x+h) - u(x)| over a box."""
    batch = _Batch([u])
    (x0, x1), (h0, h1) = box.x_interval, box.h_interval
    o = float(batch.origin[0])
    x0 = _shifted(x0, o, -math.inf)
    x1 = _shifted(x1, o, math.inf)
    up, low, _, _ = _wave_bounds(
        batch,
        np.zeros(1, dtype=np.intp),
        np.array([x0]),
        np.array([x1]),
        np.array([h0]),
        np.array([h1]),
    )
    return float(low[0]), float(up[0])


def classify_box(u: BVFunction1D, box: PlaneBox, query: ExceedanceQuery) -> BoxVerdict:
    """Classify one box against the exceedance threshold.

    OUTSIDE means no pair in the box exceeds, INSIDE means every pair
    does; MIXED is the undecided remainder that refinement would split.
    """
    low, up = pair_increment_bounds(u, box)
    (h0, h1) = box.h_interval
    if up <= query.lam * h0 ** (1.0 + query.gamma):
        return BoxVerdict.OUTSIDE
    if low > query.lam * h1 ** (1.0 + query.gamma):
        return BoxVerdict.INSIDE
    return BoxVerdict.MIXED
