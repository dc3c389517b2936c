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
outside, or mixed.  Mixed boxes are bisected, on the h axis at the
midpoint in s = h^gamma, where the kernel is dx ds / gamma.  Inside
mass accumulates into the enclosure's lower end; unresolved mass widens
the upper end.  All boxes of a run live in flat numpy arrays, so many
sections (as used by the N-dimensional sectioning estimator), or one
function at the many thresholds of a lambda sweep, refine in the same
vectorised wave.

All bounds here err on the safe side: upper pair bounds only ever
over-estimate and lower pair bounds under-estimate, so the returned
interval is a true enclosure regardless of whether the width target was
reached (the ``tol_met`` flag records that separately).

The engine localises first.  No pair with separation h >= H =
(TV / lam)^(1/(1+gamma)) exceeds, so a pair that moves two groups of
pieces lying more than H apart never exceeds: every exceeding pair moves
one group only, by that group's increment.  The exceedance set is then
the disjoint union of the groups' sets, and F(u) = sum_k F(u_k) holds
exactly.  :func:`_clusters` splits each function into such parts, and
each part is one row of the batch, classified by the rules below.  The
rows of a function share its tol, not a split of it: the closed-form
rows' widths are taken off it, and the refinement freezes all the
function's rows at once when their unresolved slack, summed in
functional units, is at most what is left.  Every function, one row or
many, freezes by that rule.  A refined row's ends are rounded outward
as they are scaled back, and a function's ``tol_met`` also requires
its final width to be at most its tol.

A row made of jumps only (every line section of a set's indicator, for
instance) skips the refinement: its exceedance set is a union of
trapezoid slabs, one per run of consecutive jumps, whose kernel mass has
a closed form.  :func:`_jump_sections_F` evaluates it with outward
rounding, so those enclosures are about 1e-14 wide relative to the value.

Every other row is refined in its unit frame (:class:`_Batch`), where its
derivative support is [0, 1] and its total variation 1.  Translation,
scaling and dilation give F_lam(u) = v F_lam'(u') with lam' = lam
w^(1+gamma) / v for a row of support width w and variation v, so the
refinement sees unit-sized inputs whatever the row's coordinates.
:func:`_reduced_lam` brackets lam' in logs as [a, b], and nu(E) falls as
the threshold grows, so one refinement that tests "outside" at a and
"inside" at b, with its truncation radius taken at a, encloses
F_lam'(u') in [2a nu_lo, 2b nu_hi]; v multiplies last.  A row made of
one Cantor piece is the unit staircase U there.  U is the sum of its two
thirds, U(3x)/2 and U(3x - 2)/2, and once lam' >= 3^(1+gamma) no pair
touching both thirds exceeds, so F_lam'(U) = F_(lam'/rho)(U) with rho =
3^(1+gamma)/2.  :func:`_reduced_lam` divides by rho while that holds,
which lands lam' in [2, 3^(1+gamma)) whatever lam was.  Below the float
range, where lam' underflows, F_lam'(U) is within 2 lam'^(1/(1+gamma)) /
gamma of 2 / (1 + gamma) and takes that closed-form bound instead
(:func:`_coarse_cantor_F`); any other row fails there.
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
    ShapedRamp,
    _SHAPE_CODE,
    _shape_deriv,
    _shape_unit,
    cantor_eval_array,
)
from .numeasure import Enclosure, PlaneBox, as_gamma

__all__ = [
    "ZeroVariationError",
    "EvaluationError",
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

#: Boxes classified per vectorised slice, sized so that the temporaries
#: of :func:`_wave_bounds` stay in a core's cache.  Those keep the box
#: axis last and contiguous, since numpy loops over a short trailing axis
#: once per box.  Peak memory is set by the wave's own arrays, not by the
#: slice.
_WAVE_CHUNK = 1 << 13

#: Hard cap on simultaneously alive boxes, summed over every row of a
#: call (all points of a lambda sweep, all sections of a batch).  Beyond
#: it the smallest-mass boxes are retired into the enclosure's slack
#: instead of splitting.
_WAVE_CAP = 3_000_000

#: Outward/inward safety nudge, in normalized-coordinate units, applied
#: before staircase evaluations so float rounding cannot flip a certified
#: bound across a point of increase.
_TNUDGE = 5e-15

_LOG3 = math.log(3.0)

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)

#: Float error of the log-domain sum in :func:`_reduced_lam`, in units of
#: eps times the sum of its terms' magnitudes.  Each term is a log (within
#: 1 ulp) times at most one rounded factor; log rho = (1+g) log 3 - log 2
#: is within about 8 eps of itself relative, since log rho >= log 1.5.
#: That is at most 10 eps a term; 32 leaves a margin.
_LOG_ERR = 32.0

#: Float error of one ramp mass in :func:`_ramp_mass`, in units of eps
#: times the sum of its terms' magnitudes.  Each term takes a power (at
#: most 4 ulp in numpy's SIMD kernels), a product and a division; the
#: two additions add two rounding steps.  That is about 7 eps; 16 leaves
#: a margin.
_RAMP_ERR = 16.0


class EvaluationError(ValueError):
    """Some functions of a :func:`f_enclosures_batch` call got no enclosure.

    ``results`` holds each function's Enclosure, or None where it failed;
    ``reasons`` maps each failed function's index to why.
    """

    def __init__(self, results, reasons):
        super().__init__("; ".join(f"function {f}: {r}" for f, r in reasons.items()))
        self.results, self.reasons = results, reasons


class ZeroVariationError(ValueError):
    """Raised when a computation needs a nonconstant function."""


def _as_lam(value) -> float:
    """A threshold slope as a float; raises ValueError unless it is finite
    and positive."""
    lam = float(value)
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError(f"lam must be a finite positive number, got {value!r}")
    return lam


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
        object.__setattr__(self, "lam", _as_lam(self.lam))
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
    number or any object with a ``total_variation`` attribute.  Where
    V / lam overflows or underflows, the power is taken through logs;
    raises ValueError when the radius itself is not a positive finite
    float.
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
    e = 1.0 / (1.0 + g)
    q = v / lam
    if math.isfinite(q) and q > 0.0:
        return q**e
    try:
        r = math.exp(e * (math.log(v) - math.log(lam)))
    except OverflowError:
        r = math.inf
    if not (math.isfinite(r) and r > 0.0):
        raise ValueError(
            f"truncation radius of variation {v!r} at lam {lam!r} is not a finite float"
        )
    return r


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
    """Evaluate polynomials on a grid by Horner's rule.

    ``coef[k]`` holds the coefficients of t^k, broadcast against ``t``;
    the result has the shape of ``t``.
    """
    r = np.zeros_like(t)
    for c in coef[::-1]:
        r *= t
        r += c
    return r


def _table(groups, get, fill, dtype=float, tail=(), o=None, w=None) -> np.ndarray:
    """get(p) over each section's pieces in ``groups``, stacked into one
    array of shape (len(groups), most pieces, *tail) padded with ``fill``;
    with a ``tail``, get(p) is a sequence no longer than tail[0].  Given
    ``w``, section i's entries (each element of a sequence) are written as
    (e - o[i]) / w[i], o = 0 by default, before the padding."""
    out = np.full((len(groups), max(map(len, groups), default=0), *tail), fill, dtype=dtype)
    if out.size:
        for i, row in enumerate([get(p) for p in g] for g in groups):
            if w is not None:
                a, b = (0.0 if o is None else o[i]), w[i]
                row = [[(c - a) / b for c in e] if tail else (e - a) / b for e in row]
            if tail:
                for k, v in enumerate(row):
                    out[i, k, : len(v)] = v
            else:
                out[i, : len(row)] = row
    return out


def _frame(u: BVFunction1D) -> tuple[float, float, float]:
    """Origin o, width w and variation v of u's unit frame (:class:`_Batch`);
    w = v = 1 for jumps only, and v = 1 for no variation."""
    o, e = u.derivative_support() or (0.0, 0.0)
    if all(isinstance(p, JumpPiece) for p in u.pieces):
        return o, 1.0, 1.0
    return o, e - o, u.total_variation or 1.0


class _Batch:
    """Padded struct-of-arrays view of several functions' pieces.

    Each entry is written in its section's unit frame (:func:`_frame`),
    kept as ``origin`` o, ``width`` w and ``var`` v: x maps to (x - o) / w
    and u to u / v, so the support is [0, 1] and the variation 1; a lone
    Cantor piece becomes the unit staircase.  Boxes then live near 0, and
    splitting resolves the same scales wherever the function sits on the
    line and whatever its size.  A jump-only section is only shifted by
    o, which keeps its closed form exact.  Each entry is divided once.

    Then sections with different piece counts are padded with inert slots
    (zero rise, support [0, 1], jumps at +inf) so a whole wave of boxes
    indexes the tables with plain fancy indexing.

    A polynomial piece's profile P lives on t in [0, 1].  Its tables are
    the coefficients ``pcoef`` and those of P' (``pder``), the interior
    critical points ``pcrit`` and inflection points ``pdcrit`` (NaN
    padded), and the values at them, ``pcval`` = P(pcrit) and ``pdval`` =
    |P'(pdcrit)|.  Those depend on the piece alone, so each is evaluated
    once here rather than for every box.
    """

    def __init__(self, funcs: Sequence[BVFunction1D]):
        self.S = len(funcs)
        jumps, cantor, shaped, poly = ([[] for _ in funcs] for _ in range(4))
        for i, u in enumerate(funcs):
            for p in u.pieces:
                if isinstance(p, JumpPiece):
                    jumps[i].append(p)
                elif isinstance(p, CantorPiece):
                    cantor[i].append(p)
                else:
                    (shaped if isinstance(p.profile, ShapedRamp) else poly)[i].append(p)
        # Sections whose pieces are all jumps (constant ones included)
        # are evaluated in closed form from jloc/jh instead of refined.
        self.jump_only = np.array([len(j) == len(u.pieces) for j, u in zip(jumps, funcs)], bool)
        frames = np.array([_frame(u) for u in funcs], dtype=float).reshape(-1, 3).T
        self.origin, self.width, self.var = frames
        o, w, v = frames.tolist()

        self.jloc = _table(jumps, lambda p: p.location, np.inf, o=o, w=w)
        self.jh = _table(jumps, lambda p: p.height, 0.0, w=v)

        self.sa = _table(shaped, lambda p: p.support[0], 0.0, o=o, w=w)
        self.sb = _table(shaped, lambda p: p.support[1], 1.0, o=o, w=w)
        self.srise = _table(shaped, lambda p: p.profile.rise, 0.0, w=v)
        self.scode = _table(shaped, lambda p: _SHAPE_CODE[p.profile.shape], 0, np.int8)
        # The shape codes held, so a batch of one shape evaluates only its
        # formula (padded slots have zero rise and read as any shape).
        self.shapes = sorted({_SHAPE_CODE[p.profile.shape] for g in shaped for p in g})

        self.ca = _table(cantor, lambda p: p.support[0], 0.0, o=o, w=w)
        self.cb = _table(cantor, lambda p: p.support[1], 1.0, o=o, w=w)
        self.crise = _table(cantor, lambda p: p.rise, 0.0, w=v)

        profs = [p.profile for g in poly for p in g]
        D = max((len(q.coeffs) for q in profs), default=1)
        C = max((len(q.crit) for q in profs), default=0)
        C2 = max((len(q.dcrit) for q in profs), default=0)
        self.pa = _table(poly, lambda p: p.support[0], 0.0, o=o, w=w)
        self.pb = _table(poly, lambda p: p.support[1], 1.0, o=o, w=w)
        self.pcoef = _table(poly, lambda p: p.profile.coeffs, 0.0, tail=(D,), w=v)
        self.pder = _table(
            poly, lambda p: [k * c for k, c in enumerate(p.profile.coeffs)][1:], 0.0, tail=(D,), w=v
        )
        self.pcrit = _table(poly, lambda p: p.profile.crit, np.nan, tail=(C,))
        self.pdcrit = _table(poly, lambda p: p.profile.dcrit, np.nan, tail=(C2,))
        self.pcval = _polyval_grid(np.moveaxis(self.pcoef, -1, 0)[..., None], self.pcrit)
        self.pdval = np.abs(_polyval_grid(np.moveaxis(self.pder, -1, 0)[..., None], self.pdcrit))
        self.pvar = (self.pder[..., 1:] != 0.0).any(axis=-1)


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


def _gather(table: np.ndarray, sid: np.ndarray) -> np.ndarray:
    """Rows ``sid`` of a batch table of shape (S, K, ...), laid out
    contiguously as (K, ..., W) with the box axis last."""
    return np.ascontiguousarray(np.moveaxis(np.take(table, sid, axis=0), 0, -1))


def _fold(op, a, out):
    """Reduce the leading axis of ``a`` into ``out`` with the binary ufunc
    ``op``, one entry at a time from the first.

    For a sum this pins the order left to right; numpy's own sum pairs
    the terms differently from 8 of them on.
    """
    for row in a:
        out = op(out, row)
    return out


def _add_signed(LU, s, low, up):
    """Add the pieces' signed increment intervals to the rows of ``LU``.

    ``low`` and ``up`` bound each piece's |increment| over a box and
    ``s`` is the piece's direction on the pair span (only its sign is
    read), each of shape (K, W).  An increasing piece moves by
    [low, up], a decreasing one by [-up, -low], and one not known to be
    monotone (s = 0) by [-up, up].  A family's K intervals are summed
    left to right before they join ``LU``.
    """
    L = np.where(s > 0, low, -up)
    U = np.where(s < 0, -low, up)
    LU[0] += _fold(np.add, L[1:], L[0])
    LU[1] += _fold(np.add, U[1:], U[0])


def _wave_bounds(B: _Batch, sid, x0, x1, h0, h1):
    """Upper/lower bounds on |u(x+h) - u(x)| over each box, plus two
    flags telling the splitter what x-structure the box's pair span
    holds: point features (in the span, a jump, a support end of a piece
    that moves u, a polynomial extremum, or a Cantor piece) versus smooth
    slope variation.

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

    Layout: the box axis is last and contiguous in every temporary,
    (K, W) per piece slot, (K, M, W) for a grid of M points, and each
    table is gathered once (:func:`_gather`).  numpy runs an elementwise
    op or a reduction over a short trailing axis as one tiny inner loop
    per box, several times slower than one long loop over the boxes.
    """
    W = x0.size
    span_hi = x1 + h1
    core_lo = x1
    core_hi = x0 + h0
    core_ok = core_hi > core_lo
    win_hi = x1 + h0
    thin_ok = h0 > 0.0

    def in_span(e):  # strictly inside (x0, x1 + h1)
        return (x0 < e) & (e < span_hi)

    LU = np.zeros((2, W))
    xfeat = np.zeros(W, dtype=bool)
    xsmooth = np.zeros(W, dtype=bool)

    if B.jloc.shape[1]:
        jl = _gather(B.jloc, sid)
        jh = _gather(B.jh, sid)
        ja = np.abs(jh)
        poss = (x0 < jl) & (jl <= span_hi)
        always = (core_lo < jl) & (jl <= core_hi)
        xfeat = _fold(np.logical_or, in_span(jl), xfeat)
        _add_signed(LU, jh, np.where(always, ja, 0.0), np.where(poss, ja, 0.0))

    if B.sa.shape[1]:
        a = _gather(B.sa, sid)
        b = _gather(B.sb, sid)
        w = b - a
        rise = _gather(B.srise, sid)
        ar = np.abs(rise)
        code = _gather(B.scode, sid) if len(B.shapes) > 1 else None

        def unit(t):
            return _shape_unit(code, t, B.shapes)

        def deriv(t):
            return _shape_deriv(code, t, B.shapes)

        # Shaped ramps have varying slope, so boxes overlapping them
        # benefit from x-refinement (localising the derivative window).
        live = rise != 0.0
        xsmooth = _fold(np.logical_or, live & (a < span_hi) & (b > x0), xsmooth)
        xfeat = _fold(np.logical_or, live & (in_span(a) | in_span(b)), xfeat)
        # The profile at the span ends t0, t1, the core ends tc0 = t(x1)
        # and tc1 = t(x0 + h0), and the window's far end tw1 = t(x1 + h0).
        t0 = np.clip((x0 - a) / w, 0.0, 1.0)
        t1 = np.clip((span_hi - a) / w, 0.0, 1.0)
        tc0 = np.clip((core_lo - a) / w, 0.0, 1.0)
        tc1 = np.clip((core_hi - a) / w, 0.0, 1.0)
        tw1 = np.clip((win_hi - a) / w, 0.0, 1.0)
        s0, s1, sc0, sc1, sw1 = (unit(t) for t in (t0, t1, tc0, tc1, tw1))
        d0, dw1 = deriv(t0), deriv(tw1)
        osc = ar * (s1 - s0)
        ov = np.minimum(span_hi, b) - np.maximum(x0, a)
        win = np.minimum(h1, np.maximum(ov, 0.0))
        # Local slope cap: the unit derivative is unimodal, so its max
        # over the span's t range sits at an end or at the clamped peak.
        smax = np.maximum(np.maximum(d0, deriv(t1)), deriv(np.clip(0.5, t0, t1)))
        up_i = np.minimum(osc, ar * smax / w * win)
        inc = np.where(core_ok, np.maximum(ar * (sc1 - sc0), 0.0), 0.0)
        # Exact minimum pair increment at separation h0: the clipped
        # profile is monotone with a unimodal extended derivative, so
        # x -> F(x + h0) - F(x) is quasi-concave and attains its minimum
        # at an end of the box's x range.  Two evaluations certify it.
        dwin = ar * np.minimum(sc1 - s0, sw1 - sc0)
        # Multiplicative floor for the same minimum: h0 times the least
        # slope over the window hull (at a hull end, the derivative
        # being unimodal).  The endpoint differences above quantise to
        # zero once h0 drops below one ulp of the x coordinates; this
        # product form cannot, so thin boxes deep inside the exceedance
        # region still certify.  Valid only for unclipped windows.
        win_in = (x0 >= a) & (win_hi <= b) & thin_ok
        dmul = np.where(win_in, ar * (h0 / w) * np.minimum(d0, dw1), 0.0)
        _add_signed(LU, rise, np.maximum(inc, np.maximum(dwin, dmul)), up_i)

    if B.ca.shape[1]:
        a = _gather(B.ca, sid)
        b = _gather(B.cb, sid)
        w = b - a
        crise = _gather(B.crise, sid)
        r = np.abs(crise)
        near = (a < span_hi) & (b > x0)
        xfeat = _fold(np.logical_or, (r > 0.0) & near, xfeat)
        ts0 = np.clip((x0 - a) / w - _TNUDGE, 0.0, 1.0)
        ts1 = np.clip((span_hi - a) / w + _TNUDGE, 0.0, 1.0)
        tc0 = np.clip((core_lo - a) / w + _TNUDGE, 0.0, 1.0)
        tc1 = np.clip((core_hi - a) / w - _TNUDGE, 0.0, 1.0)
        cv = cantor_eval_array(np.stack([ts0, ts1, tc0, tc1]))
        osc = r * np.maximum(cv[1] - cv[0], 0.0)
        ov = np.minimum(span_hi, b) - np.maximum(x0, a)
        tau = np.minimum(h1, np.maximum(ov, 0.0)) / w
        inc = np.where(core_ok, r * np.maximum(cv[3] - cv[2], 0.0), 0.0)
        _add_signed(LU, crise, inc, np.minimum(osc, _holder_cap(r, tau)))

    if B.pa.shape[1]:
        a = _gather(B.pa, sid)
        b = _gather(B.pb, sid)
        w = b - a
        pvar = _gather(B.pvar, sid)
        xsmooth = _fold(np.logical_or, pvar & (a < span_hi) & (b > x0), xsmooth)
        # One Horner pass evaluates P at the box's points, in the piece's
        # coordinate t = (x - a) / w clipped to [0, 1]: the span ends t0
        # and t1, the window's far end tw1 (at x1 + h0) and the core ends
        # tc0 = t(x1) and tc1 = t(x0 + h0).  A second one evaluates |P'|
        # at the first three.  P at the critical points and |P'| at the
        # inflection points come from the batch's tables; a candidate
        # counts where it lies strictly inside the range at hand, and its
        # NaN padding never does.
        t = np.stack([x0, span_hi, win_hi, core_lo, core_hi]) - a[:, None]
        t /= w[:, None]
        np.clip(t, 0.0, 1.0, out=t)
        v = _polyval_grid(np.moveaxis(_gather(B.pcoef, sid), 1, 0)[:, :, None], t)
        dv = _polyval_grid(np.moveaxis(_gather(B.pder, sid), 1, 0)[:, :, None], t[:, :3])
        np.abs(dv, out=dv)
        t0, t1, tw1 = t[:, 0], t[:, 1], t[:, 2]
        v0, v1, vw1, vc0, vc1 = v.swapaxes(0, 1)
        d0, d1, dw1 = dv.swapaxes(0, 1)
        vmax, vmin = np.maximum(v0, v1), np.minimum(v0, v1)
        turn = np.False_
        crit, cval = _gather(B.pcrit, sid), _gather(B.pcval, sid)
        for k in range(crit.shape[1]):
            m = (crit[:, k] > t0) & (crit[:, k] < t1)
            vmax = np.maximum(vmax, np.where(m, cval[:, k], -np.inf))
            vmin = np.minimum(vmin, np.where(m, cval[:, k], np.inf))
            turn = turn | m
        # |P'| peaks over the span at an end or an inflection point, and
        # is least over the window hull at an end or one inside it.
        smax, dmin = np.maximum(d0, d1), np.minimum(d0, dw1)
        bent = np.False_
        dcrit, dval = _gather(B.pdcrit, sid), _gather(B.pdval, sid)
        for k in range(dcrit.shape[1]):
            above = dcrit[:, k] > t0
            m = above & (dcrit[:, k] < tw1)
            smax = np.maximum(smax, np.where(above & (dcrit[:, k] < t1), dval[:, k], -np.inf))
            dmin = np.minimum(dmin, np.where(m, dval[:, k], np.inf))
            bent = bent | m
        # A piece with constant P' moves u where that slope is not 0.
        live = pvar | (d0 > 0.0)
        xfeat = _fold(np.logical_or, turn | (live & (in_span(a) | in_span(b))), xfeat)
        # With an extremum inside the span the piece is not monotone
        # there, so its lower bounds are discarded.
        direction = np.where(turn, 0.0, v1 - v0)
        ov = np.minimum(span_hi, b) - np.maximum(x0, a)
        win = np.minimum(h1, np.maximum(ov, 0.0))
        up_i = np.minimum(vmax - vmin, smax / w * win)
        inc = np.where(core_ok, np.abs(vc1 - vc0), 0.0)
        # The least pair increment at separation h0 is at least h0 times
        # the least slope over the window hull [x0, x1 + h0].  With no
        # inflection point in the hull the derivative is monotone there,
        # so x -> P(x + h0) - P(x) is too and its minimum sits at an end
        # of the x range, which beats the product where the slope varies.
        win_in = (x0 >= a) & (win_hi <= b) & thin_ok
        dwin = np.where(win_in, h0 * dmin / w, 0.0)
        ginc = np.minimum(np.abs(vc1 - v0), np.abs(vw1 - vc0))
        gwin = np.where(win_in & ~bent, ginc, 0.0)
        _add_signed(LU, direction, np.maximum(inc, np.maximum(dwin, gwin)), up_i)

    L, U = LU
    low = np.maximum(np.maximum(L, -U), 0.0)
    return np.maximum(U, -L), low, xfeat, xsmooth


# ---------------------------------------------------------------------------
# Wave-based branch and bound
# ---------------------------------------------------------------------------


def _verdict(up, low, h0, h1, s0, s1, lam_a, lam_b):
    """Masks of the boxes with pair bounds [low, up] and separations
    [h0, h1], s = h^gamma, that are outside at lam_a, inside at lam_b,
    and whose power h1 s1 is normal.  A power below the normal range has
    lost its relative accuracy, so only an exact h0 = 0 or a normal power
    decides a box."""
    p0, p1 = h0 * s0, h1 * s1
    normal = p1 >= _TINY
    outside = (up <= lam_a * p0) & ((h0 == 0.0) | (p0 >= _TINY))
    inside = ~outside & (low > lam_b * p1) & normal
    return outside, inside, normal


def _split_wave(B, gamma, lam, tol, max_depth, rows, weight, owner=None):
    """Run the refinement for the sections ``rows`` of a batch at once.

    ``lam`` is one threshold slope, or an array of shape (2, S) holding a
    bracket [a, b] of each section's slope.  A box is outside when no
    pair exceeds at a, and inside when every pair exceeds at b, and the
    truncation radius is taken at a.

    Boxes live in (x, s = h^gamma), where the kernel is dx ds / gamma, so
    a box's mass is its area over gamma and its h-split is the midpoint in
    s; each wave derives h = s^(1/gamma) once.

    ``owner`` maps each section to the function it is a part of (by
    default every section is its own function), and ``tol`` gives each
    function's width target in the units of ``weight``, a per-section
    factor.  A function freezes, all its sections at once, in the first
    wave where the sum over its sections of weight times unresolved mass
    is at most its tol; its sections then keep that mass as slack.

    Returns per section (lo, slack), in kernel-measure units of its unit
    frame (see :class:`_Batch`): lo bounds nu(E_b) from below and lo +
    slack bounds nu(E_a) from above, so for a single slope the certified
    enclosure is [lo, lo + slack].  Sections not in ``rows`` get no boxes
    and read (0, 0).  The third array gives per function ``tol_met``: it
    froze, or the weighted mass retired by the depth cap, the wave cap or
    an unsplittable box is at most its tol.
    """
    S = B.S
    g = gamma
    lam_a, lam_b = np.broadcast_to(lam, (2, S))
    owner = np.arange(S) if owner is None else owner
    NF = int(owner.max()) + 1 if S else 0
    tol = np.broadcast_to(tol, (NF,))
    weight = np.broadcast_to(weight, (S,))
    lo_acc = np.zeros(S)
    stuck = np.zeros(S)
    frozen_extra = np.zeros(S)
    frozen = np.zeros(NF, dtype=bool)

    # Root boxes: with variation 1, beyond separation H = a^(-1/(1+g))
    # nothing exceeds, and pairs moving u must touch the support [0, 1].
    # H is padded a hair to absorb rounding in the powers and the tables.
    H = (1.0 / lam_a[rows]) ** (1.0 / (1.0 + g)) * (1.0 + 1e-12)
    x0 = -H
    x1 = np.ones(rows.size)
    s0 = np.zeros(rows.size)
    s1 = H**g
    sid = rows

    # Roots sit at depth 0 and each wave splits into the next, so every
    # box alive in a wave is at that wave's depth.
    depth = 0
    while x0.size:
        W = x0.size
        h0, h1 = s0 ** (1.0 / g), s1 ** (1.0 / g)
        up, low = np.empty((2, W))
        xfeat, xsmooth = np.empty((2, W), dtype=bool)
        for i in range(0, W, _WAVE_CHUNK):
            sl = slice(i, min(i + _WAVE_CHUNK, W))
            up[sl], low[sl], xfeat[sl], xsmooth[sl] = _wave_bounds(
                B, sid[sl], x0[sl], x1[sl], h0[sl], h1[sl]
            )
        outside, inside, normal = _verdict(up, low, h0, h1, s0, s1, lam_a[sid], lam_b[sid])
        mass = (x1 - x0) * (s1 - s0) / g
        if inside.any():
            lo_acc += np.bincount(sid[inside], weights=mass[inside], minlength=S)
        mixed = ~outside & ~inside
        gap = np.bincount(sid[mixed], weights=mass[mixed], minlength=S)
        rem = gap + stuck
        rem_f = np.bincount(owner, weights=weight * rem, minlength=NF)
        freeze_now = ~frozen & (rem_f <= tol)
        if freeze_now.any():
            frozen_extra = np.where(freeze_now[owner], rem, frozen_extra)
            frozen = frozen | freeze_now

        keep = mixed & ~frozen[owner[sid]]
        if depth >= max_depth:
            stuck += np.bincount(sid[keep], weights=mass[keep], minlength=S)
            break
        idx = np.nonzero(keep)[0]
        if idx.size == 0:
            break
        if 2 * idx.size > _WAVE_CAP:
            order = np.argsort(-mass[idx], kind="stable")
            keep_n = _WAVE_CAP // 2
            dropped = idx[order[keep_n:]]
            stuck += np.bincount(sid[dropped], weights=mass[dropped], minlength=S)
            idx = np.sort(idx[order[:keep_n]])

        bx0, bx1, bs0, bs1 = x0[idx], x1[idx], s0[idx], s1[idx]
        bxw = bx1 - bx0
        bhw = h1[idx] - h0[idx]
        # Point features (jumps, live support ends, interior extrema) pay
        # off at any h, so split toward them while x is the wider side.
        # Slope variation only matters relative to the support scale, 1,
        # and tightening the h band is relative to its own height, so
        # those boxes compare the two improvement ratios instead.
        want_x = (xfeat[idx] & (bxw >= bhw)) | (xsmooth[idx] & (bxw * h1[idx] >= bhw))
        del h0, h1, bhw  # freed before the children set the peak memory
        xm = 0.5 * (bx0 + bx1)
        sm = 0.5 * (bs0 + bs1)
        # Neither a box whose h1^(1+g) is below the normal range nor any
        # of its children can read inside, so it is retired unsplit.
        ok = normal[idx]
        ok_x = (xm > bx0) & (xm < bx1) & ok
        ok_h = (sm > bs0) & (sm < bs1) & ok
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
        ns0 = np.concatenate([bs0[xi], bs0[xi], bs0[hi_], sm[hi_]])
        ns1 = np.concatenate([bs1[xi], bs1[xi], sm[hi_], bs1[hi_]])
        par = np.concatenate([idx[xi], idx[xi], idx[hi_], idx[hi_]])
        x0, x1, s0, s1, sid = nx0, nx1, ns0, ns1, sid[par]
        depth += 1
        # Free this wave's arrays before the next, larger wave allocates
        # its own; the deepest waves set the run's peak memory.
        del up, low, xfeat, xsmooth, outside, inside, normal, mass, mixed, keep, idx, bx0, bx1
        del bs0, bs1, bxw, xm, sm, ok, ok_x, ok_h, want_x, do_x, do_h, dead, xi, hi_, par

    slack = np.where(frozen[owner], frozen_extra, stuck)
    tol_met = frozen | (np.bincount(owner, weights=weight * stuck, minlength=NF) <= tol)
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
    """Certified enclosures (lo, hi) of F for the jump-only sections ``rows``
    at the threshold slopes ``lam``, one per row, and a mask of the rows
    whose cutoffs or masses are not finite (a NaN cutoff reads as none).

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
    bad = np.zeros(R, dtype=bool)
    for i in range(K):
        j = np.arange(i, K)
        # Partial sums J_i + ... + J_j, each off by at most (j - i) u times
        # the sum of the magnitudes.
        D = np.abs(np.cumsum(J[:, i:], axis=1))
        dD = 2.0 * _EPS * (j - i) * np.cumsum(np.abs(J[:, i:]), axis=1)
        c_lo, c_hi = _cutoff(*_widen(D, dD), lam[:, None], g)
        bad |= ~(np.isfinite(c_lo) & np.isfinite(c_hi)).all(axis=1)
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
    # With k jumps in a row, each end sums n = 2k(k+1) terms, one rounding
    # each on the way in and at most n - 1 more in the sum, so it errs by
    # less than n u = k(k+1) eps times the sum of the terms' magnitudes.
    # Padded slots add exact zeros, so k counts the row's own jumps and its
    # enclosure does not depend on the rows batched with it.
    k = np.isfinite(p).sum(axis=1)
    n_eps = k * (k + 1) * _EPS
    scale = 2.0 * lam
    F_lo = np.nextafter(scale * np.nextafter(lo - n_eps * mag_lo, -np.inf), -np.inf)
    F_hi = np.nextafter(scale * np.nextafter(hi + n_eps * mag_hi, np.inf), np.inf)
    bad |= ~(np.isfinite(F_lo) & np.isfinite(F_hi))
    moved = mag_hi > 0
    return np.where(moved, np.maximum(F_lo, 0.0), 0.0), np.where(moved, F_hi, 0.0), bad


# ---------------------------------------------------------------------------
# Cantor-only sections at a reduced threshold
# ---------------------------------------------------------------------------


def _reduced_lam(lam: float, g: float, w: float, tv: float, periodic: bool) -> tuple[float, float]:
    """Float bracket [a, b] of a row's threshold in its unit frame.

    For a row of support width w and total variation tv that threshold
    is lam w^(1+g) / tv.  A ``periodic`` row, one Cantor piece, is the
    unit staircase there, and the threshold is divided by rho =
    3^(1+g)/2 while the bracket's lower end is at least 3^(1+g) (see the
    module docstring).  The sum of logs carries a bound on its float
    error, so an input whose lam w^(1+g) alone overflows still reduces.
    Raises ValueError when a log or the bracket overflows, or when the
    lower end is too small for a refinement (zero, or with 1 / a
    overflowing) in a row that is not periodic; a periodic one then gets
    a = 0 and takes the closed-form bound of :func:`_coarse_cantor_F`.
    """
    e = 1.0 + g
    ln_rho = e * _LOG3 - math.log(2.0)
    # An upper bound of log 3^(1+g), so a division is made only where the
    # true threshold is at least 3^(1+g).
    ln_top = e * _LOG3 * (1.0 + 4.0 * _EPS)
    terms = [math.log(lam), e * math.log(w), -math.log(tv)]
    if not all(map(math.isfinite, terms)):
        raise ValueError(f"cannot reduce lam {lam!r}: its log overflows")

    def bracket(k):
        t = [*terms, -k * ln_rho]
        m = math.fsum(t)
        # A support width hi - lo rounds by at most u relative, which
        # moves e log w by e u whatever the size of the log; e eps covers
        # that twice.
        r = _LOG_ERR * _EPS * math.fsum(map(abs, t)) + e * _EPS
        return m - r, m + r

    k = max(0, math.floor((bracket(0)[0] - ln_top) / ln_rho) + 1) if periodic else 0
    while k > 0 and bracket(k - 1)[0] < ln_top:
        k -= 1
    while periodic and bracket(k)[0] >= ln_top:
        k += 1
    ln_a, ln_b = bracket(k)
    try:
        a = math.nextafter(math.exp(ln_a) * (1.0 - 4.0 * _EPS), 0.0)
        b = math.nextafter(math.exp(ln_b) * (1.0 + 4.0 * _EPS), math.inf)
    except OverflowError:
        a = b = math.inf
    where = f"the unit-frame lam at lam {lam!r}, log bracket [{ln_a!r}, {ln_b!r}],"
    if not math.isfinite(b):
        raise ValueError(f"cannot bracket {where} in finite floats")
    if not (a > 0.0 and math.isfinite(1.0 / a)):
        if not periodic:
            raise ValueError(f"{where} is below the float range")
        a = 0.0
    return a, b


def _coarse_cantor_F(r: float, b: float, g: float) -> tuple[float, float]:
    """Certified enclosure of F of a Cantor piece of variation r whose
    threshold, mapped to the unit staircase U, is at most b.

    At threshold lam' the pairs that move U by its whole rise exceed for
    h < c = lam'^(-1/(1+g)).  Those straddling the whole support [0, 1]
    then all exceed, and their mass, the integral of (h - 1) h^(g-1) over
    [1, c], gives F_lam'(U) >= 2/(1+g) - 2/(g c).  Every exceeding pair
    touches the support and, as |dU| <= 1, has h < c: the integral of
    (h + 1) h^(g-1) over [0, c] gives F_lam'(U) <= 2/(1+g) + 2/(g c).  So
    the bound narrows to the value of a jump of the same size as lam'
    falls; 1/c is bracketed upward from b by :func:`_cutoff`.
    """
    s = float(_cutoff(b, b, 1.0, g)[1])
    mid = 2.0 / (1.0 + g)
    d = 2.0 * s / g
    # mid and d each took at most two roundings, u each.
    lo, hi = _widen(mid, d + 2.0 * _EPS * (mid + d))
    F_lo = math.nextafter(r * float(lo), 0.0)
    return F_lo, math.nextafter(r * float(hi), math.inf)


# ---------------------------------------------------------------------------
# Localisation and the engine entry point
# ---------------------------------------------------------------------------


def _clusters(u: BVFunction1D, lam: float, g: float) -> list[BVFunction1D]:
    """Parts of u, summing to u, whose functionals sum to F(u).

    Taken in order of their hulls (a jump's location, any other piece's
    support), pieces join the current part unless they start more than
    H = (TV / lam)^(1/(1+g)) past the hull of the pieces before them.  A
    pair that moves two parts spans the gap between them, so h > H and
    the pair cannot exceed; every exceeding pair moves one part only, by
    that part's increment.  So E(u) is the disjoint union of the parts'
    exceedance sets.  H is bracketed upward and each gap downward, so
    rounding can only merge parts.  A function made of jumps only, or
    forming one part, is returned whole.
    """
    if all(isinstance(p, JumpPiece) for p in u.pieces):
        return [u]
    hulls = [
        (p.location, p.location) if isinstance(p, JumpPiece) else p.support
        for p in u.pieces
    ]
    tv = u.total_variation
    # The float sum of the pieces' variations errs by less than n u.
    with np.errstate(over="ignore", invalid="ignore"):
        H = float(_cutoff(tv, tv * (1.0 + len(hulls) * _EPS), lam, g)[1])
    if not math.isfinite(H):  # TV / lam overflows: no gap is wide enough
        return [u]
    order = sorted(range(len(hulls)), key=lambda k: hulls[k][0])
    part = [0] * len(hulls)
    n = 0
    end = hulls[order[0]][1]
    for k in order[1:]:
        a, b = hulls[k]
        if math.nextafter(a - end, -math.inf) > H:
            n += 1
        part[k] = n
        end = max(end, b)
    if n == 0:
        return [u]
    return [
        BVFunction1D(tuple(p for p, j in zip(u.pieces, part) if j == i))
        for i in range(n + 1)
    ]


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def f_enclosures_batch(
    funcs: Sequence[BVFunction1D],
    gamma,
    lam: float | Sequence[float],
    tol: float | None = None,
    max_depth: int = 40,
) -> list[Enclosure]:
    """Enclosures of the functional for many functions in one refinement.

    ``lam`` is one threshold slope for all functions, or a sequence with
    one slope per function, as a lambda sweep passes its grid.  All
    functions share gamma and the width target semantics of
    :class:`ExceedanceQuery`, which validates them; every slope is
    checked as it checks lam, and all before any evaluation.  Each
    function is split into the parts of :func:`_clusters`, one batch row
    each, and its enclosure is the sum of its rows' enclosures, rounded
    outward.  A row made of jumps only, constant ones included, is
    evaluated in closed form (:func:`_jump_sections_F`); a constant one
    gives exactly [0, 0].  Every other row is refined in its unit frame
    at the bracket of :func:`_reduced_lam`; a row made of one Cantor piece
    takes :func:`_coarse_cantor_F` below the float range instead.

    A function's rows share its tol: the closed-form rows' widths are
    taken off it, and the refinement freezes the function once its
    rows' unresolved slack, each in functional units (2 v b for a row of
    frame variation v refined at [a, b]), sums to at most the rest; a
    function of one row freezes by the same rule.  Every refined row's
    ends are rounded outward, and ``tol_met`` holds where the refinement
    met its target and the function's final width is at most its tol.
    Each function freezes on its own and keeps its boxes in their own
    order, so its enclosure is the one it gets alone at its own slope, as
    long as the call's live boxes, summed over all its rows, stay within
    ``_WAVE_CAP``.

    After the arguments are checked, a function fails where a row's jump
    cutoffs or masses or its ends are not finite, or its threshold bracket
    leaves the float range, and the call raises :class:`EvaluationError` with every result and reason.
    numpy's float warnings are off, as these checks stand in for them.
    """
    if np.ndim(lam) == 0:
        q = ExceedanceQuery(gamma, lam, tol, max_depth)
        lam_f = [q.lam] * len(funcs)
    else:
        lam_f = [_as_lam(v) for v in lam]
        if len(lam_f) != len(funcs):
            raise ValueError(f"lam holds {len(lam_f)} slopes for {len(funcs)} functions")
        # gamma, tol and max_depth are checked here; the slopes were above.
        q = ExceedanceQuery(gamma, 1.0, tol, max_depth)
    g = q.gamma
    parts = [_clusters(u, v, g) for u, v in zip(funcs, lam_f)]
    rows = [v for p in parts for v in p]
    n_rows = np.array([len(p) for p in parts], dtype=np.intp)
    owner = np.repeat(np.arange(len(funcs)), n_rows)
    first = np.cumsum(n_rows) - n_rows
    batch = _Batch(rows)
    # Per row: a bracket [a, b] of its threshold in its unit frame and the
    # frame's variation v, which maps the frame's F back; jump-only rows
    # keep a = b = their function's lam and v = 1.  Rows in closed form
    # get their enclosure C before the refinement.
    lam_r = np.array(lam_f, dtype=float)[owner]
    lam_ab = np.stack([lam_r, lam_r])
    var = batch.var
    closed = batch.jump_only.copy()
    C = np.zeros((2, batch.S))
    exact = np.nonzero(closed)[0]
    C[0, exact], C[1, exact], bad = _jump_sections_F(batch, exact, g, lam_r[exact])
    reasons = {}  # function -> why it gets no enclosure
    for f in owner[exact[bad]]:
        reasons[f] = f"jump cutoffs or masses are not finite at lam {lam_f[f]!r}"
    for k in np.nonzero(~closed)[0]:
        cantor = len(rows[k].pieces) == 1 and isinstance(rows[k].pieces[0], CantorPiece)
        try:
            lam_ab[:, k] = _reduced_lam(float(lam_r[k]), g, batch.width[k], var[k], cantor)
        except ValueError as exc:
            reasons.setdefault(owner[k], f"row {k - first[owner[k]]}: {exc}")
            continue
        if lam_ab[0, k] == 0.0:
            closed[k] = True
            C[:, k] = _coarse_cantor_F(var[k], lam_ab[1, k], g)
    tv = np.array([u.total_variation for u in funcs])
    if q.tol is None:
        tol_f = DEFAULT_TOL_SCALE * np.maximum(1.0, 2.0 * tv / (1.0 + g))
    else:
        tol_f = np.full(len(funcs), q.tol)

    # The refinement freezes a function once its rows' slack, in
    # functional units (2 b v per unit of frame mass), fits its tol less
    # the widths of its closed-form rows.  Both sides are divided by 2T,
    # T its total variation (1 if 0), so no weight overflows.
    tv = np.where(tv > 0.0, tv, 1.0)
    tol_w = 0.5 * (tol_f - np.bincount(owner, weights=C[1] - C[0], minlength=len(funcs))) / tv
    failed = np.isin(np.arange(len(funcs)), list(reasons))
    refine = np.nonzero(~closed & ~failed[owner])[0]
    weight = lam_ab[1] * (var / tv[owner])
    lo, slack, met = _split_wave(batch, g, lam_ab, tol_w, q.max_depth, refine, weight, owner)
    # Each end took up to three roundings, u each: lo + slack, the product
    # with 2a or 2b, and the product with v, taken last so that an end
    # overflows only where F does.
    F_lo = np.nextafter(var * (2.0 * lam_ab[0] * lo) * (1.0 - 2.0 * _EPS), 0.0)
    F_hi = np.nextafter(var * (2.0 * lam_ab[1] * (lo + slack)) * (1.0 + 2.0 * _EPS), np.inf)
    F_lo[closed], F_hi[closed] = C[:, closed]
    # A function of one row reads that row; the rows of any other are
    # summed with outward rounding.
    summed = n_rows > 1
    lo_f, hi_f = F_lo[first], F_hi[first]
    for f in np.nonzero(summed & ~failed)[0]:
        ks = slice(first[f], first[f] + n_rows[f])
        try:
            lo_f[f] = max(math.nextafter(math.fsum(F_lo[ks]), -math.inf), 0.0)
            hi_f[f] = math.nextafter(math.fsum(F_hi[ks]), math.inf)
        except OverflowError:  # the sum leaves the float range
            hi_f[f] = math.inf
    for f in np.nonzero(~failed & ~(np.isfinite(lo_f) & np.isfinite(hi_f)))[0]:
        path = "summed" if summed[f] else "closed-form" if closed[first[f]] else "refined"
        reasons[f] = f"{path} ends [{lo_f[f]}, {hi_f[f]}] are not finite at lam {lam_f[f]!r}"
    # The refinement's verdict covers slack only, not the closed-form
    # widths, a Cantor bracket or the outward rounding, so every function
    # checks its width too.
    met &= hi_f - lo_f <= tol_f
    ends = zip(lo_f.tolist(), hi_f.tolist(), met.tolist())
    encs = [None if f in reasons else Enclosure(*e) for f, e in enumerate(ends)]
    if reasons:
        raise EvaluationError(encs, {int(f): reasons[f] for f in sorted(reasons)})
    return encs


def measure_exceedance(u: BVFunction1D, query: ExceedanceQuery) -> Enclosure:
    """Enclosure of the kernel measure of the exceedance pair set."""
    enc = F_value(u, query)
    return enc.scaled(1.0 / (2.0 * query.lam))


def F_value(u: BVFunction1D, query: ExceedanceQuery) -> Enclosure:
    """Enclosure of the functional 2 * lam * nu(exceedance set)."""
    return f_enclosures_batch(
        [u], query.gamma, query.lam, query.tol, query.max_depth
    )[0]


def _outward(q: Fraction, toward: float) -> float:
    """The float nearest q, moved one ulp toward the infinity ``toward``
    where it rounded the other way."""
    f = float(q)
    return math.nextafter(f, toward) if (f > q if toward < 0 else f < q) else f


def _frame_bounds(u: BVFunction1D, box: PlaneBox):
    """u's one-row batch, and the frame's pair bounds (up, low) and h ends
    over the box mapped outward into u's unit frame, as arrays of one."""
    B = _Batch([u])
    o, w = Fraction(B.origin[0]), Fraction(B.width[0])
    (x0, x1), (h0, h1) = box.x_interval, box.h_interval
    ends = [(Fraction(x0) - o, -math.inf), (Fraction(x1) - o, math.inf)]
    ends += [(Fraction(h0), -math.inf), (Fraction(h1), math.inf)]
    x0, x1, h0, h1 = (np.array([_outward(d / w, t)]) for d, t in ends)
    up, low, _, _ = _wave_bounds(B, np.zeros(1, dtype=np.intp), x0, x1, h0, h1)
    return B, up, low, h0, h1


def pair_increment_bounds(u: BVFunction1D, box: PlaneBox) -> tuple[float, float]:
    """Certified (lower, upper) bounds of |u(x+h) - u(x)| over a box, taken
    in u's unit frame with the box and the bounds mapped outward."""
    B, up, low, _, _ = _frame_bounds(u, box)
    v = Fraction(B.var[0])
    return _outward(Fraction(low[0]) * v, -math.inf), _outward(Fraction(up[0]) * v, math.inf)


def classify_box(u: BVFunction1D, box: PlaneBox, query: ExceedanceQuery) -> BoxVerdict:
    """Classify one box against the exceedance threshold.

    OUTSIDE means no pair in the box exceeds, INSIDE means every pair
    does; MIXED is the undecided remainder that refinement would split.
    It is decided as the refinement decides (:func:`_verdict`), in u's
    unit frame at the bracket of :func:`_reduced_lam`, which may raise.
    """
    B, up, low, h0, h1 = _frame_bounds(u, box)
    g = query.gamma
    a, b = _reduced_lam(query.lam, g, float(B.width[0]), float(B.var[0]), False)
    outside, inside, _ = _verdict(up, low, h0, h1, h0**g, h1**g, a, b)
    if outside[0] or inside[0]:
        return BoxVerdict.OUTSIDE if outside[0] else BoxVerdict.INSIDE
    return BoxVerdict.MIXED
