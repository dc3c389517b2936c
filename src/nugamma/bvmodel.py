"""One-dimensional bounded-variation functions with explicit derivative parts.

A function here is a constant base value plus a finite sum of catalog
pieces, each constant outside a bounded interval:

* ``SmoothPiece``, a Lipschitz profile from a closed catalog (polynomial,
  affine ramp, clamped smoothstep, sine ramp) carrying its exact total
  variation;
* ``JumpPiece``, a single jump, evaluated with the right-continuous
  convention;
* ``CantorPiece``, a scaled copy of the Cantor staircase: monotone,
  continuous, and with zero classical derivative almost everywhere.

Keeping the catalog closed is what makes oscillations, directions and
variation masses exactly computable, which the box classification in
:mod:`nugamma.functional1d` relies on.  All objects are immutable and
hashable where practical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence, Union

import numpy as np
import numpy.polynomial.polynomial as npoly

__all__ = [
    "CANTOR_DIGITS",
    "cantor_eval",
    "cantor_eval_array",
    "ShapedRamp",
    "PolynomialProfile",
    "SmoothPiece",
    "JumpPiece",
    "CantorPiece",
    "Piece",
    "BVFunction1D",
    "VariationTriple",
    "affine_ramp",
    "smoothstep_piece",
    "sine_ramp",
    "polynomial_piece",
    "cantor_piece",
    "single_jump",
    "cantor_staircase",
]

Interval = tuple[float, float]

# ---------------------------------------------------------------------------
# Cantor staircase
# ---------------------------------------------------------------------------

#: Number of ternary digits consumed by the staircase evaluation.  The scan
#: is exact integer arithmetic on the binary rational input, so the only
#: error is the truncation of unconsumed digits, below 2**-63 absolutely.
CANTOR_DIGITS = 64


def cantor_eval(t) -> float:
    """Value of the standard Cantor staircase at ``t`` in [0, 1].

    Ternary digits of ``t`` are consumed until the first digit 1; digits
    0 and 2 map to binary digits 0 and 1, and a trailing binary 1 is
    appended when a ternary 1 ended the scan.  The digit scan runs in
    exact integer arithmetic (floats and ``Fraction`` inputs both work),
    truncated at ``CANTOR_DIGITS`` digits.  Inputs whose expansion
    terminates or hits a 1 within the budget are evaluated exactly.
    """
    if t < 0 or t > 1:
        raise ValueError(f"cantor_eval needs 0 <= t <= 1, got {t!r}")
    if t == 0:
        return 0.0
    if t == 1:
        return 1.0
    num, den = t.as_integer_ratio()
    acc = 0
    bits = 0
    for _ in range(CANTOR_DIGITS):
        num *= 3
        d = num // den
        num -= d * den
        bits += 1
        if d == 1:
            acc = (acc << 1) | 1
            break
        acc = (acc << 1) | (d >> 1)
        if num == 0:
            break
    return acc / (1 << bits)


#: The array scan holds each t as a 156-bit fixed-point integer in three
#: 52-bit int64 limbs.  That is exact for floats t >= 2**-102, which have
#: no bits below 2**-154; smaller ones, under 3**-64, scan CANTOR_DIGITS
#: zeros either way.  The scan reads _BLOCK digits per step: multiplying
#: a limb by 3**6 and adding a carry stays below 2**63.
_LIMB = 52
_LIMB_MASK = (1 << _LIMB) - 1
_BLOCK = 6


def _block_table(k: int):
    """Scan of every k-digit ternary block q, most significant digit first.

    Returns per q the digits the scalar scan consumes (through the first
    1), the binary digits they append to the result, and whether a 1
    ended the scan.
    """
    digits = np.arange(3**k)[:, None] // 3 ** np.arange(k - 1, -1, -1) % 3
    hit = (digits == 1).any(axis=1)
    used = np.where(hit, (digits == 1).argmax(axis=1) + 1, k)
    bits = (((digits + 1) // 2) << np.arange(k - 1, -1, -1)).sum(axis=1) >> (k - used)
    return used.astype(np.uint64), bits.astype(np.uint64), hit


_BLOCK_TABLES = {k: _block_table(k) for k in {_BLOCK, CANTOR_DIGITS % _BLOCK or _BLOCK}}


def cantor_eval_array(values: np.ndarray) -> np.ndarray:
    """Staircase values over an array in [0, 1], equal to :func:`cantor_eval`.

    Runs the scalar digit scan on every entry at once, in exact integer
    arithmetic, so each value matches the scalar one bit for bit.  A float
    in (0, 1) is a dyadic rational, so its remainder never reaches zero.
    """
    flat = np.asarray(values, dtype=float).ravel()
    out = np.where(flat == 1.0, 1.0, 0.0)
    pos = np.nonzero((flat > 0.0) & (flat < 1.0))[0]
    r = flat[pos]
    limbs = []
    for _ in range(3):
        r = r * float(1 << _LIMB)
        whole = np.floor(r)
        limbs.append(whole.astype(np.int64))
        r = r - whole
    hi, mid, lo = limbs
    acc = np.zeros(pos.size, dtype=np.uint64)
    done = 0
    while pos.size and done < CANTOR_DIGITS:
        k = min(_BLOCK, CANTOR_DIGITS - done)
        used, bits, hit = _BLOCK_TABLES[k]
        lo = lo * 3**k
        mid = mid * 3**k + (lo >> _LIMB)
        hi = hi * 3**k + (mid >> _LIMB)
        lo &= _LIMB_MASK
        mid &= _LIMB_MASK
        q = hi >> _LIMB
        hi &= _LIMB_MASK
        n = used[q]
        acc = (acc << n) | bits[q]
        done += k
        fin = hit[q] | (done == CANTOR_DIGITS)
        if fin.any():
            scale = (done - k) + n[fin].astype(np.int64)
            out[pos[fin]] = np.ldexp(acc[fin].astype(float), -scale)
            keep = ~fin
            pos, hi, mid, lo, acc = pos[keep], hi[keep], mid[keep], lo[keep], acc[keep]
    return out.reshape(np.shape(values))


# ---------------------------------------------------------------------------
# Smooth profiles (normalized coordinate t = (x - a) / (b - a) in [0, 1])
# ---------------------------------------------------------------------------

#: Ramp shapes by the codes the batched tables of
#: :mod:`nugamma.functional1d` store.
_SHAPE_CODE = {"affine": 1, "smoothstep": 2, "sine": 3}


def _shape_unit(code: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Unit ramp s(t) elementwise, for shape codes broadcast like ``t``."""
    out = t.copy()
    m = code == 2
    if m.any():
        ts = t[m]
        out[m] = ts * ts * (3.0 - 2.0 * ts)
    m = code == 3
    if m.any():
        out[m] = 0.5 * (1.0 - np.cos(np.pi * t[m]))
    return out


def _shape_deriv(code: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Unit ramp derivative s'(t) elementwise, as :func:`_shape_unit`."""
    out = np.ones_like(t)
    m = code == 2
    if m.any():
        ts = t[m]
        out[m] = 6.0 * ts * (1.0 - ts)
    m = code == 3
    if m.any():
        out[m] = 0.5 * np.pi * np.sin(np.pi * t[m])
    return out


@dataclass(frozen=True)
class ShapedRamp:
    """Monotone profile ``rise * s(t)`` with s(0) = 0 and s(1) = 1.

    ``shape`` is one of ``affine`` (s = t), ``smoothstep``
    (s = 3t^2 - 2t^3) or ``sine`` (s = (1 - cos pi t) / 2).  The unit
    derivative of each shape is unimodal, so its minimum over a
    subinterval is attained at an endpoint.
    """

    shape: str
    rise: float

    def __post_init__(self):
        if self.shape not in _SHAPE_CODE:
            raise ValueError(f"unknown ramp shape {self.shape!r}")
        if not (math.isfinite(self.rise) and self.rise != 0.0):
            raise ValueError("ramp rise must be finite and nonzero")

    def unit(self, t):
        t = np.asarray(t, dtype=float)
        return _shape_unit(np.full(t.shape, _SHAPE_CODE[self.shape]), t)

    def value0(self, t):
        """Profile value relative to t = 0."""
        return self.rise * self.unit(t)


def _real_roots_in_unit(coeffs: Sequence[float]) -> tuple[float, ...]:
    """Real roots of the polynomial (ascending coeffs) strictly inside (0, 1)."""
    c = np.trim_zeros(np.asarray(coeffs, dtype=float), trim="b")
    if c.size <= 1:
        return ()
    roots = npoly.polyroots(c)
    out = []
    for r in roots:
        if abs(r.imag) < 1e-9 and 1e-12 < r.real < 1.0 - 1e-12:
            out.append(float(r.real))
    out.sort()
    dedup = []
    for r in out:
        if not dedup or r - dedup[-1] > 1e-12:
            dedup.append(r)
    return tuple(dedup)


@dataclass(frozen=True)
class PolynomialProfile:
    """Free-form polynomial profile on the normalized coordinate.

    ``coeffs[k]`` multiplies t**k.  ``crit`` holds the derivative roots
    strictly inside (0, 1), ``dcrit`` the second-derivative roots; both
    are computed once at construction so that oscillation and slope
    ranges over subintervals reduce to candidate evaluations.
    """

    coeffs: tuple[float, ...]
    crit: tuple[float, ...]
    dcrit: tuple[float, ...]

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[float]) -> "PolynomialProfile":
        cs = tuple(float(c) for c in coeffs)
        if not cs or not all(math.isfinite(c) for c in cs):
            raise ValueError("polynomial coefficients must be finite and nonempty")
        d1 = npoly.polyder(cs) if len(cs) > 1 else (0.0,)
        d2 = npoly.polyder(cs, 2) if len(cs) > 2 else (0.0,)
        return cls(cs, _real_roots_in_unit(d1), _real_roots_in_unit(d2))

    def unit(self, t):
        return npoly.polyval(t, self.coeffs)

    def value0(self, t):
        return self.unit(t) - self.unit(0.0)

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return (0.0, *self.crit, 1.0)


Profile = Union[ShapedRamp, PolynomialProfile]


# ---------------------------------------------------------------------------
# Pieces
# ---------------------------------------------------------------------------


def _check_interval(support) -> Interval:
    a, b = (float(support[0]), float(support[1]))
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"support must be a finite interval with a < b, got {support}")
    return (a, b)


@dataclass(frozen=True)
class SmoothPiece:
    """Lipschitz catalog piece, constant outside ``support``.

    ``exact_tv`` is the true total variation of the profile, derived
    analytically by the factory functions below.
    """

    support: Interval
    profile: Profile
    exact_tv: float

    def _t(self, x):
        a, b = self.support
        return np.clip((np.asarray(x, dtype=float) - a) / (b - a), 0.0, 1.0)

    def increment(self, x):
        """Piece value relative to its value far to the left."""
        return self.profile.value0(self._t(x))

    def osc_on(self, lo: float, hi: float) -> float:
        """Exact sup - inf of the piece over [lo, hi]; a scalar test oracle."""
        t0, t1 = self._t(lo), self._t(hi)
        if t1 <= t0:
            return 0.0
        p = self.profile
        if isinstance(p, ShapedRamp):
            return abs(p.rise) * float(p.unit(t1) - p.unit(t0))
        cand = [float(p.unit(t0)), float(p.unit(t1))]
        cand.extend(float(p.unit(c)) for c in p.crit if t0 < c < t1)
        return max(cand) - min(cand)


@dataclass(frozen=True)
class JumpPiece:
    location: float
    height: float

    def __post_init__(self):
        if not math.isfinite(self.location):
            raise ValueError("jump location must be finite")
        if not (math.isfinite(self.height) and self.height != 0.0):
            raise ValueError("jump height must be finite and nonzero")

    def increment(self, x: float) -> float:
        return self.height if x >= self.location else 0.0

    def increment_left(self, x: float) -> float:
        return self.height if x > self.location else 0.0

    def osc_on(self, lo: float, hi: float) -> float:
        """Exact sup - inf of the piece over [lo, hi]; a scalar test oracle."""
        # Right-continuity: a jump exactly at lo is already absorbed in
        # every value on [lo, hi], so only locations in (lo, hi] count.
        return abs(self.height) if lo < self.location <= hi else 0.0


@dataclass(frozen=True)
class CantorPiece:
    """Cantor staircase scaled onto ``support`` and rising by ``rise``: the
    sign of ``rise`` is its direction, ``|rise|`` its Cantor variation."""

    support: Interval
    rise: float

    def __post_init__(self):
        if not (math.isfinite(self.rise) and self.rise != 0.0):
            raise ValueError("cantor rise must be finite and nonzero")

    def _t(self, x: float) -> float:
        a, b = self.support
        return min(max((x - a) / (b - a), 0.0), 1.0)

    def increment(self, x: float) -> float:
        return self.rise * cantor_eval(self._t(x))

    def osc_on(self, lo: float, hi: float) -> float:
        """Exact sup - inf of the piece over [lo, hi]; a scalar test oracle."""
        t0, t1 = self._t(lo), self._t(hi)
        if t1 <= t0:
            return 0.0
        return abs(self.rise) * (cantor_eval(t1) - cantor_eval(t0))


Piece = Union[SmoothPiece, JumpPiece, CantorPiece]


# ---------------------------------------------------------------------------
# Factories
# ---------------------------------------------------------------------------


def affine_ramp(a: float, b: float, slope: float) -> SmoothPiece:
    """Affine ramp of the given slope on [a, b], clamped outside."""
    a, b = _check_interval((a, b))
    if not (math.isfinite(slope) and slope != 0.0):
        raise ValueError("slope must be finite and nonzero")
    rise = slope * (b - a)
    return SmoothPiece((a, b), ShapedRamp("affine", rise), abs(rise))


def smoothstep_piece(a: float, b: float, rise: float) -> SmoothPiece:
    """Cubic smoothstep rising by ``rise`` across [a, b]."""
    a, b = _check_interval((a, b))
    prof = ShapedRamp("smoothstep", float(rise))
    return SmoothPiece((a, b), prof, abs(rise))


def sine_ramp(a: float, b: float, rise: float) -> SmoothPiece:
    """Half-cosine ramp rising by ``rise`` across [a, b]."""
    a, b = _check_interval((a, b))
    prof = ShapedRamp("sine", float(rise))
    return SmoothPiece((a, b), prof, abs(rise))


def polynomial_piece(a: float, b: float, coeffs: Sequence[float]) -> SmoothPiece:
    """Polynomial profile on [a, b]; ``coeffs[k]`` multiplies the k-th power
    of the normalized coordinate.  Total variation comes from the
    derivative's critical points."""
    a, b = _check_interval((a, b))
    prof = PolynomialProfile.from_coeffs(coeffs)
    vals = [float(prof.unit(t)) for t in prof.breakpoints]
    tv = float(sum(abs(v1 - v0) for v0, v1 in zip(vals, vals[1:])))
    return SmoothPiece((a, b), prof, tv)


def cantor_piece(a: float, b: float, rise: float, orientation: int | None = None) -> CantorPiece:
    """Cantor staircase on [a, b] rising by ``rise``; an ``orientation`` of
    +1 or -1, when given, sets the direction and ``|rise|`` the size."""
    a, b = _check_interval((a, b))
    rise = float(rise)
    if orientation is not None:
        if orientation not in (-1, 1):
            raise ValueError("orientation must be +1 or -1")
        rise = orientation * abs(rise)
    return CantorPiece((a, b), rise)


# ---------------------------------------------------------------------------
# Assembled functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VariationTriple:
    """Masses of the absolutely continuous, jump and Cantor derivative parts,
    held as Python floats."""

    a: float
    j: float
    c: float

    def __post_init__(self):
        for name in ("a", "j", "c"):
            object.__setattr__(self, name, float(getattr(self, name)))

    @property
    def total(self) -> float:
        return self.a + self.j + self.c


@dataclass(frozen=True)
class BVFunction1D:
    """Right-continuous BV function: base value plus catalog pieces.

    Pieces may overlap.  Evaluation sums piece increments relative to
    their values far to the left, so the function equals ``base_value``
    left of every support.
    """

    pieces: tuple[Piece, ...]
    base_value: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "pieces", tuple(self.pieces))
        if not math.isfinite(self.base_value):
            raise ValueError("base_value must be finite")

    # -- evaluation --------------------------------------------------------

    def eval(self, x: float) -> float:
        """Right-continuous value at x."""
        return self.base_value + sum(p.increment(x) for p in self.pieces)

    __call__ = eval

    def eval_left(self, x: float) -> float:
        """Left limit at x (differs from eval only across jump locations)."""
        total = self.base_value
        for p in self.pieces:
            if isinstance(p, JumpPiece):
                total += p.increment_left(x)
            else:
                total += p.increment(x)
        return total

    # -- structure ---------------------------------------------------------

    def variation_decomposition(self) -> VariationTriple:
        a = j = c = 0.0
        for p in self.pieces:
            if isinstance(p, SmoothPiece):
                a += p.exact_tv
            elif isinstance(p, JumpPiece):
                j += abs(p.height)
            else:
                c += abs(p.rise)
        return VariationTriple(a, j, c)

    @property
    def total_variation(self) -> float:
        return self.variation_decomposition().total

    def derivative_support(self) -> Interval | None:
        """Hull of the piece supports; None for a constant function."""
        lo = math.inf
        hi = -math.inf
        for p in self.pieces:
            if isinstance(p, JumpPiece):
                lo = min(lo, p.location)
                hi = max(hi, p.location)
            else:
                lo = min(lo, p.support[0])
                hi = max(hi, p.support[1])
        if lo > hi:
            return None
        return (lo, hi)

    def oscillation_bound(self, interval: Interval) -> float:
        """Sum of the pieces' exact oscillations on the interval, a bound on
        sup |u(y) - u(x)| over its pairs.  A scalar test oracle: the engine
        in :mod:`nugamma.functional1d` does not call it."""
        lo, hi = float(interval[0]), float(interval[1])
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ValueError(f"interval must be finite with lo <= hi, got {interval}")
        return float(sum(p.osc_on(lo, hi) for p in self.pieces))

    # -- exact transforms ---------------------------------------------------

    def scaled(self, c: float) -> "BVFunction1D":
        """The function c * u."""
        if not math.isfinite(c):
            raise ValueError("scale factor must be finite")
        return self._mapped(c, 1.0, 0.0)

    def dilated(self, s: float) -> "BVFunction1D":
        """The function x -> u(x / s) for s > 0."""
        if not (s > 0 and math.isfinite(s)):
            raise ValueError("dilation factor must be positive and finite")
        return self._mapped(1.0, s, 0.0)

    def translated(self, dx: float) -> "BVFunction1D":
        """The function x -> u(x - dx)."""
        if not math.isfinite(dx):
            raise ValueError("translation must be finite")
        return self._mapped(1.0, 1.0, dx)

    def _mapped(self, c: float, s: float, dx: float) -> "BVFunction1D":
        """The function x -> c * u((x - dx) / s), for s > 0."""
        if c == 0.0:
            return BVFunction1D((), 0.0)
        out: list[Piece] = []
        for p in self.pieces:
            if isinstance(p, JumpPiece):
                out.append(JumpPiece(s * p.location + dx, c * p.height))
                continue
            sup = (s * p.support[0] + dx, s * p.support[1] + dx)
            if isinstance(p, CantorPiece):
                out.append(CantorPiece(sup, c * p.rise))
                continue
            prof = p.profile
            if isinstance(prof, ShapedRamp):
                prof = replace(prof, rise=c * prof.rise)
            else:
                prof = replace(prof, coeffs=tuple(c * ck for ck in prof.coeffs))
            out.append(SmoothPiece(sup, prof, abs(c) * p.exact_tv))
        return BVFunction1D(tuple(out), c * self.base_value)


# ---------------------------------------------------------------------------
# Convenience constructors
# ---------------------------------------------------------------------------


def single_jump(height: float = 1.0, location: float = 0.0, base: float = 0.0) -> BVFunction1D:
    return BVFunction1D((JumpPiece(location, height),), base)


def cantor_staircase(a: float = 0.0, b: float = 1.0, rise: float = 1.0) -> BVFunction1D:
    return BVFunction1D((cantor_piece(a, b, rise),), 0.0)
