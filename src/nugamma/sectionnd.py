"""N-dimensional fields evaluated through their one-dimensional sections.

The functional of an N-dimensional field equals the average of its values
on all lines: sample a direction sigma uniformly on the sphere and an
offset z uniformly on a disk in the hyperplane orthogonal to sigma, form
the section t -> u(z + t sigma), evaluate the 1D functional there, and
rescale by the sampled volume over the dimensional constant C_1.  The
same machinery checks the companion identities that section variations
integrate to C_N times the field's variation masses.

The field catalog is closed so every section lands in the 1D piece
catalog: an indicator ball sections into at most two jumps, a radial
polynomial field (polynomial in the squared normalized radius) sections
into one polynomial piece, and a clamped affine band sections into one
affine ramp.  Sampling uses a counter-based generator and a deterministic
orthonormal frame for each direction, so fixed seeds reproduce bitwise.

Ball sections are jumps only, so the 1D engine evaluates them in closed
form: their enclosures are a few times 1e-14 wide relative to the value,
and the systematic term of a ball estimate is at rounding level.  The
other fields' sections go through the branch-and-bound refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.polynomial as npoly

from .bvmodel import (
    BVFunction1D,
    JumpPiece,
    VariationTriple,
    _real_roots_in_unit,
    affine_ramp,
    polynomial_piece,
)
from .functional1d import ExceedanceQuery, f_enclosures_batch

__all__ = [
    "unit_ball_volume",
    "sphere_area",
    "c_n_constant",
    "SectionLine",
    "BallIndicatorField",
    "RadialPolynomialField",
    "AffineClampField",
    "FieldND",
    "extract_section",
    "MCEstimate",
    "F_nd_estimate",
    "sectioning_variation_check",
    "variation_check_target",
]


#: Sections per engine call in :func:`F_nd_estimate`; bounds the size of
#: one refinement batch.
_SECTION_CHUNK = 2048


def unit_ball_volume(k: int) -> float:
    """Volume of the unit ball in k dimensions (1 for k = 0).

    Uses the two-step recursion v_k = v_{k-2} * 2 pi / k instead of the
    gamma function so the small integer dimensions come out exact
    (v_1 = 2, v_2 = pi); half-integer gamma evaluations round those.
    """
    if k < 0:
        raise ValueError("dimension must be nonnegative")
    vols = [1.0, 2.0]
    while len(vols) <= k:
        vols.append(vols[-2] * 2.0 * math.pi / len(vols))
    return vols[k]


def sphere_area(k: int) -> float:
    """Surface measure of the unit k-sphere (2 points for k = 0)."""
    if k < 0:
        raise ValueError("dimension must be nonnegative")
    areas = [2.0, 2.0 * math.pi]
    while len(areas) <= k:
        areas.append(areas[-2] * 2.0 * math.pi / (len(areas) - 1))
    return areas[k]


def c_n_constant(dimension: int) -> float:
    """Mean absolute first coordinate over the unit sphere, unnormalised:
    the integral of |x_1| over S^(N-1), equal to twice the unit-ball
    volume in dimension N - 1.  Converts sectioned 1D totals to N-D."""
    if dimension < 1:
        raise ValueError("dimension must be at least 1")
    return 2.0 * unit_ball_volume(dimension - 1)


def _finite_vec(v, n: int, name: str) -> tuple[float, ...]:
    out = tuple(float(c) for c in v)
    if len(out) != n or not all(math.isfinite(c) for c in out):
        raise ValueError(f"{name} must be {n} finite coordinates, got {v!r}")
    return out


@dataclass(frozen=True)
class SectionLine:
    """A line z + t sigma with unit direction and offset in sigma-perp."""

    sigma: tuple[float, ...]
    z: tuple[float, ...]

    def __post_init__(self):
        n = len(self.sigma)
        sigma = _finite_vec(self.sigma, n, "sigma")
        z = _finite_vec(self.z, n, "z")
        s = np.asarray(sigma)
        if abs(float(s @ s) - 1.0) > 1e-12:
            raise ValueError("sigma must be a unit vector (within 1e-12)")
        if abs(float(s @ np.asarray(z))) > 1e-12:
            raise ValueError("z must be orthogonal to sigma (within 1e-12)")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "z", z)


def _chord(center, radius: float, line: SectionLine) -> tuple[float, float, float]:
    """Where a line meets a ball: the line coordinate ``t0`` closest to
    the center, the squared distance ``d2`` of the line from the center,
    and the squared half-chord ``radius^2 - d2``, negative for a miss."""
    sigma = np.asarray(line.sigma)
    rel = np.asarray(center) - np.asarray(line.z)
    t0 = float(rel @ sigma)
    d2 = float(rel @ rel) - t0 * t0
    return t0, d2, radius * radius - d2


# ---------------------------------------------------------------------------
# Field catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BallIndicatorField:
    """``height`` on a ball, zero outside."""

    kind = "ball_indicator"

    dimension: int
    center: tuple[float, ...]
    radius: float
    height: float

    def __post_init__(self):
        if int(self.dimension) < 2:
            raise ValueError("field dimension must be at least 2")
        object.__setattr__(self, "dimension", int(self.dimension))
        object.__setattr__(
            self, "center", _finite_vec(self.center, self.dimension, "center")
        )
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError("radius must be a finite positive number")
        if not (self.height != 0 and math.isfinite(self.height)):
            raise ValueError("height must be finite and nonzero")

    @property
    def section_bound_radius(self) -> float:
        return float(np.linalg.norm(self.center)) + self.radius

    @property
    def variation_parts(self) -> VariationTriple:
        j = sphere_area(self.dimension - 1) * self.radius ** (self.dimension - 1)
        return VariationTriple(0.0, j * abs(self.height), 0.0)

    def extract_section(self, line: SectionLine) -> BVFunction1D:
        t0, _, gap2 = _chord(self.center, self.radius, line)
        if gap2 <= 0.0:
            return BVFunction1D((), 0.0)
        s = math.sqrt(gap2)
        return BVFunction1D(
            (JumpPiece(t0 - s, self.height), JumpPiece(t0 + s, -self.height)), 0.0
        )


@dataclass(frozen=True)
class RadialPolynomialField:
    """Polynomial in the squared normalized radius, constant outside.

    With q = (|x - center| / radius)^2 the field is P(q) for q <= 1 and
    P(1) beyond, so it is continuous.  Restricting the radial profile to
    polynomials in the squared radius keeps every line section inside
    the 1D polynomial catalog; odd radial powers would not section to
    polynomials.  ``coeffs[k]`` multiplies q**k.
    """

    kind = "radial_smooth"

    dimension: int
    radius: float
    coeffs: tuple[float, ...]
    center: tuple[float, ...] | None = None

    def __post_init__(self):
        if int(self.dimension) < 2:
            raise ValueError("field dimension must be at least 2")
        object.__setattr__(self, "dimension", int(self.dimension))
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError("radius must be a finite positive number")
        cs = tuple(float(c) for c in self.coeffs)
        if not cs or not all(math.isfinite(c) for c in cs):
            raise ValueError("coeffs must be a nonempty list of finite numbers")
        object.__setattr__(self, "coeffs", cs)
        center = self.center if self.center is not None else (0.0,) * self.dimension
        object.__setattr__(
            self, "center", _finite_vec(center, self.dimension, "center")
        )

    @property
    def section_bound_radius(self) -> float:
        return float(np.linalg.norm(self.center)) + self.radius

    @property
    def outside_value(self) -> float:
        return float(npoly.polyval(1.0, self.coeffs))

    @property
    def variation_parts(self) -> VariationTriple:
        # Total gradient mass: area(S^(N-1)) R^(N-1) * int_0^1 |P'(q)| q^((N-1)/2) dq,
        # integrated exactly by splitting at the sign changes of P'.
        if len(self.coeffs) < 2:
            return VariationTriple(0.0, 0.0, 0.0)
        der = npoly.polyder(self.coeffs)
        cuts = (0.0, *_real_roots_in_unit(der), 1.0)
        e = (self.dimension - 1) / 2.0
        total = 0.0
        for q0, q1 in zip(cuts, cuts[1:]):
            seg = 0.0
            for k, ck in enumerate(der):
                p = k + e + 1.0
                seg += ck * (q1**p - q0**p) / p
            total += abs(seg)
        a = sphere_area(self.dimension - 1) * self.radius ** (self.dimension - 1) * total
        return VariationTriple(a, 0.0, 0.0)

    def extract_section(self, line: SectionLine) -> BVFunction1D:
        t0, d2, gap2 = _chord(self.center, self.radius, line)
        base = self.outside_value
        if gap2 <= (1e-12 * self.radius) ** 2:
            return BVFunction1D((), base)
        half = math.sqrt(gap2)
        # Along the chord, q = (d2 + half^2 (2 tau - 1)^2) / R^2 in the
        # normalized chord coordinate tau, a quadratic with q(0) = q(1) = 1.
        r2 = self.radius * self.radius
        inner = np.array([(d2 + gap2) / r2, -4.0 * gap2 / r2, 4.0 * gap2 / r2])
        comp = np.array([self.coeffs[-1]], dtype=float)
        for c in self.coeffs[-2::-1]:
            comp = npoly.polymul(comp, inner)
            comp[0] += c
        piece = polynomial_piece(t0 - half, t0 + half, comp)
        if piece.exact_tv == 0.0:
            return BVFunction1D((), base)
        return BVFunction1D((piece,), base)


@dataclass(frozen=True)
class AffineClampField:
    """Clamped affine band observed through a finite pencil of lines.

    The underlying profile is ``slope * <x, direction>`` clamped to
    ``[clamp[0], clamp[1]]``: a band of thickness (clamp[1]-clamp[0])/slope
    where all the variation lives.  The band is translation invariant
    crosswise, so its total variation is normalised per ``clamp_length``
    of transverse extent: the declared masses are those of a band patch
    of that length, and the sampling disk radius solves
    area(sphere) * vol(ball) * R^(N-1) = C_N * clamp_length so the
    sectioning identities hold exactly for these masses (R =
    clamp_length / pi in the plane).  Every non-perpendicular section is
    one affine ramp rising across the clamp window; perpendicular
    sections are constant.
    """

    kind = "affine_clamp"

    dimension: int
    direction: tuple[float, ...]
    slope: float
    clamp: tuple[float, float]
    clamp_length: float

    def __post_init__(self):
        if int(self.dimension) < 2:
            raise ValueError("field dimension must be at least 2")
        object.__setattr__(self, "dimension", int(self.dimension))
        d = np.asarray(
            _finite_vec(self.direction, self.dimension, "direction"), dtype=float
        )
        nrm = float(np.linalg.norm(d))
        if nrm <= 0.0:
            raise ValueError("direction must be nonzero")
        object.__setattr__(self, "direction", tuple(d / nrm))
        if not (self.slope > 0 and math.isfinite(self.slope)):
            raise ValueError("slope must be a finite positive number")
        c0, c1 = float(self.clamp[0]), float(self.clamp[1])
        if not (math.isfinite(c0) and math.isfinite(c1) and c0 < c1):
            raise ValueError("clamp must be an increasing finite pair")
        object.__setattr__(self, "clamp", (c0, c1))
        if not (self.clamp_length > 0 and math.isfinite(self.clamp_length)):
            raise ValueError("clamp_length must be a finite positive number")

    @property
    def section_bound_radius(self) -> float:
        k = self.dimension - 1
        return (2.0 * self.clamp_length / sphere_area(k)) ** (1.0 / k)

    @property
    def variation_parts(self) -> VariationTriple:
        c0, c1 = self.clamp
        return VariationTriple((c1 - c0) * self.clamp_length, 0.0, 0.0)

    def extract_section(self, line: SectionLine) -> BVFunction1D:
        sigma = np.asarray(line.sigma)
        e = np.asarray(self.direction)
        dot = float(sigma @ e)
        ze = float(np.asarray(line.z) @ e)
        c0, c1 = self.clamp
        if abs(dot) < 1e-12:
            return BVFunction1D((), min(max(self.slope * ze, c0), c1))
        ta = (c0 / self.slope - ze) / dot
        tb = (c1 / self.slope - ze) / dot
        lo, hi = (ta, tb) if ta < tb else (tb, ta)
        base = c0 if dot > 0 else c1
        return BVFunction1D((affine_ramp(lo, hi, self.slope * dot),), base)


FieldND = BallIndicatorField | RadialPolynomialField | AffineClampField


def extract_section(field: FieldND, line: SectionLine) -> BVFunction1D:
    """Closed-form 1D restriction of a field to a line."""
    if len(line.sigma) != field.dimension:
        raise ValueError(
            f"line lives in dimension {len(line.sigma)}, field in {field.dimension}"
        )
    return field.extract_section(line)


# ---------------------------------------------------------------------------
# Monte Carlo sectioning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo value with statistical and systematic error terms.

    ``stderr`` is the sample standard deviation over sqrt(samples);
    ``systematic`` propagates the 1D enclosure half-widths, which the
    midpoint estimator cannot see statistically.  ``flagged`` marks runs
    where more than 0.1 percent of the sections failed to evaluate, and
    ``failure_reasons`` holds one ``"section {i}: {message}"`` per failed
    section, in section order.
    """

    mean: float
    stderr: float
    samples: int
    seed: int
    systematic: float = 0.0
    failures: int = 0
    flagged: bool = False
    failure_reasons: tuple[str, ...] = ()


def _frame_perp(sigma: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the hyperplane orthogonal to sigma.

    Axes are tried starting from the coordinate where sigma is smallest,
    with repeated projection for stability; near-degenerate candidates
    are skipped.  Rows of the result are the basis vectors.
    """
    n = sigma.size
    basis = [sigma]
    for ax in np.argsort(np.abs(sigma), kind="stable"):
        v = np.zeros(n)
        v[ax] = 1.0
        for _ in range(2):
            for b in basis:
                v = v - (v @ b) * b
        nv = float(np.linalg.norm(v))
        if nv > 1e-8:
            basis.append(v / nv)
        if len(basis) == n:
            break
    return np.stack(basis[1:], axis=0)


def _sample_lines(dimension: int, bound_radius: float, samples: int, seed: int):
    """Directions on the sphere and offsets in the orthogonal disk.

    All random draws happen upfront in a fixed order from a counter-based
    generator, so results do not depend on downstream chunking.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    sig = rng.standard_normal((samples, dimension))
    k = dimension - 1
    if k == 1:
        zf = rng.uniform(-1.0, 1.0, (samples, 1)) * bound_radius
    else:
        d = rng.standard_normal((samples, k))
        dn = np.linalg.norm(d, axis=1)
        dn[dn < 1e-12] = 1.0
        r = bound_radius * rng.random(samples) ** (1.0 / k)
        zf = d / dn[:, None] * r[:, None]
    nrm = np.linalg.norm(sig, axis=1)
    degen = nrm < 1e-12
    if degen.any():
        sig[degen] = 0.0
        sig[degen, 0] = 1.0
        nrm[degen] = 1.0
    sig /= nrm[:, None]
    return sig, zf


def _sections_for(field: FieldND, samples: int, seed: int) -> list[BVFunction1D]:
    sig, zf = _sample_lines(field.dimension, field.section_bound_radius, samples, seed)
    out = []
    for i in range(samples):
        s = sig[i]
        z = zf[i] @ _frame_perp(s)
        out.append(field.extract_section(SectionLine(tuple(s), tuple(z))))
    return out


def _mc_wrap(vals: np.ndarray, factor: float, seed: int, **extra) -> MCEstimate:
    n = vals.size
    mean = factor * float(vals.mean()) if n else 0.0
    stderr = factor * float(vals.std(ddof=1)) / math.sqrt(n) if n > 1 else 0.0
    return MCEstimate(mean, stderr, n, seed, **extra)


def _line_set_measure(field: FieldND) -> float:
    """Measure of the sampled lines: sphere area times offset-disk volume."""
    k = field.dimension - 1
    return sphere_area(k) * unit_ball_volume(k) * field.section_bound_radius**k


def F_nd_estimate(
    field: FieldND,
    gamma,
    lam: float,
    samples: int,
    seed: int,
    tol_1d: float | None = None,
    max_depth: int = 40,
) -> MCEstimate:
    """Monte Carlo functional value of an N-dimensional field.

    Sections are evaluated through the certified 1D engine in batches;
    the estimator uses enclosure midpoints, reporting the mean enclosure
    half-width (scaled like the mean) as ``systematic``.  ``tol_1d`` is
    the per-section enclosure width target; the default tracks each
    section's size, which can be needlessly tight for large sample
    counts.  Bad arguments raise before any section is evaluated.
    """
    q = ExceedanceQuery(gamma, lam, tol_1d, max_depth)
    if samples < 2:
        raise ValueError("samples must be at least 2")
    secs = _sections_for(field, samples, seed)
    mids = np.zeros(samples)
    hws = np.zeros(samples)
    ok = np.ones(samples, dtype=bool)
    reasons = []
    args = (q.gamma, q.lam, q.tol, q.max_depth)
    for i in range(0, samples, _SECTION_CHUNK):
        part = secs[i : i + _SECTION_CHUNK]
        try:
            encs = f_enclosures_batch(part, *args)
        except ValueError:
            encs = []
            for kk, u in enumerate(part):
                try:
                    encs.append(f_enclosures_batch([u], *args)[0])
                except ValueError as exc:
                    encs.append(None)
                    reasons.append(f"section {i + kk}: {exc}")
        for kk, enc in enumerate(encs):
            if enc is None:
                ok[i + kk] = False
            else:
                mids[i + kk] = enc.mid
                hws[i + kk] = 0.5 * enc.width
    n_used = int(ok.sum())
    n_fail = samples - n_used
    factor = _line_set_measure(field) / c_n_constant(1)
    systematic = factor * float(hws[ok].mean()) if n_used else 0.0
    return _mc_wrap(
        mids[ok],
        factor,
        seed,
        systematic=systematic,
        failures=n_fail,
        flagged=n_fail > 0.001 * samples,
        failure_reasons=tuple(reasons),
    )


def sectioning_variation_check(
    field: FieldND, which: str, samples: int, seed: int
) -> MCEstimate:
    """Monte Carlo integral of one section variation part over all lines.

    For an exact field model the result matches C_N times the field's
    corresponding variation mass (see :func:`variation_check_target`).
    Unlike the functional estimator this integrates the plain section
    variations, so no 1 / C_1 factor appears.
    """
    if which not in ("a", "j", "c"):
        raise ValueError("which must be one of 'a', 'j', 'c'")
    if samples < 2:
        raise ValueError("samples must be at least 2")
    secs = _sections_for(field, samples, seed)
    vals = np.array(
        [getattr(u.variation_decomposition(), which) for u in secs], dtype=float
    )
    return _mc_wrap(vals, _line_set_measure(field), seed)


def variation_check_target(field: FieldND, which: str) -> float:
    """Exact value the variation check converges to: C_N times the mass."""
    if which not in ("a", "j", "c"):
        raise ValueError("which must be one of 'a', 'j', 'c'")
    return c_n_constant(field.dimension) * getattr(field.variation_parts, which)
