"""Tests for N-dimensional fields, line sections, and MC sectioning."""

import math

import numpy as np
import pytest

from nugamma.sectionnd import (
    AffineClampField,
    BallIndicatorField,
    F_nd_estimate,
    RadialPolynomialField,
    SectionLine,
    _frame_perp,
    c_n_constant,
    extract_section,
    sectioning_variation_check,
    sphere_area,
    unit_ball_volume,
    variation_check_target,
)
from nugamma.asymptotics import sbv_target


# ---------------------------------------------------------------------------
# Dimensional constants
# ---------------------------------------------------------------------------


def test_ball_volume_frozen():
    assert unit_ball_volume(0) == 1.0
    assert unit_ball_volume(1) == 2.0
    assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-15)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-15)


def test_sphere_area_frozen():
    assert sphere_area(0) == 2.0
    assert sphere_area(1) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert sphere_area(2) == pytest.approx(4.0 * math.pi, rel=1e-15)


def test_c_n_frozen():
    assert c_n_constant(1) == 2.0
    assert c_n_constant(2) == 4.0
    assert c_n_constant(3) == pytest.approx(2.0 * math.pi, rel=1e-15)


def first_coordinate_sphere_integral(N: int, n: int = 400001) -> float:
    """Independent quadrature of the |first coordinate| sphere integral.

    Reduces to a 1D polar integral: the slice of the unit sphere in
    dimension N at polar angle phi from the first axis is a sphere of
    dimension N-2 with radius sin(phi).
    """
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    if N == 1:
        return 2.0
    if N == 2:
        phi = np.linspace(0.0, 2.0 * math.pi, n)
        return float(trapezoid(np.abs(np.cos(phi)), phi))
    phi = np.linspace(0.0, math.pi, n)
    ring = sphere_area(N - 2) * np.sin(phi) ** (N - 2)
    return float(trapezoid(np.abs(np.cos(phi)) * ring, phi))


def test_c_n_against_sphere_quadrature():
    for N, expect in ((1, 2.0), (2, 4.0), (3, 2.0 * math.pi), (4, 8.0 * math.pi / 3.0)):
        quad = first_coordinate_sphere_integral(N)
        assert abs(c_n_constant(N) - quad) < 1e-6
        assert abs(c_n_constant(N) - expect) < 1e-12


# ---------------------------------------------------------------------------
# Section lines and frames
# ---------------------------------------------------------------------------


def test_section_line_validation():
    SectionLine(sigma=(0.0, 1.0), z=(0.5, 0.0))
    with pytest.raises(ValueError):
        SectionLine(sigma=(0.0, 2.0), z=(0.0, 0.0))
    with pytest.raises(ValueError):
        SectionLine(sigma=(0.0, 1.0), z=(0.0, 1.0))


def test_frame_perp_orthonormal():
    rng = np.random.default_rng(31)
    for N in (2, 3, 5):
        for _ in range(20):
            sigma = rng.normal(size=N)
            sigma /= np.linalg.norm(sigma)
            frame = _frame_perp(sigma)
            assert frame.shape == (N - 1, N)
            gram = frame @ frame.T
            assert np.allclose(gram, np.eye(N - 1), atol=1e-10)
            assert np.allclose(frame @ sigma, 0.0, atol=1e-10)


# ---------------------------------------------------------------------------
# Field sections match direct evaluation
# ---------------------------------------------------------------------------


def test_ball_section_jump_locations():
    field = BallIndicatorField(dimension=2, center=(0.0, 0.0), radius=1.0, height=1.0)
    line = SectionLine(sigma=(1.0, 0.0), z=(0.0, 0.6))
    u = extract_section(field, line)
    chord = math.sqrt(1.0 - 0.36)
    locs = sorted(p.location for p in u.pieces)
    assert locs == pytest.approx([-chord, chord], abs=1e-12)
    assert u.eval(0.0) == 1.0
    assert u.eval(2.0) == 0.0
    assert u.total_variation == 2.0


def test_ball_section_missing_line_is_constant():
    field = BallIndicatorField(dimension=2, center=(0.0, 0.0), radius=1.0, height=3.0)
    line = SectionLine(sigma=(1.0, 0.0), z=(0.0, 1.5))
    u = extract_section(field, line)
    assert u.pieces == ()
    assert u.eval(0.0) == 0.0


def test_ball_section_through_center():
    field = BallIndicatorField(dimension=3, center=(1.0, 0.0, 0.0), radius=2.0, height=-1.5)
    line = SectionLine(sigma=(1.0, 0.0, 0.0), z=(0.0, 0.0, 0.0))
    u = extract_section(field, line)
    locs = sorted(p.location for p in u.pieces)
    assert locs == pytest.approx([-1.0, 3.0], abs=1e-12)
    assert u.eval(0.5) == -1.5


def test_radial_section_matches_field_eval():
    field = RadialPolynomialField(dimension=2, radius=2.0, coeffs=[1.0, -2.0, 1.0])
    line = SectionLine(sigma=(0.0, 1.0), z=(0.5, 0.0))
    u = extract_section(field, line)

    def field_eval(point):
        q = (np.dot(point, point)) / 4.0
        if q >= 1.0:
            return 0.0
        return float(np.polynomial.polynomial.polyval(q, [1.0, -2.0, 1.0]))

    for t in np.linspace(-3.0, 3.0, 41):
        pt = np.array([0.5, 0.0]) + t * np.array([0.0, 1.0])
        assert u.eval(float(t)) == pytest.approx(field_eval(pt), abs=1e-10)


def test_radial_grazing_line_is_constant():
    field = RadialPolynomialField(dimension=2, radius=1.0, coeffs=[1.0, -1.0])
    line = SectionLine(sigma=(0.0, 1.0), z=(1.5, 0.0))
    u = extract_section(field, line)
    assert u.pieces == ()


def test_radial_variation_parts_frozen():
    # P(q) = 1 - q on the unit disk: |P'| = 1, so the smooth mass is
    # the circumference integral 2*pi*R*integral(q^(1/2)) = 4*pi/3.
    field = RadialPolynomialField(dimension=2, radius=1.0, coeffs=[1.0, -1.0])
    parts = field.variation_parts
    assert parts.a == pytest.approx(4.0 * math.pi / 3.0, rel=1e-12)
    assert parts.j == 0.0 and parts.c == 0.0


def test_clamp_section_matches_formula():
    field = AffineClampField(
        dimension=2,
        direction=(1.0, 0.0),
        slope=2.0,
        clamp=(0.0, 3.0),
        clamp_length=4.0,
    )
    line = SectionLine(sigma=(1.0, 0.0), z=(0.0, 0.0))
    u = extract_section(field, line)
    for t in (-5.0, -0.1, 0.5, 1.4, 2.0):
        expect = min(max(2.0 * t, 0.0), 3.0)
        assert u.eval(float(t)) == pytest.approx(expect, abs=1e-12)
    assert u.total_variation == pytest.approx(3.0)


def test_clamp_perpendicular_line_is_constant():
    field = AffineClampField(
        dimension=2,
        direction=(1.0, 0.0),
        slope=1.0,
        clamp=(-1.0, 1.0),
        clamp_length=2.0,
    )
    line = SectionLine(sigma=(0.0, 1.0), z=(0.5, 0.0))
    u = extract_section(field, line)
    assert u.pieces == ()
    assert u.eval(0.0) == pytest.approx(0.5)


def test_extract_section_dimension_mismatch():
    field = BallIndicatorField(dimension=3, center=(0.0, 0.0, 0.0), radius=1.0, height=1.0)
    with pytest.raises(ValueError):
        extract_section(field, SectionLine(sigma=(1.0, 0.0), z=(0.0, 0.0)))


# ---------------------------------------------------------------------------
# Monte Carlo sectioning
# ---------------------------------------------------------------------------


def test_variation_check_ball_jump_part():
    field = BallIndicatorField(dimension=2, center=(0.0, 0.0), radius=1.0, height=1.0)
    est = sectioning_variation_check(field, "j", samples=4000, seed=42)
    target = variation_check_target(field, "j")
    assert target == pytest.approx(4.0 * 2.0 * math.pi, rel=1e-12)
    assert abs(est.mean - target) <= 3.0 * est.stderr + 1e-9
    assert est.stderr < 0.02 * target


def test_variation_check_radial_smooth_part():
    field = RadialPolynomialField(dimension=2, radius=2.0, coeffs=[1.0, -2.0, 1.0])
    est = sectioning_variation_check(field, "a", samples=4000, seed=9)
    target = variation_check_target(field, "a")
    assert abs(est.mean - target) <= 3.0 * est.stderr


def test_variation_check_clamp_exact_per_line():
    # Every non-perpendicular line crosses the whole clamp band, so each
    # section carries the full rise and the sample has no spread at all.
    field = AffineClampField(
        dimension=2,
        direction=(1.0, 0.0),
        slope=1.5,
        clamp=(0.0, 2.0),
        clamp_length=3.0,
    )
    est = sectioning_variation_check(field, "a", samples=4000, seed=3)
    target = variation_check_target(field, "a")
    assert abs(est.mean - target) <= 3.0 * est.stderr + 1e-9


def test_variation_check_clamp_three_dimensional():
    # The sampling radius solves a dimension-dependent normalisation;
    # in 3 dimensions it involves a square root, so allow a few ulps.
    field = AffineClampField(
        dimension=3,
        direction=(0.0, 1.0, 0.0),
        slope=1.0,
        clamp=(-1.0, 1.0),
        clamp_length=2.0,
    )
    est = sectioning_variation_check(field, "a", samples=2000, seed=9)
    target = variation_check_target(field, "a")
    assert abs(est.mean - target) <= 3.0 * est.stderr + 1e-12 * target


def test_variation_check_seed_reproducible():
    # Offset center so the sampling window is larger than the ball and
    # the hit fraction actually depends on the draw.
    field = BallIndicatorField(dimension=2, center=(0.5, 0.0), radius=1.0, height=1.0)
    a = sectioning_variation_check(field, "j", samples=500, seed=7)
    b = sectioning_variation_check(field, "j", samples=500, seed=7)
    assert a.mean == b.mean and a.stderr == b.stderr
    c = sectioning_variation_check(field, "j", samples=500, seed=8)
    assert c.mean != a.mean


def test_f_nd_disk_small_run():
    field = BallIndicatorField(dimension=2, center=(0.0, 0.0), radius=1.0, height=1.0)
    est = F_nd_estimate(field, 1.0, 1e4, samples=400, seed=5, tol_1d=4e-3)
    target = 4.0 * math.pi
    assert est.failures == 0 and not est.flagged
    assert abs(est.mean - target) <= 3.0 * est.stderr + est.systematic + 1e-9


def test_f_nd_records_value_errors_and_propagates_others(monkeypatch):
    import nugamma.sectionnd as sectionnd

    field = BallIndicatorField(dimension=2, center=(0.0, 0.0), radius=1.0, height=1.0)
    engine = sectionnd.f_enclosures_batch
    calls = []

    def flaky(funcs, *args, **kwargs):
        # The batch fails, and so does its first section retried alone.
        calls.append(len(funcs))
        if len(calls) <= 2:
            raise ValueError("engine failure")
        return engine(funcs, *args, **kwargs)

    monkeypatch.setattr(sectionnd, "f_enclosures_batch", flaky)
    est = F_nd_estimate(field, 1.0, 1e2, samples=6, seed=3, tol_1d=0.05)
    assert calls == [6, 1, 1, 1, 1, 1, 1]
    assert est.failures == 1 and est.samples == 5
    assert est.failure_reasons == ("section 0: engine failure",)

    def broken(*args, **kwargs):
        raise TypeError("programming error")

    monkeypatch.setattr(sectionnd, "f_enclosures_batch", broken)
    with pytest.raises(TypeError):
        F_nd_estimate(field, 1.0, 1e2, samples=6, seed=3, tol_1d=0.05)


def test_f_nd_rejects_bad_lambda():
    field = BallIndicatorField(dimension=2, center=(0.0, 0.0), radius=1.0, height=1.0)
    with pytest.raises(ValueError):
        F_nd_estimate(field, 1.0, -1.0, samples=6, seed=3)


def test_f_nd_translation_invariance():
    lam = 1e4
    a = F_nd_estimate(
        BallIndicatorField(dimension=2, center=(0.0, 0.0), radius=1.0, height=1.0),
        1.0, lam, samples=300, seed=11, tol_1d=4e-3,
    )
    b = F_nd_estimate(
        BallIndicatorField(dimension=2, center=(5.0, -3.0), radius=1.0, height=1.0),
        1.0, lam, samples=300, seed=11, tol_1d=4e-3,
    )
    gate = 3.0 * (a.stderr + b.stderr) + a.systematic + b.systematic + 1e-9
    assert abs(a.mean - b.mean) <= gate


def test_f_nd_radial_matches_sbv_target():
    field = RadialPolynomialField(dimension=2, radius=2.0, coeffs=[1.0, -2.0, 1.0])
    est = F_nd_estimate(field, 1.0, 1e4, samples=150, seed=2, tol_1d=4e-3)
    target = sbv_target(field.variation_parts, 1.0, dimension=2)
    assert abs(est.mean - target) <= 3.0 * est.stderr + est.systematic + 1e-9


def test_field_validation():
    with pytest.raises(ValueError):
        BallIndicatorField(dimension=1, center=(0.0,), radius=1.0, height=1.0)
    with pytest.raises(ValueError):
        BallIndicatorField(dimension=2, center=(0.0, 0.0), radius=-1.0, height=1.0)
    with pytest.raises(ValueError):
        BallIndicatorField(dimension=2, center=(0.0, 0.0), radius=1.0, height=0.0)
    with pytest.raises(ValueError):
        RadialPolynomialField(dimension=2, radius=0.0, coeffs=[1.0])
    with pytest.raises(ValueError):
        AffineClampField(
            dimension=2,
            direction=(0.0, 0.0),
            slope=1.0,
            clamp=(0.0, 1.0),
            clamp_length=1.0,
        )
    with pytest.raises(ValueError):
        AffineClampField(
            dimension=2,
            direction=(1.0, 0.0),
            slope=1.0,
            clamp=(1.0, 0.0),
            clamp_length=1.0,
        )
