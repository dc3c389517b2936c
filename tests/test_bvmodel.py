"""Tests for the structured BV function catalog."""

import math

import numpy as np
import pytest

from nugamma.bvmodel import (
    BVFunction1D,
    CantorPiece,
    JumpPiece,
    SmoothPiece,
    affine_ramp,
    cantor_eval,
    cantor_eval_array,
    cantor_piece,
    cantor_staircase,
    polynomial_piece,
    sine_ramp,
    single_jump,
    smoothstep_piece,
)


# ---------------------------------------------------------------------------
# Cantor staircase evaluation
# ---------------------------------------------------------------------------


def test_cantor_frozen_values():
    assert cantor_eval(0.0) == 0.0
    assert cantor_eval(1.0) == 1.0
    # First-level plateau: constant 1/2 on the middle third.
    assert cantor_eval(0.4) == 0.5
    assert cantor_eval(0.5) == 0.5
    # 1/3 and 1/9 are not binary-representable; the nearest floats sit a
    # few 1e-17 away and the staircase's Hoelder modulus (exponent
    # log 2 / log 3) amplifies that to the 1e-11 scale.
    assert abs(cantor_eval(1.0 / 3.0) - 0.5) < 1e-9
    assert abs(cantor_eval(1.0 / 9.0) - 0.25) < 1e-9
    # 1/4 has the purely periodic ternary expansion 0.020202..., whose
    # digit-halving image is the binary 0.010101... = 1/3.
    assert abs(cantor_eval(0.25) - 1.0 / 3.0) < 1e-9


def test_cantor_triadic_points():
    for k in range(1, 20):
        assert abs(cantor_eval(3.0**-k) - 2.0**-k) < 1e-9


def test_cantor_eval_domain_is_unit_interval():
    with pytest.raises(ValueError):
        cantor_eval(-0.5)
    with pytest.raises(ValueError):
        cantor_eval(7.25)
    # Clipping to the support is the piece's job, not the evaluator's.
    p = cantor_piece(0.0, 1.0, 1.0)
    assert p.increment(-0.5) == 0.0
    assert p.increment(7.25) == 1.0


def test_cantor_self_similarity_sampled():
    # c(t/3) = c(t)/2 and c(1 - t) = 1 - c(t).  Division by 3 and the
    # reflection are inexact in binary, so allow the resulting Hoelder
    # wobble (well below 1e-9 for unit-scale inputs).
    rng = np.random.default_rng(20240817)
    for t in rng.uniform(0.0, 1.0, size=300):
        t = float(t)
        c = cantor_eval(t)
        assert abs(cantor_eval(t / 3.0) - 0.5 * c) < 1e-9
        assert abs(cantor_eval(1.0 - t) - (1.0 - c)) < 1e-9


def test_cantor_monotone():
    rng = np.random.default_rng(7)
    ts = np.sort(rng.uniform(0.0, 1.0, size=500))
    vals = [cantor_eval(float(t)) for t in ts]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_cantor_eval_array_matches_scalar():
    rng = np.random.default_rng(11)
    ts = np.concatenate([rng.uniform(0.0, 1.0, size=64), [0.0, 1.0]])
    arr = cantor_eval_array(ts)
    for t, v in zip(ts, arr):
        assert v == cantor_eval(float(t))


# ---------------------------------------------------------------------------
# Smooth pieces
# ---------------------------------------------------------------------------


def test_affine_ramp_eval():
    p = affine_ramp(0.0, 0.1, 3.0)
    assert p.increment(-1.0) == 0.0
    assert abs(p.increment(0.05) - 0.15) < 1e-15
    assert abs(p.increment(0.1) - 0.3) < 1e-15
    assert abs(p.increment(2.0) - 0.3) < 1e-15
    assert abs(p.exact_tv - 0.3) < 1e-15


def test_smoothstep_values():
    p = smoothstep_piece(0.0, 1.0, 1.0)
    assert p.increment(0.5) == 0.5
    # 3 t^2 - 2 t^3 at t = 1/4.
    assert abs(p.increment(0.25) - 0.15625) < 1e-15
    assert p.increment(0.0) == 0.0
    assert p.increment(1.0) == 1.0


def test_sine_ramp_values():
    p = sine_ramp(0.0, 1.0, 2.0)
    assert abs(p.increment(0.5) - 1.0) < 1e-15
    expected = 2.0 * (1.0 - math.cos(math.pi * 0.25)) / 2.0
    assert abs(p.increment(0.25) - expected) < 1e-15


def test_polynomial_piece_tv_with_interior_extremum():
    # P(t) = t - t^2 rises to 1/4 at t = 1/2 and falls back: TV = 1/2.
    p = polynomial_piece(0.0, 1.0, [0.0, 1.0, -1.0])
    assert abs(p.exact_tv - 0.5) < 1e-14
    assert abs(p.increment(0.5) - 0.25) < 1e-15
    assert abs(p.increment(1.0)) < 1e-15


def test_osc_on_frozen():
    ramp = affine_ramp(0.0, 0.1, 3.0)
    assert abs(ramp.osc_on(0.0, 0.1) - 0.3) < 1e-15
    assert abs(ramp.osc_on(0.02, 0.04) - 0.06) < 1e-15
    assert ramp.osc_on(0.5, 0.7) == 0.0


def test_osc_dominates_sampled_pairs():
    pieces = [
        smoothstep_piece(0.0, 1.0, -0.7),
        sine_ramp(-1.0, 0.5, 1.3),
        polynomial_piece(0.2, 0.9, [0.1, 0.5, -0.4, 0.2]),
    ]
    rng = np.random.default_rng(3)
    for p in pieces:
        for _ in range(100):
            lo, hi = np.sort(rng.uniform(-1.5, 1.5, size=2))
            osc = p.osc_on(float(lo), float(hi))
            xs = rng.uniform(lo, hi, size=40)
            vals = [p.increment(float(x)) for x in xs]
            assert max(vals) - min(vals) <= osc + 1e-12


def test_jump_osc_half_open():
    # A jump at x contributes to intervals with lo < x <= hi: the pair
    # (x - eps, x) already straddles it, the pair (x, x + eps) does not.
    j = JumpPiece(location=1.0, height=2.0)
    assert j.osc_on(0.5, 1.0) == 2.0
    assert j.osc_on(1.0, 1.5) == 0.0
    assert j.osc_on(0.5, 0.9) == 0.0


def test_validation_errors():
    with pytest.raises(ValueError):
        affine_ramp(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        smoothstep_piece(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        cantor_piece(0.0, 1.0, 1.0, orientation=2)
    with pytest.raises(ValueError):
        JumpPiece(location=math.inf, height=1.0)
    with pytest.raises(ValueError):
        JumpPiece(location=0.0, height=0.0)


# ---------------------------------------------------------------------------
# Assembled functions
# ---------------------------------------------------------------------------


def composite():
    return BVFunction1D(
        pieces=(
            affine_ramp(0.0, 1.0, 1.0),
            JumpPiece(location=2.0, height=-0.5),
            smoothstep_piece(3.0, 4.0, 0.25),
        ),
        base_value=1.0,
    )


def test_eval_and_left_limits():
    u = single_jump(1.0)
    assert u.eval_left(0.0) == 0.0
    assert u.eval(0.0) == 1.0
    assert u.eval(-1e-9) == 0.0
    assert u.eval(5.0) == 1.0

    v = composite()
    assert v.eval(-1.0) == 1.0
    assert abs(v.eval(0.5) - 1.5) < 1e-15
    assert abs(v.eval_left(2.0) - 2.0) < 1e-15
    assert abs(v.eval(2.0) - 1.5) < 1e-15
    assert abs(v.eval(10.0) - 1.75) < 1e-15


def test_variation_decomposition():
    v = composite().variation_decomposition()
    assert abs(v.a - 1.25) < 1e-15
    assert v.j == 0.5
    assert v.c == 0.0
    assert abs(v.total - 1.75) < 1e-15

    w = cantor_staircase().variation_decomposition()
    assert w.a == 0.0 and w.j == 0.0 and w.c == 1.0


def test_partition_sums_approach_total_variation():
    u = composite()
    xs = np.linspace(-1.0, 5.0, 20001)
    vals = np.array([u.eval(float(x)) for x in xs])
    psum = float(np.abs(np.diff(vals)).sum())
    tv = u.total_variation
    assert psum <= tv + 1e-9
    assert psum >= tv - 1e-3


def test_partition_sum_below_tv_with_cantor():
    u = BVFunction1D(pieces=(cantor_piece(0.0, 1.0, 1.0), affine_ramp(2.0, 3.0, 2.0)))
    xs = np.linspace(-0.5, 3.5, 4001)
    vals = np.array([u.eval(float(x)) for x in xs])
    psum = float(np.abs(np.diff(vals)).sum())
    assert psum <= u.total_variation + 1e-9


def test_derivative_support():
    assert composite().derivative_support() == (0.0, 4.0)
    assert BVFunction1D(pieces=()).derivative_support() is None
    assert single_jump(1.0, location=3.0).derivative_support() == (3.0, 3.0)


def test_oscillation_bound_cantor_window():
    u = cantor_staircase()
    exact, osc = u.oscillation_bound((0.0, 1.0 / 3.0))
    assert exact
    assert abs(osc - 0.5) < 1e-9


def test_oscillation_bound_mixed_directions_flagged():
    u = BVFunction1D(
        pieces=(affine_ramp(0.0, 1.0, 1.0), smoothstep_piece(0.0, 1.0, -0.5))
    )
    exact, osc = u.oscillation_bound((0.0, 1.0))
    assert not exact
    assert osc >= 0.5


def test_oscillation_bound_dominates_sampled_pairs():
    u = composite()
    rng = np.random.default_rng(5)
    for _ in range(60):
        lo, hi = np.sort(rng.uniform(-1.0, 5.0, size=2))
        _, osc = u.oscillation_bound((float(lo), float(hi)))
        xs = rng.uniform(lo, hi, size=30)
        vals = [u.eval(float(x)) for x in xs]
        assert max(vals) - min(vals) <= osc + 1e-12


# ---------------------------------------------------------------------------
# Exact transforms
# ---------------------------------------------------------------------------


def test_scaled_pointwise():
    u = composite()
    v = u.scaled(-2.5)
    rng = np.random.default_rng(13)
    for x in rng.uniform(-1.0, 5.0, size=50):
        assert abs(v.eval(float(x)) - (-2.5) * u.eval(float(x))) < 1e-12
    assert abs(v.total_variation - 2.5 * u.total_variation) < 1e-12


def test_scaled_cantor_flips_orientation():
    u = cantor_staircase()
    v = u.scaled(-1.0)
    assert v.eval(0.5) == -0.5
    assert abs(v.total_variation - 1.0) < 1e-15


def test_dilated_pointwise():
    u = composite()
    for s in (0.5, 3.0):
        v = u.dilated(s)
        rng = np.random.default_rng(17)
        for x in rng.uniform(-2.0, 14.0, size=50):
            assert abs(v.eval(float(x)) - u.eval(float(x) / s)) < 1e-12
        assert abs(v.total_variation - u.total_variation) < 1e-12


def test_translated_pointwise():
    u = composite()
    v = u.translated(-7.0)
    rng = np.random.default_rng(19)
    for x in rng.uniform(-9.0, 0.0, size=50):
        assert abs(v.eval(float(x)) - u.eval(float(x) + 7.0)) < 1e-12


def test_scaled_zero_gives_constant():
    v = composite().scaled(0.0)
    assert v.pieces == ()
    assert v.total_variation == 0.0
