"""Tests for the certified branch-and-bound functional evaluation."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from nugamma.bvmodel import (
    BVFunction1D,
    JumpPiece,
    affine_ramp,
    cantor_eval,
    cantor_piece,
    cantor_staircase,
    polynomial_piece,
    sine_ramp,
    single_jump,
    smoothstep_piece,
)
from nugamma.asymptotics import gadget_jump_measure
from nugamma.functional1d import (
    BoxVerdict,
    _Batch,
    _split_wave,
    ExceedanceQuery,
    ZeroVariationError,
    classify_box,
    closed_form_jump_F,
    f_enclosures_batch,
    F_value,
    measure_exceedance,
    pair_increment_bounds,
    truncation_radius,
)
from nugamma.numeasure import Enclosure, PlaneBox


def test_truncation_radius_frozen():
    assert truncation_radius(1.0, 100.0, 1.0) == pytest.approx(0.1, rel=1e-12)
    assert truncation_radius(1.0, 1.0, 0.7) == 1.0
    assert truncation_radius(1.0, 8.0, 3.0) == pytest.approx(0.125**0.25, rel=1e-12)
    # Any object exposing total_variation works too.
    assert truncation_radius(single_jump(1.0), 100.0, 1.0) == pytest.approx(0.1)


def test_truncation_radius_zero_variation():
    with pytest.raises(ZeroVariationError):
        truncation_radius(0.0, 10.0, 1.0)


def test_closed_form_jump_frozen():
    assert closed_form_jump_F(1.0, 1.0) == 1.0
    assert abs(closed_form_jump_F(0.5, 0.5) - 2.0 / 3.0) < 1e-15
    assert closed_form_jump_F(-1.0, 1.0) == 1.0


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_batch_rejects_bad_tol(tol):
    with pytest.raises(ValueError):
        f_enclosures_batch([single_jump(1.0)], 1.0, 10.0, tol, max_depth=4)


def test_query_validation():
    ExceedanceQuery(gamma=1.0, lam=10.0)
    with pytest.raises(ValueError):
        ExceedanceQuery(gamma=0.0, lam=10.0)
    with pytest.raises(ValueError):
        ExceedanceQuery(gamma=1.0, lam=0.0)
    with pytest.raises(ValueError):
        ExceedanceQuery(gamma=1.0, lam=10.0, tol=0.0)


# ---------------------------------------------------------------------------
# Enclosures against closed forms
# ---------------------------------------------------------------------------


def test_jump_enclosures_contain_closed_form():
    for height in (1.0, -0.5, 2.0):
        for g in (0.5, 1.0, 2.0):
            for lam in (1.0, 100.0):
                u = single_jump(height)
                enc = F_value(u, ExceedanceQuery(gamma=g, lam=lam))
                exact = closed_form_jump_F(height, g)
                assert enc.lo <= exact <= enc.hi
                assert enc.tol_met


def test_constant_function_evaluates_to_zero():
    u = BVFunction1D(pieces=())
    enc = f_enclosures_batch([u], 1.0, 10.0)[0]
    assert enc.lo == 0.0 and enc.hi == 0.0 and enc.tol_met


def test_constant_sections_share_the_refinement():
    # A constant section has no jumps, so the closed form gives it
    # exactly [0, 0]; sharing a batch must not disturb its neighbours.
    jump = single_jump(1.0, 0.3)
    alone = f_enclosures_batch([jump], 1.0, 10.0, 1e-3)[0]
    flat = BVFunction1D(pieces=(), base_value=3.0)
    zero, enc = f_enclosures_batch([flat, jump], 1.0, 10.0, 1e-3)
    assert (zero.lo, zero.hi, zero.tol_met) == (0.0, 0.0, True)
    assert (enc.lo, enc.hi, enc.tol_met) == (alone.lo, alone.hi, alone.tol_met)
    assert f_enclosures_batch([], 1.0, 10.0) == []


def test_batch_tables_pad_inertly():
    funcs = [
        single_jump(2.0, 1.0),
        BVFunction1D(
            pieces=(
                affine_ramp(0.0, 1.0, 1.0),
                polynomial_piece(2.0, 3.0, (0.0, 1.0, -3.0, 2.0)),
                JumpPiece(location=4.0, height=-1.0),
            )
        ),
        BVFunction1D(pieces=(), base_value=1.0),
    ]
    B = _Batch(funcs)
    assert (B.S, B.Kj, B.Ks, B.Kc, B.Kp) == (3, 1, 1, 0, 1)
    assert B.origin.tolist() == [1.0, 0.0, 0.0]
    assert B.jump_only.tolist() == [True, False, True]
    assert B.jloc.tolist() == [[0.0], [4.0], [math.inf]]
    assert B.jh.tolist() == [[2.0], [-1.0], [0.0]]
    assert B.scode.dtype == np.int8 and B.svar.dtype == bool
    assert B.sb.tolist() == [[0.0], [1.0], [1.0]]
    assert B.srise.tolist() == [[0.0], [1.0], [0.0]]
    assert B.ca.shape == B.cb.shape == B.crise.shape == (3, 0)
    assert B.pcoef.tolist()[1] == [[0.0, 1.0, -3.0, 2.0]]
    assert B.pder.tolist()[1] == [[1.0, -6.0, 6.0, 0.0]]
    assert not B.pcoef[[0, 2]].any() and not B.pder[[0, 2]].any()
    assert B.pvar.tolist() == [[False], [True], [False]]
    assert np.isnan(B.pcrit[[0, 2]]).all() and np.isnan(B.pdcrit[[0, 2]]).all()
    assert np.isinf(B.feat[0, 1:]).all() and np.isinf(B.feat[2]).all()


def test_ramp_exceedance_measure_small_lambda_band():
    # For a unit-slope ramp on [0,1] at gamma=1 the exceedance region is
    # a sliver of area about slope/lam, with curvature corrections well
    # under 5% by lam = 1e3.
    u = BVFunction1D(pieces=(affine_ramp(0.0, 1.0, 1.0),))
    lam = 1e3
    enc = measure_exceedance(u, ExceedanceQuery(gamma=1.0, lam=lam, tol=1e-5))
    assert enc.mid == pytest.approx(1.0 / lam, rel=0.05)


def test_far_jump_matches_jump_at_origin():
    # Translation is an exact symmetry of F, so a jump far out on the line
    # must refine exactly like one at the origin.
    q = ExceedanceQuery(gamma=1.0, lam=1e12, tol=1e-3)
    far = F_value(single_jump(1.0, 1e10), q)
    near = F_value(single_jump(1.0, 0.0), q)
    assert (far.lo, far.hi, far.tol_met) == (near.lo, near.hi, near.tol_met)
    assert far.tol_met and far.lo <= 1.0 <= far.hi


def test_batch_order_and_determinism():
    funcs = [single_jump(1.0), single_jump(2.0), BVFunction1D(pieces=())]
    out1 = f_enclosures_batch(funcs, 1.0, 10.0)
    out2 = f_enclosures_batch(funcs, 1.0, 10.0)
    assert [e.lo for e in out1] == [e.lo for e in out2]
    assert [e.hi for e in out1] == [e.hi for e in out2]
    assert out1[2].hi == 0.0
    # Height 2 jump carries more mass than height 1 at the same lambda.
    assert out1[1].lo > out1[0].hi


def test_lambda_monotone_exceedance_measure():
    # The exceedance set shrinks as lambda grows, so the kernel measure
    # cannot rise; certified enclosures may only overlap slightly.
    u = BVFunction1D(
        pieces=(affine_ramp(0.0, 1.0, 2.0), JumpPiece(location=0.5, height=1.0))
    )
    lams = [2.0, 10.0, 50.0, 250.0]
    encs = [
        measure_exceedance(u, ExceedanceQuery(gamma=1.0, lam=lam, tol=1e-4))
        for lam in lams
    ]
    for a, b in zip(encs, encs[1:]):
        assert b.lo <= a.hi + 1e-15


def test_smooth_pieces_tight_at_large_lambda():
    # Regression guard: slope localisation used to stall on these, with
    # runaway splitting and meaningless widths.
    cases = [
        (BVFunction1D(pieces=(smoothstep_piece(0.0, 1.0, 1.0),)), 2.0),
        (BVFunction1D(pieces=(sine_ramp(0.0, 1.0, 1.0),)), 2.0),
        (BVFunction1D(pieces=(polynomial_piece(0.0, 1.0, [0.0, 1.0, -0.5]),)), 1.0),
    ]
    for u, limit in cases:
        enc = f_enclosures_batch([u], 1.0, 1e5, tol=0.01)[0]
        assert enc.tol_met
        assert enc.width <= 0.01
        assert abs(enc.mid - limit) < 0.02


def test_grid_estimate_inside_enclosure():
    # A plain midpoint estimate of the exceedance mass is not certified,
    # but with a fine grid it must land inside a a slightly widened
    # certified enclosure.
    u = BVFunction1D(
        pieces=(affine_ramp(0.0, 1.0, 1.0), JumpPiece(location=2.0, height=0.5))
    )

    def u_np(x):
        return np.clip(x, 0.0, 1.0) + 0.5 * (x >= 2.0)

    g, lam = 1.0, 25.0
    enc = measure_exceedance(u, ExceedanceQuery(gamma=g, lam=lam, tol=1e-5))
    H = truncation_radius(u.total_variation, lam, g)
    xs = np.linspace(-H, 3.0, 2401)
    hs = np.linspace(0.0, H, 2401)
    xm = 0.5 * (xs[:-1] + xs[1:])
    hm = 0.5 * (hs[:-1] + hs[1:])
    X, Hh = np.meshgrid(xm, hm, indexing="ij")
    exceed = np.abs(u_np(X + Hh) - u_np(X)) > lam * Hh ** (1.0 + g)
    cell = np.diff(xs)[:, None] * (Hh ** (g - 1.0)) * np.diff(hs)[None, :]
    est = float((cell * exceed).sum())
    assert enc.lo - 0.05 * enc.hi <= est <= enc.hi * 1.05


def test_cantor_grid_estimate_inside_enclosure():
    # Pairs reaching past the right end of the staircase's support count
    # too; an evaluator that read the staircase at t = 1 as 1/2 certified
    # half of this value.
    u = cantor_staircase(0.0, 1.0, 1.0)
    g, lam = 1.0, 25.0
    enc = measure_exceedance(u, ExceedanceQuery(gamma=g, lam=lam, tol=1e-2))
    H = truncation_radius(u.total_variation, lam, g)
    xs = np.linspace(-H, 1.0, 601)
    hs = np.linspace(0.0, H, 601)
    xm = 0.5 * (xs[:-1] + xs[1:])
    hm = 0.5 * (hs[:-1] + hs[1:])
    X, Hh = np.meshgrid(xm, hm, indexing="ij")
    u_np = np.vectorize(lambda x: cantor_eval(min(max(x, 0.0), 1.0)))
    exceed = np.abs(u_np(X + Hh) - u_np(X)) > lam * Hh ** (1.0 + g)
    cell = np.diff(xs)[:, None] * (Hh ** (g - 1.0)) * np.diff(hs)[None, :]
    est = float((cell * exceed).sum())
    assert enc.lo - 0.05 * enc.hi <= est <= enc.hi * 1.05


# ---------------------------------------------------------------------------
# Box classification
# ---------------------------------------------------------------------------


def test_classify_box_outside():
    u = single_jump(1.0)
    q = ExceedanceQuery(gamma=1.0, lam=1.0)
    box = PlaneBox((-0.5, -0.2), (2.0, 3.0))
    assert classify_box(u, box, q) is BoxVerdict.OUTSIDE


def test_classify_box_inside():
    u = single_jump(1.0)
    q = ExceedanceQuery(gamma=1.0, lam=1.0)
    box = PlaneBox((-0.05, -0.01), (0.1, 0.2))
    assert classify_box(u, box, q) is BoxVerdict.INSIDE


def test_classify_box_mixed():
    u = single_jump(1.0)
    q = ExceedanceQuery(gamma=1.0, lam=1.0)
    # Pairs left of the jump never exceed; straddling ones with small
    # separation do.
    box = PlaneBox((-0.5, -0.01), (0.1, 0.6))
    assert classify_box(u, box, q) is BoxVerdict.MIXED


def test_pair_increment_bounds_bracket_samples():
    families = [
        (
            affine_ramp(0.0, 1.0, 1.0),
            JumpPiece(location=0.5, height=-0.25),
            smoothstep_piece(0.2, 0.8, 0.4),
        ),
        # Mixed directions, where the signed intervals of pieces cancel.
        (JumpPiece(location=0.3, height=1.0), JumpPiece(location=0.35, height=-1.0)),
        (cantor_piece(0.0, 1.0, -1.0), affine_ramp(0.2, 0.9, 1.5)),
        (
            polynomial_piece(0.0, 1.0, [0.0, 1.0, -3.0, 2.0]),
            JumpPiece(location=0.6, height=0.3),
        ),
    ]
    for pieces in families:
        u = BVFunction1D(pieces=pieces)
        rng = np.random.default_rng(23)
        boxes = []
        for _ in range(50):
            x0, x1 = np.sort(rng.uniform(-0.5, 1.5, size=2))
            h0, h1 = np.sort(rng.uniform(0.01, 1.0, size=2))
            boxes.append((x0, x1, h0, h1))
        # Thin boxes, whose pairs all straddle the same features, so the
        # lower bounds are nonzero.
        for _ in range(50):
            x0 = rng.uniform(-0.2, 1.0)
            h0 = rng.uniform(0.001, 0.3)
            dx, dh = 10.0 ** rng.uniform(-5.0, -1.0, size=2)
            boxes.append((x0, x0 + dx, h0, h0 + dh))
        for x0, x1, h0, h1 in boxes:
            if x1 - x0 < 1e-6 or h1 - h0 < 1e-6:
                continue
            box = PlaneBox((float(x0), float(x1)), (float(h0), float(h1)))
            low, up = pair_increment_bounds(u, box)
            # Every pair lies in [x0, x1 + h1], so the scalar oscillation
            # oracle bounds the engine's upper end; the slack covers the
            # Cantor span nudge.
            osc = u.oscillation_bound((float(x0), float(x1 + h1)))
            assert up <= osc + 1e-8 * u.total_variation
            xs = rng.uniform(x0, x1, size=25)
            hs = rng.uniform(h0, h1, size=25)
            for x, h in zip(xs, hs):
                d = abs(u.eval(float(x + h)) - u.eval(float(x)))
                assert low - 1e-12 <= d <= up + 1e-12


def _opposite_jumps_F(d, gamma, lam):
    """F of two opposite unit jumps a distance d apart.

    Pairs straddling one jump move by 1 and exceed below the cutoff
    H = lam^(-1/(1+gamma)); pairs straddling both move by 0.
    """
    g = gamma
    H = lam ** (-1.0 / (1.0 + g))
    s = min(d, H)
    return 2.0 * lam * 2.0 * (s ** (1.0 + g) / (1.0 + g) + d * (H**g - s**g) / g)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("d", [0.02, 0.05])
@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_opposite_jumps_closed_form(sign, d, gamma):
    lam, tol = 1e2, 1e-3
    u = BVFunction1D(pieces=(JumpPiece(0.0, sign), JumpPiece(d, -sign)))
    enc = F_value(u, ExceedanceQuery(gamma=gamma, lam=lam, tol=tol))
    exact = _opposite_jumps_F(d, gamma, lam)
    assert enc.lo <= exact <= enc.hi
    assert enc.tol_met and enc.width <= tol
    # The same input through the branch-and-bound, where pairs straddling
    # both jumps resolve only if their increments cancel.
    (ref,) = _refined([u], gamma, lam, tol, max_depth=40)
    assert ref.lo <= exact <= ref.hi
    assert ref.tol_met and ref.width <= tol


def _refined(funcs, gamma, lam, tol, max_depth):
    """Branch-and-bound enclosures of every function, jump-only ones too."""
    B = _Batch(funcs)
    scale = 2.0 * lam
    lo, slack, met = _split_wave(B, gamma, lam, tol / scale, max_depth, np.arange(B.S))
    return [
        Enclosure(scale * lo[k], scale * (lo[k] + slack[k]), bool(met[k]))
        for k in range(B.S)
    ]


def _jump_family(rng, K):
    """K jumps at random; for K > 1 the first two share a location and the
    last two heights nearly cancel."""
    loc = rng.uniform(-0.3, 0.3, K)
    h = rng.choice([-1.0, 1.0], K) * rng.uniform(0.2, 2.0, K)
    if K > 1:
        loc[1] = loc[0]
        h[-1] = -h[-2] * (1.0 + 1e-9)
    return BVFunction1D(tuple(JumpPiece(float(a), float(b)) for a, b in zip(loc, h)))


def _jump_F_decimal(u, gamma, lam):
    """F of a jump-only function in 50-digit decimal arithmetic.

    Sums, over runs i..j of consecutive jumps, the kernel mass below the
    run's cutoff of the trapezoid of pairs straddling exactly that run,
    as four signed ramps.  Floats convert to decimals exactly, so only
    the cutoff powers round, far below float precision.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        g, lam = Decimal(gamma), Decimal(lam)
        jumps = sorted(u.pieces, key=lambda p: p.location)
        p = [Decimal(j.location) for j in jumps]
        J = [Decimal(j.height) for j in jumps]
        K = len(p)

        def Q(e, c):
            if e is None or e >= c:
                return Decimal(0)
            return c ** (1 + g) / (1 + g) - e * c**g / g + e ** (1 + g) / (g * (1 + g))

        def gap(a, b):
            return None if a is None or b is None else a - b

        nu = Decimal(0)
        for i in range(K):
            left = p[i - 1] if i > 0 else None
            for j in range(i, K):
                right = p[j + 1] if j + 1 < K else None
                c = (abs(sum(J[i : j + 1])) / lam) ** (1 / (1 + g))
                nu += Q(p[j] - p[i], c) - Q(gap(p[j], left), c)
                nu += Q(gap(right, left), c) - Q(gap(right, p[i]), c)
        return 2 * lam * nu


@pytest.mark.parametrize("lam", [10.0, 1e3])
@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_jump_closed_form_overlaps_refinement(gamma, lam):
    # Three evaluators of the same jump families: the float closed form
    # of the jump-only path must contain the decimal one and overlap the
    # branch-and-bound.
    rng = np.random.default_rng(2024)
    funcs = [_jump_family(rng, K) for K in range(1, 7) for _ in range(2)]
    exact = f_enclosures_batch(funcs, gamma, lam, tol=1e-2)
    refined = _refined(funcs, gamma, lam, 1e-2, max_depth=24)
    for u, e, r in zip(funcs, exact, refined):
        assert Decimal(e.lo) <= _jump_F_decimal(u, gamma, lam) <= Decimal(e.hi)
        assert e.overlaps(r)
        # Near-cancelling pairs lose relative accuracy, not absolute.
        assert e.tol_met and 0.0 < e.width <= 1e-12 * u.total_variation


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_jump_closed_form_contains_known_values(gamma):
    lam = 1e2
    rng = np.random.default_rng(5)
    for height, x in zip(rng.uniform(-3.0, 3.0, 4), rng.uniform(-1e6, 1e6, 4)):
        (enc,) = f_enclosures_batch([single_jump(float(height), float(x))], gamma, lam)
        assert enc.lo <= closed_form_jump_F(float(height), gamma) <= enc.hi
    # Jumps far enough apart that only single-jump pairs exceed, with
    # heights chosen so that each cutoff equals its delta.
    deltas = (0.5, 1.0, 2.0)
    u = BVFunction1D(
        tuple(
            JumpPiece(10.0 * k, (-1.0) ** k * lam * d ** (1.0 + gamma))
            for k, d in enumerate(deltas)
        )
    )
    (enc,) = f_enclosures_batch([u], gamma, lam)
    assert enc.lo <= 2.0 * lam * gadget_jump_measure(deltas, gamma) <= enc.hi
    # A close opposite pair 2000 away from the section's first jump: the
    # shift to the origin rounds each stored location by up to an ulp of
    # 2000, which moves the pair's gap by a relative 1e-11 or so.
    for x, d in zip(rng.uniform(999.0, 1001.0, 4), rng.uniform(0.005, 0.02, 4)):
        u = BVFunction1D(
            (JumpPiece(-1000.0, 0.5), JumpPiece(x, 1.0), JumpPiece(x + d, -1.0))
        )
        (enc,) = f_enclosures_batch([u], gamma, lam)
        assert Decimal(enc.lo) <= _jump_F_decimal(u, gamma, lam) <= Decimal(enc.hi)
    # Far out on the line, where the gap 0.0625 is still exact in float.
    d = 0.0625
    u = BVFunction1D((JumpPiece(1e10, 1.0), JumpPiece(1e10 + d, -1.0)))
    (enc,) = f_enclosures_batch([u], gamma, lam)
    assert enc.lo <= _opposite_jumps_F(d, gamma, lam) <= enc.hi
    assert enc.tol_met and 0.0 < enc.width <= 1e-12
