"""Tests for the certified branch-and-bound functional evaluation."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from nugamma import functional1d
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
    _clusters,
    _reduced_lam,
    _split_wave,
    _wave_bounds,
    EvaluationError,
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
    # V / lam overflows, but the radius is a float.
    assert truncation_radius(1e300, 1e-300, 1.0) == pytest.approx(1e300, rel=1e-12)
    # The radius underflows: 0 would claim that no pair exceeds.
    with pytest.raises(ValueError, match="not a finite float"):
        truncation_radius(1e-300, 1e300, 0.01)


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


def _bits(enc):
    return enc.lo.hex(), enc.hi.hex(), enc.tol_met


def test_per_function_lam_matches_separate_calls():
    # Closed-form, Cantor, clustered and refined rows, each at its own lam
    # in one batch, read what each function reads alone at that lam.
    funcs = [
        BVFunction1D((JumpPiece(0.0, 1.0), JumpPiece(0.2, -0.5))),
        cantor_staircase(0.0, 2.0, -1.5),
        BVFunction1D((affine_ramp(0.0, 1.0, 1.0), JumpPiece(3.0, 1.0))),
        BVFunction1D((cantor_piece(0.0, 1.0, 1.0), sine_ramp(0.5, 1.5, 1.0))),
        BVFunction1D(pieces=(), base_value=2.0),
        BVFunction1D((affine_ramp(0.0, 1.0, 1.0), JumpPiece(3.0, 1.0))),
    ]
    lams = [30.0, 1e5, 1e3, 7.0, 2.0, 1.0]
    # A float lam is the same lam for every function.  The one-jump row of
    # the third function shares the jump table with two-jump rows.
    for gamma, lam_arg in ((0.5, np.array(lams)), (2.0, lams), (1.0, 40.0)):
        batch = f_enclosures_batch(funcs, gamma, lam_arg, 0.05, 12)
        for u, lam, enc in zip(funcs, np.broadcast_to(lam_arg, 6).tolist(), batch):
            assert _bits(enc) == _bits(f_enclosures_batch([u], gamma, lam, 0.05, 12)[0])


@pytest.mark.parametrize(
    "lam",
    [[10.0], [10.0] * 3, [], [10.0, math.inf], [10.0, math.nan], [0.0, 10.0], [10.0, -1.0]],
)
def test_per_function_lam_is_checked_before_evaluation(monkeypatch, lam):
    def refined(*args):
        raise AssertionError("evaluation started")

    monkeypatch.setattr(functional1d, "_clusters", refined)
    with pytest.raises(ValueError, match="lam"):
        f_enclosures_batch([single_jump(1.0), single_jump(2.0)], 1.0, lam)


#: A quintic with two interior extrema (near 0.134 and 0.512) and two
#: inflection points (near 0.307 and 0.903).
QUINTIC = (0.0, 3.0, -15.0, 20.0, -5.0, -2.0)


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
    # The tabled values at the critical and inflection points are P and
    # |P'| there, and NaN in padded slots.
    prof = funcs[1].pieces[1].profile
    crit, dcrit = np.array(prof.crit), np.array(prof.dcrit)
    assert B.pcval[1, 0].tolist() == npoly.polyval(crit, prof.coeffs).tolist()
    dval = np.abs(npoly.polyval(dcrit, npoly.polyder(prof.coeffs)))
    assert B.pdval[1, 0].tolist() == dval.tolist()
    assert np.isnan(B.pcval[[0, 2]]).all() and np.isnan(B.pdval[[0, 2]]).all()
    # Padded slots never enter a bound: beside a quintic, a cubic's row is
    # padded in its coefficients, inflection points and their values, and
    # gains an inert second polynomial slot, and its bounds do not move.
    cubic = BVFunction1D(pieces=(funcs[1].pieces[1],))
    quintic = BVFunction1D(
        pieces=(
            polynomial_piece(0.0, 1.0, QUINTIC),
            polynomial_piece(1.5, 2.0, (0.0, 1.0, -1.0)),
        )
    )
    alone, padded = _Batch([cubic]), _Batch([quintic, cubic])
    assert padded.pcrit.shape[1:] == (2, 2) and padded.pdcrit.shape[1:] == (2, 2)
    assert np.isnan(padded.pcval[1, 1]).all() and np.isnan(padded.pdval[1, 0, 1])
    rng = np.random.default_rng(3)
    n = 4000
    x0 = rng.uniform(-0.5, 1.5, n)
    x1 = x0 + 10.0 ** rng.uniform(-6.0, 0.0, n)
    h0 = np.where(rng.random(n) < 0.2, 0.0, 10.0 ** rng.uniform(-6.0, 0.0, n))
    h1 = h0 + 10.0 ** rng.uniform(-6.0, 0.0, n)
    ref = _wave_bounds(alone, np.zeros(n, dtype=np.intp), x0, x1, h0, h1)
    got = _wave_bounds(padded, np.ones(n, dtype=np.intp), x0, x1, h0, h1)
    for r, g in zip(ref, got):
        assert np.array_equal(r, g)


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


def test_wave_slicing_is_invisible(monkeypatch):
    # Every box's bounds depend on that box alone, so slicing a wave into
    # 7-box or 1-box pieces gives the enclosures of the default slice, bit
    # for bit, for every piece kind.
    funcs = [
        single_jump(1.0),
        BVFunction1D(pieces=(JumpPiece(0.0, 1.0), JumpPiece(0.05, -1.0))),
        BVFunction1D(pieces=(affine_ramp(0.0, 1.0, 1.0), JumpPiece(0.5, 0.5))),
        BVFunction1D(pieces=(smoothstep_piece(0.0, 1.0, -1.0),)),
        BVFunction1D(pieces=(sine_ramp(0.0, 1.0, 1.0),)),
        BVFunction1D(pieces=(cantor_piece(0.0, 1.0, 1.0), affine_ramp(1.0, 2.0, 0.5))),
        BVFunction1D(pieces=(polynomial_piece(0.0, 1.0, (0.0, 1.0, -3.0, 2.0)),)),
    ]

    def run():
        encs = f_enclosures_batch(funcs, 1.0, 20.0, tol=0.05, max_depth=12)
        return [(e.lo.hex(), e.hi.hex(), e.tol_met) for e in encs]

    default = run()
    for chunk in (7, 1):
        monkeypatch.setattr(functional1d, "_WAVE_CHUNK", chunk)
        assert run() == default


def _random_boxes(rng, n, lo, hi):
    """n boxes with x0 in [lo, hi], some of them thin and some at h0 = 0."""
    x0 = rng.uniform(lo, hi, n)
    x1 = x0 + 10.0 ** rng.uniform(-7.0, 0.0, n)
    h0 = np.where(rng.random(n) < 0.2, 0.0, 10.0 ** rng.uniform(-7.0, 0.5, n))
    h1 = h0 + 10.0 ** rng.uniform(-7.0, 0.5, n)
    return x0, x1, h0, h1


def test_mixed_rows_bound_each_box_as_its_row_alone():
    # The tables are gathered per box, so a wave that interleaves rows of
    # every kind, with mixed ramp shapes in one slot and polynomials of
    # different critical-point counts, bounds each box exactly as a batch
    # of its row alone does.
    rows = [
        BVFunction1D((JumpPiece(0.1, 1.0), JumpPiece(0.4, -0.7), JumpPiece(0.45, 2.0))),
        BVFunction1D((affine_ramp(0.0, 1.0, 2.0), smoothstep_piece(0.5, 0.9, -1.0))),
        BVFunction1D((sine_ramp(0.0, 1.0, -1.0), JumpPiece(0.3, 0.5))),
        BVFunction1D((smoothstep_piece(0.2, 0.6, 1.0), sine_ramp(0.6, 0.8, 0.3))),
        BVFunction1D((cantor_piece(0.0, 1.0, 1.0), cantor_piece(0.5, 0.8, -0.4))),
        BVFunction1D((polynomial_piece(0.0, 1.0, QUINTIC),)),
        BVFunction1D(
            (
                polynomial_piece(0.0, 1.0, (0.0, 1.0, -3.0, 2.0)),
                polynomial_piece(0.5, 1.5, (0.0, 2.0, -1.0)),
                affine_ramp(0.2, 0.7, -1.0),
                cantor_piece(0.1, 0.3, 0.2),
            )
        ),
        BVFunction1D((polynomial_piece(0.0, 1.0, (0.0, 1.0)), sine_ramp(1.0, 2.0, 1.0))),
    ]
    rng = np.random.default_rng(5)
    n = 3000
    sid = rng.integers(0, len(rows), n)
    x0, x1, h0, h1 = _random_boxes(rng, n, -0.5, 1.5)
    got = _wave_bounds(_Batch(rows), sid, x0, x1, h0, h1)
    for k, u in enumerate(rows):
        m = sid == k
        zero = np.zeros(m.sum(), dtype=np.intp)
        alone = _wave_bounds(_Batch([u]), zero, x0[m], x1[m], h0[m], h1[m])
        for g, r in zip(got, alone):
            assert g[m].tobytes() == r.tobytes(), u


@pytest.mark.parametrize("family", ["jump", "polynomial"])
def test_pieces_sum_left_to_right(family):
    # A row's signed intervals are summed left to right over its pieces of
    # one family, however many there are; numpy's own sum pairs them from
    # 8 terms on.  Each piece is monotone, so its interval follows from its
    # bounds, read off a batch of that piece alone.  Such a batch stores
    # locations relative to the piece's own start, so every coordinate
    # sits on a grid of 2^-30, where the shifts and sums are exact.
    rng = np.random.default_rng(11)
    for n_pieces in (9, 12):
        size = np.where(rng.random(n_pieces) < 0.5, -1.0, 1.0) * 10.0 ** rng.uniform(
            -6.0, 6.0, n_pieces
        )
        starts = 0.25 * np.arange(n_pieces)
        if family == "jump":
            pieces = [JumpPiece(a, c) for a, c in zip(starts.tolist(), size.tolist())]
        else:
            pieces = [
                polynomial_piece(a, a + 0.125, (0.0, c))
                for a, c in zip(starts.tolist(), size.tolist())
            ]
        n = 2000
        boxes = _random_boxes(rng, n, -0.5, 0.25 * n_pieces)
        x0, x1, h0, h1 = (np.round(v * 2.0**30) / 2.0**30 for v in boxes)
        zero = np.zeros(n, dtype=np.intp)
        up, low, _, _ = _wave_bounds(_Batch([BVFunction1D(tuple(pieces))]), zero, x0, x1, h0, h1)
        ends = []
        for p, a, c in zip(pieces, starts, size):
            B = _Batch([BVFunction1D((p,))])
            p_up, p_low, _, _ = _wave_bounds(B, zero, x0 - a, x1 - a, h0, h1)
            ends.append((p_low, p_up) if c > 0 else (-p_up, -p_low))
        for i in range(n):
            L, U = ends[0][0][i], ends[0][1][i]
            for lo_k, up_k in ends[1:]:
                L, U = L + lo_k[i], U + up_k[i]
            assert (up[i], low[i]) == (max(U, -L), max(L, -U, 0.0)), (n_pieces, i)


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


def _reduced_lam_decimal(lam, gamma, piece):
    """The reduced threshold of :func:`_reduced_lam` in 50-digit decimal:
    lam w^(1+gamma) / |rise|, divided by rho = 3^(1+gamma)/2 while it is at
    least 3^(1+gamma)."""
    with localcontext() as ctx:
        ctx.prec = 50
        e = 1 + Decimal(gamma)
        w = Decimal(piece.support[1]) - Decimal(piece.support[0])
        lam_r = Decimal(lam) * (e * w.ln()).exp() / abs(Decimal(piece.rise))
        top = (e * Decimal(3).ln()).exp()
        while lam_r >= top:
            lam_r /= top / 2
        return lam_r


@pytest.mark.parametrize("gamma", [1.0, 2.0])
def test_cantor_reduction_matches_direct_refinement_over_a_period(gamma):
    # The engine evaluates the staircase at lam / rho; the direct run
    # refines it at lam itself, across one period of the self-similarity.
    u = cantor_staircase()
    top = 3.0 ** (1.0 + gamma)
    lams = [top * (top / 2.0) ** ((j + 0.5) / 5) for j in range(5)]
    for lam in lams:
        (enc,) = f_enclosures_batch([u], gamma, lam, tol=0.02, max_depth=60)
        (direct,) = _refined([u], gamma, lam, 0.02, max_depth=60)
        assert enc.overlaps(direct), (lam, enc, direct)
        assert enc.tol_met and direct.tol_met


# Cantor pieces away from the unit staircase, each with the threshold
# slope lam' = lam w^(1+gamma) / |rise| it maps to before reducing: 12
# reduces at gamma 0.5 and 1, not at 2.  None stands for lam = 1e-300 on
# a piece whose lam w^(1+gamma) alone overflows.
_CANTOR_MAPS = [
    (cantor_piece(0.0, 1.0, -0.3), 12.0),
    (cantor_piece(0.0, 1.0, 1e3), 12.0),
    (cantor_piece(1e10, 1e10 + 0.5, 1.0), 12.0),
    (cantor_piece(0.0, 1e-3, 1.0), 12.0),
    (cantor_piece(0.0, 1e200, 1e-100), None),
]


def _cantor_map_lam(piece, lam_m, gamma):
    if lam_m is None:
        return 1e-300
    w = piece.support[1] - piece.support[0]
    return lam_m * abs(piece.rise) / w ** (1.0 + gamma)


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_cantor_map_brackets_reduced_lam(gamma):
    top = 3.0 ** (1.0 + gamma)
    for piece, lam_m in _CANTOR_MAPS:
        lam = _cantor_map_lam(piece, lam_m, gamma)
        a, b = _reduced_lam(lam, gamma, piece)
        assert Decimal(a) <= _reduced_lam_decimal(lam, gamma, piece) <= Decimal(b)
        assert 0.0 < b - a <= 1e-10 * b
        if lam_m is None or lam_m >= top:
            assert 2.0 * (1.0 - 1e-9) <= a < b < top * (1.0 + 1e-9)


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_cantor_map_overlaps_direct_refinement(gamma):
    # The reduced enclosure of each piece against a refinement of the
    # piece itself at lam, or, where that is out of reach, of the unit
    # staircase at the decimal reduced lam.
    tol = 0.05
    for piece, lam_m in _CANTOR_MAPS:
        u = BVFunction1D((piece,), 5.0)
        r = abs(piece.rise)
        lam = _cantor_map_lam(piece, lam_m, gamma)
        if lam_m is None:
            lam_r = float(_reduced_lam_decimal(lam, gamma, piece))
            (unit,) = _refined([cantor_staircase()], gamma, lam_r, tol, max_depth=60)
            direct = unit.scaled(r)
        else:
            (direct,) = _refined([u], gamma, lam, tol * r, max_depth=60)
        (enc,) = f_enclosures_batch([u], gamma, lam, tol=tol * r, max_depth=60)
        assert enc.overlaps(direct), (piece, enc, direct)
        assert enc.width <= tol * r if enc.tol_met else enc.width > 0.0


def test_cantor_gamma_half_meets_tol(cantor_monte_carlo):
    # Refined directly at lam 1e4, this staircase took about 100 s and
    # still missed tol 0.02.
    (enc,) = f_enclosures_batch([cantor_staircase()], 0.5, 1e4, tol=0.02, max_depth=60)
    assert enc.tol_met and enc.width <= 0.02
    est, se = cantor_monte_carlo(1e4, 400_000, np.random.default_rng(61), gamma=0.5)
    assert enc.contains(est, 4.0 * se), (enc, est, se)


#: Two opposite jumps whose cutoffs overflow.  An overflowing cutoff reads
#: as NaN, which would zero every slab mass and give [0, 0] with tol met,
#: so the cutoffs must be tested for themselves.
OPPOSITE_HUGE_JUMPS = BVFunction1D((JumpPiece(-0.5, 1e300), JumpPiece(0.5, -1e300)))


@pytest.mark.parametrize(
    "u, lam, match",
    [
        (single_jump(1e300), 1e-100, "cutoff"),
        (single_jump(1.0), 1e-309, "cutoff"),
        (OPPOSITE_HUGE_JUMPS, 1e-100, "cutoff"),
    ],
)
def test_unrepresentable_thresholds_raise(u, lam, match):
    # The jump cutoffs overflow, where the closed form once read the nan
    # masses as no jumps and gave [0, 0] with tol met.
    with pytest.raises(ValueError, match=match):
        f_enclosures_batch([u], 1.0, lam)


@pytest.mark.parametrize(
    "u, gamma, lam, path",
    [
        (OPPOSITE_HUGE_JUMPS, 1.0, 1e-100, "jump cutoffs"),
        # Below the float range the coarse Cantor bound of rise 1e308 is
        # 2e308 / 1.1, which overflows.
        (BVFunction1D((cantor_piece(0.0, 1e-200, 1e308),)), 0.1, 1e-100, "closed-form ends"),
        # The support's width, 2e308, overflows.
        (BVFunction1D((cantor_piece(-1e308, 1e308, 1.0),)), 1.0, 1.0, "cannot reduce lam"),
        (BVFunction1D((affine_ramp(0, 1, 1e200), JumpPiece(0.5, 1e200))), 1.0, 1e-200, "refined ends"),
        # Three parts, each enclosed in floats, whose sum is not: math.fsum
        # raises OverflowError for it.
        (
            BVFunction1D(
                (JumpPiece(0.0, 6e307), JumpPiece(1e10, 6e307), affine_ramp(3e10, 3e10 + 1, 1.0))
            ),
            0.1,
            1e300,
            "summed ends",
        ),
    ],
    ids=["jump-cutoffs", "coarse-cantor", "cantor-bracket", "refined", "summed"],
)
def test_failure_reasons_name_the_path_and_lam(u, gamma, lam, path):
    with pytest.raises(EvaluationError) as info:
        f_enclosures_batch([u], gamma, lam, max_depth=12)
    assert info.value.results == [None]
    assert path in info.value.reasons[0] and f"lam {lam!r}" in info.value.reasons[0]
    assert str(info.value) == f"function 0: {info.value.reasons[0]}"


def test_failed_function_leaves_the_others_as_alone():
    ok = BVFunction1D((affine_ramp(0, 1, 1), JumpPiece(3, 1)))
    with pytest.raises(EvaluationError) as info:
        f_enclosures_batch([ok, OPPOSITE_HUGE_JUMPS, ok], 1.0, 1e-100, 0.05, 12)
    (alone,) = f_enclosures_batch([ok], 1.0, 1e-100, 0.05, 12)
    first, failed, last = info.value.results
    assert failed is None and list(info.value.reasons) == [1]
    for enc in (first, last):
        assert (enc.lo.hex(), enc.hi.hex(), enc.tol_met) == (
            alone.lo.hex(),
            alone.hi.hex(),
            alone.tol_met,
        )


@pytest.mark.parametrize(
    "pieces, lam, limit, direct",
    [
        # The direct refinement of this piece gave [0.986, 1.002].
        ((cantor_piece(0.0, 1e-200, 1.0),), 1e-100, 1.0, (0.986, 1.002)),
        ((cantor_piece(0.0, 1.0, 1e300),), 1e-10, 1e300, None),
        # The jump is far enough away to form a part of its own, which
        # leaves the Cantor piece alone in its row.  Refined whole, this
        # function gave [1.9972, 2.0030].
        (
            (cantor_piece(0.0, 1e-200, 1.0), JumpPiece(1.0, -1.0)),
            1e10,
            2.0,
            (1.9972, 2.0030),
        ),
    ],
    ids=["narrow-support", "large-rise", "beside-a-far-jump"],
)
def test_tiny_threshold_cantor_rows_take_a_closed_form(pieces, lam, limit, direct):
    # The reduced thresholds fall below the float range, where F is within
    # 2 |rise| lam'^(1/(1+gamma)) / gamma of 2 |rise| / (1 + gamma), the
    # value of a jump of the same size.
    u = BVFunction1D(pieces)
    assert len(_clusters(u, lam, 1.0)) == len(pieces)
    (enc,) = f_enclosures_batch([u], 1.0, lam)
    assert enc.lo <= limit <= enc.hi
    assert enc.tol_met and 0.0 < enc.width <= 1e-12 * limit
    if direct is not None:
        assert enc.overlaps(Enclosure(*direct))


# ---------------------------------------------------------------------------
# Localisation: functions split into far-apart parts
# ---------------------------------------------------------------------------


def _catalog_piece(kind, a, w, r):
    """A piece of the given kind starting at a, of width w and rise r."""
    if kind == "jump":
        return JumpPiece(a, r)
    if kind == "affine":
        return affine_ramp(a, a + w, r / w)
    if kind == "smoothstep":
        return smoothstep_piece(a, a + w, r)
    if kind == "sine":
        return sine_ramp(a, a + w, r)
    if kind == "polynomial":
        return polynomial_piece(a, a + w, (0.0, 2.0 * r, -r))
    return cantor_piece(a, a + w, r)


#: Gaps between a piece and the hull of the pieces before it, in units of
#: the truncation radius H; "inside" starts the piece within that hull.
_GAPS = ("inside", 0.0, 1.0 - 1e-9, 1.0 + 1e-15, 1.0 + 1e-9, 3.0)


def _random_layout(rng, gamma, lam):
    """Two to four pieces of random kinds, each placed at a gap drawn from
    _GAPS after the ones before it."""
    n = int(rng.integers(2, 5))
    kinds = rng.choice(("jump", "affine", "smoothstep", "sine", "polynomial", "cantor"), n)
    rises = rng.choice([-1.0, 1.0], n) * rng.uniform(0.3, 1.0, n)
    widths = rng.uniform(0.2, 0.6, n)
    specs = list(zip(kinds, widths.tolist(), rises.tolist()))
    tv = BVFunction1D(tuple(_catalog_piece(k, 0.0, w, r) for k, w, r in specs)).total_variation
    H = truncation_radius(tv, lam, gamma)
    pieces, end = [], 0.0
    for k, w, r in specs:
        gap = rng.choice(len(_GAPS)) if pieces else 1
        a = end - 0.5 * w if _GAPS[gap] == "inside" else end + _GAPS[gap] * H
        pieces.append(_catalog_piece(k, a, w, r))
        end = max(end, a if k == "jump" else a + w)
    return BVFunction1D(tuple(pieces))


def test_clusters_split_only_beyond_the_truncation_radius():
    lam, g = 50.0, 1.0
    ramp = affine_ramp(0.0, 1.0, 1.0)
    H = truncation_radius(2.0, lam, g)

    def parts(*pieces):
        return [len(v.pieces) for v in _clusters(BVFunction1D(pieces), lam, g)]

    assert parts(ramp, JumpPiece(1.0 + 3.0 * H, 1.0)) == [1, 1]
    assert parts(ramp, JumpPiece(1.0 + H * (1.0 + 1e-9), 1.0)) == [1, 1]
    # Within a rounding margin of H, and closer, the parts merge.
    assert parts(ramp, JumpPiece(1.0 + H, 1.0)) == [2]
    assert parts(ramp, JumpPiece(1.0 + H * (1.0 - 1e-9), 1.0)) == [2]
    # Touching and nested supports, and a jump inside a ramp's support.
    assert parts(ramp, smoothstep_piece(1.0, 2.0, 1.0)) == [2]
    assert parts(ramp, sine_ramp(0.2, 0.4, 1.0)) == [2]
    assert parts(ramp, JumpPiece(0.5, 1.0)) == [2]
    # A piece nested in an earlier, longer one bridges nothing: the gap is
    # measured from the hull of everything before it.
    far = JumpPiece(1.0 + 2.0 * H, 0.5)
    assert parts(ramp, JumpPiece(0.5, 0.5), far) == [2, 1]
    # Parts come in order along the line, and functions made of jumps stay
    # whole.
    assert [v.pieces for v in _clusters(BVFunction1D((far, ramp)), lam, g)] == [
        (ramp,),
        (far,),
    ]
    jumps = BVFunction1D((JumpPiece(0.0, 1.0), JumpPiece(10.0, 1.0)))
    assert _clusters(jumps, lam, g) == [jumps]


@pytest.mark.parametrize("seed", [7, 8])
def test_cluster_sums_overlap_whole_function_refinement(seed):
    # Each function's parts are refined (or taken in closed form) apart
    # and summed; the branch-and-bound of the whole function is the
    # oracle.  A function forming one part takes the same refinement as
    # the whole function, bit for bit.
    rng = np.random.default_rng(seed)
    lam, tol, depth = 50.0, 0.05, 40
    split = 0
    for _ in range(6):
        g = float(rng.choice([0.5, 1.0, 2.0]))
        u = _random_layout(rng, g, lam)
        (enc,) = f_enclosures_batch([u], g, lam, tol, depth)
        (whole,) = _refined([u], g, lam, tol, depth)
        assert enc.overlaps(whole), (u, enc, whole)
        if len(_clusters(u, lam, g)) > 1:
            split += 1
            assert enc.width <= tol if enc.tol_met else enc.width > 0.0
        else:
            assert (enc.lo, enc.hi, enc.tol_met) == (whole.lo, whole.hi, whole.tol_met)
    assert split >= 2


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_far_jumps_add_their_closed_forms_to_a_ramp(gamma):
    # Each jump is a part of its own; the ramp's row refines the ramp's
    # own boxes, and a run at a tighter tol refines them further, so its
    # enclosure nests inside that row's.
    lam, tol = 1e3, 0.02
    ramp = smoothstep_piece(0.0, 1.0, 1.0)
    heights = (1.0, -0.5, 2.0)
    u = BVFunction1D((ramp, *(JumpPiece(3.0 * (k + 1), h) for k, h in enumerate(heights))))
    assert len(_clusters(u, lam, gamma)) == 4
    (enc,) = f_enclosures_batch([u], gamma, lam, tol, max_depth=60)
    (own,) = f_enclosures_batch([BVFunction1D((ramp,))], gamma, lam, tol / 2, max_depth=60)
    jumps = sum(closed_form_jump_F(h, gamma) for h in heights)
    assert enc.lo <= own.lo + jumps and own.hi + jumps <= enc.hi
    assert enc.tol_met and enc.width <= tol


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
        # An extremum at 1/2 with inflections at (3 +- sqrt(3))/6, and two
        # interior extrema, so boxes meet tabled critical values.
        (polynomial_piece(0.0, 1.0, (0.0, 0.0, 1.0, -2.0, 1.0)),),
        (polynomial_piece(0.0, 1.0, QUINTIC),),
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
