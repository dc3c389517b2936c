"""Tests for limit targets, sweep tooling, gadgets, and covering selection."""

import io
import math

import numpy as np
import pytest

from nugamma import asymptotics
from nugamma.asymptotics import (
    SweepResult,
    covering_select,
    gadget_cantor_measure,
    gadget_jump_measure,
    gadget_smooth_mass,
    lambda_sweep,
    liminf_rhs,
    limit_estimate,
    sbv_target,
    verify_sweep,
    write_sweep_csv,
)
from nugamma.bvmodel import (
    BVFunction1D,
    JumpPiece,
    VariationTriple,
    affine_ramp,
    cantor_piece,
    cantor_staircase,
    sine_ramp,
    single_jump,
)
from nugamma.functional1d import EvaluationError, f_enclosures_batch
from nugamma.numeasure import Enclosure, PlaneBox, curved_indicator, nu_quadrature_oracle, triangle_indicator


# ---------------------------------------------------------------------------
# Limit right-hand sides
# ---------------------------------------------------------------------------


def test_liminf_rhs_frozen():
    assert liminf_rhs(VariationTriple(1.0, 0.0, 0.0), 1.0) == 2.0
    assert liminf_rhs(VariationTriple(0.0, 1.0, 0.0), 1.0) == 1.0
    assert abs(liminf_rhs(VariationTriple(0.0, 0.0, 1.0), 1.0) - 1.0 / 6.0) < 1e-15
    assert abs(liminf_rhs(VariationTriple(1.0, 0.5, 0.0), 0.5) - 14.0 / 3.0) < 1e-14


def test_liminf_rhs_dimension_factor():
    parts = VariationTriple(1.0, 1.0, 1.0)
    one = liminf_rhs(parts, 1.0, dimension=1)
    two = liminf_rhs(parts, 1.0, dimension=2)
    three = liminf_rhs(parts, 1.0, dimension=3)
    assert two == pytest.approx(2.0 * one)
    assert three == pytest.approx(math.pi * one)


def test_sbv_target_frozen():
    assert sbv_target(VariationTriple(1.0, 0.0, 0.0), 1.0) == 2.0
    assert abs(sbv_target(VariationTriple(1.0, 0.5, 0.0), 0.5) - 14.0 / 3.0) < 1e-14


def test_sbv_target_rejects_cantor_mass():
    with pytest.raises(ValueError):
        sbv_target(VariationTriple(0.0, 0.0, 1.0), 1.0)


def test_rhs_accepts_plain_tuples():
    assert liminf_rhs((1.0, 0.0, 0.0), 1.0) == 2.0
    assert sbv_target((0.0, 2.0, 0.0), 1.0) == 2.0


# ---------------------------------------------------------------------------
# Gadget masses
# ---------------------------------------------------------------------------


def test_gadget_jump_frozen():
    assert gadget_jump_measure([1.0], 1.0) == 0.5
    assert gadget_jump_measure([1.0, 1.0], 1.0) == 1.0
    assert gadget_jump_measure([], 1.0) == 0.0


def test_gadget_cantor_frozen():
    assert abs(gadget_cantor_measure([1.0], 1.0) - 1.0 / 6.0) < 1e-15
    assert abs(gadget_cantor_measure([1.0, 2.0], 1.0) - (1.0 / 6.0 + 2.0 / 3.0)) < 1e-14


def test_gadget_smooth_frozen():
    assert gadget_smooth_mass(1.0, 0.0, 1.0, 10.0) == pytest.approx(0.1)
    assert gadget_smooth_mass(2.0, 0.5, 2.0, 10.0) == pytest.approx(0.05)
    with pytest.raises(ValueError):
        gadget_smooth_mass(1.0, 1.0, 1.0, 10.0)


def test_gadget_masses_match_quadrature():
    g = 0.75
    d = 1.3
    enc = nu_quadrature_oracle(
        triangle_indicator(d), PlaneBox((-d, 0.0), (0.0, d)), g, n=512
    )
    val = gadget_jump_measure([d], g)
    assert enc.lo <= val <= enc.hi

    r = 0.8
    enc = nu_quadrature_oracle(
        curved_indicator(r, g), PlaneBox((-r, 0.0), (0.0, 2.0 * r)), g, n=512
    )
    val = gadget_cantor_measure([r], g)
    assert enc.lo <= val <= enc.hi


# ---------------------------------------------------------------------------
# Sweeps and limit verdicts
# ---------------------------------------------------------------------------


def test_lambda_sweep_jump():
    u = single_jump(1.0)
    sweep = lambda_sweep(u, 1.0, 1e2, 1e4, points=5)
    assert len(sweep.lambdas) == 5
    assert sweep.failures == ()
    assert sweep.lambdas[0] == 1e2 and sweep.lambdas[-1] == 1e4
    # Log-equispaced grid.
    ratios = np.diff(np.log(np.asarray(sweep.lambdas)))
    assert np.allclose(ratios, ratios[0])
    for enc in sweep.enclosures:
        assert enc.lo <= 1.0 <= enc.hi


def _raising_engine(exc_type):
    def engine(*args, **kwargs):
        raise exc_type("engine failure")

    return engine


@pytest.mark.parametrize("bad", [{"tol": -1.0}, {"max_depth": 0}])
def test_lambda_sweep_rejects_bad_arguments(bad):
    with pytest.raises(ValueError):
        lambda_sweep(single_jump(1.0), 1.0, 1e2, 1e4, points=3, **bad)


def test_cantor_sweep_matches_monte_carlo(cantor_monte_carlo):
    u = cantor_staircase(0.0, 1.0, 1.0)
    sweep = lambda_sweep(u, 1.0, 1e3, 1e4, points=2, tol=0.04, max_depth=60)
    rng = np.random.default_rng(20261019)
    for lam, enc in zip(sweep.lambdas, sweep.enclosures):
        est, se = cantor_monte_carlo(lam, 400_000, rng)
        assert enc.lo - 4.0 * se <= est <= enc.hi + 4.0 * se, (lam, enc, est, se)


def test_lambda_sweep_records_engine_value_error(monkeypatch):
    # The engine's EvaluationError carries every point's result, and the
    # sweep reads it without calling the engine again.  Any other
    # ValueError is not the engine's failure record and propagates.
    good = Enclosure(0.5, 1.5, True)
    calls = []

    def failing(funcs, *args):
        calls.append(len(funcs))
        raise EvaluationError([None, good, None], {0: "engine failure", 2: "other"})

    monkeypatch.setattr(asymptotics, "f_enclosures_batch", failing)
    sweep = lambda_sweep(single_jump(1.0), 1.0, 1e2, 1e4, points=3)
    assert calls == [3]
    assert sweep.enclosures == (None, good, None)
    lams = sweep.lambdas
    assert sweep.failures == (
        (lams[0], "ValueError: engine failure"),
        (lams[2], "ValueError: other"),
    )

    monkeypatch.setattr(asymptotics, "f_enclosures_batch", _raising_engine(ValueError))
    with pytest.raises(ValueError, match="engine failure"):
        lambda_sweep(single_jump(1.0), 1.0, 1e2, 1e4, points=3)


def test_lambda_sweep_propagates_programming_errors(monkeypatch):
    monkeypatch.setattr(
        "nugamma.asymptotics.f_enclosures_batch", _raising_engine(TypeError)
    )
    with pytest.raises(TypeError):
        lambda_sweep(single_jump(1.0), 1.0, 1e2, 1e4, points=3)


#: Sweep inputs that take each path of the engine with a per-point lam.
SWEEP_CASES = {
    # One Cantor row per point, each refined at its own reduced-lam bracket.
    "staircase": cantor_staircase(0.0, 1.0, 1.0),
    # Jump-only rows, evaluated in closed form at each point's lam.
    "jumps": BVFunction1D((JumpPiece(0.0, 1.0), JumpPiece(0.3, -0.5), JumpPiece(0.4, 2.0))),
    # One refined row with both jumps at small lam, and a ramp row and two
    # one-jump rows once the truncation radius falls below the gaps.
    "ramp+far-jumps": BVFunction1D(
        (affine_ramp(0.0, 1.0, 1.0), JumpPiece(1.5, 1.0), JumpPiece(3.0, -0.5))
    ),
    "cantor-over-sine": BVFunction1D((cantor_piece(0.0, 1.0, 1.0), sine_ramp(0.5, 1.5, -1.0))),
}


def _bits(enc):
    return enc.lo.hex(), enc.hi.hex(), enc.tol_met


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_lambda_sweep_matches_points_alone(monkeypatch, case, gamma):
    u = SWEEP_CASES[case]
    sizes = []

    def counted(funcs, *args):
        sizes.append(len(funcs))
        return f_enclosures_batch(funcs, *args)

    monkeypatch.setattr(asymptotics, "f_enclosures_batch", counted)
    sweep = lambda_sweep(u, gamma, 1.0, 1e4, points=5, tol=0.05, max_depth=14)
    assert sizes == [5] and sweep.failures == ()
    for lam, enc in zip(sweep.lambdas, sweep.enclosures):
        (alone,) = f_enclosures_batch([u], gamma, lam, 0.05, 14)
        assert _bits(enc) == _bits(alone), lam


def test_lambda_sweep_keeps_the_points_the_engine_answers(monkeypatch):
    # Below lam 1e-100 the refined ends overflow.  Under the suite's
    # error::RuntimeWarning filter this once escaped as a RuntimeWarning;
    # without it, the grid was refined once as a batch and again point by
    # point.  Now one engine call records the four failures, and the last
    # point keeps the enclosure it gets alone.
    u = BVFunction1D((affine_ramp(0.0, 1.0, 1e200), JumpPiece(0.5, 1e200)))
    sizes = []

    def counted(funcs, *args):
        sizes.append(len(funcs))
        return f_enclosures_batch(funcs, *args)

    monkeypatch.setattr(asymptotics, "f_enclosures_batch", counted)
    sweep = lambda_sweep(u, 1.0, 1e-200, 1e-100, points=5, max_depth=12)
    assert sizes == [5]
    assert sweep.enclosures[:4] == (None,) * 4
    assert [lam for lam, _ in sweep.failures] == list(sweep.lambdas[:4])
    for lam, msg in sweep.failures:
        assert msg.startswith("ValueError: refined ends") and msg.endswith(f"at lam {lam!r}")
    (alone,) = f_enclosures_batch([u], 1.0, sweep.lambdas[4], None, 12)
    assert _bits(sweep.enclosures[4]) == _bits(alone)


def test_limit_estimate_and_verdict():
    u = single_jump(1.0)
    sweep = lambda_sweep(u, 1.0, 1e2, 1e4, points=5)
    est, spread = limit_estimate(sweep)
    assert est == pytest.approx(1.0, rel=1e-3)
    assert spread >= 0.0
    verdict = verify_sweep(sweep, u.variation_decomposition(), slack=0.01)
    assert verdict.rhs_liminf == 1.0
    assert verdict.rhs_sbv == 1.0
    assert verdict.pass_liminf and verdict.pass_sbv
    assert verdict.ok


def test_verify_sweep_flags_shortfall():
    # Stopping the sweep far from the limit must fail the two-sided
    # check: a clamped ramp at lambda <= 10 is still well below 2.
    u = BVFunction1D(pieces=(affine_ramp(0.0, 1.0, 1.0),))
    sweep = lambda_sweep(u, 1.0, 2.0, 10.0, points=4)
    verdict = verify_sweep(sweep, u.variation_decomposition(), slack=0.01)
    assert not verdict.pass_sbv
    assert not verdict.ok


def test_sweep_constant_function_is_exactly_zero():
    u = BVFunction1D(pieces=())
    sweep = lambda_sweep(u, 1.0, 1.0, 100.0, points=3)
    assert sweep.failures == ()
    assert all(e.lo == 0.0 and e.hi == 0.0 for e in sweep.enclosures)
    est, spread = limit_estimate(sweep)
    assert est == 0.0 and spread == 0.0


def test_sweep_tail_fraction_controls_window():
    u = single_jump(1.0)
    sweep = lambda_sweep(u, 1.0, 1e2, 1e4, points=8)
    est_all, _ = limit_estimate(sweep, tail_fraction=1.0)
    est_tail, _ = limit_estimate(sweep, tail_fraction=0.25)
    assert est_all == pytest.approx(1.0, rel=1e-2)
    assert est_tail == pytest.approx(1.0, rel=1e-3)


def test_extending_sweep_halves_tail_spread():
    # Ramp plus jump: the jump term is threshold-exact and the ramp
    # approaches its limit like -1/(3*lambda) from the support ends, so
    # the tail spread is dominated by that drift once the per-point
    # tolerance sits below it.  Pushing the grid three decades further
    # shrinks the drift a thousandfold; the spread must at least halve.
    u = BVFunction1D(pieces=(affine_ramp(0.0, 1.0, 1.0), JumpPiece(location=2.0, height=0.5)))
    short = lambda_sweep(u, 1.0, 10.0, 1e3, points=7, tol=1e-4, max_depth=60)
    extended = lambda_sweep(u, 1.0, 10.0, 1e6, points=13, tol=1e-4, max_depth=60)
    _, spread_short = limit_estimate(short)
    _, spread_long = limit_estimate(extended)
    assert spread_long <= 0.5 * spread_short


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def test_write_sweep_csv_roundtrip():
    sweep = SweepResult(
        lambdas=(10.0, 100.0),
        enclosures=(Enclosure(0.9, 1.1), Enclosure(0.99, 1.01)),
        gamma=1.0,
        function_id="jump",
        failures=(),
    )
    buf = io.StringIO()
    write_sweep_csv(buf, sweep, VariationTriple(0.0, 1.0, 0.0))
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "lambda,F_lo,F_hi,rhs_liminf,sbv_target"
    assert len(lines) == 3
    row = lines[1].split(",")
    assert float(row[0]) == 10.0
    assert float(row[1]) == 0.9
    assert float(row[2]) == 1.1
    assert float(row[3]) == 1.0
    assert float(row[4]) == 1.0


def test_write_sweep_csv_blank_sbv_with_cantor():
    sweep = SweepResult(
        lambdas=(10.0,),
        enclosures=(Enclosure(0.1, 0.2),),
        gamma=1.0,
        function_id="staircase",
        failures=(),
    )
    buf = io.StringIO()
    write_sweep_csv(buf, sweep, VariationTriple(0.0, 0.0, 1.0))
    lines = buf.getvalue().strip().splitlines()
    assert lines[1].endswith(",")


# ---------------------------------------------------------------------------
# Covering selection
# ---------------------------------------------------------------------------


def lebesgue_union(intervals):
    ivs = sorted((lo, hi) for lo, hi in intervals)
    total = 0.0
    cur_lo, cur_hi = None, None
    for lo, hi in ivs:
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def test_covering_select_simple():
    ivs = [(0.0, 1.0), (0.5, 1.5), (2.0, 3.0)]
    picked = covering_select(ivs, lebesgue_union, epsilon=0.0)
    chosen = [ivs[i] for i in picked]
    for i, a in enumerate(chosen):
        for b in chosen[i + 1 :]:
            assert a[1] < b[0] or b[1] < a[0]
    assert lebesgue_union(chosen) >= lebesgue_union(ivs) / 2.0 - 1e-12


def test_covering_select_touching_endpoints_conflict():
    ivs = [(0.0, 1.0), (1.0, 2.0), (3.0, 4.0)]
    picked = covering_select(ivs, lebesgue_union)
    chosen = [ivs[i] for i in picked]
    for i, a in enumerate(chosen):
        for b in chosen[i + 1 :]:
            assert a[1] < b[0] or b[1] < a[0]


def test_covering_select_empty():
    assert covering_select([], lebesgue_union) == []


def test_covering_select_needs_exact_pass():
    # Greedy longest-first picks the long middle interval and blocks
    # both flanks; the exact pass must recover the better pair.
    ivs = [(0.0, 1.0), (0.9, 2.1), (2.0, 3.0)]
    picked = covering_select(ivs, lebesgue_union, epsilon=0.0)
    chosen = [ivs[i] for i in picked]
    assert lebesgue_union(chosen) >= lebesgue_union(ivs) / 2.0 - 1e-12


def test_covering_select_random_families():
    rng = np.random.default_rng(2024)
    for eps in (0.05, 0.5):
        for _ in range(40):
            k = int(rng.integers(1, 21))
            los = rng.uniform(0.0, 10.0, size=k)
            lens = rng.uniform(0.05, 2.0, size=k)
            ivs = [(float(a), float(a + w)) for a, w in zip(los, lens)]
            picked = covering_select(ivs, lebesgue_union, epsilon=eps)
            chosen = [ivs[i] for i in picked]
            for i, a in enumerate(chosen):
                for b in chosen[i + 1 :]:
                    assert a[1] < b[0] or b[1] < a[0]
            share = lebesgue_union(ivs) / (2.0 + eps)
            assert sum(hi - lo for lo, hi in chosen) >= share - 1e-9
