"""Acceptance checks for the whole package, one test per criterion.

Each test prints a single pass/fail line; run ``pytest tests/test_acceptance.py -s``
to see all ten lines together.  The suite takes about a minute, most of it
in the criterion 09 invariance suite (about 50 s).  The engine evaluates
each catalog function as a sum over its pieces lying farther apart than
the truncation radius, so the Cantor piece of the third function takes
the staircase's reduced threshold and the jump of the second its closed
form.  The criterion 04 Cantor sweep takes about 8 s, most of it in its
Monte Carlo draws.
"""

import math
import time

import numpy as np

from nugamma.asymptotics import covering_select, lambda_sweep, limit_estimate, sbv_target
from nugamma.bvmodel import (
    BVFunction1D,
    JumpPiece,
    affine_ramp,
    cantor_piece,
    cantor_staircase,
    polynomial_piece,
    sine_ramp,
    single_jump,
    smoothstep_piece,
)
from nugamma.functional1d import ExceedanceQuery, F_value
from nugamma.numeasure import (
    PlaneBox,
    curved_indicator,
    nu_curved,
    nu_quadrature_oracle,
    nu_triangle,
    triangle_indicator,
)
from nugamma.sectionnd import (
    BallIndicatorField,
    F_nd_estimate,
    c_n_constant,
    sectioning_variation_check,
)

trapezoid = getattr(np, "trapezoid", None) or np.trapz


def report(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_single_jump_exactness():
    u = single_jump(1.0)
    widths = []
    slowest = 0.0
    ok = True
    for lam in (1.0, 10.0, 1e2, 1e4, 1e6):
        t0 = time.perf_counter()
        enc = F_value(u, ExceedanceQuery(1.0, lam, tol=1e-4))
        dt = time.perf_counter() - t0
        slowest = max(slowest, dt)
        widths.append(enc.width)
        ok = ok and enc.contains(1.0) and enc.width <= 1e-4 and dt <= 5.0
    report(
        1,
        ok,
        "unit jump enclosed at 5 thresholds, max width {:.2e}, slowest {:.2f}s".format(
            max(widths), slowest
        ),
    )


def test_criterion_02_jump_plus_ramp_limit():
    u = BVFunction1D((affine_ramp(0.0, 1.0, 1.0), JumpPiece(2.0, 0.5)), 0.0)
    sweep = lambda_sweep(u, 0.5, 1e3, 1e6, points=13, tol=0.02, max_depth=60)
    est, spread = limit_estimate(sweep)
    target = sbv_target((1.0, 0.5, 0.0), 0.5)
    ok = (
        not sweep.failures
        and abs(est - target) <= 0.01 * target
        and spread <= 0.02 * est
    )
    report(
        2,
        ok,
        f"tail estimate {est:.6f} vs target {target:.6f}, spread {spread:.4f}",
    )


def test_criterion_03_smooth_ramp_limit():
    u = BVFunction1D((affine_ramp(0.0, 1.0, 1.0),), 0.0)
    sweep = lambda_sweep(u, 1.0, 1e5, 1e6, points=5, tol=0.01)
    est, spread = limit_estimate(sweep)
    ok = not sweep.failures and abs(est - 2.0) <= 0.02
    report(3, ok, f"tail estimate {est:.6f} vs target 2, spread {spread:.4f}")


def test_criterion_04_cantor_certified_floor(cantor_monte_carlo):
    u = cantor_staircase(0.0, 1.0, 1.0)
    sweep = lambda_sweep(u, 1.0, 1e3, 1e6, points=13, tol=0.04, max_depth=60)
    floor = 1.0 / 6.0 - 1e-3
    lows = [e.lo for e in sweep.enclosures if e is not None]
    tail = ", ".join(
        f"{lam:.3g}: [{e.lo:.4f}, {e.hi:.4f}]"
        for lam, e in zip(sweep.lambdas[-4:], sweep.enclosures[-4:])
    )
    # The floor alone also holds for enclosures of half the true value,
    # so every fourth point must contain a seeded Monte Carlo value too.
    rng = np.random.default_rng(20261020)
    misses = []
    for k in (0, 4, 8, 12):
        lam, e = sweep.lambdas[k], sweep.enclosures[k]
        est, se = cantor_monte_carlo(lam, 400_000, rng)
        if e is None or not e.contains(est, 4.0 * se):
            misses.append(f"{lam:.3g}: {est:.4f} +- {se:.4f} vs {e}")
    ok = len(lows) == 13 and all(lo >= floor for lo in lows) and not misses
    report(
        4,
        ok,
        f"certified lows stay above {floor:.6f}; tail values {tail}; "
        f"Monte Carlo misses {misses or 'none'}",
    )


def test_criterion_05_measure_oracle_agreement():
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    for g in (0.25, 1.0, 3.0):
        for p in (0.5, 1.0, 2.0):
            cases = (
                (nu_triangle(p, g), triangle_indicator(p), PlaneBox((-p, 0.0), (0.0, p))),
                (
                    nu_curved(p, g),
                    curved_indicator(p, g),
                    PlaneBox((-p, 0.0), (0.0, 2.0 * p)),
                ),
            )
            for val, ind, box in cases:
                enc = nu_quadrature_oracle(ind, box, g, 512)
                slack = 1e-8 * max(1.0, abs(val))
                gap = max(enc.lo - val, val - enc.hi, 0.0) / max(1.0, abs(val))
                worst = max(worst, gap)
                ok = ok and enc.contains(val, slack)
    dt = time.perf_counter() - t0
    ok = ok and dt <= 10.0
    report(
        5,
        ok,
        "closed forms inside quadrature brackets on the 3x3 grid, "
        f"worst relative escape {worst:.2e}, {dt:.1f}s",
    )


def _sphere_quadrature_abs_x1(N: int) -> float:
    if N == 1:
        return 2.0
    if N == 2:
        th = np.linspace(0.0, 2.0 * math.pi, 400001)
        return float(trapezoid(np.abs(np.cos(th)), th))
    phi = np.linspace(0.0, math.pi, 400001)
    return float(2.0 * math.pi * trapezoid(np.abs(np.cos(phi)) * np.sin(phi), phi))


def test_criterion_06_dimension_constants():
    expected = {1: 2.0, 2: 4.0, 3: 2.0 * math.pi}
    ok = True
    gaps = []
    for N in (1, 2, 3):
        c = c_n_constant(N)
        gap = abs(c - _sphere_quadrature_abs_x1(N))
        gaps.append(gap)
        ok = ok and c == expected[N] and gap <= 1e-6
    report(
        6,
        ok,
        "constants (2, 4, 2 pi) match sphere quadrature, worst gap {:.2e}".format(
            max(gaps)
        ),
    )


def test_criterion_07_disk_functional_by_sectioning():
    field = BallIndicatorField(2, (0.0, 0.0), 1.0, 1.0)
    t0 = time.perf_counter()
    est = F_nd_estimate(field, 1.0, 1e4, 10_000, seed=20260817, tol_1d=4e-3)
    dt = time.perf_counter() - t0
    target = 4.0 * math.pi
    gate = 3.0 * est.stderr + est.systematic
    ok = (
        abs(est.mean - target) <= gate
        and est.stderr <= 0.02 * est.mean
        and est.failures == 0
        and dt <= 300.0
    )
    report(
        7,
        ok,
        f"mean {est.mean:.5f} vs {target:.5f}, gate {gate:.4f} "
        f"(stderr {est.stderr:.4f}, systematic {est.systematic:.4f}), {dt:.0f}s",
    )


def test_criterion_08_variation_sectioning_identity():
    field = BallIndicatorField(2, (0.0, 0.0), 1.0, 1.0)
    est = sectioning_variation_check(field, "j", 10_000, seed=7)
    target = c_n_constant(2) * 2.0 * math.pi
    # All sampled lines cross the centered disk, so the sample is
    # noiseless and the pad only absorbs float association order.
    ok = abs(est.mean - target) <= 3.0 * est.stderr + 1e-9
    report(
        8,
        ok,
        f"jump-part estimate {est.mean:.5f} vs {target:.5f}, stderr {est.stderr:.2e}",
    )


CATALOG = (
    single_jump(1.0),
    BVFunction1D(
        (
            affine_ramp(0.0, 1.0, 1.0),
            JumpPiece(2.0, 0.5),
            smoothstep_piece(3.0, 4.0, -0.5),
        ),
        0.0,
    ),
    BVFunction1D(
        (
            cantor_piece(0.0, 1.0, 1.0),
            sine_ramp(2.0, 3.0, 0.3),
            polynomial_piece(4.0, 5.0, (0.0, 1.0, -0.5)),
        ),
        0.0,
    ),
)


def test_criterion_09_invariance_suite():
    g, lam = 1.0, 50.0

    def enclose(u, lam_val):
        return F_value(u, ExceedanceQuery(g, lam_val, tol=0.02, max_depth=60))

    combos = 0
    failures = []
    for ui, u in enumerate(CATALOG):
        base = enclose(u, lam)
        for c in (0.5, 2.0, -3.0):
            lhs = enclose(u.scaled(c), lam)
            rhs = enclose(u, lam / abs(c)).scaled(abs(c))
            combos += 1
            if not lhs.overlaps(rhs):
                failures.append(f"scale {c} on catalog[{ui}]")
        for s in (2.0, 1.0 / 3.0, 3.0):
            lhs = enclose(u.dilated(s), lam)
            rhs = enclose(u, lam * s ** (1.0 + g))
            combos += 1
            if not lhs.overlaps(rhs):
                failures.append(f"dilate {s} on catalog[{ui}]")
        for dx in (7.0, -7.0, 0.5):
            lhs = enclose(u.translated(dx), lam)
            combos += 1
            if not lhs.overlaps(base):
                failures.append(f"translate {dx} on catalog[{ui}]")
    ok = combos == 27 and not failures
    report(9, ok, f"{combos} transform identities checked, failures: {failures or 'none'}")


def _lebesgue_union(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def test_criterion_10_covering_share():
    rng = np.random.default_rng(1234)
    checked = 0
    ok = True
    worst_share = math.inf
    for _ in range(200):
        n = int(rng.integers(1, 21))
        lo = rng.uniform(-10.0, 10.0, n)
        width = rng.uniform(0.0, 3.0, n) * rng.choice((0.02, 1.0), n)
        ivs = [(float(a), float(a + w)) for a, w in zip(lo, width)]
        total = _lebesgue_union(ivs)
        for eps in (0.05, 0.5):
            picked = covering_select(ivs, _lebesgue_union, eps)
            chosen = sorted(ivs[i] for i in picked)
            disjoint = all(
                chosen[i][1] <= chosen[i + 1][0] for i in range(len(chosen) - 1)
            )
            share = _lebesgue_union(chosen) / total if total > 0 else 1.0
            worst_share = min(worst_share, share)
            need = 1.0 / (2.0 + eps)
            ok = ok and disjoint and share >= need - 1e-9
            checked += 1
    report(
        10,
        ok,
        f"{checked} family/epsilon cases, worst captured share {worst_share:.4f}",
    )
