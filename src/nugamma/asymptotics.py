"""Large-threshold behaviour: sweeps, limit targets, gadgets, coverings.

The exceedance functional of a BV function approaches a finite limit as
the threshold slope lam grows.  This module predicts that limit from the
variation decomposition, runs geometric lam sweeps to observe it, and
issues pass/fail verdicts against a certified floor (every enclosure's
lower end must clear the predicted lower bound) and, when the function
has no Cantor part, against the exact limit value.

The gadget helpers give the closed-form kernel masses of the three model
local behaviours (a jump, a staircase ramp shoulder, a Lipschitz slope
band); they serve as oracles for the refinement engine.  The covering
selector extracts a disjoint subfamily of intervals carrying at least a
1/(2+eps) share of a monotone additive set measure, with an exact
dynamic-programming fallback behind a greedy pass.
"""

from __future__ import annotations

import bisect
import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .bvmodel import BVFunction1D, VariationTriple
from .functional1d import EvaluationError, ExceedanceQuery, f_enclosures_batch
from .numeasure import Enclosure, as_gamma, nu_curved, nu_triangle
from .sectionnd import c_n_constant

__all__ = [
    "SweepResult",
    "lambda_sweep",
    "limit_estimate",
    "liminf_rhs",
    "sbv_target",
    "LimitVerdict",
    "verify_sweep",
    "gadget_jump_measure",
    "gadget_cantor_measure",
    "gadget_smooth_mass",
    "covering_select",
    "write_sweep_csv",
]


def _coerce_parts(parts) -> VariationTriple:
    if isinstance(parts, VariationTriple):
        return parts
    a, j, c = parts
    return VariationTriple(a, j, c)


# ---------------------------------------------------------------------------
# Predicted limit quantities
# ---------------------------------------------------------------------------


def liminf_rhs(parts, gamma, dimension: int = 1) -> float:
    """Certified lower value the functional's limit must reach.

    With derivative masses (a, j, c) the bound is

        C_N * (a / gamma + j / (1 + gamma)
               + gamma * c / (2 (1 + 2 gamma) (1 + gamma))).
    """
    g = as_gamma(gamma)
    p = _coerce_parts(parts)
    cn = c_n_constant(dimension)
    return cn * (
        p.a / g
        + p.j / (1.0 + g)
        + g * p.c / (2.0 * (1.0 + 2.0 * g) * (1.0 + g))
    )


def sbv_target(parts, gamma, dimension: int = 1) -> float:
    """Exact limit for functions with no Cantor part:
    C_N * (a / gamma + j / (1 + gamma)).

    Raises ValueError when a Cantor mass is present, since then only the
    lower bound of :func:`liminf_rhs` is available.
    """
    g = as_gamma(gamma)
    p = _coerce_parts(parts)
    if p.c != 0.0:
        raise ValueError(
            "exact limit target needs a zero Cantor mass; "
            f"got c = {p.c}"
        )
    cn = c_n_constant(dimension)
    return cn * (p.a / g + p.j / (1.0 + g))


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepResult:
    """Functional enclosures along a geometric grid of threshold slopes.

    ``enclosures[i]`` is None where the engine gave none at ``lambdas[i]``;
    ``failures`` then holds that lam and ``"ValueError: <reason>"``.
    """

    lambdas: tuple[float, ...]
    enclosures: tuple[Enclosure | None, ...]
    gamma: float
    function_id: str = ""
    failures: tuple[tuple[float, str], ...] = ()

    @property
    def valid_points(self) -> list[tuple[float, Enclosure]]:
        return [
            (lam, enc)
            for lam, enc in zip(self.lambdas, self.enclosures)
            if enc is not None
        ]


def lambda_sweep(
    u: BVFunction1D,
    gamma,
    lam_min: float,
    lam_max: float,
    points: int = 13,
    tol: float | None = None,
    max_depth: int = 40,
    function_id: str = "",
) -> SweepResult:
    """Evaluate the functional on a geometric grid of threshold slopes.

    The grid is one engine call, with one slope per copy of ``u``.  Bad
    arguments raise before any evaluation.  A point the engine gives no
    enclosure gets None, and its reason is recorded in ``failures``; the
    other points keep the enclosures they get alone.
    """
    if not (0.0 < lam_min <= lam_max) or not math.isfinite(lam_max):
        raise ValueError("need 0 < lam_min <= lam_max, both finite")
    if points < 1:
        raise ValueError("points must be at least 1")
    if points == 1 and lam_min != lam_max:
        raise ValueError("a single-point sweep needs lam_min == lam_max")
    q = ExceedanceQuery(gamma, lam_min, tol, max_depth)
    lams = np.geomspace(lam_min, lam_max, points).tolist()
    try:
        encs = f_enclosures_batch([u] * points, q.gamma, lams, q.tol, q.max_depth)
        failures = ()
    except EvaluationError as exc:
        encs = exc.results
        failures = tuple((lams[i], f"ValueError: {r}") for i, r in exc.reasons.items())
    return SweepResult(tuple(lams), tuple(encs), q.gamma, function_id, failures)


def _tail(sweep: SweepResult, tail_fraction: float) -> list[Enclosure]:
    if not (0.0 < tail_fraction <= 1.0):
        raise ValueError("tail_fraction must be in (0, 1]")
    n = len(sweep.lambdas)
    count = max(1, math.ceil(tail_fraction * n))
    tail = [e for e in sweep.enclosures[n - count :] if e is not None]
    if not tail:
        raise ValueError("no valid sweep points in the tail")
    return tail


def limit_estimate(sweep: SweepResult, tail_fraction: float = 0.25) -> tuple[float, float]:
    """Estimate the large-lam limit from the top of a sweep.

    Returns ``(estimate, spread)``: the mean of enclosure midpoints over
    the tail, and the full range max(hi) - min(lo) the tail enclosures
    cover.  A small spread indicates the sweep has settled.
    """
    tail = _tail(sweep, tail_fraction)
    est = float(np.mean([e.mid for e in tail]))
    spread = max(e.hi for e in tail) - min(e.lo for e in tail)
    return est, spread


@dataclass(frozen=True)
class LimitVerdict:
    """Outcome of checking a sweep tail against its predicted limits.

    ``pass_liminf`` demands every tail enclosure's certified lower end
    reach the lower-bound prediction up to the relative slack.
    ``pass_sbv`` compares the tail estimate to the exact limit and is
    None when a Cantor mass makes that limit unavailable.
    """

    rhs_liminf: float
    rhs_sbv: float | None
    tail_lo: float
    tail_hi: float
    estimate: float
    spread: float
    slack: float
    pass_liminf: bool
    pass_sbv: bool | None

    @property
    def ok(self) -> bool:
        return self.pass_liminf and self.pass_sbv is not False


def verify_sweep(
    sweep: SweepResult,
    parts,
    dimension: int = 1,
    slack: float = 0.01,
    tail_fraction: float = 0.25,
) -> LimitVerdict:
    """Check a sweep's tail against the predicted limit quantities."""
    if not (0.0 <= slack < 1.0):
        raise ValueError("slack must be in [0, 1)")
    p = _coerce_parts(parts)
    rhs = liminf_rhs(p, sweep.gamma, dimension)
    target = None if p.c != 0.0 else sbv_target(p, sweep.gamma, dimension)
    tail = _tail(sweep, tail_fraction)
    tail_lo = min(e.lo for e in tail)
    tail_hi = max(e.hi for e in tail)
    est, spread = limit_estimate(sweep, tail_fraction)
    pass_liminf = tail_lo >= rhs * (1.0 - slack)
    pass_sbv = None
    if target is not None:
        pass_sbv = abs(est - target) <= slack * target
    return LimitVerdict(
        rhs, target, tail_lo, tail_hi, est, spread, slack, pass_liminf, pass_sbv
    )


# ---------------------------------------------------------------------------
# Gadget masses
# ---------------------------------------------------------------------------


def gadget_jump_measure(deltas: Sequence[float], gamma) -> float:
    """Kernel mass of disjoint jump exceedance triangles of widths ``deltas``."""
    g = as_gamma(gamma)
    return float(sum(nu_triangle(d, g) for d in deltas))


def gadget_cantor_measure(radii: Sequence[float], gamma) -> float:
    """Kernel mass of disjoint staircase shoulder regions of sizes ``radii``."""
    g = as_gamma(gamma)
    return float(sum(nu_curved(r, g) for r in radii))


def gadget_smooth_mass(slope_mass: float, eps: float, gamma, lam: float) -> float:
    """Kernel mass of the slope band of a Lipschitz part.

    A derivative mass ``slope_mass`` spread at local slope s produces
    exceedance pairs up to separation (s / lam)^(1/gamma) ... the total,
    discounted by the band trimming factor (1 - eps), is
    (1 - eps) * slope_mass / (gamma * lam).
    """
    g = as_gamma(gamma)
    if not (0.0 <= eps < 1.0):
        raise ValueError("eps must be in [0, 1)")
    if not (slope_mass >= 0 and math.isfinite(slope_mass)):
        raise ValueError("slope_mass must be finite and nonnegative")
    if not (lam > 0 and math.isfinite(lam)):
        raise ValueError("lam must be a finite positive number")
    return (1.0 - eps) * slope_mass / (g * lam)


# ---------------------------------------------------------------------------
# Disjoint covering selection
# ---------------------------------------------------------------------------


def covering_select(
    intervals: Sequence[tuple[float, float]],
    measure: Callable[[Sequence[tuple[float, float]]], float],
    epsilon: float = 0.0,
) -> list[int]:
    """Pick pairwise disjoint intervals carrying a 1/(2+eps) measure share.

    ``measure`` maps a list of intervals to the measure of their union;
    it must be monotone and additive across disjoint families.  A greedy
    pass (longest first) is tried first; if its share falls short, an
    exact weighted-interval-scheduling optimisation over singleton
    masses runs instead.  Intervals touching at an endpoint are treated
    as conflicting.  Raises when even the exact optimum misses the
    share, which for an additive measure cannot happen.
    """
    if not (epsilon >= 0.0 and math.isfinite(epsilon)):
        raise ValueError("epsilon must be finite and nonnegative")
    ivs: list[tuple[float, float]] = []
    for item in intervals:
        lo, hi = float(item[0]), float(item[1])
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ValueError(f"bad interval {item!r}")
        ivs.append((lo, hi))
    if not ivs:
        return []
    total = float(measure(list(ivs)))
    target = total / (2.0 + epsilon)
    pad = 1e-12 * max(1.0, abs(total))

    def disjoint_from(lo, hi, chosen):
        return all(hi < clo or lo > chi for clo, chi in chosen)

    order = sorted(
        range(len(ivs)), key=lambda i: (-(ivs[i][1] - ivs[i][0]), ivs[i][0], i)
    )
    picked: list[int] = []
    chosen: list[tuple[float, float]] = []
    for i in order:
        lo, hi = ivs[i]
        if disjoint_from(lo, hi, chosen):
            picked.append(i)
            chosen.append((lo, hi))
    if float(measure([ivs[i] for i in picked])) + pad >= target:
        return sorted(picked)

    # Exact pass: maximise the sum of singleton masses over disjoint
    # subfamilies (equal to the union measure by additivity).
    weights = [float(measure([iv])) for iv in ivs]
    by_hi = sorted(range(len(ivs)), key=lambda i: (ivs[i][1], ivs[i][0], i))
    his = [ivs[i][1] for i in by_hi]
    prev = []
    for rank, i in enumerate(by_hi):
        lo = ivs[i][0]
        prev.append(bisect.bisect_left(his, lo) - 1)
    dp = [0.0] * (len(by_hi) + 1)
    for rank, i in enumerate(by_hi):
        take = weights[i] + dp[prev[rank] + 1]
        dp[rank + 1] = max(dp[rank], take)
    picked = []
    rank = len(by_hi) - 1
    while rank >= 0:
        i = by_hi[rank]
        take = weights[i] + dp[prev[rank] + 1]
        if dp[rank] >= take:
            rank -= 1
        else:
            picked.append(i)
            rank = prev[rank]
    if float(measure([ivs[i] for i in picked])) + pad >= target:
        return sorted(picked)
    raise ValueError(
        "no disjoint subfamily reaches the required measure share; "
        "the measure callback is not additive on disjoint intervals"
    )


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def write_sweep_csv(path, sweep: SweepResult, parts, dimension: int = 1) -> None:
    """Write a sweep as CSV with the predicted limit columns.

    Columns: lambda, F_lo, F_hi, rhs_liminf, sbv_target.  The last
    column is left empty when a Cantor mass is present.  Floats are
    written with 17 significant digits so reading them back is exact.
    """
    p = _coerce_parts(parts)
    rhs = liminf_rhs(p, sweep.gamma, dimension)
    target = "" if p.c != 0.0 else f"{sbv_target(p, sweep.gamma, dimension):.17g}"
    own = isinstance(path, (str, Path))
    fh = open(path, "w", newline="") if own else path
    try:
        w = csv.writer(fh)
        w.writerow(["lambda", "F_lo", "F_hi", "rhs_liminf", "sbv_target"])
        for lam, enc in zip(sweep.lambdas, sweep.enclosures):
            if enc is None:
                continue
            w.writerow(
                [
                    f"{lam:.17g}",
                    f"{enc.lo:.17g}",
                    f"{enc.hi:.17g}",
                    f"{rhs:.17g}",
                    target,
                ]
            )
    finally:
        if own:
            fh.close()
