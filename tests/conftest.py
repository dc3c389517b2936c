"""Shared test helpers."""

import math

import pytest

from nugamma.bvmodel import cantor_eval


def _cantor_monte_carlo(lam: float, n: int, rng, gamma: float = 1.0) -> tuple[float, float]:
    """Seeded Monte Carlo value of F for the unit Cantor staircase, with
    its standard error.

    No pair farther apart than H = lam^(-1/(1+gamma)) moves the unit
    staircase by more than lam h^(1+gamma), and pairs outside [-H, 1] see
    a constant.  So F = 2 lam M P(exceed) for pairs drawn on
    R = [-H, 1] x [0, H] with density proportional to the kernel
    h^(gamma-1): x uniform and h = H V^(1/gamma) with V uniform, where
    M = (1 + H) H^gamma / gamma is the kernel mass of R.  At gamma 1 the
    draws are those of a uniform h.  The staircase is read through the
    scalar reference evaluator, not the engine's array one.
    """

    def stair(t):
        return cantor_eval(min(max(t, 0.0), 1.0))

    H = lam ** (-1.0 / (1.0 + gamma))
    xs = rng.uniform(-H, 1.0, n).tolist()
    hs = (H * rng.random(n) ** (1.0 / gamma)).tolist()
    hits = sum(
        abs(stair(x + h) - stair(x)) > lam * h ** (1.0 + gamma) for x, h in zip(xs, hs)
    )
    p = hits / n
    scale = 2.0 * lam * (1.0 + H) * H**gamma / gamma
    return scale * p, scale * math.sqrt(p * (1.0 - p) / n)


@pytest.fixture
def cantor_monte_carlo():
    """The function ``(lam, n, rng, gamma=1.0) -> (estimate, stderr)`` above."""
    return _cantor_monte_carlo
