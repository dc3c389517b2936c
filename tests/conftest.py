"""Shared test helpers."""

import math

import pytest

from nugamma.bvmodel import cantor_eval


def _cantor_monte_carlo(lam: float, n: int, rng) -> tuple[float, float]:
    """Seeded Monte Carlo value of F for the unit Cantor staircase at
    gamma 1, with its standard error.

    At gamma 1 the kernel weight is 1, so F = 2 lam |R| P(exceed) for
    pairs drawn uniformly on R = [-H, 1] x [0, H] with H = lam^(-1/2): no
    pair farther apart moves the unit staircase by more than lam h^2, and
    pairs outside see a constant.  The staircase is read through the
    scalar reference evaluator, not the engine's array one.
    """

    def stair(t):
        return cantor_eval(min(max(t, 0.0), 1.0))

    H = lam**-0.5
    xs = rng.uniform(-H, 1.0, n).tolist()
    hs = rng.uniform(0.0, H, n).tolist()
    hits = sum(abs(stair(x + h) - stair(x)) > lam * h * h for x, h in zip(xs, hs))
    p = hits / n
    scale = 2.0 * lam * (1.0 + H) * H
    return scale * p, scale * math.sqrt(p * (1.0 - p) / n)


@pytest.fixture
def cantor_monte_carlo():
    """The function ``(lam, n, rng) -> (estimate, stderr)`` above."""
    return _cantor_monte_carlo
