"""Independent reference values for the smooth cases of ``catalog-deep``.

The benchmark checks each certified enclosure against a known value.  Jumps
have closed forms; the smooth ramps do not, so their values at the
benchmark's (gamma, lam) come from this direct quadrature, which shares no
code with the branch-and-bound engine:

    F = 2 lam / gamma * integral over s in [0, S] of m(s^(1/gamma)) ds,

where m(h) is the length of {x : |u(x + h) - u(x)| > lam h^(1 + gamma)},
found by bracketing sign changes on a fine grid and bisecting them, and
s = h^gamma removes the kernel's singularity at h = 0.  The profiles are
written out here from their textbook formulas, not taken from the package.

Run ``python3 bench/reference.py`` to print the values and their error
estimates (the change between two grid resolutions); the constants in
``bench/workloads.py`` were produced by it.
"""

from __future__ import annotations

import math

import numpy as np

# Profile on [0, 1] and the local maxima of its |slope|: m(h) has a kink
# where lam * h^gamma crosses one of them, and none above the largest.
PROFILES = {
    "smoothstep": (lambda t: t * t * (3.0 - 2.0 * t), (1.5,)),
    "sine": (lambda t: 0.5 * (1.0 - np.cos(np.pi * t)), (math.pi / 2.0,)),
    "cubic": (lambda t: t - 3.0 * t * t + 2.0 * t**3, (1.0, 0.5)),
}


def _u(profile, x):
    return profile(np.clip(x, 0.0, 1.0))


def _exceed_length(profile, h, thr, n):
    """Length of {x : |u(x + h) - u(x)| > thr} for a profile on [0, 1]."""
    grid = np.unique(
        np.concatenate([np.linspace(-h, 1.0, n), [0.0, 1.0 - h, max(-h, 1.0 - h)]])
    )
    grid = grid[(grid >= -h) & (grid <= 1.0)]

    def f(x):
        return np.abs(_u(profile, x + h) - _u(profile, x)) - thr

    v = f(grid)
    pos = v > 0.0
    total = float(np.sum(np.diff(grid)[pos[:-1] & pos[1:]]))
    for i in np.nonzero(pos[:-1] != pos[1:])[0]:
        a, b = grid[i], grid[i + 1]
        a_pos = pos[i]
        for _ in range(60):
            m = 0.5 * (a + b)
            if (f(np.array([m]))[0] > 0.0) == a_pos:
                a = m
            else:
                b = m
        root = 0.5 * (a + b)
        total += (grid[i + 1] - root) if not a_pos else (root - grid[i])
    return total


def reference_F(name: str, gamma: float, lam: float, n_x: int, n_s: int) -> float:
    profile, slopes = PROFILES[name]
    # Pairs exceed only while max_slope * h > lam * h^(1 + gamma).  Each
    # stretch between kinks gets panels graded towards its upper end, where
    # m behaves like a square root.
    kinks = [0.0] + sorted(v / lam for v in slopes)
    nodes, weights = np.polynomial.legendre.leggauss(8)
    grade = 1.0 - (1.0 - np.linspace(0.0, 1.0, n_s + 1)) ** 2
    edges = np.unique(
        np.concatenate([lo + (hi - lo) * grade for lo, hi in zip(kinks[:-1], kinks[1:])])
    )
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        for z, w in zip(nodes, weights):
            s = 0.5 * (a + b) + 0.5 * (b - a) * z
            h = s ** (1.0 / gamma)
            m = _exceed_length(profile, h, lam * h ** (1.0 + gamma), n_x)
            total += 0.5 * (b - a) * w * m
    return 2.0 * lam / gamma * total


def main() -> None:
    gamma, lam = 0.5, 1e3
    for name in PROFILES:
        coarse = reference_F(name, gamma, lam, 2000, 100)
        fine = reference_F(name, gamma, lam, 4000, 200)
        print(f"{name}: F = {fine:.12f}  (change from coarse grid {abs(fine - coarse):.1e})")


if __name__ == "__main__":
    main()
