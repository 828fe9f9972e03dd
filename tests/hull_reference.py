"""Brute-force references for minimization, kept for tests.

`winners` is the definition the engine's minimization must meet: the
monomials that are the strict tropical minimum for some weight z >= 0, one
exact LP per point and no certificate.  It solves them with the integer
simplex kernel, which `test_lp_kernel` checks pivot for pivot against the
`Fraction` reference simplex, and which is some thirty times faster on these
LPs.  `minimal_support` is the pointwise-minimal part of a set of monomials.
"""

from typing import Iterable

from tropinf.algebra import Monomial, dominated
from tropinf.geometry import LPProblem, lp_solve


def minimal_support(points: Iterable[Monomial]) -> list:
    """The pointwise-minimal elements of a set of monomials, sorted."""
    pts = list(points)
    return sorted(m for m in pts if not dominated(m, filter(m.__ne__, pts)))


def winners(points: Iterable[Monomial]) -> set:
    """The points that are the strict minimum of z . p for some weight z >= 0:
    the vertices of the convex hull plus the positive orthant, by one exact
    LP per point.  For a point p it maximizes t over z >= 0, 0 <= t <= 1 with
    sum(z) <= 1 and (p - q) . z + t <= 0 for every other point q."""
    pts = set(map(tuple, points))
    out = set()
    for p in pts:
        rows = [((*(a - b for a, b in zip(p, q)), 1), 0) for q in pts if q != p]
        rows.append(((1,) * len(p) + (0,), 1))
        rows.append(((0,) * len(p) + (1,), 1))
        objective = (0,) * len(p) + (1,)
        if lp_solve(LPProblem(objective, tuple(rows))).value > 0:
            out.add(p)
    return out
