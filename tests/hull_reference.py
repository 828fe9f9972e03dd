"""Hull vertices by one exact LP per point, kept as a reference.

This is the `hull_vertices` tropinf used before its vertex certificates.
Tests compare `tropinf.geometry.hull_vertices` against it: the vertex set of
a finite point set is unique, so both must return the same sorted tuple.
`winners` gives the monomials that can be the strict tropical minimum, which
every minimized polynomial must keep.
"""

from typing import Iterable

import fraction_simplex
from tropinf.algebra import Monomial
from tropinf.geometry import LPProblem, _is_vertex


def hull_vertices(points: Iterable[Monomial]) -> tuple:
    """The vertices of the convex hull of a finite set of lattice points,
    sorted and deduplicated."""
    pts = sorted(set(tuple(p) for p in points))
    if len(pts) <= 1:
        return tuple(pts)

    # Cheap pass: a unique extreme along any coordinate direction is a vertex.
    sure = set()
    for c in range(len(pts[0])):
        for pick in (min, max):
            ext = pick(p[c] for p in pts)
            hits = [p for p in pts if p[c] == ext]
            if len(hits) == 1:
                sure.add(hits[0])

    verts = []
    for p in pts:
        if p in sure or _is_vertex(p, [q for q in pts if q != p]):
            verts.append(p)
    return tuple(verts)


def winners(points: Iterable[Monomial]) -> set:
    """The points that are the strict minimum of z . p for some weight z >= 0:
    the vertices of the convex hull plus the positive orthant, by one exact
    LP per point on the `Fraction` reference simplex.  For a point p it
    maximizes t over z >= 0, 0 <= t <= 1 with sum(z) <= 1 and
    (p - q) . z + t <= 0 for every other point q."""
    pts = set(map(tuple, points))
    out = set()
    for p in pts:
        rows = [
            ((*(a - b for a, b in zip(p, q)), 1), "<=", 0) for q in pts if q != p
        ]
        rows.append(((1,) * len(p) + (0,), "<=", 1))
        rows.append(((0,) * len(p) + (1,), "<=", 1))
        objective = (0,) * len(p) + (1,)
        if fraction_simplex.lp_solve(LPProblem(objective, tuple(rows))).value > 0:
            out.add(p)
    return out
