"""Hull vertices by one exact LP per point, kept as a reference.

This is the `hull_vertices` tropinf used before its vertex certificates.
Tests compare `tropinf.geometry.hull_vertices` against it: the vertex set of
a finite point set is unique, so both must return the same sorted tuple.
"""

from typing import Iterable

from tropinf.algebra import Monomial
from tropinf.geometry import _is_vertex


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
