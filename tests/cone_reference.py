"""Cone row reduction by one exact LP per row, kept as a reference.

Tests compare each cone of `tropinf.geometry.normal_fan` against it: the
irredundant rows of a full-dimensional cone whose rows are pairwise not
parallel are its facets, so both must keep the same rows.
"""

from tropinf.geometry import HalfspaceSystem, LPProblem, lp_solve


def reduce_rows(system: HalfspaceSystem) -> HalfspaceSystem:
    """Drop rows implied by the remaining rows together with x >= 0."""
    rows = list(system.rows)
    kept = list(rows)
    for row in rows:
        others = [r for r in kept if r != row]
        # row is redundant iff max row.x over the others (bounded by the
        # unit simplex, by homogeneity) cannot exceed 0.
        lp_rows = [(r, 0) for r in others]
        lp_rows.append(((1,) * len(row), 1))
        if lp_solve(LPProblem(row, tuple(lp_rows))).value <= 0:
            kept = others
    return HalfspaceSystem(system.dim, tuple(kept))
