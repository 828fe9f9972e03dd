"""Exact lattice-polytope geometry for polynomial supports.

Minimization keeps the pointwise-minimal vertices of a hull
(`minimal_vertices`).  It visits points by total degree, then
lexicographically, skips untested every point that a kept vertex dominates,
and decides vertexhood only for the rest.  Hull vertices are settled by exact
integer certificates first: the lex-least and lex-greatest point at an extreme
of a coordinate (vertices of a face, hence of the hull), the unique maximizer
along the direction from the centroid (a vertex), and the midpoint of two
other points (not a vertex).  A small linear program decides only the points
these leave open.  The certificates read coordinate columns built once per
point set, and they, the dominance test and the all-int test of LP rows loop
in C.  `vn` returns a product of single monomials as the monomial of their
sum, with no hull.  Cone row reduction keeps a row without an LP when a unit
vector satisfies the other rows and violates it.  `normal_fan` reduces the
cones of all monomials together: a cone with an interior witness keeps exactly
its facet rows, and two such cones share each facet, so each pair of monomials
is decided once, by a unit vector, by the point where the two tie on the
segment between their witnesses, or else by one LP.  The LPs and the cone
witnesses are solved by a two-phase simplex with Bland's pivoting rule on an
integer tableau that shares one positive common denominator (fraction-free,
Bareiss-style pivoting).  Rational input rows are scaled to integers and
results come back as exact `Fraction`s.  No floating point enters any
geometric predicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from math import gcd, lcm
from operator import add, mul, sub
from typing import Iterable, Sequence

from .algebra import INF, Monomial, Poly, dominated, minimal_support

Sense = str  # "<=", "=", ">="


class GeometryError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Linear programming
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LPProblem:
    """maximize objective . x  subject to the rows, x >= 0, exact rationals."""

    objective: tuple
    rows: tuple  # of (coeffs, sense, rhs)
    maximize: bool = True


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: tuple = ()
    value: Fraction = Fraction(0)


_FLIP = {"<=": ">=", ">=": "<=", "=": "="}


def _integral(values) -> tuple:
    """A rational row scaled by the least positive integer s making it
    integral; returns (the scaled row as ints, s)."""
    if {*map(type, values)} <= {int}:
        return list(values), 1
    fracs = list(map(Fraction, values))
    s = lcm(*(f.denominator for f in fracs))
    return [f.numerator * (s // f.denominator) for f in fracs], s


def _pivot(T, basis, r, c, D) -> int:
    """Pivot the integer tableau T over denominator D on (r, c).

    Every row but r becomes (T[i][j]*piv - T[i][c]*T[r][j]) / D, which divides
    exactly (Bareiss); row r is kept.  Returns the new denominator piv, made
    positive by negating the tableau after a negative pivot.
    """
    top = T[r]
    piv = top[c]
    for i, row in enumerate(T):
        if i == r:
            continue
        f = row[c]
        if f:
            T[i] = [(a * piv - f * b) // D for a, b in zip(row, top)]
        elif piv != D:
            T[i] = [a * piv // D for a in row]
    basis[r] = c
    if piv < 0:
        T[:] = [[-a for a in row] for row in T]
        return -piv
    return piv


def _simplex(T, basis, c, D, blocked) -> tuple:
    """Maximize c.x with Bland's rule on the integer tableau T over D > 0.

    The rational tableau is T / D, so reduced costs have the sign of
    c[j]*D - sum(cb[i]*T[i][j]) and ratios compare by cross-multiplication.
    `blocked` columns may never (re)enter the basis.  Returns the status,
    "optimal" or "unbounded", and the final denominator; T and basis are
    updated in place.
    """
    ncols = len(T[0]) - 1
    while True:
        in_basis = set(basis)
        costed = [(c[b], T[i]) for i, b in enumerate(basis) if c[b]]
        enter = -1
        for j in range(ncols):
            if j in blocked or j in in_basis:
                continue
            if c[j] * D - sum(cb * row[j] for cb, row in costed) > 0:
                enter = j
                break  # Bland: smallest improving index
        if enter < 0:
            return "optimal", D
        leave = -1
        for i, row in enumerate(T):
            a = row[enter]
            if a > 0:
                if leave < 0:
                    leave = i
                    continue
                # row[-1] / a against the best ratio so far, both a > 0.
                lhs = row[-1] * T[leave][enter]
                rhs = T[leave][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            return "unbounded", D
        D = _pivot(T, basis, leave, enter, D)


def lp_solve(prob: LPProblem) -> LPResult:
    """Solve prob exactly by a two-phase simplex on an integer tableau.

    Each row is scaled to integers on its own; its slack and artificial
    columns keep coefficient 1, so phase 1 weighs the artificial of a row
    scaled by s by 1/s (times a common multiple, to stay integral).
    """
    n = len(prob.objective)
    rows = []
    for coeffs, sense, rhs in prob.rows:
        if len(coeffs) != n:
            raise GeometryError("row length does not match objective length")
        ints, s = _integral((*coeffs, rhs))
        if ints[-1] < 0:
            ints = [-a for a in ints]
            sense = _FLIP[sense]
        rows.append((ints, s, sense))

    n_slack = sum(1 for _, _, sense in rows if sense != "=")
    n_art = sum(1 for _, _, sense in rows if sense != "<=")
    ncols = n + n_slack + n_art

    T = []
    basis = []
    slack_at = n
    art_at = n + n_slack
    art_scale = {}  # artificial column -> scale of its row
    for ints, s, sense in rows:
        row = ints[:-1] + [0] * (n_slack + n_art) + ints[-1:]
        if sense == "<=":
            row[slack_at] = 1
            basis.append(slack_at)
            slack_at += 1
        else:
            if sense == ">=":
                row[slack_at] = -1
                slack_at += 1
            row[art_at] = 1
            basis.append(art_at)
            art_scale[art_at] = s
            art_at += 1
        T.append(row)

    D = 1
    if art_scale:
        common = lcm(*art_scale.values())
        phase1 = [0] * ncols
        for j, s in art_scale.items():
            phase1[j] = -(common // s)
        _, D = _simplex(T, basis, phase1, D, blocked=())
        if sum(phase1[b] * T[i][-1] for i, b in enumerate(basis)) < 0:
            return LPResult("infeasible")
        # Pivot any zero-valued artificial out of the basis if possible.
        for i, b in enumerate(basis):
            if b in art_scale:
                for j in range(ncols):
                    if j not in art_scale and T[i][j] != 0:
                        D = _pivot(T, basis, i, j, D)
                        break

    sign = 1 if prob.maximize else -1
    objective, scale = _integral(prob.objective)
    c = [sign * a for a in objective] + [0] * (n_slack + n_art)
    status, D = _simplex(T, basis, c, D, blocked=art_scale)
    if status == "unbounded":
        return LPResult("unbounded")
    x = [Fraction(0)] * n
    total = 0
    for i, b in enumerate(basis):
        if b < n:
            x[b] = Fraction(T[i][-1], D)
            total += objective[b] * T[i][-1]
    return LPResult("optimal", tuple(x), Fraction(total, scale * D))


# ---------------------------------------------------------------------------
# Polytopes
# ---------------------------------------------------------------------------


def _is_vertex(p, others) -> bool:
    """True iff p is not a convex combination of the other points."""
    if not others:
        return True
    rows = [(col, "=", a) for col, a in zip(zip(*others), p)]
    rows.append(((1,) * len(others), "=", 1))
    prob = LPProblem((0,) * len(others), tuple(rows))
    return lp_solve(prob).status == "infeasible"


def _dot(a, b) -> int:
    return sum(map(mul, a, b))


class _VertexTest:
    """Decides which points of one finite lattice point set are vertices of
    its convex hull; calling it on a point of the set returns the verdict.

    Exact certificates settle a point where they can:
    - the lex-least and the lex-greatest point at an extreme of a coordinate
      are vertices: the points at that extreme span a face of the hull, the
      lex-extreme points of a set are vertices of its hull, and a vertex of a
      face is a vertex of the hull;
    - the unique maximizer of c.x, where c points from the centroid to the
      point, is a vertex;
    - the midpoint of two other points of the set is not.
    The LP of `_is_vertex` decides a point these leave open.  Before the first
    LP every point is certified, so each LP leaves out every point already
    known not to be a vertex: a non-vertex lies in the hull of the vertices.
    """

    def __init__(self, present: set):
        self.present = present
        self.pts = pts = sorted(present)
        cols = list(zip(*pts))
        self.total = list(map(sum, cols))
        # pts is sorted, so at an extreme of a column the first point is the
        # lex-least there and the first of the reversed points the lex-greatest.
        ext, back = [*map(min, cols), *map(max, cols)], pts[::-1]
        least = map(pts.__getitem__, map(tuple.index, cols * 2, ext))
        greatest = map(back.__getitem__, map(tuple.index, list(zip(*back)) * 2, ext))
        # point -> True, False, or None when left to the LP
        self.verdict = dict.fromkeys(chain(least, greatest), True)

    def _certify(self, p):
        """True or False when the centroid or midpoint certificate settles p,
        else None."""
        pts = self.pts
        # c points from the centroid to p, scaled by len(pts) to stay
        # integral.  p is one of pts, so it is the unique maximizer of c.x iff
        # c.p is the maximum and no other point attains it.
        c = list(map(sub, map(mul, p, repeat(len(pts))), self.total))
        values = list(map(sum, map(map, repeat(mul), repeat(c), pts)))
        top = _dot(c, p)
        if max(values) == top and values.count(top) == 1:
            return True
        # p is the midpoint of q and 2p - q, two other points of the set.
        twice = list(map(add, p, p))
        mirrors = map(tuple, map(map, repeat(sub), repeat(twice), filter(p.__ne__, pts)))
        return False if any(map(self.present.__contains__, mirrors)) else None

    def __call__(self, p) -> bool:
        verdict = self.verdict
        if p not in verdict:
            verdict[p] = self._certify(p)
        if verdict[p] is None:
            for q in self.pts:
                if q not in verdict:
                    verdict[q] = self._certify(q)
            verdict[p] = _is_vertex(p, [q for q in self.pts if q != p and verdict[q] is not False])
        return verdict[p]


def hull_vertices(points: Iterable[Monomial]) -> tuple:
    """The vertices of the convex hull of a finite set of lattice points,
    sorted and deduplicated.

    Each point is settled by an exact certificate of `_VertexTest` where one
    exists (the lex-extreme points of a coordinate-extreme face, the centroid
    direction, midpoints), and an LP decides only the points left open.
    """
    present = set(map(tuple, points))
    # Distinct points are always vertices of their own hull.
    if len(present) <= 2:
        return tuple(sorted(present))
    is_vertex = _VertexTest(present)
    return tuple(p for p in is_vertex.pts if is_vertex(p))


def minimal_vertices(points: Iterable[Monomial]) -> list:
    """The pointwise-minimal vertices of the convex hull of a finite set of
    lattice points, sorted: `minimal_support(hull_vertices(points))`.

    Points are visited by total degree, then lexicographically.  A point that
    a kept vertex dominates is skipped untested, and vertexhood is decided
    only for the rest.  A vertex dominating a point has a smaller total
    degree, so it is visited first, and if it was skipped, the kept vertex
    dominating it dominates the point too.  A point dominated only by
    non-vertices is still tested.
    """
    present = set(map(tuple, points))
    if len(present) <= 2:
        return minimal_support(present)
    is_vertex = _VertexTest(present)
    kept = []
    # pts is sorted and the sort is stable: the order is (sum(p), p).
    for p in sorted(is_vertex.pts, key=sum):
        if not dominated(p, kept) and is_vertex(p):
            kept.append(p)
    return sorted(kept)


def np_min(s: Poly) -> Poly:
    """The minimal polynomial of s: the polynomial on the pointwise-minimal
    vertices of the Newton polytope of s.

    `minimal_vertices` finds them dominance first: it decides vertexhood only
    for the monomials that no kept vertex dominates.

    For non-negative weight assignments, minimizing m . z over the support of
    s and over the support of the minimal polynomial give the same value.
    """
    return Poly._of(s.dim, frozenset(minimal_vertices(s.coeffs)))


def vn(polys: Sequence[Poly], dim: int | None = None) -> Poly:
    """Minimal polynomial of a product, without expanding the product.

    Folds pairwise Minkowski vertex sums over the factor supports.  The last
    sum is not hulled in full: `minimal_vertices` keeps its pointwise-minimal
    vertices, deciding vertexhood only for the sums that no kept vertex
    dominates.  A product of single monomials is the monomial of their sum,
    with no hull, and a single factor keeps the pointwise-minimal points of
    its support.  The empty product is the unit polynomial (dim must then be
    given).
    """
    if not polys:
        if dim is None:
            raise GeometryError("empty product with unspecified dimension")
        return Poly.unit(dim)
    d = polys[0].dim
    for s in polys:
        if s.dim != d:
            raise GeometryError("dimension mismatch in product")
        if s.is_zero():
            return Poly.zero(d)
    supports = [s.coeffs for s in polys]
    if max(map(len, supports)) == 1:
        (total,) = supports[0]
        for (m,) in supports[1:]:
            total = tuple(map(add, total, m))
        return Poly._of(d, frozenset((total,)))
    if len(supports) == 1:
        return Poly._of(d, frozenset(minimal_support(supports[0])))
    points = supports[0]
    for support in supports[1:-1]:
        points = hull_vertices({tuple(map(add, p, q)) for p in points for q in support})
    sums = {tuple(map(add, p, q)) for p in points for q in supports[-1]}
    return Poly._of(d, frozenset(minimal_vertices(sums)))


# ---------------------------------------------------------------------------
# Normal cones
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HalfspaceSystem:
    """A homogeneous system { x >= 0 : row . x <= 0 for every row }."""

    dim: int
    rows: tuple  # of tuples of ints or Fractions

    def contains(self, z, slack=Fraction(0)) -> bool:
        """Membership of a non-negative point, with optional numeric slack.

        Infinite coordinates are allowed; a row with a positive coefficient on
        an infinite coordinate is violated unless cancelled, a negative one
        satisfies the row outright.
        """
        z = list(z)
        if len(z) != self.dim:
            raise GeometryError(f"expected a point of dimension {self.dim}, got {len(z)}")
        for row in self.rows:
            total = 0
            unbounded_up = unbounded_down = False
            for a, x in zip(row, z):
                if x == INF:
                    if a > 0:
                        unbounded_up = True
                    elif a < 0:
                        unbounded_down = True
                else:
                    total += a * Fraction(x) if isinstance(x, (int, Fraction)) else a * x
            if unbounded_down:
                continue
            if unbounded_up:
                return False
            if total > slack:
                return False
        return True


def normal_cone(mu: Monomial, s: Poly) -> tuple:
    """The region of weight vectors where mu attains the tropical minimum.

    Returns (system, witness): the halfspace rows (mu - nu) . x <= 0 for every
    other support monomial nu, and a rational witness point.  The witness is
    strictly interior when the cone has one (found by maximizing the minimum
    slack over the unit simplex); otherwise a non-zero boundary point if any
    exists, else None.
    """
    mu = tuple(mu)
    if mu not in s.coeffs:
        raise GeometryError(f"{mu} is not in the support")
    system = _cone_rows(mu, s)
    return system, _cone_witness(system)[0]


def _cone_rows(mu, s: Poly) -> HalfspaceSystem:
    rows = sorted({tuple(a - b for a, b in zip(mu, nu)) for nu in s.coeffs if nu != mu})
    return HalfspaceSystem(s.dim, tuple(rows))


def _cone_witness(system: HalfspaceSystem) -> tuple:
    """(witness, whether it is strictly interior) for `normal_cone`."""
    d = system.dim
    if not system.rows:
        return tuple(Fraction(1) for _ in range(d)), True
    # Variables: x_1..x_d, t.  Maximize t with row.x + t <= 0, sum x <= 1.
    lp_rows = [(row + (1,), "<=", 0) for row in system.rows]
    lp_rows.append(((1,) * d + (0,), "<=", 1))
    res = lp_solve(LPProblem((0,) * d + (1,), tuple(lp_rows)))
    if res.status == "optimal" and res.value > 0:
        return res.x[:d], True
    # No interior: look for a non-zero boundary point.
    lp_rows = [(row, "<=", 0) for row in system.rows]
    lp_rows.append(((1,) * d, "<=", 1))
    res = lp_solve(LPProblem((1,) * d, tuple(lp_rows)))
    if res.status == "optimal" and res.value > 0:
        return res.x, False
    return None, False


def reduce_rows(system: HalfspaceSystem) -> HalfspaceSystem:
    """Drop rows implied by the remaining rows together with x >= 0.

    A row is kept without an LP when some coordinate j has row[j] > 0 while
    every other kept row is <= 0 at j: the unit vector e_j satisfies the
    others and violates the row.
    """
    kept = list(system.rows)
    for row in system.rows:
        if _unit_facet(row, kept):
            continue
        others = [r for r in kept if r != row]
        if _implied(row, others):
            kept = others
    return HalfspaceSystem(system.dim, tuple(kept))


def _unit_facet(row, rows) -> bool:
    """True when some e_j satisfies every other row and violates row."""
    return any(
        a > 0 and all(r[j] <= 0 for r in rows if r != row) for j, a in enumerate(row)
    )


def _implied(row, others) -> bool:
    """True when row . x <= 0 follows from the other rows and x >= 0: the
    maximum of row . x over them (bounded by the unit simplex, by
    homogeneity) is at most 0."""
    lp_rows = [(r, "<=", 0) for r in others]
    lp_rows.append(((1,) * len(row), "<=", 1))
    res = lp_solve(LPProblem(row, tuple(lp_rows)))
    return res.status == "optimal" and res.value <= 0


def normal_fan(s: Poly) -> dict:
    """The normal cone of every monomial of s: {mu: (system, witness)}, where
    witness is that of `normal_cone(mu, s)` and system is its cone reduced as
    `reduce_rows` reduces it.

    A cone whose witness is interior (every other monomial is strictly larger
    there) and whose rows are pairwise non-parallel is full-dimensional, so
    `reduce_rows` keeps exactly its facet rows, whatever their order.  Row
    mu - nu is a facet of mu's cone iff the two cones meet in a common facet,
    iff nu - mu is a facet of nu's cone when that cone is such a cone too, so
    each pair is decided once, by the first of:
    - a unit vector e_j that satisfies every other row and violates the row,
      in either cone;
    - the segment tie: on the segment between the two interior witnesses,
      the point where mu and nu tie, if every other monomial is strictly
      larger there (moving from it towards nu's witness keeps every other
      row of mu's cone and violates mu - nu);
    - one LP of the row against all other rows.
    Every other cone is reduced by `reduce_rows`.
    """
    cones = {}
    full = set()  # the monomials whose cones are decided pairwise
    for mu in s.support():
        system = _cone_rows(mu, s)
        witness, interior = _cone_witness(system)
        cones[mu] = system, witness
        rows = system.rows
        if interior and (len(rows) < 2 or len({_direction(r) for r in rows}) == len(rows)):
            full.add(mu)
    values = {}  # mu -> every monomial's value at mu's witness scaled to integers
    facet = {}  # (mu, row) -> whether mu's cone keeps the row
    for mu in full:
        rows = cones[mu][0].rows
        for row in rows:
            if (mu, row) in facet:
                continue
            nu = tuple(a - b for a, b in zip(mu, row))
            keep = _unit_facet(row, rows)
            if nu in full:
                back = tuple(-a for a in row)
                keep = keep or _unit_facet(back, cones[nu][0].rows) or _segment_tie(
                    _values(mu, cones, values), _values(nu, cones, values), mu, nu
                )
            if not keep:
                keep = not _implied(row, [r for r in rows if r != row])
            facet[mu, row] = keep
            if nu in full:
                facet[nu, back] = keep
    fan = {}
    for mu, (system, witness) in cones.items():
        if mu in full:
            system = HalfspaceSystem(system.dim, tuple(r for r in system.rows if facet[mu, r]))
        else:
            system = reduce_rows(system)
        fan[mu] = (system, witness)
    return fan


def _direction(row) -> tuple:
    """The primitive integer vector along a non-zero integer row."""
    g = gcd(*row)
    return tuple(a // g for a in row)


def _values(mu, cones, values) -> dict:
    """{lam: lam . w} for every monomial lam, with w mu's witness scaled to
    integers; cached in values."""
    if mu not in values:
        w = _integral(cones[mu][1])[0]
        values[mu] = {lam: _dot(lam, w) for lam in cones}
    return values[mu]


def _segment_tie(at_a, at_b, mu, nu) -> bool:
    """True when, at the point where mu and nu tie on the segment between their
    integral witnesses a and b, every other monomial is strictly larger.

    at_a and at_b hold every monomial's value at a and at b.  mu - nu is < 0
    at a and > 0 at b, so the tie point is fb * a - fa * b with
    fa = (mu - nu) . a and fb = (mu - nu) . b.
    """
    fa = at_a[mu] - at_a[nu]
    fb = at_b[mu] - at_b[nu]
    tie = fb * at_a[mu] - fa * at_b[mu]
    return all(
        fb * at_a[lam] - fa * at_b[lam] > tie for lam in at_a if lam != mu and lam != nu
    )


# ---------------------------------------------------------------------------
# JSON forms
# ---------------------------------------------------------------------------


def _frac_to_json(q) -> str:
    # str gives an int and a Fraction of the same value the same text; only
    # a float can be INF, and comparing a Fraction with a float is slow.
    return "inf" if type(q) is float and q == INF else str(q)


def _frac_from_json(text: str):
    return INF if text == "inf" else Fraction(text)


def cone_to_json(system: HalfspaceSystem, witness=None) -> dict:
    return {
        "dim": system.dim,
        "rows": [{"normal": [_frac_to_json(a) for a in row], "rhs": "0"} for row in system.rows],
        "witness": None if witness is None else [_frac_to_json(a) for a in witness],
    }


def cone_from_json(obj: dict) -> tuple:
    system = HalfspaceSystem(
        obj["dim"],
        tuple(tuple(_frac_from_json(a) for a in row["normal"]) for row in obj["rows"]),
    )
    witness = obj.get("witness")
    if witness is not None:
        witness = tuple(_frac_from_json(a) for a in witness)
    return system, witness
