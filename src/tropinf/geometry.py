"""Exact lattice-polytope geometry for polynomial supports.

Minimization keeps the vertices of the lower hull NP(s) + R^d_{>=0}, the
monomials that are the strict tropical minimum for some weight z >= 0, each
with a witness weight (`lower_hull`).  It is the one minimization: `np_min`,
every fold of `vn` and `normal_fan` call it.  Dominated points are skipped;
two points left are each witnessed by a unit vector, and more are settled by
exact integer certificates where they can be: the indicator of a point's
column minima, a dominated midpoint of two other points (not a vertex), the
gap weight that sums how far the other points lie above it in each column,
and a few clipped perceptron steps from the indicator (each weight a witness
once checked).  A small linear program decides only the points these leave
open.  The dominance test and the certificates loop in C.  A vertex of the
lower hull of a Minkowski sum is a sum of vertices of the summands' lower
hulls, so `vn` minimizes every fold of a product, and minimizing early is
exact.  `normal_fan` reuses the witnesses: every kept monomial has a
full-dimensional cone, so each pair of monomials is decided once, by the
point where the two tie on the segment between their witnesses, by a unit
vector, by two other monomials whose sum lies below the pair's, or else by
one LP.  Every such LP maximizes c . x subject to A x <= b and x >= 0 with
b >= 0, and is bounded; `lp_solve` solves that one form by Bland's simplex
from the slack basis on an integer tableau that shares one positive common
denominator (fraction-free, Bareiss-style pivoting), and refuses a negative
right-hand side or an unbounded LP.  Rational input rows are scaled to
integers and results come back as exact `Fraction`s.  No floating point
enters any geometric predicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import compress, repeat
from math import lcm
from operator import add, and_, lt, mul, sub
from typing import Iterable, Sequence

from .algebra import INF, Monomial, Poly, dominated


class GeometryError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Linear programming
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LPProblem:
    """maximize objective . x subject to coeffs . x <= rhs for every row
    (coeffs, rhs) and x >= 0, over exact rationals, with every rhs >= 0.

    It is the one form the geometry poses: its right-hand sides are 0 or 1,
    so x = 0 is feasible, and each of its LPs is bounded (see `lower_hull`
    and `_implied`).
    """

    objective: tuple
    rows: tuple  # of (coeffs, rhs)


@dataclass(frozen=True)
class LPResult:
    x: tuple
    value: Fraction


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
    exactly (Bareiss); row r is kept.  Returns the new denominator piv,
    positive because the ratio test picks only a row with T[r][c] > 0.
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
    return piv


def lp_solve(prob: LPProblem) -> LPResult:
    """Solve prob exactly by Bland's simplex from the slack basis.

    Each row is scaled to integers on its own and gets a slack column of
    coefficient 1, so x = 0 is the first basic solution.  The tableau is
    integral over one positive denominator D (the rational tableau is T / D),
    so reduced costs have the sign of c[j]*D - sum(cb[i]*T[i][j]) and ratios
    compare by cross-multiplication.  A negative rhs, where x = 0 is not
    feasible, and an unbounded LP raise GeometryError.
    """
    n = len(prob.objective)
    m = len(prob.rows)
    T = []
    for i, (coeffs, rhs) in enumerate(prob.rows):
        if len(coeffs) != n:
            raise GeometryError("row length does not match objective length")
        ints = _integral((*coeffs, rhs))[0]
        if ints[-1] < 0:
            raise GeometryError(f"negative right-hand side {rhs}")
        T.append(ints[:-1] + [int(j == i) for j in range(m)] + ints[-1:])
    basis = list(range(n, n + m))
    objective, scale = _integral(prob.objective)
    c = objective + [0] * m
    D = 1
    while True:
        in_basis = set(basis)
        costed = [(c[b], T[i]) for i, b in enumerate(basis) if c[b]]
        enter = -1
        for j in range(n + m):
            if j not in in_basis and c[j] * D - sum(cb * row[j] for cb, row in costed) > 0:
                enter = j
                break  # Bland: smallest improving index
        if enter < 0:
            break
        leave = -1
        for i, row in enumerate(T):
            a = row[enter]
            if a > 0:
                if leave < 0:
                    leave = i
                    continue
                # row[-1] / a against the best ratio so far, both a > 0.
                mine = row[-1] * T[leave][enter]
                best = T[leave][-1] * a
                if mine < best or (mine == best and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            raise GeometryError("the LP is unbounded")
        D = _pivot(T, basis, leave, enter, D)
    x = [Fraction(0)] * n
    total = 0
    for i, b in enumerate(basis):
        if b < n:
            x[b] = Fraction(T[i][-1], D)
            total += objective[b] * T[i][-1]
    return LPResult(tuple(x), Fraction(total, scale * D))


# ---------------------------------------------------------------------------
# Polytopes
# ---------------------------------------------------------------------------

# Clipped perceptron updates tried on a point's witness before its LP.
_UPDATES = 16


def _dot(a, b) -> int:
    return sum(map(mul, a, b))


def _violator(p, z, others):
    """None when z . p < z . q for every q in others, else the q lowest at z."""
    values = list(map(_dot, others, repeat(z)))
    if all(map(_dot(p, z).__lt__, values)):
        return None
    return others[values.index(min(values))]


def _certify(p, bit, pts, cols, lows, at):
    """An integer weight z >= 0 at which p is strictly below every other point
    of the antichain pts, False when p is certainly not a vertex of its lower
    hull, or None when the certificates settle neither.

    z starts as the indicator of the columns where p attains the minimum
    `lows`.  Every other point q has z . q >= z . p, with equality iff q
    attains the minimum in all of these columns too, so z is a witness iff the
    masks `at` of the points at each of these minima meet in p's bit alone.
    If z fails and `_above_midpoint` does not rule p out, the gap weight is
    tried next: z_j = sum over the points q of max(0, q_j - p_j), read off the
    columns `cols`, which weighs each column by how far the others lie above
    p in it.  If that fails too, each of a few perceptron steps from the
    indicator adds q - p for the lowest other point q and clips at 0.  Every
    weight but the indicator is checked exactly by `_violator`.
    """
    z = [int(a == m) for a, m in zip(p, lows)]
    if reduce(and_, compress(at, z), -1) == bit:
        return tuple(z)
    if _above_midpoint(p, pts):
        return False
    others = [q for q in pts if q != p]
    gap = [sum(map(max, repeat(0), map(sub, col, repeat(a)))) for col, a in zip(cols, p)]
    if _violator(p, gap, others) is None:
        return tuple(gap)
    q = _violator(p, z, others)
    for _ in range(_UPDATES):
        z = list(map(max, repeat(0), map(sub, map(add, z, q), p)))
        q = _violator(p, z, others)
        if q is None:
            return tuple(z)
    return None


def _unit(p, q) -> tuple:
    """e_j for the first column j in which p is below q."""
    e = [0] * len(p)
    e[list(map(lt, p, q)).index(True)] = 1
    return tuple(e)


def _above_midpoint(p, pts) -> bool:
    """True when p dominates the midpoint of two other points q and r of the
    antichain pts: 2p - q >= r.  Then z . p is at least the mean of z . q and
    z . r for every z >= 0, so p is never the strict minimum.  Neither q nor r
    can be p, since no point of pts dominates another."""
    twice = list(map(add, p, p))
    return any(dominated(tuple(map(sub, twice, q)), pts) for q in pts if q != p)


def lower_hull(points: Iterable[Monomial]) -> dict:
    """The vertices of the lower hull NP + R^d_{>=0} of a finite set of
    lattice points, sorted, each with an exact witness: {vertex: z}, where
    z >= 0 makes the vertex strictly smaller than every other point that no
    point dominates.  These are the points that are the strict minimum of
    z . p for some weight z >= 0.

    A dominated point is never one, so points are visited by total degree and
    a point that an earlier one dominates is skipped.  A lone point left has
    all ones as its witness.  Of two points left, each is below the other in
    some column j, and e_j witnesses it.  Otherwise `_certify` settles each
    point where it can, and an LP decides only the points it leaves open: it
    maximizes t subject to (p - q) . z + t <= 0, sum(z) <= 1 and z >= 0, and
    p is a vertex iff t > 0.  A point already known not to be a vertex lies
    in the lower hull of the vertices, so the LP leaves its row out.  The
    row of another vertex q bounds t: an antichain of two or more points has
    two or more vertices (a lone vertex would be the minimum at every
    unit weight, so at or below every other point in every column), and only non-vertices are left out.
    """
    pts = []
    for p in sorted(set(map(tuple, points)), key=sum):
        if not dominated(p, pts):
            pts.append(p)
    if len(pts) < 2:
        # Also right with no columns, where `_certify` has nothing to test.
        return {p: (1,) * len(p) for p in pts}
    if len(pts) == 2:
        p, q = sorted(pts)
        return {p: _unit(p, q), q: _unit(q, p)}
    cols = list(zip(*pts))
    lows = list(map(min, cols))
    # The points at the minimum of each column, as a bit mask.
    at = [sum(1 << i for i, a in enumerate(col) if a == low) for col, low in zip(cols, lows)]
    # point -> a witness, False or None
    verdict = {p: _certify(p, 1 << i, pts, cols, lows, at) for i, p in enumerate(pts)}
    d = len(lows)
    for p, witness in verdict.items():
        if witness is None:
            rows = [((*map(sub, p, q), 1), 0) for q in pts if q != p and verdict[q] is not False]
            rows.append(((1,) * d + (0,), 1))
            res = lp_solve(LPProblem((0,) * d + (1,), tuple(rows)))
            verdict[p] = res.x[:d] if res.value > 0 else False
    return {p: verdict[p] for p in sorted(verdict) if verdict[p] is not False}


def np_min(s: Poly) -> Poly:
    """The minimal polynomial of s: the polynomial on the vertices of the
    lower hull of its support (`lower_hull`), the monomials that are the
    strict tropical minimum for some weight z >= 0.

    For non-negative weight assignments, minimizing m . z over the support of
    s and over the support of the minimal polynomial give the same value.
    """
    return Poly._of(s.dim, frozenset(lower_hull(s.coeffs)))


def vn(polys: Sequence[Poly]) -> Poly:
    """Minimal polynomial of a product, without expanding the product.

    Folds pairwise Minkowski sums over the factor supports and keeps the lower
    hull of each partial sum.  A vertex of the lower hull of P + Q is the sum
    of vertices of the lower hulls of P and Q, so minimizing each fold gives
    the minimal polynomial of the whole product, and minimized factors give
    the same result as raw ones.  A product of single monomials is the
    monomial of their sum, with no hull.  polys must not be empty.
    """
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
        return np_min(polys[0])
    points = supports[0]
    for support in supports[1:]:
        points = lower_hull({tuple(map(add, p, q)) for p in points for q in support})
    return Poly._of(d, frozenset(points))


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


def _unit_facet(row, rows) -> bool:
    """True when some e_j satisfies every other row and violates row."""
    return any(
        a > 0 and all(r[j] <= 0 for r in rows if r != row) for j, a in enumerate(row)
    )


def _pair_below(mu, nu, monomials) -> bool:
    """True when two monomials lam and kappa other than mu and nu (possibly
    equal) have lam + kappa <= mu + nu, which makes the row mu - nu redundant
    in mu's cone, and nu - mu in nu's.

    A z >= 0 that keeps every other row of mu's cone has lam . z >= mu . z and
    kappa . z >= mu . z; if it also had nu . z < mu . z, then
    (lam + kappa) . z >= 2 mu . z > (mu + nu) . z, against
    (lam + kappa) . z <= (mu + nu) . z.
    """
    total = list(map(add, mu, nu))
    rest = [lam for lam in monomials if lam != mu and lam != nu]
    return any(dominated(tuple(map(sub, total, lam)), rest) for lam in rest)


def _implied(row, others) -> bool:
    """True when row . x <= 0 follows from the other rows and x >= 0: the
    maximum of row . x over them (bounded by the unit simplex, by
    homogeneity) is at most 0."""
    lp_rows = [(r, 0) for r in others]
    lp_rows.append(((1,) * len(row), 1))
    return lp_solve(LPProblem(row, tuple(lp_rows))).value <= 0


def normal_fan(s: Poly) -> dict:
    """The normal cone of every monomial of s: {mu: (system, witness)}, where
    system holds the facet rows of { z >= 0 : (mu - nu) . z <= 0 for every
    other monomial nu } and witness is the weight `lower_hull` gives mu.

    Every monomial must be the strict minimum for some weight z >= 0, as those
    of a minimized polynomial are; otherwise GeometryError is raised.  Each
    cone then has an interior witness, and no two of its rows are parallel (a
    monomial between two others is never the strict minimum), so its
    irredundant rows are exactly its facets, whatever their order.  Row
    mu - nu is a facet of mu's cone iff the two cones meet in a common facet,
    iff nu - mu is a facet of nu's cone, so each pair is decided once, by the
    first of:
    - the segment tie: on the segment between the two witnesses, the point
      where mu and nu tie, if every other monomial is strictly larger there
      (moving from it towards nu's witness keeps every other row of mu's cone
      and violates mu - nu);
    - a unit vector e_j that satisfies every other row and violates the row,
      in either cone;
    - the pair below: two other monomials whose sum is <= mu + nu in every
      column make the row redundant in both cones (`_pair_below`);
    - one LP of the row against all other rows.
    Each of the first three only ever proves what the LP would find, so their
    order changes no cone; the tie, which settles most pairs, goes first.
    """
    witnesses = lower_hull(s.coeffs)
    if len(witnesses) < len(s.coeffs):
        lost = min(s.coeffs - witnesses.keys())
        raise GeometryError(f"monomial {lost} is never the strict minimum")
    cones = {
        mu: tuple(sorted(tuple(map(sub, mu, nu)) for nu in witnesses if nu != mu))
        for mu in witnesses
    }
    values = {}  # mu -> every monomial's value at mu's witness scaled to integers
    facet = {}  # (mu, row) -> whether mu's cone keeps the row
    for mu, rows in cones.items():
        for row in rows:
            if (mu, row) in facet:
                continue
            nu = tuple(map(sub, mu, row))
            back = tuple(-a for a in row)
            facet[mu, row] = facet[nu, back] = (
                _segment_tie(
                    _values(mu, witnesses, values), _values(nu, witnesses, values), mu, nu
                )
                or _unit_facet(row, rows)
                or _unit_facet(back, cones[nu])
                or not (
                    _pair_below(mu, nu, witnesses)
                    or _implied(row, [r for r in rows if r != row])
                )
            )
    return {
        mu: (HalfspaceSystem(s.dim, tuple(r for r in rows if facet[mu, r])), witnesses[mu])
        for mu, rows in cones.items()
    }


def _values(mu, witnesses, values) -> dict:
    """{lam: lam . w} for every monomial lam, with w mu's witness scaled to
    integers; cached in values."""
    if mu not in values:
        w = _integral(witnesses[mu])[0]
        values[mu] = {lam: _dot(lam, w) for lam in witnesses}
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


# str gives an int and a Fraction of the same value the same text, and INF
# the text "inf"; mapped over a row it runs in C.
_frac_to_json = str


def _frac_from_json(text: str):
    return INF if text == "inf" else Fraction(text)


def cone_to_json(system: HalfspaceSystem, witness=None) -> dict:
    return {
        "dim": system.dim,
        "rows": [{"normal": list(map(_frac_to_json, row)), "rhs": "0"} for row in system.rows],
        "witness": None if witness is None else list(map(_frac_to_json, witness)),
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
