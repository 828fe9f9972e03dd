"""Direct evaluation of polynomials, kept as test oracles.

No code in tropinf calls these.  Tests check minimization, i1 and enumerated
runs against them: `eval_prob` sums a polynomial at a probability assignment,
and `eval_trop` minimizes m . z over its support at a tropical point.
"""

from fractions import Fraction
from typing import Sequence

from tropinf.algebra import INF, AlgebraError, Monomial, Poly, ProbAssignment


def mono_dot(m: Monomial, z: Sequence) -> "Fraction | float":
    """Tropical evaluation of one monomial: the scalar product m . z.

    Entries of z may be infinite; the usual convention inf * 0 = 0 applies so
    that unused variables can carry weight infinity for free.
    """
    total: Fraction | float = Fraction(0)
    for e, w in zip(m, z):
        if e == 0:
            continue
        if w == INF:
            return INF
        total += e * w
    return total


class TropAssignment:
    """A non-negative (possibly infinite) cost per weight variable."""

    def __init__(self, zs: Sequence):
        vals = []
        for z in zs:
            if z == INF:
                vals.append(INF)
            else:
                z = Fraction(z)
                if z < 0:
                    raise AlgebraError(f"tropical weight {z} is negative")
                vals.append(z)
        self.zs = vals

    @property
    def dim(self) -> int:
        return len(self.zs)

    def __iter__(self):
        return iter(self.zs)

    def __repr__(self):
        return f"TropAssignment({self.zs!r})"


def _value_vector(p, dim: int) -> Sequence:
    if isinstance(p, ProbAssignment):
        v = p.vector()
    elif isinstance(p, TropAssignment):
        v = p.zs
    else:
        v = list(p)
    if len(v) != dim:
        raise AlgebraError(f"assignment has {len(v)} entries, polynomial has {dim}")
    return v


def eval_prob(s: Poly, p) -> "Fraction | float":
    """Evaluate s at a probability assignment (or raw value vector).

    Returns an exact rational unless an infinite coefficient survives, in
    which case the result is infinite.
    """
    v = _value_vector(p, s.dim)
    total: Fraction | float = Fraction(0)
    for m, c in s.coeffs.items():
        term = Fraction(1)
        for e, q in zip(m, v):
            if e:
                term *= Fraction(q) ** e
        if term == 0:
            continue
        if c == INF:
            return INF
        total += c * term
    return total


def tropicalize(s: Poly) -> Poly:
    """The all-one polynomial on the support of s."""
    return Poly.from_support(s.dim, s.coeffs)


def eval_trop(s: Poly, z) -> tuple:
    """Minimum of m . z over the support of s, with the attaining monomials.

    Returns (value, argmin) where argmin is the sorted tuple of monomials
    reaching the minimum.  The empty polynomial has value infinity and no
    argmin.
    """
    v = _value_vector(z, s.dim)
    best: Fraction | float = INF
    winners: list = []
    for m in sorted(s.coeffs):
        val = mono_dot(m, v)
        if val < best:
            best = val
            winners = [m]
        elif val == best and best != INF:
            winners.append(m)
    if best == INF:
        winners = []
    return best, tuple(winners)
