"""Direct evaluation of polynomials, kept as test oracles.

No code in tropinf calls these.  Tests check minimization, i1 and enumerated
runs against them: `eval_prob` sums a polynomial at a probability assignment,
and `eval_trop` minimizes m . z over its support at a tropical point.

`CountPoly` keeps what tropinf's `Poly` drops: how many runs share each
monomial, as an extended-natural coefficient.  Tests expand products with it
and check that the engine's supports are the supports of the counted
polynomials, and that the probabilities of enumerated runs sum to 1.
"""

from fractions import Fraction
from typing import Mapping, Sequence

from tropinf.algebra import INF, AlgebraError, Monomial, Poly, ProbAssignment


def ext_add(a, b):
    """Sum in the extended naturals."""
    if a == INF or b == INF:
        return INF
    return a + b


def ext_mul(a, b):
    """Product in the extended naturals (0 * inf = 0)."""
    if a == 0 or b == 0:
        return 0
    if a == INF or b == INF:
        return INF
    return a * b


class CountPoly:
    """A formal polynomial: a finite map from monomials to extended naturals.
    Zero coefficients are never stored."""

    def __init__(self, dim: int, coeffs: "Mapping[Monomial, object] | None" = None):
        cleaned = {}
        for m, c in (coeffs or {}).items():
            if len(m) != dim:
                raise AlgebraError(f"monomial {m} does not have dimension {dim}")
            if any(not isinstance(e, int) or e < 0 for e in m):
                raise AlgebraError(f"bad exponent vector {m}")
            if c == 0:
                continue
            if c != INF and (not isinstance(c, int) or c < 0):
                raise AlgebraError(f"bad coefficient {c!r}")
            cleaned[tuple(m)] = c
        self.dim = dim
        self.coeffs = cleaned

    @classmethod
    def of(cls, s: Poly) -> "CountPoly":
        """The polynomial with coefficient 1 on the support of s."""
        return cls(s.dim, dict.fromkeys(s.coeffs, 1))

    @classmethod
    def unit(cls, dim: int) -> "CountPoly":
        return cls(dim, {(0,) * dim: 1})

    @classmethod
    def monomial(cls, m: Monomial, coeff=1) -> "CountPoly":
        return cls(len(m), {tuple(m): coeff})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, CountPoly)
            and self.dim == other.dim
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"CountPoly({self.dim}, {self.coeffs!r})"

    def __add__(self, other: "CountPoly") -> "CountPoly":
        if self.dim != other.dim:
            raise AlgebraError("dimension mismatch in addition")
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = ext_add(out.get(m, 0), c)
        return CountPoly(self.dim, out)

    def __mul__(self, other: "CountPoly") -> "CountPoly":
        if self.dim != other.dim:
            raise AlgebraError("dimension mismatch in multiplication")
        out: dict = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m = tuple(x + y for x, y in zip(m1, m2))
                out[m] = ext_add(out.get(m, 0), ext_mul(c1, c2))
        return CountPoly(self.dim, out)

    def shift(self, m: Monomial) -> "CountPoly":
        """Multiply by a single monomial."""
        return self * CountPoly.monomial(m)


def monomial(m: Monomial) -> Poly:
    """The polynomial of the single monomial m."""
    return Poly(len(m), (m,))


def prob_vector(p: ProbAssignment) -> list:
    """Per-variable probabilities in the X1, ~X1, X2, ~X2, ... layout."""
    out = []
    for q in p.ps:
        out.append(q)
        out.append(1 - q)
    return out


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
        v = prob_vector(p)
    elif isinstance(p, TropAssignment):
        v = p.zs
    else:
        v = list(p)
    if len(v) != dim:
        raise AlgebraError(f"assignment has {len(v)} entries, polynomial has {dim}")
    return v


def eval_prob(s: "Poly | CountPoly", p) -> "Fraction | float":
    """Evaluate s at a probability assignment (or raw value vector); a `Poly`
    counts each monomial once.

    Returns an exact rational unless an infinite coefficient survives, in
    which case the result is infinite.
    """
    v = _value_vector(p, s.dim)
    if isinstance(s, Poly):
        s = CountPoly.of(s)
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


def tropicalize(s: "Poly | CountPoly") -> Poly:
    """The polynomial on the support of s."""
    return Poly(s.dim, s.coeffs)


def eval_trop(s: "Poly | CountPoly", z) -> tuple:
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
