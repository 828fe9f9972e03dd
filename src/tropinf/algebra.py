"""Tropical polynomials over choice weights, held as their supports.

A monomial is an exponent vector over a fixed list of weight variables.  For a
program with k choice parameters the convention is dimension 2k with layout
``X1, ~X1, X2, ~X2, ...`` where ``Xi`` is the weight of taking the left branch
of a choice on parameter i and ``~Xi`` the weight of the right branch.  The
algebra itself is dimension-generic so it can also be used for free-standing
polynomials in any number of variables.

The degree, Newton polytope and normal fan of a polynomial depend only on
which monomials occur, never on how many runs share one, so a polynomial is
its support: every coefficient is 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from operator import add, le
from typing import Iterable, Sequence

INF = math.inf

Monomial = tuple  # tuple[int, ...] exponent vector


class AlgebraError(ValueError):
    pass


def mono_unit(dim: int) -> Monomial:
    return (0,) * dim


class Poly:
    """A tropical polynomial: a dimension and the frozenset `coeffs` of its
    monomials, each with coefficient 1.

    `Poly(dim, monomials)` checks every exponent; polynomials built from
    valid ones (`zero`, `unit`, `shift`, and minimization in `geometry`)
    go through `_of`, which checks nothing.  Instances are immutable.
    """

    __slots__ = ("dim", "coeffs")

    def __init__(self, dim: int, monomials: Iterable[Monomial] = ()):
        if type(dim) is not int or dim < 0:
            raise AlgebraError(f"bad dimension {dim!r}")
        support = frozenset(map(tuple, monomials))
        for m in support:
            if len(m) != dim:
                raise AlgebraError(f"monomial {m} does not have dimension {dim}")
            if any(type(e) is not int or e < 0 for e in m):
                raise AlgebraError(f"bad exponent vector {m}")
        self.dim = dim
        self.coeffs = support

    # -- constructors -------------------------------------------------------

    @classmethod
    def _of(cls, dim: int, support: frozenset) -> "Poly":
        """The polynomial on a support of valid exponent vectors of
        dimension dim, taken as it is."""
        s = object.__new__(cls)
        s.dim = dim
        s.coeffs = support
        return s

    @classmethod
    def zero(cls, dim: int) -> "Poly":
        return cls._of(dim, frozenset())

    @classmethod
    def unit(cls, dim: int) -> "Poly":
        return cls._of(dim, frozenset((mono_unit(dim),)))

    # -- structure ----------------------------------------------------------

    def support(self) -> list:
        return sorted(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Maximal total degree of a monomial (0 for the zero polynomial)."""
        return max(map(sum, self.coeffs), default=0)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.dim == other.dim
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        # A frozenset caches its hash.
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({poly_to_text(self)!r})"

    # -- arithmetic ---------------------------------------------------------

    def shift(self, m: Monomial) -> "Poly":
        """Multiply by a single monomial (translation of the support)."""
        if len(m) != self.dim:
            raise AlgebraError("dimension mismatch in shift")
        return Poly._of(self.dim, frozenset(tuple(map(add, m, n)) for n in self.coeffs))


# -- assignments ------------------------------------------------------------


class ProbAssignment:
    """A probability per choice parameter: parameter i takes its left branch
    with probability ps[i-1] and its right branch with the complement.

    `nums` and `dens` hold the probability of each weight variable, in the
    X1, ~X1, X2, ~X2, ... layout, as a numerator over a denominator in lowest
    terms.
    """

    def __init__(self, ps: Sequence[Fraction]):
        ps = [p if type(p) is Fraction else Fraction(p) for p in ps]
        for p in ps:
            # A Fraction's denominator is positive.
            if not 0 <= p.numerator <= p.denominator:
                raise AlgebraError(f"probability {p} outside [0, 1]")
        self.ps = ps
        self.nums, self.dens = [], []
        for p in ps:
            self.nums += (p.numerator, p.denominator - p.numerator)
            self.dens += (p.denominator, p.denominator)

    @property
    def k(self) -> int:
        return len(self.ps)

    def __repr__(self):
        return f"ProbAssignment({self.ps!r})"


# -- dominance --------------------------------------------------------------


def dominated(m: Monomial, points: Iterable[Monomial]) -> bool:
    """True when some point n of points is <= m pointwise; map(le, n, m),
    all and any each loop in C."""
    return any(map(all, map(map, repeat(le), points, repeat(m))))


# -- text and JSON forms ----------------------------------------------------


def var_names(dim: int) -> list:
    """Display names for the weight variables.

    Even dimensions use the paired program layout X1, ~X1, ...; odd
    dimensions fall back to plain X1..Xdim.
    """
    if dim % 2 == 0:
        out = []
        for i in range(dim // 2):
            out.append(f"X{i + 1}")
            out.append(f"~X{i + 1}")
        return out
    return [f"X{i + 1}" for i in range(dim)]


def mono_to_text(m: Monomial, names: Sequence[str] | None = None) -> str:
    names = names or var_names(len(m))
    parts = []
    for e, name in zip(m, names):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def poly_to_text(s: Poly, names: Sequence[str] | None = None) -> str:
    if s.is_zero():
        return "0"
    names = names or var_names(s.dim)
    return " + ".join(mono_to_text(m, names) for m in sorted(s.coeffs))


def poly_to_json(s: Poly) -> dict:
    return {
        "dim": s.dim,
        "terms": [{"exponents": list(m), "coeff": 1} for m in sorted(s.coeffs)],
    }


def poly_from_json(obj: dict) -> Poly:
    terms = obj["terms"]
    for term in terms:
        c = term["coeff"]
        if type(c) is not int or c != 1:
            raise AlgebraError(f"bad coefficient in JSON: {c!r}")
    return Poly(obj["dim"], (term["exponents"] for term in terms))
