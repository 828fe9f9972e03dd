"""Formal polynomials over choice weights.

A monomial is an exponent vector over a fixed list of weight variables.  For a
program with k choice parameters the convention is dimension 2k with layout
``X1, ~X1, X2, ~X2, ...`` where ``Xi`` is the weight of taking the left branch
of a choice on parameter i and ``~Xi`` the weight of the right branch.  The
algebra itself is dimension-generic so it can also be used for free-standing
polynomials in any number of variables.

Coefficients live in the extended naturals (non-negative integers plus
infinity); addition and multiplication saturate at infinity.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

INF = math.inf

Monomial = tuple  # tuple[int, ...] exponent vector
ParamIndex = int  # 1-based choice-parameter index


class AlgebraError(ValueError):
    pass


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


def mono_unit(dim: int) -> Monomial:
    return (0,) * dim


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if len(a) != len(b):
        raise AlgebraError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return tuple(x + y for x, y in zip(a, b))


def mono_degree(m: Monomial) -> int:
    return sum(m)


def mono_leq(a: Monomial, b: Monomial) -> bool:
    """Pointwise order on exponent vectors."""
    return all(x <= y for x, y in zip(a, b))


class Poly:
    """A formal polynomial: a finite map from monomials to extended naturals.

    Instances are treated as immutable once built; zero coefficients are never
    stored.
    """

    __slots__ = ("dim", "coeffs", "_hash")

    def __init__(self, dim: int, coeffs: Mapping[Monomial, object] | None = None):
        cleaned = {}
        for m, c in (coeffs or {}).items():
            if len(m) != dim:
                raise AlgebraError(f"monomial {m} does not have dimension {dim}")
            if any(e < 0 or not isinstance(e, int) for e in m):
                raise AlgebraError(f"bad exponent vector {m}")
            if c == 0:
                continue
            if c != INF and (not isinstance(c, int) or c < 0):
                raise AlgebraError(f"bad coefficient {c!r}")
            cleaned[tuple(m)] = c
        self.dim = dim
        self.coeffs = cleaned
        self._hash = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "Poly":
        return cls(dim, {})

    @classmethod
    def unit(cls, dim: int) -> "Poly":
        return cls(dim, {mono_unit(dim): 1})

    @classmethod
    def monomial(cls, m: Monomial, coeff=1) -> "Poly":
        return cls(len(m), {tuple(m): coeff})

    @classmethod
    def from_support(cls, dim: int, monomials: Iterable[Monomial]) -> "Poly":
        """The all-one polynomial on the given support."""
        return cls(dim, {tuple(m): 1 for m in monomials})

    # -- structure ----------------------------------------------------------

    def support(self) -> list:
        return sorted(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Maximal total degree of a monomial (0 for the zero polynomial)."""
        return max((mono_degree(m) for m in self.coeffs), default=0)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.dim == other.dim
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.dim, frozenset(self.coeffs.items())))
        return self._hash

    def __repr__(self):
        return f"Poly({poly_to_text(self)!r})"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if self.dim != other.dim:
            raise AlgebraError("dimension mismatch in addition")
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = ext_add(out.get(m, 0), c)
        return Poly(self.dim, out)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.dim != other.dim:
            raise AlgebraError("dimension mismatch in multiplication")
        out: dict = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m = mono_mul(m1, m2)
                out[m] = ext_add(out.get(m, 0), ext_mul(c1, c2))
        return Poly(self.dim, out)

    def shift(self, m: Monomial) -> "Poly":
        """Multiply by a single monomial (translation of the support)."""
        return Poly(self.dim, {mono_mul(m, n): c for n, c in self.coeffs.items()})


# -- assignments ------------------------------------------------------------


class ProbAssignment:
    """A probability per choice parameter: parameter i takes its left branch
    with probability ps[i-1] and its right branch with the complement."""

    def __init__(self, ps: Sequence[Fraction]):
        ps = [Fraction(p) for p in ps]
        for p in ps:
            if not 0 <= p <= 1:
                raise AlgebraError(f"probability {p} outside [0, 1]")
        self.ps = ps

    @property
    def k(self) -> int:
        return len(self.ps)

    def vector(self) -> list:
        """Per-variable values in the X1, ~X1, X2, ~X2, ... layout."""
        out = []
        for p in self.ps:
            out.append(p)
            out.append(1 - p)
        return out

    def __repr__(self):
        return f"ProbAssignment({self.ps!r})"


# -- dominance --------------------------------------------------------------


def minimal_support(points: Iterable[Monomial]) -> list:
    """The pointwise-minimal elements of a set of monomials, sorted.

    Pass `s.coeffs` for the minimal part of the support of a polynomial s.
    """
    pts = list(points)
    out = []
    for m in pts:
        if any(n != m and mono_leq(n, m) for n in pts):
            continue
        out.append(m)
    return sorted(out)


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
    parts = []
    for m in sorted(s.coeffs):
        c = s.coeffs[m]
        body = mono_to_text(m, names)
        if c == 1:
            parts.append(body)
        elif c == INF:
            parts.append(f"inf*{body}" if body != "1" else "inf")
        else:
            parts.append(f"{c}*{body}" if body != "1" else str(c))
    return " + ".join(parts)


def _coeff_to_json(c):
    return "inf" if c == INF else c


def _coeff_from_json(c):
    if c == "inf":
        return INF
    if isinstance(c, int) and c >= 0:
        return c
    raise AlgebraError(f"bad coefficient in JSON: {c!r}")


def poly_to_json(s: Poly) -> dict:
    return {
        "dim": s.dim,
        "terms": [
            {"exponents": list(m), "coeff": _coeff_to_json(s.coeffs[m])}
            for m in sorted(s.coeffs)
        ],
    }


def poly_from_json(obj: dict) -> Poly:
    dim = obj["dim"]
    coeffs = {}
    for term in obj["terms"]:
        m = tuple(term["exponents"])
        coeffs[m] = _coeff_from_json(term["coeff"])
    return Poly(dim, coeffs)
