from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from tropinf.algebra import (
    INF,
    AlgebraError,
    Poly,
    ProbAssignment,
    mono_to_text,
    poly_from_json,
    poly_to_json,
    poly_to_text,
)
from tropinf.geometry import np_min, vn

from conftest import SEED
from eval_reference import (
    CountPoly,
    TropAssignment,
    eval_prob,
    eval_trop,
    ext_add,
    ext_mul,
    tropicalize,
)
from hull_reference import minimal_support, winners

X, XB = (1, 0), (0, 1)  # X1 and ~X1 in dimension 2


def P(*monos):
    return Poly(len(monos[0]), monos)


class TestExtNat:
    def test_add(self):
        assert ext_add(2, 3) == 5
        assert ext_add(2, INF) == INF
        assert ext_add(INF, INF) == INF

    def test_mul(self):
        assert ext_mul(2, 3) == 6
        assert ext_mul(0, INF) == 0
        assert ext_mul(INF, 2) == INF


# A monomial of the wrong dimension, a negative or non-int exponent, a
# non-int dimension.
BAD_SUPPORTS = {
    "dimension": (2, [(1, 0, 0)]),
    "negative": (2, [(1, -1)]),
    "float": (2, [(1.0, 0)]),
    "bool": (2, [(True, 0)]),
    "string": (2, [("1", 0)]),
    "bad-dim": ("2", []),
}


class TestPoly:
    def test_zero_coeffs_dropped(self):
        assert CountPoly(2, {(1, 0): 0}).is_zero()

    def test_bad_coeff(self):
        with pytest.raises(AlgebraError):
            CountPoly(2, {(1, 0): -1})
        with pytest.raises(AlgebraError):
            CountPoly(2, {(1, -1): 1})

    @pytest.mark.parametrize("name", sorted(BAD_SUPPORTS))
    def test_boundary_rejects(self, name):
        dim, monomials = BAD_SUPPORTS[name]
        with pytest.raises(AlgebraError):
            Poly(dim, monomials)
        terms = [{"exponents": list(m), "coeff": 1} for m in monomials]
        with pytest.raises(AlgebraError):
            poly_from_json({"dim": dim, "terms": terms})

    def test_mul_cauchy(self):
        s = CountPoly(2, {X: 1, XB: 1})
        sq = s * s
        assert sq.coeffs == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
        assert tropicalize(sq) == P((2, 0), (1, 1), (0, 2))

    def test_shift(self):
        s = CountPoly(2, {X: 1, XB: 2})
        assert s.shift(X).coeffs == {(2, 0): 1, (1, 1): 2}
        assert tropicalize(s).shift(X) == P((2, 0), (1, 1))

    def test_degree(self):
        assert Poly.zero(2).degree() == 0
        assert P((2, 1), (0, 3)).degree() == 3


monos2 = st.tuples(st.integers(0, 4), st.integers(0, 4))
coeffs = st.one_of(st.integers(1, 5), st.just(INF))
polys2 = st.dictionaries(monos2, coeffs, max_size=5).map(lambda d: CountPoly(2, d))
supports2 = st.frozensets(monos2, max_size=5).map(lambda ms: Poly(2, ms))


class TestSemiringLaws:
    @given(polys2, polys2, polys2)
    def test_add_mul_assoc_comm(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a

    @given(polys2, polys2, polys2)
    def test_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(polys2)
    def test_units(self, a):
        zero = CountPoly(2)
        assert a + zero == a
        assert a * CountPoly.unit(2) == a
        assert a * zero == zero


def counted(d):
    """A dimension-d polynomial with extended-natural coefficients."""
    mono = st.tuples(*[st.integers(0, 3)] * d)
    return st.dictionaries(mono, coeffs, max_size=5).map(lambda c: CountPoly(d, c))


class TestSupportsOfCounts:
    """The engine's polynomials are the supports of the counted ones: sums,
    shifts and minimized products agree with the counted polynomials."""

    @seed(SEED)
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda d: st.tuples(
                counted(d), counted(d), counted(d), st.tuples(*[st.integers(0, 3)] * d)
            )
        )
    )
    def test_same_supports(self, polys):
        a, b, c, m = polys
        sa, sb, sc = map(tropicalize, (a, b, c))
        assert sa.coeffs | sb.coeffs == tropicalize(a + b).coeffs
        assert sa.shift(m) == tropicalize(a.shift(m))
        assert set(np_min(sa).coeffs) == winners(a.coeffs)
        product = a * b * c
        assert set(vn([sa, sb, sc]).coeffs) == winners(product.coeffs)


class TestEvalProb:
    def test_three_choice_program_mass(self):
        # All six trajectory weights of the three-choice program sum to 1.
        monos = [(2, 0), (1, 1), (2, 1), (1, 2), (1, 2), (0, 3)]
        s = CountPoly(2)
        for m in monos:
            s = s + CountPoly.monomial(m)
        for p in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 7)):
            assert eval_prob(s, ProbAssignment([p])) == 1

    def test_success_polynomial(self):
        # p^2 + p^2 (1-p) + (1-p)^3 at the success monomials of the
        # three-choice program.
        s = P((2, 0), (2, 1), (0, 3))
        p = Fraction(1, 2)
        expected = p**2 + p**2 * (1 - p) + (1 - p) ** 3
        assert eval_prob(s, ProbAssignment([p])) == expected

    def test_infinite_coefficient(self):
        s = CountPoly(2, {X: INF})
        assert eval_prob(s, ProbAssignment([Fraction(1, 2)])) == INF
        # ... but an infinite coefficient on a zero-probability monomial
        # contributes nothing.
        assert eval_prob(s, ProbAssignment([Fraction(0)])) == 0


class TestEvalTrop:
    def test_min_and_argmin(self):
        s = P((2, 0), (2, 1), (0, 3))
        value, winners = eval_trop(s, [Fraction(1), Fraction(1)])
        assert value == 2
        assert winners == ((2, 0),)

    def test_tie(self):
        s = P((2, 0), (0, 3))
        value, winners = eval_trop(s, [Fraction(3), Fraction(2)])
        assert value == 6
        assert winners == ((0, 3), (2, 0))

    def test_inf_times_zero(self):
        # A variable of weight infinity is free on monomials not using it.
        s = P((2, 0), (0, 1))
        value, winners = eval_trop(s, TropAssignment([Fraction(1), INF]))
        assert value == 2
        assert winners == ((2, 0),)

    def test_empty(self):
        value, winners = eval_trop(Poly.zero(2), [Fraction(1), Fraction(1)])
        assert value == INF
        assert winners == ()


class TestMinimalSupport:
    def test_drops_dominated(self):
        s = P((2, 0), (2, 1), (0, 3))
        assert minimal_support(s.coeffs) == [(0, 3), (2, 0)]

    def test_antichain_unchanged(self):
        s = P((2, 0), (1, 1), (0, 2))
        assert minimal_support(s.coeffs) == [(0, 2), (1, 1), (2, 0)]

    @given(polys2, st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=10))
    def test_trop_value_preserved(self, s, zs):
        if s.is_zero():
            return
        mini = Poly(2, minimal_support(s.coeffs))
        for z in zs:
            z = [Fraction(c) for c in z]
            assert eval_trop(s, z)[0] == eval_trop(mini, z)[0]

    def test_tropicalize(self):
        s = CountPoly(2, {X: 3, XB: INF})
        assert tropicalize(s) == P(X, XB)


class TestTextAndJson:
    def test_text(self):
        s = P((2, 0), (0, 3))
        assert poly_to_text(s) == "~X1^3 + X1^2"
        assert mono_to_text((1, 2)) == "X1*~X1^2"
        assert poly_to_text(Poly.zero(2)) == "0"
        assert mono_to_text((0, 0)) == "1"

    @given(supports2)
    def test_json_roundtrip(self, s):
        assert poly_from_json(poly_to_json(s)) == s

    @pytest.mark.parametrize("coeff", [0, 2, "inf", 1.0, True, None])
    def test_json_rejects_coeff_other_than_1(self, coeff):
        obj = {"dim": 2, "terms": [{"exponents": [1, 0], "coeff": coeff}]}
        with pytest.raises(AlgebraError, match="bad coefficient"):
            poly_from_json(obj)

    def test_probability_bounds(self):
        with pytest.raises(AlgebraError):
            ProbAssignment([Fraction(3, 2)])


class TestProbAssignment:
    def test_inputs(self):
        # A Fraction is taken as it is; an int or a string is read as one.
        p = ProbAssignment([Fraction(1, 3), 1, "2/4", 0])
        assert p.ps == [Fraction(1, 3), Fraction(1), Fraction(1, 2), Fraction(0)]
        assert all(type(q) is Fraction for q in p.ps)
        assert p.nums == [1, 2, 1, 0, 1, 1, 0, 1]
        assert p.dens == [3, 3, 1, 1, 2, 2, 1, 1]
        assert p.k == 4

    @pytest.mark.parametrize(
        "prob, text", [(Fraction(3, 2), "3/2"), (-1, "-1"), (Fraction(-1, 3), "-1/3")]
    )
    def test_out_of_range_message(self, prob, text):
        with pytest.raises(AlgebraError) as info:
            ProbAssignment([Fraction(1, 2), prob])
        assert str(info.value) == f"probability {text} outside [0, 1]"
