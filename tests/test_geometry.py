import functools
import itertools
import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from tropinf import geometry, infer
from tropinf.algebra import INF, Poly, dominated
from tropinf.geometry import (
    GeometryError,
    HalfspaceSystem,
    LPProblem,
    lower_hull,
    lp_solve,
    normal_fan,
    np_min,
    vn,
)

from cone_reference import reduce_rows as reference_reduce_rows
from conftest import CORPUS_NAMES, SEED, load
from eval_reference import CountPoly, eval_trop, tropicalize
from hull_reference import winners

F = Fraction

SIX_POINTS = [(2, 3, 2), (3, 2, 2), (1, 1, 3), (3, 0, 3), (5, 4, 3), (4, 2, 3)]

# The six monomials of corpus m2 at target 1.
M2_MONOMIALS = [
    (0, 1, 0, 0, 0, 1, 0, 0, 0, 1),
    (0, 1, 0, 0, 1, 0, 0, 1, 0, 0),
    (0, 1, 0, 1, 1, 0, 1, 0, 0, 1),
    (1, 0, 0, 1, 0, 0, 0, 0, 0, 1),
    (1, 0, 0, 1, 1, 0, 0, 1, 1, 0),
    (1, 0, 1, 0, 0, 0, 0, 1, 0, 0),
]


class TestLP:
    def test_simple_max(self):
        res = lp_solve(LPProblem((F(1),), (((F(1),), F(1)),)))
        assert res.value == 1 and res.x == (1,)

    def test_negative_rhs_is_refused(self):
        # Feasible, at x >= 1, but not at x = 0: outside the one form the
        # kernel solves.
        with pytest.raises(GeometryError, match="negative right-hand side"):
            lp_solve(LPProblem((F(-1),), (((F(-1),), F(-1)),)))

    def test_two_vars(self):
        rows = (((F(1), F(1)), F(3)), ((F(1), F(0)), F(2)))
        res = lp_solve(LPProblem((F(1), F(1)), rows))
        assert res.value == 3

    def test_unbounded(self):
        with pytest.raises(GeometryError, match="unbounded"):
            lp_solve(LPProblem((F(1),), (((F(-1),), F(0)),)))

    def test_exact_rationals(self):
        rows = (((F(3), F(7)), F(1, 3)),)
        res = lp_solve(LPProblem((F(0), F(1)), rows))
        assert res.value == F(1, 21)


def assert_witnessed(hull: dict):
    """Every witness makes its vertex strictly smaller than every other
    vertex, checked exactly."""
    for p, z in hull.items():
        assert all(a >= 0 for a in z)
        top = sum(map(operator.mul, p, z))
        assert all(sum(map(operator.mul, q, z)) > top for q in hull if q != p), (p, z)


class TestHull:
    """The vertices of the lower hull NP + R^d_{>=0}."""

    def test_freshman_dream_points(self):
        pts = [(i, j, l) for i in range(3) for j in range(3) for l in range(3) if i + j + l == 2]
        assert set(lower_hull(pts)) == {(2, 0, 0), (0, 2, 0), (0, 0, 2)}

    def test_six_point_support(self):
        # (4,2,3), the midpoint of (3,0,3) and (5,4,3), is dominated by
        # (3,2,2), and (5,4,3) by (2,3,2).
        pts = [(2, 3, 2), (3, 2, 2), (1, 1, 3), (3, 0, 3), (5, 4, 3), (4, 2, 3)]
        hull = lower_hull(pts)
        assert set(hull) == set(pts) - {(4, 2, 3), (5, 4, 3)}
        assert_witnessed(hull)

    def test_six_point_support_variant(self):
        # Transposing one coordinate of (5,4,3) makes all six points vertices
        # of the full hull, but (5,3,4) and (4,2,3) still lie above (3,2,2).
        pts = [(2, 3, 2), (3, 2, 2), (1, 1, 3), (3, 0, 3), (5, 3, 4), (4, 2, 3)]
        assert set(lower_hull(pts)) == set(pts) - {(5, 3, 4), (4, 2, 3)}

    def test_single_point(self):
        assert lower_hull([(1, 2)]) == {(1, 2): (1, 1)}

    def test_collinear(self):
        assert set(lower_hull([(0, 0), (1, 1), (2, 2), (3, 3)])) == {(0, 0)}
        assert set(lower_hull([(0, 3), (1, 2), (2, 1), (3, 0)])) == {(0, 3), (3, 0)}

    def test_empty(self):
        assert lower_hull([]) == {}


@st.composite
def lattice_sets(draw):
    """Lattice point sets of dimension 2-10, with planted midpoints (a + b is
    the midpoint of 2a and 2b) and collinear triples (a, a + b, a + 2b)."""
    d = draw(st.integers(2, 10))
    point = st.tuples(*[st.integers(0, 3)] * d)
    pts = draw(st.lists(point, min_size=1, max_size=8))
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(point), draw(point)
        pts += [tuple(2 * x for x in a), tuple(2 * y for y in b), tuple(x + y for x, y in zip(a, b))]
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(point), draw(point)
        pts += [a, tuple(x + y for x, y in zip(a, b)), tuple(x + 2 * y for x, y in zip(a, b))]
    return pts


@pytest.fixture
def lp_calls(monkeypatch):
    """Records the LPs that geometry solves."""
    calls = []
    solve = geometry.lp_solve
    monkeypatch.setattr(geometry, "lp_solve", lambda prob: calls.append(prob) or solve(prob))
    return calls


class TestHullCertificates:
    """Certificates settle most points; the brute-force definition decides
    all."""

    @seed(SEED)
    @settings(max_examples=300, deadline=None)
    @given(lattice_sets())
    @example(SIX_POINTS)
    @example([(0, 0), (1, 1), (2, 2), (3, 3)])
    @example([(1, 1, 1), (2, 2, 2), (2, 2, 2)])
    def test_matches_lp_reference(self, pts):
        hull = lower_hull(pts)
        assert set(hull) == winners(pts)
        assert list(hull) == sorted(hull)
        assert_witnessed(hull)

    def test_two_points_need_no_lp(self, lp_calls):
        # Each of two points is alone at the minimum of some column.
        assert lower_hull([(1, 2, 3), (3, 2, 1), (1, 2, 3)]) == {
            (1, 2, 3): (1, 0, 0), (3, 2, 1): (0, 0, 1)
        }
        assert lp_calls == []

    def test_six_point_midpoint_support_needs_no_lp(self, lp_calls):
        # The indicator of its column minima fails for (3,2,2); the
        # perceptron steps from it find a witness.
        hull = lower_hull(SIX_POINTS)
        assert set(hull) == set(SIX_POINTS) - {(4, 2, 3), (5, 4, 3)}
        assert hull[(3, 2, 2)] == (0, 1, 3)
        assert lp_calls == []

    def test_m2_union_needs_no_perceptron(self, monkeypatch, lp_calls):
        # The union of m2's rows in round n = 3.  The indicator fails for
        # two of its vertices and no midpoint lies below them; the gap
        # weight witnesses both, with no perceptron step and no LP.
        pts = [
            (0, 1, 0, 0, 0, 3, 0, 0, 2, 1), (0, 1, 0, 0, 1, 2, 0, 1, 2, 0),
            (0, 1, 0, 1, 1, 1, 1, 0, 1, 1), (0, 1, 0, 1, 2, 0, 1, 1, 1, 0),
            (0, 1, 1, 0, 1, 1, 1, 1, 1, 0), (0, 1, 1, 1, 1, 0, 2, 0, 0, 1),
            (0, 1, 2, 0, 1, 0, 2, 1, 0, 0), (1, 0, 0, 1, 0, 2, 0, 0, 2, 1),
            (1, 0, 0, 1, 1, 1, 0, 1, 2, 0), (1, 0, 0, 2, 1, 0, 1, 0, 1, 1),
            (1, 0, 1, 1, 0, 1, 1, 0, 1, 1), (1, 0, 1, 1, 1, 0, 1, 1, 1, 0),
            (1, 0, 2, 1, 0, 0, 2, 0, 0, 1), (1, 0, 3, 0, 0, 0, 2, 1, 0, 0),
        ]
        monkeypatch.setattr(geometry, "_UPDATES", 0)
        hull = lower_hull(pts)
        assert set(hull) == winners(pts) and len(hull) == 12
        assert_witnessed(hull)
        assert lp_calls == []

    def test_analyze_corpus_lp_counts(self, lp_calls):
        # Every point of a corpus program's minimizations is settled by a
        # certificate or skipped as dominated, except two points of m4_4
        # that the midpoint, the gap weight and the perceptron steps leave
        # open; their LPs find that neither is a vertex.  The fan of m2's 6
        # monomials reuses their witnesses and settles its 15 pairs of cones
        # by 12 segment ties and 3 pairs below, with no LP.
        counts = {}
        for name in CORPUS_NAMES:
            lp_calls.clear()
            infer.analyze(load(name), 1)
            counts[name] = len(lp_calls)
        assert counts == {name: 2 if name == "m4_4" else 0 for name in CORPUS_NAMES}


class TestLowerHullDominance:
    """Dominance first: vertexhood is decided only for undominated points."""

    @seed(SEED)
    @settings(max_examples=300, deadline=None)
    @given(lattice_sets())
    @example(SIX_POINTS)
    def test_matches_winners(self, pts):
        d = len(pts[0])
        assert set(np_min(Poly(d, pts)).coeffs) == winners(pts)

    def test_point_dominated_only_by_a_non_vertex_is_dropped(self, lp_calls):
        # (2,2) is the midpoint of (0,4) and (4,0), and (2,3) lies above it:
        # neither is ever the strict minimum, and no LP is needed to see it.
        pts = [(0, 4), (4, 0), (2, 2), (2, 3)]
        assert lower_hull(pts) == {(0, 4): (1, 0), (4, 0): (0, 1)}
        assert lp_calls == []

    def test_centroid_of_a_simplex_needs_one_lp(self, lp_calls):
        pts = [(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)]
        assert np_min(Poly(3, pts)).support() == [(0, 0, 3), (0, 3, 0), (3, 0, 0)]
        assert len(lp_calls) == 1

    def test_point_a_kept_vertex_dominates_is_not_tested(self, lp_calls):
        # (2,2,2) is the centroid of the other three non-zero points, which
        # only an LP would decide; (0,0,0) dominates all of them.
        pts = [(0, 0, 0), (4, 1, 1), (1, 4, 1), (1, 1, 4), (2, 2, 2)]
        assert lower_hull(pts) == {(0, 0, 0): (1, 1, 1)}
        assert lp_calls == []


class TestNpMin:
    def test_six_point_support(self):
        pts = [(2, 3, 2), (3, 2, 2), (1, 1, 3), (3, 0, 3), (5, 3, 4), (4, 2, 3)]
        mini = np_min(Poly(3, pts))
        assert set(mini.coeffs) == {(2, 3, 2), (3, 2, 2), (1, 1, 3), (3, 0, 3)}

    def test_binomial_cube(self):
        s = CountPoly.of(Poly(2, [(1, 0), (0, 1)]))
        cube = s * s * s
        mini = np_min(tropicalize(cube))
        assert mini.support() == [(0, 3), (3, 0)]

    def test_antichain_unchanged(self):
        s = Poly(2, [(2, 0), (1, 1), (0, 2)])
        mini = np_min(s)
        # (1,1) is minimal but not a vertex of the hull.
        assert mini.support() == [(0, 2), (2, 0)]

    def test_empty(self):
        assert np_min(Poly.zero(2)).is_zero()


class TestVN:
    def test_power_golden(self):
        s = Poly(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        for k in range(2, 6):
            out = vn([s] * k)
            assert out.support() == [
                (0, 0, k), (0, k, 0), (k, 0, 0)
            ]

    def test_zero_factor(self):
        assert vn([Poly.zero(2), Poly.unit(2)]) == Poly.zero(2)

    @seed(SEED)
    @settings(deadline=None, max_examples=40)
    @given(
        st.integers(1, 10).flatmap(
            lambda d: st.tuples(
                st.just(d),
                st.lists(
                    st.one_of(
                        st.sets(st.tuples(*[st.integers(0, 3)] * d), min_size=1, max_size=1),
                        st.sets(st.tuples(*[st.integers(0, 3)] * d), min_size=1, max_size=4),
                    ),
                    min_size=1,
                    max_size=3,
                ),
            )
        )
    )
    def test_equals_minimized_naive_product(self, data):
        # Single-monomial factors are drawn often: their product takes its
        # own path.  The oracle is the brute-force definition, one LP per
        # point.
        d, supports = data
        factors = [np_min(Poly(d, supp)) for supp in supports]
        out = vn(factors)
        naive = functools.reduce(operator.mul, map(CountPoly.of, factors))
        assert set(out.coeffs) == winners(naive.coeffs)

    @seed(SEED)
    @settings(deadline=None, max_examples=200)
    @given(
        st.integers(2, 4).flatmap(
            lambda d: st.tuples(
                st.just(d),
                st.lists(
                    st.sets(st.tuples(*[st.integers(0, 3)] * d), min_size=1, max_size=5),
                    min_size=2,
                    max_size=4,
                ),
            )
        )
    )
    def test_minimized_factors_give_the_raw_product(self, data):
        # The typing rules multiply minimized polynomials, and their memo
        # keys assume that this gives the minimized product of raw ones.
        d, supports = data
        raw = [Poly(d, supp) for supp in supports]
        assert vn(list(map(np_min, raw))) == vn(raw)

    def test_minimizing_a_factor_early_is_exact(self):
        # (0,0,1) is dominated in a, and the lower hull of a product is the
        # lower hull of the products of the factors' lower hulls.  Keeping
        # the pointwise-minimal vertices of the full hull instead keeps
        # (2,3,2) from the raw factors and (2,3,1) from the minimized ones.
        a = Poly(3, [(0, 0, 0), (0, 0, 1)])
        b = Poly(3, [(0, 2, 1), (1, 1, 0)])
        c = Poly(3, [(0, 3, 0), (2, 1, 0)])
        assert vn([a, b, c]) == vn([np_min(a), b, c]) == Poly(3, [(0, 5, 1), (1, 4, 0), (3, 2, 0)])

    def test_single_monomial_product_is_their_sum(self, monkeypatch):
        def no_hull(*args):
            raise AssertionError("a product of single monomials built a hull")

        monkeypatch.setattr(geometry, "lower_hull", no_hull)
        factors = [Poly(3, [(1, 0, 2)]), Poly(3, [(0, 0, 1)]), Poly(3, [(2, 1, 0)])]
        assert vn(factors) == Poly(3, [(3, 1, 3)])
        assert vn(factors[:2]) == Poly(3, [(1, 0, 3)])
        assert vn(factors[:1]) == factors[0]


def cone_rows(mu, s: Poly) -> HalfspaceSystem:
    """The cone of mu in s: (mu - nu) . z <= 0 for every other monomial nu."""
    rows = sorted(tuple(a - b for a, b in zip(mu, nu)) for nu in s.coeffs if nu != mu)
    return HalfspaceSystem(s.dim, tuple(rows))


class TestNormalFanCones:
    def test_three_choice_cone(self):
        # (2,1) lies above (2,0), so minimization drops it and its row.
        s = np_min(Poly(2, [(2, 0), (2, 1), (0, 3)]))
        cone, witness = normal_fan(s)[(0, 3)]
        assert cone.rows == ((F(-2), F(3)),)
        assert cone.contains(witness) and witness == (1, 0)

    def test_unit_vector_keeps_a_row_without_lp(self, monkeypatch):
        # e_1 satisfies (-1,1) and violates (1,-1), and e_2 the other way.
        calls = []
        monkeypatch.setattr(geometry, "lp_solve", calls.append)
        fan = normal_fan(Poly(2, [(1, 0), (0, 1)]))
        assert fan[(0, 1)][0] == HalfspaceSystem(2, ((-1, 1),))
        assert fan[(1, 0)][0] == HalfspaceSystem(2, ((1, -1),))
        assert calls == []

    def test_not_in_support(self):
        # Only monomials of the polynomial get a cone.
        fan = normal_fan(Poly(2, [(2, 0), (0, 3)]))
        assert list(fan) == [(0, 3), (2, 0)] and (5, 5) not in fan

    def test_single_monomial_cone_is_everything(self):
        fan = normal_fan(Poly(2, [(1, 1)]))
        assert fan == {(1, 1): (HalfspaceSystem(2, ()), (1, 1))}

    def test_empty_cone_of_dominated_vertex(self):
        # (2,2) never minimizes against (0,0): its cone is only the origin,
        # and a polynomial with such a monomial has no normal fan here.
        with pytest.raises(GeometryError, match="never the strict minimum"):
            normal_fan(Poly(2, [(0, 0), (2, 2)]))

    def test_contains_with_infinity(self):
        cone = HalfspaceSystem(2, ((F(-2), F(3)),))
        assert cone.contains([F(1), F(0)])
        assert cone.contains([INF, F(1)])
        assert not cone.contains([F(0), INF])

    def test_cones_cover_quadrant(self, rng):
        s = Poly(2, [(2, 0), (0, 3)])
        cones = {m: cone for m, (cone, _) in normal_fan(s).items()}
        for _ in range(100):
            z = [F(rng.randint(0, 30), rng.randint(1, 7)) for _ in range(2)]
            value, winners_at_z = eval_trop(s, z)
            hits = [m for m, cone in cones.items() if cone.contains(z)]
            assert hits and set(winners_at_z) <= set(hits)


def assert_matches_reference(s: Poly):
    """The fan of s keeps the rows the LP-only row reduction keeps, cone by
    cone, and each witness is strictly inside its cone."""
    fan = normal_fan(s)
    assert list(fan) == s.support()
    for mu, (cone, witness) in fan.items():
        assert cone == reference_reduce_rows(cone_rows(mu, s)), mu
    assert_witnessed({mu: witness for mu, (_, witness) in fan.items()})


# (dimension, support) pairs of dimension 2-6.
supports = st.integers(2, 6).flatmap(
    lambda d: st.tuples(
        st.just(d), st.sets(st.tuples(*[st.integers(0, 4)] * d), min_size=1, max_size=8)
    )
)


class TestNormalFan:
    @seed(SEED)
    @settings(max_examples=150, deadline=None)
    @given(supports)
    # (3,3) is a vertex of the full hull but never the strict minimum.
    @example((2, {(0, 4), (4, 0), (3, 3)}))
    # (2,2) is dominated by (0,0): its cone is the origin.
    @example((2, {(0, 0), (2, 2)}))
    # (1,2) lies on the segment from (2,1) to (0,4), so two rows of its cone
    # are parallel.
    @example((2, {(0, 4), (1, 2), (1, 4), (2, 1), (3, 0), (3, 2), (4, 4)}))
    # m2's monomials: pairs below settle every pair that no unit vector or
    # segment tie settles.
    @example((10, set(M2_MONOMIALS)))
    def test_matches_cone_by_cone_reference(self, data):
        # A polynomial has a fan exactly when every monomial can win.
        d, support = data
        s = Poly(d, support)
        assert_matches_reference(np_min(s))
        if winners(support) == support:
            assert_matches_reference(s)
        else:
            with pytest.raises(GeometryError):
                normal_fan(s)

    def test_segment_tie_keeps_a_row_without_lp(self, monkeypatch):
        s = Poly(3, [(0, 0, 2), (0, 2, 1), (1, 0, 0)])
        # No unit vector settles the row between (0,0,2) and (1,0,0) in
        # either cone; at their tie point on the segment between the two
        # witnesses, (0,2,1) is strictly larger.
        assert not geometry._unit_facet((-1, 0, 2), cone_rows((0, 0, 2), s).rows)
        assert not geometry._unit_facet((1, 0, -2), cone_rows((1, 0, 0), s).rows)
        implied = []
        monkeypatch.setattr(geometry, "_implied", lambda *args: implied.append(args))
        fan = normal_fan(s)
        assert implied == []
        monkeypatch.undo()
        assert_matches_reference(s)
        assert fan[(0, 0, 2)][0].rows == ((-1, 0, 2), (0, -2, 1))

    @seed(SEED)
    @settings(max_examples=150, deadline=None)
    @given(supports)
    @example((10, set(M2_MONOMIALS)))
    def test_pair_below_drops_only_redundant_rows(self, data):
        d, support = data
        s = np_min(Poly(d, support))
        for mu in s.coeffs:
            below = [nu for nu in s.coeffs if nu != mu and geometry._pair_below(mu, nu, s.coeffs)]
            if below:
                kept = reference_reduce_rows(cone_rows(mu, s)).rows
                assert not {tuple(map(operator.sub, mu, nu)) for nu in below} & set(kept)

    def test_m2_fan_solves_no_lp(self, monkeypatch):
        # Unit vectors and segment ties leave 3 pairs of cones open, and the
        # pair (0,1,0,0,1,0,0,1,0,0) + (1,0,0,1,0,0,0,0,0,1) lies below
        # each of them.
        def implied(row, others):
            raise AssertionError(f"LP for row {row}")

        s = Poly(10, M2_MONOMIALS)
        monkeypatch.setattr(geometry, "_implied", implied)
        fan = normal_fan(s)
        for mu, (cone, _) in fan.items():
            assert cone == reference_reduce_rows(cone_rows(mu, s)), mu

    def test_m2_fan_tries_the_segment_tie_first(self, monkeypatch):
        # The tie settles 12 of m2's 15 pairs, so unit vectors are tried only
        # on the 3 pairs left, twice each, and the pair below settles those.
        calls = {"_unit_facet": 0, "_implied": 0}
        for name in calls:
            def counted(*args, name=name, real=getattr(geometry, name)):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(geometry, name, counted)
        s = Poly(10, M2_MONOMIALS)
        fan = normal_fan(s)
        assert calls == {"_unit_facet": 6, "_implied": 0}
        monkeypatch.undo()
        assert sum(len(cone.rows) for cone, _ in fan.values()) == 24
        assert fan == normal_fan(s)
        assert_matches_reference(s)

    def test_two_monomials_solve_no_more_lps_than_cone_by_cone(self, lp_calls):
        # Two monomials that can both win need no LP at all; otherwise the
        # dominated one never wins.
        grid = list(itertools.product(range(3), repeat=2))
        for mu, nu in itertools.combinations(grid, 2):
            s = Poly(2, [mu, nu])
            if dominated(mu, [nu]) or dominated(nu, [mu]):
                with pytest.raises(GeometryError):
                    normal_fan(s)
            else:
                assert_matches_reference(s)
        assert lp_calls == []


class TestJson:
    @pytest.mark.parametrize(
        "q, text",
        [(3, "3"), (-2, "-2"), (F(-1, 2), "-1/2"), (F(4, 2), "2"), (F(0), "0"), (INF, "inf")],
    )
    def test_frac_to_json(self, q, text):
        assert geometry._frac_to_json(q) == text
        assert geometry._frac_from_json(text) == q
