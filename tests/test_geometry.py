import functools
import itertools
import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from tropinf import geometry, infer
from tropinf.algebra import INF, Poly, minimal_support
from tropinf.geometry import (
    GeometryError,
    HalfspaceSystem,
    LPProblem,
    hull_vertices,
    lp_solve,
    minimal_vertices,
    normal_cone,
    normal_fan,
    np_min,
    reduce_rows,
    vn,
)

from cone_reference import reduce_rows as reference_reduce_rows
from conftest import SEED, load
from eval_reference import CountPoly, eval_trop, tropicalize
from hull_reference import hull_vertices as reference_hull_vertices

F = Fraction

SIX_POINTS = [(2, 3, 2), (3, 2, 2), (1, 1, 3), (3, 0, 3), (5, 4, 3), (4, 2, 3)]


class TestLP:
    def test_simple_max(self):
        res = lp_solve(LPProblem((F(1),), (((F(1),), "<=", F(1)),)))
        assert res.status == "optimal" and res.value == 1 and res.x == (1,)

    def test_infeasible(self):
        res = lp_solve(LPProblem((F(0),), (((F(1),), "<=", F(-1)),)))
        assert res.status == "infeasible"

    def test_two_vars(self):
        rows = (((F(1), F(1)), "<=", F(3)), ((F(1), F(0)), "<=", F(2)))
        res = lp_solve(LPProblem((F(1), F(1)), rows))
        assert res.status == "optimal" and res.value == 3

    def test_unbounded(self):
        res = lp_solve(LPProblem((F(1),), (((F(-1),), "<=", F(0)),)))
        assert res.status == "unbounded"

    def test_equality_and_minimize(self):
        rows = (((F(1), F(1)), "=", F(2)),)
        res = lp_solve(LPProblem((F(1), F(0)), rows, maximize=False))
        assert res.status == "optimal" and res.value == 0

    def test_exact_rationals(self):
        rows = (((F(3), F(7)), "<=", F(1, 3)),)
        res = lp_solve(LPProblem((F(0), F(1)), rows))
        assert res.value == F(1, 21)


class TestHull:
    def test_freshman_dream_points(self):
        pts = [(i, j, l) for i in range(3) for j in range(3) for l in range(3) if i + j + l == 2]
        assert set(hull_vertices(pts)) == {(2, 0, 0), (0, 2, 0), (0, 0, 2)}

    def test_six_point_support(self):
        # (4,2,3) is the midpoint of (3,0,3) and (5,4,3), so it is the only
        # non-vertex.
        pts = [(2, 3, 2), (3, 2, 2), (1, 1, 3), (3, 0, 3), (5, 4, 3), (4, 2, 3)]
        assert set(hull_vertices(pts)) == set(pts) - {(4, 2, 3)}

    def test_six_point_support_variant(self):
        # Transposing one coordinate of (5,4,3) breaks the midpoint relation
        # above; all six points are then genuine vertices (cross-checked with
        # an independent solver).
        pts = [(2, 3, 2), (3, 2, 2), (1, 1, 3), (3, 0, 3), (5, 3, 4), (4, 2, 3)]
        assert set(hull_vertices(pts)) == set(pts)

    def test_single_point(self):
        assert hull_vertices([(1, 2)]) == ((1, 2),)

    def test_collinear(self):
        assert set(hull_vertices([(0, 0), (1, 1), (2, 2), (3, 3)])) == {(0, 0), (3, 3)}

    def test_empty(self):
        assert hull_vertices([]) == ()


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
    """Counts the vertex LPs `hull_vertices` and `minimal_vertices` solve."""
    calls = []
    solve = geometry._is_vertex

    def counted(p, others):
        calls.append(p)
        return solve(p, others)

    monkeypatch.setattr(geometry, "_is_vertex", counted)
    return calls


class TestHullCertificates:
    """Certificates settle most points; the LP-only reference decides all."""

    @seed(SEED)
    @settings(max_examples=300, deadline=None)
    @given(lattice_sets())
    @example(SIX_POINTS)
    @example([(0, 0), (1, 1), (2, 2), (3, 3)])
    @example([(1, 1, 1), (2, 2, 2), (2, 2, 2)])
    def test_matches_lp_reference(self, pts):
        assert hull_vertices(pts) == reference_hull_vertices(pts)

    def test_two_points_need_no_lp(self, lp_calls):
        assert hull_vertices([(1, 2, 3), (3, 2, 1), (1, 2, 3)]) == ((1, 2, 3), (3, 2, 1))
        assert lp_calls == []

    def test_six_point_midpoint_support_needs_no_lp(self, lp_calls):
        assert set(hull_vertices(SIX_POINTS)) == set(SIX_POINTS) - {(4, 2, 3)}
        assert lp_calls == []

    def test_centroid_direction_settles_the_grid_corners(self, lp_calls):
        # Every coordinate extreme of the 3x3 grid is attained by three
        # points, so only the centroid direction settles the corners; the
        # other five points are midpoints.
        grid = list(itertools.product(range(3), repeat=2))
        assert hull_vertices(grid) == ((0, 0), (0, 2), (2, 0), (2, 2))
        assert lp_calls == []

    def test_lex_extremes_of_a_face_need_no_lp(self, lp_calls):
        # The face x3 = 2 holds three points; its lex-least one, (1,2,2), is
        # a vertex although no other certificate settles it.
        pts = [(0, 1, 1), (1, 2, 2), (2, 1, 2), (2, 3, 2)]
        assert hull_vertices(pts) == tuple(pts)
        assert lp_calls == []

    def test_analyze_m2_solves_few_lps(self, lp_calls, monkeypatch):
        # Every vertex of m2's minimizations is settled by a certificate or
        # skipped as dominated, and the fan of its 6 monomials solves one
        # witness LP per monomial and 4 LPs for the 15 pairs of cones.
        solved = []
        solve = geometry.lp_solve
        monkeypatch.setattr(geometry, "lp_solve", lambda prob: solved.append(prob) or solve(prob))
        infer.analyze(load("m2"), 1)
        assert lp_calls == []
        assert len(solved) <= 10


class TestMinimalVertices:
    """Dominance first: vertexhood is decided only for undominated points."""

    @seed(SEED)
    @settings(max_examples=300, deadline=None)
    @given(lattice_sets())
    @example(SIX_POINTS)
    def test_matches_hull_then_dominance(self, pts):
        d = len(pts[0])
        expected = minimal_support(reference_hull_vertices(pts))
        assert np_min(Poly(d, pts)).support() == expected

    def test_point_dominated_only_by_a_non_vertex_is_kept(self):
        # (2,2) is the midpoint of (0,4) and (4,0); (2,3) is a vertex that
        # only (2,2) dominates.
        pts = [(0, 4), (4, 0), (2, 2), (2, 3)]
        assert minimal_vertices(pts) == [(0, 4), (2, 3), (4, 0)]

    def test_centroid_of_a_simplex_needs_one_lp(self, lp_calls):
        pts = [(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)]
        assert np_min(Poly(3, pts)).support() == [(0, 0, 3), (0, 3, 0), (3, 0, 0)]
        assert lp_calls == [(1, 1, 1)]

    def test_point_a_kept_vertex_dominates_is_not_tested(self, lp_calls):
        # (2,2,2) is the centroid of the other three non-zero points, which
        # only an LP decides; (0,0,0) is a vertex dominating all of them.
        pts = [(0, 0, 0), (4, 1, 1), (1, 4, 1), (1, 1, 4), (2, 2, 2)]
        assert minimal_vertices(pts) == [(0, 0, 0)]
        assert lp_calls == []
        assert hull_vertices(pts) == ((0, 0, 0), (1, 1, 4), (1, 4, 1), (4, 1, 1))
        assert lp_calls == [(2, 2, 2)]


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

    def test_empty_product_is_unit(self):
        assert vn([], dim=2) == Poly.unit(2)

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
        # own path.  The oracle hulls with one LP per point.
        d, supports = data
        factors = [np_min(Poly(d, supp)) for supp in supports]
        out = vn(factors)
        naive = functools.reduce(operator.mul, map(CountPoly.of, factors))
        oracle = minimal_support(reference_hull_vertices(naive.coeffs))
        assert out.support() == oracle

    def test_single_monomial_product_is_their_sum(self, monkeypatch):
        def no_hull(*args):
            raise AssertionError("a product of single monomials built a hull")

        for name in ("_VertexTest", "hull_vertices", "minimal_vertices", "minimal_support"):
            monkeypatch.setattr(geometry, name, no_hull)
        factors = [Poly(3, [(1, 0, 2)]), Poly(3, [(0, 0, 1)]), Poly(3, [(2, 1, 0)])]
        assert vn(factors) == Poly(3, [(3, 1, 3)])
        assert vn(factors[:2]) == Poly(3, [(1, 0, 3)])
        assert vn(factors[:1]) == factors[0]


class TestNormalCone:
    def test_three_choice_cone(self):
        s = Poly(2, [(2, 0), (2, 1), (0, 3)])
        cone, witness = normal_cone((0, 3), s)
        assert set(cone.rows) == {(F(-2), F(2)), (F(-2), F(3))}
        assert witness is not None and cone.contains(witness)
        reduced = reduce_rows(cone)
        assert reduced.rows == ((F(-2), F(3)),)

    @seed(SEED)
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda d: st.lists(
                st.tuples(*[st.integers(-3, 3)] * d), min_size=0, max_size=7
            )
        )
    )
    @example([(-2, 2), (-2, 3)])
    @example([(1, -1), (1, -1), (-1, 1)])
    def test_reduce_rows_matches_lp_reference(self, rows):
        system = HalfspaceSystem(len(rows[0]) if rows else 1, tuple(rows))
        assert reduce_rows(system) == reference_reduce_rows(system)

    def test_unit_vector_keeps_a_row_without_lp(self, monkeypatch):
        # e_1 satisfies (-1,1) and violates (1,-1), and e_2 the other way.
        calls = []
        monkeypatch.setattr(geometry, "lp_solve", calls.append)
        system = HalfspaceSystem(2, ((-1, 1), (1, -1)))
        assert reduce_rows(system) == system
        assert calls == []

    def test_not_in_support(self):
        with pytest.raises(GeometryError):
            normal_cone((5, 5), Poly(2, [(2, 0)]))

    def test_single_monomial_cone_is_everything(self):
        cone, witness = normal_cone((1, 1), Poly(2, [(1, 1)]))
        assert cone.rows == ()
        assert witness == (1, 1)

    def test_empty_cone_of_dominated_vertex(self):
        # (2,2) never minimizes against (0,0): the cone is only the origin.
        s = Poly(2, [(0, 0), (2, 2)])
        cone, witness = normal_cone((2, 2), s)
        assert witness is None

    def test_contains_with_infinity(self):
        cone = HalfspaceSystem(2, ((F(-2), F(3)),))
        assert cone.contains([F(1), F(0)])
        assert cone.contains([INF, F(1)])
        assert not cone.contains([F(0), INF])

    def test_cones_cover_quadrant(self, rng):
        s = Poly(2, [(2, 0), (0, 3)])
        cones = {m: normal_cone(m, s)[0] for m in s.coeffs}
        for _ in range(100):
            z = [F(rng.randint(0, 30), rng.randint(1, 7)) for _ in range(2)]
            value, winners = eval_trop(s, z)
            hits = [m for m, cone in cones.items() if cone.contains(z)]
            assert hits and set(winners) <= set(hits)


def reference_fan(s: Poly) -> dict:
    """Each cone by `normal_cone` and the LP-only row reduction."""
    fan = {}
    for mu in s.support():
        cone, witness = normal_cone(mu, s)
        fan[mu] = (reference_reduce_rows(cone), witness)
    return fan


class TestNormalFan:
    @seed(SEED)
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(2, 6).flatmap(
            lambda d: st.tuples(
                st.just(d),
                st.sets(st.tuples(*[st.integers(0, 4)] * d), min_size=1, max_size=8),
            )
        )
    )
    # Item 5 of the roadmap: (3,3) is a vertex but never the strict minimum,
    # so its cone has no interior.
    @example((2, {(0, 4), (4, 0), (3, 3)}))
    # (2,2) is dominated by (0,0): its cone is the origin, with no witness.
    @example((2, {(0, 0), (2, 2)}))
    # Not minimal: (1,2) lies on the segment from (2,1) to (0,4), so two rows
    # of its cone are parallel and only one of them is kept.
    @example((2, {(0, 4), (1, 2), (1, 4), (2, 1), (3, 0), (3, 2), (4, 4)}))
    def test_matches_cone_by_cone_reference(self, data):
        d, support = data
        s = Poly(d, support)
        for poly in (np_min(s), s):
            assert normal_fan(poly) == reference_fan(poly)

    def test_segment_tie_keeps_a_row_without_lp(self, monkeypatch):
        s = Poly(3, [(0, 0, 2), (0, 2, 1), (1, 0, 0)])
        # No unit vector settles the row between (0,0,2) and (1,0,0) in
        # either cone; at their tie point on the segment between the two
        # witnesses, (0,2,1) is strictly larger.
        assert not geometry._unit_facet((-1, 0, 2), normal_cone((0, 0, 2), s)[0].rows)
        assert not geometry._unit_facet((1, 0, -2), normal_cone((1, 0, 0), s)[0].rows)
        implied = []
        monkeypatch.setattr(geometry, "_implied", lambda *args: implied.append(args))
        fan = normal_fan(s)
        assert implied == []
        assert fan == reference_fan(s)
        assert fan[(0, 0, 2)][0].rows == ((-1, 0, 2), (0, -2, 1))

    def test_two_monomials_solve_no_more_lps_than_cone_by_cone(self, monkeypatch):
        solved = []
        solve = geometry.lp_solve
        monkeypatch.setattr(geometry, "lp_solve", lambda prob: solved.append(prob) or solve(prob))
        grid = list(itertools.product(range(3), repeat=2))
        for mu, nu in itertools.combinations(grid, 2):
            s = Poly(2, [mu, nu])
            solved.clear()
            fan = normal_fan(s)
            fan_lps = len(solved)
            solved.clear()
            for m in s.support():
                reduce_rows(normal_cone(m, s)[0])
            assert fan_lps <= len(solved), (mu, nu)


class TestJson:
    @pytest.mark.parametrize(
        "q, text",
        [(3, "3"), (-2, "-2"), (F(-1, 2), "-1/2"), (F(4, 2), "2"), (F(0), "0"), (INF, "inf")],
    )
    def test_frac_to_json(self, q, text):
        assert geometry._frac_to_json(q) == text
        assert geometry._frac_from_json(text) == q
