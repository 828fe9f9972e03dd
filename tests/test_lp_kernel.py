"""The integer simplex kernel against the `Fraction` reference simplex.

Both run Bland's rule with the same tie-breaks, so they must take the same
pivots and agree exactly on status, point and value, not just on the optimum.
Reseed with TROPINF_SEED.
"""

from fractions import Fraction as F

from hypothesis import example, given, seed, settings, strategies as st

from tropinf.geometry import LPProblem, lp_solve

from conftest import SEED
from fraction_simplex import lp_solve as reference_lp_solve

SENSES = ("<=", "=", ">=")

INFEASIBLE = LPProblem((1, 1), (((1, 1), "<=", 1), ((1, 1), ">=", 2)))
UNBOUNDED = LPProblem((1, -1), (((1, -1), ">=", -3), ((0, 1), "=", 2)))
# Three constraints tight at the optimum (0, 2) of a two-variable LP.
DEGENERATE = LPProblem((1, 1), (((1, 1), "<=", 2), ((0, 1), "<=", 2), ((1, -1), "<=", -2)))
# Rational rows with different scales in one phase 1, and a negative rhs.
RATIONAL = LPProblem(
    (F(1, 2), F(-2, 3)),
    (((F(1, 3), F(1, 2)), "=", F(5, 6)), ((F(-3, 4), 1), ">=", F(-7, 4))),
    maximize=False,
)


@st.composite
def lps(draw, rational: bool):
    number = (
        st.fractions(min_value=-4, max_value=4, max_denominator=6)
        if rational
        else st.integers(-4, 4)
    )
    # Extra zeros make ties, zero right-hand sides and degenerate vertices common.
    coeff = st.one_of(st.just(0), number)
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 5))
    rows = tuple(
        (
            tuple(draw(coeff) for _ in range(n)),
            draw(st.sampled_from(SENSES)),
            draw(coeff),
        )
        for _ in range(m)
    )
    objective = tuple(draw(coeff) for _ in range(n))
    return LPProblem(objective, rows, draw(st.booleans()))


def test_pinned_cases_cover_every_status():
    assert lp_solve(INFEASIBLE).status == "infeasible"
    assert lp_solve(UNBOUNDED).status == "unbounded"
    res = lp_solve(DEGENERATE)
    assert (res.status, res.x, res.value) == ("optimal", (0, 2), 2)
    res = lp_solve(RATIONAL)
    assert res.status == "optimal" and all(type(v) is F for v in res.x)


@seed(SEED)
@settings(max_examples=250, deadline=None)
@given(lps(rational=False))
@example(INFEASIBLE)
@example(UNBOUNDED)
@example(DEGENERATE)
def test_integer_lps_match_reference(prob):
    assert lp_solve(prob) == reference_lp_solve(prob)


@seed(SEED)
@settings(max_examples=250, deadline=None)
@given(lps(rational=True))
@example(RATIONAL)
def test_rational_lps_match_reference(prob):
    assert lp_solve(prob) == reference_lp_solve(prob)
