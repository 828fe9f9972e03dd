"""The integer simplex kernel against the `Fraction` reference simplex.

Both run Bland's rule with the same tie-breaks, so they must take the same
pivots and agree exactly on point and value, not just on the optimum, and
both must refuse the same unbounded LPs.  Reseed with TROPINF_SEED.
"""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from tropinf.geometry import GeometryError, LPProblem, lp_solve

from conftest import SEED
from fraction_simplex import lp_solve as reference_lp_solve

# x - y grows without bound along x.
UNBOUNDED = LPProblem((1, -1), (((-1, 1), 3), ((0, 1), 2)))
# Three constraints tight at the optimum (0, 2) of a two-variable LP; x <= 0
# makes the first pivot degenerate.
DEGENERATE = LPProblem((1, 1), (((1, 1), 2), ((0, 1), 2), ((1, 0), 0)))
# Feasible (y >= x + 1), but not at the origin: the reference's phase 1
# solves it, the kernel refuses it.
NEGATIVE = LPProblem((1, 1), (((1, -1), -1), ((1, 1), 3)))
# Rational rows with different scales.
RATIONAL = LPProblem(
    (F(1, 2), F(-2, 3)),
    (((F(1, 3), F(1, 2)), F(5, 6)), ((F(-3, 4), 1), F(7, 4)), ((F(3, 4), F(-1, 6)), 0)),
)


@st.composite
def lps(draw, rational: bool):
    def numbers(low):
        return (
            st.fractions(min_value=low, max_value=4, max_denominator=6)
            if rational
            else st.integers(low, 4)
        )

    # Extra zeros make ties, zero right-hand sides and degenerate vertices common.
    coeff = st.one_of(st.just(0), numbers(-4))
    rhs = st.one_of(st.just(0), numbers(0))
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 5))
    rows = [(tuple(draw(coeff) for _ in range(n)), draw(rhs)) for _ in range(m)]
    # One positive objective coefficient gives the simplex a column to enter
    # at x = 0, and in most draws the row (1, ..., 1) . x <= b bounds the LP;
    # without it many LPs are unbounded.
    objective = [draw(coeff) for _ in range(n)]
    objective[draw(st.integers(0, n - 1))] = draw(numbers(1))
    if draw(st.integers(0, 3)):
        rows.append(((1,) * n, draw(numbers(1))))
    return LPProblem(tuple(objective), tuple(rows))


def outcome(solve, prob):
    """The result of solve(prob), or the message of the GeometryError it raises."""
    try:
        return solve(prob)
    except GeometryError as exc:
        return str(exc)


def test_pinned_cases_cover_every_status():
    with pytest.raises(GeometryError, match="unbounded"):
        lp_solve(UNBOUNDED)
    with pytest.raises(GeometryError, match="negative right-hand side -1"):
        lp_solve(NEGATIVE)
    assert reference_lp_solve(NEGATIVE).value == 3
    res = lp_solve(DEGENERATE)
    assert (res.x, res.value) == ((0, 2), 2)
    res = lp_solve(RATIONAL)
    assert all(type(v) is F for v in res.x)


@seed(SEED)
@settings(max_examples=250, deadline=None)
@given(lps(rational=False))
@example(UNBOUNDED)
@example(DEGENERATE)
def test_integer_lps_match_reference(prob):
    assert outcome(lp_solve, prob) == outcome(reference_lp_solve, prob)


@seed(SEED)
@settings(max_examples=250, deadline=None)
@given(lps(rational=True))
@example(RATIONAL)
def test_rational_lps_match_reference(prob):
    assert outcome(lp_solve, prob) == outcome(reference_lp_solve, prob)
