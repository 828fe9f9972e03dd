"""End-to-end analysis: stabilized weight polynomials, best trajectories at
given choice probabilities, and the probability region where a chosen
trajectory class is the most likely one.

`analyze` certifies the whole support at once: one search of the reducer
finds the word of every monomial (`lang.find_words`), and one pass over the
normal fan finds every cone (`geometry.normal_fan`).  Probabilities are
compared exactly, as integer numerators and denominators by
cross-multiplication."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction

from . import algebra, geometry, lang, typesys
from .algebra import INF, Monomial, Poly, ProbAssignment
from .geometry import HalfspaceSystem
from .lang import ChoiceWord, Program, find_words

# Reduction steps allowed on each path of the search for a word.
ORACLE_BUDGET = 10000


class InferError(Exception):
    pass


@dataclass
class SelectedTrajectory:
    """One monomial of the stabilized polynomial with its certificate.

    word is the smallest choice word whose run reaches the target with
    exactly this weight, found by a budgeted search of the reducer;
    cone is the region of weight vectors where the monomial attains the
    tropical minimum, and witness a weight at which it is the strict minimum.
    """

    monomial: Monomial
    word: ChoiceWord
    cone: HalfspaceSystem
    witness: tuple | None


@dataclass
class AnalysisReport:
    params: int
    input_sha256: str  # of the program source
    target: int
    poly: Poly
    stable: bool
    exact: bool  # the polynomial is that of the whole family of typings
    # Pairs (n, None), None meaning no multiset bound, until bench/run.py's
    # corpus rows read a list of n; the JSON report holds the list of n.
    rounds: list
    selected: list  # of SelectedTrajectory
    degree_estimate: int


def analyze(program: Program, target: int, *, window: int = 1,
            max_rounds: int = 16, source: str = "") -> AnalysisReport:
    """Stabilize the bounded typing search and certify every monomial: its
    smallest word, from one search for all monomials, and its reduced cone
    and witness, from the normal fan of the polynomial.

    When stabilization fails within the round budget the report still carries
    the last polynomial; it is then only valid relative to the explored
    trajectory space (stable=False).  exact=True when the polynomial is the
    whole family's: at a round whose dominance certificate holds.
    """
    result = typesys.stabilize(program, target, window, max_rounds)
    support = result.poly.support()
    words = find_words(program, target, support, ORACLE_BUDGET)
    for mu in support:
        if mu not in words:
            raise InferError(
                f"no reduction with weight {algebra.mono_to_text(mu)} found within "
                f"{ORACLE_BUDGET} steps"
            )
    fan = geometry.normal_fan(result.poly)
    selected = [SelectedTrajectory(mu, words[mu], *fan[mu]) for mu in support]
    return AnalysisReport(
        params=program.params,
        input_sha256=hashlib.sha256(source.encode()).hexdigest(),
        target=target,
        poly=result.poly,
        stable=result.stable,
        exact=result.exact,
        rounds=[(n, None) for n in result.rounds],
        selected=selected,
        degree_estimate=result.poly.degree(),
    )


# ---------------------------------------------------------------------------
# I1: most likely trajectory at fixed probabilities
# ---------------------------------------------------------------------------


@dataclass
class I1Result:
    value: float  # min over monomials of mu . (-ln p)
    winners: tuple  # monomials attaining it
    probability: Fraction  # exact probability of a winning trajectory


def _power(exps, nums, dens) -> tuple:
    """prod over e > 0 of (num / den)^e, as an integer numerator and a
    positive integer denominator."""
    num = den = 1
    for e, a, b in zip(exps, nums, dens):
        if e > 0:
            num *= a**e
            den *= b**e
    return num, den


def solve_i1(report: AnalysisReport, p: ProbAssignment) -> I1Result:
    """The most likely selected trajectory class at given probabilities.

    Winners are decided by exact comparison of trajectory probabilities,
    each an integer numerator over an integer denominator, by
    cross-multiplication; the returned value is -ln of the best probability.
    """
    if 2 * p.k != report.poly.dim:
        raise InferError(f"expected {report.poly.dim // 2} probabilities, got {p.k}")
    if report.poly.is_zero():
        raise InferError("no trajectory reaches the target")
    nums, dens = p.nums, p.dens
    best = (-1, 1)  # below every probability
    winners = []
    for mu in report.poly.support():
        num, den = _power(mu, nums, dens)
        order = num * best[1] - best[0] * den
        if order > 0:
            best = num, den
            winners = [mu]
        elif order == 0:
            winners.append(mu)
    best = Fraction(*best)
    # -ln(num/den) as ln(den) - ln(num): a probability of 1 gives 0.0, not -0.0.
    value = INF if best == 0 else math.log(best.denominator) - math.log(best.numerator)
    return I1Result(value, tuple(winners), best)


# ---------------------------------------------------------------------------
# I2: where is a trajectory class the most likely one
# ---------------------------------------------------------------------------


def solve_i2(report: AnalysisReport, mu: Monomial) -> SelectedTrajectory:
    """The selected trajectory of mu, whose cone is the closed region of
    weight vectors where mu is tropically minimal.  Every monomial of the
    polynomial is selected."""
    mu = tuple(mu)
    for sel in report.selected:
        if sel.monomial == mu:
            return sel
    raise InferError(
        f"{algebra.mono_to_text(mu)} is not a monomial of the stabilized "
        "polynomial"
    )


def i2_contains(result: SelectedTrajectory, p: ProbAssignment) -> bool:
    """Does a probability assignment fall in the region (boundary included)?

    Exact rational probabilities are tested exactly: the halfspace test
    (mu - nu) . z <= 0 at z = -ln p is equivalent to p^nu <= p^mu, which
    compares two integer fractions by cross-multiplication.  A row is first
    scaled to integers, and a zero probability (an infinite weight) makes
    its side of the comparison 0.
    """
    if 2 * p.k != result.cone.dim:
        raise InferError(f"expected {result.cone.dim // 2} probabilities, got {p.k}")
    nums, dens = p.nums, p.dens
    for row in result.cone.rows:
        # row . z <= 0 at z = -ln q means q^(positive part) >= q^(negative part).
        ints = geometry._integral(row)[0]
        pos_num, pos_den = _power(ints, nums, dens)
        neg_num, neg_den = _power([-a for a in ints], nums, dens)
        if pos_num * neg_den < neg_num * pos_den:
            return False
    return True


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------

SCHEMA = "tropinf-report/2"
TOOL_VERSION = "0.1.0"


def report_to_json(report: AnalysisReport) -> dict:
    names = algebra.var_names(report.poly.dim)
    return {
        "schema": SCHEMA,
        "tool_version": TOOL_VERSION,
        "input_sha256": report.input_sha256,
        "params": report.params,
        "target": report.target,
        "stable": report.stable,
        "exact": report.exact,
        "rounds": [n for n, _ in report.rounds],
        "degree_estimate": report.degree_estimate,
        "polynomial": algebra.poly_to_json(report.poly),
        "polynomial_text": algebra.poly_to_text(report.poly, names),
        "selected": [
            {
                "monomial": list(sel.monomial),
                "monomial_text": algebra.mono_to_text(sel.monomial, names),
                "word": [[param, bit] for param, bit in sel.word],
                "word_text": lang.word_to_text(sel.word),
                "cone": geometry.cone_to_json(sel.cone, sel.witness),
            }
            for sel in report.selected
        ],
    }


def report_from_json(obj: dict) -> AnalysisReport:
    if obj.get("schema") != SCHEMA:
        raise InferError(f"unsupported report schema {obj.get('schema')!r}")
    poly = algebra.poly_from_json(obj["polynomial"])
    selected = []
    for sel in obj["selected"]:
        cone, witness = geometry.cone_from_json(sel["cone"])
        selected.append(
            SelectedTrajectory(
                tuple(sel["monomial"]),
                tuple((param, bit) for param, bit in sel["word"]),
                cone,
                witness,
            )
        )
    return AnalysisReport(
        params=obj["params"],
        input_sha256=obj["input_sha256"],
        target=obj["target"],
        poly=poly,
        stable=obj["stable"],
        exact=obj["exact"],
        rounds=[(n, None) for n in obj["rounds"]],
        selected=selected,
        degree_estimate=obj["degree_estimate"],
    )
