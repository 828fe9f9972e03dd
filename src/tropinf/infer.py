"""End-to-end analysis: stabilized weight polynomials, best trajectories at
given choice probabilities, and the probability region where a chosen
trajectory class is the most likely one."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction

from . import algebra, geometry, lang, typesys
from .algebra import INF, Monomial, Poly, ProbAssignment
from .geometry import HalfspaceSystem, normal_cone, reduce_rows
from .lang import ChoiceWord, Program, find_word

# Reduction steps allowed on each path of the search for a word.
ORACLE_BUDGET = 10000


class InferError(Exception):
    pass


@dataclass
class Config:
    window: int = 2
    max_rounds: int = 16


@dataclass
class SelectedTrajectory:
    """One monomial of the stabilized polynomial with its certificate.

    word is the smallest choice word whose run reaches the target with
    exactly this weight, found by a budgeted search of the reducer;
    cone is the region of weight vectors where the monomial attains the
    tropical minimum, with a rational witness point when one exists.
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
    rounds: list
    selected: list  # of SelectedTrajectory
    degree_estimate: int


def analyze(program: Program, target: int, config: Config | None = None,
            source: str = "") -> AnalysisReport:
    """Stabilize the bounded typing search and certify every monomial.

    When stabilization fails within the round budget the report still carries
    the last polynomial; it is then only valid relative to the explored
    trajectory space (stable=False).
    """
    config = config or Config()
    result = typesys.stabilize(
        program, target, window=config.window, max_rounds=config.max_rounds
    )
    selected = []
    for mu in result.poly.support():
        word = _resolve_word(program, target, mu)
        cone, witness = normal_cone(mu, result.poly)
        selected.append(SelectedTrajectory(mu, word, reduce_rows(cone), witness))
    return AnalysisReport(
        params=program.params,
        input_sha256=hashlib.sha256(source.encode()).hexdigest(),
        target=target,
        poly=result.poly,
        stable=result.stable,
        rounds=result.rounds,
        selected=selected,
        degree_estimate=result.poly.degree(),
    )


def _resolve_word(program, target, mu):
    """The smallest choice word of a run to target with weight mu."""
    word = find_word(program, target, mu, ORACLE_BUDGET)
    if word is None:
        raise InferError(
            f"no reduction with weight {algebra.mono_to_text(mu)} found within "
            f"{ORACLE_BUDGET} steps"
        )
    return word


# ---------------------------------------------------------------------------
# I1: most likely trajectory at fixed probabilities
# ---------------------------------------------------------------------------


@dataclass
class I1Result:
    value: float  # min over monomials of mu . (-ln p)
    winners: tuple  # monomials attaining it
    probability: Fraction  # exact probability of a winning trajectory


def mono_probability(mu: Monomial, p: ProbAssignment) -> Fraction:
    v = p.vector()
    prob = Fraction(1)
    for e, q in zip(mu, v):
        if e:
            prob *= q**e
    return prob


def solve_i1(report: AnalysisReport, p: ProbAssignment) -> I1Result:
    """The most likely selected trajectory class at given probabilities.

    Winners are decided by exact rational comparison of trajectory
    probabilities; the returned value is -ln of the best probability.
    """
    if 2 * p.k != report.poly.dim:
        raise InferError(f"expected {report.poly.dim // 2} probabilities, got {p.k}")
    if report.poly.is_zero():
        raise InferError("no trajectory reaches the target")
    best = None
    winners = []
    for mu in report.poly.support():
        prob = mono_probability(mu, p)
        if best is None or prob > best:
            best = prob
            winners = [mu]
        elif prob == best:
            winners.append(mu)
    # -ln(num/den) as ln(den) - ln(num): a probability of 1 gives 0.0, not -0.0.
    value = INF if best == 0 else math.log(best.denominator) - math.log(best.numerator)
    return I1Result(value, tuple(winners), best)


# ---------------------------------------------------------------------------
# I2: where is a trajectory class the most likely one
# ---------------------------------------------------------------------------


@dataclass
class I2Result:
    monomial: Monomial
    cone: HalfspaceSystem  # irredundant rows in weight (z) space
    witness: tuple | None


def solve_i2(report: AnalysisReport, mu: Monomial) -> I2Result:
    """The closed region of weight vectors where mu is tropically minimal."""
    mu = tuple(mu)
    for sel in report.selected:
        if sel.monomial == mu:
            return I2Result(mu, sel.cone, sel.witness)
    if mu not in report.poly.coeffs:
        raise InferError(
            f"{algebra.mono_to_text(mu)} is not a monomial of the stabilized "
            "polynomial"
        )
    cone, witness = normal_cone(mu, report.poly)
    return I2Result(mu, reduce_rows(cone), witness)


def i2_contains(result: I2Result, p: ProbAssignment) -> bool:
    """Does a probability assignment fall in the region (boundary included)?

    Exact rational probabilities are tested exactly: the halfspace test
    (mu - nu) . z <= 0 at z = -ln p is equivalent to p^nu <= p^mu, and a
    zero probability (an infinite weight) is handled case by case.
    """
    if 2 * p.k != result.cone.dim:
        raise InferError(f"expected {result.cone.dim // 2} probabilities, got {p.k}")
    v = p.vector()
    for row in result.cone.rows:
        # row = mu - nu for some nu; row . z <= 0  <=>  prod q^nu <= prod q^mu
        lhs = Fraction(1)  # q^(positive part) relative weight
        rhs = Fraction(1)
        lhs_zero = rhs_zero = False
        for a, q in zip(row, v):
            if a > 0:
                if q == 0:
                    lhs_zero = True
                else:
                    lhs *= q ** int(a)
            elif a < 0:
                if q == 0:
                    rhs_zero = True
                else:
                    rhs *= q ** int(-a)
        # Constraint row . z <= 0 with z = -ln q means q^(pos) >= q^(neg).
        if lhs_zero and rhs_zero:
            continue
        if lhs_zero:
            return False
        if rhs_zero:
            continue
        if lhs < rhs:
            return False
    return True


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------

SCHEMA = "tropinf-report/1"
TOOL_VERSION = "0.1.0"


def report_to_json(report: AnalysisReport) -> dict:
    return {
        "schema": SCHEMA,
        "tool_version": TOOL_VERSION,
        "input_sha256": report.input_sha256,
        "params": report.params,
        "target": report.target,
        "stable": report.stable,
        "rounds": [list(r) for r in report.rounds],
        "degree_estimate": report.degree_estimate,
        "polynomial": algebra.poly_to_json(report.poly),
        "polynomial_text": algebra.poly_to_text(report.poly),
        "selected": [
            {
                "monomial": list(sel.monomial),
                "monomial_text": algebra.mono_to_text(sel.monomial),
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
        rounds=[tuple(r) for r in obj["rounds"]],
        selected=selected,
        degree_estimate=obj["degree_estimate"],
    )
