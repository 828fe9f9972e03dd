import math
from fractions import Fraction as F

import pytest

from tropinf import infer
from tropinf.algebra import ProbAssignment, poly_to_text
from tropinf.geometry import HalfspaceSystem
from tropinf.infer import (
    InferError,
    SelectedTrajectory,
    analyze,
    i2_contains,
    report_from_json,
    report_to_json,
    solve_i1,
    solve_i2,
)
from tropinf import typesys
from tropinf.lang import enumerate_trajectories, parse

from conftest import LATE_RUNS, load, load_source, random_program
from eval_reference import eval_prob, monomial
from replay_reference import replay_word


@pytest.fixture(scope="module")
def m1_report():
    return analyze(load("m1"), 1, source=load_source("m1"))


def zvec(p):
    return [-math.log(p), -math.log(1 - p)]


class TestAnalyze:
    def test_report_fields(self, m1_report):
        rep = m1_report
        assert rep.stable and rep.exact and rep.rounds == [(1, None)]
        assert poly_to_text(rep.poly) == "~X1^3 + X1^2"
        assert rep.degree_estimate == 3
        assert {s.monomial for s in rep.selected} == {(2, 0), (0, 3)}

    def test_root_merge_once_per_round(self, monkeypatch):
        calls = []
        real = typesys.conclusion_poly

        def counted(judgement, target, *memo):
            calls.append(target)
            return real(judgement, target, *memo)

        monkeypatch.setattr(typesys, "conclusion_poly", counted)
        rep = analyze(load("m4_3"), 1)
        assert len(calls) == len(rep.rounds)

    def test_words_replay(self, m1_report):
        program = load("m1")
        for sel in m1_report.selected:
            nf, mono, _ = replay_word(program, sel.word, 50)
            assert nf == 1 and mono == sel.monomial

    def test_selected_words_golden(self, m1_report):
        by_mono = {s.monomial: s.word for s in m1_report.selected}
        assert by_mono[(2, 0)] == ((1, 0), (1, 0))
        assert by_mono[(0, 3)] == ((1, 1), (1, 1), (1, 1))

    def test_cones_reduced(self, m1_report):
        by_mono = {s.monomial: s for s in m1_report.selected}
        assert by_mono[(0, 3)].cone.rows == ((F(-2), F(3)),)
        assert by_mono[(2, 0)].cone.rows == ((F(2), F(-3)),)
        for sel in m1_report.selected:
            assert sel.witness is not None
            assert sel.cone.contains(sel.witness)

    def test_recursive_sampler(self):
        rep = analyze(load("m2"), 1, source=load_source("m2"))
        assert rep.stable and len(rep.selected) == 6
        for sel in rep.selected:
            nf, mono, _ = replay_word(load("m2"), sel.word, 200)
            assert nf == 1 and mono == sel.monomial

    def test_words_are_the_smallest_runs(self, rng):
        # On fix-free programs every run is enumerable: each reported word is
        # the smallest word of a run with its target and monomial.  Two runs
        # rarely share a kept monomial, so the first program pins such a tie
        # (01 and 10 both give X1*~X1 at 1).
        programs = [parse("(0 +[X1] 1) +[X1] (1 +[X1] 0)")]
        programs += [random_program(rng, max_nodes=30, k=1) for _ in range(200)]
        checked = ties = 0
        for program in programs:
            trajs = list(enumerate_trajectories(program, 400))
            if any(t.normal_form is None for t in trajs):
                continue
            for target in (0, 1):
                for sel in analyze(program, target).selected:
                    words = [
                        t.word
                        for t in trajs
                        if t.normal_form == target and t.monomial == sel.monomial
                    ]
                    assert sel.word == min(words), program
                    checked += 1
                    ties += len(words) > 1
        assert checked > 100 and ties > 0

    def test_monomial_without_a_run_names_the_first_one_missing(self, monkeypatch):
        # Within 20 steps the runs of the first two monomials of m2's support
        # are found, but not that of the third.
        monkeypatch.setattr(infer, "ORACLE_BUDGET", 20)
        with pytest.raises(InferError) as err:
            analyze(load("m2"), 1)
        assert str(err.value) == "no reduction with weight ~X1*~X2*X3*X4*~X5 found within 20 steps"

    def test_unstable_is_labelled(self):
        # The dominance certificate first settles this loop at n = 4.
        rep = analyze(parse(LATE_RUNS[1][0]), 1, max_rounds=1)
        assert not rep.stable and not rep.exact and rep.rounds == [(2, None)]


class TestI1:
    def test_fair_coin(self, m1_report):
        res = solve_i1(m1_report, ProbAssignment([F(1, 2)]))
        assert res.winners == ((2, 0),)
        assert res.probability == F(1, 4)
        assert res.value == pytest.approx(2 * math.log(2))

    def test_probability_matches_evaluation(self, m1_report):
        p = ProbAssignment([F(1, 3)])
        res = solve_i1(m1_report, p)
        from tropinf.algebra import Poly

        assert res.probability == eval_prob(
            monomial(res.winners[0]), p
        )

    def test_biased_towards_right(self, m1_report):
        res = solve_i1(m1_report, ProbAssignment([F(1, 10)]))
        assert res.winners == ((0, 3),)

    def test_tie_reports_both(self, m1_report):
        # (1-p)^3 = p^2 has no rational solution, so build a program with a
        # genuine tie instead: both selected monomials of the two-level tower
        # have weight p^2 = (1-p)^2 at p = 1/2.
        rep = analyze(load("m4_2"), 1)
        res = solve_i1(rep, ProbAssignment([F(1, 2)]))
        assert set(res.winners) == {(2, 0), (0, 2)}

    def test_degenerate_probabilities(self, m1_report):
        res0 = solve_i1(m1_report, ProbAssignment([F(0)]))
        assert res0.winners == ((0, 3),) and res0.probability == 1
        res1 = solve_i1(m1_report, ProbAssignment([F(1)]))
        assert res1.winners == ((2, 0),) and res1.probability == 1

    @pytest.mark.parametrize("q", [F(0), F(1)])
    def test_certain_winner_value_is_positive_zero(self, m1_report, q):
        res = solve_i1(m1_report, ProbAssignment([q]))
        assert res.probability == 1
        assert res.value == 0 and math.copysign(1, res.value) == 1

    def test_dimension_mismatch(self, m1_report):
        with pytest.raises(InferError):
            solve_i1(m1_report, ProbAssignment([F(1, 2), F(1, 2)]))


class TestI2:
    def test_region_golden(self, m1_report):
        res = solve_i2(m1_report, (0, 3))
        assert res.cone.rows == ((F(-2), F(3)),)

    def test_membership_exact(self, m1_report):
        res = solve_i2(m1_report, (0, 3))
        assert i2_contains(res, ProbAssignment([F(1, 4)]))
        assert not i2_contains(res, ProbAssignment([F(1, 2)]))
        other = solve_i2(m1_report, (2, 0))
        assert i2_contains(other, ProbAssignment([F(1, 2)]))
        assert not i2_contains(other, ProbAssignment([F(1, 4)]))

    def test_membership_boundary_float(self, m1_report):
        res = solve_i2(m1_report, (0, 3))
        # The boundary probability solves (1-p)^3 = p^2.
        lo, hi = 0.2, 0.5
        for _ in range(200):
            mid = (lo + hi) / 2
            if (1 - mid) ** 3 > mid**2:
                lo = mid
            else:
                hi = mid
        pstar = (lo + hi) / 2
        assert (1 - pstar) ** 3 == pytest.approx(pstar**2, rel=1e-12)
        assert res.cone.contains(zvec(pstar), slack=1e-12)
        assert res.cone.contains(zvec(0.25), slack=1e-12)
        assert not res.cone.contains(zvec(0.5), slack=1e-12)

    def test_degenerate_probabilities(self, m1_report):
        res = solve_i2(m1_report, (0, 3))
        # p = 0 makes the all-right trajectory certain.
        assert i2_contains(res, ProbAssignment([F(0)]))
        assert not i2_contains(res, ProbAssignment([F(1)]))

    def test_rational_rows_are_scaled_not_truncated(self):
        # (1/2, -1/2) and (1, -1) both say p >= 1/2.
        for row in ((F(1, 2), F(-1, 2)), (1, -1)):
            res = SelectedTrajectory((1, 0), ((1, 0),), HalfspaceSystem(2, (row,)), None)
            assert not i2_contains(res, ProbAssignment([F(1, 4)]))
            assert i2_contains(res, ProbAssignment([F(1, 2)]))
            assert i2_contains(res, ProbAssignment([F(3, 4)]))

    def test_monomial_not_selected(self, m1_report):
        with pytest.raises(InferError):
            solve_i2(m1_report, (9, 9))


class TestReportJson:
    def test_round_trip(self, m1_report):
        blob = report_to_json(m1_report)
        assert blob["schema"] == "tropinf-report/2"
        assert blob["target"] == 1
        assert len(blob["input_sha256"]) == 64
        back = report_from_json(blob)
        assert back.poly == m1_report.poly
        assert back.stable == m1_report.stable
        assert back.exact == m1_report.exact
        assert back.rounds == m1_report.rounds
        assert {s.monomial for s in back.selected} == {
            s.monomial for s in m1_report.selected
        }
        by_mono = {s.monomial: s for s in back.selected}
        for sel in m1_report.selected:
            other = by_mono[sel.monomial]
            assert other.word == sel.word
            assert other.cone.rows == sel.cone.rows

    def test_json_serializable(self, m1_report):
        import json

        json.dumps(report_to_json(m1_report))
