import contextlib
import dataclasses
import signal
from fractions import Fraction

import pytest

from tropinf import geometry, typesys
from tropinf.algebra import Poly, ProbAssignment, poly_to_text
from tropinf.geometry import np_min
from tropinf.infer import analyze, solve_i1
from tropinf.lang import (
    App,
    Choice,
    Fix,
    Lam,
    TypeCheckError,
    enumerate_trajectories,
    parse,
)
from tropinf.typesys import (
    Entry,
    TropJudgement,
    _rule_choice,
    _rule_ifz,
    _rule_lam,
    conclusion_poly,
    ctx_of,
    ctx_sum,
    iarrow,
    itype_to_text,
    merge,
    search,
    stabilize,
)

from conftest import (
    CHURCH,
    CORPUS_NAMES,
    LATE_RUNS,
    WIDE_MULTISETS,
    load,
    load_source,
    random_higher_order_program,
    random_lambda_argument_program,
    random_program,
)
from eval_reference import eval_prob, monomial
from hull_reference import winners


@contextlib.contextmanager
def alarm(seconds: int):
    """Fail the test with TimeoutError if the block runs longer than seconds."""

    def expired(signum, frame):
        raise TimeoutError(f"did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    except TimeoutError as exc:
        # The handler raises in whatever frame the alarm interrupts, and a
        # frame with no line number crashes pytest's failure report; a fresh
        # exception raised here carries a traceback pytest can print.
        raise TimeoutError(*exc.args) from None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestItypeText:
    def test_text(self):
        assert itype_to_text(3) == "3"
        assert itype_to_text(iarrow([0, 0], 1)) == "[0, 0] -o 1"
        assert itype_to_text(iarrow([], 1)) == "[] -o 1"


class TestMerge:
    def unit(self, mono, fixes=0):
        return Entry(ctx=(), itype=1, poly=monomial(mono), fixes=fixes)

    def test_same_key_summed(self):
        out = merge([self.unit((1, 0)), self.unit((0, 1))])
        assert len(out) == 1
        assert poly_to_text(out[0].poly) == "~X1 + X1"

    def test_fix_counts_kept_separate(self):
        a, b = self.unit((1, 0), fixes=0), self.unit((1, 0), fixes=1)
        assert len(merge([a, b])) == 2
        assert conclusion_poly(TropJudgement((a, b), 2), 1) == a.poly

    def test_dominated_monomial_dropped(self):
        out = merge([self.unit((1, 0)), self.unit((2, 1))])
        assert out[0].poly.support() == [(1, 0)]


def products(premises, n=1, fix=0):
    """The merged rows of `_Search._products` at bound n, and whether the
    pass is still certified after it."""
    bounded = typesys._Search(1, n, typesys.RowTable(load("m3")))
    rows = bounded._products(premises, fix)
    return rows, bounded.certified


class TestApplyRule:
    def test_choice_shifts_weight(self):
        unit = Entry((), 1, Poly.unit(2), 0)
        out = _rule_choice(1, [unit], [unit], dim=2, memo={})
        assert len(out) == 1
        assert out[0].poly.support() == [(0, 1), (1, 0)]

    def test_ifz_selects_on_scrutinee_atom(self):
        z = Entry((), 0, monomial((1, 0)), 0)
        nz = Entry((), 2, monomial((0, 1)), 0)
        then = Entry((), 1, Poly.unit(2), 0)
        orelse = Entry((), 0, Poly.unit(2), 0)
        premises = list(_rule_ifz([z, nz], [then], [orelse]))
        assert premises == [([z, then], 1), ([nz, orelse], 0)]
        out, certified = products(premises, n=0)
        got = {(e.itype, e.poly.support()[0]) for e in out}
        assert got == {(1, (1, 0)), (0, (0, 1))}
        assert certified

    def test_ifz_scrutinee_must_be_an_atom(self):
        fun = Entry((), iarrow([0], 1), Poly.unit(2), 0)
        with pytest.raises(typesys.TypesysError, match="non-atom"):
            list(_rule_ifz([fun], [], []))


class TestBetaRedexFlow:
    """A β-redex binder is typed at its argument's row types, however large
    the atoms."""

    @staticmethod
    def oracle(program, target):
        dim = 2 * max(program.params, 1)
        support = [
            t.monomial
            for t in enumerate_trajectories(program, 200)
            if t.normal_form == target
        ]
        return np_min(Poly(dim, support)) if support else Poly.zero(dim)

    def test_argument_above_the_atom_bound(self):
        # The scrutinee reduces to 4; the only run takes the else branch.
        program = parse(r"params 1; ifz (\v. succ v) 3 then (1 +[X1] 1) +[X1] 1 else 1")
        res = stabilize(program, 1)
        assert res.stable
        assert poly_to_text(res.poly) == "1"

    @pytest.mark.parametrize("j", range(5))
    @pytest.mark.parametrize("arg", range(5))
    def test_pred_tower_matches_enumeration(self, j, arg):
        scrutinee = "pred " * j + "x"
        program = parse(
            rf"params 2; (\x. ifz {scrutinee} then 1 +[X1] 0 else 0 +[X2] 1) {arg}"
        )
        for target in (0, 1):
            res = stabilize(program, target)
            assert res.stable
            assert res.poly == self.oracle(program, target), (target, res.poly)

    def test_rule_lam_drops_no_row(self):
        # Neither a large atom nor a wide multiset drops a row.
        above = Entry(ctx_of("x", 5), 5, Poly.unit(2), 0)
        twice = Entry(ctx_sum(ctx_of("x", 0), ctx_of("x", 0)), 0, Poly.unit(2), 0)
        out = _rule_lam("x", [above, twice])
        assert [(e.ctx, e.itype) for e in out] == [
            ((), iarrow([0, 0], 0)),
            ((), iarrow([5], 5)),
        ]


class TestFlow:
    """Every other binder is typed at the types of the arguments that reach
    it: a λ passed as an argument at those of its call sites, the f of
    fix (λf. M) at the current unfolding's, and a binder called through f at
    most n times."""

    oracle = staticmethod(TestBetaRedexFlow.oracle)

    def test_lambda_argument_above_the_atom_bound(self):
        program = parse(r"params 1; (\f. f 3) (\v. succ v)")
        res = stabilize(program, 4)
        assert res.stable
        assert poly_to_text(res.poly) == "1"

    def test_recursive_binder_above_the_atom_bound(self):
        program = parse(
            r"params 1; fix (\f. \x. ifz pred pred pred x then 1 "
            r"else (f (pred x)) +[X1] 0) 3"
        )
        res = stabilize(program, 1)
        assert res.stable
        assert poly_to_text(res.poly) == "1"

    def test_lambda_argument_called_through_a_redex(self):
        # v3 receives 3 only through the call v1 3.
        program = parse(
            r"params 3; succ ((\v1. pred ((\v2. v2 +[X2] v2) (v1 3))) "
            r"(\v3. ifz (v3 +[X2] 2) then (pred 2) else (0 +[X1] 1)))"
        )
        res = stabilize(program, 1)
        assert res.stable
        assert res.poly == self.oracle(program, 1)
        assert poly_to_text(res.poly) == (
            "~X1*~X2^2 + ~X1*X2^2 + X1*~X2^2 + X1*X2^2"
        )

    def test_growing_recursive_argument_stops_at_n(self):
        # x takes 1, 2, 3, ...: each one more call through f costs one more
        # unfolding, so a round types x at n + 1 atoms at most.
        program = parse(
            r"params 1; fix (\f. \x. ifz x then 0 else (0 +[X1] f (succ x))) 1"
        )
        res = stabilize(program, 0)
        assert res.stable
        assert poly_to_text(res.poly) == "X1"
        table = typesys.RowTable(program)
        lam_x = table.tt.children[0].children[0].children[0]
        for n in (1, 2, 3):
            search(program, n, table=table)
            costs = table.reach[id(lam_x)]
            assert sorted(a for a, c in costs.items() if c <= n) == list(
                range(1, n + 2)
            )

    def test_closure_passed_through_recursion_stops_at_n(self):
        # Each unfolding wraps g in one more closure \y. g (succ y); 0-CFA
        # merges those closures into one λ whose call of g reaches that λ
        # again, and only the unfolding cost of what f passes stops y from
        # taking 1, 2, 3, ...
        program = parse(
            r"params 1; fix (\f. \g. \x. ifz x then g x "
            r"else f (\y. g (succ y)) (pred x)) (\z. z +[X1] 0) 3"
        )
        for target in (0, 3):
            judgement = search(program, 6)
            assert conclusion_poly(judgement, target) == self.oracle(program, target)

    def test_towers_take_one_type_per_binder(self):
        # Each λ passed along m4_3's tower is called at one type.
        table = typesys.RowTable(load("m4_3"))
        for n in (1, 2):
            search(load("m4_3"), n, table=table)
        assert len(table.reach) == 2
        assert all(len(costs) == 1 for costs in table.reach.values())

    @pytest.mark.parametrize(
        "source, target",
        [
            (r"params 1; (\k. fix k) (\x. 0 +[X1] succ x)", 2),
            (r"params 1; fix ((\a. \f. \x. ifz x then a else f (pred x)) 1) 2", 1),
        ],
    )
    def test_fix_of_a_term_that_is_not_a_lambda(self, source, target):
        # The λ that fix applies is reached by flow, not by syntax; its binder
        # takes the rows of the fix node itself.
        program = parse(source)
        judgement = search(program, 4)
        assert conclusion_poly(judgement, target) == self.oracle(program, target)

    def test_m4_4_round_three(self):
        judgement = search(load("m4_4"), 3)
        assert poly_to_text(conclusion_poly(judgement, 1)) == "~X1^4 + X1^4"

    def test_lambda_arguments_match_the_best_run(self, rng):
        failures = []
        for _ in range(40):
            program = random_lambda_argument_program(rng)
            trajs = list(enumerate_trajectories(program, 400))
            assert all(t.normal_form is not None for t in trajs)
            for target in (0, 1):
                report = analyze(program, target)
                runs = [t.monomial for t in trajs if t.normal_form == target]
                if not runs:
                    if not report.poly.is_zero():
                        failures.append((program, target, report.poly))
                    continue
                for ps in ((Fraction(1, 2),) * 2, (Fraction(1, 3), Fraction(4, 5))):
                    point = ProbAssignment(ps)
                    best = max(eval_prob(Poly(2 * point.k, [mu]), point) for mu in runs)
                    got = solve_i1(report, point).probability
                    if got != best:
                        failures.append((program, target, ps, got, best))
        assert failures == []


# Fix-free programs that call a λ from inside its own body: 0-CFA merges the
# closures of \x. f (f x) built with f = the successor and with f = that
# closure, so x's own results reach x.  Uncharged, no bound stopped them.
SELF_CALLS = [
    (r"params 1; (\t. t (t (\y. succ y)) 0) (\f. \x. f (f x))", 4),
    (r"params 2; (\d. d (d (\z. z +[X2] succ z))) (\h. \x. h (h x)) 0", 2),
]


class TestChargedCalls:
    """A call of a λ from inside its own body costs one unfolding, as a call
    through a fixpoint binder does, so every fix-free program finishes."""

    @pytest.mark.parametrize("source, target", SELF_CALLS)
    def test_stabilize_finishes(self, source, target):
        with alarm(20):
            res = stabilize(parse(source), target)
        # A charged call makes n matter: the rounds grow n until it changes
        # nothing.
        assert res.stable and not res.exact
        assert res.rounds == [1, 2]

    @pytest.mark.parametrize("source, target", SELF_CALLS)
    def test_unbounded_p_matches_enumeration(self, source, target):
        # No multiset bound stops the search short of the enumerated answer.
        program = parse(source)
        oracle = TestBetaRedexFlow.oracle(program, target)
        assert poly_to_text(oracle) in ("1", "X2^2*~X2^2")
        with alarm(20):
            assert stabilize(program, target).poly == oracle

    def test_self_call_is_charged(self):
        program = parse(SELF_CALLS[0][0])
        table = typesys.RowTable(program)
        steps = {step for feeds in table.sources.values() for _, step in feeds}
        assert steps == {0, 1}
        # The charged call makes a type reach a binder at a cost of 2, so
        # round n = 1 is not exact.
        assert not search(program, 1, table=table).exact
        assert max(c for costs in table.reach.values() for c in costs.values()) == 2


class TestNoMultisetBound:
    """A program with no Fix node and no charged call is typed in one exact
    round, with multisets as wide as its runs need."""

    @pytest.mark.parametrize("source, target, text", WIDE_MULTISETS)
    def test_wide_multisets_match_enumeration(self, source, target, text):
        program = parse(source)
        with alarm(20):
            res = stabilize(program, target)
        assert res.stable and res.exact and res.rounds == [1]
        assert res.poly == TestBetaRedexFlow.oracle(program, target)
        assert poly_to_text(res.poly) == text

    @pytest.mark.parametrize("m, n, target, text", [
        (2, 2, 1, "X1^3*~X1"),
        (3, 2, 2, "X1^6*~X1^2"),
    ])
    def test_numerals_applied_to_numerals(self, m, n, target, text):
        # With no multiset bound the search takes time exponential in the
        # number of steps: on a shared 2-vCPU VM c2 c2 (4 steps) takes
        # 0.05 s, c3 c2 (8 steps) 1.7 s and c2 c3 (9 steps, left out for
        # the suite's time) 7.8 s.  The alarm makes a slowdown fail here
        # instead of at the CI job's timeout.
        program = parse(rf"params 2; ({CHURCH[m]} {CHURCH[n]}) (\y. y +[X1] succ y) 0")
        with alarm(30):
            res = stabilize(program, target)
        assert res.stable and not res.exact
        assert res.poly == TestBetaRedexFlow.oracle(program, target)
        assert poly_to_text(res.poly) == text

    def test_higher_order_programs_are_sound_and_minimally_complete(self, rng):
        # Support within the enumerated one; an exact result is exactly the
        # enumerated monomials that are the strict minimum for some weight.
        # Minimization keeps the lower hull, which does not depend on where
        # it runs.
        failures = []
        with alarm(60):
            for _ in range(100):
                program = random_higher_order_program(rng)
                trajs = list(enumerate_trajectories(program, 2000))
                assert all(t.normal_form is not None for t in trajs), program
                for target in (0, 1, 2):
                    res = stabilize(program, target)
                    support = {t.monomial for t in trajs if t.normal_form == target}
                    got = set(res.poly.coeffs)
                    if not (res.stable and got <= support):
                        failures.append((program, target, res.poly))
                    elif res.exact and winners(support) != got:
                        failures.append((program, target, res.poly, winners(support)))
        assert failures == []


class TestCtx:
    def test_ctx_sum_merges_multisets(self):
        a = (("x", (0,)),)
        b = (("x", (0, 1)), ("y", (1,)))
        out = ctx_sum(a, b)
        d = dict(out)
        assert d["x"] == (0, 0, 1)
        assert d["y"] == (1,)

    def test_ctx_sum_of_at_most_one_context(self):
        # Contexts are canonical, so a lone non-empty one is its own sum.
        a = (("x", (0, 1)), ("y", (1,)))
        assert ctx_sum() == ()
        assert ctx_sum((), ()) == ()
        assert ctx_sum((), a, ()) is a

    def test_merge_of_at_most_one_row(self):
        row = Entry(ctx_of("x", 1), 1, Poly.unit(2), 0)
        assert merge([]) == []
        assert merge([row]) == [row]


class TestSearchGoldens:
    def test_loop_small_budget(self):
        judgement = search(parse(load_source("m3")), n=1)
        assert poly_to_text(conclusion_poly(judgement, 1)) == "~X1"

    def test_three_choice_program(self):
        judgement = search(load("m1"), n=1)
        assert poly_to_text(conclusion_poly(judgement, 1)) == "~X1^3 + X1^2"
        assert poly_to_text(conclusion_poly(judgement, 0)) == "X1*~X1"

    def test_duplicating_towers(self):
        for height in (2, 3, 4):
            judgement = search(load(f"m4_{height}"), n=1)
            assert conclusion_poly(judgement, 1).support() == [
                (0, height),
                (height, 0),
            ]

    def test_conclusion_matches_enumeration(self):
        for name, budget in (("m1", 40), ("m4_2", 40), ("tower2", 60)):
            program = load(name)
            judgement = search(program, n=2)
            trajs = [
                t
                for t in enumerate_trajectories(program, budget)
                if t.normal_form is not None and t.normal_form == 1
            ]
            dim = 2 * max(program.params, 1)
            oracle = np_min(Poly(dim, [t.monomial for t in trajs]))
            assert conclusion_poly(judgement, 1) == oracle

    def test_arrow_program_rejected(self):
        with pytest.raises(TypeCheckError):
            search(parse(r"\x. x +[X1] succ x"), n=1)


class TestStabilize:
    def test_goldens(self):
        expect = {
            ("m1", 1): "~X1^3 + X1^2",
            ("m1", 0): "X1*~X1",
            ("m3", 1): "~X1",
            ("m4_2", 1): "~X1^2 + X1^2",
            ("m4_3", 1): "~X1^3 + X1^3",
            ("tower2", 1): "~X1*X3 + X1*X2",
        }
        for (name, target), text in expect.items():
            res = stabilize(load(name), target)
            assert res.stable and res.exact, (name, target)
            # m3 has fix, and the dominance certificate settles its first
            # round; every other program here is typed in one exact round.
            assert res.rounds == ([2] if name == "m3" else [1])
            assert poly_to_text(res.poly) == text

    def test_recursive_sampler(self):
        # Every row that n = 2 drops is dominated by a kept one, so the
        # certificate ends the search without a confirming round n = 3.
        res = stabilize(load("m2"), 1)
        assert res.stable and res.exact and res.rounds == [2]
        assert poly_to_text(res.poly) == (
            "~X1*~X3*~X5 + ~X1*X3*~X4 + ~X1*~X2*X3*X4*~X5"
            " + X1*~X2*~X5 + X1*~X2*X3*~X4*X5 + X1*X2*~X4"
        )

    def test_wide_multiset_typed_in_one_exact_round(self):
        # The target is only reachable with multisets of size 2, which the
        # one exact round of this fix-free program types.
        from tropinf.lang import App, Choice, Ifz, Lam, Num, Program, Succ, Var

        prog = Program(
            Succ(
                App(
                    Lam("v", Ifz(Var("v"), Var("v"), Var("v"))),
                    Choice(2, Num(1), Num(0)),
                )
            ),
            2,
        )
        res = stabilize(prog, 1)
        assert res.stable
        assert res.poly.support() == [(0, 0, 0, 2), (0, 0, 1, 1)]

    @pytest.mark.parametrize("source, target, text", LATE_RUNS)
    def test_run_that_needs_n_3(self, source, target, text):
        # n = 1 and n = 2 agree; a program with fix starts at n = 2, and
        # n = 3 adds the run.  The dominance certificate settles the first
        # program at n = 3 and the second at n = 4.
        rounds = {LATE_RUNS[0][0]: [2, 3], LATE_RUNS[1][0]: [2, 3, 4]}[source]
        program = parse(source)
        res = stabilize(program, target)
        assert res.stable and res.exact and res.rounds == rounds
        assert res.poly == TestBetaRedexFlow.oracle(program, target)
        assert poly_to_text(res.poly) == text

    def test_budget_exhaustion_reported(self):
        # The certificate first settles this loop at n = 4.
        res = stabilize(parse(LATE_RUNS[1][0]), 1, max_rounds=1)
        assert not res.stable and res.rounds == [2]

    @pytest.mark.parametrize("bounds", [{"window": 0}, {"max_rounds": 0}, {"window": -3}])
    def test_bounds_below_one_rejected(self, bounds):
        with pytest.raises(ValueError, match="at least 1"):
            stabilize(load("m1"), 1, **bounds)

    def test_result_keeps_the_last_root_merge(self):
        # The polynomial is the root merge of the last round's search.
        for name in ("m2", "m4_3"):
            program = load(name)
            res = stabilize(program, 1)
            assert res.poly == conclusion_poly(search(program, res.rounds[-1]), 1)

    def test_random_programs_match_enumeration(self, rng):
        for _ in range(15):
            program = random_program(rng, max_nodes=10)
            trajs = list(enumerate_trajectories(program, 60))
            if any(t.normal_form is None for t in trajs):
                continue
            res = stabilize(program, 1)
            if not res.stable:
                continue
            dim = 2 * max(program.params, 1)
            support = [t.monomial for t in trajs if t.normal_form == 1]
            if support:
                oracle = np_min(Poly(dim, support))
            else:
                oracle = Poly.zero(dim)
            assert res.poly == oracle, program


# Recursive programs, with a target, the window's answer and rounds, that the
# dominance certificate settles at no round: a countdown from 3, the
# window-fooling loop, whose polynomial holds still from n = 3 to n = 6, and
# the two self-calling programs.  The first two answers are short of the
# enumerated ones; they are pinned so that a change to them is made on
# purpose.
UNCERTIFIED = [
    (r"params 1; (fix (\f. \x. ifz x then succ x else f (pred x))) 3", 1, "0", [2, 3]),
    (r"params 2; fix (\x. (pred (x +[X1] 1)) +[X2] (succ (ifz x then 2 else x)))", 2,
     "X1*~X1*X2^2*~X2", [2, 3, 4]),
    (SELF_CALLS[0][0], 4, "1", [1, 2]),
    (SELF_CALLS[1][0], 2, "X2^2*~X2^2", [1, 2]),
]


class TestDominanceCertificate:
    """A round whose every dropped combination is dominated by a kept row
    with its context and type, and whose binders take no type costing more
    than n, has the polynomial of the whole family at every target."""

    def test_dominated_drop_keeps_the_pass_certified(self):
        # At n = 1 the scrutinee's fixpoint use and the second branch row's
        # make two; the dropped product X1*~X1^2 lies above the kept X1*~X1.
        s = Entry((), 0, monomial((1, 0)), 1)
        kept = Entry((), 1, monomial((0, 1)), 0)
        drop = Entry((), 1, monomial((0, 2)), 1)
        rows, certified = products(_rule_ifz([s], [kept, drop], []))
        assert [(e.fixes, e.poly.support()) for e in rows] == [(1, [(1, 1)])]
        assert certified

    def test_undominated_drop_ends_the_certificate(self):
        # The dropped product X1 lies below the kept X1*~X1.
        s = Entry((), 0, monomial((1, 0)), 1)
        kept = Entry((), 1, monomial((0, 1)), 0)
        drop = Entry((), 1, Poly.unit(2), 1)
        rows, certified = products(_rule_ifz([s], [kept, drop], []))
        assert [(e.fixes, e.poly.support()) for e in rows] == [(1, [(1, 1)])]
        assert not certified

    def test_drop_of_another_type_ends_the_certificate(self):
        s = Entry((), 0, monomial((1, 0)), 1)
        kept = Entry((), 1, monomial((0, 1)), 0)
        drop = Entry((), 2, monomial((0, 2)), 1)
        rows, certified = products(_rule_ifz([s], [kept, drop], []))
        assert [(e.itype, e.fixes) for e in rows] == [(1, 1)]
        assert not certified

    def test_unfolding_counts_one_more_use(self, monkeypatch):
        # With fix = 1 the premise costs 2 at n = 1: it is dropped, with no
        # kept row above it, and an uncertified pass computes no product of
        # what it drops.
        s = Entry((), 0, monomial((1, 0)), 1)
        kept = Entry((), 1, monomial((0, 1)), 0)
        rows, certified = products(_rule_ifz([s], [kept], []))
        assert [(e.fixes, e.poly.support()) for e in rows] == [(1, [(1, 1)])]
        assert certified
        assert products(_rule_ifz([s], [kept], []), fix=1) == ([], False)
        bounded = typesys._Search(1, 1, typesys.RowTable(load("m3")))
        bounded.certified = False
        calls = []
        real = typesys._combine
        monkeypatch.setattr(
            typesys, "_combine", lambda *args: calls.append(args) or real(*args)
        )
        assert bounded._products(_rule_ifz([s], [kept], []), 1) == []
        assert calls == [] and not bounded.certified

    def test_fix_free_programs_without_a_charged_call_are_exact_at_once(self, rng):
        # With no Fix node and no charged call nothing is dropped and every
        # type costs 0, so the certificate holds at n = 1.
        drawn = 0
        with alarm(60):
            for i in range(80):
                if i % 2:
                    program = random_higher_order_program(rng)
                    table = typesys.RowTable(program)
                    if any(step for feeds in table.sources.values() for _, step in feeds):
                        continue
                else:
                    program = random_program(rng, max_nodes=14)
                drawn += 1
                for target in (0, 1, 2):
                    res = stabilize(program, target)
                    assert res.exact and res.rounds == [1], (program, target)
        assert drawn >= 60

    @pytest.mark.parametrize("source, target, text, rounds", UNCERTIFIED)
    def test_uncertified_programs_keep_the_window(self, source, target, text, rounds):
        with alarm(20):
            res = stabilize(parse(source), target)
        assert res.stable and not res.exact and res.rounds == rounds
        assert poly_to_text(res.poly) == text

    def test_certified_round_is_the_whole_family(self, rng):
        # Whenever a round n > 1 is certified, the next three rounds give the
        # same polynomial, and so does enumeration wherever every run ends
        # within its budget.
        certified = enumerated = 0
        with alarm(120):
            for i in range(80):
                if i % 2:
                    program = random_higher_order_program(rng)
                else:
                    program = random_program(rng, max_nodes=18, fix=True)
                trajs = list(enumerate_trajectories(program, 40))
                ended = all(t.normal_form is not None for t in trajs)
                dim = 2 * program.params
                for target in (0, 1, 2):
                    res = stabilize(program, target)
                    n = res.rounds[-1]
                    if not (res.exact and n > 1):
                        continue
                    certified += 1
                    for later in range(n + 1, n + 4):
                        judgement = search(program, later)
                        assert conclusion_poly(judgement, target) == res.poly, (
                            program, target, later)
                    if ended:
                        enumerated += 1
                        support = [t.monomial for t in trajs if t.normal_form == target]
                        oracle = np_min(Poly(dim, support)) if support else Poly.zero(dim)
                        assert res.poly == oracle, (program, target)
        assert certified >= 60 and enumerated >= 30


class TestRowTable:
    """The rounds of one stabilize share one annotation and the rows of every
    plain subterm, one holding neither a Fix node nor a flow λ; the rows they
    give equal those of fresh searches."""

    def test_rows_are_frozen(self):
        # A NamedTuple field refuses assignment with AttributeError, the base
        # class of dataclasses.FrozenInstanceError.
        row = Entry((), 1, Poly.unit(2), 0)
        with pytest.raises(AttributeError):
            row.fixes = 1
        assert row.fixes == 0

    def test_judgements_are_frozen(self):
        judgement = search(load("m1"), 1)
        assert isinstance(judgement.entries, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            judgement.entries = ()

    @staticmethod
    def rounds(monkeypatch, program, counters=()):
        """Run stabilize and return, for each round,
        (n, judgement, counts) where counts holds the calls of each function
        named in counters during that round."""
        out, counts = [], dict.fromkeys(counters, 0)
        for name in counters:
            def counted(*args, _real=getattr(typesys, name), _name=name):
                counts[_name] += 1
                return _real(*args)
            monkeypatch.setattr(typesys, name, counted)
        real_search = search

        def recording(program, n, table=None):
            counts.update(dict.fromkeys(counters, 0))
            judgement = real_search(program, n, table=table)
            out.append((n, judgement, dict(counts)))
            return judgement

        monkeypatch.setattr(typesys, "search", recording)
        stabilize(program, 1, max_rounds=6)
        monkeypatch.undo()
        return out

    @staticmethod
    def rows(judgement):
        return [(e.ctx, e.itype, e.fixes, e.poly) for e in judgement.entries]

    def assert_rounds_match_fresh_searches(self, monkeypatch, program):
        rounds = self.rounds(monkeypatch, program)
        assert rounds
        for n, judgement, _ in rounds:
            fresh = search(program, n)
            assert self.rows(judgement) == self.rows(fresh), (program, n)
        return rounds

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_corpus_rounds_match_fresh_searches(self, monkeypatch, name):
        self.assert_rounds_match_fresh_searches(monkeypatch, load(name))

    # The argument's row types grow with n (0 at n = 1, 0 and 1 at n = 2).
    REDEX_OVER_FIX = (
        r"params 2; (\y. ifz pred y then 0 +[X2] 1 else 1) (fix (\x. 0 +[X1] succ x))"
    )

    def test_redex_over_a_recursive_argument(self, monkeypatch):
        # The subterms that mention y are typed again at every n.
        self.assert_rounds_match_fresh_searches(monkeypatch, parse(self.REDEX_OVER_FIX))

    def test_subterm_without_the_binder_is_kept_across_n(self, monkeypatch):
        # Neither 0 +[X2] 1 nor 1 mentions y, so their rows are keyed without
        # y and found again in round 2.
        program = parse(self.REDEX_OVER_FIX)
        built = []
        real = typesys._Search._rule

        def recording(self, tt, env):
            if isinstance(tt.term, Choice) and tt.term.param == 2:
                built.append(self.n)
            return real(self, tt, env)

        monkeypatch.setattr(typesys._Search, "_rule", recording)
        rounds = stabilize(program, 1).rounds
        assert rounds[:2] == [2, 3]
        assert built == [2]

    @pytest.mark.parametrize("kind", ["fix-free", "recursive", "lambda-argument"])
    def test_random_rounds_match_fresh_searches(self, monkeypatch, rng, kind):
        for _ in range(20):
            if kind == "lambda-argument":
                program = random_lambda_argument_program(rng)
            else:
                fix = kind == "recursive"
                program = random_program(rng, max_nodes=18 if fix else 14, fix=fix)
            self.assert_rounds_match_fresh_searches(monkeypatch, program)

    def test_annotate_once_per_stabilize(self, monkeypatch):
        calls = []
        real = typesys.annotate
        monkeypatch.setattr(typesys, "annotate", lambda t: calls.append(t) or real(t))
        program = parse(LATE_RUNS[1][0])
        assert len(stabilize(program, 1).rounds) == 3
        assert len(calls) == 1
        search(program, 1)
        assert len(calls) == 2

    @pytest.mark.parametrize("name, has_fix", [("m2", True), ("m4_3", False)])
    def test_plain_subterms(self, name, has_fix):
        # A subterm is plain unless it holds a Fix node or a flow λ: a λ
        # that is not the function of an application.
        table = typesys.RowTable(load(name))
        plain, other = set(), set()

        def walk(tt, applied):
            term = tt.term
            held = isinstance(term, Fix) or isinstance(term, Lam) and not applied
            for i, child in enumerate(tt.children):
                held = walk(child, isinstance(term, App) and i == 0) or held
            (other if held else plain).add(id(tt))
            return held

        walk(table.tt, False)
        assert plain and other
        assert table.plain == plain
        assert table.has_fix is has_fix

    def test_plain_program_repeats_no_rule(self, monkeypatch):
        # Every subterm of tower2 is plain: a second search on its table
        # finds every row of the first.
        program = load("tower2")
        table = typesys.RowTable(program)
        counts = dict.fromkeys(["_combine", "merge"], 0)
        for name in counts:
            def counted(*args, _real=getattr(typesys, name), _name=name):
                counts[_name] += 1
                return _real(*args)
            monkeypatch.setattr(typesys, name, counted)
        first = search(program, 1, table=table)
        assert counts["_combine"] > 0
        counts.update(dict.fromkeys(counts, 0))
        again = search(program, 2, table=table)
        assert counts == {"_combine": 0, "merge": 0}
        assert self.rows(again) == self.rows(first)

    @pytest.mark.parametrize(
        "source, has_fix, charged, exact, rounds",
        [
            (load_source("m4_3"), False, False, True, [1]),
            (load_source("m3"), True, False, True, [2]),
            (SELF_CALLS[0][0], False, True, False, [1, 2]),
        ],
        ids=["m4_3", "m3", "charged-call"],
    )
    def test_round_that_n_cannot_change(self, source, has_fix, charged, exact, rounds):
        # m4_3 has neither fix nor a charged call, so no n changes its rows,
        # the certificate holds at n = 1 and stabilize runs one round.  m3
        # has fix, and the dominance certificate settles its first round;
        # the first self-calling program has a charged call, and the
        # certificate settles no round.
        program = parse(source)
        table = typesys.RowTable(program)
        assert table.has_fix is has_fix
        assert any(step for feeds in table.sources.values() for _, step in feeds) is charged
        if not (has_fix or charged):
            assert self.rows(search(program, 1)) == self.rows(search(program, 4))
        with alarm(20):
            res = stabilize(program, 1)
        assert res.exact is exact
        assert res.rounds == rounds

    def test_recursive_program_rebuilds_only_the_unfolding(self, monkeypatch):
        # The plain subterms under fix are reused when n grows; the
        # unfolding is redone.
        # The certificate settles this program at n = 3, not at n = 2.
        rounds = self.rounds(monkeypatch, parse(LATE_RUNS[0][0]), ["_combine"])
        combine = {n: c["_combine"] for n, _, c in rounds}
        assert 0 < combine[3] < combine[2]


class TestPolyMemo:
    """One stabilize minimizes each distinct product and sum once, and every
    product, sum and shift its memo hands out is the direct one."""

    def assert_each_input_minimized_once(self, monkeypatch, program):
        inputs = {"vn": [], "np_min": []}
        for name in inputs:
            def recording(*args, _real=getattr(typesys, name), _name=name):
                inputs[_name].append(args[0] if _name == "np_min" else tuple(args[0]))
                return _real(*args)
            monkeypatch.setattr(typesys, name, recording)
        tables = []

        class Recorded(typesys.RowTable):
            def __init__(self, program):
                super().__init__(program)
                tables.append(self)

        monkeypatch.setattr(typesys, "RowTable", Recorded)
        stabilize(program, 1)
        monkeypatch.undo()
        for name, seen in inputs.items():
            assert len(set(seen)) == len(seen), (name, program)
        (table,) = tables
        dim = 2 * program.params
        for key, result in table.memo.items():
            if key[0] == "*":
                assert result == geometry.vn(list(key[1])), (key, program)
            elif key[0] == "+":
                union = frozenset().union(*(s.coeffs for s in key[1]))
                assert result == geometry.np_min(Poly(dim, union)), (key, program)
            else:
                poly, param, bit = key
                shift = [0] * dim
                shift[2 * (param - 1) + bit] = 1
                assert result == poly.shift(tuple(shift)), (key, program)

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_corpus(self, monkeypatch, name):
        self.assert_each_input_minimized_once(monkeypatch, load(name))

    @pytest.mark.parametrize("fix", [False, True], ids=["fix-free", "recursive"])
    def test_random_programs(self, monkeypatch, rng, fix):
        for _ in range(20):
            program = random_program(rng, max_nodes=18 if fix else 14, fix=fix)
            self.assert_each_input_minimized_once(monkeypatch, program)


class TestMinimizedRows:
    """Every row polynomial is minimized, the invariant that lets `_combine`
    translate a product by its single-monomial factors instead of taking a
    hull; every product it returns is `vn` of all its factors, units and
    single monomials included."""

    @staticmethod
    def assert_rows_minimized(monkeypatch, program) -> list:
        """Search program at n = 1..3 on one table, check every row and
        product, and return the factor supports of every product."""
        products = []
        real = typesys._combine

        def recording(entries, itype, fixes, memo):
            row = real(entries, itype, fixes, memo)
            products.append(([e.poly for e in entries], row.poly))
            return row

        monkeypatch.setattr(typesys, "_combine", recording)
        table = typesys.RowTable(program)
        for n in (1, 2, 3):
            with alarm(20):
                judgement = search(program, n, table=table)
            for e in judgement.entries:
                assert np_min(e.poly) == e.poly, (program, n, e)
        monkeypatch.undo()
        for factors, poly in products:
            assert poly == geometry.vn(factors), (program, factors)
        return [[len(s.coeffs) for s in factors] for factors, _ in products]

    @staticmethod
    def shapes(sizes) -> set:
        """The paths of `_combine` that products of these factor sizes take."""
        out = set()
        for factor_sizes in sizes:
            many = sum(size > 1 for size in factor_sizes)
            out.add("hull" if many > 1 else "translate" if many else "monomial")
        return out

    def test_corpus(self, monkeypatch):
        sizes = []
        for name in CORPUS_NAMES:
            sizes += self.assert_rows_minimized(monkeypatch, load(name))
        # m2, m4_2, m4_3 and m4_4 multiply two factors of several monomials.
        assert self.shapes(sizes) == {"hull", "translate", "monomial"}

    def test_random_programs(self, monkeypatch, rng):
        sizes = []
        for kind in ["fix-free", "recursive", "higher-order"]:
            for _ in range(30):
                if kind == "higher-order":
                    program = random_higher_order_program(rng)
                else:
                    fix = kind == "recursive"
                    program = random_program(rng, max_nodes=18 if fix else 14, fix=fix)
                sizes += self.assert_rows_minimized(monkeypatch, program)
        # Fix-free draws seldom translate; recursive ones do in most draws.
        assert "translate" in self.shapes(sizes)


class TestUnfoldingReuse:
    """An unfolding of fix M reuses the previous one's rows of M while no
    flow λ inside M has grown since they were built."""

    @staticmethod
    def counts(monkeypatch, program, n) -> dict:
        """The builds of the body M of every fix M, and the unfoldings, in
        one search at n."""
        table = typesys.RowTable(program)
        bodies = set()

        def walk(tt):
            if isinstance(tt.term, Fix):
                bodies.add(id(tt.children[0]))
            for child in tt.children:
                walk(child)

        walk(table.tt)
        counts = {"builds": 0, "unfoldings": 0}
        real_build, real_products = typesys._Search.build, typesys._Search._products

        def build(self, tt, env):
            counts["builds"] += id(tt) in bodies
            return real_build(self, tt, env)

        def products(self, premises, fix=0):
            counts["unfoldings"] += fix
            return real_products(self, premises, fix)

        monkeypatch.setattr(typesys._Search, "build", build)
        monkeypatch.setattr(typesys._Search, "_products", products)
        with alarm(20):
            search(program, n, table=table)
        monkeypatch.undo()
        return counts

    def test_m2_builds_its_fix_body_twice(self, monkeypatch):
        # The second unfolding feeds no new pair, so the third reuses the
        # second's rows of the body.
        assert self.counts(monkeypatch, load("m2"), 2) == {"builds": 2, "unfoldings": 3}

    @pytest.mark.parametrize("source, target, text", LATE_RUNS)
    def test_growing_binders_rebuild_every_unfolding(self, monkeypatch, source, target, text):
        # Each unfolding hands the binders a type they did not have, so every
        # unfolding builds the body again, and the answers stand.
        program = parse(source)
        for n in (1, 2, 3, 4):
            counts = self.counts(monkeypatch, program, n)
            assert counts["builds"] == counts["unfoldings"] > 0, n
        with alarm(20):
            assert poly_to_text(stabilize(program, target).poly) == text
