from fractions import Fraction

import pytest

from conftest import load, random_program
from eval_reference import eval_prob
from replay_reference import replay_word
from tropinf.algebra import ProbAssignment, Poly
from tropinf.lang import (
    MAX_DEPTH,
    App,
    Arrow,
    BOOL,
    Choice,
    Fix,
    Ifz,
    Lam,
    NAT,
    ParseError,
    Succ,
    TypeCheckError,
    Var,
    Zero,
    enumerate_trajectories,
    find_word,
    find_words,
    numeral,
    numeral_value,
    parse,
    term_depth,
    term_to_text,
    type_check,
    type_to_text,
    word_monomial,
    word_to_text,
)


class TestParser:
    def test_numerals(self):
        assert parse("3").term == Succ(Succ(Succ(Zero())))
        assert numeral_value(parse("3").term) == 3

    def test_lambda_and_app(self):
        p = parse("(\\x. x) 0")
        assert p.term == App(Lam("x", Var("x")), Zero())

    def test_app_left_assoc(self):
        p = parse("(\\f. \\x. f x) (\\y. y) 1")
        assert isinstance(p.term, App)
        assert isinstance(p.term.fun, App)

    def test_choice_right_assoc(self):
        p = parse("0 +[X1] 1 +[X2] 2")
        t = p.term
        assert isinstance(t, Choice) and t.param == 1
        assert isinstance(t.right, Choice) and t.right.param == 2

    def test_bare_x_is_x1(self):
        assert parse("0 +[X] 1").term == Choice(1, Zero(), numeral(1))
        assert parse("0 +[X] 1").params == 1

    def test_params_decl(self):
        p = parse("params 3; 0 +[X2] 1")
        assert p.params == 3

    def test_params_inferred(self):
        assert parse("0 +[X2] 1").params == 2
        assert parse("42").params == 0

    def test_ifz(self):
        p = parse("ifz 0 then 1 else 2")
        assert isinstance(p.term, Ifz)

    def test_fix(self):
        assert parse("fix (\\x. x +[X1] 1)").term == Fix(
            Lam("x", Choice(1, Var("x"), numeral(1)))
        )

    def test_comments_and_whitespace(self):
        assert parse("# hello\n  1  # trailing\n").term == numeral(1)

    def test_errors(self):
        with pytest.raises(ParseError):
            parse("ifz 0 then 1 else")
        with pytest.raises(ParseError):
            parse("(1")
        with pytest.raises(ParseError):
            parse("x")  # unbound
        with pytest.raises(ParseError):
            parse("params 1; 0 +[X2] 1")  # undeclared parameter
        with pytest.raises(ParseError):
            parse("1 2 3 !")

    def test_nesting_limit(self):
        nested = "(" * MAX_DEPTH + "0" + ")" * MAX_DEPTH
        assert parse(nested).term == Zero()
        assert term_depth(parse(str(MAX_DEPTH - 1)).term) == MAX_DEPTH
        with pytest.raises(ParseError, match=f"limit of {MAX_DEPTH} levels at line 1, column"):
            parse("(" + nested + ")")
        with pytest.raises(ParseError, match=f"depth {MAX_DEPTH + 1} exceeds the limit"):
            parse(str(MAX_DEPTH))
        with pytest.raises(ParseError, match="nesting"):
            parse("succ " * MAX_DEPTH + "0")

    def test_roundtrip_through_text(self, rng):
        for _ in range(50):
            program = random_program(rng)
            assert parse(term_to_text(program.term)).term == program.term
        for name in ("m1", "m2", "m3", "m4_3"):
            term = load(name).term
            assert parse(term_to_text(term)).term == term


class TestTypeCheck:
    def test_numerals_overloaded(self):
        assert type_check(Zero()) == BOOL
        assert type_check(numeral(1)) == BOOL
        assert type_check(numeral(2)) == NAT

    def test_succ_casts_bool(self):
        # succ 0 is the numeral 1, so it stays overloaded as Bool; applying
        # succ to a non-numeral Bool expression casts up to Nat.
        assert type_check(parse("succ 0").term) == BOOL
        assert type_check(parse("succ (0 +[X1] 1)").term) == NAT
        assert type_check(parse("pred (0 +[X1] 1)").term) == NAT

    def test_goldens(self):
        assert type_check(load("m1").term) == BOOL
        assert type_check(load("m3").term) == BOOL
        assert type_check(load("m2").term) == BOOL
        assert type_to_text(type_check(load("m4_3").term)) == "Bool"

    def test_branch_join(self):
        # One Bool branch and one Nat branch join at Nat.
        assert type_check(parse("ifz 0 then 1 else 2").term) == NAT

    def test_identity_is_uninferable(self):
        with pytest.raises(TypeCheckError):
            type_check(parse("\\x. x").term)

    def test_arrow_type(self):
        ty = type_check(parse("\\x. succ (succ x)").term)
        assert ty == Arrow(BOOL, NAT) or ty == Arrow(NAT, NAT)

    def test_ill_typed(self):
        with pytest.raises(TypeCheckError):
            type_check(parse("(\\x. x x)").term)
        with pytest.raises(TypeCheckError):
            type_check(parse("succ (\\x. succ x)").term)
        with pytest.raises(TypeCheckError):
            type_check(parse("ifz (\\x. succ x) then 0 else 1").term)

    def test_fix_needs_endo(self):
        assert type_check(parse("fix (\\x. x +[X1] 1)").term) == BOOL

    def test_random_programs_type(self, rng):
        for _ in range(100):
            ty = type_check(random_program(rng).term)
            assert ty in (BOOL, NAT)


class TestReduce:
    def test_three_choice_trajectories(self):
        trs = enumerate_trajectories(load("m1"), 100)
        table = sorted((word_to_text(t.word), t.monomial, t.normal_form) for t in trs)
        assert table == [
            ("00", (2, 0), 1),
            ("01", (1, 1), 0),
            ("100", (2, 1), 1),
            ("101", (1, 2), 0),
            ("110", (1, 2), 0),
            ("111", (0, 3), 1),
        ]

    def test_mass_conservation(self):
        trs = enumerate_trajectories(load("m1"), 100)
        for p in (Fraction(1, 2), Fraction(2, 5)):
            total = sum(
                eval_prob(Poly.monomial(t.monomial), ProbAssignment([p])) for t in trs
            )
            assert total == 1

    def test_loop_hits_budget(self):
        trs = enumerate_trajectories(load("m3"), 50)
        finished = [t for t in trs if t.normal_form is not None]
        unfinished = [t for t in trs if t.normal_form is None]
        assert finished and unfinished
        assert all(t.normal_form == 1 for t in finished)
        # Weights are X1^n * ~X1.
        assert {t.monomial[1] for t in finished} == {1}

    def test_pred_succ(self):
        assert enumerate_trajectories(parse("pred 3"), 10)[0].normal_form == 2
        assert enumerate_trajectories(parse("pred 0"), 10)[0].normal_form == 0

    def test_mass_conservation_with_prefixes(self, rng):
        # Terminated weights plus unfinished prefix weights always sum to 1.
        for _ in range(30):
            program = random_program(rng)
            trs = enumerate_trajectories(program, 500)
            p = ProbAssignment([Fraction(1, 3), Fraction(2, 7)])
            total = sum(eval_prob(Poly.monomial(t.monomial), p) for t in trs)
            assert total == 1

    def test_word_matches_monomial(self, rng):
        for _ in range(30):
            program = random_program(rng)
            for t in enumerate_trajectories(program, 500):
                assert word_monomial(t.word, program.params) == t.monomial


class TestReplay:
    def test_replay_roundtrip(self, rng):
        for _ in range(30):
            program = random_program(rng)
            for t in enumerate_trajectories(program, 500):
                if t.normal_form is None:
                    continue
                nf, mono, _ = replay_word(program, t.word, 500)
                assert nf == t.normal_form and mono == t.monomial

    def test_replay_rejects_wrong_word(self):
        program = load("m1")
        nf, _, _ = replay_word(program, ((1, 0),), 100)
        assert nf is None

    def test_find_word(self):
        program = load("m1")
        assert find_word(program, 1, (2, 0), 100) == ((1, 0), (1, 0))
        # Two reductions share weight X ~X^2; the smaller word wins.
        assert find_word(program, 0, (1, 2), 100) == ((1, 1), (1, 0), (1, 1))
        assert find_word(program, 1, (3, 0), 100) is None

    @pytest.mark.parametrize("fix", [False, True])
    def test_find_words_is_find_word_per_monomial(self, rng, fix):
        # One search for all weights finds the same smallest words as one
        # search per weight, also when some weight has no run.
        found = 0
        for _ in range(40):
            program = random_program(rng, max_nodes=30, k=rng.randint(1, 3), fix=fix)
            monomials = {t.monomial for t in enumerate_trajectories(program, 16)}
            monomials.add(tuple(rng.randint(0, 2) for _ in range(2 * program.params)))
            for target in (0, 1):
                words = find_words(program, target, monomials, 60)
                single = {m: find_word(program, target, m, 60) for m in monomials}
                assert words == {m: w for m, w in single.items() if w is not None}, program
                found += len(words)
        assert found > 40
