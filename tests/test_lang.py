import dataclasses
import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

import annotate_reference
from conftest import (
    CORPUS,
    SEED,
    load,
    random_higher_order_program,
    random_lambda_argument_program,
    random_program,
    succ,
    term_depth,
    term_size,
)
from eval_reference import eval_prob, monomial
from replay_reference import (
    enumerate_by_substitution,
    find_word,
    find_words_by_substitution,
    map_numerals,
    replay_word,
    unary,
)
from tropinf import lang
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
    LangError,
    NAT,
    Num,
    ParseError,
    Succ,
    Term,
    TypeCheckError,
    Var,
    enumerate_trajectories,
    find_words,
    parse,
    term_to_text,
    type_check,
    type_to_text,
    word_monomial,
    word_to_text,
)
from tropinf.typesys import RowTable

# The exact message of every kind of front-end error, from parsing to the
# ground-type check of `RowTable`.  The inputs after "over a limit" used to
# exit through an int() error, be read as a number, or be built before they
# were rejected, and their messages are new; every other message is the one
# the parser and type checker gave before they became one pass.
# Type mismatches that print type variables are left out: their numbers
# come from a counter shared by every inference in the process.
ERRORS = {
    # The first name is a binder's, used outside its body.
    "unbound": (r"params 1; (\a. zeta) (beta +[X1] a)", ParseError,
                "unbound variable 'a'"),
    "undeclared": ("params 1; 0 +[X2] 1", ParseError,
                   "parameter X2 used but only 1 declared"),
    "bad-param": ("0 +[Y1] 1", ParseError, "bad parameter name 'Y1' at line 1, column 5"),
    "param-0": ("0 +[X0] 1", ParseError, "bad parameter name 'X0' at line 1, column 5"),
    "trailing": ("(1) )", ParseError, "trailing input at line 1, column 5: ')'"),
    "character": ("1 2 3 !", ParseError, "unexpected character '!' at line 1, column 7"),
    "source-nesting": ("(" * 101 + "0" + ")" * 101, ParseError,
                       "nesting deeper than the limit of 100 levels at line 1, column 101"),
    "tree-depth": ("\\f. f" + " 0" * 100, ParseError,
                   "term nesting depth 102 exceeds the limit of 100"),
    "expected-after-comment": ("ifz 0 then 1 1 # c", ParseError,
                               "expected 'else' at line 1, column 16, found ''"),
    "end-of-input": ("(1", ParseError, "expected ), found end of input"),
    "semicolon": ("params 1\n(0 +[X1] 1) 2\n", ParseError,
                  "expected ; at line 2, column 1, found '('"),
    # One declaration at most: neither the first nor the last one wins.
    "second-params": ("params 1; params 3; 0 +[X1] 1", ParseError,
                      "unexpected 'params' at line 1, column 11"),
    "second-params-fewer": ("params 3;\nparams 1; 0 +[X3] 1", ParseError,
                            "unexpected 'params' at line 2, column 1"),
    "mismatch": (r"(\m. ifz m 2 then fix m else 0) (\f. 0)", TypeCheckError,
                 "type mismatch: Bool vs Nat"),
    "recursive": (r"(\x. x x) (\y. y)", TypeCheckError,
                  "cannot infer a type (recursive constraint)"),
    "unconstrained": (r"fix (\x. x)", TypeCheckError,
                      "cannot infer a type (unconstrained variable)"),
    "arrow-program": (r"\x. succ x", TypeCheckError,
                      "program has an arrow type; a ground type is required"),
    # over a limit
    "literal-5000-digits": ("params 1; " + "9" * 5000, ParseError,
                            "numeral at line 1, column 11 has more than 640 digits"),
    "count-5000-digits": ("params " + "1" * 5000 + "; 0", ParseError,
                          "parameter count at line 1, column 8 has more than 640 digits"),
    "index-5000-digits": ("params 1; 0 +[X" + "1" * 5000 + "] 1", ParseError,
                          "parameter index at line 1, column 15 has more than 640 digits"),
    "count-over-limit": ("params 100000; 0 +[X1] 1", ParseError,
                         "parameter count 100000 at line 1, column 8 exceeds the limit "
                         "of 1000"),
    "index-over-limit": ("0 +[X1001] 1", ParseError,
                         "parameter index 1001 at line 1, column 5 exceeds the limit "
                         "of 1000"),
    "superscript-digit": ("params 1; \u00b2", ParseError,
                          "unexpected character '\u00b2' at line 1, column 11"),
    "arabic-digit": ("params 1; \u0663", ParseError,
                     "unexpected character '\u0663' at line 1, column 11"),
    "superscript-index": ("params 1; 0 +[X\u00b2] 1", ParseError,
                          "bad parameter name 'X\u00b2' at line 1, column 15"),
}


class TestParser:
    def test_numerals(self):
        # A numeral is one node, and succ of a literal is the next literal.
        assert parse("3").term == Num(3)
        assert parse("succ 2").term == parse("succ (succ (1))").term == Num(3)
        assert parse("pred 3").term == lang.Pred(Num(3))

    @pytest.mark.parametrize("source, value", [("100", 100), ("params 1; 2000000", 2000000)],
                             ids=["literal-100", "literal-2000000"])
    def test_large_literal(self, source, value):
        # A literal of any value within 640 digits is one node: it parses,
        # types and runs like a small one.
        program = parse(source)
        assert program.term == Num(value)
        assert RowTable(program).tt.ty == NAT
        assert [t.normal_form for t in enumerate_trajectories(program, 1)] == [value]

    def test_lambda_and_app(self):
        p = parse("(\\x. x) 0")
        assert p.term == App(Lam("x", Var("x")), Num(0))

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
        assert parse("0 +[X] 1").term == Choice(1, Num(0), Num(1))
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
            Lam("x", Choice(1, Var("x"), Num(1)))
        )

    def test_comments_and_whitespace(self):
        assert parse("# hello\n  1  # trailing\n").term == Num(1)

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

    @pytest.mark.parametrize("name", list(ERRORS))
    def test_error_message(self, name):
        source, error, message = ERRORS[name]
        with pytest.raises(error) as info:
            RowTable(parse(source))
        assert str(info.value) == message

    def test_literal_checked_before_it_is_built(self):
        # Its digits are counted, without leading zeros, before they are
        # converted; its value is not limited.  A literal built by succs
        # nests in the source, one level per succ, like parentheses.
        with pytest.raises(ParseError, match="line 1, column 11 has more than 640 digits"):
            parse("params 1; " + "9" * 5000)
        assert parse("params 1; " + "9" * 640).term == Num(int("9" * 640))
        assert parse("0" * 5000 + "5").term == Num(5)
        assert parse("params 0" + "0" * 5000 + "2; 0 +[X0" + "0" * 5000 + "2] 1").params == 2
        assert parse("succ " * MAX_DEPTH + "0").term == Num(MAX_DEPTH)
        with pytest.raises(ParseError, match=f"limit of {MAX_DEPTH} levels at line 1, column"):
            parse("succ " * (MAX_DEPTH + 1) + "0")

    def test_nesting_limit(self):
        nested = "(" * MAX_DEPTH + "0" + ")" * MAX_DEPTH
        assert parse(nested).term == Num(0)
        with pytest.raises(ParseError, match=f"limit of {MAX_DEPTH} levels at line 1, column"):
            parse("(" + nested + ")")
        # A numeral is one node of the tree, however it is written.
        assert term_depth(parse(str(10**6)).term) == 1
        assert term_depth(parse("succ " * MAX_DEPTH + "0").term) == 1
        with pytest.raises(ParseError, match="nesting"):
            parse("succ " * (MAX_DEPTH + 1) + "0")
        # Applications nest in the tree, not in the source.
        assert term_depth(parse("\\f. f" + " 0" * (MAX_DEPTH - 2)).term) == MAX_DEPTH
        with pytest.raises(ParseError, match=f"depth {MAX_DEPTH + 1} exceeds the limit"):
            parse("\\f. f" + " 0" * (MAX_DEPTH - 1))

    def test_roundtrip_through_text(self, rng):
        for _ in range(50):
            program = random_program(rng)
            assert parse(term_to_text(program.term)).term == program.term
        for name in ("m1", "m2", "m3", "m4_3"):
            term = load(name).term
            assert parse(term_to_text(term)).term == term


class TestTypeCheck:
    def test_numerals_overloaded(self):
        assert type_check(Num(0)) == BOOL
        assert type_check(Num(1)) == BOOL
        assert type_check(Num(2)) == NAT

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


def _normalized(message: str) -> str:
    """message with its type variables numbered in order of appearance."""
    names: dict = {}
    return re.sub(r"\?\d+", lambda m: names.setdefault(m.group(), f"?{len(names)}"), message)


def _annotation(annotate, term):
    try:
        return annotate(term), None
    except TypeCheckError as exc:
        return None, (type(exc), _normalized(str(exc)))


def _replaced(t: Term, k: int, new: Term) -> Term:
    """t with its subterm number k in pre-order replaced by new, read as the
    parser reads it: succ of a numeral is a numeral."""
    if k == 0:
        return new
    k -= 1
    for field in dataclasses.fields(t):
        child = getattr(t, field.name)
        if isinstance(child, Term):
            size = term_size(child)
            if k < size:
                t = dataclasses.replace(t, **{field.name: _replaced(child, k, new)})
                return succ(t.body) if isinstance(t, Succ) else t
            k -= size
    raise IndexError(k)


def _subterms(t: Term) -> list:
    """The subterms of t in pre-order."""
    out = [t]
    for field in dataclasses.fields(t):
        child = getattr(t, field.name)
        if isinstance(child, Term):
            out += _subterms(child)
    return out


def _mutant(rng, t: Term) -> Term:
    """t with one subterm replaced by a term that often does not fit: a
    polymorphic or self-applied λ, an applied numeral, a variable that may be
    unbound, or another subterm of t."""
    subterms = _subterms(t)
    candidates = [
        Lam("m", Var("m")),
        Lam("m", Succ(Var("m"))),
        Lam("m", App(Var("m"), Var("m"))),
        App(Num(2), Num(0)),
        Fix(Num(1)),
        App(Var("f"), Lam("m", Var("m"))),
        Var(rng.choice(["x", "f", "y", "zz"])),
        rng.choice(subterms),
    ]
    return _replaced(t, rng.randrange(len(subterms)), rng.choice(candidates))


class TestAnnotate:
    """The one-pass annotation gives every node the simple type and free
    variables the reference gives it, and fails with the same error."""

    def _check(self, term):
        new, error = _annotation(lang.annotate, term)
        ref, ref_error = _annotation(annotate_reference.annotate, term)
        assert error == ref_error, term_to_text(term)
        if ref is None:
            return error
        pairs = [(new, ref)]
        while pairs:
            a, b = pairs.pop()
            assert unary(a.term) == b.term and a.ty == b.ty, term_to_text(term)
            assert a.free == annotate_reference.free_vars(b.term)
            assert len(a.children) == len(b.children)
            pairs.extend(zip(a.children, b.children))
        return None

    def test_corpus(self):
        for path in sorted(CORPUS.glob("*.pcfx")):
            assert self._check(parse(path.read_text()).term) is None

    @pytest.mark.parametrize("draw", ["ground", "fix", "lambda-argument"])
    def test_random_programs_and_their_mutants(self, rng, draw):
        errors = set()
        for _ in range(60):
            if draw == "lambda-argument":
                program = random_lambda_argument_program(rng)
            else:
                program = random_program(rng, max_nodes=20, fix=draw == "fix")
            assert self._check(program.term) is None
            mutants = [_mutant(rng, program.term) for _ in range(3)]
            # A chain of up to 4 mutations, each link checked, reaches
            # ill-typed shapes that one replacement does not.
            term = program.term
            for _ in range(4):
                term = _mutant(rng, term)
                mutants.append(term)
            for mutant in mutants:
                error = self._check(mutant)
                if error is not None:
                    errors.add(re.match("[a-z ]*[a-z]", error[1]).group())
        # The mutants reach the inference's errors, not only its successes.
        assert {"type mismatch", "unbound variable", "cannot infer a type"} <= errors


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
        trs = list(enumerate_trajectories(load("m1"), 100))
        for p in (Fraction(1, 2), Fraction(2, 5)):
            total = sum(
                eval_prob(monomial(t.monomial), ProbAssignment([p])) for t in trs
            )
            assert total == 1

    def test_loop_hits_budget(self):
        trs = list(enumerate_trajectories(load("m3"), 50))
        finished = [t for t in trs if t.normal_form is not None]
        unfinished = [t for t in trs if t.normal_form is None]
        assert finished and unfinished
        assert all(t.normal_form == 1 for t in finished)
        # Weights are X1^n * ~X1.
        assert {t.monomial[1] for t in finished} == {1}

    def test_pred_succ(self):
        assert next(enumerate_trajectories(parse("pred 3"), 10)).normal_form == 2
        assert next(enumerate_trajectories(parse("pred 0"), 10)).normal_form == 0

    def test_runs_stream_in_word_order(self):
        # m2 has about 3 million runs within 200 steps; the first few come
        # without the rest being found.
        program = load("m2")
        runs = list(itertools.islice(enumerate_trajectories(program, 200), 5))
        assert len(runs) == 5
        assert [t.word for t in runs] == sorted({t.word for t in runs})
        assert runs[0].normal_form is None and runs[0].steps == 200
        for t in runs:
            if t.normal_form is not None:
                assert replay_word(program, t.word, 200) == (t.normal_form, t.monomial, t.steps)

    def test_stuck_lambda_raises(self):
        # A λ is a normal form but no numeral: the run is stuck.
        with pytest.raises(LangError, match=r"stuck non-numeral normal form: \\x\. x"):
            list(enumerate_trajectories(parse(r"\x. x"), 10))

    def test_stuck_lambda_has_no_word(self):
        assert find_words(parse(r"\x. x"), 0, [()], 10) == {}

    def test_mass_conservation_with_prefixes(self, rng):
        # Terminated weights plus unfinished prefix weights always sum to 1.
        for _ in range(30):
            program = random_program(rng)
            trs = enumerate_trajectories(program, 500)
            p = ProbAssignment([Fraction(1, 3), Fraction(2, 7)])
            total = sum(eval_prob(monomial(t.monomial), p) for t in trs)
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


def _assert_runs_match_substitution(program, budget, extra=(), targets=(0, 1, 2)):
    """The machine's runs of program within budget steps are the substitution
    reducer's, field for field, and so are its words at the targets for the
    weights of those runs and extra, at budgets 0, 1 and 10000 and on both
    sides of every run's step count.  Returns the runs."""
    runs = list(enumerate_trajectories(program, budget))
    assert runs == enumerate_by_substitution(program, budget), term_to_text(program.term)
    monomials = {t.monomial for t in runs} | set(extra)
    budgets = {0, 1, 10000} | {t.steps for t in runs} | {t.steps + 1 for t in runs}
    for target in targets:
        for max_steps in sorted(budgets):
            assert find_words(program, target, monomials, max_steps) == (
                find_words_by_substitution(program, target, monomials, max_steps)
            ), (term_to_text(program.term), target, max_steps)
    return runs


# Small programs with each kind of step next to a choice, so that a budget
# that runs out between two steps tells their order.
STEP_ORDER = [
    r"pred (succ (0 +[X1] 1))",
    r"pred ((\y. succ y) (0 +[X1] 2))",
    r"pred (pred (0 +[X1] 2))",
    r"ifz (pred (succ (1 +[X1] 0))) then 2 else (0 +[X1] 1)",
    r"succ (pred 0) +[X1] pred (succ (succ 0))",
    r"(fix (\f. \x. ifz x then 0 +[X1] 1 else f (pred x))) (2 +[X1] 3)",
    r"(\f. f (f (0 +[X1] 1))) (\x. pred (succ (succ x)))",
    r"(\x. pred x) 5",
    r"succ (pred 3)",
    r"(\x. pred (succ x)) (2 +[X1] 0)",
]


class TestMachine:
    """The environment machine takes the steps of the substitution reducer:
    the same runs, with the same step counts and budgets."""

    @pytest.mark.parametrize("source", STEP_ORDER)
    def test_step_order_matches_substitution(self, source):
        program = parse(source)
        for budget in range(20):
            assert list(enumerate_trajectories(program, budget)) == (
                enumerate_by_substitution(program, budget)
            ), budget
        _assert_runs_match_substitution(program, 200)

    @pytest.mark.parametrize("source", ["2 1", r"succ (\x. x)", r"ifz (\x. x) then 0 else 1",
                                        r"0 +[X1] (\x. x)"])
    def test_stuck_inside_a_frame(self, source):
        # Ill-typed programs whose numeral or λ meets a frame it does not fit.
        program = parse(source)
        for enumerate_runs in (enumerate_trajectories, enumerate_by_substitution):
            with pytest.raises(LangError, match="stuck non-numeral normal form"):
                list(enumerate_runs(program, 10))
        monomials = [tuple([1, 0] * program.params)]
        assert find_words(program, 0, monomials, 10) == (
            find_words_by_substitution(program, 0, monomials, 10))

    @pytest.mark.parametrize("name", sorted(p.stem for p in CORPUS.glob("*.pcfx")))
    def test_corpus_matches_substitution(self, name):
        # m2 branches at every unfolding; at 60 steps it has 188 runs.
        runs = _assert_runs_match_substitution(load(name), 60 if name == "m2" else 200)
        assert any(t.normal_form is not None for t in runs)

    @seed(SEED)
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["ground", "fix", "lambda-argument", "higher-order"]),
           st.integers(0, 2**32 - 1))
    def test_random_programs_match_substitution(self, draw, draw_seed):
        rng = random.Random(draw_seed)
        if draw == "lambda-argument":
            program = random_lambda_argument_program(rng)
        elif draw == "higher-order":
            program = random_higher_order_program(rng)
        else:
            program = random_program(rng, max_nodes=20, fix=draw == "fix")
        extra = tuple(rng.randint(0, 2) for _ in range(2 * program.params))
        # A fixpoint may branch at each unfolding: its runs double every few
        # steps.
        _assert_runs_match_substitution(program, 24 if draw == "fix" else 40, [extra])

    @pytest.mark.parametrize("draw", ["ground", "fix", "lambda-argument", "higher-order"])
    def test_literals_to_99_match_unary_reference(self, rng, draw):
        # Each numeral of a drawn program is redrawn from 0-99, half of them
        # from 0-2 so that ifz takes both branches.  The machine's runs and
        # words, and the simple type, are those of the references on the
        # unary encoding, where the numeral k is k + 1 nested nodes.
        def redraw(_):
            return Num(rng.randrange(100) if rng.random() < 0.5 else rng.randrange(3))

        # A loop with a large literal runs the whole 10000-step budget of
        # `_assert_runs_match_substitution` on the substitution reducer.
        count = 10 if draw == "fix" else 20
        typed = 0
        for _ in range(count):
            if draw == "lambda-argument":
                program = random_lambda_argument_program(rng)
            elif draw == "higher-order":
                program = random_higher_order_program(rng)
            else:
                program = random_program(rng, max_nodes=20, fix=draw == "fix")
            program = lang.Program(map_numerals(program.term, redraw), program.params)
            new, error = _annotation(lang.annotate, program.term)
            ref, ref_error = _annotation(annotate_reference.annotate, program.term)
            assert error == ref_error, term_to_text(program.term)
            if ref is None:
                continue  # two λs of ground results Bool and Nat may meet
            assert new.ty == ref.ty, term_to_text(program.term)
            typed += 1
            budget = 20 if draw == "fix" else 40
            ends = sorted({t.normal_form for t in enumerate_trajectories(program, budget)
                           if t.normal_form is not None})
            targets = {0, 1, 2} | set(rng.sample(ends, min(2, len(ends))))
            _assert_runs_match_substitution(program, budget, targets=sorted(targets))
        assert typed >= count * 3 // 4
