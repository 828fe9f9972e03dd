import os
import random
from pathlib import Path

import pytest

from tropinf.lang import (
    App,
    Choice,
    Fix,
    Ifz,
    Lam,
    Num,
    Pred,
    Program,
    Succ,
    TypeCheckError,
    Var,
    parse,
    type_check,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
CORPUS_NAMES = ["m1", "m2", "m3", "m4_2", "m4_3", "m4_4", "tower2"]

SEED = int(os.environ.get("TROPINF_SEED", "20240817"))


@pytest.fixture
def rng():
    return random.Random(SEED)


def load(name: str) -> Program:
    return parse(load_source(name))


def load_source(name: str) -> str:
    return (CORPUS / f"{name}.pcfx").read_text()


def term_size(t) -> int:
    children = []
    for attr in ("body", "fun", "arg", "scrutinee", "then", "orelse", "left", "right"):
        child = getattr(t, attr, None)
        if child is not None:
            children.append(child)
    return 1 + sum(term_size(c) for c in children)


def term_depth(t) -> int:
    """The height of a term's syntax tree; a numeral is one node."""
    children = [getattr(t, a, None) for a in ("body", "fun", "arg", "scrutinee",
                                              "then", "orelse", "left", "right")]
    return 1 + max((term_depth(c) for c in children if c is not None), default=0)


def succ(t):
    """succ t, read as the parser reads it: succ of a numeral is a numeral."""
    return Num(t.value + 1) if isinstance(t, Num) else Succ(t)


def random_ground_term(rng: random.Random, budget: int, k: int = 2, var=None):
    """A random well-typed ground term without fixpoints.

    budget bounds the number of AST nodes; var, when given, is a variable
    name that may be used as a ground leaf.
    """
    leaves = [lambda: Num(rng.randint(0, 2))]
    if var is not None:
        leaves.append(lambda: Var(var))
    if budget <= 2:
        return rng.choice(leaves)()
    kind = rng.randrange(6)
    if kind == 0:
        return rng.choice(leaves)()
    if kind == 1:
        left = random_ground_term(rng, (budget - 1) // 2, k, var)
        right = random_ground_term(rng, (budget - 1) // 2, k, var)
        return Choice(rng.randint(1, k), left, right)
    if kind == 2 and budget >= 4:
        third = (budget - 1) // 3
        return Ifz(
            random_ground_term(rng, third, k, var),
            random_ground_term(rng, third, k, var),
            random_ground_term(rng, third, k, var),
        )
    if kind == 3:
        return succ(random_ground_term(rng, budget - 1, k, var))
    if kind == 4:
        return Pred(random_ground_term(rng, budget - 1, k, var))
    if kind == 5 and budget >= 5:
        name = f"v{rng.randrange(1000)}"
        body = random_ground_term(rng, (budget - 2) // 2, k, name)
        arg = random_ground_term(rng, (budget - 2) // 2, k)
        return App(Lam(name, body), arg)
    return rng.choice(leaves)()


def random_recursive_term(rng: random.Random, budget: int, k: int = 2):
    r"""A random well-typed ground term with one fixpoint: a ground loop
    `fix (\x. M +[Xi] succ M')`, a recursive function applied to a term,
    `(fix (\f. \x. ifz x then A else f (pred B))) N`, where M, M', A and B
    may mention x, or either of them as the argument of a β-redex `(\y. C) R`,
    whose binder then takes the types of a recursive term's rows."""
    shape = rng.randrange(3)
    if shape == 2:
        body = random_ground_term(rng, budget // 3, k, "y")
        return App(Lam("y", body), random_recursive_term(rng, budget - budget // 3 - 2, k))
    if shape == 0:
        half = (budget - 4) // 2
        left = random_ground_term(rng, half, k, "x")
        right = succ(random_ground_term(rng, half, k, "x"))
        return Fix(Lam("x", Choice(rng.randint(1, k), left, right)))
    third = (budget - 8) // 3
    then = random_ground_term(rng, third, k, "x")
    step = random_ground_term(rng, third, k, "x")
    body = Ifz(Var("x"), then, App(Var("f"), Pred(step)))
    return App(Fix(Lam("f", Lam("x", body))), random_ground_term(rng, third, k))


def random_lambda_argument_term(rng: random.Random, budget: int, k: int = 2):
    r"""A random ground term that passes a λ as an argument:
    `(\f. C) (\v. M)`, where C calls f once or twice, each time on a term N,
    and N and M come from `random_ground_term` (M may mention v).  The binder
    v is typed at the types of the terms N that reach it."""
    name = f"v{rng.randrange(1000)}"
    fourth = max((budget - 6) // 4, 1)

    def call():
        return App(Var("f"), random_ground_term(rng, fourth, k))

    shape = rng.randrange(3)
    if shape == 0:
        body = call()
    elif shape == 1:
        body = Choice(rng.randint(1, k), call(), call())
    else:
        body = Ifz(call(), call(), random_ground_term(rng, fourth, k))
    return App(Lam("f", body), Lam(name, random_ground_term(rng, fourth, k, name)))


def random_program(
    rng: random.Random, max_nodes: int = 12, k: int = 2, fix: bool = False
) -> Program:
    """A random closed ground program of at most max_nodes nodes; with fix,
    a well-typed one from `random_recursive_term`."""
    make = random_recursive_term if fix else random_ground_term
    while True:
        term = make(rng, max_nodes, k)
        if term_size(term) <= max_nodes and (not fix or _well_typed(term)):
            return Program(term, k)


def random_lambda_argument_program(
    rng: random.Random, max_nodes: int = 24, k: int = 2
) -> Program:
    """A random closed program from `random_lambda_argument_term` of at most
    max_nodes nodes."""
    while True:
        term = random_lambda_argument_term(rng, max_nodes, k)
        if term_size(term) <= max_nodes and _well_typed(term):
            return Program(term, k)


def _well_typed(term) -> bool:
    # A loop such as fix (\x. x) leaves the type of x unconstrained.
    try:
        type_check(term)
    except TypeCheckError:
        return False
    return True


# Fix-free programs, with a target and its answer, that a bound on multiset
# sizes cut short: each reaches its target only through a binder that takes
# several types.
WIDE_MULTISETS = [
    (r"params 1; (\f. f (f (f (f 0)))) (\x. x +[X1] succ x)", 4, "~X1^4"),
    (r"params 1; (\c. c (\y. succ y) 0) (\s. \z. s (s (s z)))", 3, "1"),
    (r"params 1; (\f. f (succ (f (pred (pred 0))))) (\v. ifz v then 0 else v)", 1, "1"),
]


# Recursive programs, with a target and its answer, whose polynomial is the
# same at n = 1 and n = 2 and grows at n = 3.
LATE_RUNS = [
    (r"params 2; (fix (\f. \x. ifz x then x +[X1] 0 else f (pred x))) (0 +[X1] 2)", 0,
     "~X1^4 + X1*~X1 + X1^3"),
    (r"params 2; fix (\x. (pred x) +[X2] 3)", 1, "X2^2*~X2"),
]


# Church numerals 1-3 and twice at type (N -> N) -> N -> N, and compose.
CHURCH = {1: r"(\s. \z. s z)", 2: r"(\s. \z. s (s z))", 3: r"(\s. \z. s (s (s z)))"}
TWICE = r"(\f. \x. f (f x))"
COMPOSE = r"(\f. \g. \x. f (g x))"
SELECT = (r"(\a. \b. a)", r"(\a. \b. b)")


def random_higher_order_program(rng: random.Random, k: int = 2) -> Program:
    r"""A random closed fix-free program of order 2 or 3, by the order of its
    binders.  An iterator (of type (N -> N) -> N -> N) is a Church numeral
    1-3, `twice`, `compose F`, a numeral applied to a numeral, a choice of
    two iterators, or a selector applied to two; the program applies one to
    a step function F : N -> N and a numeral, or passes one to a binder that
    iterates it twice, as in `(\c. c F (c F' 0)) G`.  Choices sit in the
    steps, the base numerals and between iterators.

    The reducer passes arguments unevaluated, so a step `ifz y then .. else
    .. y` doubles the copies of its argument at each application: it is drawn
    only where the steps apply at most 3 times in all, with no other choice
    than between iterators.  A step with a choice applies at most 4 times in
    all.  The runs then stay few and short enough to enumerate.  A numeral
    applies a numeral at most 4 times: `c2 c3` and `c3 c2` take the typing
    search seconds to minutes."""

    def param():
        return rng.randint(1, k)

    def iterator(depth: int):
        """An iterator and the most times it applies its step."""
        kind = rng.randrange(6) if depth else 0
        if kind == 0:
            j = rng.randint(1, 3)
            return CHURCH[j], j
        if kind == 1:
            return TWICE, 2
        if kind == 2:
            return rf"({COMPOSE} (\w. succ w))", 1
        if kind == 3:
            m, n = rng.choice([(1, 2), (2, 2), (1, 3)])
            return f"({CHURCH[m]} {CHURCH[n]})", n**m
        first, a = iterator(depth - 1)
        second, b = iterator(depth - 1)
        if kind == 4:
            return f"({first} +[X{param()}] {second})", max(a, b)
        return f"({rng.choice(SELECT)} {first} {second})", max(a, b)

    while True:
        g, times = iterator(2)
        nested = rng.random() < 0.5
        total = 2 * times if nested else times
        steps = [r"(\y. succ y)", r"(\y. pred y)"]
        ifz = total <= 3 and rng.random() < 0.3
        if ifz:
            steps.append(r"(\y. ifz y then succ y else pred y)")
        elif total <= 4:
            steps.append(rf"(\y. y +[X{param()}] succ y)")
        f, f2 = rng.choice(steps), rng.choice(steps)
        if ifz or rng.random() < 0.7:
            base = str(rng.randint(0, 2))
        else:
            base = f"({rng.randint(0, 1)} +[X{param()}] {rng.randint(1, 2)})"
        if nested:
            source = rf"(\c. c {f} (c {f2} {base})) {g}"
        else:
            source = f"{g} {f} {base}"
        program = parse(f"params {k}; {source}")
        # A selector leaves the type of the iterator it drops unconstrained.
        if _well_typed(program.term):
            return program
