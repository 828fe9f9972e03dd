"""The substitution reducer and the runs it finds, kept as test references.

`tropinf.lang` reduces programs on an environment machine.  This module keeps
the reducer it replaced: `reduce_once` rewrites the whole term for one
weak-head step, copying the body of every β and fix step through
`substitute`.  `enumerate_by_substitution` and `find_words_by_substitution`
are `enumerate_trajectories` and `find_words` on that reducer, with the same
step budgets, so tests can check the machine against them path for path.

The references read a program in the unary encoding (`unary`): the numeral
k is k succs around `Num(0)`.  So `reduce_once` takes a `pred` step on a
literal by cancelling its outer succ, and tests that compare the machine
with it also check that the one-node numeral changes no run.

`replay_word` follows one given word, so tests can check that every word a
report names reaches its target with its monomial, and that
`enumerate_trajectories` agrees with it.  `find_word` is `find_words` for one
weight, so tests can check the shared search against one search per weight.
"""

import dataclasses
from dataclasses import dataclass

from tropinf.lang import (
    App,
    Choice,
    Fix,
    Ifz,
    Lam,
    LangError,
    Num,
    Pred,
    Program,
    Succ,
    Term,
    Trajectory,
    Var,
    find_words,
    term_to_text,
    word_monomial,
)


def map_numerals(t: Term, f) -> Term:
    """t with every numeral Num(k) replaced by the term f(k)."""
    if isinstance(t, Num):
        return f(t.value)
    children = {field.name: map_numerals(getattr(t, field.name), f)
                for field in dataclasses.fields(t) if isinstance(getattr(t, field.name), Term)}
    return dataclasses.replace(t, **children) if children else t


def unary(t: Term) -> Term:
    """t with every numeral k written as k succs around Num(0)."""
    def succs(k: int) -> Term:
        out: Term = Num(0)
        for _ in range(k):
            out = Succ(out)
        return out
    return map_numerals(t, succs)


def numeral_value(t: Term) -> int | None:
    """The natural number a term denotes literally, in either encoding, or
    None."""
    n = 0
    while isinstance(t, Succ):
        n += 1
        t = t.body
    return n + t.value if isinstance(t, Num) else None


@dataclass(frozen=True)
class NormalForm:
    """The term does not reduce (for programs: a numeral)."""


@dataclass(frozen=True)
class Deterministic:
    """One weight-free reduction step."""

    term: Term


@dataclass(frozen=True)
class BranchStep:
    """A choice: the left branch carries weight Xi, the right one ~Xi."""

    param: int
    left: Term
    right: Term


def substitute(t: Term, name: str, value: Term) -> Term:
    if isinstance(t, Var):
        return value if t.name == name else t
    if isinstance(t, Lam):
        if t.name == name:
            return t
        return Lam(t.name, substitute(t.body, name, value))
    if isinstance(t, Succ):
        return Succ(substitute(t.body, name, value))
    if isinstance(t, Pred):
        return Pred(substitute(t.body, name, value))
    if isinstance(t, Fix):
        return Fix(substitute(t.body, name, value))
    if isinstance(t, App):
        return App(substitute(t.fun, name, value), substitute(t.arg, name, value))
    if isinstance(t, Ifz):
        return Ifz(
            substitute(t.scrutinee, name, value),
            substitute(t.then, name, value),
            substitute(t.orelse, name, value),
        )
    if isinstance(t, Choice):
        return Choice(
            t.param, substitute(t.left, name, value), substitute(t.right, name, value)
        )
    return t


def reduce_once(t: Term):
    """One weak-head step of a term in the unary encoding: NormalForm,
    Deterministic, or BranchStep."""
    if isinstance(t, (Num, Lam, Var)):
        return NormalForm()
    if isinstance(t, Choice):
        return BranchStep(t.param, t.left, t.right)
    if isinstance(t, Succ):
        step = reduce_once(t.body)
        if isinstance(step, NormalForm):
            return NormalForm()
        return _under(step, Succ)
    if isinstance(t, Pred):
        if isinstance(t.body, Succ):
            return Deterministic(t.body.body)
        if isinstance(t.body, Num):  # 0 in the unary encoding
            return Deterministic(t.body)
        step = reduce_once(t.body)
        if isinstance(step, NormalForm):
            return NormalForm()
        return _under(step, Pred)
    if isinstance(t, Fix):
        return Deterministic(App(t.body, t))
    if isinstance(t, App):
        if isinstance(t.fun, Lam):
            return Deterministic(substitute(t.fun.body, t.fun.name, t.arg))
        step = reduce_once(t.fun)
        if isinstance(step, NormalForm):
            return NormalForm()
        return _under(step, lambda f: App(f, t.arg))
    if isinstance(t, Ifz):
        n = numeral_value(t.scrutinee)
        if n is not None:
            return Deterministic(t.then if n == 0 else t.orelse)
        step = reduce_once(t.scrutinee)
        if isinstance(step, NormalForm):
            return NormalForm()
        return _under(step, lambda s: Ifz(s, t.then, t.orelse))
    return NormalForm()


def _under(step, wrap):
    if isinstance(step, Deterministic):
        return Deterministic(wrap(step.term))
    return BranchStep(step.param, wrap(step.left), wrap(step.right))


def enumerate_by_substitution(program: Program, max_steps: int) -> list:
    """`enumerate_trajectories` on `reduce_once`."""
    k = program.params
    out = []
    stack = [(unary(program.term), 0, ())]
    while stack:
        term, steps, word = stack.pop()
        finished = False
        while steps < max_steps:
            step = reduce_once(term)
            if isinstance(step, NormalForm):
                n = numeral_value(term)
                if n is None:
                    raise LangError(
                        f"stuck non-numeral normal form: {term_to_text(term)}"
                    )
                out.append(Trajectory(word, word_monomial(word, k), n, steps))
                finished = True
                break
            if isinstance(step, Deterministic):
                term = step.term
                steps += 1
                continue
            stack.append((step.right, steps + 1, word + ((step.param, 1),)))
            term = step.left
            steps += 1
            word = word + ((step.param, 0),)
        if not finished and steps >= max_steps:
            n = numeral_value(term)
            out.append(Trajectory(word, word_monomial(word, k), n, steps))
    out.sort(key=lambda tr: tr.word)
    return out


def find_words_by_substitution(
    program: Program, target: int, monomials, max_steps: int
) -> dict:
    """`find_words` on `reduce_once`."""
    wanted = {tuple(m) for m in monomials}
    found = {}
    if not wanted:
        return found
    stack = [(unary(program.term), 0, (), [0] * (2 * program.params), list(wanted))]
    while stack:
        term, steps, word, used, open_ = stack.pop()
        while steps < max_steps:
            step = reduce_once(term)
            if isinstance(step, NormalForm):
                weight = tuple(used)
                if numeral_value(term) == target and weight in wanted and weight not in found:
                    found[weight] = word
                    if len(found) == len(wanted):
                        return found
                break
            if isinstance(step, Deterministic):
                term = step.term
                steps += 1
                continue
            i = step.param
            left = 2 * (i - 1)
            right = [m for m in open_ if m[left + 1] > used[left + 1] and m not in found]
            if right:
                rused = list(used)
                rused[left + 1] += 1
                stack.append((step.right, steps + 1, word + ((i, 1),), rused, right))
            open_ = [m for m in open_ if m[left] > used[left] and m not in found]
            if not open_:
                break
            used[left] += 1
            term = step.left
            word = word + ((i, 0),)
            steps += 1
    return found


def replay_word(program: Program, word: tuple, max_steps: int):
    """Follow a choice word through the substitution reducer.

    Returns (normal_form, monomial, steps); normal_form is None when the word
    is inconsistent with the program or the step budget runs out.
    """
    term = unary(program.term)
    k = program.params
    steps = 0
    pos = 0
    while steps < max_steps:
        step = reduce_once(term)
        if isinstance(step, NormalForm):
            n = numeral_value(term)
            if n is None or pos != len(word):
                return None, word_monomial(word[:pos], k), steps
            return n, word_monomial(word, k), steps
        if isinstance(step, Deterministic):
            term = step.term
        else:
            if pos >= len(word) or word[pos][0] != step.param:
                return None, word_monomial(word[:pos], k), steps
            term = step.left if word[pos][1] == 0 else step.right
            pos += 1
        steps += 1
    return None, word_monomial(word[:pos], k), steps


def find_word(program: Program, target: int, monomial: tuple, max_steps: int):
    """The smallest choice word of a run to `target` whose weight is exactly
    `monomial`, or None within the step budget of each path: `find_words`
    for one monomial."""
    return find_words(program, target, [monomial], max_steps).get(tuple(monomial))
