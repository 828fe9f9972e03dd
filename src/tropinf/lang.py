"""The object language: call-by-name PCF with parametric binary choice.

Programs are closed terms of a ground type; choices ``M +[Xi] N`` take the
left branch with weight Xi and the right branch with weight ~Xi.  Reduction is
weak-head call-by-name, with reduction allowed under succ/pred and in the
scrutinee of ifz.  `find_words` finds the smallest run to a target for each
of several weights in one depth-first search of the choice tree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import Monomial


class LangError(Exception):
    pass


class ParseError(LangError):
    pass


class TypeCheckError(LangError):
    pass


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Term:
    pass


@dataclass(frozen=True)
class Zero(Term):
    pass


@dataclass(frozen=True)
class Succ(Term):
    body: Term


@dataclass(frozen=True)
class Pred(Term):
    body: Term


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Lam(Term):
    name: str
    body: Term


@dataclass(frozen=True)
class App(Term):
    fun: Term
    arg: Term


@dataclass(frozen=True)
class Fix(Term):
    body: Term


@dataclass(frozen=True)
class Ifz(Term):
    scrutinee: Term
    then: Term
    orelse: Term


@dataclass(frozen=True)
class Choice(Term):
    param: int  # 1-based
    left: Term
    right: Term


def numeral(n: int) -> Term:
    t: Term = Zero()
    for _ in range(n):
        t = Succ(t)
    return t


def numeral_value(t: Term) -> int | None:
    """The natural number a term denotes literally, or None."""
    n = 0
    while isinstance(t, Succ):
        n += 1
        t = t.body
    return n if isinstance(t, Zero) else None


_CHILDREN = ("body", "fun", "arg", "scrutinee", "then", "orelse", "left", "right")


def term_depth(t: Term) -> int:
    """The height of a term's syntax tree, computed without recursion; the
    numeral n nests n + 1 levels (n succs around 0)."""
    deepest = 0
    stack = [(t, 1)]
    while stack:
        t, depth = stack.pop()
        deepest = max(deepest, depth)
        for name in _CHILDREN:
            child = getattr(t, name, None)
            if child is not None:
                stack.append((child, depth + 1))
    return deepest


def free_vars(t: Term) -> frozenset:
    if isinstance(t, Var):
        return frozenset({t.name})
    if isinstance(t, Lam):
        return free_vars(t.body) - {t.name}
    if isinstance(t, (Succ, Pred, Fix)):
        return free_vars(t.body)
    if isinstance(t, App):
        return free_vars(t.fun) | free_vars(t.arg)
    if isinstance(t, Ifz):
        return free_vars(t.scrutinee) | free_vars(t.then) | free_vars(t.orelse)
    if isinstance(t, Choice):
        return free_vars(t.left) | free_vars(t.right)
    return frozenset()


def max_param(t: Term) -> int:
    if isinstance(t, Choice):
        return max(t.param, max_param(t.left), max_param(t.right))
    if isinstance(t, Lam):
        return max_param(t.body)
    if isinstance(t, (Succ, Pred, Fix)):
        return max_param(t.body)
    if isinstance(t, App):
        return max(max_param(t.fun), max_param(t.arg))
    if isinstance(t, Ifz):
        return max(max_param(t.scrutinee), max_param(t.then), max_param(t.orelse))
    return 0


@dataclass(frozen=True)
class Program:
    """A term together with its number of choice parameters."""

    term: Term
    params: int


def term_to_text(t: Term) -> str:
    n = numeral_value(t)
    if n is not None:
        return str(n)
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Succ):
        return f"succ {_atom_text(t.body)}"
    if isinstance(t, Pred):
        return f"pred {_atom_text(t.body)}"
    if isinstance(t, Fix):
        return f"fix {_atom_text(t.body)}"
    if isinstance(t, Lam):
        return f"\\{t.name}. {term_to_text(t.body)}"
    if isinstance(t, App):
        fun = term_to_text(t.fun) if isinstance(t.fun, App) else _atom_text(t.fun)
        return f"{fun} {_atom_text(t.arg)}"
    if isinstance(t, Ifz):
        return (
            f"ifz {term_to_text(t.scrutinee)} then {term_to_text(t.then)} "
            f"else {term_to_text(t.orelse)}"
        )
    if isinstance(t, Choice):
        return f"{_atom_text(t.left)} +[X{t.param}] {_atom_text(t.right)}"
    raise LangError(f"unknown term {t!r}")


def _atom_text(t: Term) -> str:
    if numeral_value(t) is not None or isinstance(t, Var):
        return term_to_text(t)
    return f"({term_to_text(t)})"


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_KEYWORDS = {"succ", "pred", "fix", "ifz", "then", "else", "params"}

# Deepest nesting a program may have, both in its source (parentheses,
# binders, choices, succ/pred/fix, ifz) and in its syntax tree.  The parser,
# type checker, search and reducer recurse once or a few times per level, so
# this keeps every pass well inside Python's default recursion limit.
MAX_DEPTH = 100


def _tokenize(source: str):
    tokens = []
    i = 0
    line, col = 1, 1
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":  # comment to end of line
            while i < n and source[i] != "\n":
                i += 1
            continue
        pos = (line, col)
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(("int", source[i:j], pos))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            kind = "kw" if word in _KEYWORDS else "ident"
            tokens.append((kind, word, pos))
            col += j - i
            i = j
            continue
        if source.startswith("+[", i):
            tokens.append(("+[", "+[", pos))
            i += 2
            col += 2
            continue
        if ch in "\\.();]":
            tokens.append((ch, ch, pos))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r} at line {line}, column {col}")
    tokens.append(("eof", "", (line, col)))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind, what=None):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(
                f"expected {what or kind} at line {tok[2][0]}, column {tok[2][1]}, "
                f"found {tok[1]!r}" if tok[1] else
                f"expected {what or kind}, found end of input"
            )
        return tok

    def nested(self, parse, pos):
        """Run parse() one nesting level deeper than the current one."""
        if self.depth >= MAX_DEPTH:
            raise ParseError(
                f"nesting deeper than the limit of {MAX_DEPTH} levels at line "
                f"{pos[0]}, column {pos[1]}"
            )
        self.depth += 1
        try:
            return parse()
        finally:
            self.depth -= 1

    def parse_program(self) -> Program:
        declared = None
        while self.peek()[0] == "kw" and self.peek()[1] == "params":
            self.next()
            tok = self.expect("int", "parameter count")
            declared = int(tok[1])
            self.expect(";")
        term = self.parse_term()
        tok = self.peek()
        if tok[0] != "eof":
            raise ParseError(
                f"trailing input at line {tok[2][0]}, column {tok[2][1]}: {tok[1]!r}"
            )
        depth = term_depth(term)
        if depth > MAX_DEPTH:
            raise ParseError(
                f"term nesting depth {depth} exceeds the limit of {MAX_DEPTH} "
                "(the numeral n nests n + 1 levels)"
            )
        used = max_param(term)
        if declared is not None:
            if used > declared:
                raise ParseError(
                    f"parameter X{used} used but only {declared} declared"
                )
            k = declared
        else:
            k = used
        fv = free_vars(term)
        if fv:
            raise ParseError(f"unbound variable {sorted(fv)[0]!r}")
        return Program(term, k)

    def parse_term(self) -> Term:
        if self.peek()[0] == "\\":
            pos = self.next()[2]
            name = self.expect("ident", "binder name")[1]
            self.expect(".")
            return Lam(name, self.nested(self.parse_term, pos))
        return self.parse_choice()

    def parse_choice(self) -> Term:
        left = self.parse_app()
        if self.peek()[0] == "+[":
            pos = self.next()[2]
            param = self._parse_param()
            self.expect("]")
            right = self.nested(self.parse_choice, pos)  # right-associative
            return Choice(param, left, right)
        return left

    def _parse_param(self) -> int:
        tok = self.expect("ident", "parameter name")
        name = tok[1]
        if name == "X":
            return 1
        if name.startswith("X") and name[1:].isdigit():
            idx = int(name[1:])
            if idx >= 1:
                return idx
        raise ParseError(
            f"bad parameter name {name!r} at line {tok[2][0]}, column {tok[2][1]}"
        )

    def parse_app(self) -> Term:
        term = self.parse_atom()
        while self.peek()[0] in ("int", "ident", "(", "\\") or (
            self.peek()[0] == "kw" and self.peek()[1] in ("succ", "pred", "fix", "ifz")
        ):
            term = App(term, self.parse_atom())
        return term

    def parse_atom(self) -> Term:
        kind, text, pos = self.peek()
        if kind == "int":
            self.next()
            return numeral(int(text))
        if kind == "ident":
            self.next()
            return Var(text)
        if kind == "(":
            self.next()
            term = self.nested(self.parse_term, pos)
            self.expect(")")
            return term
        if kind == "\\":
            return self.parse_term()
        if kind == "kw":
            if text == "succ":
                self.next()
                return Succ(self.nested(self.parse_atom, pos))
            if text == "pred":
                self.next()
                return Pred(self.nested(self.parse_atom, pos))
            if text == "fix":
                self.next()
                return Fix(self.nested(self.parse_atom, pos))
            if text == "ifz":
                self.next()
                scrutinee = self.nested(self.parse_term, pos)
                self._expect_kw("then")
                then = self.nested(self.parse_term, pos)
                self._expect_kw("else")
                orelse = self.nested(self.parse_term, pos)
                return Ifz(scrutinee, then, orelse)
        raise ParseError(
            f"unexpected {text!r} at line {pos[0]}, column {pos[1]}"
            if text
            else "unexpected end of input"
        )

    def _expect_kw(self, word):
        tok = self.next()
        if tok[0] != "kw" or tok[1] != word:
            raise ParseError(
                f"expected {word!r} at line {tok[2][0]}, column {tok[2][1]}, "
                f"found {tok[1]!r}"
            )


def parse(source: str) -> Program:
    """Parse a program; raises ParseError with a line/column message."""
    return _Parser(_tokenize(source)).parse_program()


# ---------------------------------------------------------------------------
# Simple types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimpleType:
    pass


@dataclass(frozen=True)
class Ground(SimpleType):
    name: str  # "Bool" | "Nat"


@dataclass(frozen=True)
class Arrow(SimpleType):
    arg: SimpleType
    res: SimpleType


BOOL = Ground("Bool")
NAT = Ground("Nat")


def type_to_text(ty: SimpleType) -> str:
    if isinstance(ty, Ground):
        return ty.name
    left = type_to_text(ty.arg)
    if isinstance(ty.arg, Arrow):
        left = f"({left})"
    return f"{left} -> {type_to_text(ty.res)}"


class _TVar:
    __slots__ = ("ref", "id")
    _count = itertools.count()

    def __init__(self):
        self.ref = None
        self.id = next(self._count)


def _resolve(t):
    while isinstance(t, _TVar) and t.ref is not None:
        t = t.ref
    return t


def _occurs(v, t):
    t = _resolve(t)
    if t is v:
        return True
    if isinstance(t, Arrow):
        return _occurs(v, t.arg) or _occurs(v, t.res)
    return False


def _unify(a, b):
    a, b = _resolve(a), _resolve(b)
    if a is b or a == b:
        return
    if isinstance(a, _TVar):
        if _occurs(a, b):
            raise TypeCheckError("cannot infer a type (recursive constraint)")
        a.ref = b
        return
    if isinstance(b, _TVar):
        _unify(b, a)
        return
    if isinstance(a, Arrow) and isinstance(b, Arrow):
        _unify(a.arg, b.arg)
        _unify(a.res, b.res)
        return
    raise TypeCheckError(
        f"type mismatch: {_partial_text(a)} vs {_partial_text(b)}"
    )


def _deep_resolve(t):
    t = _resolve(t)
    if isinstance(t, Arrow):
        return Arrow(_deep_resolve(t.arg), _deep_resolve(t.res))
    return t


def _has_tvar(t):
    if isinstance(t, _TVar):
        return True
    if isinstance(t, Arrow):
        return _has_tvar(t.arg) or _has_tvar(t.res)
    return False


def _partial_text(t):
    t = _resolve(t)
    if isinstance(t, _TVar):
        return f"?{t.id}"
    if isinstance(t, Arrow):
        return f"{_partial_text(t.arg)} -> {_partial_text(t.res)}"
    return t.name


@dataclass
class TypedTerm:
    """A term with its inferred simple type and typed children."""

    term: Term
    ty: SimpleType
    children: tuple


class _Inference:
    """Constraint-based simple type inference.

    The cast rule lets any term of type Bool be used at type Nat, so
    subsumption constraints are collected as pairs (lower, upper) and solved
    to the least solution; remaining ground-flexible variables that never get
    forced are a sign of a genuinely ambiguous (polymorphic) term and are
    reported as uninferable.
    """

    def __init__(self):
        self.subs = []  # (lower, upper)

    def sub(self, lower, upper):
        self.subs.append((lower, upper))

    def infer(self, t: Term, env: dict):
        n = numeral_value(t)
        if n is not None:
            return self._typed(t, BOOL if n <= 1 else NAT, [])
        if isinstance(t, Var):
            if t.name not in env:
                raise TypeCheckError(f"unbound variable {t.name!r}")
            return self._typed(t, env[t.name], [])
        if isinstance(t, Succ):
            body = self.infer(t.body, env)
            self.sub(body.ty, NAT)
            return self._typed(t, NAT, [body])
        if isinstance(t, Pred):
            body = self.infer(t.body, env)
            self.sub(body.ty, NAT)
            return self._typed(t, NAT, [body])
        if isinstance(t, Ifz):
            scrutinee = self.infer(t.scrutinee, env)
            self.sub(scrutinee.ty, NAT)
            then = self.infer(t.then, env)
            orelse = self.infer(t.orelse, env)
            out = _TVar()
            self.sub(then.ty, out)
            self.sub(orelse.ty, out)
            return self._typed(t, out, [scrutinee, then, orelse])
        if isinstance(t, Choice):
            left = self.infer(t.left, env)
            right = self.infer(t.right, env)
            out = _TVar()
            self.sub(left.ty, out)
            self.sub(right.ty, out)
            return self._typed(t, out, [left, right])
        if isinstance(t, Lam):
            arg = _TVar()
            body = self.infer(t.body, {**env, t.name: arg})
            return self._typed(t, Arrow(arg, body.ty), [body])
        if isinstance(t, App):
            fun = self.infer(t.fun, env)
            arg = self.infer(t.arg, env)
            a, b = _TVar(), _TVar()
            _unify(fun.ty, Arrow(a, b))
            self.sub(arg.ty, a)
            return self._typed(t, b, [fun, arg])
        if isinstance(t, Fix):
            body = self.infer(t.body, env)
            a = _TVar()
            _unify(body.ty, Arrow(a, a))
            return self._typed(t, a, [body])
        raise TypeCheckError(f"unknown term {t!r}")

    def _typed(self, term, ty, children):
        return TypedTerm(term, ty, tuple(children))

    def solve(self):
        pending = self.subs
        while True:
            changed = False
            keep = []
            for lower, upper in pending:
                lower, upper = _resolve(lower), _resolve(upper)
                if lower == upper:
                    changed = True
                    continue
                if isinstance(lower, Arrow) or isinstance(upper, Arrow):
                    # The cast applies at ground type only.
                    _unify(lower, upper)
                    changed = True
                    continue
                if upper == BOOL or lower == NAT:
                    _unify(lower, upper)
                    changed = True
                    continue
                if lower == BOOL and upper == NAT:
                    changed = True
                    continue
                keep.append((lower, upper))
            pending = keep
            if not changed:
                break
        # Remaining constraints are Bool <= var, var <= Nat, or var <= var;
        # the least solution sends every such variable to Bool.
        for lower, upper in pending:
            for side in (lower, upper):
                side = _resolve(side)
                if isinstance(side, _TVar):
                    side.ref = BOOL
        # Re-check everything with the defaults in place.
        for lower, upper in self.subs:
            lower, upper = _deep_resolve(lower), _deep_resolve(upper)
            if _has_tvar(lower) or _has_tvar(upper):
                continue
            if lower != upper and not (lower == BOOL and upper == NAT):
                raise TypeCheckError(
                    f"type mismatch: {_partial_text(lower)} vs {_partial_text(upper)}"
                )

    def finish(self, tt: TypedTerm) -> TypedTerm:
        ty = _resolve(tt.ty)
        if isinstance(ty, _TVar):
            raise TypeCheckError("cannot infer a type (unconstrained variable)")
        if isinstance(ty, Arrow):
            ty = Arrow(
                self._finish_ty(ty.arg), self._finish_ty(ty.res)
            )
        return TypedTerm(tt.term, ty, tuple(self.finish(c) for c in tt.children))

    def _finish_ty(self, ty):
        ty = _resolve(ty)
        if isinstance(ty, _TVar):
            raise TypeCheckError("cannot infer a type (unconstrained variable)")
        if isinstance(ty, Arrow):
            return Arrow(self._finish_ty(ty.arg), self._finish_ty(ty.res))
        return ty


def annotate(term: Term) -> TypedTerm:
    """Infer simple types for a closed term, annotating every subterm."""
    inf = _Inference()
    tt = inf.infer(term, {})
    inf.solve()
    return inf.finish(tt)


def type_check(term: Term) -> SimpleType:
    """Principal simple type of a closed term; raises TypeCheckError."""
    return annotate(term).ty


# ---------------------------------------------------------------------------
# Reduction
# ---------------------------------------------------------------------------


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
    """One weak-head step: NormalForm, Deterministic, or BranchStep."""
    if isinstance(t, (Zero, Lam, Var)):
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
        if isinstance(t.body, Zero):
            return Deterministic(Zero())
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


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

ChoiceWord = tuple  # of (param, bit) pairs; bit 0 = left (Xi), 1 = right (~Xi)


def word_monomial(word: ChoiceWord, k: int) -> Monomial:
    exps = [0] * (2 * k)
    for param, bit in word:
        exps[2 * (param - 1) + bit] += 1
    return tuple(exps)


def word_to_text(word: ChoiceWord) -> str:
    return "".join(str(bit) for _, bit in word)


@dataclass(frozen=True)
class Trajectory:
    """One reduction path: its choice word, weight, and outcome.

    normal_form is the numeral reached, or None when the step budget ran out
    first (the word is then the prefix of choices made so far).
    """

    word: ChoiceWord
    monomial: Monomial
    normal_form: int | None
    steps: int


def enumerate_trajectories(program: Program, max_steps: int) -> list:
    """All reduction paths of a program, each within max_steps total steps.

    Every returned trajectory either ends in a numeral or is marked
    unfinished; the list is ordered by choice word.
    """
    k = program.params
    out = []
    stack = [(program.term, 0, ())]
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
            if n is not None:
                out.append(Trajectory(word, word_monomial(word, k), n, steps))
            else:
                out.append(Trajectory(word, word_monomial(word, k), None, steps))
    out.sort(key=lambda tr: tr.word)
    return out


def find_words(
    program: Program, target: int, monomials, max_steps: int
) -> dict:
    """The smallest choice word of a run to `target` for each weight in
    `monomials`: {monomial: word}, without the monomials that have no such
    run within the step budget of each path.

    One depth-first search over the choice tree, left branch first, so
    complete words come in lexicographic order and the first run found with a
    weight has its smallest word.  Each path carries the monomials still
    searched for that are >= the weight it has used, and is pruned when none
    is left.
    """
    wanted = {tuple(m) for m in monomials}
    found = {}
    if not wanted:
        return found
    stack = [(program.term, 0, (), [0] * (2 * program.params), list(wanted))]
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


def find_word(
    program: Program, target: int, monomial: Monomial, max_steps: int
) -> ChoiceWord | None:
    """The smallest choice word of a run to `target` whose weight is exactly
    `monomial`, or None within the step budget of each path: `find_words`
    for one monomial."""
    return find_words(program, target, [monomial], max_steps).get(tuple(monomial))
