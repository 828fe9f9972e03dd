"""The object language: call-by-name PCF with parametric binary choice.

Programs are closed terms of a ground type; choices ``M +[Xi] N`` take the
left branch with weight Xi and the right branch with weight ~Xi.  Reduction is
weak-head call-by-name, with reduction allowed under succ/pred and in the
scrutinee of ifz.  It runs on an environment machine (`_explore`): a β step
binds the argument, unevaluated, in an environment instead of copying the body
with the argument substituted, so every state shares the program's term.  A
step is a β step, a fix unfolding, `pred` of `succ M` or of a numeral, an ifz
that selects a branch, or a choice.  A numeral is one node, `Num(k)`, and the
parser reads `succ` of a literal as the next literal.
`enumerate_trajectories` yields the runs of a program in word order as they
end; `find_words` finds the smallest run to a target for each of several
weights in one depth-first search of the choice tree.

The front end reads a program once.  `parse` is one recursive descent that
checks the depth, parameter indices and scope of each node as it builds it;
`annotate` is one inference walk that creates each typed node, with its free
variables, and then closes every node's type in place.
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
class Num(Term):
    """The numeral k, a value."""

    value: int


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


@dataclass(frozen=True)
class Program:
    """A term together with its number of choice parameters."""

    term: Term
    params: int


def term_to_text(t: Term) -> str:
    if isinstance(t, Num):
        return str(t.value)
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
    if isinstance(t, (Num, Var)):
        return term_to_text(t)
    return f"({term_to_text(t)})"


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_KEYWORDS = {"succ", "pred", "fix", "ifz", "then", "else", "params"}

# Deepest nesting a program may have, both in its source (parentheses,
# binders, choices, succ/pred/fix, ifz) and in the height of its syntax tree,
# where a numeral is one node.  The parser, type checker and search recurse
# once or a few times per level, so this keeps every pass well inside
# Python's default recursion limit.
MAX_DEPTH = 100

# Most choice parameters a program may declare or use.  A monomial has two
# exponents per parameter, so every pass over rows and polynomials grows with
# the count.
MAX_PARAMS = 1000

# Most significant digits of a numeral, parameter count or index: the lowest
# limit Python may set on the digits of a decimal string it converts to int.
_MAX_DIGITS = 640


def _tokenize(source: str):
    tokens = []
    lines = source.split("\n")
    for line, text in enumerate(lines, 1):
        end = text.find("#")  # a comment runs to the end of the line
        if end < 0:
            end = len(text)
        i = 0
        while i < end:
            ch = text[i]
            if ch in " \t\r":
                i += 1
                continue
            pos = (line, i + 1)
            # The commonest tokens first: names, then punctuation.
            if ch.isalpha() or ch == "_":
                j = i + 1
                while j < end and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                word = text[i:j]
                tokens.append(("kw" if word in _KEYWORDS else "ident", word, pos))
                i = j
                continue
            if ch in "\\.();]":
                tokens.append((ch, ch, pos))
                i += 1
                continue
            if "0" <= ch <= "9":  # ASCII digits only
                j = i + 1
                while j < end and "0" <= text[j] <= "9":
                    j += 1
                tokens.append(("int", text[i:j], pos))
                i = j
                continue
            if text.startswith("+[", i):
                tokens.append(("+[", "+[", pos))
                i += 2
                continue
            raise ParseError(f"unexpected character {ch!r} at line {line}, column {i + 1}")
    # The end of input sits at the end of the last line, or at its comment.
    tokens.append(("eof", "", (len(lines), end + 1)))
    return tokens


def _count(digits: str, what: str, pos, limit: int | None = None) -> int:
    """The value of a digit string, checked for its length before it is
    converted, and then against limit if one is given."""
    digits = digits.lstrip("0") or "0"
    if len(digits) > _MAX_DIGITS:
        raise ParseError(
            f"{what} at line {pos[0]}, column {pos[1]} has more than {_MAX_DIGITS} digits"
        )
    n = int(digits)
    if limit is not None and n > limit:
        raise ParseError(
            f"{what} {n} at line {pos[0]}, column {pos[1]} exceeds the limit of {limit}"
        )
    return n


class _Parser:
    """Recursive descent that checks, while it builds each node, what the
    whole program must satisfy: the height of its syntax tree (`height` is
    that of the term last parsed), the parameters it uses and the variables
    it leaves unbound.  `parse_program` reports them once the input is read.
    """

    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.depth = 0
        self.height = 0
        self.used = 0  # the largest parameter index
        self.scope: list = []  # the names bound around the current position
        self.unbound: set = set()

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
        term = parse()  # an error ends the whole parse, so depth is not restored
        self.depth -= 1
        return term

    def parse_program(self) -> Program:
        declared = None
        if self.peek()[0] == "kw" and self.peek()[1] == "params":
            self.next()
            tok = self.expect("int", "parameter count")
            declared = _count(tok[1], "parameter count", tok[2], MAX_PARAMS)
            self.expect(";")
        term = self.parse_term()
        tok = self.peek()
        if tok[0] != "eof":
            raise ParseError(
                f"trailing input at line {tok[2][0]}, column {tok[2][1]}: {tok[1]!r}"
            )
        if self.height > MAX_DEPTH:
            raise ParseError(
                f"term nesting depth {self.height} exceeds the limit of {MAX_DEPTH}"
            )
        used = self.used
        if declared is not None:
            if used > declared:
                raise ParseError(
                    f"parameter X{used} used but only {declared} declared"
                )
            k = declared
        else:
            k = used
        if self.unbound:
            raise ParseError(f"unbound variable {min(self.unbound)!r}")
        return Program(term, k)

    def parse_term(self) -> Term:
        tok = self.tokens[self.i]
        if tok[0] == "\\":
            self.i += 1
            name = self.expect("ident", "binder name")[1]
            self.expect(".")
            self.scope.append(name)
            body = self.nested(self.parse_term, tok[2])
            self.scope.pop()
            self.height += 1
            return Lam(name, body)
        return self.parse_choice()

    def parse_choice(self) -> Term:
        left = self.parse_app()
        tok = self.tokens[self.i]
        if tok[0] == "+[":
            self.i += 1
            param = self._parse_param()
            self.expect("]")
            self.used = max(self.used, param)
            height = self.height
            right = self.nested(self.parse_choice, tok[2])  # right-associative
            self.height = max(height, self.height) + 1
            return Choice(param, left, right)
        return left

    def _parse_param(self) -> int:
        tok = self.expect("ident", "parameter name")
        name = tok[1]
        if name == "X":
            return 1
        if name.startswith("X") and name[1:].isascii() and name[1:].isdigit():
            idx = _count(name[1:], "parameter index", tok[2], MAX_PARAMS)
            if idx >= 1:
                return idx
        raise ParseError(
            f"bad parameter name {name!r} at line {tok[2][0]}, column {tok[2][1]}"
        )

    def parse_app(self) -> Term:
        term = self.parse_atom()
        tokens = self.tokens
        while True:
            kind, text, _ = tokens[self.i]
            if kind not in ("int", "ident", "(", "\\") and (
                kind != "kw" or text not in ("succ", "pred", "fix", "ifz")
            ):
                return term
            height = self.height
            term = App(term, self.parse_atom())
            self.height = max(height, self.height) + 1

    def parse_atom(self) -> Term:
        kind, text, pos = self.tokens[self.i]
        if kind == "int":
            self.i += 1
            self.height = 1
            return Num(_count(text, "numeral", pos))
        if kind == "ident":
            self.i += 1
            if text not in self.scope:
                self.unbound.add(text)
            self.height = 1
            return Var(text)
        if kind == "(":
            self.next()
            term = self.nested(self.parse_term, pos)
            self.expect(")")
            return term
        if kind == "\\":
            return self.parse_term()
        if kind == "kw":
            if text in ("succ", "pred", "fix"):
                self.next()
                body = self.nested(self.parse_atom, pos)
                if text == "succ" and type(body) is Num:  # the next literal
                    return Num(body.value + 1)
                self.height += 1
                return {"succ": Succ, "pred": Pred, "fix": Fix}[text](body)
            if text == "ifz":
                self.next()
                scrutinee = self.nested(self.parse_term, pos)
                height = self.height
                self._expect_kw("then")
                then = self.nested(self.parse_term, pos)
                height = max(height, self.height)
                self._expect_kw("else")
                orelse = self.nested(self.parse_term, pos)
                self.height = max(height, self.height) + 1
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
    """The representative of t; every variable on the way is pointed at it."""
    root = t
    while type(root) is _TVar and root.ref is not None:
        root = root.ref
    while t is not root:
        t.ref, t = root, t.ref
    return root


def _occurs(v, t):
    t = _resolve(t)
    if t is v:
        return True
    if type(t) is Arrow:
        return _occurs(v, t.arg) or _occurs(v, t.res)
    return False


def _unify(a, b):
    a, b = _resolve(a), _resolve(b)
    if a is b:
        return
    if type(a) is _TVar:
        if _occurs(a, b):
            raise TypeCheckError("cannot infer a type (recursive constraint)")
        a.ref = b
        return
    if type(b) is _TVar:
        _unify(b, a)
        return
    if type(a) is Arrow and type(b) is Arrow:
        _unify(a.arg, b.arg)
        _unify(a.res, b.res)
        return
    raise TypeCheckError(
        f"type mismatch: {_partial_text(a)} vs {_partial_text(b)}"
    )


def _partial_text(t):
    t = _resolve(t)
    if isinstance(t, _TVar):
        return f"?{t.id}"
    if isinstance(t, Arrow):
        return f"{_partial_text(t.arg)} -> {_partial_text(t.res)}"
    return t.name


@dataclass(slots=True)
class TypedTerm:
    """A term with its inferred simple type, its typed children and the
    variables free in it."""

    term: Term
    ty: SimpleType
    children: tuple
    free: frozenset


_NO_FREE = frozenset()


def _union(a: frozenset, b: frozenset) -> frozenset:
    if not a or a is b:
        return b
    return a | b if b else a


class _Inference:
    """Constraint-based simple type inference in one walk of the term.

    The cast rule lets any term of type Bool be used at type Nat, so
    subsumption constraints are collected as pairs (lower, upper) and solved
    to the least solution; remaining ground-flexible variables that never get
    forced are a sign of a genuinely ambiguous (polymorphic) term and are
    reported as uninferable.  Ground types are the singletons BOOL and NAT,
    so they compare by identity.  The walk creates every node once, with a
    type that may hold variables, and `finish` replaces that type in place.
    """

    def __init__(self):
        self.subs = []  # (lower, upper)
        self.open = []  # the nodes whose type may hold variables
        self.singletons = {}  # variable name -> the set of it alone

    def infer(self, t: Term, env: dict) -> TypedTerm:
        kind = type(t)
        if kind is Num:
            return TypedTerm(t, BOOL if t.value <= 1 else NAT, (), _NO_FREE)
        if kind is Var:
            ty = env.get(t.name)
            if ty is None:
                raise TypeCheckError(f"unbound variable {t.name!r}")
            free = self.singletons.get(t.name)
            if free is None:
                free = self.singletons[t.name] = frozenset((t.name,))
            children = ()
        elif kind is App:
            fun = self.infer(t.fun, env)
            arg = self.infer(t.arg, env)
            a, ty = _TVar(), _TVar()
            _unify(fun.ty, Arrow(a, ty))
            self.subs.append((arg.ty, a))
            children, free = (fun, arg), _union(fun.free, arg.free)
        elif kind is Lam:
            arg = _TVar()
            body = self.infer(t.body, {**env, t.name: arg})
            ty, children, free = Arrow(arg, body.ty), (body,), body.free
            if t.name in free:
                free = free - self.singletons[t.name]
        elif kind is Choice:
            left = self.infer(t.left, env)
            right = self.infer(t.right, env)
            ty = _TVar()
            self.subs += ((left.ty, ty), (right.ty, ty))
            children, free = (left, right), _union(left.free, right.free)
        elif kind is Ifz:
            scrutinee = self.infer(t.scrutinee, env)
            self.subs.append((scrutinee.ty, NAT))
            then = self.infer(t.then, env)
            orelse = self.infer(t.orelse, env)
            ty = _TVar()
            self.subs += ((then.ty, ty), (orelse.ty, ty))
            children = (scrutinee, then, orelse)
            free = _union(scrutinee.free, _union(then.free, orelse.free))
        elif kind is Succ or kind is Pred:
            body = self.infer(t.body, env)
            self.subs.append((body.ty, NAT))
            return TypedTerm(t, NAT, (body,), body.free)
        elif kind is Fix:
            body = self.infer(t.body, env)
            ty = _TVar()
            _unify(body.ty, Arrow(ty, ty))
            children, free = (body,), body.free
        else:
            raise TypeCheckError(f"unknown term {t!r}")
        node = TypedTerm(t, ty, children, free)
        self.open.append(node)
        return node

    def solve(self):
        pending = self.subs
        while True:
            keep = []
            for lower, upper in pending:
                lower, upper = _resolve(lower), _resolve(upper)
                if lower is upper or (lower is BOOL and upper is NAT):
                    continue
                # The cast applies at ground type only.
                if type(lower) is Arrow or type(upper) is Arrow or upper is BOOL or lower is NAT:
                    _unify(lower, upper)
                else:
                    keep.append((lower, upper))
            if len(keep) == len(pending):
                break
            pending = keep
        # The last pass dropped and unified nothing, so every remaining
        # constraint is Bool <= var, var <= Nat, or var <= var; the least
        # solution sends every such variable to Bool, which satisfies them all.
        for lower, upper in pending:
            for side in (lower, upper):
                side = _resolve(side)
                if type(side) is _TVar:
                    side.ref = BOOL

    def finish(self):
        """Give every node its type without variables, closing each type
        once.  `solve` satisfied every constraint, so none is checked again."""
        closed: dict = {}  # id of an Arrow -> its closed type, or None

        def close(t):
            """t without variables, or None if it has one left."""
            t = _resolve(t)
            if type(t) is not Arrow:
                return None if type(t) is _TVar else t
            out = closed.get(id(t), False)
            if out is False:
                arg, res = close(t.arg), close(t.res)
                out = None if arg is None or res is None else Arrow(arg, res)
                closed[id(t)] = out
            return out

        for node in self.open:
            ty = close(node.ty)
            if ty is None:
                raise TypeCheckError("cannot infer a type (unconstrained variable)")
            node.ty = ty


def annotate(term: Term) -> TypedTerm:
    """Infer simple types for a closed term, annotating every subterm with
    its type and free variables."""
    inf = _Inference()
    tt = inf.infer(term, {})
    inf.solve()
    inf.finish()
    return tt


def type_check(term: Term) -> SimpleType:
    """Principal simple type of a closed term; raises TypeCheckError."""
    return annotate(term).ty


def require_ground(ty: SimpleType) -> SimpleType:
    """ty, the type of a whole program, which may not be an arrow."""
    if isinstance(ty, Arrow):
        raise TypeCheckError("program has an arrow type; a ground type is required")
    return ty


# ---------------------------------------------------------------------------
# Runs
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


# The frames of the machine's stack.  Each is a tuple of its kind, its fields
# and the rest of the stack: an argument (_ARG, term, env, rest), a succ or
# pred around the focus (_SUCC, rest) or (_PRED, rest), and the branches of
# an ifz whose scrutinee is the focus (_IFZ, then, orelse, env, rest).
_ARG, _SUCC, _PRED, _IFZ = range(4)


def _explore(term: Term, max_steps: int, data, branch):
    """Run every path of a closed term within max_steps steps on a
    call-by-name environment machine, left branch first.

    A state is a focus, the environment of its free variables and a stack of
    frames.  An environment binds names to closures as linked tuples (name,
    term, env, rest); environments and stacks are persistent, so a choice
    forks a state without copying anything.  These are the steps: a β step, a
    fix unfolding, `pred` of a literal `succ M` (which cancels before M is
    evaluated), `pred` of a numeral, the selection of an ifz branch once the
    scrutinee is a numeral, and a choice.  Looking up a variable, pushing a
    frame and returning a numeral through succ frames are free.

    Each path carries data of its caller's: at a choice of parameter i,
    `branch(data, i)` gives the data of the left and of the right branch, or
    None for a branch not to take.  Each path taken is yielded as it ends, as
    (data, value, steps), where value is the numeral reached, the term the
    machine is stuck at, or None when the budget ran out before a step.
    Paths end in the order of their choice words.
    """
    todo = [(term, None, None, 0, data)]
    while todo:
        t, env, stack, steps, data = todo.pop()
        value = None
        while True:
            kind = type(t)
            if kind is Var:
                name = t.name
                while env is not None and env[0] != name:
                    env = env[3]
                if env is None:
                    value = t
                    break
                t, env = env[1], env[2]
            elif kind is App:
                stack = (_ARG, t.arg, env, stack)
                t = t.fun
            elif kind is Lam:
                if stack is None or stack[0] != _ARG:
                    value = t
                    break
                if steps >= max_steps:
                    break
                steps += 1
                env = (t.name, stack[1], stack[2], env)
                stack = stack[3]
                t = t.body
            elif kind is Ifz:
                stack = (_IFZ, t.then, t.orelse, env, stack)
                t = t.scrutinee
            elif kind is Succ:
                if stack is not None and stack[0] == _PRED:
                    if steps >= max_steps:
                        break
                    steps += 1
                    stack = stack[1]
                else:
                    stack = (_SUCC, stack)
                t = t.body
            elif kind is Pred:
                stack = (_PRED, stack)
                t = t.body
            elif kind is Num:
                n = t.value
                while stack is not None and stack[0] == _SUCC:
                    n += 1
                    stack = stack[1]
                if stack is None:
                    value = n
                    break
                if stack[0] == _ARG:
                    value = Num(n)
                    break
                if steps >= max_steps:
                    break
                steps += 1
                if stack[0] == _PRED:  # no succ frame sits on a pred frame
                    if n:
                        t = Num(n - 1)
                    stack = stack[1]
                else:
                    t, env = stack[1] if n == 0 else stack[2], stack[3]
                    stack = stack[4]
            elif kind is Choice:
                if steps >= max_steps:
                    break
                steps += 1
                data, right = branch(data, t.param)
                if right is not None:
                    todo.append((t.right, env, stack, steps, right))
                if data is None:
                    break
                t = t.left
            else:  # Fix
                if steps >= max_steps:
                    break
                steps += 1
                stack = (_ARG, t, env, stack)
                t = t.body
        if data is not None:
            yield data, value, steps


def _both(word: ChoiceWord, i: int):
    return word + ((i, 0),), word + ((i, 1),)


def enumerate_trajectories(program: Program, max_steps: int):
    """Yield every reduction path of a program, each within max_steps total
    steps, in the order of their choice words, as each path ends.

    Every trajectory either ends in a numeral or is marked unfinished.  A
    path whose budget runs out on a numeral ends in it.
    """
    k = program.params
    for word, value, steps in _explore(program.term, max_steps, (), _both):
        if isinstance(value, Term):
            if steps < max_steps:
                raise LangError(f"stuck non-numeral normal form: {term_to_text(value)}")
            value = None
        yield Trajectory(word, word_monomial(word, k), value, steps)


def find_words(
    program: Program, target: int, monomials, max_steps: int
) -> dict:
    """The smallest choice word of a run to `target` for each weight in
    `monomials`: {monomial: word}, without the monomials that have no such
    run within the step budget of each path.  A run counts only if it reaches
    its numeral in fewer than max_steps steps.

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

    def branch(data, i):
        word, used, open_ = data
        left = 2 * (i - 1)
        right = [m for m in open_ if m[left + 1] > used[left + 1] and m not in found]
        if right:
            rused = list(used)
            rused[left + 1] += 1
            right = (word + ((i, 1),), rused, right)
        else:
            right = None
        open_ = [m for m in open_ if m[left] > used[left] and m not in found]
        if not open_:
            return None, right
        used[left] += 1
        return (word + ((i, 0),), used, open_), right

    start = ((), [0] * (2 * program.params), list(wanted))
    for (word, used, _), value, steps in _explore(program.term, max_steps, start, branch):
        weight = tuple(used)
        if value == target and steps < max_steps and weight in wanted and weight not in found:
            found[weight] = word
            if len(found) == len(wanted):
                break
    return found
