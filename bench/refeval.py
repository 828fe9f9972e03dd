"""The benchmark's own model of the object language, independent of tropinf.

Terms are tuples:

    ("num", n)  ("var", x)  ("lam", x, body)  ("app", f, a)  ("fix", body)
    ("succ", t)  ("pred", t)  ("ifz", s, then, else)  ("choice", i, left, right)

This module parses `.pcfx` source into that form, prints it back as source,
draws random typed programs from a seed, and evaluates programs call by name.
The evaluator enumerates runs as (numeral, choice word) pairs and replays a
given word; a choice word is a tuple of (parameter, bit) pairs, bit 0 for the
left branch (weight Xi) and bit 1 for the right one (weight ~Xi).  Choices are
met in the order of weak-head call-by-name reduction, so words are comparable
with those tropinf reports.
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction


class SourceError(ValueError):
    pass


class OutOfFuel(Exception):
    """A replay went past its step budget."""


# ---------------------------------------------------------------------------
# Parsing and printing
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s+|#[^\n]*|(\d+)|([A-Za-z_]\w*)|(\+\[|[\\.();\]])")
_KEYWORDS = {"succ", "pred", "fix", "ifz", "then", "else", "params"}
_ATOM_START = {"int", "ident", "(", "\\", "succ", "pred", "fix", "ifz"}


def _tokens(source: str) -> list:
    out = []
    pos = 0
    while pos < len(source):
        m = _TOKEN.match(source, pos)
        if not m:
            raise SourceError(f"unexpected character {source[pos]!r}")
        pos = m.end()
        if m.group(1):
            out.append(("int", int(m.group(1))))
        elif m.group(2):
            word = m.group(2)
            out.append((word, word) if word in _KEYWORDS else ("ident", word))
        elif m.group(3):
            out.append((m.group(3), m.group(3)))
    out.append(("eof", None))
    return out


class _Reader:
    def __init__(self, source: str):
        self.toks = _tokens(source)
        self.i = 0

    def kind(self):
        return self.toks[self.i][0]

    def take(self, kind):
        tok = self.toks[self.i]
        if tok[0] != kind:
            raise SourceError(f"expected {kind}, found {tok[1]!r}")
        self.i += 1
        return tok[1]

    def term(self):
        if self.kind() == "\\":
            self.take("\\")
            name = self.take("ident")
            self.take(".")
            return ("lam", name, self.term())
        return self.choice()

    def choice(self):
        left = self.app()
        if self.kind() != "+[":
            return left
        self.take("+[")
        name = self.take("ident")
        digits = name[1:] or "1"
        if name[0] != "X" or not digits.isdigit() or int(digits) < 1:
            raise SourceError(f"bad parameter name {name!r}")
        self.take("]")
        return ("choice", int(digits), left, self.choice())  # right-associative

    def app(self):
        t = self.atom()
        while self.kind() in _ATOM_START:
            t = ("app", t, self.atom())
        return t

    def atom(self):
        kind = self.kind()
        if kind == "int":
            return ("num", self.take("int"))
        if kind == "ident":
            return ("var", self.take("ident"))
        if kind == "(":
            self.take("(")
            t = self.term()
            self.take(")")
            return t
        if kind == "\\":
            return self.term()
        if kind in ("succ", "pred", "fix"):
            self.take(kind)
            return (kind, self.atom())
        if kind == "ifz":
            self.take("ifz")
            s = self.term()
            self.take("then")
            t = self.term()
            self.take("else")
            return ("ifz", s, t, self.term())
        raise SourceError(f"unexpected {self.toks[self.i][1]!r}")


def parse(source: str) -> tuple:
    """(term, number of parameters) of a `.pcfx` program."""
    r = _Reader(source)
    declared = None
    while r.kind() == "params":
        r.take("params")
        declared = r.take("int")
        r.take(";")
    term = r.term()
    r.take("eof")
    return term, declared if declared is not None else max_param(term)


def max_param(t) -> int:
    if t[0] == "choice":
        return max(t[1], max_param(t[2]), max_param(t[3]))
    return max((max_param(c) for c in t[1:] if isinstance(c, tuple)), default=0)


def size(t) -> int:
    return 1 + sum(size(c) for c in t[1:] if isinstance(c, tuple))


def to_source(t) -> str:
    """Source text that parses back to t; every compound subterm is bracketed."""
    tag = t[0]
    if tag == "num":
        return str(t[1])
    if tag == "var":
        return t[1]
    if tag == "lam":
        return f"\\{t[1]}. {to_source(t[2])}"
    if tag == "app":
        return f"{_br(t[1])} {_br(t[2])}"
    if tag in ("succ", "pred", "fix"):
        return f"{tag} {_br(t[1])}"
    if tag == "ifz":
        return f"ifz {_br(t[1])} then {_br(t[2])} else {_br(t[3])}"
    return f"{_br(t[2])} +[X{t[1]}] {_br(t[3])}"


def _br(t) -> str:
    return to_source(t) if t[0] in ("num", "var") else f"({to_source(t)})"


def program_source(term, k: int) -> str:
    return f"params {k}; {to_source(term)}"


# ---------------------------------------------------------------------------
# Random typed programs
# ---------------------------------------------------------------------------

BOOL, NAT = "Bool", "Nat"
_ARG_TYPES = (BOOL, NAT, BOOL, NAT, (BOOL, BOOL), (NAT, NAT))
# Uses per bound variable of ground type and of function type.  A function
# used twice is the duplication that `towers` measures; in a program of this
# size it can make the refinements explode past any deadline.
MAX_USES = 2
MAX_FUNCTION_USES = 1
MAX_NODES = 30  # size of the largest program drawn
REPLAY_STEPS = 100000  # evaluation steps a replay may take


def _fits(have, want) -> bool:
    # Bool is a subtype of Nat; arrows must match exactly.
    return have == want or (have == BOOL and want == NAT)


class ProgramGenerator:
    """Closed, fix-free programs of ground type with at most MAX_NODES nodes.

    Every binder is used at least once, so simple-type inference never meets
    an unconstrained variable, and at most MAX_USES or MAX_FUNCTION_USES
    times.  Numerals go up to 3 and `succ` can push values past the
    refinement bound, as in ordinary programs.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.fresh = 0
        self.uses = {}

    def draw(self) -> tuple:
        """(term, k) for the next program of the stream."""
        while True:
            k = self.rng.choice((2, 3))
            ty = self.rng.choice((BOOL, NAT))
            self.fresh = 0
            self.uses = {}
            term = self._gen(ty, {}, self.rng.randint(1, MAX_NODES), k)
            if size(term) <= MAX_NODES and _binders_used(term):
                return term, k

    def _gen(self, ty, env, budget, k):
        rng = self.rng
        if isinstance(ty, tuple):
            arg, res = ty
            same = [v for v, t in env.items()
                    if t == ty and self.uses[v] < MAX_FUNCTION_USES]
            if same and (budget < 3 or rng.random() < 0.3):
                return self._var(same)
            if budget >= 6 and rng.random() < 0.15:
                half = (budget - 1) // 2
                return ("choice", rng.randint(1, k), self._gen(ty, env, half, k),
                        self._gen(ty, env, half, k))
            self.fresh += 1
            name = f"v{self.fresh}"
            self.uses[name] = 0
            return ("lam", name, self._gen(res, {**env, name: arg}, budget - 1, k))
        usable = [v for v, t in env.items() if _fits(t, ty) and self.uses[v] < MAX_USES]
        if budget <= 2:
            if usable and rng.random() < 0.6:
                return self._var(usable)
            return ("num", rng.randint(0, 1 if ty == BOOL else 3))
        forms = ["choice", "choice", "ifz", "app", "app"]
        if ty == NAT:
            forms += ["succ", "pred"]
        form = rng.choice(forms)
        if form in ("succ", "pred"):
            return (form, self._gen(NAT, env, budget - 1, k))
        if form == "choice":
            half = (budget - 1) // 2
            return ("choice", rng.randint(1, k), self._gen(ty, env, half, k),
                    self._gen(ty, env, budget - 1 - half, k))
        if form == "ifz":
            third = (budget - 1) // 3
            return ("ifz", self._gen(NAT, env, third, k), self._gen(ty, env, third, k),
                    self._gen(ty, env, budget - 1 - 2 * third, k))
        arg = rng.choice(_ARG_TYPES)
        half = (budget - 1) // 2
        return ("app", self._gen((arg, ty), env, budget - 1 - half, k),
                self._gen(arg, env, half, k))

    def _var(self, names):
        name = self.rng.choice(names)
        self.uses[name] += 1
        return ("var", name)


def _binders_used(t) -> bool:
    if t[0] == "lam":
        return _occurs(t[1], t[2]) and _binders_used(t[2])
    return all(_binders_used(c) for c in t[1:] if isinstance(c, tuple))


def _occurs(name, t) -> bool:
    if t[0] == "var":
        return t[1] == name
    if t[0] == "lam" and t[1] == name:
        return False
    return any(_occurs(name, c) for c in t[1:] if isinstance(c, tuple))


# ---------------------------------------------------------------------------
# Call-by-name evaluation
# ---------------------------------------------------------------------------


class _Closure:
    __slots__ = ("name", "body", "env")

    def __init__(self, name, body, env):
        self.name, self.body, self.env = name, body, env


def runs(term, fuel):
    """Every run of a closed program with at most `fuel` choices.

    Yields (value, word); runs that would need more choices are cut.  Fix-free
    programs have finitely many runs, so a fuel above their longest word makes
    the enumeration complete.
    """
    yield from _runs(term, {}, fuel)


def _runs(t, env, fuel):
    tag = t[0]
    if tag == "num":
        yield t[1], ()
    elif tag == "var":
        term, cenv = env[t[1]]
        yield from _runs(term, cenv, fuel)
    elif tag == "lam":
        yield _Closure(t[1], t[2], env), ()
    elif tag in ("app", "fix"):
        fun, arg = (t[1], t[2]) if tag == "app" else (t[1], t)
        for f, w1 in _runs(fun, env, fuel):
            inner = {**f.env, f.name: (arg, env)}
            for v, w2 in _runs(f.body, inner, fuel - len(w1)):
                yield v, w1 + w2
    elif tag == "succ":
        for v, w in _runs(t[1], env, fuel):
            yield v + 1, w
    elif tag == "pred":
        for v, w in _runs(t[1], env, fuel):
            yield max(v - 1, 0), w
    elif tag == "ifz":
        for v, w1 in _runs(t[1], env, fuel):
            for r, w2 in _runs(t[2] if v == 0 else t[3], env, fuel - len(w1)):
                yield r, w1 + w2
    elif fuel > 0:  # choice
        for bit, branch in ((0, t[2]), (1, t[3])):
            for v, w in _runs(branch, env, fuel - 1):
                yield v, ((t[1], bit),) + w


def replay(term, word):
    """The numeral a run following `word` reaches, or None.

    None means the word disagrees with the program (wrong parameter, too short
    or too long); OutOfFuel is raised past REPLAY_STEPS evaluation steps.
    """
    state = [0, 0]  # position in word, steps
    try:
        value = _replay(term, {}, word, state)
    except _Mismatch:
        return None
    return value if state[0] == len(word) else None


class _Mismatch(Exception):
    pass


def _replay(t, env, word, state):
    while True:
        state[1] += 1
        if state[1] > REPLAY_STEPS:
            raise OutOfFuel()
        tag = t[0]
        if tag == "num":
            return t[1]
        if tag == "var":
            t, env = env[t[1]]
        elif tag == "lam":
            return _Closure(t[1], t[2], env)
        elif tag in ("app", "fix"):
            fun, arg = (t[1], t[2]) if tag == "app" else (t[1], t)
            f = _replay(fun, env, word, state)
            t, env = f.body, {**f.env, f.name: (arg, env)}
        elif tag == "succ":
            return _replay(t[1], env, word, state) + 1
        elif tag == "pred":
            return max(_replay(t[1], env, word, state) - 1, 0)
        elif tag == "ifz":
            t = t[2] if _replay(t[1], env, word, state) == 0 else t[3]
        else:  # choice
            pos = state[0]
            if pos >= len(word) or word[pos][0] != t[1]:
                raise _Mismatch()
            state[0] = pos + 1
            t = t[2] if word[pos][1] == 0 else t[3]


def word_monomial(word, k: int) -> tuple:
    exps = [0] * (2 * k)
    for param, bit in word:
        exps[2 * (param - 1) + bit] += 1
    return tuple(exps)


def probability(word, ps) -> Fraction:
    """Exact probability of a run under left-branch probabilities ps."""
    out = Fraction(1)
    for param, bit in word:
        q = ps[param - 1]
        out *= q if bit == 0 else 1 - q
    return out


def has_fix(t) -> bool:
    return t[0] == "fix" or any(has_fix(c) for c in t[1:] if isinstance(c, tuple))


class Reference:
    """What the reference knows about one program at one target.

    `best[i]` is the highest probability of a run to the target at point i
    (0 when no run reaches it).  `complete` says the enumeration saw every
    run: it does for fix-free programs, which have finitely many.  With `fix`
    only runs of at most `fix_fuel` choices are seen, and `best` is a lower
    bound.
    """

    def __init__(self, term, k: int, target: int, points, fix_fuel: int):
        self.term = term
        self.k = k
        self.target = target
        self.complete = not has_fix(term)
        fuel = math.inf if self.complete else fix_fuel
        words = [w for v, w in runs(term, fuel) if v == target]
        self.reaches = bool(words)
        self.best = [max((probability(w, ps) for w in words), default=Fraction(0))
                     for ps in points]
