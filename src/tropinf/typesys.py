"""Quantitative refinement typing with minimized weight polynomials.

Each subterm is assigned a family of typings (context, weight polynomial,
refinement type).  A refinement type is a plain value that orders itself: the
singleton type of the numeral n is the int n, and an arrow is an IArrow of a
sorted multiset of argument types and a result type.  Refinements of one
simple type are all ints or all IArrows, so sorting, grouping and hashing
need no key function.  Contexts map variables to multisets of refinement types;
weight polynomials are kept minimal throughout by replacing every product
with its Minkowski-sum minimization and re-minimizing after every merge of
equal (context, type) rows.  The family computed for the whole program under
bounds (n, p) collects every derivation that uses at most n fixpoint rule
applications and multisets of size at most p.  The binder of a β-redex
(λx. M) N is typed only at the types of N's rows, which may mention atoms
above p: a row of λx. M whose multiset holds any other type is never picked
by the application rule.  Every other binder (a λ passed as an argument, or
under fix) still ranges over `refinements`, whose atoms stop at p.  Only the
rows are kept, never the derivations: each rule maps the rows of the premises
to the rows of the conclusion.  A row names no run: the reducer does
(`lang.find_word`, called by `infer.analyze`).

`stabilize` annotates the program once and shares one `RowTable` between its
rounds.  A subterm without Fix has only rows of fixpoint count 0, which n
never changes, so its rows are kept across rounds, keyed by p and the β-redex
environment of the binders free in it; a subterm holding a Fix, and every Fix
unfolding, is rebuilt in every round.  Polynomials depend on neither bound,
and the table maps the inputs of every product, sum and choice shift to its
result, so one `stabilize` minimizes each distinct product, sum and shift
once, whichever subterm, unfolding or round asks for it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

from .algebra import Poly
from .geometry import np_min, vn
from .lang import (
    App,
    Arrow,
    BOOL,
    Choice,
    Fix,
    Ifz,
    Lam,
    NAT,
    Pred,
    Program,
    SimpleType,
    Succ,
    TypedTerm,
    TypeCheckError,
    Var,
    annotate,
    free_vars,
    numeral_value,
)


class TypesysError(Exception):
    pass


# ---------------------------------------------------------------------------
# Refinement types
# ---------------------------------------------------------------------------


class IArrow(NamedTuple):
    """A multiset of argument types (canonically sorted) and a result type."""

    args: tuple
    res: object


def iarrow(args, res) -> IArrow:
    return IArrow(tuple(sorted(args)), res)


def itype_to_text(t) -> str:
    if isinstance(t, int):
        return str(t)
    inner = ", ".join(itype_to_text(a) for a in t.args)
    return f"[{inner}] -o {itype_to_text(t.res)}"


def refinements(ty: SimpleType, p: int) -> list:
    """All refinement types of a simple type under the bound p.

    Ground types refine to atoms (0/1 for Bool, 0..p for Nat); arrows refine
    to a multiset of at most p argument refinements and a result refinement.
    Only the binders that flow does not reach yet use it: those of a λ that is
    not the function of a β-redex, such as a λ passed as an argument or the
    binders under fix.
    """
    if ty == BOOL:
        return [0, 1]
    if ty == NAT:
        return list(range(max(p, 1) + 1))
    if isinstance(ty, Arrow):
        arg_refs = refinements(ty.arg, p)
        out = []
        for res in refinements(ty.res, p):
            for size in range(p + 1):
                for combo in itertools.combinations_with_replacement(arg_refs, size):
                    out.append(iarrow(combo, res))
        return sorted(out)
    raise TypesysError(f"cannot refine {ty!r}")


# ---------------------------------------------------------------------------
# Contexts and judgement entries
# ---------------------------------------------------------------------------

# A context is a sorted tuple of (name, multiset) with multiset a sorted
# tuple of refinement types; variables with empty multisets are dropped.
ITypeContext = tuple


def ctx_of(name: str, itype) -> ITypeContext:
    return ((name, (itype,)),)


def ctx_sum(*ctxs: ITypeContext) -> ITypeContext:
    bags: dict = {}
    for ctx in ctxs:
        for name, ms in ctx:
            bags.setdefault(name, []).extend(ms)
    return tuple((name, tuple(sorted(bags[name]))) for name in sorted(bags))


def ctx_split(ctx: ITypeContext, name: str) -> tuple:
    """Remove a variable from a context, returning (its multiset, rest)."""
    ms = ()
    rest = []
    for key, bag in ctx:
        if key == name:
            ms = bag
        else:
            rest.append((key, bag))
    return ms, tuple(rest)


@dataclass(frozen=True)
class Entry:
    """One row of a judgement: context |-^poly itype.

    poly is minimized; fixes counts fixpoint rule uses.  Rows are frozen
    because the rounds of one `stabilize` share them (see `RowTable`).
    """

    ctx: ITypeContext
    itype: object
    poly: Poly
    fixes: int

    def key(self):
        return (self.ctx, self.itype, self.fixes)


@dataclass
class TropJudgement:
    entries: list
    dim: int


# A memo maps the inputs of a minimization to its result: ("*", polys) to the
# minimized product, ("+", set of polys) to the minimized sum, and (poly,
# param, bit) to the shift of a choice branch.  A polynomial depends on
# neither n nor p, so one memo serves every round of a `stabilize` (see
# `RowTable`).


def _sum_min(polys: tuple, memo: dict) -> Poly:
    """The minimized sum of a non-empty tuple of minimized polynomials; a
    single one is returned as it is.

    Minimization reads only the support, so the sum is keyed by the set of
    its summands: neither their order nor their repeats change it.
    """
    if len(polys) == 1:
        return polys[0]
    key = ("+", frozenset(polys))
    out = memo.get(key)
    if out is None:
        out = memo[key] = np_min(sum(polys[1:], polys[0]))
    return out


def merge(entries, memo: dict | None = None) -> list:
    """Collapse rows with equal (context, type, fixpoint count), summing and
    re-minimizing.

    Rows are kept apart by their fixpoint-use count so budget accounting stays
    exact.  A row alone in its group is kept as it is.
    """
    if memo is None:
        memo = {}
    groups: dict = {}
    for e in entries:
        groups.setdefault(e.key(), []).append(e)
    out = [
        g[0] if len(g) == 1
        else Entry(
            g[0].ctx, g[0].itype, _sum_min(tuple(e.poly for e in g), memo), g[0].fixes
        )
        for g in groups.values()
    ]
    out.sort(key=Entry.key)
    return out


def _combine(entries, itype, fixes: int, dim: int, memo: dict) -> Entry:
    """Multiply a list of rows into a row of type itype: contexts add,
    polynomials multiply minimized."""
    ctx = ctx_sum(*(e.ctx for e in entries))
    key = ("*", tuple(e.poly for e in entries))
    poly = memo.get(key)
    if poly is None:
        poly = memo[key] = vn(key[1], dim)
    return Entry(ctx, itype, poly, fixes)


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


def _rule_atom(op: str, step, entries, memo: dict):
    """succ and pred: map the atom of every row through step."""
    out = []
    for e in entries:
        if not isinstance(e.itype, int):
            raise TypesysError(f"{op} applied to a non-atom refinement")
        out.append(Entry(e.ctx, step(e.itype), e.poly, e.fixes))
    return merge(out, memo)


def _rule_choice(param, left_entries, right_entries, dim, memo: dict):
    out = []
    for bit, entries in ((0, left_entries), (1, right_entries)):
        m = [0] * dim
        m[2 * (param - 1) + bit] = 1
        shift = tuple(m)
        for e in entries:
            key = (e.poly, param, bit)
            poly = memo.get(key)
            if poly is None:
                poly = memo[key] = e.poly.shift(shift)
            out.append(Entry(e.ctx, e.itype, poly, e.fixes))
    return merge(out, memo)


def _rule_ifz(
    scrutinee_entries, then_entries, else_entries, dim, max_fixes, memo: dict
):
    out = []
    for e_s in scrutinee_entries:
        if not isinstance(e_s.itype, int):
            raise TypesysError("ifz scrutinee with a non-atom refinement")
        branch = then_entries if e_s.itype == 0 else else_entries
        for e_b in branch:
            fixes = e_s.fixes + e_b.fixes
            if fixes <= max_fixes:
                out.append(_combine([e_s, e_b], e_b.itype, fixes, dim, memo))
    return merge(out, memo)


def _rule_lam(name, entries, dim, p):
    out = []
    for e in entries:
        ms, rest = ctx_split(e.ctx, name)
        if len(ms) > p:
            continue
        out.append(Entry(rest, iarrow(ms, e.itype), e.poly, e.fixes))
    return merge(out)


def _assignments(args, pool):
    """All unordered ways to pick one pool entry per multiset element.

    args is a sorted tuple of refinement types; pool maps a type to the
    candidate entries with that type.  Yields lists of entries aligned with
    args (used both by application and by fixpoint unfolding).
    """
    by_type = []
    for itype, group in itertools.groupby(args):
        count = len(list(group))
        candidates = pool.get(itype, [])
        by_type.append((count, candidates))
    choices_per_type = []
    for count, candidates in by_type:
        if len(candidates) < (1 if count else 0):
            return
        choices_per_type.append(
            list(itertools.combinations_with_replacement(candidates, count))
        )
    for picks in itertools.product(*choices_per_type):
        yield [e for pick in picks for e in pick]


def _pool(entries) -> dict:
    pool: dict = {}
    for e in entries:
        pool.setdefault(e.itype, []).append(e)
    return pool


def _rule_app(fun_entries, arg_entries, dim, max_fixes, memo: dict, fix=0):
    """Arrow rows of the function against one argument row per member of the
    argument multiset.  A fixpoint unfolding is the same rule with the current
    fixpoint rows as arguments and fix=1 more fixpoint use."""
    out = []
    pool = _pool(arg_entries)
    for e_f in fun_entries:
        if not isinstance(e_f.itype, IArrow):
            continue
        for picked in _assignments(e_f.itype.args, pool):
            fixes = e_f.fixes + sum(e.fixes for e in picked) + fix
            if fixes <= max_fixes:
                out.append(_combine([e_f] + picked, e_f.itype.res, fixes, dim, memo))
    return merge(out, memo)


# ---------------------------------------------------------------------------
# Bounded search
# ---------------------------------------------------------------------------


def _mark_fix_free(tt: TypedTerm, out: set) -> bool:
    """Add the id of every subterm of tt that holds no Fix node to out."""
    free = not isinstance(tt.term, Fix)
    for child in tt.children:
        free = _mark_fix_free(child, out) and free
    if free:
        out.add(id(tt))
    return free


class RowTable:
    """A program annotated once, the rows of its Fix-free subterms, and a memo
    of minimized polynomials.

    Every row of a subterm without Fix has fixpoint count 0, so n never
    changes its rows: they depend only on the subterm, p and the β-redex
    environment of the binders free in it.  One table serves the rounds of
    one `stabilize`; it keeps rows under (subterm, environment) for the
    current p and drops them all when p changes, since rows at a smaller p are
    never asked for again.  Subterms are keyed by id, which stays valid
    because the table holds the annotated tree.  The memo of minimized sums,
    products and shifts depends on neither n nor p, so it is kept for the
    table's whole life.
    """

    def __init__(self, program: Program):
        self.tt = annotate(program.term)
        if isinstance(self.tt.ty, Arrow):
            raise TypeCheckError("program has an arrow type; a ground type is required")
        self.fix_free: set = set()
        _mark_fix_free(self.tt, self.fix_free)
        self.free: dict = {}  # subterm id -> free variables, computed on demand
        self.p = None
        self.rows: dict = {}
        self.memo: dict = {}

    def at(self, p: int) -> dict:
        """The rows kept for bound p."""
        if p != self.p:
            self.p, self.rows = p, {}
        return self.rows


class _Search:
    def __init__(self, k: int, n: int, p: int, table: RowTable):
        self.dim = 2 * k
        self.n = n
        self.p = p
        self.fix_free = table.fix_free
        self.free = table.free
        self.rows = table.at(p)
        self.memo = table.memo
        self.unit = Poly.unit(self.dim)

    def build(self, tt: TypedTerm, env: dict) -> list:
        """The rows of the bounded family of typings of tt.

        env maps a β-redex binder in scope to the sorted types of its
        argument's rows; every other variable ranges over `refinements`.
        The rows of a Fix-free subterm are built once per p and environment
        of its free variables.
        """
        if id(tt) not in self.fix_free:
            return self._rule(tt, env)
        if env:
            # A binder not free in tt never reaches its rows.
            free = self.free.get(id(tt))
            if free is None:
                free = self.free[id(tt)] = free_vars(tt.term)
            env = {x: types for x, types in env.items() if x in free}
        key = (id(tt), frozenset(env.items()))
        rows = self.rows.get(key)
        if rows is None:
            rows = self.rows[key] = self._rule(tt, env)
        return rows

    def _rule(self, tt: TypedTerm, env: dict) -> list:
        term = tt.term
        dim = self.dim
        memo = self.memo
        value = numeral_value(term)
        if value is not None:
            return [Entry((), value, self.unit, 0)]
        if isinstance(term, Var):
            types = env.get(term.name)
            if types is None:
                types = refinements(tt.ty, self.p)
            return [Entry(ctx_of(term.name, a), a, self.unit, 0) for a in types]
        if isinstance(term, App) and isinstance(term.fun, Lam):
            # A λ row whose binder takes a type no argument row has is never
            # picked by _rule_app, so the body is typed at the argument's types.
            lam, name = tt.children[0], term.fun.name
            arg = self.build(tt.children[1], env)
            types = tuple(sorted({e.itype for e in arg}))
            body = self.build(lam.children[0], {**env, name: types})
            lam_rows = _rule_lam(name, body, dim, self.p)
            return _rule_app(lam_rows, arg, dim, self.n, memo)
        if isinstance(term, Lam):
            env = {x: types for x, types in env.items() if x != term.name}
        subs = [self.build(c, env) for c in tt.children]
        if isinstance(term, Succ):
            return _rule_atom("succ", lambda n: n + 1, subs[0], memo)
        if isinstance(term, Pred):
            return _rule_atom("pred", lambda n: max(n - 1, 0), subs[0], memo)
        if isinstance(term, Choice):
            return _rule_choice(term.param, subs[0], subs[1], dim, memo)
        if isinstance(term, Ifz):
            return _rule_ifz(subs[0], subs[1], subs[2], dim, self.n, memo)
        if isinstance(term, Lam):
            return _rule_lam(term.name, subs[0], dim, self.p)
        if isinstance(term, App):
            return _rule_app(subs[0], subs[1], dim, self.n, memo)
        if isinstance(term, Fix):
            # Unfold until a round reproduces the previous one's rows.
            entries, seen = [], None
            while True:
                unfolded = _rule_app(subs[0], entries, dim, self.n, memo, fix=1)
                fingerprint = [(e.key(), e.poly) for e in unfolded]
                if fingerprint == seen:
                    return entries
                entries, seen = unfolded, fingerprint
        raise TypesysError(f"cannot type {term!r}")


def search(
    program: Program, target: int, n: int, p: int, table: RowTable | None = None
) -> TropJudgement:
    """The bounded family of typings of a program under bounds (n, p).

    Returns the judgement for the whole program; use conclusion_poly to
    extract the polynomial of the closed rows at a ground target atom.
    `table` must come from the same program; rounds that share one reuse the
    rows of its Fix-free subterms, its minimized polynomials and its
    annotation.  Without it the search starts from a fresh table; the rows
    are the same either way.
    """
    if table is None:
        table = RowTable(program)
    bounded = _Search(program.params, n, p, table)
    return TropJudgement(bounded.build(table.tt, {}), bounded.dim)


def conclusion_poly(
    judgement: TropJudgement, target: int, memo: dict | None = None
) -> Poly:
    """The minimized sum of the closed rows at atom `target`, across fixpoint
    counts; the zero polynomial when there is none.  `memo` is the memo of
    the `RowTable` the judgement came from, if any."""
    hits = tuple(e.poly for e in judgement.entries if e.ctx == () and e.itype == target)
    if not hits:
        return Poly.zero(judgement.dim)
    return _sum_min(hits, {} if memo is None else memo)


# ---------------------------------------------------------------------------
# Stabilization
# ---------------------------------------------------------------------------


def bound_schedule():
    """(1,1), (2,1), (2,2), (3,2), (3,3), ... alternating increments."""
    n = p = 1
    while True:
        yield n, p
        if n == p:
            n += 1
        else:
            p += 1


@dataclass
class StabilizeResult:
    judgement: TropJudgement
    poly: Poly
    stable: bool
    rounds: list  # of (n, p) actually run


def stabilize(
    program: Program, target: int, window: int = 2, max_rounds: int = 16
) -> StabilizeResult:
    """Grow the search bounds until the conclusion polynomial stops changing.

    Declares stability when the last `window` bound increments all left the
    polynomial unchanged, i.e. the last window + 1 rounds agree.  Since the
    schedule alternates increments of n and p, the default window of 2 only
    accepts a polynomial that survived both a recursion-budget increase and a
    multiset-size increase.  Gives up (stable=False) after max_rounds rounds.
    Raises ValueError unless window and max_rounds are at least 1.
    """
    if window < 1 or max_rounds < 1:
        raise ValueError(
            f"window and max_rounds must be at least 1, got {window} and {max_rounds}"
        )
    table = RowTable(program)
    history = []
    rounds = []
    for n, p in itertools.islice(bound_schedule(), max_rounds):
        judgement = search(program, target, n, p, table)
        poly = conclusion_poly(judgement, target, table.memo)
        rounds.append((n, p))
        history.append(poly)
        if len(history) >= window + 1 and all(
            h == history[-1] for h in history[-(window + 1):]
        ):
            return StabilizeResult(judgement, poly, True, rounds)
    return StabilizeResult(judgement, poly, False, rounds)
