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
bound n collects every derivation that uses at most n fixpoint rule
applications.  A binder is typed only at the types that reach it: a row of
λx. M whose multiset holds any other type is never picked by the application
rule.  The binder of a β-redex (λx. M) N takes the types of N's rows.  Every
other binder, that of a flow λ (a λ passed as an argument, returned, or
under fix), takes the union of the row types of the arguments of the calls
that 0-CFA says may reach it (`_flow`), iterated until no set grows; fix M
counts as M applied to fix M, so the f of fix (λf. M) takes the rows of each
unfolding before the next.  A type that reaches a binder by a call through
a fixpoint binder, by a call of a λ from inside its own body (a charged
call), or by a call of a λ that such a call passed or returned, costs one
unfolding more than its argument's row, and a type that costs more than n
is dropped, so a recursion that feeds its binders ever larger
atoms stops, with or without fix.  Only the rows are kept, never the
derivations: each rule maps the rows of the premises to the rows of the
conclusion.  A row names no run: the reducer does (`lang.find_words`,
called by `infer.analyze`).

`stabilize` annotates the program once and shares one `RowTable` between its
rounds.  The annotation gives every subterm its free variables, and one walk
of the annotated tree finds the plain subterms, those holding neither a Fix
node nor a flow λ, and the flow of types to binders.  A plain subterm has
only rows of fixpoint count 0, which n never changes, so its rows are kept
for the table's whole life, keyed by the types of the binders free in it.
Every other subterm, and every Fix unfolding, is rebuilt each time a search
reaches it.  Application, unfolding and ifz share one product rule
(`_Search._products`), which checks the dominance certificate on what it
drops; `stabilize` stops at the first round whose certificate holds, n = 1
for a program with no Fix node and no charged call.
Polynomials do not depend on n, and the table maps the inputs of every
product, sum and choice shift to its result, so one `stabilize` minimizes
each distinct product, sum and shift once, whichever subterm, unfolding or
round asks for it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

from .algebra import Poly, dominated
from .geometry import np_min, vn
from .lang import (
    App,
    Arrow,
    Choice,
    Fix,
    Ifz,
    Lam,
    Num,
    Pred,
    Program,
    Succ,
    TypedTerm,
    Var,
    annotate,
    require_ground,
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


# ---------------------------------------------------------------------------
# Contexts and judgement entries
# ---------------------------------------------------------------------------

# A context is a sorted tuple of (name, multiset) with multiset a sorted
# tuple of refinement types; variables with empty multisets are dropped.
ITypeContext = tuple


def ctx_of(name: str, itype) -> ITypeContext:
    return ((name, (itype,)),)


def ctx_sum(*ctxs: ITypeContext) -> ITypeContext:
    ctxs = [ctx for ctx in ctxs if ctx]
    if len(ctxs) < 2:
        # Contexts are canonical, so a lone one is its own sum.
        return ctxs[0] if ctxs else ()
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


class Entry(NamedTuple):
    """One row of a judgement: context |-^poly itype, an immutable `NamedTuple`.

    poly is minimized; fixes counts fixpoint rule uses.  Rows are immutable
    because the rounds of one `stabilize` share them (see `RowTable`).
    """

    ctx: ITypeContext
    itype: object
    poly: Poly
    fixes: int

    def key(self):
        return (self.ctx, self.itype, self.fixes)


@dataclass(frozen=True)
class TropJudgement:
    """The rows of a whole program, immutable like the rows themselves."""

    entries: tuple
    dim: int
    exact: bool = False  # a larger n adds no monomial at any target


# A memo maps the inputs of a minimization to its result: ("*", polys) to the
# minimized product, ("+", set of polys) to the minimized sum, and (poly,
# param, bit) to the shift of a choice branch.  A polynomial does not depend
# on n, so one memo serves every round of a `stabilize` (see `RowTable`).


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
        union = frozenset().union(*(s.coeffs for s in key[1]))
        out = memo[key] = np_min(Poly._of(polys[0].dim, union))
    return out


def merge(entries, memo: dict | None = None) -> list:
    """Collapse rows with equal (context, type, fixpoint count), summing and
    re-minimizing.

    Rows are kept apart by their fixpoint-use count so budget accounting stays
    exact.  A row alone in its group is kept as it is.
    """
    if len(entries) < 2:
        return list(entries)
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


def _combine(entries, itype, fixes: int, memo: dict) -> Entry:
    """Multiply a list of rows into a row of type itype: contexts add,
    polynomials multiply minimized."""
    ctx = ctx_sum(*(e.ctx for e in entries))
    key = ("*", tuple(e.poly for e in entries))
    poly = memo.get(key)
    if poly is None:
        poly = memo[key] = vn(key[1])
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


def _rule_ifz(scrutinee_entries, then_entries, else_entries):
    """The premises of ifz: each scrutinee row with each row of the branch its
    atom selects."""
    for e_s in scrutinee_entries:
        if not isinstance(e_s.itype, int):
            raise TypesysError("ifz scrutinee with a non-atom refinement")
        for e_b in then_entries if e_s.itype == 0 else else_entries:
            yield [e_s, e_b], e_b.itype


def _rule_lam(name, entries):
    """The arrow rows of λname over the body rows."""
    out = []
    for e in entries:
        ms, rest = ctx_split(e.ctx, name)
        out.append(Entry(rest, iarrow(ms, e.itype), e.poly, e.fixes))
    return merge(out)


def _assignments(args, pool):
    """All unordered ways to pick one pool entry per multiset element.

    args is a sorted tuple of refinement types; pool maps a type to the
    candidate entries with that type.  Yields lists of entries aligned with
    args (used both by application and by fixpoint unfolding).
    """
    choices_per_type = []
    for itype, group in itertools.groupby(args):
        candidates = pool.get(itype)
        if not candidates:
            return
        count = len(list(group))
        choices_per_type.append(
            list(itertools.combinations_with_replacement(candidates, count))
        )
    for picks in itertools.product(*choices_per_type):
        yield [e for pick in picks for e in pick]


def _rule_app(fun_entries, arg_entries):
    """The premises of an application: each arrow row of the function with
    one argument row per member of its argument multiset."""
    pool = {}
    for e in arg_entries:
        pool.setdefault(e.itype, []).append(e)
    for e_f in fun_entries:
        for picked in _assignments(e_f.itype.args, pool):
            yield [e_f] + picked, e_f.itype.res


# ---------------------------------------------------------------------------
# Flow: the types that reach each binder
# ---------------------------------------------------------------------------

# The types that reach a binder are a sorted tuple of (type, cost) pairs.  The
# cost of a type counts the unfoldings it took to reach the binder (the steps
# of `_flow`); `_Search` drops every type that costs more than n.


def _reaching(rows, env) -> tuple:
    """The (type, cost) pairs of rows, sorted by type.

    A row costs the most that any type in its context costs (env maps the
    variables in scope to their pairs); a type costs the least of its rows.
    """
    costs: dict = {}
    for e in rows:
        cost = 0
        for name, ms in e.ctx:
            for a, c in env[name]:
                if c > cost and a in ms:
                    cost = c
        if costs.get(e.itype, cost + 1) > cost:
            costs[e.itype] = cost
    return tuple(sorted(costs.items()))


_NONE = frozenset()


def _flow(root: TypedTerm) -> tuple:
    """The plain subterms, and which subterms feed the binder of each flow
    λ, from one walk of the annotated tree.

    The binder of a β-redex (λx. M) N is typed at N's rows; the binder of
    every other λ, a flow λ, is typed at the rows of the arguments it is
    called with.  0-CFA (the λs each subterm may evaluate to, as a least
    fixpoint) names the applications that may call a flow λ.  fix M counts as
    M applied to fix M, so the f of fix (λf. B) is fed by the fix node, and
    the values of fix M reach f through the fixpoint.  A call of a λ from
    inside that λ's own body is charged like a call through a fixpoint
    binder: 0-CFA merges the closures that such a λ builds, so without the
    charge a binder could take its own results forever.
    Returns (plain, has_fix, sources, inner): plain is the set of ids of the
    subterms that hold neither a Fix node nor a flow λ; has_fix is true when
    the program holds a Fix node; sources maps the id of an argument (or Fix)
    subterm to the (λ id, step) pairs of the flow λs it feeds, where step is
    1 when the call goes through a fixpoint binder, is a charged call, or
    calls a λ that such a call passed or returned; inner maps the id of a Fix
    node to the ids of the flow λs inside it.
    """
    # The values of a subterm: a set of (λ id, through a fixpoint binder).
    # A variable shares the set of its binder, and values only grow.  Types
    # are equal along every flow of a λ, so a subterm of ground type has no
    # values and is left out.
    vals: dict = {}
    args: dict = {}  # λ id -> the values its binder takes
    bodies: dict = {}  # λ id -> its body
    joins: list = []  # (values, values of each branch) of a choice or ifz
    # (App or Fix node, its values, its function's values, the λs around it)
    calls: list = []

    lams: set = set()  # the flow λs
    fixes: list = []  # the Fix nodes walked so far
    plain: set = set()
    inner: dict = {}

    def walk(tt, scope, around, applied) -> frozenset:
        """Record tt's values and calls; return the flow λs inside it.
        around is the set of λs whose bodies hold tt; applied marks the
        function of an application."""
        term = tt.term
        kind = type(term)
        node = id(tt)
        seen = len(fixes)
        if kind is Lam:
            scope = {**scope, term.name: node}
            bodies[node] = tt.children[0]
            around = around | {node}
        below = _NONE
        fun = kind is App
        for child in tt.children:
            found = walk(child, scope, around, fun)
            if found:
                below = below | found if below else found
            fun = False
        if kind is Lam:
            vals[node] = {(node, False)}
            if not applied:
                lams.add(node)
                below = below | {node}
        elif kind is App or kind is Fix:
            out = vals[node] = set()
            calls.append((tt, out, vals[id(tt.children[0])], around))
            if kind is Fix:
                fixes.append(node)
                if below:
                    inner[node] = tuple(sorted(below))
        elif type(tt.ty) is Arrow:
            if kind is Var:
                vals[node] = args.setdefault(scope[term.name], set())
            else:
                out = vals[node] = set()
                joins.append((out, [vals[id(c)] for c in tt.children[-2:]]))
        if len(fixes) == seen and not below:
            plain.add(node)
        return below

    walk(root, {}, _NONE, False)
    if not lams:
        return plain, bool(fixes), {}, inner
    changed = True
    while changed:
        changed = False
        for out, parts in joins:
            size = len(out)
            for part in parts:
                out |= part
            changed = changed or len(out) != size
        for tt, out, fun, around in calls:
            size = len(out)
            if isinstance(tt.term, Fix):
                arg = {(lam, True) for lam, _ in out}
            else:
                arg = vals.get(id(tt.children[1]), _NONE)
            for lam, through in tuple(fun):
                # What a call through a fixpoint binder, or a call of a λ
                # from inside its own body, passes lives one unfolding
                # deeper, and so does every later call of it.
                through = through or lam in around
                passed = {(v, True) for v, _ in arg} if through else arg
                into = args.setdefault(lam, set())
                if not passed <= into:
                    into |= passed
                    changed = True
                body = vals.get(id(bodies[lam]), _NONE)
                out |= {(v, True) for v, _ in body} if through else body
            changed = changed or len(out) != size

    sources: dict = {}
    for tt, _, fun, around in calls:
        arg = tt if isinstance(tt.term, Fix) else tt.children[1]
        for lam, through in fun:
            if lam in lams:
                step = int(through or lam in around)
                sources.setdefault(id(arg), set()).add((lam, step))
    sources = {node: tuple(sorted(f)) for node, f in sources.items()}
    return plain, bool(fixes), sources, inner


class RowTable:
    """A program annotated once, with the free variables of every subterm,
    the flow of types to its binders, the rows of its plain subterms, and a
    memo of minimized polynomials.

    A plain subterm holds neither a Fix node nor a flow λ, whose binder takes
    types that grow as a search goes on.  Every row of it has fixpoint count
    0, so n never changes its rows: they depend only on the subterm and the
    types of the binders free in it.  One table serves the rounds of one
    `stabilize`; it keeps the rows of plain subterms under (subterm, those
    types) for its whole life.  Subterms are keyed by id, which stays valid
    because the table holds the annotated tree.  The types that reached each
    flow λ (`reach`), and the memo of minimized sums, products and shifts,
    are kept too: a larger n only adds types and lowers costs, and a
    polynomial does not depend on n.  `has_fix` is true when the program has
    a Fix node.
    """

    def __init__(self, program: Program):
        self.tt = annotate(program.term)
        require_ground(self.tt.ty)
        self.plain, self.has_fix, self.sources, self.inner = _flow(self.tt)
        self.reach: dict = {}  # flow λ id -> {type: least cost}
        self.rows: dict = {}
        self.memo: dict = {}


class _Search:
    def __init__(self, k: int, n: int, table: RowTable):
        self.dim = 2 * k
        self.n = n
        self.plain = table.plain
        self.sources = table.sources
        self.inner = table.inner
        self.reach = table.reach
        self.rows = table.rows
        self.memo = table.memo
        self.unit = Poly.unit(self.dim)
        self.read: set = set()  # flow λs whose pairs this pass has used
        self.stale: set = set()  # ... and that have grown since
        self.certified = True  # every product this pass dropped is dominated

    def build(self, tt: TypedTerm, env: dict) -> list:
        """The rows of the bounded family of typings of tt.

        env maps every variable in scope to the (type, cost) pairs of the
        types that reach its binder.  A numeral or a variable is built in
        place; the rows of any other plain subterm are built once per types
        of its free variables (`tt.free`), and every other subterm is built
        again.  A subterm that feeds flow λs passes its row types on.
        """
        node = id(tt)
        term = tt.term
        if type(term) is Var:
            rows = [Entry(ctx_of(term.name, a), a, self.unit, 0) for a, _ in env[term.name]]
        elif type(term) is Num:
            rows = [Entry((), term.value, self.unit, 0)]
        elif node in self.plain:
            if env:
                # A binder not free in tt never reaches its rows.
                env = {x: pairs for x, pairs in env.items() if x in tt.free}
            key = (node, frozenset(env.items()))
            rows = self.rows.get(key)
            if rows is None:
                rows = self.rows[key] = self._rule(tt, env)
        else:
            rows = self._rule(tt, env)
        if self.sources:
            feeds = self.sources.get(node)
            if feeds:
                self._feed(rows, env, feeds)
        return rows

    def _feed(self, rows: list, env: dict, feeds: tuple) -> None:
        """Let the row types of a source subterm reach the flow λs it feeds;
        a λ already used in this pass whose pairs grow makes it stale."""
        n = self.n
        for a, c in _reaching(rows, env):
            for lam, step in feeds:
                costs = self.reach.setdefault(lam, {})
                cost = c + step
                if cost < costs.get(a, cost + 1):
                    costs[a] = cost
                    if cost <= n and lam in self.read:
                        self.stale.add(lam)

    def _products(self, premises, fix: int = 0) -> list:
        """The merged products of the premises with at most n fixpoint uses,
        counting `fix` more for each (1 for an unfolding).  While the pass is
        certified, every dropped product must lie pointwise above a monomial
        of the merged rows with its context and type, or the pass is not;
        dropped products are computed only until then."""
        memo = self.memo
        out, dropped = [], []
        for picked, itype in premises:
            fixes = fix + sum(e.fixes for e in picked)
            if fixes <= self.n:
                out.append(_combine(picked, itype, fixes, memo))
            elif self.certified:
                dropped.append((picked, itype))
        rows = merge(out, memo)
        for picked, itype in dropped:
            drop = _combine(picked, itype, 0, memo)
            below = [m for e in rows if e.ctx == drop.ctx and e.itype == itype
                     for m in e.poly.coeffs]
            if not all(dominated(m, below) for m in drop.poly.coeffs):
                self.certified = False
                break
        return rows

    def _rule(self, tt: TypedTerm, env: dict) -> list:
        term = tt.term
        memo = self.memo
        kind = type(term)
        if kind is App:
            # The argument first: it feeds the flow λs the function calls.
            arg = self.build(tt.children[1], env)
            if type(term.fun) is Lam:
                # A λ row whose binder takes a type no argument row has is
                # never picked by _rule_app, so the body is typed at the
                # argument's types.
                name = term.fun.name
                body = self.build(
                    tt.children[0].children[0], {**env, name: _reaching(arg, env)}
                )
                fun = _rule_lam(name, body)
            else:
                fun = self.build(tt.children[0], env)
            return self._products(_rule_app(fun, arg))
        if kind is Lam:
            # The binder takes the types that reached it at cost at most n.
            self.read.add(id(tt))
            costs = self.reach.get(id(tt), {}).items()
            env = {**env, term.name: tuple(sorted(p for p in costs if p[1] <= self.n))}
            return _rule_lam(term.name, self.build(tt.children[0], env))
        if kind is Fix:
            return self._fix(tt, env)
        subs = [self.build(c, env) for c in tt.children]
        if kind is Choice:
            return _rule_choice(term.param, subs[0], subs[1], self.dim, memo)
        if kind is Ifz:
            return self._products(_rule_ifz(*subs))
        if kind is Succ:
            return _rule_atom("succ", lambda n: n + 1, subs[0], memo)
        if kind is Pred:
            return _rule_atom("pred", lambda n: max(n - 1, 0), subs[0], memo)
        raise TypesysError(f"cannot type {term!r}")

    def _fix(self, tt: TypedTerm, env: dict) -> list:
        """Unfold fix M until an unfolding reproduces the previous one's rows
        and no flow λ inside grew on the way.  fix M is M applied to fix M,
        so each unfolding's rows reach the binders that fix M feeds, such as
        the f of fix (λf. B), before the next unfolding."""
        inner = self.inner.get(id(tt), ())
        feeds = self.sources.get(id(tt))
        entries = []
        while True:
            self.read.difference_update(inner)
            self.stale.difference_update(inner)
            fun = self.build(tt.children[0], env)
            unfolded = self._products(_rule_app(fun, entries), 1)
            if feeds:
                self._feed(unfolded, env, feeds)
            if unfolded == entries and self.stale.isdisjoint(inner):
                return entries
            entries = unfolded


def search(program: Program, n: int, table: RowTable | None = None) -> TropJudgement:
    """The family of typings of a program with at most n fixpoint rule uses.

    Returns the judgement for the whole program; use conclusion_poly to
    extract the polynomial of the closed rows at a ground target atom.
    `table` must come from the same program; rounds that share one reuse the
    rows of its plain subterms, the types that reached its binders, its
    minimized polynomials and its annotation.  Without a table the search
    starts from a fresh one; the rows are the same either way.
    """
    if table is None:
        table = RowTable(program)
    bounded = _Search(program.params, n, table)
    # Pass again while a pass grew the types of a flow λ it had used.
    while True:
        bounded.certified = True
        rows = bounded.build(table.tt, {})
        if not bounded.stale:
            exact = bounded.certified and all(
                c <= n for costs in table.reach.values() for c in costs.values()
            )
            return TropJudgement(tuple(rows), bounded.dim, exact)
        bounded.read, bounded.stale = set(), set()


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


@dataclass
class StabilizeResult:
    poly: Poly
    stable: bool
    exact: bool  # the polynomial is the whole family's, not a bounded one's
    rounds: list  # the bounds n actually run


def stabilize(
    program: Program, target: int, window: int = 1, max_rounds: int = 16
) -> StabilizeResult:
    """The polynomial of the closed rows at `target`, from growing n until a
    round is certified or the polynomial stops changing.

    The rounds are n = 1, 2, 3, ..., or n = 2, 3, 4, ... for a program with
    a Fix node, since n = 1 types each fix at its base case only: in
    (fix (λf. λx. ifz x then .. else f (pred x))) (0 or 2) the polynomial
    of n = 1 is that of n = 2, and n = 3 adds the run from 2.  Round n is
    exact when its dominance certificate holds: each monomial of every
    product `_Search._products` dropped for its more than n fixpoint uses
    lies pointwise above one of a kept row of that rule with its context
    and type, and no type that reached a binder costs more than n.  A
    program with no Fix node and no charged call drops nothing and its
    types cost 0, so its first round is exact.  Any other round is stable,
    but not exact, when the last `window` increments of n all left the
    polynomial unchanged.  Gives up (stable=False) after max_rounds rounds.
    Raises ValueError unless window and max_rounds are at least 1.

    Soundness: order polynomials by region R(P) = conv(support) + R^d_{≥0};
    minimizing keeps R, and products and sums are monotone in R.  Induct on
    the derivations at any bound N > n: replace each premise by round n's
    rows with its context and type, and a combination round n dropped by the
    kept rows that dominate it; neither shrinks a region.  Binders take only
    round-n types: each is a row's type, and none costs more than n.
    """
    if window < 1 or max_rounds < 1:
        raise ValueError(
            f"window and max_rounds must be at least 1, got {window} and {max_rounds}"
        )
    table = RowTable(program)
    first = 2 if table.has_fix else 1
    history = []
    rounds = []
    for n in range(first, first + max_rounds):
        judgement = search(program, n, table=table)
        poly = conclusion_poly(judgement, target, table.memo)
        rounds.append(n)
        history.append(poly)
        if judgement.exact or (
            len(history) > window and all(h == poly for h in history[-(window + 1):])
        ):
            return StabilizeResult(poly, True, judgement.exact, rounds)
    return StabilizeResult(poly, False, False, rounds)
