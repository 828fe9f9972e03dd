"""Quantitative refinement typing with minimized weight polynomials.

Each subterm is assigned a family of typings (context, weight polynomial,
refinement type).  Contexts map variables to multisets of refinement types;
weight polynomials are kept minimal throughout by replacing every product
with its Minkowski-sum minimization and re-minimizing after every merge of
equal (context, type) rows.  The family computed for the whole program under
bounds (n, p) collects every derivation that uses at most n fixpoint rule
applications and multisets of size at most p whose member types only mention
ground atoms up to p.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import Monomial, Poly, mono_mul, mono_unit
from .geometry import np_min, vn_with_witness
from .lang import (
    App,
    Arrow,
    BOOL,
    Choice,
    Fix,
    Ground,
    Ifz,
    Lam,
    NAT,
    Pred,
    Program,
    SimpleType,
    Succ,
    Term,
    TypedTerm,
    TypeCheckError,
    Var,
    annotate,
    numeral_value,
)


class TypesysError(Exception):
    pass


# ---------------------------------------------------------------------------
# Refinement types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ITypeExpr:
    pass


@dataclass(frozen=True)
class IAtom(ITypeExpr):
    """The singleton type of the numeral n."""

    n: int


@dataclass(frozen=True)
class IArrow(ITypeExpr):
    """A multiset of argument types (canonically sorted) and a result type."""

    args: tuple
    res: ITypeExpr


def itype_key(t: ITypeExpr):
    if isinstance(t, IAtom):
        return (0, t.n)
    return (1, tuple(itype_key(a) for a in t.args), itype_key(t.res))


def iarrow(args, res) -> IArrow:
    return IArrow(tuple(sorted(args, key=itype_key)), res)


def itype_to_text(t: ITypeExpr) -> str:
    if isinstance(t, IAtom):
        return str(t.n)
    inner = ", ".join(itype_to_text(a) for a in t.args)
    return f"[{inner}] -o {itype_to_text(t.res)}"


def max_atom(t: ITypeExpr) -> int:
    if isinstance(t, IAtom):
        return t.n
    return max([max_atom(t.res)] + [max_atom(a) for a in t.args])


def refinements(ty: SimpleType, p: int) -> list:
    """All refinement types of a simple type under the bound p.

    Ground types refine to atoms (0/1 for Bool, 0..p for Nat); arrows refine
    to a multiset of at most p argument refinements and a result refinement.
    """
    if ty == BOOL:
        return [IAtom(0), IAtom(1)]
    if ty == NAT:
        return [IAtom(i) for i in range(max(p, 1) + 1)]
    if isinstance(ty, Arrow):
        arg_refs = refinements(ty.arg, p)
        out = []
        for res in refinements(ty.res, p):
            for size in range(p + 1):
                for combo in itertools.combinations_with_replacement(arg_refs, size):
                    out.append(iarrow(combo, res))
        return sorted(out, key=itype_key)
    raise TypesysError(f"cannot refine {ty!r}")


# ---------------------------------------------------------------------------
# Contexts and judgement entries
# ---------------------------------------------------------------------------

# A context is a sorted tuple of (name, multiset) with multiset a sorted
# tuple of refinement types; variables with empty multisets are dropped.
ITypeContext = tuple


def ctx_of(name: str, itype: ITypeExpr) -> ITypeContext:
    return ((name, (itype,)),)


def ctx_sum(*ctxs: ITypeContext) -> ITypeContext:
    bags: dict = {}
    for ctx in ctxs:
        for name, ms in ctx:
            bags.setdefault(name, []).extend(ms)
    return tuple(
        (name, tuple(sorted(bags[name], key=itype_key))) for name in sorted(bags)
    )


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


def ctx_key(ctx: ITypeContext):
    return tuple((name, tuple(itype_key(t) for t in ms)) for name, ms in ctx)


def ctx_to_text(ctx: ITypeContext) -> str:
    parts = []
    for name, ms in ctx:
        inner = ", ".join(itype_to_text(t) for t in ms)
        parts.append(f"{name}: [{inner}]")
    return "; ".join(parts)


@dataclass
class Entry:
    """One row of a judgement: context |-^poly itype, with bookkeeping.

    full is the same polynomial computed with plain products and sums instead
    of minimized ones; fixes counts fixpoint rule uses; traces maps each
    monomial of poly to one choice word producing it.
    """

    ctx: ITypeContext
    itype: ITypeExpr
    poly: Poly
    full: Poly
    fixes: int
    traces: dict

    def key(self):
        return (self.ctx, itype_key(self.itype), self.fixes)

    def sort_key(self):
        return (ctx_key(self.ctx), itype_key(self.itype), self.fixes)


@dataclass
class TropJudgement:
    subject: Term
    entries: list
    dim: int


@dataclass
class TropDerivation:
    rule: str
    premises: tuple
    conclusion: TropJudgement


def _unit_entry(dim: int, ctx: ITypeContext, itype: ITypeExpr) -> Entry:
    u = Poly.unit(dim)
    return Entry(ctx, itype, u, u, 0, {mono_unit(dim): ()})


def minimize(poly: Poly) -> Poly:
    return np_min(poly)[1]


def merge(entries, *, split_fixes: bool = True) -> list:
    """Collapse rows with equal (context, type), summing and re-minimizing.

    With split_fixes (the default inside the bounded search) rows are also
    kept apart by their fixpoint-use count so budget accounting stays exact.
    Trace ties on a shared monomial resolve to the smallest word.
    """
    groups: dict = {}
    for e in entries:
        key = e.key() if split_fixes else (e.ctx, itype_key(e.itype))
        groups.setdefault(key, []).append(e)
    out = []
    for group in groups.values():
        first = group[0]
        if len(group) == 1:
            out.append(first)
            continue
        poly = first.poly
        full = first.full
        traces = dict(first.traces)
        for e in group[1:]:
            poly = poly + e.poly
            full = full + e.full
            for m, w in e.traces.items():
                if m not in traces or w < traces[m]:
                    traces[m] = w
        poly = minimize(poly)
        traces = {m: w for m, w in traces.items() if m in poly.coeffs}
        out.append(
            Entry(first.ctx, first.itype, poly, full, first.fixes, traces)
        )
    out.sort(key=lambda e: e.sort_key())
    return out


def _combine(entries, dim: int) -> Entry:
    """Multiply a list of rows: contexts add, polynomials multiply minimized,
    traces concatenate along one witness factorization per monomial."""
    ctx = ctx_sum(*(e.ctx for e in entries))
    fixes = sum(e.fixes for e in entries)
    poly, witness = vn_with_witness([e.poly for e in entries], dim)
    full = Poly.unit(dim)
    for e in entries:
        full = full * e.full
    traces = {}
    for m, factors in witness.items():
        word = ()
        for e, f in zip(entries, factors):
            word = word + e.traces[f]
        traces[m] = word
    return Entry(ctx, None, poly, full, fixes, traces)


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


def _rule_succ(entries, dim):
    out = []
    for e in entries:
        if not isinstance(e.itype, IAtom):
            raise TypesysError("succ applied to a non-atom refinement")
        out.append(Entry(e.ctx, IAtom(e.itype.n + 1), e.poly, e.full, e.fixes, e.traces))
    return merge(out)


def _rule_pred(entries, dim):
    out = []
    for e in entries:
        if not isinstance(e.itype, IAtom):
            raise TypesysError("pred applied to a non-atom refinement")
        out.append(
            Entry(e.ctx, IAtom(max(e.itype.n - 1, 0)), e.poly, e.full, e.fixes, e.traces)
        )
    return merge(out)


def _rule_choice(param, left_entries, right_entries, dim):
    out = []
    for bit, entries in ((0, left_entries), (1, right_entries)):
        m = [0] * dim
        m[2 * (param - 1) + bit] = 1
        shift = tuple(m)
        for e in entries:
            out.append(
                Entry(
                    e.ctx,
                    e.itype,
                    e.poly.shift(shift),
                    e.full.shift(shift),
                    e.fixes,
                    {
                        mono_mul(shift, mono): ((param, bit),) + w
                        for mono, w in e.traces.items()
                    },
                )
            )
    return merge(out)


def _rule_ifz(scrutinee_entries, then_entries, else_entries, dim, max_fixes):
    out = []
    for e_s in scrutinee_entries:
        if not isinstance(e_s.itype, IAtom):
            raise TypesysError("ifz scrutinee with a non-atom refinement")
        branch = then_entries if e_s.itype.n == 0 else else_entries
        for e_b in branch:
            if e_s.fixes + e_b.fixes > max_fixes:
                continue
            c = _combine([e_s, e_b], dim)
            c.itype = e_b.itype
            out.append(c)
    return merge(out)


def _rule_lam(name, entries, dim, p):
    out = []
    for e in entries:
        ms, rest = ctx_split(e.ctx, name)
        if len(ms) > p:
            continue
        if any(max_atom(t) > p for t in ms):
            continue
        out.append(
            Entry(rest, iarrow(ms, e.itype), e.poly, e.full, e.fixes, e.traces)
        )
    return merge(out)


def _assignments(args, pool):
    """All unordered ways to pick one pool entry per multiset element.

    args is a sorted tuple of refinement types; pool maps a type key to the
    candidate entries with that type.  Yields lists of entries aligned with
    args (used both by application and by fixpoint unfolding).
    """
    by_type = []
    for key, group in itertools.groupby(args, key=itype_key):
        count = len(list(group))
        candidates = pool.get(key, [])
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
        pool.setdefault(itype_key(e.itype), []).append(e)
    return pool


def _rule_app(fun_entries, arg_entries, dim, max_fixes):
    out = []
    pool = _pool(arg_entries)
    for e_f in fun_entries:
        if not isinstance(e_f.itype, IArrow):
            continue
        for picked in _assignments(e_f.itype.args, pool):
            if e_f.fixes + sum(e.fixes for e in picked) > max_fixes:
                continue
            c = _combine([e_f] + picked, dim)
            c.itype = e_f.itype.res
            out.append(c)
    return merge(out)


def _rule_fix_round(fun_entries, rec_entries, dim, max_fixes):
    """One unfolding: arrow rows of the body against current fixpoint rows."""
    out = []
    pool = _pool(rec_entries)
    for e_f in fun_entries:
        if not isinstance(e_f.itype, IArrow):
            continue
        for picked in _assignments(e_f.itype.args, pool):
            fixes = e_f.fixes + sum(e.fixes for e in picked) + 1
            if fixes > max_fixes:
                continue
            c = _combine([e_f] + picked, dim)
            c.itype = e_f.itype.res
            c.fixes = fixes
            out.append(c)
    return merge(out)


# ---------------------------------------------------------------------------
# Bounded search
# ---------------------------------------------------------------------------


def apply_rule(rule: str, premises, site: Term, *, dim: int, p: int = None, n: int = None):
    """Apply one typing rule to premise judgements, returning the entries.

    Exposed for tests and interactive exploration; the bounded search uses the
    same rule bodies.  p and n default to "unbounded".
    """
    p = 10**9 if p is None else p
    n = 10**9 if n is None else n
    pe = [prem.entries if isinstance(prem, TropJudgement) else prem for prem in premises]
    if rule == "Succ":
        return _rule_succ(pe[0], dim)
    if rule == "Pred":
        return _rule_pred(pe[0], dim)
    if rule == "Oplus":
        return _rule_choice(site.param, pe[0], pe[1], dim)
    if rule == "Ifz":
        return _rule_ifz(pe[0], pe[1], pe[2], dim, n)
    if rule == "Lambda":
        return _rule_lam(site.name, pe[0], dim, p)
    if rule == "App":
        return _rule_app(pe[0], pe[1], dim, n)
    if rule == "Fix":
        return _rule_fix_round(pe[0], pe[1], dim, n)
    raise TypesysError(f"unknown rule {rule!r}")


class _Search:
    def __init__(self, k: int, n: int, p: int):
        self.dim = 2 * k
        self.n = n
        self.p = p

    def build(self, tt: TypedTerm) -> TropDerivation:
        term = tt.term
        dim = self.dim
        value = numeral_value(term)
        if value is not None:
            entries = [_unit_entry(dim, (), IAtom(value))]
            return TropDerivation("Num", (), TropJudgement(term, entries, dim))
        if isinstance(term, Var):
            entries = [
                _unit_entry(dim, ctx_of(term.name, a), a)
                for a in refinements(tt.ty, self.p)
            ]
            return TropDerivation("Id", (), TropJudgement(term, entries, dim))
        if isinstance(term, Succ):
            sub = self.build(tt.children[0])
            entries = _rule_succ(sub.conclusion.entries, dim)
            return TropDerivation("Succ", (sub,), TropJudgement(term, entries, dim))
        if isinstance(term, Pred):
            sub = self.build(tt.children[0])
            entries = _rule_pred(sub.conclusion.entries, dim)
            return TropDerivation("Pred", (sub,), TropJudgement(term, entries, dim))
        if isinstance(term, Choice):
            left = self.build(tt.children[0])
            right = self.build(tt.children[1])
            entries = _rule_choice(
                term.param, left.conclusion.entries, right.conclusion.entries, dim
            )
            return TropDerivation("Oplus", (left, right), TropJudgement(term, entries, dim))
        if isinstance(term, Ifz):
            subs = tuple(self.build(c) for c in tt.children)
            entries = _rule_ifz(
                subs[0].conclusion.entries,
                subs[1].conclusion.entries,
                subs[2].conclusion.entries,
                dim,
                self.n,
            )
            return TropDerivation("Ifz", subs, TropJudgement(term, entries, dim))
        if isinstance(term, Lam):
            sub = self.build(tt.children[0])
            entries = _rule_lam(term.name, sub.conclusion.entries, dim, self.p)
            return TropDerivation("Lambda", (sub,), TropJudgement(term, entries, dim))
        if isinstance(term, App):
            fun = self.build(tt.children[0])
            arg = self.build(tt.children[1])
            entries = _rule_app(
                fun.conclusion.entries, arg.conclusion.entries, dim, self.n
            )
            return TropDerivation("App", (fun, arg), TropJudgement(term, entries, dim))
        if isinstance(term, Fix):
            fun = self.build(tt.children[0])
            deriv = TropDerivation("Empty", (), TropJudgement(term, [], dim))
            seen = None
            while True:
                entries = _rule_fix_round(
                    fun.conclusion.entries, deriv.conclusion.entries, dim, self.n
                )
                fingerprint = [
                    (e.ctx, itype_key(e.itype), e.fixes, e.poly, e.full)
                    for e in entries
                ]
                if fingerprint == seen:
                    return deriv
                seen = fingerprint
                deriv = TropDerivation(
                    "Fix", (fun, deriv), TropJudgement(term, entries, dim)
                )
        raise TypesysError(f"cannot type {term!r}")


def search(program: Program, target: int, n: int, p: int) -> TropDerivation:
    """The bounded family of typings of a program under bounds (n, p).

    Returns the derivation for the whole program; use conclusion_entry to
    extract the closed row at a ground target atom.
    """
    tt = annotate(program.term)
    if isinstance(tt.ty, Arrow):
        raise TypeCheckError("program has an arrow type; a ground type is required")
    return _Search(program.params, n, p).build(tt)


def conclusion_entry(deriv: TropDerivation, target: int) -> Entry | None:
    """Merge the closed rows at atom `target` across fixpoint counts."""
    hits = [
        e
        for e in deriv.conclusion.entries
        if e.ctx == () and e.itype == IAtom(target)
    ]
    if not hits:
        return None
    merged = merge(hits, split_fixes=False)
    if len(merged) != 1:
        raise TypesysError(
            f"closed rows at atom {target} merged into {len(merged)} entries, "
            "expected one"
        )
    return merged[0]


def conclusion_poly(deriv: TropDerivation, target: int) -> Poly:
    e = conclusion_entry(deriv, target)
    if e is None:
        return Poly.zero(deriv.conclusion.dim)
    return e.poly


def traj_poly(deriv: TropDerivation, target: int) -> Poly:
    """The un-minimized weight polynomial of the closed target rows.

    Computed with plain sums and products in place of every minimization;
    minimizing it recovers conclusion_poly.
    """
    e = conclusion_entry(deriv, target)
    if e is None:
        return conclusion_poly(deriv, target)
    return e.full


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
    derivation: TropDerivation
    entry: Entry | None  # conclusion_entry of the last round, None if no row
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
    """
    history = []
    rounds = []
    deriv = entry = None
    for n, p in itertools.islice(bound_schedule(), max_rounds):
        deriv = search(program, target, n, p)
        entry = conclusion_entry(deriv, target)
        poly = Poly.zero(deriv.conclusion.dim) if entry is None else entry.poly
        rounds.append((n, p))
        history.append(poly)
        if len(history) >= window + 1 and all(
            h == history[-1] for h in history[-(window + 1):]
        ):
            return StabilizeResult(deriv, entry, poly, True, rounds)
    return StabilizeResult(deriv, entry, history[-1], False, rounds)
