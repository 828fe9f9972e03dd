"""Simple-type inference as tropinf did it before its one-pass annotation,
kept as a reference.

`annotate` walks the term once to collect constraints, solves them, re-checks
every constraint on deep-resolved copies of its sides, and then walks the
term again to build a finished tree; `free_vars` walks a term for its free
variables.  Tests compare `tropinf.lang.annotate` against them: both must give
every node the same simple type and free variables, and raise the same
exception with the same message up to the numbering of type variables.
The reference types the unary encoding of a term (`replay_reference.unary`),
where the numeral k is k succs around 0, so each node it gives is the unary
encoding of the node `tropinf.lang.annotate` gives.
`tropinf.lang` checks no constraint after solving, since its solver leaves
none unsatisfied; the re-check here is what would catch one that it did.
"""

import itertools
from typing import NamedTuple

from tropinf.lang import (
    App,
    Arrow,
    BOOL,
    Choice,
    Fix,
    Ifz,
    Lam,
    NAT,
    Pred,
    Succ,
    TypeCheckError,
    Var,
)
from replay_reference import numeral_value, unary


def free_vars(t) -> frozenset:
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


class Typed(NamedTuple):
    term: object
    ty: object
    children: tuple


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

    def infer(self, t, env: dict):
        n = numeral_value(t)
        if n is not None:
            return Typed(t, BOOL if n <= 1 else NAT, ())
        if isinstance(t, Var):
            if t.name not in env:
                raise TypeCheckError(f"unbound variable {t.name!r}")
            return Typed(t, env[t.name], ())
        if isinstance(t, Succ):
            body = self.infer(t.body, env)
            self.sub(body.ty, NAT)
            return Typed(t, NAT, (body,))
        if isinstance(t, Pred):
            body = self.infer(t.body, env)
            self.sub(body.ty, NAT)
            return Typed(t, NAT, (body,))
        if isinstance(t, Ifz):
            scrutinee = self.infer(t.scrutinee, env)
            self.sub(scrutinee.ty, NAT)
            then = self.infer(t.then, env)
            orelse = self.infer(t.orelse, env)
            out = _TVar()
            self.sub(then.ty, out)
            self.sub(orelse.ty, out)
            return Typed(t, out, (scrutinee, then, orelse))
        if isinstance(t, Choice):
            left = self.infer(t.left, env)
            right = self.infer(t.right, env)
            out = _TVar()
            self.sub(left.ty, out)
            self.sub(right.ty, out)
            return Typed(t, out, (left, right))
        if isinstance(t, Lam):
            arg = _TVar()
            body = self.infer(t.body, {**env, t.name: arg})
            return Typed(t, Arrow(arg, body.ty), (body,))
        if isinstance(t, App):
            fun = self.infer(t.fun, env)
            arg = self.infer(t.arg, env)
            a, b = _TVar(), _TVar()
            _unify(fun.ty, Arrow(a, b))
            self.sub(arg.ty, a)
            return Typed(t, b, (fun, arg))
        if isinstance(t, Fix):
            body = self.infer(t.body, env)
            a = _TVar()
            _unify(body.ty, Arrow(a, a))
            return Typed(t, a, (body,))
        raise TypeCheckError(f"unknown term {t!r}")

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

    def finish(self, tt: Typed) -> Typed:
        ty = _resolve(tt.ty)
        if isinstance(ty, _TVar):
            raise TypeCheckError("cannot infer a type (unconstrained variable)")
        if isinstance(ty, Arrow):
            ty = Arrow(
                self._finish_ty(ty.arg), self._finish_ty(ty.res)
            )
        return Typed(tt.term, ty, tuple(self.finish(c) for c in tt.children))

    def _finish_ty(self, ty):
        ty = _resolve(ty)
        if isinstance(ty, _TVar):
            raise TypeCheckError("cannot infer a type (unconstrained variable)")
        if isinstance(ty, Arrow):
            return Arrow(self._finish_ty(ty.arg), self._finish_ty(ty.res))
        return ty


def annotate(term) -> Typed:
    """Infer simple types for a closed term, annotating every subterm of its
    unary encoding, where the numeral k is k succs around 0."""
    inf = _Inference()
    tt = inf.infer(unary(term), {})
    inf.solve()
    return inf.finish(tt)
