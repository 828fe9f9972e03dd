"""The dense two-phase simplex on a `Fraction` tableau, kept as a reference.

This is the LP solver tropinf used before its integer kernel.  It reads the
kernel's one form, maximize objective . x subject to coeffs . x <= rhs and
x >= 0, but still solves a row with a negative rhs: it flips the row to >=
and starts from a phase 1 over artificial columns.  Tests compare
`tropinf.geometry.lp_solve` against it on rows with rhs >= 0, where phase 1
is skipped: both use Bland's rule with the same tie-breaks, so they must
agree exactly on point and value, and both raise GeometryError on an
unbounded LP.
"""

from fractions import Fraction

from tropinf.geometry import GeometryError, LPProblem, LPResult


def _pivot(T, basis, r, c):
    piv = T[r][c]
    T[r] = [v / piv for v in T[r]]
    for i, row in enumerate(T):
        if i != r and row[c] != 0:
            f = row[c]
            T[i] = [a - f * b for a, b in zip(row, T[r])]
    basis[r] = c


def _simplex(T, basis, c, blocked):
    """Maximize c.x on the tableau T with Bland's rule.

    `blocked` columns may never (re)enter the basis.  Returns "optimal" or
    "unbounded"; the tableau and basis are updated in place.
    """
    m = len(T)
    ncols = len(T[0]) - 1
    while True:
        cb = [c[b] for b in basis]
        enter = -1
        for j in range(ncols):
            if j in blocked or j in basis:
                continue
            reduced = c[j] - sum(cb[i] * T[i][j] for i in range(m))
            if reduced > 0:
                enter = j
                break  # Bland: smallest improving index
        if enter < 0:
            return "optimal"
        leave = -1
        best = None
        for i in range(m):
            if T[i][enter] > 0:
                ratio = T[i][-1] / T[i][enter]
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            return "unbounded"
        _pivot(T, basis, leave, enter)


def lp_solve(prob: LPProblem) -> LPResult:
    n = len(prob.objective)
    rows = []
    for coeffs, rhs in prob.rows:
        coeffs = [Fraction(a) for a in coeffs]
        if len(coeffs) != n:
            raise GeometryError("row length does not match objective length")
        rhs = Fraction(rhs)
        if rhs < 0:
            rows.append(([-a for a in coeffs], ">=", -rhs))
        else:
            rows.append((coeffs, "<=", rhs))

    n_slack = len(rows)
    n_art = sum(1 for _, sense, _ in rows if sense == ">=")
    ncols = n + n_slack + n_art

    T = []
    basis = []
    art_at = n + n_slack
    art_cols = set()
    for i, (coeffs, sense, rhs) in enumerate(rows):
        row = list(coeffs) + [Fraction(0)] * (n_slack + n_art) + [rhs]
        if sense == "<=":
            row[n + i] = Fraction(1)
            basis.append(n + i)
        else:
            row[n + i] = Fraction(-1)
            row[art_at] = Fraction(1)
            basis.append(art_at)
            art_cols.add(art_at)
            art_at += 1
        T.append(row)

    zero = Fraction(0)
    if art_cols:
        phase1 = [zero] * ncols
        for j in art_cols:
            phase1[j] = Fraction(-1)
        _simplex(T, basis, phase1, blocked=set())
        value = sum(phase1[b] * T[i][-1] for i, b in enumerate(basis))
        if value < 0:
            raise GeometryError("the LP is infeasible")
        # Pivot any zero-valued artificial out of the basis if possible.
        for i, b in enumerate(basis):
            if b in art_cols:
                for j in range(ncols):
                    if j not in art_cols and T[i][j] != 0:
                        _pivot(T, basis, i, j)
                        break

    c = [Fraction(a) for a in prob.objective] + [zero] * (n_slack + n_art)
    if _simplex(T, basis, c, blocked=art_cols) == "unbounded":
        raise GeometryError("the LP is unbounded")
    x = [zero] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = T[i][-1]
    return LPResult(tuple(x), sum(ci * xi for ci, xi in zip(c[:n], x)))
