"""Exact linear algebra over the rationals and the integers, with no
floating point anywhere. Linear systems, ranks, determinants and a small
two-phase simplex for LP feasibility questions all run on one fraction-free
elimination step (Bareiss, Math. Comp. 22, 1968) over rows scaled once to
integers; Smith normal form is separate."""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from numbers import Rational
from typing import Dict, List, Optional, Sequence, Tuple


def _solve_integer(tableau: List[Sequence[int]], width: int) -> Optional[Tuple[List[int], int]]:
    """One exact solution of A x = b, given as the integer tableau [A | b]
    of `width` unknowns, free unknowns set to 0: the solution's numerators
    over one common denominator, or None if the system is inconsistent. The
    list's rows are replaced, never changed in place, so they may be shared
    tuples."""
    pivots, denom, _ = _eliminate(tableau, width)
    if any(row[-1] for i, row in enumerate(tableau) if i not in pivots):
        return None
    numerators = [0] * width
    for row, col in pivots.items():
        numerators[col] = tableau[row][-1]
    return numerators, denom


def rank_exact(matrix: Sequence[Sequence[Fraction]]) -> int:
    return len(_eliminate([_integer_row(row)[0] for row in matrix], len(matrix[0]) if matrix else 0)[0])


def _integer_determinant(tableau: List[Sequence[int]]) -> int:
    """The determinant of a square integer matrix, replacing the list's rows:
    D, or 0 below full rank, with the sign of the pivots' row order and of
    every negating pivot."""
    n = len(tableau)
    pivots, denom, sign = _eliminate(tableau, n)
    if len(pivots) < n:
        return 0
    rows = list(pivots)
    swaps = sum(a > b for i, a in enumerate(rows) for b in rows[i + 1 :])
    return (-1) ** swaps * sign * denom


def _normal(tableau: List[Sequence[int]]) -> List[int]:
    """A nonzero integer vector orthogonal to the rows of an integer matrix
    of full rank with one column more than rows, replacing the list's rows.
    Each pivot row ends as D at its pivot column plus its entry e at the one
    free column, so x = D there and -e at that pivot column solves it."""
    width = len(tableau[0])
    pivots, denom, _ = _eliminate(tableau, width)
    free = next(col for col in range(width) if col not in pivots.values())
    normal = [0] * width
    normal[free] = denom
    for row, col in pivots.items():
        normal[col] = -tableau[row][free]
    return normal


def _integer_row(entries: Sequence[Rational]) -> Tuple[List[int], int]:
    """The entries times the lcm of their denominators, and that lcm."""
    scale = lcm(*(v.denominator for v in entries))
    return [v.numerator * (scale // v.denominator) for v in entries], scale


def _eliminate(tableau: List[Sequence[int]], width: int) -> Tuple[Dict[int, int], int, int]:
    """Fraction-free Gauss-Jordan elimination of an integer tableau on its
    first `width` columns, replacing its rows: column by column, pivot on the
    first row not yet pivoted whose entry there is nonzero. Returns the
    pivots as {row: column} in column order, the final denominator D, and -1
    to the number of negating pivots. A pivot row holds D times its
    solution, and D times that sign is the determinant of the pivot block,
    rows in pivot order."""
    pivots: Dict[int, int] = {}
    denom, sign = 1, 1
    for col in range(width):
        row = next((i for i, r in enumerate(tableau) if r[col] and i not in pivots), None)
        if row is not None:
            if tableau[row][col] < 0:
                sign = -sign
            denom = _pivot(tableau, row, col, denom)
            pivots[row] = col
    return pivots, denom, sign


def smith_divisors(matrix: Sequence[Sequence[int]]) -> List[int]:
    """The nonzero elementary divisors of an integer matrix, in division
    order. Textbook reduction: move a minimal entry to the pivot, clear its
    row and column, fix up divisibility violations, recurse."""
    a = [list(row) for row in matrix]
    rows, cols = len(a), len(a[0]) if a else 0
    divisors: List[int] = []
    top = 0
    while top < rows and top < cols:
        # find the entry of least absolute value in the working block
        best = None
        for i in range(top, rows):
            for j in range(top, cols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i, j = best
        a[top], a[i] = a[i], a[top]
        for row in a:
            row[top], row[j] = row[j], row[top]
        pivot = a[top][top]
        dirty = False
        for i in range(top + 1, rows):
            q = a[i][top] // pivot
            if q:
                a[i] = [v - q * w for v, w in zip(a[i], a[top])]
            if a[i][top]:
                dirty = True
        for j in range(top + 1, cols):
            q = a[top][j] // pivot
            if q:
                for row in a:
                    row[j] -= q * row[top]
            if a[top][j]:
                dirty = True
        if dirty:
            continue
        # pivot must divide the rest of the block
        offender = None
        for i in range(top + 1, rows):
            for j in range(top + 1, cols):
                if a[i][j] % pivot:
                    offender = i
                    break
            if offender:
                break
        if offender is not None:
            a[top] = [v + w for v, w in zip(a[top], a[offender])]
            continue
        divisors.append(abs(pivot))
        top += 1
    return divisors


# --- exact LP ----------------------------------------------------------------


def lp_maximize(
    a_eq: Sequence[Sequence[Rational]],
    b_eq: Sequence[Rational],
    objective: Sequence[Rational],
) -> Optional[Fraction]:
    """max c.x subject to A x = b, x >= 0, over ints and Fractions, all
    exact. Returns None when infeasible. The feasible sets used here are
    always bounded, so no unbounded handling is exposed.

    Two-phase simplex under Bland's rule, fraction-free: each row (with its
    right-hand side) and the objective are scaled once to integers, and the
    tableau is kept as integers over one shared positive denominator, so a
    pivot is integer arithmetic with one exact division (Bareiss, Math. Comp.
    22, 1968). Scaling row i by l_i scales its artificial variable by l_i;
    costing that artificial L / l_i, for L the lcm of the l_i, makes phase 1
    the unscaled phase 1 with its variables rescaled, which changes no sign
    and no ratio order, so the pivots are those of plain Fraction pivoting."""
    rows = len(a_eq)
    cols = len(objective)
    tableau: List[List[int]] = []
    scales: List[int] = []
    for i, (row, rhs) in enumerate(zip(a_eq, b_eq)):
        ints, scale = _integer_row([*row, rhs])
        if ints[-1] < 0:  # so that the artificial basis starts feasible
            ints = [-v for v in ints]
        tableau.append(ints[:-1] + [int(j == i) for j in range(rows)] + ints[-1:])
        scales.append(scale)
    # phase 1: artificial basis
    basis = [cols + i for i in range(rows)]
    common = lcm(*scales)
    cost = [0] * cols + [common // scale for scale in scales]
    denom = _simplex_min(tableau, basis, cost, cols + rows, 1)
    if _basic_value(tableau, basis, cost) != 0:
        return None
    denom = _drive_out_artificials(tableau, basis, cols, denom)
    # phase 2 on the original columns; rows still basic in an artificial are
    # redundant zero rows and can be dropped
    keep = [i for i in range(rows) if basis[i] < cols]
    tableau = [tableau[i][:cols] + [tableau[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]
    cost, scale = _integer_row(objective)
    cost = [-c for c in cost]  # minimise the negation
    denom = _simplex_min(tableau, basis, cost, cols, denom)
    return Fraction(-_basic_value(tableau, basis, cost), denom * scale)


def _basic_value(tableau, basis, cost) -> int:
    """The objective at the current vertex, times the tableau denominator."""
    return sum(cost[basis[i]] * tableau[i][-1] for i in range(len(tableau)))


def _simplex_min(tableau, basis, cost, width, denom) -> int:
    """Pivot to an optimum of min cost.x; returns the final denominator.
    Signs are read off integer numerators, as the denominator is positive."""
    rows = len(tableau)
    while True:
        # reduced costs under the current basis, times the denominator
        priced = [(cost[basis[i]], tableau[i]) for i in range(rows) if cost[basis[i]]]
        basic = set(basis)
        entering = None
        for j in range(width):
            if j in basic:
                continue
            if cost[j] * denom < sum(y * row[j] for y, row in priced):
                entering = j  # Bland: first improving column
                break
        if entering is None:
            return denom
        leaving = None
        for i in range(rows):
            if tableau[i][entering] > 0:
                if leaving is None:
                    leaving = i
                    continue
                # compare rhs_i / a_i with rhs_l / a_l, both a > 0
                lhs = tableau[i][-1] * tableau[leaving][entering]
                rhs = tableau[leaving][-1] * tableau[i][entering]
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                    leaving = i
        if leaving is None:
            raise RuntimeError("internal error: LP unexpectedly unbounded")
        denom = _pivot(tableau, leaving, entering, denom)
        basis[leaving] = entering


def _pivot(tableau, row, col, denom) -> int:
    """Fraction-free pivot on tableau[row][col]; returns the new denominator.
    Every entry is a minor of the scaled input (Cramer's rule), so the
    division by the old denominator is exact."""
    pivot_row = tableau[row]
    p = pivot_row[col]
    for i, current in enumerate(tableau):
        if i == row:
            continue
        factor = current[col]
        if factor:
            tableau[i] = [(v * p - factor * w) // denom for v, w in zip(current, pivot_row)]
        elif p != denom:
            tableau[i] = [v * p // denom for v in current]
    if p < 0:
        for i, current in enumerate(tableau):
            tableau[i] = [-v for v in current]
        p = -p
    return p


def _drive_out_artificials(tableau, basis, cols, denom) -> int:
    rows = len(tableau)
    for i in range(rows):
        if basis[i] >= cols:
            col = next((j for j in range(cols) if tableau[i][j] != 0), None)
            if col is not None:
                denom = _pivot(tableau, i, col, denom)
                basis[i] = col
            # a fully-zero row stays basic in an artificial at level zero
    return denom
