"""Exact Gaussian elimination over any of the package's fields.

Entries may be Fractions, number-field elements, rational functions, or
truncated q-series.  The elimination needs only +, -, * and a zero test:
it clears below each pivot by row_i = pivot*row_i - c*row_k, with no
division; `/` is used only in back-substitution.  One forward elimination
serves both routines.  Over q-series the pivot of a column is an entry of
least valuation among those whose leading term is known; entries that are
zero only to working precision are carried through the row updates, and a
column in which no entry has a known leading term, but not every entry is
exactly zero, raises PrecisionLoss.  `cofactors` expands along one row
instead, for a determinant whose other rows stay fixed while that row
changes.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, List, Optional, Sequence, Tuple

from .fields import INFINITY, Valuation
from .qvalues import PrecisionLoss, QSeries


def _is_zero(entry) -> bool:
    z = getattr(entry, "is_zero", None)
    if z is not None:
        return z
    return entry == 0


def _pivot_row(rows: Sequence[Sequence], start: int, col: int) -> Optional[int]:
    """The row at or below `start` holding the pivot of column `col`: the
    first nonzero entry, or over q-series the first of least valuation
    among the entries with a known leading term.  None when every entry is
    exactly zero."""
    best = None
    unknown = False
    for i in range(start, len(rows)):
        entry = rows[i][col]
        if _is_zero(entry):
            continue
        if not isinstance(entry, QSeries):
            return i
        if not entry.known:
            unknown = True
        elif best is None or entry.val < rows[best][col].val:
            best = i
    if best is None and unknown:
        raise PrecisionLoss(f"no entry of column {col} has a known leading term")
    return best


def _eliminate(rows: List[List], ncols: int) -> Tuple[List[int], List[int]]:
    """Bring the first `ncols` columns of `rows` to echelon form in place,
    taking the pivot of each column from `_pivot_row` and clearing only
    below it, without division.  Returns the pivot columns and, for each
    pivot, the number of rows it scaled."""
    pivots: List[int] = []
    scaled: List[int] = []
    for col in range(ncols):
        rank = len(pivots)
        pivot_row = _pivot_row(rows, rank, col)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pivot = rows[rank][col]
        count = 0
        for i in range(rank + 1, len(rows)):
            c = rows[i][col]
            if _is_zero(c):
                continue
            rows[i] = [pivot * a - c * b for a, b in zip(rows[i], rows[rank])]
            count += 1
        pivots.append(col)
        scaled.append(count)
    return pivots, scaled


def cofactors(fixed: Sequence[Sequence], d: int) -> List:
    """The signed cofactors C_j of row d of an n x n matrix whose other
    rows are `fixed`, in order: its determinant is sum_j a_j * C_j for
    whatever row a stands at position d.

    Laplace expansion along each fixed row in turn, over column subsets,
    so each minor is formed once: the k x k minors of the first k fixed
    rows cost k products per column subset, 70 products in all at n = 5.
    Only +, -, * and unary - are used."""
    n = len(fixed) + 1
    minors = {(j,): fixed[0][j] for j in range(n)}
    for k in range(1, n - 1):
        row = fixed[k]
        grown = {}
        for cols in combinations(range(n), k + 1):
            acc = None
            for i, j in enumerate(cols):
                term = row[j] * minors[cols[:i] + cols[i + 1:]]
                if (k + i) % 2:
                    term = -term
                acc = term if acc is None else acc + term
            grown[cols] = acc
        minors = grown
    everything = tuple(range(n))
    out = []
    for j in range(n):
        minor = minors[everything[:j] + everything[j + 1:]]
        out.append(-minor if (d + j) % 2 else minor)
    return out


def solve_with_free_zero(matrix: Sequence[Sequence], rhs: Sequence) -> Optional[List]:
    """Solve A*y = b exactly, returning the solution with all free variables
    set to zero, or None when the system is inconsistent."""
    rows = [list(row) + [b] for row, b in zip(matrix, rhs)]
    ncols = len(matrix[0]) if rows else 0
    pivots, _ = _eliminate(rows, ncols)
    if any(not _is_zero(row[ncols]) for row in rows[len(pivots):]):
        return None
    y = [rhs[0] - rhs[0] if rhs else None] * ncols
    for i in reversed(range(len(pivots))):
        row = rows[i]
        acc = row[ncols]
        for k in pivots[i + 1:]:
            acc = acc - row[k] * y[k]
        y[pivots[i]] = acc / row[pivots[i]]
    return y


def determinant(matrix: Sequence[Sequence], nu: Callable) -> Valuation:
    """The valuation `nu` of the determinant, INFINITY when it is zero.

    Each row update multiplies the determinant by its pivot p_k, so with
    u_k rows scaled at step k the echelon form's diagonal is the
    determinant (up to sign) times prod p_k^u_k, and the valuation is
    sum (1 - u_k) * nu(p_k) (Bareiss's elimination without its exact
    division).  Over q-series every pivot has a known leading term, so the
    result is exact."""
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    rows = [list(r) for r in matrix]
    pivots, scaled = _eliminate(rows, n)
    if len(pivots) < n:
        return INFINITY
    return sum((1 - u) * nu(rows[k][k]) for k, u in enumerate(scaled))
