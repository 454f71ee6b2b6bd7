"""Small exact integer linear algebra: Hermite forms, kernels, span tests.

Matrices are lists of row tuples.  Everything is Euclidean row reduction
over the integers; inputs in this project never exceed a few dozen rows.
"""

from __future__ import annotations


def _reduce_rows(rows: list[list[int]], width: int):
    """Bring `rows` to row echelon form over Z by integer row operations
    on their first `width` coordinates."""
    rows = [list(r) for r in rows]
    pivot_row = 0
    for col in range(width):
        # reduce the nonzero entries at or below pivot_row to a single one
        while True:
            live = [r for r in range(pivot_row, len(rows)) if rows[r][col] != 0]
            if len(live) <= 1:
                break
            live.sort(key=lambda r: abs(rows[r][col]))
            small = live[0]
            for r in live[1:]:
                q = rows[r][col] // rows[small][col]
                rows[r] = [a - q * b for a, b in zip(rows[r], rows[small])]
        if not live:
            continue
        r = live[0]
        rows[pivot_row], rows[r] = rows[r], rows[pivot_row]
        if rows[pivot_row][col] < 0:
            rows[pivot_row] = [-a for a in rows[pivot_row]]
        pivot_row += 1
    return rows, pivot_row


def hnf(rows, width: int) -> tuple[tuple[int, ...], ...]:
    """Canonical (row-style) Hermite normal form of the subgroup generated
    by `rows` inside Z^width."""
    red, npiv = _reduce_rows(rows, width)
    red = red[:npiv]
    # normalize entries above each pivot
    pivots = []
    for r in red:
        c = next(i for i, a in enumerate(r) if a != 0)
        pivots.append(c)
    for k in range(len(red) - 1, -1, -1):
        c = pivots[k]
        p = red[k][c]
        for up in range(k):
            q = red[up][c] // p
            if q:
                red[up] = [a - q * b for a, b in zip(red[up], red[k])]
    return tuple(tuple(r) for r in red)


def rank(rows, width: int) -> int:
    _, npiv = _reduce_rows(rows, width)
    return npiv


def spans_all(rows, width: int) -> bool:
    """Do the rows generate the full lattice Z^width?"""
    h = hnf(rows, width)
    if len(h) != width:
        return False
    return all(h[i][i] == 1 for i in range(width))


def in_span(rows_hnf, v) -> bool:
    """Membership of v in the subgroup given by an HNF basis."""
    v = list(v)
    for row in rows_hnf:
        c = next(i for i, a in enumerate(row) if a != 0)
        if any(v[i] != 0 for i in range(c)):
            return False
        if v[c] % row[c] != 0:
            return False
        q = v[c] // row[c]
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return all(a == 0 for a in v)


def kernel(rows, width: int) -> list[tuple[int, ...]]:
    """Integer kernel of the map Z^len(rows) -> Z^width sending the k-th
    unit vector to rows[k]."""
    n = len(rows)
    stacked = [list(rows[k]) + [1 if i == k else 0 for i in range(n)] for k in range(n)]
    red, _ = _reduce_rows(stacked, width)
    out = []
    for r in red:
        if all(a == 0 for a in r[:width]):
            tail = tuple(r[width:])
            if any(tail):
                out.append(tail)
    return out


def intersection(rows_a, rows_b, width: int) -> list[tuple[int, ...]]:
    """Generators of the intersection of the subgroups of Z^width spanned
    by rows_a and by rows_b: each kernel vector (x, y) of the stacked rows
    gives the common element x·A = -y·B."""
    return [tuple(sum(c * row[p] for c, row in zip(v, rows_a)) for p in range(width))
            for v in kernel(list(rows_a) + list(rows_b), width)]


def same_subgroup(rows_a, rows_b, width: int) -> bool:
    return hnf(rows_a, width) == hnf(rows_b, width)
