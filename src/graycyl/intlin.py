"""Small exact integer linear algebra: Hermite forms, kernels, lattice tests.

Matrices are lists of row tuples, and a lattice is the subgroup of Z^width
that its rows generate.  Every reduction runs through one routine,
`_echelon`, the incremental Hermite reduction (Cohen, "A Course in
Computational Algebraic Number Theory", §2.4): the rows are inserted one
at a time into an echelon keyed by pivot column.  A row is walked to its
first nonzero entry among the first `width` coordinates; if no pivot sits
in that column it becomes one, and if one does, Euclid on the two rows
leaves the gcd row as the pivot and carries the remainder row, now zero
there, on to the next column.  Each step is a unimodular operation on a
pair of rows, so the pivots and the rows that reach zero generate the same
subgroup as the input, and a row only ever moves on to later columns.

`rank` counts the pivots, `spans_all` asks that every column hold a pivot
equal to 1, `hnf` back-reduces the pivots to the canonical Hermite form,
`kernel` reads the identity-augmented tails of the rows that reach zero,
and `intersection` and `same_subgroup` are built on `kernel` and `hnf`.
A vector v lies in the lattice of rows exactly when
`same_subgroup(rows, rows + [v], width)`.
"""

from __future__ import annotations


def _echelon(rows, width: int) -> tuple[dict, list]:
    """({column: row}, zero rows): the pivot rows of `rows` by the column of
    their first nonzero entry, which is positive, and the rows whose first
    `width` entries all reduce to zero.  The input rows are never changed
    in place; entries past `width` ride along with their row."""
    pivots: dict = {}
    zero: list = []
    for row in rows:
        col = 0
        while True:
            while col < width and not row[col]:
                col += 1
            if col == width:
                zero.append(row)
                break
            piv = pivots.get(col)
            if piv is None:
                pivots[col] = row if row[col] > 0 else [-a for a in row]
                break
            # Euclid at col: piv keeps the gcd, row is left zero there
            while row[col]:
                q = piv[col] // row[col]
                piv, row = row, [a - q * b for a, b in zip(piv, row)]
            pivots[col] = piv if piv[col] > 0 else [-a for a in piv]
            col += 1
    return pivots, zero


def hnf(rows, width: int) -> tuple[tuple[int, ...], ...]:
    """Canonical (row-style) Hermite normal form of the subgroup generated
    by `rows` inside Z^width: pivots positive, every entry above a pivot
    in [0, pivot)."""
    pivots, _ = _echelon(rows, width)
    cols = sorted(pivots)
    red = [pivots[c] for c in cols]
    # reduce above each pivot from the top down: subtracting row k changes
    # only columns from cols[k] on, so the columns already reduced hold
    for k, c in enumerate(cols):
        p = red[k][c]
        for up in range(k):
            q = red[up][c] // p
            if q:
                red[up] = [a - q * b for a, b in zip(red[up], red[k])]
    return tuple(tuple(r) for r in red)


def rank(rows, width: int) -> int:
    return len(_echelon(rows, width)[0])


def spans_all(rows, width: int) -> bool:
    """Do the rows generate the full lattice Z^width?  Exactly when every
    column holds a pivot and every pivot is 1: the echelon is then
    unitriangular, and otherwise the index is the product of the pivots."""
    pivots, _ = _echelon(rows, width)
    return len(pivots) == width and all(row[c] == 1 for c, row in pivots.items())


def kernel(rows, width: int) -> list[tuple[int, ...]]:
    """Integer kernel of the map Z^len(rows) -> Z^width sending the k-th
    unit vector to rows[k]: the identity tails of the stacked rows that
    reduce to zero in their first `width` entries."""
    n = len(rows)
    stacked = []
    for k, row in enumerate(rows):
        tail = [0] * n
        tail[k] = 1
        stacked.append(list(row) + tail)
    return [tuple(r[width:]) for r in _echelon(stacked, width)[1]]


def intersection(rows_a, rows_b, width: int) -> list[tuple[int, ...]]:
    """Generators of the intersection of the subgroups of Z^width spanned
    by rows_a and by rows_b: each kernel vector (x, y) of the stacked rows
    gives the common element x·A = -y·B."""
    out = []
    for v in kernel(list(rows_a) + list(rows_b), width):
        acc = [0] * width
        for c, row in zip(v, rows_a):
            if c:
                acc = [a + c * b for a, b in zip(acc, row)]
        out.append(tuple(acc))
    return out


def same_subgroup(rows_a, rows_b, width: int) -> bool:
    return hnf(rows_a, width) == hnf(rows_b, width)
