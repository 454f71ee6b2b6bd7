"""Small exact integer linear algebra on sparse rows: ranks, pivots,
membership and meets of lattices.

A row is a tuple of (position, coefficient) pairs with nonzero coefficients
in position order, as dac holds them, and a lattice is the subgroup of
Z^width that its rows generate; entries from position `width` on ride along.
Every reduction runs through `_echelon`, the incremental Hermite reduction
(Cohen, "A Course in Computational Algebraic Number Theory", §2.4): rows go
one at a time into an echelon keyed by pivot position.  A row whose first
position is free becomes its pivot as it is.  On a clash with a pivot that
divides the row's entry there, the row drops that position by subtracting
the multiple of the pivot, which stays, so a short pivot carries no fill-in
into later rows; with any other pivot, Euclid on the two rows leaves the gcd
row as the pivot and carries the remainder, which no longer holds that
position, on to its next.  Each step is unimodular, so the pivots and the
rows that reach zero generate the input's subgroup.  Rows over disjoint
ranges of positions never clash, so one echelon of all of them is the
echelon of each range.

`rank` counts the pivots and `pivots` reads them, `intersection` is
Zassenhaus's meet, and `contains` reduces vectors by the pivots: v lies in
the lattice of rows exactly when `contains(rows, [v], width)`.  Two lattices
are equal when each contains the other.
"""

from __future__ import annotations


def _minus(a, q: int, b) -> tuple:
    """The row a - q·b, by a merge of the two rows (a itself if q = 0)."""
    if not q:
        return a
    out, i, j, la, lb = [], 0, 0, len(a), len(b)
    while i < la and j < lb:
        (p, c), (r, e) = a[i], b[j]
        if p < r:
            out.append(a[i])
            i += 1
        elif r < p:
            out.append((r, -q * e))
            j += 1
        else:
            if c != q * e:
                out.append((p, c - q * e))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend([(r, -q * e) for r, e in b[j:]])
    return tuple(out)


def _positive(row) -> tuple:
    """The row, negated if its first coefficient is negative."""
    return row if row[0][1] > 0 else tuple([(p, -c) for p, c in row])


def _echelon(rows, width: int) -> tuple[dict, list]:
    """({position: row}, zero rows): the pivot rows of `rows` by their first
    position, whose coefficient is positive, and the rows left with no
    position below `width`.  The input rows are never changed in place."""
    pivots: dict = {}
    zero: list = []
    for row in rows:
        while row and row[0][0] < width:
            p = row[0][0]
            piv = pivots.get(p)
            if piv is None:
                pivots[p] = _positive(row)
                break
            c, e = row[0][1], piv[0][1]
            if not c % e:
                # the pivot divides: the row drops p and the pivot stays
                row = row[1:] if len(piv) == 1 else _minus(row, c // e, piv)
                continue
            # Euclid at p: piv keeps the gcd, row is left without p
            while row and row[0][0] == p:
                piv, row = row, _minus(piv, piv[0][1] // row[0][1], row)
            pivots[p] = _positive(piv)
        else:
            zero.append(row)
    return pivots, zero


def rank(rows, width: int) -> int:
    return len(_echelon(rows, width)[0])


def pivots(rows, width: int) -> dict:
    """{position: pivot} over the positions below `width` that hold one.  The
    rows span Z^width exactly when every position holds a pivot equal to 1."""
    return {p: row[0][1] for p, row in _echelon(rows, width)[0].items()}


def intersection(rows_a, rows_b, width: int) -> list[tuple]:
    """Generators of the meet of the lattices of rows_a and rows_b
    (Zassenhaus): the rows (a | a) and (b | 0) span the (x + y | x) for x, y
    in the two lattices, and those that reach zero span the (0 | x), x in both."""
    heads = [a + tuple([(p + width, c) for p, c in a]) for a in rows_a]
    _, zero = _echelon(heads + list(rows_b), width)
    return [tuple([(p - width, c) for p, c in row]) for row in zero]


def contains(rows, vectors, width: int) -> bool:
    """Does every vector lie in the lattice of rows?  The pivot rows are a
    basis of that lattice with distinct first positions, so a vector lies in
    it exactly when its first position holds a pivot that divides its entry
    there, and what is left after subtracting that multiple lies in it too:
    the vector without its first entry, where the pivot row has no other.
    Positions from `width` on are not read."""
    pivots, _ = _echelon(rows, width)
    for v in vectors:
        while v and v[0][0] < width:
            p, c = v[0]
            piv = pivots.get(p)
            if piv is None or c % piv[0][1]:
                return False
            v = v[1:] if len(piv) == 1 else _minus(v, c // piv[0][1], piv)
    return True
