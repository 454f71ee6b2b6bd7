"""The shifted product rule: hom expressions and exact cell counting.

PR(S_1,...,S_n) is the amalgam of the n cylinders-in-one-factor over the
product of the S_i.  Its objects are (level, coordinates) with level in
{0..n} and coordinates ranging over the object sets of the S_i; its homs
are products of cell homs and smaller PR expressions.  PR(S) is the
cylinder over S, which is what the counting oracle cross-checks.

An expression is a tuple whose first item names its kind, as dac names
generators: EMPTY, POINT_EXPR, ("cell", s) for a cell s, ("*", factors)
for a product of two or more factors, none of them a product, a point or
a unit, and ("PR", cells) for PR of one or more cells.  Tuples compare
and hash by value, so _count memoises on expressions as they are.
"""

from functools import lru_cache
from itertools import product as cartesian

EMPTY = ("empty",)
POINT_EXPR = ("point",)


def product(factors) -> tuple:
    """The product of the factors: EMPTY if one of them is, without its
    points and [0] cells, with products flattened, and the point or the
    one factor when fewer than two are left."""
    flat = []
    for f in factors:
        if f == EMPTY:
            return EMPTY
        if f[0] == "*":
            flat.extend(f[1])
        elif f != POINT_EXPR and not (f[0] == "cell" and f[1].width == 0):
            flat.append(f)
    if len(flat) < 2:
        return flat[0] if flat else POINT_EXPR
    return ("*", tuple(flat))


def pr(cells) -> tuple:
    cells = tuple(cells)
    return ("PR", cells) if cells else POINT_EXPR


def _ordered_pairs(n: int) -> list:
    """The pairs (z, w) with z <= w in {0..n}."""
    return [(z, w) for w in range(n + 1) for z in range(w + 1)]


def hom_cell(s, z: int, w: int) -> tuple:
    """Hom in a cell from object z to object w: the product of the
    children over the interval, empty when w < z."""
    if z > w:
        return EMPTY
    return product([("cell", c) for c in s.children[z:w]])


def pr_objects(cells) -> set:
    cells = tuple(cells)
    coords = list(cartesian(*(c.objects() for c in cells)))
    return {(level, c) for level in range(len(cells) + 1) for c in coords}


def pr_hom(cells, src, tgt) -> tuple:
    """Hom of PR(cells) from (x, zs) to (y, ws): the product over the
    cells of PR of a cell's children over [z, w] where the hom crosses
    the cell's level (x <= i < y), and of its cell hom elsewhere."""
    (x, zs), (y, ws) = src, tgt
    if x > y or any(z > w for z, w in zip(zs, ws)):
        return EMPTY
    return product([pr(c.children[z:w]) if x <= i < y else hom_cell(c, z, w)
                    for i, (c, z, w) in enumerate(zip(cells, zs, ws))])


# The objects, the pairs of objects whose hom can be nonempty, and the hom
# of a cell or a PR expression e, the three things _count reads of it.

def _objects(e):
    return e[1].objects() if e[0] == "cell" else pr_objects(e[1])


def _pairs(e) -> list:
    """z <= w in a cell; x <= y with coordinates zs <= ws in PR(cells):
    every other hom is empty."""
    if e[0] == "cell":
        return _ordered_pairs(e[1].width)
    cells = e[1]
    coords = [tuple(zip(*zw)) or ((), ())
              for zw in cartesian(*[_ordered_pairs(c.width) for c in cells])]
    return [((x, zs), (y, ws)) for x, y in _ordered_pairs(len(cells)) for zs, ws in coords]


def _hom(e, x, y) -> tuple:
    return hom_cell(e[1], x, y) if e[0] == "cell" else pr_hom(e[1], x, y)


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _count(e: tuple, d: int) -> int:
    """A product multiplies its factors' counts; a cell or a PR expression
    has its objects as 0-cells, and above that the (d-1)-cells of its homs,
    read over the pairs of objects whose hom can be nonempty."""
    kind = e[0]
    if kind == "empty":
        return 0
    if kind == "point":
        return 1
    if kind == "*":
        out = 1
        for f in e[1]:
            out *= _count(f, d)
        return out
    if kind in ("cell", "PR"):
        if d == 0:
            return len(_objects(e))
        return sum(_count(_hom(e, x, y), d - 1) for x, y in _pairs(e))
    raise TypeError(f"unknown expression {e!r}")


def pr_count(cells_or_expr, d: int) -> int:
    """Total d-cell count of PR(cells) (or of any expression, a tuple that
    starts with its kind): 0 for d < 0, where _count would read a point as
    one cell."""
    if d < 0:
        return 0
    e = cells_or_expr
    if not (isinstance(e, tuple) and e and isinstance(e[0], str)):
        e = pr(e)
    return _count(e, d)
