"""The shifted product rule: hom expressions and exact cell counting.

PR(S_1,...,S_n) is the amalgam of the n cylinders-in-one-factor over the
product of the S_i.  Its objects are (level, coordinates) with level in
{0..n} and coordinates ranging over the object sets of the S_i; its homs
are products of cell homs and smaller PR expressions.  PR(S) is the
cylinder over S, which is what the counting oracle cross-checks.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product as cartesian

from .theta import Frozen, ThetaCell


class PRExpr(Frozen):
    """An expression compares and hashes by its class and the tuple of its
    fields, its __slots__; _count memoises on expressions."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())


class Empty(PRExpr):
    __slots__ = ()

    def __str__(self):
        return "0"


class Point(PRExpr):
    __slots__ = ()

    def __str__(self):
        return "x"


class Cell(PRExpr):
    __slots__ = ("cell",)

    def __init__(self, cell: ThetaCell):
        object.__setattr__(self, "cell", cell)

    def objects(self):
        return self.cell.objects()

    def pairs(self) -> list:
        """The pairs of objects z <= w: every other hom is empty."""
        return _ordered_pairs(self.cell.width)

    def hom(self, z: int, w: int) -> PRExpr:
        return hom_cell(self.cell, z, w)

    def __str__(self):
        return str(self.cell)


class Product(PRExpr):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple):
        object.__setattr__(self, "factors", factors)

    def __str__(self):
        if not self.factors:
            return "x"
        return "*".join(str(f) for f in self.factors)


class PR(PRExpr):
    __slots__ = ("cells",)

    def __init__(self, cells: tuple):
        object.__setattr__(self, "cells", cells)

    def objects(self) -> set:
        return pr_objects(self.cells)

    def pairs(self) -> list:
        """The pairs of objects (x, zs), (y, ws) with x <= y and zs <= ws
        coordinatewise: every other hom is empty."""
        coords = [tuple(zip(*zw)) or ((), ())
                  for zw in cartesian(*[_ordered_pairs(c.width) for c in self.cells])]
        return [((x, zs), (y, ws)) for x, y in _ordered_pairs(len(self.cells))
                for zs, ws in coords]

    def hom(self, src, tgt) -> PRExpr:
        return pr_hom(self.cells, src, tgt)

    def __str__(self):
        return "PR(" + ",".join(str(c) for c in self.cells) + ")"


EMPTY = Empty()
POINT_EXPR = Point()


def product(factors) -> PRExpr:
    flat = []
    for f in factors:
        if isinstance(f, Empty):
            return EMPTY
        if isinstance(f, Point):
            continue
        if isinstance(f, Cell) and f.cell.width == 0:
            continue
        if isinstance(f, Product):
            flat.extend(f.factors)
        else:
            flat.append(f)
    if not flat:
        return POINT_EXPR
    if len(flat) == 1:
        return flat[0]
    return Product(tuple(flat))


def pr(cells) -> PRExpr:
    cells = tuple(cells)
    if not cells:
        return POINT_EXPR
    return PR(cells)


def _ordered_pairs(n: int) -> list:
    """The pairs (z, w) with z <= w in {0..n}."""
    return [(z, w) for w in range(n + 1) for z in range(w + 1)]


def hom_cell(s: ThetaCell, z: int, w: int) -> PRExpr:
    """Hom in a cell from object z to object w: the product of the
    children over the interval, empty when w < z."""
    if z > w:
        return EMPTY
    return product(Cell(c) for c in s.children[z:w])


# ---------------------------------------------------------------------------
# objects and homs
# ---------------------------------------------------------------------------

def pr_objects(cells) -> set:
    cells = tuple(cells)
    coords = list(cartesian(*(c.objects() for c in cells)))
    return {(level, c) for level in range(len(cells) + 1) for c in coords}


def pr_hom(cells, src, tgt) -> PRExpr:
    """Hom of PR(cells) from (x, z) to (y, w)."""
    cells = tuple(cells)
    x, zs = src
    y, ws = tgt
    if x > y or any(z > w for z, w in zip(zs, ws)):
        return EMPTY
    factors = []
    for a in range(1, x + 1):
        factors.append(hom_cell(cells[a - 1], zs[a - 1], ws[a - 1]))
    for b in range(x + 1, y + 1):
        factors.append(pr(cells[b - 1].children[zs[b - 1]:ws[b - 1]]))
    for c in range(y + 1, len(cells) + 1):
        factors.append(hom_cell(cells[c - 1], zs[c - 1], ws[c - 1]))
    return product(factors)


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _count(expr: PRExpr, d: int) -> int:
    """A product multiplies its factors' counts; a cell or a PR expression
    has its objects as 0-cells, and above that the (d-1)-cells of its homs,
    read over the pairs of objects whose hom can be nonempty."""
    if isinstance(expr, Empty):
        return 0
    if isinstance(expr, Point):
        return 1
    if isinstance(expr, Product):
        out = 1
        for f in expr.factors:
            out *= _count(f, d)
        return out
    if isinstance(expr, (Cell, PR)):
        if d == 0:
            return len(expr.objects())
        return sum(_count(expr.hom(x, y), d - 1) for x, y in expr.pairs())
    raise TypeError(f"unknown expression {expr!r}")


def pr_count(cells_or_expr, d: int) -> int:
    """Total d-cell count of PR(cells) (or of any expression): 0 for
    d < 0, where _count would read a point as one cell."""
    if d < 0:
        return 0
    if isinstance(cells_or_expr, PRExpr):
        return _count(cells_or_expr, d)
    return _count(pr(cells_or_expr), d)

