"""Cells and maps of the wreath-product cell category.

A cell is a finite planar rooted tree [n];(T_1,...,T_n).  A map pairs a
monotone map of the base simplices with one map of children per covered
segment: source segment i covers the target segments j with
f(i-1) < j <= f(i), and goes into each by a map from child i to child j
(Berger, "Iterated wreath product of the simplex category and iterated loop
spaces", Adv. Math. 2007).  A ThetaMap holds exactly that, as the vertex
images of its base map and, per source segment, its (j, child map) legs,
which is what dac.wreath_map reads to build the map's lambda map.

The maps the checks read are built here: identities, bangs, vertices and
one-segment maps, the hyperfaces, and the globular sum, which gives each
leaf and meet globe with its inclusion.  Identities, hyperfaces and
globular sums are each one fold: children first, once per subtree.
"""

from __future__ import annotations

from functools import cache, lru_cache
from itertools import product
from weakref import WeakValueDictionary


class Frozen:
    """Base of the shared, memoised values: assignment raises
    AttributeError, so a value one caller holds cannot change under
    another.  Constructors set their slots with object.__setattr__."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only: "
                             f"cannot assign {value!r:.40} to {name!r}")


class CellSyntaxError(ValueError):
    """Raised on malformed cell literals; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# The live cells by children tuple.  Construction returns the table's
# instance when there is one, so equal cells are one object and equality is
# identity.  The table holds its cells weakly: a cell no one holds is freed.
_CELLS: WeakValueDictionary = WeakValueDictionary()


class ThetaCell(Frozen):
    """A cell, interned: ThetaCell(children) is the one live cell with those
    children, so two cells are equal exactly when they are the same object."""

    __slots__ = ("children", "_hash", "__weakref__")

    def __new__(cls, children: tuple["ThetaCell", ...]):
        self = _CELLS.get(children)
        if self is None:
            self = object.__new__(cls)
            object.__setattr__(self, "children", children)
            # hash((children,)), taken once from the children's stored
            # hashes, so hashing never recurses; set orders and the pinned
            # CLI bytes rest on this value
            object.__setattr__(self, "_hash", hash((children,)))
            _CELLS[children] = self
        return self

    def __hash__(self) -> int:
        return self._hash

    @property
    def width(self) -> int:
        return len(self.children)

    def dimension(self) -> int:
        """Depth of the tree, level by level, so deep cells do not recurse."""
        depth, level = 0, {self}
        while True:
            level = {c for t in level for c in t.children}
            if not level:
                return depth
            depth += 1

    def objects(self):
        """Vertex set {0..n} of the base simplex."""
        return range(self.width + 1)

    def __str__(self) -> str:
        """[n](T_1,...,T_n), or [n] when every child is [0]; written from an
        explicit stack of cells and punctuation, so deep cells do not
        recurse."""
        out = []
        stack = [self]
        while stack:
            t = stack.pop()
            if isinstance(t, str):
                out.append(t)
            elif all(c.width == 0 for c in t.children):
                out.append(f"[{t.width}]")
            else:
                out.append(f"[{t.width}](")
                stack.append(")")
                for k, c in enumerate(reversed(t.children)):
                    if k:
                        stack.append(",")
                    stack.append(c)
        return "".join(out)

    def __repr__(self) -> str:
        return f"ThetaCell({self})"


POINT = ThetaCell(())


def cell(width: int, *children) -> ThetaCell:
    """Build [width];(children), filling missing children with [0]."""
    if children:
        if len(children) != width:
            raise ValueError(f"width {width} needs {width} children, got {len(children)}")
        return ThetaCell(tuple(children))
    return ThetaCell((POINT,) * width)


def globe(n: int) -> ThetaCell:
    """The n-globe [1];[1];...;[1]."""
    t = POINT
    for _ in range(n):
        t = ThetaCell((t,))
    return t


def fold(t: ThetaCell, build, memo: dict):
    """memo[t], after setting memo[u] = build(u, memo) for every subtree u
    of t that memo lacks: children first, so build reads theirs from memo,
    and once per distinct subtree.  The subtrees are listed from one
    explicit stack, each before its children, and built in reverse, so
    deep cells do not recurse."""
    order, stack = [], [t]
    while stack:
        u = stack.pop()
        if u not in memo:
            order.append(u)
            stack += u.children
    for u in reversed(order):
        if u not in memo:
            memo[u] = build(u, memo)
    return memo[t]


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

# Deepest tree parse_cell accepts.  Cell construction, equality, hashing,
# printing, dimension() and every builder that goes through fold do not
# recurse, but four things still recurse per tree level: dac.lambda_cell
# through its lru_cache, dac.lambda_map over a map's legs, dac.render_name
# and parse_cell itself.  Under Python's default recursion limit of 1000
# the complex builders fail near depth 250.
MAX_DEPTH = 200


def parse_cell(text: str) -> ThetaCell:
    """Parse the grammar  cell := "[" nat "]" ("(" cell ("," cell)* ")")?

    ``[k]`` with k >= 1 and no parens is sugar for k copies of [0];
    ``G<n>`` is sugar for the n-globe.  Whitespace is insignificant.
    Cells deeper than MAX_DEPTH are rejected.
    """
    src = text
    pos = 0

    def check_depth(depth, start):
        if depth > MAX_DEPTH:
            raise CellSyntaxError(f"cell deeper than {MAX_DEPTH}", start)

    def skip_ws():
        nonlocal pos
        while pos < len(src) and src[pos].isspace():
            pos += 1

    def expect(ch):
        nonlocal pos
        skip_ws()
        if pos >= len(src) or src[pos] != ch:
            raise CellSyntaxError(f"expected {ch!r}", pos)
        pos += 1

    def parse_nat():
        nonlocal pos
        skip_ws()
        start = pos
        while pos < len(src) and src[pos].isdigit():
            pos += 1
        if pos == start:
            raise CellSyntaxError("expected a number", start)
        return int(src[start:pos])

    def parse_one(depth):
        """A cell whose root sits at the given depth of the whole tree."""
        nonlocal pos
        skip_ws()
        start = pos
        if pos < len(src) and src[pos] == "G":
            pos += 1
            n = parse_nat()
            check_depth(depth + n, start)
            return globe(n)
        expect("[")
        n = parse_nat()
        expect("]")
        check_depth(depth + (n > 0), start)
        skip_ws()
        if pos < len(src) and src[pos] == "(":
            pos += 1
            kids = [parse_one(depth + 1)]
            skip_ws()
            while pos < len(src) and src[pos] == ",":
                pos += 1
                kids.append(parse_one(depth + 1))
                skip_ws()
            expect(")")
            if len(kids) != n:
                raise CellSyntaxError(f"width {n} with {len(kids)} children", pos)
            return ThetaCell(tuple(kids))
        return cell(n)

    t = parse_one(0)
    skip_ws()
    if pos != len(src):
        raise CellSyntaxError("trailing input", pos)
    return t


# ---------------------------------------------------------------------------
# maps of the wreath product, held as position data
# ---------------------------------------------------------------------------

def coface(n: int, k: int) -> tuple:
    """The vertex images of d^k: [n] -> [n+1], which skips vertex k."""
    return tuple(i if i < k else i + 1 for i in range(n + 1))


class ThetaMap(Frozen):
    """A map source -> target of the wreath product, held as the input of
    dac.wreath_map.  image lists the images of the n+1 vertices of the base
    map, a monotone map of the base simplices, and legs[i-1] lists the pairs
    (j, g) over the target segments j = image[i-1]+1 .. image[i] that source
    segment i covers, where g is the map from source child i into target
    child j.  lam is the map's lambda map: None until dac.lambda_map builds
    it on first read and keeps it here.

    Maps are neither interned nor checked when built: they compare by
    identity, and the builders of this module make them well formed.  The
    tests check every map those builders make against a validated oracle."""

    __slots__ = ("source", "target", "image", "legs", "lam")

    def __init__(self, source: ThetaCell, target: ThetaCell, image: tuple, legs: tuple):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "image", image)
        object.__setattr__(self, "legs", legs)
        object.__setattr__(self, "lam", None)


# theta_identity's value per cell, kept, like lambda_cell's: an identity
# held here keeps its lambda map too, so that is built once per cell
_IDENTITIES: dict = {}


def theta_identity(t: ThetaCell) -> ThetaMap:
    """The identity of t.  Built once per cell and kept."""
    return _IDENTITIES.get(t) or fold(t, lambda u, ids: ThetaMap(
        u, u, tuple(range(u.width + 1)),
        tuple([((i, ids[c]),) for i, c in enumerate(u.children, start=1)])), _IDENTITIES)


@cache
def bang(source: ThetaCell) -> ThetaMap:
    """The unique map to [0]: every segment collapses.  Built once per cell
    and kept."""
    return ThetaMap(source, POINT, (0,) * (source.width + 1), ((),) * source.width)


def vertex(t: ThetaCell, p: int) -> ThetaMap:
    """The object inclusion [0] -> T picking vertex p."""
    return ThetaMap(POINT, t, (p,), ())


def segment_map(t: ThetaCell, s: int, g: ThetaMap) -> ThetaMap:
    """[1];(g.source) -> t through segment s: g into slot s."""
    return ThetaMap(ThetaCell((g.source,)), t, (s - 1, s), (((s, g),),))


# ---------------------------------------------------------------------------
# hyperfaces (codimension-1 faces with target T)
# ---------------------------------------------------------------------------

class Hyperface(Frozen):
    __slots__ = ("kind", "position", "map")

    def __init__(self, kind: str, position: tuple, map: ThetaMap):
        object.__setattr__(self, "kind", kind)          # "vertical" | "outer" | "inner"
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "map", map)


def coface_map(t: ThetaCell, k: int, drop: int) -> ThetaMap:
    """d^k into t from t without slot `drop`.  Each slot keeps its child by
    the identity into the slot of t it copies; the slot sent over two
    segments reaches the other one, a unit, by bang."""
    children = t.children[:drop - 1] + t.children[drop:]
    image = coface(len(children), k)
    legs = tuple([tuple([(j, theta_identity(c) if j == (i if i < drop else i + 1) else bang(c))
                         for j in range(image[i - 1] + 1, image[i] + 1)])
                  for i, c in enumerate(children, start=1)])
    return ThetaMap(ThetaCell(children), t, image, legs)


def hyperfaces(t: ThetaCell) -> list[Hyperface]:
    """All vertical, outer and inner hyperfaces into t.

    Vertical faces replace one child by one of its own hyperfaces' sources,
    and equal subtrees share those faces; outer faces drop the first or last
    slot; inner faces d^k exist next to unit children and come in an (id,!)
    and a (!,id) variant.
    """
    return fold(t, _hyperfaces, {})


def _hyperfaces(t: ThetaCell, below: dict) -> list[Hyperface]:
    """The hyperfaces into t, given those into its children in below."""
    n = t.width
    out: list[Hyperface] = []
    ids = tuple([((i, theta_identity(c)),) for i, c in enumerate(t.children, start=1)])
    image = tuple(range(n + 1))
    for k, c in enumerate(t.children, start=1):
        for sub in below[c]:
            g = sub.map
            src = ThetaCell(t.children[:k - 1] + (g.source,) + t.children[k:])
            out.append(Hyperface("vertical", (k,) + sub.position,
                                 ThetaMap(src, t, image, ids[:k - 1] + (((k, g),),) + ids[k:])))
    if n >= 1:
        out.append(Hyperface("outer", (0,), coface_map(t, 0, 1)))
        out.append(Hyperface("outer", (n,), coface_map(t, n, n)))
    for k in range(1, n):
        if t.children[k] == POINT:
            out.append(Hyperface("inner", (k, "after"), coface_map(t, k, k + 1)))
        if t.children[k - 1] == POINT:
            out.append(Hyperface("inner", (k, "before"), coface_map(t, k, k)))
    return out


# ---------------------------------------------------------------------------
# the globular sum (leaf and meet globe inclusions)
# ---------------------------------------------------------------------------

def globular_sum(t: ThetaCell) -> tuple[list, list]:
    """(leaves, meets): the leaf globes of t left to right, and the globes
    where consecutive leaves meet, each as a (dimension, inclusion into t)
    pair.  A leaf or meet of child s goes in through segment s, one
    dimension up, and the last leaf of child s meets the first of child
    s+1 in vertex s.  Equal subtrees share their pieces."""
    return fold(t, _globular_sum, {})


def _globular_sum(t: ThetaCell, below: dict) -> tuple[list, list]:
    """The globular sum of t, given those of its children in below."""
    if t.width == 0:
        return [(0, theta_identity(t))], []
    leaves, meets = [], []
    for s, c in enumerate(t.children, start=1):
        if s > 1:
            meets.append((0, vertex(t, s - 1)))
        sub_leaves, sub_meets = below[c]
        leaves += [(n + 1, segment_map(t, s, g)) for n, g in sub_leaves]
        meets += [(m + 1, segment_map(t, s, g)) for m, g in sub_meets]
    return leaves, meets


# ---------------------------------------------------------------------------
# corpus enumeration
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def cells_with_nodes(n: int) -> tuple[ThetaCell, ...]:
    """All planar rooted trees with exactly n nodes."""
    if n == 1:
        return (POINT,)
    out = []

    def splits(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(1, total - parts + 2):
            for rest in splits(total - first, parts - 1):
                yield (first,) + rest

    for width in range(1, n):
        for sizes in splits(n - 1, width):
            for kids in product(*(cells_with_nodes(s) for s in sizes)):
                out.append(ThetaCell(kids))
    return tuple(out)


def cells_up_to(nodes: int) -> list[ThetaCell]:
    out = []
    for n in range(1, nodes + 1):
        out.extend(cells_with_nodes(n))
    return out
