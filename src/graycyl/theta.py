"""Cells and morphisms of the wreath-product cell category.

A cell is a finite planar rooted tree [n];(T_1,...,T_n).  Morphisms pair a
monotone map of the base simplices with a family of component morphisms
indexed by the segment-image sets F(f)(i) = {j | f(i-1) < j <= f(i)}.
"""

from __future__ import annotations

from functools import cache, lru_cache
from itertools import product
from types import MappingProxyType
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


# The live cells by children tuple, and the live morphisms by their field
# tuple.  Construction returns the table's instance when there is one, so
# equal values are one object and equality is identity.  The tables hold
# their values weakly: a cell or morphism no one holds is freed.
_CELLS: WeakValueDictionary = WeakValueDictionary()
_MORPHISMS: WeakValueDictionary = WeakValueDictionary()


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


def mirror(t: ThetaCell) -> ThetaCell:
    """Recursive left-right reversal of the tree."""
    return ThetaCell(tuple(mirror(c) for c in reversed(t.children)))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

# Deepest tree parse_cell accepts.  Cell construction, equality, hashing,
# printing and dimension() do not recurse, but the complex builders recurse
# through three or four frames per tree level; under Python's default
# recursion limit of 1000 they fail near depth 250.
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
# globular sums
# ---------------------------------------------------------------------------

class GlobularSumDecomposition(Frozen):
    __slots__ = ("leaf_dims", "meet_dims")

    def __init__(self, leaf_dims: tuple[int, ...], meet_dims: tuple[int, ...]):
        object.__setattr__(self, "leaf_dims", leaf_dims)
        object.__setattr__(self, "meet_dims", meet_dims)


def globular_sum(t: ThetaCell) -> GlobularSumDecomposition:
    """Leaf depths left-to-right and depths of consecutive-leaf meets."""
    leaves: list[int] = []
    meets: list[int] = []

    def walk(u: ThetaCell, depth: int):
        if u.width == 0:
            leaves.append(depth)
            return
        for i, c in enumerate(u.children):
            if i > 0:
                meets.append(depth)
            walk(c, depth + 1)

    walk(t, 0)
    return GlobularSumDecomposition(tuple(leaves), tuple(meets))


# ---------------------------------------------------------------------------
# simplicial maps and the functor F into Segal's category
# ---------------------------------------------------------------------------

class SimplicialMap(Frozen):
    """Monotone map [n] -> [m], stored as the n+1 vertex images.  Maps
    compare and hash by their three fields; gamma_image memoises on them."""

    __slots__ = ("source_width", "target_width", "image")

    def __init__(self, source_width: int, target_width: int, image: tuple[int, ...]):
        if len(image) != source_width + 1:
            raise ValueError("image length must be source width + 1")
        if any(v < 0 or v > target_width for v in image):
            raise ValueError("vertex image out of range")
        if any(a > b for a, b in zip(image, image[1:])):
            raise ValueError("map is not monotone")
        object.__setattr__(self, "source_width", source_width)
        object.__setattr__(self, "target_width", target_width)
        object.__setattr__(self, "image", image)

    def __eq__(self, other):
        if type(other) is not SimplicialMap:
            return NotImplemented
        return ((self.source_width, self.target_width, self.image)
                == (other.source_width, other.target_width, other.image))

    def __hash__(self) -> int:
        return hash((self.source_width, self.target_width, self.image))

    def __call__(self, v: int) -> int:
        return self.image[v]

    def then(self, other: "SimplicialMap") -> "SimplicialMap":
        if self.target_width != other.source_width:
            raise ValueError("widths do not compose")
        return SimplicialMap(self.source_width, other.target_width,
                             tuple(other.image[v] for v in self.image))

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.image)) + "}"


def simplicial_identity(n: int) -> SimplicialMap:
    return SimplicialMap(n, n, tuple(range(n + 1)))


def coface(n: int, k: int) -> SimplicialMap:
    """d^k: [n] -> [n+1], skipping vertex k."""
    return SimplicialMap(n, n + 1, tuple(i if i < k else i + 1 for i in range(n + 1)))


@cache
def gamma_image(f: SimplicialMap) -> MappingProxyType:
    """F(f)(i) = {j | f(i-1) < j <= f(i)} for each source segment i.

    Memoised per map: every caller gets the same read-only mapping."""
    return MappingProxyType({i: tuple(range(f(i - 1) + 1, f(i) + 1))
                             for i in range(1, f.source_width + 1)})


# ---------------------------------------------------------------------------
# morphisms of the wreath product
# ---------------------------------------------------------------------------

class ThetaMorphism(Frozen):
    """A morphism, interned like ThetaCell: equal morphisms are one object.
    The checks run once, when a morphism is first built; a construction
    that fails raises and leaves nothing in the table."""

    __slots__ = ("source", "target", "base", "components", "_hash", "__weakref__")

    def __new__(cls, source: ThetaCell, target: ThetaCell, base: SimplicialMap,
                components: tuple[tuple[tuple[int, int], "ThetaMorphism"], ...]):
        key = (source, target, base, components)
        self = _MORPHISMS.get(key)
        if self is not None:
            return self
        if base.source_width != source.width:
            raise ValueError("base source width mismatch")
        if base.target_width != target.width:
            raise ValueError("base target width mismatch")
        image = gamma_image(base)
        if [k for k, _ in components] != [(i, j) for i in range(1, source.width + 1)
                                          for j in image[i]]:
            raise ValueError("component keys must be exactly the segment-image pairs")
        for (i, j), f in components:
            if f.source is not source.children[i - 1]:
                raise ValueError(f"component ({i},{j}) has wrong source")
            if f.target is not target.children[j - 1]:
                raise ValueError(f"component ({i},{j}) has wrong target")
        self = object.__new__(cls)
        for name, value in zip(("source", "target", "base", "components"), key):
            object.__setattr__(self, name, value)
        # hash of the field tuple, taken once
        object.__setattr__(self, "_hash", hash(key))
        _MORPHISMS[key] = self
        return self

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        comps = ",".join(f"({i},{j}):{f}" for (i, j), f in self.components)
        return f"{self.base};[{comps}]"


# theta_identity's value per cell, kept, like lambda_cell's: an identity
# held here keeps its lambda map alive too, so that is built once per cell
_IDENTITIES: dict = {}


def theta_identity(t: ThetaCell) -> ThetaMorphism:
    """The identity of t.  Built once per cell and kept, bottom-up from an
    explicit stack, so deep cells do not recurse."""
    stack = [t]
    while stack:
        u = stack[-1]
        if u in _IDENTITIES:
            stack.pop()
            continue
        missing = [c for c in u.children if c not in _IDENTITIES]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        comps = tuple(((i, i), _IDENTITIES[c]) for i, c in enumerate(u.children, start=1))
        _IDENTITIES[u] = ThetaMorphism(u, u, simplicial_identity(u.width), comps)
    return _IDENTITIES[t]


@cache
def bang(source: ThetaCell) -> ThetaMorphism:
    """The unique morphism to [0].  Built once per cell and kept."""
    return ThetaMorphism(source, POINT, SimplicialMap(source.width, 0, (0,) * (source.width + 1)), ())


def theta_morphism(source, target, base, comp_map) -> ThetaMorphism:
    """Assemble a morphism from a base map and a dict {(i,j): ThetaMorphism}."""
    comps = []
    for i in range(1, source.width + 1):
        for j in gamma_image(base)[i]:
            comps.append(((i, j), comp_map[(i, j)]))
    return ThetaMorphism(source, target, base, tuple(comps))


def vertex(t: ThetaCell, p: int) -> ThetaMorphism:
    """The object inclusion [0] -> T picking vertex p."""
    return ThetaMorphism(POINT, t, SimplicialMap(0, t.width, (p,)), ())


def segment_map(t: ThetaCell, s: int, g: ThetaMorphism) -> ThetaMorphism:
    """[1];(g.source) -> t through segment s: g into slot s."""
    return ThetaMorphism(ThetaCell((g.source,)), t,
                         SimplicialMap(1, t.width, (s - 1, s)), (((1, s), g),))


# ---------------------------------------------------------------------------
# hyperfaces (codimension-1 faces with target T)
# ---------------------------------------------------------------------------

class Hyperface(Frozen):
    __slots__ = ("kind", "position", "map")

    def __init__(self, kind: str, position: tuple, map: ThetaMorphism):
        object.__setattr__(self, "kind", kind)          # "vertical" | "outer" | "inner"
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "map", map)


def coface_map(t: ThetaCell, k: int, drop: int) -> ThetaMorphism:
    """d^k into t from t without slot `drop`.  Each slot keeps its child by
    the identity into the slot of t it copies; the slot sent over two
    segments reaches the other one, a unit, by bang."""
    src = ThetaCell(t.children[:drop - 1] + t.children[drop:])
    base = coface(src.width, k)
    image = gamma_image(base)
    comps = tuple(((i, j), theta_identity(c) if j == (i if i < drop else i + 1) else bang(c))
                  for i, c in enumerate(src.children, start=1) for j in image[i])
    return ThetaMorphism(src, t, base, comps)


def hyperfaces(t: ThetaCell) -> list[Hyperface]:
    """All vertical, outer and inner hyperfaces into t.

    Vertical faces replace one child by one of its own hyperfaces' sources;
    outer faces drop the first or last slot; inner faces d^k exist next to
    unit children and come in an (id,!) and a (!,id) variant.
    """
    n = t.width
    out: list[Hyperface] = []
    for k in range(1, n + 1):
        for sub in hyperfaces(t.children[k - 1]):
            comp_map = {(i, i): theta_identity(t.children[i - 1]) for i in range(1, n + 1)}
            comp_map[(k, k)] = sub.map
            src = ThetaCell(t.children[:k - 1] + (sub.map.source,) + t.children[k:])
            m = theta_morphism(src, t, simplicial_identity(n), comp_map)
            out.append(Hyperface("vertical", (k,) + sub.position, m))
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
# leaf and meet globe inclusions (the globular sum realized in Theta)
# ---------------------------------------------------------------------------

def _leaf_segment(t: ThetaCell, leaf: int):
    """(s, i, n): the `leaf`-th leaf of t is leaf i of the n leaves of
    child s."""
    for s, c in enumerate(t.children, start=1):
        n = len(globular_sum(c).leaf_dims)
        if leaf < n:
            return s, leaf, n
        leaf -= n
    raise IndexError("leaf index out of range")


def leaf_inclusion(t: ThetaCell, leaf: int) -> ThetaMorphism:
    """The inclusion of the `leaf`-th leaf globe into t."""
    if t.width == 0:
        return theta_identity(t)
    s, i, _ = _leaf_segment(t, leaf)
    return segment_map(t, s, leaf_inclusion(t.children[s - 1], i))


def meet_inclusion(t: ThetaCell, gap: int) -> ThetaMorphism:
    """The inclusion of the meet globe between leaves gap and gap+1."""
    if t.width == 0:
        raise ValueError("a point has no meets")
    s, i, n = _leaf_segment(t, gap)
    if i == n - 1:
        # the meet sits between segment s and s+1: the shared object
        return vertex(t, s)
    return segment_map(t, s, meet_inclusion(t.children[s - 1], i))


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
