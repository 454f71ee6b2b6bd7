"""Helpers of the tests: complexes and morphisms read by generator name, and
the oracles that check the library from outside it.

The library numbers a complex's generators once and then works on
positions; it reads a name only to print it or to name a violation.  Tests
state complexes, morphisms and elements by generator name through
named_complex, named_morphism and row, and read them back by name, all
here.

combine adds rows up in a dict, the oracle of the library's sort-and-merge
row kernel, and then_by_dict and violations_by_dict compose maps and check
morphisms through it, reading every image row the same way.  hnf and
same_subgroup compare lattices by their Hermite forms, the oracle of the
library's two containment tests.

The library holds a Theta map as position data (theta.ThetaMap), built
unchecked.  Its validated, interned form is ThetaMorphism here, with its
base SimplicialMap, gamma_image and theta_morphism: map_errors and
check_map make the structural checks on any map, as_oracle turns a map into
its oracle form, and theta_identity_morphism, bang_morphism,
vertex_morphism, segment_morphism, coface_morphism, hyperface_morphisms,
leaf_morphism and meet_morphism build, as validated morphisms, what the
library's builders build.  A ThetaMorphism is a ThetaMap too, so
lambda_map and cylinder_map take it.

The oracles build the complex of a cell a second way, by gluing globe
complexes along its globular sum, and compare it with lambda_cell up to a
renaming of generators.  Tables of nu are built a second way too: by an
exhaustive search (search_tables) and by composing every composable pair
(close_all_pairs), and nu_functor with check_functors checks that a
morphism of complexes acts on tables as an omega-functor.
o_face_morphism assembles, as a Theta morphism, the face that the
hyperface check maps between O columns straight from lambda maps, and
m_face_map builds the map between M columns one column at a time, from the
face's components.  The span's expected column maps, its diamonds and the
gluing legs into the O columns, which the library builds from positions,
are assembled here as Theta morphisms (or, on the M columns, from the
child's own legs), with compose, the composite of Theta morphisms.
mirror, the left-right reversal of a cell, is the reference for the
mirrored cell of span.mirror_positions.

A product-rule expression of graycyl.pr is a tagged tuple; expression_text
writes it out: 0, x, a cell's own text, factors joined by *, and
PR(cells).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import product as iproduct
from types import MappingProxyType
from weakref import WeakValueDictionary

from graycyl.dac import (ComplexError, DAComplex, DAMorphism, MorphismError, _bit_positions,
                         lambda_cell, lambda_globe, lambda_map, render_name, wreath_map)
from graycyl.gray import cylinder_map, o_cell
from graycyl.intlin import _echelon, _minus
from graycyl.nu import (DEFAULT_CEILING, EnumerationError, NuView, TableError, _compose,
                        _pair_key, nu_boundary, nu_identity)
from graycyl.pr import EMPTY, POINT_EXPR
from graycyl.span import projection_to_cell, shift_map, split_map
from graycyl.theta import (POINT, Frozen, ThetaCell, ThetaMap, bang, cell, coface, fold,
                           globular_sum, parse_cell, segment_map, theta_identity, vertex)


# ---------------------------------------------------------------------------
# row arithmetic through a dict: the oracle of the library's row kernel
# ---------------------------------------------------------------------------

def sparse(acc: dict) -> tuple:
    """The row of {position: coefficient}: its nonzero entries in position
    order."""
    return tuple(sorted(item for item in acc.items() if item[1]))


def is_nonneg(x: tuple) -> bool:
    return all(c >= 0 for _, c in x)


def combine(rows, x: tuple):
    """The row of the sum of c * rows[g] over the entries (g, c) of x, or
    None where some rows[g] is None, added up in a dict: the oracle of
    dac._combine, which sorts and merges."""
    out: dict = {}
    for g, c in x:
        row = rows[g]
        if row is None:
            return None
        for h, w in row:
            out[h] = out.get(h, 0) + c * w
    return sparse(out)


def then_by_dict(a: DAMorphism, b: DAMorphism) -> DAMorphism:
    """a, then b, every image row built by combine: the oracle of
    DAMorphism.then and dac.composites_agree."""
    return DAMorphism(a.source, b.target,
                      tuple(None if x is None else combine(b.images, x) for x in a.images))


def violations_by_dict(m: DAMorphism) -> list:
    """The oracle of DAMorphism.violations: every image is read through
    combine and tested entry by entry, whatever its length.  An image with
    an entry outside the target is of the wrong degree and is not read
    further."""
    src, tgt = m.source, m.target
    found = []
    for d in range(src.top_degree + 1):
        degree = tgt.positions(d)
        for x in src.positions(d):
            img, g = m.images[x], src.names[x]
            if img is None:
                found.append(("missing", g))
                continue
            if not is_nonneg(img):
                found.append(("negative", g))
            if any(h not in degree for h, _ in img):
                found.append(("degree", g))
                if any(not 0 <= h < len(tgt.diff) for h, _ in img):
                    continue
            if d == 0:
                if sum(c * tgt.aug[h] for h, c in img) != src.aug[x]:
                    found.append(("augmentation", g))
            else:
                boundary = combine(m.images, src.diff[x])
                if boundary is not None and boundary != combine(tgt.diff, img):
                    found.append(("chain", g))
    return found


# ---------------------------------------------------------------------------
# lattices: Hermite forms, the oracle of lattice equality
# ---------------------------------------------------------------------------

def hnf(rows, width: int) -> tuple[tuple, ...]:
    """Canonical (row-style) Hermite normal form of the subgroup generated
    by `rows` inside Z^width, from intlin's echelon: pivots positive, every
    entry above a pivot in [0, pivot)."""
    pivots, _ = _echelon(rows, width)
    out = []
    # the top-down back-reduction, row by row: reduce at each later pivot,
    # left to right, by the pivot row as the echelon left it; a step changes
    # only positions from that pivot on, so those already reduced hold
    for p in sorted(pivots):
        row, i = pivots[p], 1
        while i < len(row):
            r, e = row[i]
            piv = pivots.get(r)
            if piv is not None:
                row = _minus(row, e // piv[0][1], piv)
            if i < len(row) and row[i][0] == r:
                i += 1
        out.append(row)
    return tuple(out)


def same_subgroup(rows_a, rows_b, width: int) -> bool:
    """Do rows_a and rows_b generate one lattice?  Their Hermite forms
    agree."""
    return hnf(rows_a, width) == hnf(rows_b, width)


# ---------------------------------------------------------------------------
# reading by name
# ---------------------------------------------------------------------------

def _numbering(names) -> dict:
    """{generator name: position}; a repeated name raises."""
    position = {g: i for i, g in enumerate(names)}
    if len(position) != len(names):
        g = next(g for i, g in enumerate(names) if position[g] != i)
        raise ComplexError(f"duplicate generator {g!r}")
    return position


@lru_cache(maxsize=256)
def positions_by_name(K: DAComplex) -> dict:
    """_numbering of K's names, kept for the complexes read most lately
    (complexes hash by identity)."""
    return _numbering(K.names)


def position(K: DAComplex, g) -> int:
    return positions_by_name(K)[g]


def row(K: DAComplex, x: dict) -> tuple:
    """The row of an element stated as {generator name: int}."""
    position = positions_by_name(K)
    return sparse({position[g]: c for g, c in x.items()})


def degrees(K: DAComplex) -> tuple:
    """The generator names of K, degree by degree."""
    return tuple(K.basis(d) for d in range(K.top_degree + 1))


def size_profile(K: DAComplex) -> tuple:
    """The number of generators of K in each degree."""
    return tuple(b - a for a, b in zip(K.start, K.start[1:]))


def degree_of(K: DAComplex, g) -> int:
    return bisect_right(K.start, position(K, g)) - 1


def names_of(K: DAComplex, mask: int) -> list:
    """The names of the generators whose bits the entry mask holds."""
    return [K.names[i] for i in _bit_positions(mask)]


def element(K: DAComplex, x: tuple) -> dict:
    """The row x of an element of K as {generator name: int}."""
    names = K.names
    return {names[h]: c for h, c in x}


def boundary(K: DAComplex, g) -> dict:
    return element(K, K.diff[position(K, g)])


def boundaries(K: DAComplex) -> dict:
    """{g: d g} over the generators g with a nonzero boundary."""
    return {g: element(K, r) for g, r in zip(K.names, K.diff) if r}


def augmentations(K: DAComplex) -> dict:
    """{g: e g} over the generators of degree 0."""
    return {K.names[x]: K.aug[x] for x in K.positions(0)}


def image(m: DAMorphism, g):
    """The image of g as {generator name: int}, or None where g has none."""
    img = m.images[position(m.source, g)]
    return None if img is None else element(m.target, img)


def images(m: DAMorphism) -> dict:
    """{g: image of g} over every generator of the source."""
    return {g: image(m, g) for g in m.source.names}


def gadd(*xs) -> tuple:
    """The row of the sum of the rows xs."""
    out: dict = {}
    for x in xs:
        for g, c in x:
            out[g] = out.get(g, 0) + c
    return sparse(out)


def with_image(m: DAMorphism, g, img) -> DAMorphism:
    """A copy of m that sends g to the element img, stated by names."""
    rows = list(m.images)
    rows[position(m.source, g)] = row(m.target, img)
    return DAMorphism(m.source, m.target, tuple(rows))


def named_complex(degrees, diff: dict, aug: dict) -> DAComplex:
    """The complex stated by generator names: the basis per degree, the
    boundary of each generator as a {name: int} element (0 where it is left
    out) and the augmentation of each degree-0 generator."""
    names = [g for basis in degrees for g in basis]
    position = _numbering(names)
    objects = len(degrees[0])
    missing = [g for g in names[:objects] if g not in aug]
    if missing:
        raise ComplexError(f"missing augmentation for {missing[0]!r}")
    return DAComplex(degrees,
                     tuple(sparse({position[h]: c for h, c in diff.get(g, {}).items()})
                           for g in names),
                     tuple(aug[g] if i < objects else 0 for i, g in enumerate(names)))


def named_morphism(source: DAComplex, target: DAComplex, images: dict) -> DAMorphism:
    """The morphism stated by generator names, {source generator: {target
    generator: int}}; a source generator left out has no image (None)."""
    return DAMorphism(source, target, tuple(row(target, images[g]) if g in images else None
                                            for g in source.names))


# ---------------------------------------------------------------------------
# Theta: the validated, interned morphisms, the oracle of theta.ThetaMap
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


def simplicial_coface(n: int, k: int) -> SimplicialMap:
    """d^k: [n] -> [n+1], skipping vertex k, from theta.coface's images."""
    return SimplicialMap(n, n + 1, coface(n, k))


def split_base(n: int, j: int) -> SimplicialMap:
    """[n] -> [1], from span.split_map's images."""
    return SimplicialMap(n, 1, split_map(n, j))


def codegeneracy(n: int, k: int) -> SimplicialMap:
    """s^k: [n] -> [n-1], repeating vertex k."""
    return SimplicialMap(n, n - 1, tuple(i if i <= k else i - 1 for i in range(n + 1)))


@cache
def gamma_image(f: SimplicialMap) -> MappingProxyType:
    """F(f)(i) = {j | f(i-1) < j <= f(i)} for each source segment i.

    Memoised per map: every caller gets the same read-only mapping."""
    return MappingProxyType({i: tuple(range(f(i - 1) + 1, f(i) + 1))
                             for i in range(1, f.source_width + 1)})


def map_errors(f: ThetaMap) -> list:
    """What keeps the map f from being well formed, at its top level: the
    widths of its image and legs, a monotone image in the target's range,
    leg keys that are exactly the segments each source segment covers, and
    each leg's map running from its source child to its target child.
    Empty when f is well formed there."""
    src, tgt, image, legs = f.source, f.target, f.image, f.legs
    if len(image) != src.width + 1:
        return ["base source width mismatch"]
    if any(not 0 <= v <= tgt.width for v in image):
        return ["vertex image out of range"]
    if any(a > b for a, b in zip(image, image[1:])):
        return ["map is not monotone"]
    if len(legs) != src.width:
        return ["one leg per source segment"]
    errors = []
    for i, leg in enumerate(legs, start=1):
        if [j for j, _ in leg] != list(range(image[i - 1] + 1, image[i] + 1)):
            errors.append(f"leg {i}: component keys must be exactly the segment-image pairs")
            continue
        for j, g in leg:
            if g.source is not src.children[i - 1]:
                errors.append(f"component ({i},{j}) has wrong source")
            if g.target is not tgt.children[j - 1]:
                errors.append(f"component ({i},{j}) has wrong target")
    return errors


def check_map(f: ThetaMap) -> ThetaMap:
    """f, or ValueError naming the first error of f or of a map in its
    legs, at any depth."""
    todo, seen = [f], set()
    while todo:
        g = todo.pop()
        if id(g) in seen:
            continue
        seen.add(id(g))
        errors = map_errors(g)
        if errors:
            raise ValueError(errors[0])
        todo.extend(h for leg in g.legs for _, h in leg)
    return f


_MORPHISMS: WeakValueDictionary = WeakValueDictionary()


class ThetaMorphism(ThetaMap):
    """A map of the wreath product held as a base SimplicialMap and its
    ((i, j), component) pairs, interned: equal morphisms are one object.
    The checks run once, when a morphism is first built (map_errors, after
    the component keys), and a construction that fails raises and leaves
    nothing in the table.  It is a ThetaMap too, whose image and legs are
    read from its base and components, so lambda_map and cylinder_map take
    it as they take the library's maps."""

    __slots__ = ("base", "components", "_hash", "__weakref__")

    def __new__(cls, source: ThetaCell, target: ThetaCell, base: SimplicialMap,
                components: tuple):
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
        self = object.__new__(cls)
        legs = tuple(tuple((j, f) for (i, j), f in components if i == slot)
                     for slot in range(1, source.width + 1))
        ThetaMap.__init__(self, source, target, base.image, legs)
        errors = map_errors(self)
        if errors:
            raise ValueError(errors[0])
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "components", components)
        # hash of the field tuple, taken once
        object.__setattr__(self, "_hash", hash(key))
        _MORPHISMS[key] = self
        return self

    def __init__(self, *args):
        """__new__ sets every field."""

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        comps = ",".join(f"({i},{j}):{f}" for (i, j), f in self.components)
        return f"{self.base};[{comps}]"


def theta_morphism(source, target, base, comp_map) -> ThetaMorphism:
    """Assemble a morphism from a base map and a dict {(i,j): map}, each map
    taken in its oracle form."""
    comps = []
    for i in range(1, source.width + 1):
        for j in gamma_image(base)[i]:
            comps.append(((i, j), as_oracle(comp_map[(i, j)])))
    return ThetaMorphism(source, target, base, tuple(comps))


def as_oracle(f: ThetaMap) -> ThetaMorphism:
    """The validated, interned form of the map f (f itself if it is one):
    ValueError where f, or a map in its legs, is not well formed."""
    if isinstance(f, ThetaMorphism):
        return f
    if len(f.image) != f.source.width + 1:
        raise ValueError("base source width mismatch")
    return ThetaMorphism(f.source, f.target,
                         SimplicialMap(f.source.width, f.target.width, f.image),
                         tuple(((i, j), as_oracle(g))
                               for i, leg in enumerate(f.legs, start=1) for j, g in leg))


# the library's builders of Theta maps, as they were written on validated,
# interned morphisms: the oracles of theta_identity, bang, vertex,
# segment_map, coface_map, hyperfaces and the globe inclusions

def theta_identity_morphism(t: ThetaCell) -> ThetaMorphism:
    return theta_morphism(t, t, simplicial_identity(t.width),
                          {(i, i): theta_identity_morphism(c)
                           for i, c in enumerate(t.children, start=1)})


def bang_morphism(t: ThetaCell) -> ThetaMorphism:
    return ThetaMorphism(t, POINT, SimplicialMap(t.width, 0, (0,) * (t.width + 1)), ())


def vertex_morphism(t: ThetaCell, p: int) -> ThetaMorphism:
    return ThetaMorphism(POINT, t, SimplicialMap(0, t.width, (p,)), ())


def segment_morphism(t: ThetaCell, s: int, g: ThetaMorphism) -> ThetaMorphism:
    return ThetaMorphism(ThetaCell((g.source,)), t, SimplicialMap(1, t.width, (s - 1, s)),
                         (((1, s), g),))


def coface_morphism(t: ThetaCell, k: int, drop: int) -> ThetaMorphism:
    src = ThetaCell(t.children[:drop - 1] + t.children[drop:])
    base = simplicial_coface(src.width, k)
    return ThetaMorphism(src, t, base, tuple(
        ((i, j), theta_identity_morphism(c) if j == (i if i < drop else i + 1) else bang_morphism(c))
        for i, c in enumerate(src.children, start=1) for j in gamma_image(base)[i]))


def hyperface_morphisms(t: ThetaCell) -> list:
    """(kind, position, morphism) per hyperface of t, in hyperfaces' order."""
    n = t.width
    out = []
    for k in range(1, n + 1):
        for kind, position, sub in hyperface_morphisms(t.children[k - 1]):
            comp_map = {(i, i): theta_identity_morphism(t.children[i - 1]) for i in range(1, n + 1)}
            comp_map[(k, k)] = sub
            src = ThetaCell(t.children[:k - 1] + (sub.source,) + t.children[k:])
            out.append(("vertical", (k,) + position,
                        theta_morphism(src, t, simplicial_identity(n), comp_map)))
    if n >= 1:
        out.append(("outer", (0,), coface_morphism(t, 0, 1)))
        out.append(("outer", (n,), coface_morphism(t, n, n)))
    for k in range(1, n):
        if t.children[k] == POINT:
            out.append(("inner", (k, "after"), coface_morphism(t, k, k + 1)))
        if t.children[k - 1] == POINT:
            out.append(("inner", (k, "before"), coface_morphism(t, k, k)))
    return out


def _leaf_count(t: ThetaCell) -> int:
    return 1 if t.width == 0 else sum(_leaf_count(c) for c in t.children)


def _leaf_segment(t: ThetaCell, leaf: int):
    """(s, i, n): the `leaf`-th leaf of t is leaf i of the n leaves of
    child s."""
    for s, c in enumerate(t.children, start=1):
        n = _leaf_count(c)
        if leaf < n:
            return s, leaf, n
        leaf -= n
    raise IndexError("leaf index out of range")


def leaf_morphism(t: ThetaCell, leaf: int) -> ThetaMorphism:
    """The inclusion of the `leaf`-th leaf globe into t, found by walking
    down from the root: the oracle of the leaves of globular_sum."""
    if t.width == 0:
        return theta_identity_morphism(t)
    s, i, _ = _leaf_segment(t, leaf)
    return segment_morphism(t, s, leaf_morphism(t.children[s - 1], i))


def meet_morphism(t: ThetaCell, gap: int) -> ThetaMorphism:
    """The inclusion of the globe where leaves gap and gap+1 meet, found
    the same way: the oracle of the meets of globular_sum."""
    s, i, n = _leaf_segment(t, gap)
    if i == n - 1:
        return vertex_morphism(t, s)
    return segment_morphism(t, s, meet_morphism(t.children[s - 1], i))


# ---------------------------------------------------------------------------
# Theta: morphism literals, composition, and the maps of the checks as
# Theta morphisms
# ---------------------------------------------------------------------------

def parse_morphism(data, source: ThetaCell | None = None,
                   target: ThetaCell | None = None) -> ThetaMorphism:
    """Morphism literal: {"source": .., "target": .., "base": [v0..vn],
    "components": {"i,j": literal}}.  Cells are literals in the cell grammar."""
    src = parse_cell(data["source"]) if "source" in data else source
    tgt = parse_cell(data["target"]) if "target" in data else target
    base = SimplicialMap(src.width, tgt.width, tuple(data["base"]))
    comp_map = {}
    for i in range(1, src.width + 1):
        for j in gamma_image(base)[i]:
            a, b = src.children[i - 1], tgt.children[j - 1]
            sub = data.get("components", {}).get(f"{i},{j}")
            if sub is not None:
                comp_map[(i, j)] = parse_morphism(sub, a, b)
            elif b == POINT:
                comp_map[(i, j)] = bang(a)
            elif a == b:
                comp_map[(i, j)] = theta_identity(a)
            else:
                raise KeyError(f"component {i},{j} required for {a} -> {b}")
    return theta_morphism(src, tgt, base, comp_map)


def o_face_morphism(f: ThetaMap, js: int, jt: int) -> ThetaMorphism:
    """The face f with the shuffle unit slot inserted at source position
    js+1 and target position jt+1 (requires f.image[js] == jt), assembled
    as a Theta morphism: the oracle of gray._face_between_o_cells, whose
    value is its lambda map."""
    f = as_oracle(f)
    src_cell = o_cell(f.source, js)
    tgt_cell = o_cell(f.target, jt)
    if f.base(js) != jt:
        raise ValueError("unit slots are not aligned")
    base_imgs = tuple(
        (f.base(v) if f.base(v) <= jt else f.base(v) + 1) if v <= js
        else f.base(v - 1) + 1
        for v in range(src_cell.width + 1))
    base = SimplicialMap(src_cell.width, tgt_cell.width, base_imgs)
    comp_map = {}
    for i in range(1, src_cell.width + 1):
        for jj in gamma_image(base)[i]:
            if i == js + 1:
                comp_map[(i, jj)] = theta_identity(POINT)
            else:
                i0 = i if i <= js else i - 1
                j0 = jj if jj <= jt else jj - 1
                comp_map[(i, jj)] = component(f, i0, j0)
    return theta_morphism(src_cell, tgt_cell, base, comp_map)


def m_face_map(f: ThetaMap, src, tgt, i: int, i2: int) -> DAMorphism:
    """The map M_i(source) -> M_i2(target) induced by the face f, between
    the columns of the shuffle diagrams src and tgt, built for this one
    column from f's components: cylinder_map of the component on the
    cylinder slot i and lambda_map of every other.  The oracle of
    gray._face_between_m_columns, which reads one table per face."""
    f = as_oracle(f)
    fimg = gamma_image(f.base)
    comps = {}
    for q in range(1, f.source.width + 1):
        for jj in fimg[q]:
            if q == i:
                if jj != i2:
                    raise ValueError("cylinder slot must map to the cylinder slot")
                comps[(q, jj)] = cylinder_map(component(f, q, jj))
            else:
                comps[(q, jj)] = lambda_map(component(f, q, jj))
    return wreath_morphism(src[2 * i - 1].embed.source, tgt[2 * i2 - 1].embed.source,
                           f.base, comps)


def component(f: ThetaMap, i: int, j: int) -> ThetaMorphism:
    """The component (i, j) of f, in oracle form; KeyError where f has none."""
    return dict(as_oracle(f).components)[(i, j)]


def compose(f: ThetaMap, g: ThetaMap) -> ThetaMorphism:
    """The composite f;g (f first), in oracle form."""
    f, g = as_oracle(f), as_oracle(g)
    if f.target != g.source:
        raise ValueError("source/target mismatch")
    base = f.base.then(g.base)
    comps = []
    g_f, g_g = gamma_image(f.base), gamma_image(g.base)
    for i in range(1, f.source.width + 1):
        for j in gamma_image(base)[i]:
            # unique k in F(f.base)(i) with j in F(g.base)(k)
            ks = [k for k in g_f[i] if j in g_g[k]]
            if len(ks) != 1:
                raise ValueError(f"segment {j} of the composite has {len(ks)} preimages")
            comps.append(((i, j), compose(component(f, i, ks[0]), component(g, ks[0], j))))
    return ThetaMorphism(f.source, g.target, base, tuple(comps))


def wreath_morphism(src: DAComplex, tgt: DAComplex, base: SimplicialMap,
                    comps: dict) -> DAMorphism:
    """Morphism of wreath complexes from a base map and child morphisms
    comps[(i, j)] for j in F(base)(i)."""
    return wreath_map(src, tgt, base.image,
                      [[(j, comps[(i, j)]) for j in segments]
                       for i, segments in gamma_image(base).items()])


def kappa_o_morphisms(t: ThetaCell, j: int) -> tuple:
    """(collapse, to_t): O_j = o_cell(t, j) onto [1] through its unit slot,
    and onto t by the codegeneracy s^j.  The oracles of kappa's expected
    maps on O_j."""
    n = t.width
    oc = o_cell(t, j)
    collapse = theta_morphism(oc, cell(1), split_base(n + 1, j + 1),
                              {(j + 1, 1): theta_identity(POINT)})
    to_t = theta_morphism(oc, t, codegeneracy(n + 1, j),
                          {(i, i if i <= j else i - 1): theta_identity(oc.children[i - 1])
                           for i in range(1, n + 2) if i != j + 1})
    return collapse, to_t


def kappa_m_maps(t: ThetaCell, column) -> tuple:
    """kappa's (p1, p2) expected on the column M_k: through the child's
    projection to the cell, then bang, and the child's projection in slot
    k beside the identities."""
    n, k = t.width, column.index
    child = t.children[k - 1]
    collapse = projection_to_cell(child).then(lambda_map(bang(child)))
    p1 = wreath_morphism(column.embed.source, lambda_cell(cell(1)), split_base(n, k),
                         {(k, 1): collapse})
    comps = {(i, i): projection_to_cell(c) if i == k else lambda_map(theta_identity(c))
             for i, c in enumerate(t.children, start=1)}
    return p1, wreath_morphism(column.embed.source, lambda_cell(t), simplicial_identity(n), comps)


def sigma_o_morphism(t: ThetaCell, j: int) -> ThetaMorphism:
    """O_j onto the shift [1];(mirror t) through its unit slot, at the
    vertex n-j of the mirrored cell."""
    n = t.width
    mt = mirror(t)
    return theta_morphism(o_cell(t, j), cell(1, mt), split_base(n + 1, j + 1),
                          {(j + 1, 1): vertex(mt, n - j)})


def sigma_m_map(t: ThetaCell, column) -> DAMorphism:
    """sigma expected on the column M_k: the child's own shift, then its
    slot n+1-k in the mirrored cell."""
    n, k = t.width, column.index
    mt = mirror(t)
    slot = segment_map(mt, n + 1 - k, theta_identity(mt.children[n - k]))
    child = t.children[k - 1]
    into_slot = shift_map(child, mirror(child),
                          mirror_positions_by_recursion(child)).then(lambda_map(slot))
    return wreath_morphism(column.embed.source, lambda_cell(cell(1, mt)),
                           split_base(n, k), {(k, 1): into_slot})


def constant_morphism(t: ThetaCell, target: ThetaCell, p: int) -> ThetaMorphism:
    """t -> [0] -> target at vertex p, the expected map of a diamond."""
    return compose(bang(t), vertex(target, p))


def o_leg_morphism(t: ThetaCell, j: int, k: int) -> ThetaMorphism:
    """The face d^k from t into o_cell(t, j) that drops its unit slot j+1:
    the gluing leg of a span into the column O_j."""
    return coface_morphism(o_cell(t, j), k, j + 1)


def mirror(t: ThetaCell) -> ThetaCell:
    """Left-right reversal of the tree, in one fold: the reference for the
    mirrored cell that span.mirror_positions builds beside its table."""
    return fold(t, lambda u, m: ThetaCell(tuple([m[c] for c in reversed(u.children)])), {})


def mirror_positions_by_recursion(t: ThetaCell) -> tuple:
    """span.mirror_positions as it was first written, by recursion on the
    tree with a mirror per level: its oracle."""
    K, M = lambda_cell(t), lambda_cell(mirror(t))
    n = t.width
    out = [None] * len(K.diff)
    for p, x in enumerate(K.parts[0]):
        out[x] = M.parts[0][n - p]
    for i, c in enumerate(t.children, start=1):
        inner, slot = mirror_positions_by_recursion(c), M.parts[n + 1 - i]
        for x, y in enumerate(K.parts[i]):
            out[y] = slot[inner[x]]
    return tuple(out)


def reconstruct(leaf_pieces: list, meet_pieces: list) -> ThetaCell:
    """The cell with the given globular sum: inverse of globular_sum, read
    from the dimensions of its pieces alone."""
    leaves = [n for n, _ in leaf_pieces]
    meets = [m for m, _ in meet_pieces]

    def build(idx_lo: int, idx_hi: int, depth: int) -> ThetaCell:
        # leaves[idx_lo:idx_hi] all have depth > `depth` unless single leaf at depth
        if idx_hi - idx_lo == 1 and leaves[idx_lo] == depth:
            return POINT
        # split at meets equal to `depth`
        kids = []
        lo = idx_lo
        for k in range(idx_lo, idx_hi - 1):
            if meets[k] == depth:
                kids.append(build(lo, k + 1, depth + 1))
                lo = k + 1
        kids.append(build(lo, idx_hi, depth + 1))
        return ThetaCell(tuple(kids))

    return build(0, len(leaves), 0)


# ---------------------------------------------------------------------------
# amalgamation and isomorphism search
# ---------------------------------------------------------------------------

def identity_morphism(K: DAComplex) -> DAMorphism:
    return DAMorphism(K, K, tuple(((x, 1),) for x in range(len(K.diff))))


def single_generator(row):
    """The position of the one generator of a row with coefficient 1, or None."""
    if len(row) == 1 and row[0][1] == 1:
        return row[0][0]
    return None


def amalgamate_with_inclusions(K: DAComplex, L: DAComplex, M: DAComplex,
                               i: DAMorphism, j: DAMorphism):
    """Glue K and L along M via generator-to-generator injections i, j.

    Returns (result, inclusion of K, inclusion of L).  Generator g of K is
    named ("A", g) in the result, and a generator g of L that M does not
    identify with one of K is named ("B", g).
    """
    m_names = M.names
    for leg, name in ((i, "i"), (j, "j")):
        seen = set()
        for x, row in enumerate(leg.images):
            h = single_generator(row)
            if h is None:
                raise MorphismError(f"leg {name} is not prerigid at {m_names[x]!r}")
            if h in seen:
                raise MorphismError(f"leg {name} is not injective")
            seen.add(h)
    k_names, l_names = K.names, L.names
    l_name = [("B", g) for g in l_names]
    identified = set()
    for x in range(len(m_names)):
        y = single_generator(j.images[x])
        l_name[y] = ("A", k_names[single_generator(i.images[x])])
        identified.add(y)
    kept = [y for y in range(len(l_names)) if y not in identified]

    degrees = []
    for d in range(max(K.top_degree, L.top_degree) + 1):
        row = [("A", g) for g in K.basis(d)]
        row += [l_name[y] for y in L.positions(d) if y not in identified]
        degrees.append(tuple(row))
    diff = {("A", g): {("A", k_names[h]): c for h, c in r}
            for g, r in zip(k_names, K.diff)}
    diff.update({l_name[y]: {l_name[h]: c for h, c in L.diff[y]} for y in kept})
    aug = {("A", k_names[x]): K.aug[x] for x in K.positions(0)}
    aug.update({l_name[y]: L.aug[y] for y in kept if y in L.positions(0)})
    result = named_complex(degrees, diff, aug).validate()
    incl_k = named_morphism(K, result, {g: {("A", g): 1} for g in k_names})
    incl_l = named_morphism(L, result, {g: {l_name[y]: 1} for y, g in enumerate(l_names)})
    return result, incl_k, incl_l


def find_isomorphism(K: DAComplex, L: DAComplex):
    """Backtracking search for a basis bijection commuting with d and e.

    Returns the map of positions of K to positions of L, or None.  Sizes
    here are tiny; matching is pruned by degree and differential support
    size.
    """
    if size_profile(K) != size_profile(L):
        return None
    mapping: dict = {}
    used: set = set()

    def signature(C: DAComplex, x: int):
        d = bisect_right(C.start, x) - 1
        return (d, tuple(sorted(c for _, c in C.diff[x])), C.aug[x])

    sig_l: dict = {}
    for y in range(len(L.diff)):
        sig_l.setdefault(signature(L, y), []).append(y)

    def consistent(x, y):
        dy = dict(L.diff[y])
        return all(z not in mapping or dy.get(mapping[z], 0) == c for z, c in K.diff[x])

    def extend(x) -> bool:
        if x == len(K.diff):
            return True
        for y in sig_l.get(signature(K, x), []):
            if y in used or not consistent(x, y):
                continue
            mapping[x] = y
            used.add(y)
            if extend(x + 1):
                return True
            del mapping[x]
            used.discard(y)
        return False

    return dict(mapping) if extend(0) else None


def globe_inclusion(m: int, n: int, side: str) -> DAMorphism:
    """Iterated source (side="s") or target (side="t") inclusion of the
    m-globe complex into the n-globe complex, m <= n."""
    src, tgt = lambda_globe(m), lambda_globe(n)
    top = "b0" if m == 0 else f"v{m}"
    images = {}
    for g in src.names:
        if g == top and m < n:
            images[g] = {(f"t{m}" if side == "t" else f"b{m}"): 1}
        else:
            images[g] = {g: 1}
    return named_morphism(src, tgt, images).validate()


def amalgamation_over_globular_sum(t: ThetaCell) -> DAComplex:
    """Iterated pushout of globe complexes along the decomposition of t."""
    leaves, meets = globular_sum(t)
    acc = lambda_globe(leaves[0][0])
    latest = identity_morphism(acc)      # inclusion of the newest leaf globe
    for (m, _), (n_next, _) in zip(meets, leaves[1:]):
        meet = lambda_globe(m)
        nxt = lambda_globe(n_next)
        prev_n = latest.source.top_degree
        t_leg = globe_inclusion(m, prev_n, "t").then(latest)
        s_leg = globe_inclusion(m, n_next, "s")
        acc, _, latest = amalgamate_with_inclusions(acc, nxt, meet, t_leg, s_leg)
    return acc


# ---------------------------------------------------------------------------
# tables of nu, built a second way
# ---------------------------------------------------------------------------

_MISS = object()   # a dict.get default that no stored value equals


def _mask(K: DAComplex, x: tuple) -> int:
    """The bitmask of a {0,1} element; other coefficients are not tables
    this representation can hold."""
    m = 0
    for g, c in x:
        if c != 1:
            raise TableError(f"coefficient {c} of {render_name(K.names[g])} is not 0 or 1")
        m |= 1 << g
    return m


def _table(K: DAComplex, rows) -> tuple:
    return tuple((_mask(K, n), _mask(K, p)) for n, p in rows)


def make_cell(K: DAComplex, entries) -> tuple:
    """Validate and build a table from [(neg, pos), ...] elements stated
    as {generator name: int}."""
    entries = [(row(K, neg), row(K, pos)) for neg, pos in entries]
    i = len(entries) - 1
    for k, (neg, pos) in enumerate(entries):
        for x in (neg, pos):
            if not is_nonneg(x):
                raise TableError(f"entry at level {k} not positive")
        if k > 0:
            want = gadd(entries[k - 1][1], [(g, -c) for g, c in entries[k - 1][0]])
            for x in (neg, pos):
                if K.d(x) != want:
                    raise TableError(f"boundary condition fails at level {k}")
    for x in entries[0]:
        if K.e(x) != 1:
            raise TableError("augmentation of bottom entries must be 1")
    if entries[i][0] != entries[i][1]:
        raise TableError("top entries must agree")
    return _table(K, entries)


def nu_composable(j: int, a: tuple, b: tuple) -> bool:
    n = len(a)
    return n == len(b) and j < n - 1 and a[:j] == b[:j] and a[j][1] == b[j][0]


def nu_compose(j: int, a: tuple, b: tuple) -> tuple:
    """a *_j b, a first then b."""
    if not nu_composable(j, a, b):
        raise TableError(f"cells are not {j}-composable")
    return _compose(j, a, b)


def close_all_pairs(seeds, d: int, ceiling: int = DEFAULT_CEILING) -> set:
    """Test oracle of enumerate_cells: the d-cells generated by `seeds`
    under every j-composition, j < d, by composing every composable pair.

    A worklist: each popped cell joins the start/end index and is composed
    with the partners it returns, so every composable pair is composed once
    the later of its two cells is popped."""
    cells: set[tuple] = set()
    todo: list[tuple] = []

    def insert(c: tuple):
        if c in cells:
            return
        if len(cells) >= ceiling:
            raise EnumerationError(f"cell ceiling {ceiling} exceeded at dimension {d}")
        cells.add(c)
        todo.append(c)

    for c in seeds:
        insert(c)
    index = [({}, {}) for _ in range(d)]    # j -> (cells by start, cells by end)
    while todo:
        c = todo.pop()
        for j, (by_start, by_end) in enumerate(index):
            by_start.setdefault(_pair_key(c, j, 0), []).append(c)
            by_end.setdefault(_pair_key(c, j, 1), []).append(c)
            for b in by_start.get(_pair_key(c, j, 1), ()):
                insert(_compose(j, c, b))
            for a in by_end.get(_pair_key(c, j, 0), ()):
                insert(_compose(j, a, c))
    return cells


def search_tables(K: DAComplex, max_dim: int, coeff_bound: int):
    """Independent oracle: exhaustive enumeration of valid tables whose
    entries have coefficients <= coeff_bound."""
    def vectors(d: int):
        basis = K.positions(d)
        for combo in iproduct(range(coeff_bound + 1), repeat=len(basis)):
            yield tuple((g, c) for g, c in zip(basis, combo) if c)

    bottoms = [x for x in vectors(0) if K.e(x) == 1]
    by_boundary: dict[int, dict] = {}
    for d in range(1, max_dim + 1):
        table: dict = {}
        for x in vectors(d):
            table.setdefault(K.d(x), []).append(x)
        by_boundary[d] = table

    layers: list[set[tuple]] = [{_table(K, [(x, x)]) for x in bottoms}]
    partial = [[(x, y)] for x in bottoms for y in bottoms]
    for d in range(1, max_dim + 1):
        out: set[tuple] = set()
        nxt = []
        for rows in partial:
            neg_prev, pos_prev = rows[-1]
            want = gadd(pos_prev, [(g, -c) for g, c in neg_prev])
            sols = by_boundary[d].get(want, [])
            for x in sols:
                out.add(_table(K, rows + [(x, x)]))
            for x in sols:
                for y in sols:
                    nxt.append(rows + [(x, y)])
        # keep only well-formed prefixes (bottom rows with equal entries are
        # required only at the top, so all pairs continue)
        layers.append(out)
        partial = nxt
    return layers


# ---------------------------------------------------------------------------
# functors
# ---------------------------------------------------------------------------

@dataclass
class OmegaFunctor:
    source_view: NuView
    target_view: NuView
    mapping: object  # callable cell -> cell

    def __call__(self, c):
        return self.mapping(c)


def nu_functor(a: DAMorphism, max_dim: int, ceiling: int = DEFAULT_CEILING,
               source_view: NuView | None = None,
               target_view: NuView | None = None) -> OmegaFunctor:
    """Entrywise application of a morphism of complexes to tables."""
    src = source_view or NuView(a.source, max_dim, ceiling)
    tgt = target_view or NuView(a.target, max_dim, ceiling)
    def gen_mask(img: tuple):
        # None where a coefficient is not 0 or 1: an error only once an
        # entry holds that generator
        return _mask(a.target, img) if all(c == 1 for _, c in img) else None

    gen_image = [gen_mask(row) for row in a.images]  # by position
    entry_image = {0: 0}

    def image(m: int) -> int:
        out = entry_image.get(m)
        if out is None:
            out, rest = 0, m
            while rest:
                low = rest & -rest
                im = gen_image[low.bit_length() - 1]
                if im is None or out & im:
                    raise TableError("image entry has a coefficient other than 0 or 1")
                out |= im
                rest ^= low
            entry_image[m] = out
        return out

    def apply(c: tuple) -> tuple:
        out = tuple([(image(n), image(p)) for n, p in c])
        d = len(out) - 1
        if d <= tgt.max_dim and out not in tgt.layers[d]:
            raise TableError(f"image table is not a cell of the target: {src.text(c)}")
        return out

    return OmegaFunctor(src, tgt, apply)


def _memoised(F):
    """F, applied once per distinct cell."""
    seen: dict = {}

    def apply(c: tuple):
        out = seen.get(c, _MISS)
        if out is _MISS:
            out = seen[c] = F(c)
        return out

    return apply


def check_functors(Fs, max_dim: int):
    """Per functor, the list of violations of boundary/identity/composition
    preservation.  The functors share one source view, so each composable
    pair of it is composed once for all of them.  Each functor is applied
    once per cell, and each image composite F(a) *_j F(b) is computed once
    per distinct (j, F(a), F(b))."""
    if not Fs or any(F.source_view is not Fs[0].source_view for F in Fs):
        raise ValueError("check_functors needs functors out of one source view")
    src = Fs[0].source_view
    reports = [[] for _ in Fs]
    checks = [(_memoised(F), {}, report) for F, report in zip(Fs, reports)]
    top = min(max_dim, src.max_dim)
    for d in range(top + 1):
        cs = src.cells(d)
        for c in cs:
            if d > 0:
                src_c, tgt_c = nu_boundary(c)
            ident = nu_identity(c) if d < top else None
            for F, _, report in checks:
                fc = F(c)
                if d > 0:
                    src_fc, tgt_fc = nu_boundary(fc)
                    if F(src_c) != src_fc:
                        report.append(("source", d, c))
                    if F(tgt_c) != tgt_fc:
                        report.append(("target", d, c))
                if ident is not None and F(ident) != nu_identity(fc):
                    report.append(("identity", d, c))
        for j in range(d):
            by_start: dict = {}
            for b in cs:
                by_start.setdefault(_pair_key(b, j, 0), []).append(b)
            for a in cs:
                for b in by_start.get(_pair_key(a, j, 1), ()):
                    ab = _compose(j, a, b)
                    for F, composites, report in checks:
                        lhs = F(ab)
                        fa, fb = F(a), F(b)
                        key = (j, fa, fb)
                        rhs = composites.get(key, _MISS)
                        if rhs is _MISS:
                            # None where F(a) and F(b) are not j-composable
                            rhs = composites[key] = (_compose(j, fa, fb)
                                                     if nu_composable(j, fa, fb) else None)
                        if rhs is None:
                            report.append(("composable", d, j, a, b))
                        elif lhs != rhs:
                            report.append(("compose", d, j, a, b))
    return reports


# ---------------------------------------------------------------------------
# product-rule expressions as text
# ---------------------------------------------------------------------------

def expression_text(e: tuple) -> str:
    """0 for EMPTY, x for the point, a cell's text, a product's factors
    joined by *, and PR(cells) with the cells' texts."""
    if e == EMPTY:
        return "0"
    if e == POINT_EXPR:
        return "x"
    kind, items = e
    if kind == "cell":
        return str(items)
    if kind == "*":
        return "*".join(map(expression_text, items))
    return "PR(" + ",".join(map(str, items)) + ")"
