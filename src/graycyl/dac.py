"""Based directed augmented chain complexes with exact integer coefficients.

A complex carries an ordered basis per degree, a differential on generators
of positive degree, and an augmentation on degree-0 generators satisfying
e(d x) = 0.  The positivity sub-monoid of each degree is implicitly the set
of nonnegative combinations of the basis.

Generators are numbered once, when a complex is made: it lists their names
degree by degree, and every operation after that runs on positions.  A
group element is a sparse row, the tuple of its (position, coefficient)
pairs with nonzero coefficients in position order, so equal elements are
equal tuples.  A complex holds the row of the boundary and the augmentation
of each generator, by position; a morphism holds the row of the image of
each source generator over the target's positions, by source position.

A complex names its generators when it is built, and names are read back
only to print them or to name a violation.  The builders name generators
with hashable structured tuples:

    ("o", p)        object p of a wreath complex
    ("s", i, g)     suspension of child generator g over segment i
    ("t", a, b)     tensor generator a (x) b

plus bare strings for the globe complexes ("b0", "t1", "v2", ...).  A
complex built from pieces records where each piece's generators went
(DAComplex.parts), so a map between such complexes carries a piece's
positions into the whole by that table, not by name.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from operator import itemgetter

from .theta import Frozen, ThetaCell, ThetaMap


# ---------------------------------------------------------------------------
# group element helpers
# ---------------------------------------------------------------------------

def _combine(rows, x: tuple):
    """The row of the sum of c * rows[g] over the entries (g, c) of x, or
    None where some rows[g] is None.  The scaled rows are joined and sorted
    (each is a sorted run, which list.sort merges), and the entries of one
    position, now adjacent, are added up, a zero sum dropping out."""
    if len(x) == 1:
        (g, c), = x
        row = rows[g]
        return row if c == 1 or row is None else tuple([(h, c * w) for h, w in row])
    joined: list = []
    for g, c in x:
        row = rows[g]
        if row is None:
            return None
        joined += row if c == 1 else [(h, c * w) for h, w in row]
    joined.sort()
    out: list = []
    # last is the position of out[-1], or below every position still to come
    last = joined[0][0] - 1 if joined else 0
    for pair in joined:
        if pair[0] != last:
            out.append(pair)
            last = pair[0]
        else:
            w = out[-1][1] + pair[1]
            if w:
                out[-1] = (last, w)
            else:
                out.pop()
                last -= 1
    return tuple(out)


def sign_split(x: tuple):
    """(positive part, negative part); x = plus - minus."""
    return tuple([(g, c) for g, c in x if c > 0]), tuple([(g, -c) for g, c in x if c < 0])


def render_name(g) -> str:
    if isinstance(g, str):
        return g
    tag = g[0]
    if tag == "o":
        return f"o{g[1]}"
    if tag == "s":
        return f"{g[1]}|{render_name(g[2])}"
    if tag == "t":
        return f"{render_name(g[1])}⊗{render_name(g[2])}"
    return repr(g)


# ---------------------------------------------------------------------------
# complexes
# ---------------------------------------------------------------------------

class ComplexError(ValueError):
    pass


def _bit_positions(mask: int) -> list:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def tuple_repr(items: list) -> str:
    """repr of a tuple whose items have the reprs `items`."""
    return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


class EntryText(tuple):
    """An entry mask as printed, the tuple (key, names, text).  `key` is the
    repr of the tuple of its (name, 1) pairs in repr order, `names` the
    rendered names in rendered order, `text` those names joined by "+", or
    "0" for the empty entry.  The fields are read by C getters, as a
    NamedTuple's are.  A key is a balanced tuple repr, so no key is a
    proper prefix of another (NuView.cells ranks them)."""

    __slots__ = ()
    key = property(itemgetter(0))
    names = property(itemgetter(1))
    text = property(itemgetter(2))


class Rendering:
    """The printed forms of the generators of one complex, by bit
    position: each name is rendered once, and each entry mask once.

    A name's repr is a balanced tuple or a quoted string, so no repr is a
    proper prefix of another, and the pair reprs sort as strings in the
    names' repr order.  Rendered names are distinct, so they too sort as
    strings."""

    def __init__(self, names):
        self.text = [render_name(g) for g in names]
        self.pair = [repr((g, 1)) for g in names]
        self._entries: dict = {}

    def entry(self, mask: int) -> EntryText:
        out = self._entries.get(mask)
        if out is None:
            bits = _bit_positions(mask)
            names = tuple(sorted([self.text[i] for i in bits]))
            out = self._entries[mask] = EntryText((
                tuple_repr(sorted([self.pair[i] for i in bits])),
                names, "+".join(names) or "0"))
        return out


# the rows ((x, 1),) by x, grown to the largest complex that asked for them
_UNITS: list = []


class DAComplex(Frozen):
    """A complex on generator positions, made from the names of its
    generators degree by degree: names[x] is the name of generator x, bit x
    of an entry mask stands for it, and the generators of degree d hold the
    positions from start[d] up to start[d + 1].  diff[x] is the row of the
    boundary of generator x (empty in degree 0) and aug[x] its augmentation
    (0 above degree 0).  A complex built from pieces lists in parts, per
    piece, the position of the generator made from each generator of the
    piece; each such table is increasing, so it carries a row of the piece
    to a row of the whole.  wreath_complex and tensor say what their pieces
    are; other complexes have none.

    Complexes compare by identity, and positions mean something only
    within one complex.  lambda_cell, lambda_globe and gray.cylinder_complex
    keep one complex per cell or dimension, and maps compose only through
    the very same complex (DAMorphism.then)."""

    # __dict__ holds the cached properties atoms and rendering
    __slots__ = ("names", "start", "diff", "aug", "parts", "__dict__")

    def __init__(self, degrees, diff: tuple, aug: tuple, parts: tuple = ()):
        names, start = [], [0]
        for row in degrees:
            names.extend(row)
            start.append(len(names))
        object.__setattr__(self, "names", tuple(names))
        object.__setattr__(self, "start", tuple(start))
        object.__setattr__(self, "diff", diff)
        object.__setattr__(self, "aug", aug)
        object.__setattr__(self, "parts", parts)

    @property
    def top_degree(self) -> int:
        return len(self.start) - 2

    def basis(self, d: int) -> tuple:
        """The names of the generators of degree d."""
        return self.names[self.start[d]:self.start[d + 1]] if 0 <= d <= self.top_degree else ()

    def positions(self, d: int) -> range:
        """The positions of the generators of degree d."""
        start = self.start
        return range(start[d], start[d + 1]) if 0 <= d < len(start) - 1 else range(0)

    @cached_property
    def rendering(self) -> Rendering:
        """Built on first use, so complexes that are never printed pay
        nothing."""
        return Rendering(self.names)

    @property
    def units(self) -> list:
        """units[x] is the row ((x, 1),) of generator x.  The rows are
        shared by every image that is one generator, in every complex, and
        must not be changed."""
        while len(_UNITS) < len(self.diff):
            _UNITS.append(((len(_UNITS), 1),))
        return _UNITS

    @cached_property
    def atoms(self) -> tuple:
        """By generator position, the atom table <g>, built once for
        check_basis and the seeds of every nu closure of this complex.  The
        top row is (g, g) and each row below takes d(-)_- of the negative
        entry and d(-)_+ of the positive one.  Rows are (neg, pos) bitmask
        pairs from degree 0 up; a bitmask holds coefficients 0 and 1 only,
        as a table of nu does, so an atom with another coefficient, or with
        a bottom entry of augmentation other than 1, is not a table and is
        held as None."""
        def mask(x: tuple) -> int:
            return sum(1 << h for h, _ in x)

        out = []
        for d in range(self.top_degree + 1):
            for g in self.positions(d):
                neg = pos = ((g, 1),)
                rows = [(neg, pos)]
                for _ in range(d):
                    neg, pos = sign_split(self.d(neg))[1], sign_split(self.d(pos))[0]
                    rows.append((neg, pos))
                rows.reverse()
                valid = (self.e(rows[0][0]) == 1 and self.e(rows[0][1]) == 1
                         and all(c == 1 for pair in rows for x in pair for _, c in x))
                out.append(tuple((mask(n), mask(p)) for n, p in rows) if valid else None)
        return tuple(out)

    def d(self, x: tuple) -> tuple:
        return _combine(self.diff, x)

    def e(self, x: tuple) -> int:
        return sum(c * self.aug[g] for g, c in x)

    def validate(self):
        names = self.names
        for d in range(2, self.top_degree + 1):
            for g in self.positions(d):
                if self.d(self.diff[g]):
                    raise ComplexError(f"d∘d != 0 on {names[g]!r}")
        for g in self.positions(1):
            if self.e(self.diff[g]) != 0:
                raise ComplexError(f"e∘d != 0 on {names[g]!r}")
        return self

    def to_json(self) -> dict:
        """Generator names as printed by rendering, keys in rendered order."""
        text = self.rendering.text

        def rendered(pairs) -> dict:
            return {text[g]: c for g, c in sorted(pairs, key=lambda gc: text[gc[0]])}

        return {
            "degrees": [[text[g] for g in self.positions(d)] for d in range(self.top_degree + 1)],
            "d": rendered((g, rendered(row)) for g, row in enumerate(self.diff) if row),
            "e": rendered((g, self.aug[g]) for g in self.positions(0)),
        }


@lru_cache(maxsize=None)
def lambda_globe(n: int) -> DAComplex:
    """The globe complex: b_k at position 2k and t_k at 2k + 1 below the
    top, v_n on top at 2n; a generator of degree k > 0 has the boundary
    t_{k-1} - b_{k-1}.  Memoised per dimension: the result is shared and
    read-only."""
    degrees = [(f"b{k}", f"t{k}") for k in range(n)] + [(f"v{n}",) if n else ("b0",)]
    diff = tuple(((2 * k - 2, -1), (2 * k - 1, 1)) if k else ()
                 for k, row in enumerate(degrees) for _ in row)
    aug = tuple(0 if k else 1 for k, row in enumerate(degrees) for _ in row)
    return DAComplex(degrees, diff, aug).validate()


def wreath_complex(children: list[DAComplex]) -> DAComplex:
    """[n];(K_1..K_n): the objects ("o", p) in degree 0, and one degree up
    the suspension ("s", i, g) of each generator g of K_i.  parts[0][p] is
    the position of the object p and parts[i][x] that of the suspension of
    the generator at position x of K_i."""
    n = len(children)
    top = 1 + max((k.top_degree for k in children), default=-1)
    degrees = [[("o", p) for p in range(n + 1)]]
    size = n + 1
    parts = [list(range(n + 1))] + [[0] * len(k.diff) for k in children]
    for d in range(1, top + 1):
        row = []
        for i, k in enumerate(children, start=1):
            names = k.names
            for x in k.positions(d - 1):
                parts[i][x] = size + len(row)
                row.append(("s", i, names[x]))
        degrees.append(row)
        size += len(row)
    diff = [()] * size
    for i, k in enumerate(children, start=1):
        part, objects = parts[i], k.start[1]
        for x, row in enumerate(k.diff):
            diff[part[x]] = (((i - 1, -1), (i, 1)) if x < objects
                             else tuple([(part[h], c) for h, c in row]))
    return DAComplex(degrees, tuple(diff), (1,) * (n + 1) + (0,) * (size - n - 1),
                     tuple(map(tuple, parts)))


@lru_cache(maxsize=None)
def lambda_cell(t: ThetaCell) -> DAComplex:
    """The chain-complex realization of a cell, by recursion on the tree.

    Memoised per cell, unbounded: every caller gets the same complex, which
    is shared and read-only, so lambda_map(f).source is
    lambda_cell(f.source) for every map f.
    """
    return wreath_complex([lambda_cell(c) for c in t.children])


def tensor(K: DAComplex, L: DAComplex) -> DAComplex:
    """K (x) L with d(a⊗b) = da⊗b + (-1)^{|a|} a⊗db and e(a⊗b) = e(a)e(b).
    a⊗b is named ("t", a, b), and parts[a][b] is its position, for a and b
    positions in K and L."""
    k_names, l_names = K.names, L.names
    degrees, pairs = [], []              # pairs: (a, b, (-1)^|a|) by position of a⊗b
    parts = [[0] * len(l_names) for _ in k_names]
    for n in range(K.top_degree + L.top_degree + 1):
        row = []
        for i in range(n + 1):
            sign = 1 if i % 2 == 0 else -1
            for a in K.positions(i):
                for b in L.positions(n - i):
                    parts[a][b] = len(pairs)
                    row.append(("t", k_names[a], l_names[b]))
                    pairs.append((a, b, sign))
        degrees.append(row)
    # a2⊗b and a⊗b2 are distinct generators, so the two sums never meet
    diff = tuple(tuple(sorted([(parts[a2][b], c) for a2, c in K.diff[a]]
                              + [(parts[a][b2], sign * c) for b2, c in L.diff[b]]))
                 for a, b, sign in pairs)
    aug = tuple(K.aug[a] * L.aug[b] for a, b, _ in pairs)
    return DAComplex(degrees, diff, aug, tuple(map(tuple, parts)))


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

class MorphismError(ValueError):
    pass


class DAMorphism(Frozen):
    """images[x] is the row of the image of source generator x over the
    target's positions, or None where x was given no image (violations
    reports it as "missing")."""

    __slots__ = ("source", "target", "images")

    def __init__(self, source: DAComplex, target: DAComplex, images: tuple):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "images", images)

    def then(self, other: "DAMorphism") -> "DAMorphism":
        """self, then other.  A unit row ((g, 1),) composes to rows[g]."""
        if self.target is not other.source:
            raise MorphismError("composition mismatch")
        rows = other.images
        return DAMorphism(self.source, other.target, tuple([
            None if x is None else rows[x[0][0]] if len(x) == 1 and x[0][1] == 1
            else _combine(rows, x) for x in self.images]))

    def violations(self) -> list:
        """(kind, g) for each way a generator g of the source, in degree
        order, keeps this from being a morphism of augmented directed
        complexes: "missing" (g has no image), "negative" (a negative
        coefficient), "degree" (a target generator of another degree),
        "augmentation" (degree 0) or "chain" (the image of g's boundary is
        not the boundary of g's image; unchecked while a generator of that
        boundary has no image).  g is the generator's name.  An image entry
        at a position outside the target is of the wrong degree, and its
        generator's augmentation and chain condition go unchecked.  A
        one-entry image is read straight from its pair."""
        src, tgt = self.source, self.target
        names, images, src_aug, src_diff = src.names, self.images, src.aug, src.diff
        tgt_start, tgt_aug, tgt_diff = tgt.start, tgt.aug, tgt.diff
        size = len(tgt_diff)
        found = []
        for d in range(src.top_degree + 1):
            # a degree above the target's top has no generators
            lo, hi = (tgt_start[d], tgt_start[d + 1]) if d < len(tgt_start) - 1 else (0, 0)
            for x in src.positions(d):
                img = images[x]
                if img is None:
                    found.append(("missing", names[x]))
                    continue
                if len(img) == 1:
                    (h, c), = img
                    if c < 0:
                        found.append(("negative", names[x]))
                    if not lo <= h < hi:
                        found.append(("degree", names[x]))
                        if not 0 <= h < size:
                            continue
                    if d == 0:
                        if c * tgt_aug[h] != src_aug[x]:
                            found.append(("augmentation", names[x]))
                        continue
                    image_boundary = tgt_diff[h] if c == 1 else _combine(tgt_diff, img)
                else:
                    if any(c < 0 for _, c in img):
                        found.append(("negative", names[x]))
                    if any(not lo <= h < hi for h, _ in img):
                        found.append(("degree", names[x]))
                        if any(not 0 <= h < size for h, _ in img):
                            continue
                    if d == 0:
                        if sum(c * tgt_aug[h] for h, c in img) != src_aug[x]:
                            found.append(("augmentation", names[x]))
                        continue
                    image_boundary = _combine(tgt_diff, img)
                boundary = _combine(images, src_diff[x])
                if boundary is not None and boundary != image_boundary:
                    found.append(("chain", names[x]))
        return found

    def validate(self):
        """self, or MorphismError naming the first of its violations."""
        for kind, g in self.violations():
            raise MorphismError(_VIOLATION_TEXT[kind].format(g))
        return self


_VIOLATION_TEXT = {
    "missing": "no image for {!r}",
    "negative": "image of {!r} is not positive",
    "degree": "image of {!r} has wrong degree",
    "augmentation": "augmentation broken at {!r}",
    "chain": "chain condition broken at {!r}",
}


def morphisms_agree(a: DAMorphism, b: DAMorphism) -> bool:
    """a and b send every generator of their source to the same element.
    Positions mean something only within one complex, so a and b must run
    between the very same complexes."""
    if a.source is not b.source or a.target is not b.target:
        raise MorphismError("morphisms between different complexes")
    return a.images == b.images


def composites_agree(a: DAMorphism, b: DAMorphism, c: DAMorphism, d: DAMorphism) -> bool:
    """morphisms_agree(a.then(b), c.then(d)), read row by row with neither
    composite built: it stops at the first generator whose two images
    differ.  A row that is None, or that meets a None row, composes to None,
    as in then, and the maps must run between the same complexes as there."""
    if a.target is not b.source or c.target is not d.source:
        raise MorphismError("composition mismatch")
    if a.source is not c.source or b.target is not d.target:
        raise MorphismError("morphisms between different complexes")
    rows_b, rows_d = b.images, d.images
    for x, y in zip(a.images, c.images):
        if ((None if x is None else rows_b[x[0][0]] if len(x) == 1 and x[0][1] == 1
             else _combine(rows_b, x))
                != (None if y is None else rows_d[y[0][0]] if len(y) == 1 and y[0][1] == 1
                    else _combine(rows_d, y))):
            return False
    return True


def wreath_map(src: DAComplex, tgt: DAComplex, objects, legs) -> DAMorphism:
    """Morphism of wreath complexes that sends the object p to the object
    objects[p], and the suspension over segment i of a child generator to
    the sum, over the pairs (j, m) of legs[i - 1], of the suspensions over
    segment j of its images under the child morphism m.  A leg whose m does
    not run from the complex of slot i to that of slot j, by size, raises
    MorphismError, so no position is read through the wrong table."""
    images = [None] * len(src.diff)
    units, parts = tgt.units, tgt.parts
    for x, p in zip(src.parts[0], objects):
        images[x] = units[parts[0][p]]
    for i, (src_part, leg) in enumerate(zip(src.parts[1:], legs), start=1):
        for j, m in leg:
            if (not 0 < j < len(parts) or len(m.images) != len(src_part)
                    or len(m.target.diff) != len(parts[j])):
                raise MorphismError(f"the leg of segment {i} over segment {j} does not fit")
        if len(leg) == 1:
            (j, m), = leg
            part, rows = parts[j], m.images
            for x, y in enumerate(src_part):
                row = rows[x]
                images[y] = (units[part[row[0][0]]] if len(row) == 1 and row[0][1] == 1
                             else tuple([(part[h], c) for h, c in row]))
        else:
            # the segments' blocks of one degree follow each other, so
            # sorting the joined rows only orders an image of mixed degrees
            blocks = [(parts[j], m.images) for j, m in leg]
            for x, y in enumerate(src_part):
                images[y] = tuple(sorted([(part[h], c) for part, rows in blocks
                                          for h, c in rows[x]]))
    return DAMorphism(src, tgt, tuple(images))


def lambda_map(f: ThetaMap) -> DAMorphism:
    """The morphism of complexes of f, between lambda_cell(f.source) and
    lambda_cell(f.target).  Built on first read and kept on f (f.lam) as
    long as f lives: every caller gets the same morphism, which is shared
    and read-only."""
    out = f.lam
    if out is None:
        out = _lambda_map(f)
        object.__setattr__(f, "lam", out)
    return out


def _lambda_map(f: ThetaMap) -> DAMorphism:
    return wreath_map(lambda_cell(f.source), lambda_cell(f.target), f.image,
                      [[(j, lambda_map(g)) for j, g in leg] for leg in f.legs])


# ---------------------------------------------------------------------------
# atoms and basis conditions
# ---------------------------------------------------------------------------

def _acyclic(edges) -> bool:
    """No directed cycle through two or more nodes (self-loops ignored).
    Kahn's algorithm, with no recursion: strip the nodes that no edge enters
    until none is left; the nodes still entered lie on or after a cycle."""
    succ: dict = {}
    indeg: dict = {}
    for u, v in edges:
        if u != v and v not in succ.setdefault(u, set()):
            succ[u].add(v)
            indeg[v] = indeg.get(v, 0) + 1
    todo = [u for u in succ if u not in indeg]
    while todo:
        for v in succ.get(todo.pop(), ()):
            indeg[v] -= 1
            if not indeg[v]:
                del indeg[v]
                todo.append(v)
    return not indeg


def check_basis(K: DAComplex):
    """(unital, loop_free, strongly_loop_free) for the basis of K, on
    generator positions.  An atom that is not a table of nu (None in
    K.atoms) counts as not unital and has no rows for the loop-free test."""
    atoms = K.atoms
    start = K.start
    unital = None not in atoms

    loop_free = True
    for i in range(K.top_degree):
        hi = [x for x in range(start[i + 1], len(atoms)) if atoms[x]]
        # x -> y when the positive row i of <x> meets the negative row i of <y>
        ends: dict = {}      # bit position -> atoms whose negative row i holds it
        for y in hi:
            for z in _bit_positions(atoms[y][i][0]):
                ends.setdefault(z, []).append(y)
        if not _acyclic((x, y) for x in hi for z in _bit_positions(atoms[x][i][1])
                        for y in ends.get(z, ())):
            loop_free = False
            break

    # x -> y for y in d(x)_+, and y -> x for y in d(x)_-
    strongly_loop_free = _acyclic(
        (x, y) if c > 0 else (y, x)
        for x in range(start[1], len(atoms)) for y, c in K.diff[x])
    return unital, loop_free, strongly_loop_free
