"""Based directed augmented chain complexes with exact integer coefficients.

A complex carries an ordered basis per degree, a differential on generators
of positive degree, and an augmentation on degree-0 generators satisfying
e(d x) = 0.  The positivity sub-monoid of each degree is implicitly the set
of nonnegative combinations of the basis.

Group elements are plain dicts {generator name: int} with zero entries
dropped.  Generator names are hashable structured tuples:

    ("o", p)        object p of a wreath complex
    ("s", i, g)     suspension of child generator g over segment i
    ("t", a, b)     tensor generator a (x) b
    ("A", g) / ("B", g)   amalgamation leg tags

plus bare strings for the globe complexes ("b0", "t1", "v2", ...).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple
from weakref import WeakKeyDictionary

from .theta import (SimplicialMap, ThetaCell, ThetaMorphism, gamma_image,
                    globular_sum)


# ---------------------------------------------------------------------------
# group element helpers
# ---------------------------------------------------------------------------

def gclean(x: dict) -> dict:
    return {k: v for k, v in x.items() if v != 0}


def gadd(*xs) -> dict:
    out: dict = {}
    for x in xs:
        for k, v in x.items():
            out[k] = out.get(k, 0) + v
    return gclean(out)


def is_nonneg(x: dict) -> bool:
    return all(v >= 0 for v in x.values())


def sign_split(x: dict):
    """(positive part, negative part); x = plus - minus."""
    plus = {k: v for k, v in x.items() if v > 0}
    minus = {k: -v for k, v in x.items() if v < 0}
    return plus, minus


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
    if tag in ("A", "B"):
        return f"{tag}.{render_name(g[1])}"
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


def _ranks(keys: list) -> list:
    """rank[i] = place of keys[i] in sorted order, ties by position."""
    rank = [0] * len(keys)
    for r, i in enumerate(sorted(range(len(keys)), key=keys.__getitem__)):
        rank[i] = r
    return rank


def tuple_repr(items: list) -> str:
    """repr of a tuple whose items have the reprs `items`."""
    return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


class EntryText(NamedTuple):
    """An entry mask as printed.  `key` is the repr of the tuple of its
    (name, 1) pairs with the names in repr order, `names` the rendered names
    in that order, `text` the rendered names joined by "+" in rendered
    order, or "0" for the empty entry."""
    key: str
    names: tuple
    text: str


class Rendering:
    """The printed forms of the generators of one GenIndex, by bit
    position: each name is rendered once, and each entry mask once."""

    def __init__(self, names):
        self.text = [render_name(g) for g in names]
        self.pair = [repr((g, 1)) for g in names]
        self.repr_rank = _ranks([repr(g) for g in names])
        self.text_rank = _ranks(self.text)
        self._entries: dict = {}

    def entry(self, mask: int) -> EntryText:
        out = self._entries.get(mask)
        if out is None:
            bits = _bit_positions(mask)
            by_repr = sorted(bits, key=self.repr_rank.__getitem__)
            out = self._entries[mask] = EntryText(
                tuple_repr([self.pair[i] for i in by_repr]),
                tuple(self.text[i] for i in by_repr),
                "+".join(self.text[i] for i in sorted(bits, key=self.text_rank.__getitem__)) or "0")
        return out


class GenIndex:
    """The one numbering of a complex's generators: the flattened basis,
    degree by degree.  Generator g sits at position[g], bit position[g] of
    an entry mask stands for it, and the generators of degree d hold the
    positions from start[d] up to start[d + 1]."""

    def __init__(self, degrees):
        position: dict = {}
        start = [0]
        for row in degrees:
            for g in row:
                if g in position:
                    raise ComplexError(f"duplicate generator {g!r}")
                position[g] = len(position)
            start.append(len(position))
        self.position = position
        self.start = tuple(start)

    @cached_property
    def names(self) -> tuple:
        """The generators by position, built on first use."""
        return tuple(self.position)

    @cached_property
    def rendering(self) -> Rendering:
        """Built on first use, so complexes that are never printed pay
        nothing."""
        return Rendering(self.names)

    def names_of(self, mask: int) -> list:
        return [self.names[i] for i in _bit_positions(mask)]


@dataclass(frozen=True, eq=False)
class DAComplex:
    """Complexes compare by identity.  lambda_cell, lambda_globe and
    gray.cylinder_complex keep one complex per cell or dimension, and maps
    compose only through the very same complex (DAMorphism.then)."""
    degrees: tuple[tuple, ...]           # ordered basis per degree
    diff: dict                           # gen -> element one degree down
    aug: dict                            # degree-0 gen -> int

    def __post_init__(self):
        self.gen_index                   # numbered now: a repeated generator raises here

    @property
    def top_degree(self) -> int:
        return len(self.degrees) - 1

    def basis(self, d: int) -> tuple:
        return self.degrees[d] if 0 <= d <= self.top_degree else ()

    def degree_of(self, g) -> int:
        return bisect_right(self.gen_index.start, self.gen_index.position[g]) - 1

    @cached_property
    def gen_index(self) -> GenIndex:
        return GenIndex(self.degrees)

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
        position = self.gen_index.position

        def mask(x: dict) -> int:
            return sum(1 << position[h] for h in x)

        out = []
        for d, row in enumerate(self.degrees):
            for g in row:
                neg = pos = {g: 1}
                rows = [(neg, pos)]
                for _ in range(d):
                    neg, pos = sign_split(self.d(neg))[1], sign_split(self.d(pos))[0]
                    rows.append((neg, pos))
                rows.reverse()
                valid = (self.e(rows[0][0]) == 1 and self.e(rows[0][1]) == 1
                         and all(c == 1 for pair in rows for x in pair for c in x.values()))
                out.append(tuple((mask(n), mask(p)) for n, p in rows) if valid else None)
        return tuple(out)

    def d(self, x: dict) -> dict:
        out: dict = {}
        for g, c in x.items():
            for h, w in self.diff.get(g, {}).items():
                out[h] = out.get(h, 0) + c * w
        return gclean(out)

    def e(self, x: dict) -> int:
        return sum(c * self.aug[g] for g, c in x.items())

    def validate(self):
        for d in range(2, self.top_degree + 1):
            for g in self.basis(d):
                if self.d(self.diff.get(g, {})):
                    raise ComplexError(f"d∘d != 0 on {g!r}")
        for g in self.basis(1):
            if self.e(self.diff.get(g, {})) != 0:
                raise ComplexError(f"e∘d != 0 on {g!r}")
        for g in self.basis(0):
            if g not in self.aug:
                raise ComplexError(f"missing augmentation for {g!r}")
        return self

    def size_profile(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.degrees)

    def to_json(self) -> dict:
        """Generator names as gen_index renders them, keys in rendered order."""
        text = dict(zip(self.gen_index.names, self.gen_index.rendering.text))

        def rendered(x: dict) -> dict:
            return {text[g]: c for g, c in sorted(x.items(), key=lambda kv: text[kv[0]])}

        return {
            "degrees": [[text[g] for g in b] for b in self.degrees],
            "d": rendered({g: rendered(v) for g, v in self.diff.items() if v}),
            "e": rendered(self.aug),
        }


def point_complex() -> DAComplex:
    return DAComplex((( ("o", 0), ),), {}, {("o", 0): 1})


@lru_cache(maxsize=None)
def lambda_globe(n: int) -> DAComplex:
    """The globe complex: b_k, t_k below the top, v_n on top.  Memoised
    per dimension: the result is shared and read-only."""
    if n == 0:
        return DAComplex((("b0",),), {}, {"b0": 1})
    degrees = tuple(
        (f"b{k}", f"t{k}") if k < n else (f"v{n}",) for k in range(n + 1)
    )
    diff = {}
    for k in range(1, n):
        step = {f"t{k - 1}": 1, f"b{k - 1}": -1}
        diff[f"b{k}"] = dict(step)
        diff[f"t{k}"] = dict(step)
    diff[f"v{n}"] = {f"t{n - 1}": 1, f"b{n - 1}": -1}
    return DAComplex(degrees, diff, {"b0": 1, "t0": 1}).validate()


def wreath_complex(children: list[DAComplex]) -> DAComplex:
    """[n];(K_1..K_n): objects in degree 0, suspended child bases above."""
    n = len(children)
    top = 1 + max((k.top_degree for k in children), default=-1)
    degrees: list[tuple] = [tuple(("o", p) for p in range(n + 1))]
    diff: dict = {}
    for d in range(1, top + 1):
        row = []
        for i, k in enumerate(children, start=1):
            for g in k.basis(d - 1):
                name = ("s", i, g)
                row.append(name)
                if d == 1:
                    diff[name] = {("o", i): 1, ("o", i - 1): -1}
                else:
                    diff[name] = {("s", i, h): c for h, c in k.diff[g].items()}
        degrees.append(tuple(row))
    aug = {("o", p): 1 for p in range(n + 1)}
    return DAComplex(tuple(degrees), diff, aug)


@lru_cache(maxsize=None)
def lambda_cell(t: ThetaCell) -> DAComplex:
    """The chain-complex realization of a cell, by recursion on the tree.

    Memoised per cell, unbounded: every caller gets the same complex, which
    is shared and read-only, so lambda_map(f).source is
    lambda_cell(f.source) for every f.
    """
    if t.width == 0:
        return point_complex()
    return wreath_complex([lambda_cell(c) for c in t.children])


def tensor(K: DAComplex, L: DAComplex) -> DAComplex:
    """K (x) L with d(a⊗b) = da⊗b + (-1)^{|a|} a⊗db and e(a⊗b) = e(a)e(b)."""
    top = K.top_degree + L.top_degree
    degrees = []
    diff: dict = {}
    for n in range(top + 1):
        row = []
        for i in range(n + 1):
            j = n - i
            for a in K.basis(i):
                for b in L.basis(j):
                    name = ("t", a, b)
                    row.append(name)
                    dd: dict = {}
                    if i > 0:
                        for a2, c in K.diff[a].items():
                            dd[("t", a2, b)] = dd.get(("t", a2, b), 0) + c
                    if j > 0:
                        s = 1 if i % 2 == 0 else -1
                        for b2, c in L.diff[b].items():
                            dd[("t", a, b2)] = dd.get(("t", a, b2), 0) + s * c
                    if n > 0:
                        diff[name] = gclean(dd)
        degrees.append(tuple(row))
    aug = {("t", a, b): K.aug[a] * L.aug[b] for a in K.basis(0) for b in L.basis(0)}
    return DAComplex(tuple(degrees), diff, aug)


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

class MorphismError(ValueError):
    pass


@dataclass(frozen=True)
class DAMorphism:
    source: DAComplex
    target: DAComplex
    images: dict                         # source gen -> target element

    def apply(self, x: dict) -> dict:
        out: dict = {}
        for g, c in x.items():
            for h, w in self.images[g].items():
                out[h] = out.get(h, 0) + c * w
        return gclean(out)

    def then(self, other: "DAMorphism") -> "DAMorphism":
        if self.target is not other.source:
            raise MorphismError("composition mismatch")
        return DAMorphism(self.source, other.target,
                          {g: other.apply(v) for g, v in self.images.items()})

    def violations(self) -> list:
        """(kind, g) for each way a generator g of the source, in degree
        order, keeps this from being a morphism of augmented directed
        complexes: "missing" (g has no image), "negative" (a negative
        coefficient), "degree" (a target generator of another degree),
        "augmentation" (degree 0) or "chain" (the image of g's boundary is
        not the boundary of g's image; unchecked while a generator of that
        boundary has no image)."""
        found = []
        for d in range(self.source.top_degree + 1):
            for g in self.source.basis(d):
                img = self.images.get(g)
                if img is None:
                    found.append(("missing", g))
                    continue
                if not is_nonneg(img):
                    found.append(("negative", g))
                if any(self.target.degree_of(h) != d for h in img):
                    found.append(("degree", g))
                if d == 0:
                    if self.target.e(img) != self.source.e({g: 1}):
                        found.append(("augmentation", g))
                else:
                    boundary = self.source.diff.get(g, {})
                    if (all(h in self.images for h in boundary)
                            and self.apply(boundary) != self.target.d(img)):
                        found.append(("chain", g))
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
    """a and b send every generator of a's source to the same element."""
    return all(a.images[g] == b.images[g] for row in a.source.degrees for g in row)


def identity_morphism(K: DAComplex) -> DAMorphism:
    return DAMorphism(K, K, {g: {g: 1} for b in K.degrees for g in b})


def wreath_morphism(src: DAComplex, tgt: DAComplex, base: SimplicialMap,
                    comps: dict) -> DAMorphism:
    """Morphism of wreath complexes from a base map and child morphisms
    comps[(i, j)] for j in F(base)(i)."""
    fimg = gamma_image(base)
    images: dict = {}
    for p in range(base.source_width + 1):
        images[("o", p)] = {("o", base(p)): 1}
    for d in range(1, src.top_degree + 1):
        for g in src.basis(d):
            _, i, child_gen = g
            out: dict = {}
            for j in fimg[i]:
                for h, c in comps[(i, j)].images[child_gen].items():
                    out[("s", j, h)] = out.get(("s", j, h), 0) + c
            images[g] = gclean(out)
    return DAMorphism(src, tgt, images)


# lambda_map's value per interned morphism, held only while the morphism lives
_LAMBDA_MAPS: WeakKeyDictionary = WeakKeyDictionary()


def lambda_map(f: ThetaMorphism) -> DAMorphism:
    """The morphism of complexes of f, between lambda_cell(f.source) and
    lambda_cell(f.target).  Built once per morphism and kept as long as f
    lives: every caller gets the same morphism, which is shared and
    read-only."""
    out = _LAMBDA_MAPS.get(f)
    if out is None:
        out = _LAMBDA_MAPS[f] = _lambda_map(f)
    return out


def _lambda_map(f: ThetaMorphism) -> DAMorphism:
    src = lambda_cell(f.source)
    tgt = lambda_cell(f.target)
    if f.source.width == 0:
        return DAMorphism(src, tgt, {("o", 0): {("o", f.base(0)): 1}})
    comps = {(i, j): lambda_map(m) for (i, j), m in f.components}
    return wreath_morphism(src, tgt, f.base, comps)


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
    start = K.gen_index.start
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

    position = K.gen_index.position
    # x -> y for y in d(x)_+, and y -> x for y in d(x)_-
    strongly_loop_free = _acyclic(
        (position[x], position[y]) if c > 0 else (position[y], position[x])
        for row in K.degrees[1:] for x in row for y, c in K.diff.get(x, {}).items() if c)
    return unital, loop_free, strongly_loop_free


# ---------------------------------------------------------------------------
# amalgamation and isomorphism search
# ---------------------------------------------------------------------------

def _single_gen(x: dict):
    if len(x) == 1:
        ((g, c),) = x.items()
        if c == 1:
            return g
    return None


def amalgamate_with_inclusions(K: DAComplex, L: DAComplex, M: DAComplex,
                               i: DAMorphism, j: DAMorphism):
    """Glue K and L along M via generator-to-generator injections i, j.

    Returns (result, inclusion of K, inclusion of L).  Names from K are
    tagged ("A", g), unidentified names from L are tagged ("B", g).
    """
    for leg, name in ((i, "i"), (j, "j")):
        seen = set()
        for row in M.degrees:
            for g in row:
                h = _single_gen(leg.images[g])
                if h is None:
                    raise MorphismError(f"leg {name} is not prerigid at {g!r}")
                if h in seen:
                    raise MorphismError(f"leg {name} is not injective")
                seen.add(h)
    ident = {}
    for row in M.degrees:
        for g in row:
            ident[_single_gen(j.images[g])] = ("A", _single_gen(i.images[g]))

    def l_name(g):
        return ident.get(g, ("B", g))

    degrees = []
    top = max(K.top_degree, L.top_degree)
    for d in range(top + 1):
        row = [("A", g) for g in K.basis(d)]
        row += [l_name(g) for g in L.basis(d) if g not in ident]
        degrees.append(tuple(row))
    diff = {}
    for g, v in K.diff.items():
        diff[("A", g)] = {("A", h): c for h, c in v.items()}
    for g, v in L.diff.items():
        if g not in ident:
            diff[l_name(g)] = {l_name(h): c for h, c in v.items()}
    aug = {("A", g): c for g, c in K.aug.items()}
    for g, c in L.aug.items():
        if g not in ident:
            aug[l_name(g)] = c
    result = DAComplex(tuple(degrees), diff, aug).validate()
    incl_k = DAMorphism(K, result, {g: {("A", g): 1} for row in K.degrees for g in row})
    incl_l = DAMorphism(L, result, {g: {l_name(g): 1} for row in L.degrees for g in row})
    return result, incl_k, incl_l


def find_isomorphism(K: DAComplex, L: DAComplex):
    """Backtracking search for a basis bijection commuting with d and e.

    Returns the generator map or None.  Sizes here are tiny; matching is
    pruned by degree and differential support size.
    """
    if K.size_profile() != L.size_profile():
        return None
    mapping: dict = {}
    used: set = set()

    def signature(C: DAComplex, g):
        d = C.degree_of(g)
        dx = C.diff.get(g, {})
        return (d, tuple(sorted(dx.values())), C.aug.get(g, 0))

    sig_l: dict = {}
    for row in L.degrees:
        for g in row:
            sig_l.setdefault(signature(L, g), []).append(g)

    order = [g for d in range(K.top_degree + 1) for g in K.basis(d)]

    def consistent(g, h):
        dg = K.diff.get(g, {})
        dh = L.diff.get(h, {})
        for x, c in dg.items():
            if x in mapping and dh.get(mapping[x], 0) != c:
                return False
        if K.degree_of(g) == 0 and K.aug[g] != L.aug[h]:
            return False
        return True

    def extend(idx) -> bool:
        if idx == len(order):
            return True
        g = order[idx]
        for h in sig_l.get(signature(K, g), []):
            if h in used or not consistent(g, h):
                continue
            mapping[g] = h
            used.add(h)
            if extend(idx + 1):
                return True
            del mapping[g]
            used.discard(h)
        return False

    return dict(mapping) if extend(0) else None


def globe_inclusion(m: int, n: int, side: str) -> DAMorphism:
    """Iterated source (side="s") or target (side="t") inclusion of the
    m-globe complex into the n-globe complex, m <= n."""
    src, tgt = lambda_globe(m), lambda_globe(n)
    top = "b0" if m == 0 else f"v{m}"
    images = {}
    for row in src.degrees:
        for g in row:
            if g == top and m < n:
                images[g] = {(f"t{m}" if side == "t" else f"b{m}"): 1}
            else:
                images[g] = {g: 1}
    return DAMorphism(src, tgt, images).validate()


def amalgamation_over_globular_sum(t: ThetaCell) -> DAComplex:
    """Iterated pushout of globe complexes along the decomposition of t."""
    dec = globular_sum(t)
    acc = lambda_globe(dec.leaf_dims[0])
    latest = identity_morphism(acc)      # inclusion of the newest leaf globe
    for m, n_next in zip(dec.meet_dims, dec.leaf_dims[1:]):
        meet = lambda_globe(m)
        nxt = lambda_globe(n_next)
        prev_n = latest.source.top_degree
        t_leg = globe_inclusion(m, prev_n, "t").then(latest)
        s_leg = globe_inclusion(m, n_next, "s")
        acc, _, latest = amalgamate_with_inclusions(acc, nxt, meet, t_leg, s_leg)
    return acc
