"""Helpers of the tests: complexes and morphisms read by generator name, and
the oracles that check the complex builders from outside the library.

The library numbers a complex's generators once and then works on
positions.  Tests state generators by name through dac.named_complex,
dac.named_morphism and GenIndex.row, and read them back by name here.

The oracles build the complex of a cell a second way, by gluing globe
complexes along its globular sum, and compare it with lambda_cell up to a
renaming of generators.
"""

from __future__ import annotations

from bisect import bisect_right

from graycyl.dac import (DAComplex, DAMorphism, MorphismError, lambda_globe,
                         named_complex, named_morphism)
from graycyl.theta import ThetaCell, globular_sum


# ---------------------------------------------------------------------------
# reading by name
# ---------------------------------------------------------------------------

def position(K: DAComplex, g) -> int:
    return K.gen_index.position[g]


def degree_of(K: DAComplex, g) -> int:
    return bisect_right(K.gen_index.start, position(K, g)) - 1


def element(K: DAComplex, row) -> dict:
    """The row of an element of K as {generator name: int}."""
    names = K.gen_index.names
    return {names[h]: c for h, c in row}


def boundary(K: DAComplex, g) -> dict:
    return element(K, K.diff[position(K, g)])


def boundaries(K: DAComplex) -> dict:
    """{g: d g} over the generators g with a nonzero boundary."""
    return {g: element(K, row) for g, row in zip(K.gen_index.names, K.diff) if row}


def augmentations(K: DAComplex) -> dict:
    """{g: e g} over the generators of degree 0."""
    return {K.gen_index.names[x]: K.aug[x] for x in K.positions(0)}


def image(m: DAMorphism, g):
    """The image of g as {generator name: int}, or None where g has none."""
    row = m.images[position(m.source, g)]
    return None if row is None else element(m.target, row)


def images(m: DAMorphism) -> dict:
    """{g: image of g} over every generator of the source."""
    return {g: image(m, g) for g in m.source.gen_index.names}


def with_image(m: DAMorphism, g, img) -> DAMorphism:
    """A copy of m that sends g to the element img, stated by names."""
    rows = list(m.images)
    rows[position(m.source, g)] = m.target.gen_index.row(img)
    return DAMorphism(m.source, m.target, tuple(rows))


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
    m_names = M.gen_index.names
    for leg, name in ((i, "i"), (j, "j")):
        seen = set()
        for x, row in enumerate(leg.images):
            h = single_generator(row)
            if h is None:
                raise MorphismError(f"leg {name} is not prerigid at {m_names[x]!r}")
            if h in seen:
                raise MorphismError(f"leg {name} is not injective")
            seen.add(h)
    k_names, l_names = K.gen_index.names, L.gen_index.names
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
    diff = {("A", g): {("A", k_names[h]): c for h, c in row}
            for g, row in zip(k_names, K.diff)}
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
    if K.size_profile() != L.size_profile():
        return None
    mapping: dict = {}
    used: set = set()

    def signature(C: DAComplex, x: int):
        d = bisect_right(C.gen_index.start, x) - 1
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
    for g in src.gen_index.names:
        if g == top and m < n:
            images[g] = {(f"t{m}" if side == "t" else f"b{m}"): 1}
        else:
            images[g] = {g: 1}
    return named_morphism(src, tgt, images).validate()


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
