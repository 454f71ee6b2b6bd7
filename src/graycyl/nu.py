"""Cells of the omega-category attached to a based complex, as tables.

An i-cell is a table of pairs (x_k^0, x_k^1) of nonnegative elements,
0 <= k <= i, with d(x_k^e) = x_{k-1}^1 - x_{k-1}^0, e(x_0^e) = 1 and equal
top entries.  Composition x *_j y is read left to right: x first, then y.
Every entry met so far has coefficients in {0,1}, so an entry is held as a
bitmask over the complex's generators (DAComplex.gen_index); an entry that
would leave {0,1} raises TableError.

A cell is the tuple of its rows ((x_0^0, x_0^1), ..., (x_i^0, x_i^1)) of
bitmasks, so its dimension is len(c) - 1, and it is hashed and compared as
that tuple.  The bits are named by the complex, so a NuView renders the
cells of its complex.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

from .dac import (DAComplex, DAMorphism, GenIndex, check_basis, gadd,
                  is_nonneg, render_name, tuple_repr)


class TableError(ValueError):
    pass


_MISS = object()   # a dict.get default that no stored value equals


def _mask(index: GenIndex, x: tuple) -> int:
    """The bitmask of a {0,1} element; other coefficients are not tables
    this representation can hold."""
    m = 0
    for g, c in x:
        if c != 1:
            raise TableError(f"coefficient {c} of {render_name(index.names[g])} is not 0 or 1")
        m |= 1 << g
    return m


def _table(index: GenIndex, rows) -> tuple:
    return tuple((_mask(index, n), _mask(index, p)) for n, p in rows)


def _is_identity(c: tuple) -> bool:
    return len(c) > 1 and c[-1] == (0, 0)


def make_cell(K: DAComplex, entries) -> tuple:
    """Validate and build a table from [(neg, pos), ...] elements stated
    as {generator name: int}."""
    entries = [(K.gen_index.row(neg), K.gen_index.row(pos)) for neg, pos in entries]
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
    return _table(K.gen_index, entries)


def nu_boundary(c: tuple):
    """(source, target): truncate, repeating the chosen side at the top."""
    if len(c) == 1:
        raise TableError("a 0-cell has no boundary")
    below = c[:-2]
    neg, pos = c[-2]
    return below + ((neg, neg),), below + ((pos, pos),)


def nu_identity(c: tuple) -> tuple:
    return c + ((0, 0),)


def nu_composable(j: int, a: tuple, b: tuple) -> bool:
    n = len(a)
    return n == len(b) and j < n - 1 and a[:j] == b[:j] and a[j][1] == b[j][0]


def nu_compose(j: int, a: tuple, b: tuple) -> tuple:
    """a *_j b, a first then b."""
    if not nu_composable(j, a, b):
        raise TableError(f"cells are not {j}-composable")
    return _compose(j, a, b)


def _compose(j: int, a: tuple, b: tuple) -> tuple:
    """a *_j b for a j-composable pair.  Above level j the entries add;
    every table met so far has {0,1} entries, so the sum must not overlap."""
    rows = list(a[:j])
    rows.append((a[j][0], b[j][1]))
    for (an, ap), (bn, bp) in zip(a[j + 1:], b[j + 1:]):
        if an & bn or ap & bp:
            raise TableError(f"{j}-composite has an entry with a coefficient 2")
        rows.append((an | bn, ap | bp))
    return tuple(rows)


# ---------------------------------------------------------------------------
# enumeration by polygraph closure
#
# nu(K) of a strong Steiner complex is freely generated by its atoms
# (Steiner, "Omega-categories and chain complexes", HHA 6, 2004), so every
# d-cell is a (d-1)-composite of whiskered atoms: d-atoms composed at levels
# j < d-1 with identity d-cells (the rewriting-path normal form of free
# omega-categories, Burroni, TCS 115, 1993).  The closure builds a layer in
# two stages: whisker the atoms (_whisker), then compose at level d-1 with a
# whiskered atom on the right.
# ---------------------------------------------------------------------------

class EnumerationError(RuntimeError):
    pass


DEFAULT_CEILING = 10 ** 6


def _pair_key(c: tuple, j: int, eps: int):
    """What a j-composite matches on: a *_j b is defined exactly when
    _pair_key(a, j, 1) == _pair_key(b, j, 0) for cells of one dimension > j."""
    return c[:j], c[j][eps]


def _whisker(atoms, identities, d: int, insert) -> list:
    """Stage 1: the d-atoms whiskered on both sides by the identity d-cells
    at every level j < d-1, each inserted into the layer by insert(c),
    which is true for a cell new to the layer.

    At level j only the iterated identities of (j+1)-cells take part.  An
    identity of a lower cell is a unit for *_j.  For an identity y of a
    higher cell, the exchange law gives
    x *_j y = (x *_j s_{j+1} y) *_{j+1} (t_{j+1} x *_j y) and
    y *_j x = (y *_j s_{j+1} x) *_{j+1} (t_{j+1} y *_j x): a whisker at
    level j by a (j+1)-cell, then one at level j+1."""
    if not atoms:
        return []
    index = [({}, {}) for _ in range(d - 1)]    # j -> (identities by start, by end)
    for i in identities:
        j = len(i) - 2                          # i is an iterated identity of a (j+1)-cell
        while i[j + 1] == (0, 0):
            j -= 1
        if 0 <= j < d - 1:
            by_start, by_end = index[j]
            by_start.setdefault(_pair_key(i, j, 0), []).append(i)
            by_end.setdefault(_pair_key(i, j, 1), []).append(i)
    whiskered = list(atoms)
    todo = list(atoms)
    while todo:
        w = todo.pop()
        for j, (by_start, by_end) in enumerate(index):
            sides = [_compose(j, w, i) for i in by_start.get(_pair_key(w, j, 1), ())]
            sides += [_compose(j, i, w) for i in by_end.get(_pair_key(w, j, 0), ())]
            for c in sides:
                if insert(c):
                    whiskered.append(c)
                    todo.append(c)
    return whiskered


def enumerate_cells(K: DAComplex, max_dim: int, ceiling: int = DEFAULT_CEILING):
    """Per-dimension cell sets of nu(K).  Requires a strong Steiner complex.

    Dimension d is built in two stages.  Stage 1 whiskers the d-atoms with
    the identities of the (d-1)-cells at every level j < d-1, on both
    sides (at level j, the identities of (j+1)-cells suffice; see
    _whisker); call the result W.  Stage 2 seeds the layer with W and those
    identities and closes it under *_{d-1}, always with a cell of W on the
    right.  By Steiner's freeness theorem this reaches every d-cell.  No
    dimension may hold more than `ceiling` cells; the ceiling is checked on
    every insertion, so it also bounds the work done."""
    if check_basis(K) != (True, True, True):
        raise EnumerationError("complex is not strong Steiner")
    start = K.gen_index.start
    layers: list[set[tuple]] = []
    for d in range(max_dim + 1):
        cells: set[tuple] = set()

        def insert(c: tuple) -> bool:
            if c in cells:
                return False
            if len(cells) >= ceiling:
                raise EnumerationError(f"cell ceiling {ceiling} exceeded at dimension {d}")
            cells.add(c)
            return True

        identities = [nu_identity(c) for c in layers[-1]] if d else []
        for c in identities:
            insert(c)
        atoms = K.atoms[start[d]:start[d + 1]] if d <= K.top_degree else ()
        for a in atoms:
            insert(a)
        whiskered = _whisker(atoms, identities, d, insert)
        if d:
            # an identity on the left gives back its right factor, so only
            # the cells of W start a (d-1)-composite
            by_start: dict = {}
            for w in whiskered:
                by_start.setdefault(_pair_key(w, d - 1, 0), []).append(w)
            todo = list(whiskered)
            while todo:
                c = todo.pop()
                for w in by_start.get(_pair_key(c, d - 1, 1), ()):
                    cw = _compose(d - 1, c, w)
                    if insert(cw):
                        todo.append(cw)
        layers.append(cells)
    return layers


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

    index = K.gen_index
    bottoms = [x for x in vectors(0) if K.e(x) == 1]
    by_boundary: dict[int, dict] = {}
    for d in range(1, max_dim + 1):
        table: dict = {}
        for x in vectors(d):
            table.setdefault(K.d(x), []).append(x)
        by_boundary[d] = table

    layers: list[set[tuple]] = [{_table(index, [(x, x)]) for x in bottoms}]
    partial = [[(x, y)] for x in bottoms for y in bottoms]
    for d in range(1, max_dim + 1):
        out: set[tuple] = set()
        nxt = []
        for rows in partial:
            neg_prev, pos_prev = rows[-1]
            want = gadd(pos_prev, [(g, -c) for g, c in neg_prev])
            sols = by_boundary[d].get(want, [])
            for x in sols:
                out.add(_table(index, rows + [(x, x)]))
            for x in sols:
                for y in sols:
                    nxt.append(rows + [(x, y)])
        # keep only well-formed prefixes (bottom rows with equal entries are
        # required only at the top, so all pairs continue)
        layers.append(out)
        partial = nxt
    return layers


# ---------------------------------------------------------------------------
# the table view and functors
# ---------------------------------------------------------------------------

class NuView:
    """The cells of nu(K) up to max_dim, enumerated once, and their printed
    forms, with the bits named by K.gen_index."""

    def __init__(self, K: DAComplex, max_dim: int, ceiling: int = DEFAULT_CEILING):
        self.max_dim = max_dim
        self.gen_index = K.gen_index
        self.layers = enumerate_cells(K, max_dim, ceiling)
        self._sorted = {}

    def cells(self, d: int):
        if d > self.max_dim:
            return ()
        if d not in self._sorted:
            self._sorted[d] = sorted(self.layers[d], key=self.sort_key)
        return self._sorted[d]

    def counts(self):
        return tuple(len(self.layers[d]) for d in range(self.max_dim + 1))

    def nondegenerate_counts(self):
        return tuple(sum(1 for c in self.layers[d] if not _is_identity(c))
                     for d in range(self.max_dim + 1))

    def sort_key(self, c: tuple) -> str:
        """repr of the rows as tuples of (name, 1) pairs, names in repr
        order, built from the cached pair reprs.  Cell listings and JSON
        dumps sort by it and their bytes are pinned, so it must not change."""
        entry = self.gen_index.rendering.entry
        return tuple_repr([f"({entry(n).key}, {entry(p).key})" for n, p in c])

    def text(self, c: tuple) -> str:
        entry = self.gen_index.rendering.entry
        return "[" + " ".join(f"({entry(n).text};{entry(p).text})" for n, p in c) + "]"


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
    index = a.target.gen_index

    def gen_mask(img: tuple):
        # None where a coefficient is not 0 or 1: an error only once an
        # entry holds that generator
        return _mask(index, img) if all(c == 1 for _, c in img) else None

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


def skeleton_dot(view: NuView, name: str = "skeleton") -> str:
    """0/1/2-skeleton: nodes are 0-cells, edges nondegenerate 1-cells,
    one comment line per nondegenerate 2-cell."""
    text = view.text

    def node_id(c):
        return '"' + text(c).replace('"', "'") + '"'

    lines = [f"digraph {name} {{"]
    for c in view.cells(0):
        lines.append(f"  {node_id(c)};")
    for c in view.cells(1):
        if not _is_identity(c):
            s, t = nu_boundary(c)
            lines.append(f"  {node_id(s)} -> {node_id(t)} [label={node_id(c)}];")
    for c in view.cells(2):
        if not _is_identity(c):
            s, t = nu_boundary(c)
            lines.append(f"  // 2-cell {text(c)}: {text(s)} => {text(t)}")
    lines.append("}")
    return "\n".join(lines)
