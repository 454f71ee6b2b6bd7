"""Cells of the omega-category attached to a based complex, as tables.

An i-cell is a table of pairs (x_k^0, x_k^1) of nonnegative elements,
0 <= k <= i, with d(x_k^e) = x_{k-1}^1 - x_{k-1}^0, e(x_0^e) = 1 and equal
top entries.  Composition x *_j y is read left to right: x first, then y.
Every entry met so far has coefficients in {0,1}, so an entry is held as a
bitmask over the complex's generators (DAComplex.gen_index); an entry that
would leave {0,1} raises TableError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iproduct

from .dac import (DAComplex, DAMorphism, GenIndex, atom, check_basis, gadd,
                  gclean, is_nonneg, render_name, tuple_repr)


class TableError(ValueError):
    pass


def _mask(index: GenIndex, x: dict) -> int:
    """The bitmask of a {0,1} element; other coefficients are not tables
    this representation can hold."""
    m = 0
    for g, c in x.items():
        if c not in (0, 1):
            raise TableError(f"coefficient {c} of {render_name(g)} is not 0 or 1")
        if c:
            m |= index.bit[g]
    return m


def _table(index: GenIndex, rows) -> NuCell:
    return NuCell(tuple((_mask(index, n), _mask(index, p)) for n, p in rows), index)


@dataclass(frozen=True, slots=True)
class NuCell:
    rows: tuple  # ((neg_k, pos_k) generator bitmasks), k = 0..dim
    index: GenIndex = field(compare=False, repr=False)  # names the bits, for rendering

    @property
    def dim(self) -> int:
        return len(self.rows) - 1

    def entry(self, k: int, eps: int) -> dict:
        return dict.fromkeys(self.index.names_of(self.rows[k][eps]), 1)

    @property
    def is_identity(self) -> bool:
        return self.dim > 0 and self.rows[-1] == (0, 0)

    def sort_key(self) -> str:
        """repr of the rows as tuples of (name, 1) pairs, names in repr
        order, built from the cached pair reprs.  Cell listings and JSON
        dumps sort by it and their bytes are pinned, so it must not change."""
        entry = self.index.rendering.entry
        return tuple_repr([f"({entry(n).key}, {entry(p).key})" for n, p in self.rows])

    def __str__(self) -> str:
        entry = self.index.rendering.entry
        return "[" + " ".join(f"({entry(n).text};{entry(p).text})" for n, p in self.rows) + "]"

    def to_json(self):
        entry = self.index.rendering.entry
        return [[dict.fromkeys(entry(n).names, 1), dict.fromkeys(entry(p).names, 1)]
                for n, p in self.rows]


def make_cell(K: DAComplex, entries) -> NuCell:
    """Validate and build a table from [(neg, pos), ...] dicts."""
    i = len(entries) - 1
    for k, (neg, pos) in enumerate(entries):
        for x in (neg, pos):
            if not is_nonneg(x):
                raise TableError(f"entry at level {k} not positive")
        if k > 0:
            want = gadd(entries[k - 1][1], {g: -c for g, c in entries[k - 1][0].items()})
            for x in (neg, pos):
                if K.d(x) != want:
                    raise TableError(f"boundary condition fails at level {k}")
    for x in entries[0]:
        if K.e(x) != 1:
            raise TableError("augmentation of bottom entries must be 1")
    if entries[i][0] != entries[i][1]:
        raise TableError("top entries must agree")
    return _table(K.gen_index, entries)


def nu_boundary(c: NuCell):
    """(source, target): truncate, repeating the chosen side at the top."""
    if c.dim == 0:
        raise TableError("a 0-cell has no boundary")
    below = c.rows[:-2]
    neg, pos = c.rows[-2]
    src = NuCell(below + ((neg, neg),), c.index)
    tgt = NuCell(below + ((pos, pos),), c.index)
    return src, tgt


def nu_identity(c: NuCell) -> NuCell:
    return NuCell(c.rows + ((0, 0),), c.index)


def nu_composable(j: int, a: NuCell, b: NuCell) -> bool:
    n = len(a.rows)
    return (n == len(b.rows) and j < n - 1 and a.rows[:j] == b.rows[:j]
            and a.rows[j][1] == b.rows[j][0])


def nu_compose(j: int, a: NuCell, b: NuCell) -> NuCell:
    """a *_j b, a first then b."""
    if not nu_composable(j, a, b):
        raise TableError(f"cells are not {j}-composable")
    return _compose(j, a, b)


def _compose(j: int, a: NuCell, b: NuCell) -> NuCell:
    """a *_j b for a j-composable pair.  Above level j the entries add;
    every table met so far has {0,1} entries, so the sum must not overlap."""
    rows = list(a.rows[:j])
    rows.append((a.rows[j][0], b.rows[j][1]))
    for (an, ap), (bn, bp) in zip(a.rows[j + 1:], b.rows[j + 1:]):
        if an & bn or ap & bp:
            raise TableError(f"{j}-composite has an entry with a coefficient 2")
        rows.append((an | bn, ap | bp))
    return NuCell(tuple(rows), a.index)


# ---------------------------------------------------------------------------
# enumeration by polygraph closure
# ---------------------------------------------------------------------------

class EnumerationError(RuntimeError):
    pass


DEFAULT_CEILING = 10 ** 6


def _pair_key(c: NuCell, j: int, eps: int):
    """What a j-composite matches on: a *_j b is defined exactly when
    _pair_key(a, j, 1) == _pair_key(b, j, 0) for cells of one dimension > j."""
    return c.rows[:j], c.rows[j][eps]


def _close(seeds, d: int, ceiling: int) -> set:
    """The d-cells generated by `seeds` under every j-composition, j < d.

    A worklist: each popped cell joins the start/end index and is composed
    with the partners it returns, so every composable pair is composed once
    the later of its two cells is popped."""
    cells: set[NuCell] = set()
    todo: list[NuCell] = []

    def insert(c: NuCell):
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


def enumerate_cells(K: DAComplex, max_dim: int, ceiling: int = DEFAULT_CEILING):
    """Per-dimension cell sets: atoms + identities, closed under all
    compositions.  Requires a strong Steiner complex.  No dimension may
    hold more than `ceiling` cells."""
    if check_basis(K) != (True, True, True):
        raise EnumerationError("complex is not strong Steiner")
    layers: list[set[NuCell]] = []
    for d in range(max_dim + 1):
        seeds = [nu_identity(c) for c in layers[-1]] if d else []
        seeds += [_table(K.gen_index, atom(K, g).rows) for g in K.basis(d)]
        layers.append(_close(seeds, d, ceiling))
    return layers


def search_tables(K: DAComplex, max_dim: int, coeff_bound: int):
    """Independent oracle: exhaustive enumeration of valid tables whose
    entries have coefficients <= coeff_bound."""
    def vectors(d: int):
        basis = K.basis(d)
        for combo in iproduct(range(coeff_bound + 1), repeat=len(basis)):
            yield gclean(dict(zip(basis, combo)))

    index = K.gen_index
    bottoms = [x for x in vectors(0) if K.e(x) == 1]
    by_boundary: dict[int, dict] = {}
    for d in range(1, max_dim + 1):
        table: dict = {}
        for x in vectors(d):
            table.setdefault(frozenset(K.d(x).items()), []).append(x)
        by_boundary[d] = table

    layers: list[set[NuCell]] = [{_table(index, [(x, x)]) for x in bottoms}]
    partial = [[(x, y)] for x in bottoms for y in bottoms]
    for d in range(1, max_dim + 1):
        out: set[NuCell] = set()
        nxt = []
        for rows in partial:
            neg_prev, pos_prev = rows[-1]
            want = frozenset(gadd(pos_prev, {g: -c for g, c in neg_prev.items()}).items())
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
    """The cells of nu(K) up to max_dim, enumerated once."""

    def __init__(self, K: DAComplex, max_dim: int, ceiling: int = DEFAULT_CEILING):
        self.max_dim = max_dim
        self.layers = enumerate_cells(K, max_dim, ceiling)
        self._sorted = {}

    def cells(self, d: int):
        if d > self.max_dim:
            return ()
        if d not in self._sorted:
            self._sorted[d] = sorted(self.layers[d], key=NuCell.sort_key)
        return self._sorted[d]

    def counts(self):
        return tuple(len(self.layers[d]) for d in range(self.max_dim + 1))

    def nondegenerate_counts(self):
        return tuple(sum(1 for c in self.layers[d] if not c.is_identity)
                     for d in range(self.max_dim + 1))


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

    def gen_mask(img: dict):
        # None where a coefficient is not 0 or 1: an error only once an
        # entry holds that generator
        return _mask(index, img) if all(c in (0, 1) for c in img.values()) else None

    gen_image = [gen_mask(a.images[g]) for g in a.source.gen_index.names]  # by bit position
    entry_image = {0: 0}
    cache: dict = {}

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

    def apply(c: NuCell) -> NuCell:
        out = cache.get(c)
        if out is not None:
            return out
        out = NuCell(tuple((image(n), image(p)) for n, p in c.rows), index)
        if out.dim <= tgt.max_dim and out not in tgt.layers[out.dim]:
            raise TableError(f"image table is not a cell of the target: {c}")
        cache[c] = out
        return out

    return OmegaFunctor(src, tgt, apply)


def check_entrywise_functors(Fs):
    """Per functor built by nu_functor, the list of violations among its
    cells: ("image", d, c) where F(c) is not a target cell (TableError),
    ("source"/"target"/"identity", d, c) where F does not preserve them,
    or has no image at that boundary or identity.

    Composition needs no walk over the composable pairs.  nu_functor maps
    each entry mask m to image(m), the OR of the images of its generators,
    and raises TableError when two of them overlap.  For a j-composable
    pair (a, b), F(a) and F(b) are j-composable, since equal entries have
    equal images.  F(a *_j b) and F(a) *_j F(b) agree at and below row j;
    above it both are image(m) | image(n) for disjoint m, n, and both raise
    exactly when image(m) & image(n) != 0.  And a *_j b is itself a source
    cell, since the closure is closed under *_j, so this pass applies F to
    it: the pair walk of check_functors could report nothing that this pass
    has not already reported."""
    if not Fs or any(F.source_view is not Fs[0].source_view for F in Fs):
        raise ValueError("check_entrywise_functors needs functors out of one source view")
    src = Fs[0].source_view
    reports = [[] for _ in Fs]
    top = src.max_dim

    def image(F, c):
        try:
            return F(c)
        except TableError:
            return None

    for d in range(top + 1):
        for c in src.layers[d]:
            if d > 0:
                src_c, tgt_c = nu_boundary(c)
            ident = nu_identity(c) if d < top else None
            for F, report in zip(Fs, reports):
                fc = image(F, c)
                if fc is None:
                    report.append(("image", d, c))
                    continue
                if d > 0:
                    src_fc, tgt_fc = nu_boundary(fc)
                    if image(F, src_c) != src_fc:
                        report.append(("source", d, c))
                    if image(F, tgt_c) != tgt_fc:
                        report.append(("target", d, c))
                if ident is not None and image(F, ident) != nu_identity(fc):
                    report.append(("identity", d, c))
    return reports


def check_functors(Fs, max_dim: int):
    """Per functor, the list of violations of boundary/identity/composition
    preservation.  The functors share one source view, so each composable
    pair of it is composed once for all of them."""
    if not Fs or any(F.source_view is not Fs[0].source_view for F in Fs):
        raise ValueError("check_functors needs functors out of one source view")
    src = Fs[0].source_view
    reports = [[] for _ in Fs]
    checks = list(zip(Fs, reports))
    top = min(max_dim, src.max_dim)
    for d in range(top + 1):
        cs = src.cells(d)
        for c in cs:
            if d > 0:
                src_c, tgt_c = nu_boundary(c)
            ident = nu_identity(c) if d < top else None
            for F, report in checks:
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
                    for F, report in checks:
                        lhs = F(ab)
                        fa, fb = F(a), F(b)
                        if not nu_composable(j, fa, fb):
                            report.append(("composable", d, j, a, b))
                        elif lhs != _compose(j, fa, fb):
                            report.append(("compose", d, j, a, b))
    return reports


def skeleton_dot(view: NuView, name: str = "skeleton") -> str:
    """0/1/2-skeleton: nodes are 0-cells, edges nondegenerate 1-cells,
    one comment line per nondegenerate 2-cell."""
    def node_id(c):
        return '"' + str(c).replace('"', "'") + '"'

    lines = [f"digraph {name} {{"]
    for c in view.cells(0):
        lines.append(f"  {node_id(c)};")
    for c in view.cells(1):
        if not c.is_identity:
            s, t = nu_boundary(c)
            lines.append(f"  {node_id(s)} -> {node_id(t)} [label={node_id(c)}];")
    for c in view.cells(2):
        if not c.is_identity:
            s, t = nu_boundary(c)
            lines.append(f"  // 2-cell {c}: {s} => {t}")
    lines.append("}")
    return "\n".join(lines)
