"""Cells of the omega-category attached to a based complex, as tables.

An i-cell is a table of pairs (x_k^0, x_k^1) of nonnegative elements,
0 <= k <= i, with d(x_k^e) = x_{k-1}^1 - x_{k-1}^0, e(x_0^e) = 1 and equal
top entries.  Composition x *_j y is read left to right: x first, then y.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

from .dac import (DAComplex, DAMorphism, atom, check_basis, gadd, gclean,
                  is_nonneg, render_element)


def _freeze(x: dict) -> tuple:
    return tuple(sorted(x.items(), key=lambda kv: repr(kv[0])))


def _thaw(f: tuple) -> dict:
    return dict(f)


class TableError(ValueError):
    pass


@dataclass(frozen=True)
class NuCell:
    rows: tuple  # ((neg_k, pos_k) frozen pairs), k = 0..dim

    @property
    def dim(self) -> int:
        return len(self.rows) - 1

    def entry(self, k: int, eps: int) -> dict:
        return _thaw(self.rows[k][eps])

    @property
    def is_identity(self) -> bool:
        return self.dim > 0 and self.rows[-1] == ((), ())

    def sort_key(self):
        return repr(self.rows)

    def __str__(self) -> str:
        cols = [f"({render_element(self.entry(k, 0))};{render_element(self.entry(k, 1))})"
                for k in range(self.dim + 1)]
        return "[" + " ".join(cols) + "]"

    def to_json(self):
        def side(x):
            return {render_element({g: 1}): c for g, c in sorted(x.items(), key=repr)}
        return [[side(self.entry(k, 0)), side(self.entry(k, 1))] for k in range(self.dim + 1)]


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
    return NuCell(tuple((_freeze(n), _freeze(p)) for n, p in entries))


def nu_boundary(c: NuCell):
    """(source, target): truncate, repeating the chosen side at the top."""
    if c.dim == 0:
        raise TableError("a 0-cell has no boundary")
    below = c.rows[:-2]
    neg, pos = c.rows[-2]
    src = NuCell(below + ((neg, neg),))
    tgt = NuCell(below + ((pos, pos),))
    return src, tgt


def nu_identity(c: NuCell) -> NuCell:
    return NuCell(c.rows + (((), ()),))


def nu_composable(j: int, a: NuCell, b: NuCell) -> bool:
    if a.dim != b.dim or j >= a.dim:
        return False
    if a.rows[:j] != b.rows[:j]:
        return False
    return a.rows[j][1] == b.rows[j][0]


def nu_compose(j: int, a: NuCell, b: NuCell) -> NuCell:
    """a *_j b, a first then b."""
    if not nu_composable(j, a, b):
        raise TableError(f"cells are not {j}-composable")
    rows = list(a.rows[:j])
    rows.append((a.rows[j][0], b.rows[j][1]))
    for k in range(j + 1, a.dim + 1):
        rows.append((_freeze(gadd(_thaw(a.rows[k][0]), _thaw(b.rows[k][0]))),
                     _freeze(gadd(_thaw(a.rows[k][1]), _thaw(b.rows[k][1])))))
    return NuCell(tuple(rows))


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
                insert(nu_compose(j, c, b))
            for a in by_end.get(_pair_key(c, j, 0), ()):
                insert(nu_compose(j, a, c))
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
        seeds += [NuCell(tuple((_freeze(n), _freeze(p)) for n, p in atom(K, g).rows))
                  for g in K.basis(d)]
        layers.append(_close(seeds, d, ceiling))
    return layers


def search_tables(K: DAComplex, max_dim: int, coeff_bound: int):
    """Independent oracle: exhaustive enumeration of valid tables whose
    entries have coefficients <= coeff_bound."""
    def vectors(d: int):
        basis = K.basis(d)
        for combo in iproduct(range(coeff_bound + 1), repeat=len(basis)):
            yield gclean(dict(zip(basis, combo)))

    bottoms = [x for x in vectors(0) if K.e(x) == 1]
    by_boundary: dict[int, dict] = {}
    for d in range(1, max_dim + 1):
        table: dict = {}
        for x in vectors(d):
            table.setdefault(_freeze(K.d(x)), []).append(x)
        by_boundary[d] = table

    layers: list[set[NuCell]] = [set()]
    pairs0 = [((x, x),) for x in bottoms]
    layers[0] = {NuCell(tuple((_freeze(n), _freeze(p)) for n, p in rows)) for rows in pairs0}
    partial = [[(x, y)] for x in bottoms for y in bottoms]
    for d in range(1, max_dim + 1):
        out: set[NuCell] = set()
        nxt = []
        for rows in partial:
            neg_prev, pos_prev = rows[-1]
            want = _freeze(gadd(pos_prev, {g: -c for g, c in neg_prev.items()}))
            sols = by_boundary[d].get(want, [])
            for x in sols:
                out.add(NuCell(tuple(( _freeze(n), _freeze(p)) for n, p in rows) + ((_freeze(x), _freeze(x)),)))
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
    cache: dict = {}

    def apply(c: NuCell) -> NuCell:
        out = cache.get(c)
        if out is not None:
            return out
        rows = []
        for k in range(c.dim + 1):
            rows.append((_freeze(a.apply(c.entry(k, 0))), _freeze(a.apply(c.entry(k, 1)))))
        out = NuCell(tuple(rows))
        if out.dim <= tgt.max_dim and out not in tgt.layers[out.dim]:
            raise TableError(f"image table is not a cell of the target: {c}")
        cache[c] = out
        return out

    return OmegaFunctor(src, tgt, apply)


def check_functor(F: OmegaFunctor, max_dim: int):
    """List of violations of boundary/identity/composition preservation."""
    src = F.source_view
    report = []
    top = min(max_dim, src.max_dim)
    for d in range(top + 1):
        cs = src.cells(d)
        for c in cs:
            fc = F(c)
            if d > 0:
                src_c, tgt_c = nu_boundary(c)
                src_fc, tgt_fc = nu_boundary(fc)
                if F(src_c) != src_fc:
                    report.append(("source", d, c))
                if F(tgt_c) != tgt_fc:
                    report.append(("target", d, c))
            if d < top and F(nu_identity(c)) != nu_identity(fc):
                report.append(("identity", d, c))
        for j in range(d):
            by_start: dict = {}
            for b in cs:
                by_start.setdefault(_pair_key(b, j, 0), []).append(b)
            pairs = ((a, b) for a in cs for b in by_start.get(_pair_key(a, j, 1), ()))
            for a, b in pairs:
                lhs = F(nu_compose(j, a, b))
                if not nu_composable(j, F(a), F(b)):
                    report.append(("composable", d, j, a, b))
                elif lhs != nu_compose(j, F(a), F(b)):
                    report.append(("compose", d, j, a, b))
    return report


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
