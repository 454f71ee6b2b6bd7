"""Cells of the omega-category attached to a based complex, as tables.

An i-cell is a table of pairs (x_k^0, x_k^1) of nonnegative elements,
0 <= k <= i, with d(x_k^e) = x_{k-1}^1 - x_{k-1}^0, e(x_0^e) = 1 and equal
top entries.  Composition x *_j y is read left to right: x first, then y.
Every entry met so far has coefficients in {0,1}, so an entry is held as a
bitmask over the complex's generator positions (bit x for generator x); an
entry that would leave {0,1} raises TableError.

A cell is the tuple of its rows ((x_0^0, x_0^1), ..., (x_i^0, x_i^1)) of
bitmasks, so its dimension is len(c) - 1, and it is hashed and compared as
that tuple.  The bits are named by the complex, so a NuView renders the
cells of its complex.
"""

from __future__ import annotations

from .dac import DAComplex, check_basis


class TableError(ValueError):
    pass


def _is_identity(c: tuple) -> bool:
    return len(c) > 1 and c[-1] == (0, 0)


def nu_boundary(c: tuple):
    """(source, target): truncate, repeating the chosen side at the top."""
    if len(c) == 1:
        raise TableError("a 0-cell has no boundary")
    below = c[:-2]
    neg, pos = c[-2]
    return below + ((neg, neg),), below + ((pos, pos),)


def nu_identity(c: tuple) -> tuple:
    return c + ((0, 0),)


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
    start = K.start
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


# ---------------------------------------------------------------------------
# the table view
# ---------------------------------------------------------------------------

class NuView:
    """The cells of nu(K) up to max_dim, enumerated once, and their printed
    forms, with the bits named by K."""

    def __init__(self, K: DAComplex, max_dim: int, ceiling: int = DEFAULT_CEILING):
        self.max_dim = max_dim
        self.complex = K
        self.layers = enumerate_cells(K, max_dim, ceiling)
        self._sorted = {}

    def cells(self, d: int):
        """The d-cells sorted by their entries' ranks among the layer's
        entry keys (EntryText.key).  A layer's cells have d + 1 rows each and
        no key is a prefix of another, so this is the order of the reprs of
        the cells as rows of (name, 1) pairs, which pinned bytes keep.  A d
        outside 0..max_dim has no cells."""
        if not 0 <= d <= self.max_dim:
            return ()
        if d not in self._sorted:
            layer, entry = self.layers[d], self.complex.rendering.entry
            masks = sorted({m for c in layer for row in c for m in row}, key=lambda m: entry(m).key)
            rank = {m: i for i, m in enumerate(masks)}
            self._sorted[d] = sorted(layer, key=lambda c: tuple([rank[m] for r in c for m in r]))
        return self._sorted[d]

    def counts(self):
        return tuple(len(self.layers[d]) for d in range(self.max_dim + 1))

    def nondegenerate_counts(self):
        return tuple(sum(1 for c in self.layers[d] if not _is_identity(c))
                     for d in range(self.max_dim + 1))

    def text(self, c: tuple) -> str:
        entry = self.complex.rendering.entry
        return "[" + " ".join(f"({entry(n).text};{entry(p).text})" for n, p in c) + "]"


def skeleton_dot(view: NuView) -> str:
    """0/1/2-skeleton: nodes are 0-cells, edges nondegenerate 1-cells,
    one comment line per nondegenerate 2-cell."""
    text = view.text

    def node_id(c):
        return '"' + text(c).replace('"', "'") + '"'

    lines = ["digraph skeleton {"]
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
