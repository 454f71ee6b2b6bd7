"""The Gray cylinder over a cell and its decompositions.

The cylinder is computed as the table category of the tensor of the
interval complex with the cell's complex.  The shuffle decomposition, the
gluing checks, globular-sum preservation and the hyperface formulas are
verified with exact integer linear algebra on the rows of the images,
whose lattices are direct sums over degrees, so one echelon answers every
degree.
"""

from __future__ import annotations

from functools import lru_cache

from . import intlin
from .dac import (DAComplex, DAMorphism, composites_agree, lambda_cell,
                  lambda_globe, lambda_map, morphisms_agree, tensor,
                  wreath_complex, wreath_map)
from .nu import DEFAULT_CEILING, NuView
from .theta import (POINT, Frozen, Hyperface, ThetaCell, ThetaMap, bang, globular_sum,
                    theta_identity)


def interval() -> DAComplex:
    """The interval complex: the memoised globe complex of dimension 1,
    whose generators L = b0, R = t0 and H = v1 sit at positions 0, 1 and 2,
    as the objects and the edge of lambda([1]) do."""
    return lambda_globe(1)


@lru_cache(maxsize=None)
def cylinder_complex(t: ThetaCell) -> DAComplex:
    """The complex of [1]⊗T.  Memoised per cell, unbounded, as lambda_cell
    is: every caller gets the same complex, which is shared and read-only.
    Its parts are its lanes over L, R and H: parts[0][x] is the position of
    L⊗x, parts[1][x] that of R⊗x and parts[2][x] that of H⊗x."""
    return tensor(interval(), lambda_cell(t))


def cylinder_map(f: ThetaMap) -> DAMorphism:
    """[1]⊗f: the identity of the interval tensored with lambda(f), between
    the memoised cylinders of f's source and target."""
    return _interval_tensor(lambda_map(f), cylinder_complex(f.source),
                            cylinder_complex(f.target))


def _interval_tensor(lam: DAMorphism, src: DAComplex, tgt: DAComplex) -> DAMorphism:
    """The interval tensored with the lambda map lam, from src to tgt, the
    cylinders over lam's source and target cells."""
    rows = lam.images
    images = [None] * len(src.diff)
    units = tgt.units
    for src_part, tgt_part in zip(src.parts, tgt.parts):
        for y, row in zip(src_part, rows):
            images[y] = (units[tgt_part[row[0][0]]] if len(row) == 1 and row[0][1] == 1
                         else tuple([(tgt_part[h], c) for h, c in row]))
    return DAMorphism(src, tgt, tuple(images))


def gray_cylinder(t: ThetaCell, max_dim: int | None = None,
                  ceiling: int = DEFAULT_CEILING) -> NuView:
    if max_dim is None:
        max_dim = t.dimension() + 1
    return NuView(cylinder_complex(t), max_dim, ceiling)


def endpoint_inclusion(t: ThetaCell, eps: int) -> DAMorphism:
    """The complex-level end inclusion at vertex eps."""
    cyl = cylinder_complex(t)
    return DAMorphism(lambda_cell(t), cyl, tuple(cyl.units[y] for y in cyl.parts[eps]))


# ---------------------------------------------------------------------------
# the lax shuffle decomposition
# ---------------------------------------------------------------------------

def o_cell(t: ThetaCell, j: int) -> ThetaCell:
    """[n+1];(A_1..A_j, [0], A_{j+1}..A_n)."""
    return ThetaCell(t.children[:j] + (POINT,) + t.children[j:])


class ShuffleColumn(Frozen):
    """The column O_index or M_index (kind "O" or "M"); embed maps the
    column's complex into the cylinder complex."""

    __slots__ = ("kind", "index", "embed")

    def __init__(self, kind: str, index: int, embed: DAMorphism):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "embed", embed)

    @property
    def name(self) -> str:
        return f"{self.kind}{self.index}"


def _o_embedding(t: ThetaCell, j: int, cyl: DAComplex) -> DAMorphism:
    """o_p goes to L⊗o_p up to p = j and to R⊗o_{p-1} after; the unit slot
    j+1 goes to the crossing H⊗o_j, and the slots around it to L or R of
    the slot of t they copy."""
    K = lambda_cell(o_cell(t, j))
    slots = lambda_cell(t).parts
    left, right, cross = cyl.parts
    units = cyl.units
    images = [None] * len(K.diff)
    for p, x in enumerate(K.parts[0]):
        images[x] = units[left[p] if p <= j else right[p - 1]]
    for i in range(1, len(K.parts)):
        if i == j + 1:
            images[K.parts[i][0]] = units[cross[j]]
            continue
        lane, slot = (left, slots[i]) if i <= j else (right, slots[i - 1])
        for x, y in enumerate(K.parts[i]):
            images[y] = units[lane[slot[x]]]
    return DAMorphism(K, cyl, tuple(images))


def _m_embedding(t: ThetaCell, k: int, cyl: DAComplex) -> DAMorphism:
    """o_p goes to L⊗o_p before p = k and to R⊗o_p from there on; slot i
    goes to L or R of slot i of t as i < k or i > k, and a⊗x in the
    cylinder of slot k to a⊗(k|x)."""
    child = cylinder_complex(t.children[k - 1])
    K = wreath_complex([child if i == k else lambda_cell(c)
                        for i, c in enumerate(t.children, start=1)])
    slots = lambda_cell(t).parts
    left, right, cross = cyl.parts
    units = cyl.units
    images = [None] * len(K.diff)
    for p, x in enumerate(K.parts[0]):
        images[x] = units[left[p] if p < k else right[p]]
    for i in range(1, len(K.parts)):
        if i != k:
            lane = left if i < k else right
            for x, y in enumerate(K.parts[i]):
                images[y] = units[lane[slots[i][x]]]
    # an end copy of an object of the child picks up a crossing
    objects = lambda_cell(t.children[k - 1]).start[1]
    slot, copies = slots[k], K.parts[k]
    for lane, child_lane, crossing in zip((left, right, cross), child.parts,
                                          (cross[k], cross[k - 1], None)):
        for x, z in enumerate(child_lane):
            y = lane[slot[x]]
            images[copies[z]] = (units[y] if crossing is None or x >= objects
                                 else tuple(sorted([(y, 1), (crossing, 1)])))
    return DAMorphism(K, cyl, tuple(images))


def m_end_leg(t: ThetaCell, m: ShuffleColumn, eps: int) -> DAMorphism:
    """lambda(T) -> the complex of the column m = M_k, the end-eps inclusion
    on the k-th slot."""
    k = m.index
    legs = [[(i, endpoint_inclusion(c, eps) if i == k else lambda_map(theta_identity(c)))]
            for i, c in enumerate(t.children, start=1)]
    return wreath_map(lambda_cell(t), m.embed.source, range(t.width + 1), legs)


def _o_leg(t: ThetaCell, j: int, k: int, tgt: DAComplex, ids: list) -> DAMorphism:
    """lambda(T) -> tgt, the complex of o_cell(t, j): lambda of the face d^k
    that skips the unit slot j+1, built from positions.  Each slot keeps its
    child by the identity (its lambda map in ids) into the slot it copies,
    and the slot sent over two segments reaches the other one, the unit, by
    bang."""
    objects = tuple(range(k)) + tuple(range(k + 1, t.width + 2))
    legs = []
    for i, (c, same) in enumerate(zip(t.children, ids), start=1):
        copy = i if i <= j else i + 1
        legs.append([(s, same if s == copy else lambda_map(bang(c)))
                     for s in range(objects[i - 1] + 1, objects[i] + 1)])
    return wreath_map(lambda_cell(t), tgt, objects, legs)


@lru_cache(maxsize=None)
def lax_shuffle_diagram(t: ThetaCell) -> tuple[ShuffleColumn, ...]:
    """The columns O_0, M_1, O_1, ..., M_n, O_n of the lax shuffle
    decomposition of [1]⊗T, in that order: O_j sits at 2j, M_k at 2k-1.

    Memoised per cell, unbounded, as cylinder_complex is: every caller gets
    the same tuple, which is shared and read-only.  Every column embedding
    is validated as a chain map when the diagram is built, so once per cell
    in the process.
    """
    cyl = cylinder_complex(t)
    columns = []
    for j in range(t.width + 1):
        if j:
            columns.append(ShuffleColumn("M", j, _m_embedding(t, j, cyl)))
        columns.append(ShuffleColumn("O", j, _o_embedding(t, j, cyl)))
    for c in columns:
        c.embed.validate()
    return tuple(columns)


def _spans(t: ThetaCell, columns):
    """(k, position, O column, M_k, leg into O, leg into M_k) per span of the
    decomposition: at each M_k an "upper" span on the O_{k-1} side and a
    "lower" one on the O_k side.  The leg into O_j is the face d^k of that
    cell that drops its unit slot j+1."""
    ids = [lambda_map(theta_identity(c)) for c in t.children]
    for k in range(1, t.width + 1):
        m = columns[2 * k - 1]
        for position, j, eps in (("upper", k - 1, 1), ("lower", k, 0)):
            o = columns[2 * j]
            yield k, position, o, m, _o_leg(t, j, k, o.embed.source, ids), m_end_leg(t, m, eps)


def shuffle_dot(t: ThetaCell) -> str:
    """The columns of the decomposition as nodes n0..n2n in column order,
    and each span as a box with edges to its O column and its M column."""
    lines = ["digraph shuffle {", "  rankdir=TB;"]
    for j in range(t.width + 1):
        if j:
            kids = [str(c) for c in t.children]
            kids[j - 1] = "[1]" if t.children[j - 1].width == 0 else f"[1]⊗{kids[j - 1]}"
            lines.append(f'  n{2 * j - 1} [label="[{t.width}](' + ",".join(kids) + ')"];')
        lines.append(f'  n{2 * j} [label="{o_cell(t, j)}"];')
    for k in range(1, t.width + 1):
        for position, o in (("upper", 2 * k - 2), ("lower", 2 * k)):
            sid = f"s_{k}_{position}"
            lines.append(f'  {sid} [label="{t}", shape=box];')
            lines.append(f"  {sid} -> n{o};")
            lines.append(f"  {sid} -> n{2 * k - 1};")
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# gluing verification
# ---------------------------------------------------------------------------

def _injective(rows, width: int) -> bool:
    return intlin.rank(rows, width) == len(rows)


def _covers(rows, K: DAComplex) -> dict:
    """Per degree d of K, keyed by str(d) as the report prints it, do the
    rows span that degree's lattice?  Each row lies in one degree, so one
    echelon holds every degree's pivots."""
    pivots = intlin.pivots(rows, len(K.diff))
    return {str(d): all(pivots.get(x) == 1 for x in K.positions(d))
            for d in range(K.top_degree + 1)}


def _meet_in(a, b, m, width: int) -> bool:
    """Do the lattices of a and b meet exactly in that of m?  Each of the
    meet and m contains the other."""
    meet = intlin.intersection(a, b, width)
    return intlin.contains(meet, m, width) and intlin.contains(m, meet, width)


def verify_gluing(t: ThetaCell) -> tuple[bool, dict]:
    """(ok, data): monomorphism, coverage and pullback checks for the
    shuffle pieces, data being the report the CLI prints."""
    columns = lax_shuffle_diagram(t)
    cyl = cylinder_complex(t)
    width = len(cyl.diff)
    monos = {c.name: _injective(c.embed.images, width) for c in columns}
    coverage = _covers([row for c in columns for row in c.embed.images], cyl)
    spans = []
    for level, position, col_o, col_m, leg_o, leg_m in _spans(t, columns):
        via_o = leg_o.then(col_o.embed)
        spans.append({
            "level": level, "position": position,
            "commutes": morphisms_agree(via_o, leg_m.then(col_m.embed)),
            # the span maps injectively onto the intersection of its columns
            "pullback": (_meet_in(col_o.embed.images, col_m.embed.images, via_o.images, width)
                         and _injective(via_o.images, width))})
    ok = (all(monos.values()) and all(coverage.values())
          and all(s["commutes"] and s["pullback"] for s in spans))
    return ok, {"cell": str(t), "monos": monos, "coverage": coverage, "spans": spans,
                "overall": ok}


# ---------------------------------------------------------------------------
# globular-sum preservation
# ---------------------------------------------------------------------------

def verify_globular_preservation(t: ThetaCell) -> tuple[bool, bool]:
    """(ok, ok): do the cylinders over the leaf globes cover the cylinder
    and meet exactly in the cylinders over the meet globes?  The CLI prints
    the verdict itself."""
    leaves, meets = globular_sum(t)
    cyl = cylinder_complex(t)
    pieces = [cylinder_map(f).images for _, f in leaves]
    ok = (all(_covers([row for piece in pieces for row in piece], cyl).values())
          and all(_meet_in(pieces[g], pieces[g + 1], cylinder_map(f).images, len(cyl.diff))
                  for g, (_, f) in enumerate(meets)))
    return ok, ok


# ---------------------------------------------------------------------------
# hyperface cylinders
# ---------------------------------------------------------------------------

def _factors_through(src_col: ShuffleColumn, tgt_cols, steiner: DAMorphism) -> bool:
    """Does the cylinder map send the column into the lattice of the target
    columns?"""
    return intlin.contains([row for c in tgt_cols for row in c.embed.images],
                           src_col.embed.then(steiner).images, len(steiner.target.diff))


def _face_table(f: ThetaMap) -> tuple:
    """(legs, unit): per source segment of the face f, the pairs (j, lambda
    map of its map into segment j), and the lambda map of the identity of
    [0], for the unit slot of an O column.  Every column map of the face
    reads this one table, and each distinct map is looked up once per face."""
    unit = theta_identity(POINT)
    lams = {g: lambda_map(g) for g in {unit}.union([g for leg in f.legs for _, g in leg])}
    return [[(j, lams[g]) for j, g in leg] for leg in f.legs], lams[unit]


def _face_between_o_cells(f: ThetaMap, table: tuple, src, tgt, js: int,
                          jt: int) -> DAMorphism:
    """The map O_js(source) -> O_jt(target) induced by the face, between the
    columns of the shuffle diagrams src and tgt: f with the shuffle unit slot
    inserted at source position js+1 and target position jt+1 (requires
    f.image[js] == jt).  Vertices after js and segments after the unit slot
    move up by one, and the unit slot goes to the unit slot by the identity
    of [0]."""
    image = f.image
    if image[js] != jt:
        raise ValueError("unit slots are not aligned")
    legs, unit = table
    return wreath_map(src[2 * js].embed.source, tgt[2 * jt].embed.source,
                      image[:js + 1] + tuple([v + 1 for v in image[js:]]),
                      legs[:js] + [[(jt + 1, unit)]]
                      + [[(j + 1, m) for j, m in leg] for leg in legs[js:]])


def _face_between_m_columns(f: ThetaMap, table: tuple, src, tgt, i: int,
                            i2: int) -> DAMorphism:
    """The map M_i(source) -> M_i2(target) induced by the face, between the
    columns of the shuffle diagrams src and tgt: the table's lambda maps,
    and on the cylinder slot i the interval tensored with the one of its
    map."""
    legs = list(table[0])
    if any(j != i2 for j, _ in legs[i - 1]):
        raise ValueError("cylinder slot must map to the cylinder slot")
    child = cylinder_complex(f.source.children[i - 1])
    legs[i - 1] = [(j, _interval_tensor(m, child, cylinder_complex(f.target.children[j - 1])))
                   for j, m in legs[i - 1]]
    return wreath_map(src[2 * i - 1].embed.source, tgt[2 * i2 - 1].embed.source, f.image, legs)


def _column_maps(f: ThetaMap, src, tgt):
    """(source column, target column, column map) per source column of the
    cylinder over f: O_j goes to O_f(j), and M_i to the column over the
    segment its leg covers.  An M_i over two segments {k, k+1} (the inner
    face's own column) has no column map: it is claimed to factor through
    the target columns [M_k, O_k, M_{k+1}], and its map is None.  Every map
    reads one table of the face's lambda maps."""
    table = _face_table(f)
    for j, jt in enumerate(f.image):
        yield src[2 * j], tgt[2 * jt], _face_between_o_cells(f, table, src, tgt, j, jt)
    for i, leg in enumerate(f.legs, start=1):
        k = leg[0][0]
        if len(leg) == 1:
            yield (src[2 * i - 1], tgt[2 * k - 1],
                   _face_between_m_columns(f, table, src, tgt, i, k))
        else:
            yield src[2 * i - 1], tgt[2 * k - 1:2 * k + 2], None


def hyperface_cylinder(face: Hyperface) -> tuple[bool, list]:
    """(ok, results): check the shuffle-diagram description of the cylinder
    over a face against the cylinder map [1]⊗f of the face, one result per
    source column."""
    f = face.map
    src = lax_shuffle_diagram(f.source)
    tgt = lax_shuffle_diagram(f.target)
    steiner = cylinder_map(f)
    results = []
    for col_s, col_t, m in _column_maps(f, src, tgt):
        if m is None:
            ok, mode = _factors_through(col_s, col_t, steiner), "span"
        else:
            ok, mode = composites_agree(col_s.embed, steiner, m, col_t.embed), "exact"
        results.append({"column": col_s.name, "mode": mode, "ok": ok})
    return all(r["ok"] for r in results), results
