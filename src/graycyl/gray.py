"""The Gray cylinder over a cell and its decompositions.

The cylinder is computed as the table category of the tensor of the
interval complex with the cell's complex.  The shuffle decomposition, the
gluing checks, globular-sum preservation and the hyperface formulas are
verified degree-wise with exact integer linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from . import intlin
from .dac import (DAComplex, DAMorphism, identity_morphism, lambda_cell,
                  lambda_globe, lambda_map, tensor, wreath_complex,
                  wreath_morphism)
from .nu import DEFAULT_CEILING, NuView, nu_functor
from .theta import (POINT, Hyperface, SimplicialMap, ThetaCell, ThetaMorphism,
                    bang, cell, coface, gamma_image, globular_sum,
                    leaf_inclusion, meet_inclusion, simplicial_identity,
                    theta_identity, theta_morphism)

L, R, H = "b0", "t0", "v1"          # interval complex generators


@lru_cache(maxsize=1)
def interval() -> DAComplex:
    """The interval complex, built once: the result is shared and read-only."""
    return lambda_globe(1)


@lru_cache(maxsize=4)
def cylinder_complex(t: ThetaCell) -> DAComplex:
    """The complex of [1]⊗T.  Memoised per cell: the result is shared and
    read-only."""
    return tensor(interval(), lambda_cell(t))


def cylinder_map(f: ThetaMorphism) -> DAMorphism:
    """[1]⊗f: the identity of the interval tensored with lambda(f), between
    the memoised cylinders of f's source and target."""
    lam = lambda_map(f)
    src = cylinder_complex(f.source)
    images = {}
    for row in src.degrees:
        for name in row:
            _, a, g = name
            images[name] = {("t", a, h): c for h, c in lam.images[g].items()}
    return DAMorphism(src, cylinder_complex(f.target), images)


def gray_cylinder(t: ThetaCell, max_dim: int | None = None,
                  ceiling: int = DEFAULT_CEILING) -> NuView:
    if max_dim is None:
        max_dim = t.dimension() + 1
    return NuView(cylinder_complex(t), max_dim, ceiling)


def endpoint_inclusion(t: ThetaCell, eps: int) -> DAMorphism:
    """The complex-level end inclusion at vertex eps."""
    K = lambda_cell(t)
    cyl = cylinder_complex(t)
    end = L if eps == 0 else R
    return DAMorphism(K, cyl, {g: {("t", end, g): 1} for row in K.degrees for g in row})


def endpoints(t: ThetaCell, max_dim: int | None = None,
              source_view: NuView | None = None,
              target_view: NuView | None = None):
    if max_dim is None:
        max_dim = t.dimension() + 1
    src = source_view or NuView(lambda_cell(t), max_dim)
    tgt = target_view or gray_cylinder(t, max_dim)
    e0 = nu_functor(endpoint_inclusion(t, 0), max_dim, source_view=src, target_view=tgt)
    e1 = nu_functor(endpoint_inclusion(t, 1), max_dim, source_view=src, target_view=tgt)
    return e0, e1


# ---------------------------------------------------------------------------
# the lax shuffle decomposition
# ---------------------------------------------------------------------------

def o_cell(t: ThetaCell, j: int) -> ThetaCell:
    """[n+1];(A_1..A_j, [0], A_{j+1}..A_n)."""
    return ThetaCell(t.children[:j] + (POINT,) + t.children[j:])


@dataclass(frozen=True)
class ShuffleColumn:
    kind: str                 # "O" or "M"
    index: int
    complex: DAComplex
    embed: DAMorphism         # into the cylinder complex
    cell: ThetaCell | None    # O columns are honest cells
    parent: ThetaCell | None = None

    @property
    def display(self) -> str:
        if self.cell is not None:
            return str(self.cell)
        k, t = self.index, self.parent
        child = t.children[k - 1]
        if child == POINT:
            return str(ThetaCell(t.children[:k - 1] + (cell(1),) + t.children[k:]))
        kids = [str(c) for c in t.children]
        kids[k - 1] = f"[1]⊗{child}"
        return f"[{t.width}](" + ",".join(kids) + ")"


@dataclass(frozen=True)
class ShuffleSpan:
    level: int                # k, 1-based
    position: str             # "upper" (O_{k-1} side) or "lower" (O_k side)
    o_index: int              # column index of the O object
    m_index: int              # column index of M_k
    leg_o: DAMorphism         # lambda(T) -> O column complex
    leg_m: DAMorphism         # lambda(T) -> M column complex


@dataclass(frozen=True)
class ShuffleDiagram:
    cell: ThetaCell
    cyl: DAComplex
    columns: list
    spans: list

    def column(self, kind: str, index: int) -> ShuffleColumn:
        for c in self.columns:
            if c.kind == kind and c.index == index:
                return c
        raise KeyError((kind, index))


def _o_embedding(t: ThetaCell, j: int, cyl: DAComplex) -> DAMorphism:
    oc = o_cell(t, j)
    K = lambda_cell(oc)
    images = {}
    for p in range(oc.width + 1):
        if p <= j:
            images[("o", p)] = {("t", L, ("o", p)): 1}
        else:
            images[("o", p)] = {("t", R, ("o", p - 1)): 1}
    for d in range(1, K.top_degree + 1):
        for g in K.basis(d):
            _, i, sub = g
            if i <= j:
                images[g] = {("t", L, ("s", i, sub)): 1}
            elif i == j + 1:
                images[g] = {("t", H, ("o", j)): 1}
            else:
                images[g] = {("t", R, ("s", i - 1, sub)): 1}
    return DAMorphism(K, cyl, images).validate()


def _m_complex(t: ThetaCell, k: int) -> DAComplex:
    kids = [cylinder_complex(c) if i == k else lambda_cell(c)
            for i, c in enumerate(t.children, start=1)]
    return wreath_complex(kids)


def _m_embedding(t: ThetaCell, k: int, cyl: DAComplex) -> DAMorphism:
    K = _m_complex(t, k)
    child = lambda_cell(t.children[k - 1])
    images = {}
    for p in range(t.width + 1):
        side = L if p < k else R
        images[("o", p)] = {("t", side, ("o", p)): 1}
    for d in range(1, K.top_degree + 1):
        for g in K.basis(d):
            _, i, sub = g
            if i < k:
                images[g] = {("t", L, ("s", i, sub)): 1}
            elif i > k:
                images[g] = {("t", R, ("s", i, sub)): 1}
            else:
                _, a, x = sub
                if a == H:
                    images[g] = {("t", H, ("s", k, x)): 1}
                elif a == L:
                    img = {("t", L, ("s", k, x)): 1}
                    if child.degree_of(x) == 0:
                        img[("t", H, ("o", k))] = 1
                    images[g] = img
                else:
                    img = {("t", R, ("s", k, x)): 1}
                    if child.degree_of(x) == 0:
                        img[("t", H, ("o", k - 1))] = 1
                    images[g] = img
    return DAMorphism(K, cyl, images).validate()


def m_end_leg(t: ThetaCell, k: int, eps: int) -> DAMorphism:
    """lambda(T) -> M_k complex, the end-eps inclusion on the k-th slot."""
    comps = {(i, i): endpoint_inclusion(c, eps) if i == k else identity_morphism(lambda_cell(c))
             for i, c in enumerate(t.children, start=1)}
    return wreath_morphism(lambda_cell(t), _m_complex(t, k), simplicial_identity(t.width), comps)


def o_leg(t: ThetaCell, k: int, variant: str) -> ThetaMorphism:
    """d^k;(...,(!,id),...) into O_{k-1} (variant "before") or
    d^k;(...,(id,!),...) into O_k (variant "after")."""
    j = k - 1 if variant == "before" else k
    target = o_cell(t, j)
    comp_map = {}
    for i in range(1, t.width + 1):
        if i < k:
            comp_map[(i, i)] = theta_identity(t.children[i - 1])
        elif i == k:
            if variant == "before":
                comp_map[(k, k)] = bang(t.children[k - 1])
                comp_map[(k, k + 1)] = theta_identity(t.children[k - 1])
            else:
                comp_map[(k, k)] = theta_identity(t.children[k - 1])
                comp_map[(k, k + 1)] = bang(t.children[k - 1])
        else:
            comp_map[(i, i + 1)] = theta_identity(t.children[i - 1])
    return theta_morphism(t, target, coface(t.width, k), comp_map)


@lru_cache(maxsize=4)
def lax_shuffle_diagram(t: ThetaCell) -> ShuffleDiagram:
    """The columns and spans of the lax shuffle decomposition of [1]⊗T.

    Memoised per cell: every caller gets the same diagram, which is shared
    and read-only.
    """
    cyl = cylinder_complex(t)
    if t.width == 0:
        one = cell(1)
        K = lambda_cell(one)
        embed = DAMorphism(K, cyl, {
            ("o", 0): {("t", L, ("o", 0)): 1},
            ("o", 1): {("t", R, ("o", 0)): 1},
            ("s", 1, ("o", 0)): {("t", H, ("o", 0)): 1},
        }).validate()
        return ShuffleDiagram(t, cyl, [ShuffleColumn("O", 0, K, embed, one)], [])
    # column order O_0, M_1, O_1, ..., M_n, O_n: O_j sits at 2j, M_k at 2k-1
    columns = []
    for j in range(t.width + 1):
        if j:
            columns.append(ShuffleColumn("M", j, _m_complex(t, j),
                                         _m_embedding(t, j, cyl), None, t))
        columns.append(ShuffleColumn("O", j, lambda_cell(o_cell(t, j)),
                                     _o_embedding(t, j, cyl), o_cell(t, j)))
    spans = []
    for k in range(1, t.width + 1):
        spans.append(ShuffleSpan(k, "upper", 2 * k - 2, 2 * k - 1,
                                 lambda_map(o_leg(t, k, "before")), m_end_leg(t, k, 1)))
        spans.append(ShuffleSpan(k, "lower", 2 * k, 2 * k - 1,
                                 lambda_map(o_leg(t, k, "after")), m_end_leg(t, k, 0)))
    return ShuffleDiagram(t, cyl, columns, spans)


def shuffle_dot(t: ThetaCell) -> str:
    diag = lax_shuffle_diagram(t)
    lines = ["digraph shuffle {", "  rankdir=TB;"]
    for i, c in enumerate(diag.columns):
        lines.append(f'  n{i} [label="{c.display}"];')
    for s in diag.spans:
        sid = f"s_{s.level}_{s.position}"
        lines.append(f'  {sid} [label="{t}", shape=box];')
        lines.append(f"  {sid} -> n{s.o_index};")
        lines.append(f"  {sid} -> n{s.m_index};")
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# gluing verification
# ---------------------------------------------------------------------------

def _image_rows(embed: DAMorphism, degree: int, basis_index: dict):
    rows = []
    for g in embed.source.basis(degree):
        vec = [0] * len(basis_index)
        for h, c in embed.images[g].items():
            vec[basis_index[h]] = c
        rows.append(tuple(vec))
    return rows


@dataclass
class GluingReport:
    cell: ThetaCell
    monos: dict = field(default_factory=dict)
    coverage: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    @property
    def overall(self) -> bool:
        return (all(self.monos.values()) and all(self.coverage.values())
                and all(s["commutes"] and s["pullback"] for s in self.spans))

    def to_json(self):
        return {
            "cell": str(self.cell),
            "monos": {k: v for k, v in sorted(self.monos.items())},
            "coverage": {str(d): v for d, v in sorted(self.coverage.items())},
            "spans": self.spans,
            "overall": self.overall,
        }


def verify_gluing(t: ThetaCell) -> GluingReport:
    """Monomorphism, coverage and pullback checks for the shuffle pieces."""
    diag = lax_shuffle_diagram(t)
    report = GluingReport(t)
    cyl = diag.cyl
    bases = {d: {g: i for i, g in enumerate(cyl.basis(d))} for d in range(cyl.top_degree + 1)}

    for c in diag.columns:
        ok = True
        for d in range(c.complex.top_degree + 1):
            rows = _image_rows(c.embed, d, bases[d])
            if intlin.rank(rows, len(bases[d])) != len(rows):
                ok = False
        report.monos[f"{c.kind}{c.index}"] = ok

    for d in range(cyl.top_degree + 1):
        rows = []
        for c in diag.columns:
            rows.extend(_image_rows(c.embed, d, bases[d]))
        report.coverage[d] = intlin.spans_all(rows, len(bases[d]))

    span_complex = lambda_cell(t)
    for s in diag.spans:
        col_o = diag.columns[s.o_index]
        col_m = diag.columns[s.m_index]
        via_o = s.leg_o.then(col_o.embed)
        via_m = s.leg_m.then(col_m.embed)
        commutes = all(via_o.images[g] == via_m.images[g]
                       for row in span_complex.degrees for g in row)
        pullback = True
        for d in range(cyl.top_degree + 1):
            width = len(bases[d])
            inter = intlin.intersection(_image_rows(col_o.embed, d, bases[d]),
                                        _image_rows(col_m.embed, d, bases[d]), width)
            expected = _image_rows(via_o, d, bases[d])
            if not intlin.same_subgroup(inter, expected, width):
                pullback = False
            # injectivity of the span object into the intersection
            if intlin.rank(expected, width) != len(expected):
                pullback = False
        report.spans.append({"level": s.level, "position": s.position,
                             "commutes": commutes, "pullback": pullback})
    return report


# ---------------------------------------------------------------------------
# globular-sum preservation
# ---------------------------------------------------------------------------

def verify_globular_preservation(t: ThetaCell) -> bool:
    """Cylinders over the leaf globes cover the cylinder and meet exactly
    in the cylinders over the meet globes."""
    dec = globular_sum(t)
    cyl = cylinder_complex(t)
    bases = {d: {g: i for i, g in enumerate(cyl.basis(d))} for d in range(cyl.top_degree + 1)}
    pieces = [cylinder_map(leaf_inclusion(t, i)) for i in range(len(dec.leaf_dims))]
    meets = [cylinder_map(meet_inclusion(t, g)) for g in range(len(dec.meet_dims))]

    for d in range(cyl.top_degree + 1):
        rows = []
        for p in pieces:
            rows.extend(_image_rows(p, d, bases[d]))
        if not intlin.spans_all(rows, len(bases[d])):
            return False

    for g, m in enumerate(meets):
        a, b = pieces[g], pieces[g + 1]
        for d in range(cyl.top_degree + 1):
            width = len(bases[d])
            inter = intlin.intersection(_image_rows(a, d, bases[d]),
                                        _image_rows(b, d, bases[d]), width)
            expected = _image_rows(m, d, bases[d])
            if not intlin.same_subgroup(inter, expected, width):
                return False
    return True


# ---------------------------------------------------------------------------
# hyperface cylinders
# ---------------------------------------------------------------------------

@dataclass
class HyperfaceCylinderReport:
    face: Hyperface
    column_results: list
    agree: bool
    steiner: DAMorphism


def _column_map_matches(src_col: ShuffleColumn, tgt_col: ShuffleColumn,
                        col_map: DAMorphism, steiner: DAMorphism) -> bool:
    via_diagram = col_map.then(tgt_col.embed)
    via_steiner = src_col.embed.then(steiner)
    return all(via_diagram.images[g] == via_steiner.images[g]
               for row in src_col.complex.degrees for g in row)


def _factors_through(src_col: ShuffleColumn, tgt_cols, steiner: DAMorphism,
                     cyl_tgt: DAComplex) -> bool:
    via_steiner = src_col.embed.then(steiner)
    bases = {d: {g: i for i, g in enumerate(cyl_tgt.basis(d))}
             for d in range(cyl_tgt.top_degree + 1)}
    for d in range(src_col.complex.top_degree + 1):
        width = len(bases[d])
        rows = []
        for c in tgt_cols:
            rows.extend(_image_rows(c.embed, d, bases[d]))
        h = intlin.hnf(rows, width)
        for g in src_col.complex.basis(d):
            vec = [0] * width
            for hname, cc in via_steiner.images[g].items():
                vec[bases[d][hname]] = cc
            if not intlin.in_span(h, tuple(vec)):
                return False
    return True


def _vertical_column_maps(face: Hyperface, src: ShuffleDiagram, tgt: ShuffleDiagram):
    """(src column, tgt column, map, mode) for a vertical face."""
    t_src = face.map.source
    k = face.position[0]
    nu_child = face.map.component(k, k)
    out = []
    for j in range(t_src.width + 1):
        col_s = src.column("O", j)
        col_t = tgt.column("O", j)
        slot = k if k <= j else k + 1
        comp_map = {(i, i): theta_identity(col_s.cell.children[i - 1])
                    for i in range(1, col_s.cell.width + 1)}
        comp_map[(slot, slot)] = nu_child
        m = theta_morphism(col_s.cell, col_t.cell,
                           simplicial_identity(col_s.cell.width), comp_map)
        out.append((col_s, col_t, lambda_map(m), "exact"))
    for i in range(1, t_src.width + 1):
        col_s = src.column("M", i)
        col_t = tgt.column("M", i)
        comps = {}
        for q, c in enumerate(t_src.children, start=1):
            if q == i:
                comps[(q, q)] = cylinder_map(nu_child if q == k else theta_identity(c))
            elif q == k:
                comps[(q, q)] = lambda_map(nu_child)
            else:
                comps[(q, q)] = identity_morphism(lambda_cell(c))
        m = wreath_morphism(col_s.complex, col_t.complex,
                            simplicial_identity(t_src.width), comps)
        out.append((col_s, col_t, m, "exact"))
    return out


def _shift_column_maps(face: Hyperface, src: ShuffleDiagram, tgt: ShuffleDiagram):
    """Column maps for outer and inner horizontal faces.

    Exact triples for all columns except the inner face's own cylinder
    column, which is claimed to factor through the three adjacent target
    columns (the product-rule object of the inner-face diagram).
    """
    t_src = face.map.source
    n = t_src.width
    k = face.position[0] if face.kind == "inner" else None
    out = []
    for j in range(n + 1):
        col_s = src.column("O", j)
        if face.kind == "outer":
            jt = j + 1 if face.position[0] == 0 else j
        else:
            jt = j if j < k else j + 1
        col_t = tgt.column("O", jt)
        m = _face_between_o_cells(face.map, j, jt)
        out.append((col_s, col_t, lambda_map(m), "exact"))
    for i in range(1, n + 1):
        col_s = src.column("M", i)
        if face.kind == "outer":
            i2 = i + 1 if face.position[0] == 0 else i
        elif i != k:
            i2 = i if i < k else i + 1
        else:
            claimed = [tgt.column("M", k), tgt.column("O", k), tgt.column("M", k + 1)]
            out.append((col_s, claimed, None, "span"))
            continue
        out.append((col_s, tgt.column("M", i2),
                    _face_between_m_columns(face.map, src, tgt, i, i2), "exact"))
    return out


def _face_between_o_cells(f: ThetaMorphism, js: int, jt: int) -> ThetaMorphism:
    """The face with the shuffle unit slot inserted at source position
    js+1 and target position jt+1 (requires f.base(js) == jt)."""
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
                comp_map[(i, jj)] = f.component(i0, j0)
    return theta_morphism(src_cell, tgt_cell, base, comp_map)


def _face_between_m_columns(f: ThetaMorphism, src: ShuffleDiagram, tgt: ShuffleDiagram,
                            i: int, i2: int) -> DAMorphism:
    """Wreath morphism M_i(source) -> M_{i2}(target) induced by the face."""
    col_s = src.column("M", i)
    col_t = tgt.column("M", i2)
    fimg = gamma_image(f.base)
    comps = {}
    for q in range(1, f.source.width + 1):
        for jj in fimg[q]:
            if q == i:
                if jj != i2:
                    raise ValueError("cylinder slot must map to the cylinder slot")
                comps[(q, jj)] = cylinder_map(f.component(q, jj))
            else:
                comps[(q, jj)] = lambda_map(f.component(q, jj))
    return wreath_morphism(col_s.complex, col_t.complex, f.base, comps)


def hyperface_cylinder(face: Hyperface) -> HyperfaceCylinderReport:
    """Check the shuffle-diagram description of the cylinder over a face
    against the cylinder map [1]⊗f of the face."""
    if face.kind not in ("vertical", "outer", "inner"):
        raise ValueError(f"not a hyperface kind: {face.kind!r}")
    t_src, t_tgt = face.map.source, face.map.target
    src = lax_shuffle_diagram(t_src)
    tgt = lax_shuffle_diagram(t_tgt)
    steiner = cylinder_map(face.map)
    results = []
    if face.kind == "vertical":
        triples = _vertical_column_maps(face, src, tgt)
    else:
        triples = _shift_column_maps(face, src, tgt)
    for item in triples:
        col_s, col_t, m, mode = item
        if mode == "exact":
            ok = _column_map_matches(col_s, col_t, m, steiner)
            results.append({"column": f"{col_s.kind}{col_s.index}", "mode": "exact", "ok": ok})
        else:
            ok = _factors_through(col_s, col_t, steiner, tgt.cyl)
            results.append({"column": f"{col_s.kind}{col_s.index}", "mode": "span", "ok": ok})
    return HyperfaceCylinderReport(face, results, all(r["ok"] for r in results), steiner)
