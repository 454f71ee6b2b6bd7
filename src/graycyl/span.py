"""The span from the cylinder to the cartesian cylinder and the shift.

kappa projects tables entrywise to the two tensor factors and lands in the
product [1]×T of the cell [1] with the cell T.  It is kept as its two
projections, since a map into a product is a functor exactly when both
projections are; the first lands in lambda([1]).
sigma collapses the two ends and sends every crossing generator h⊗x to the
suspension of the mirrored x; its codomain is the suspension of the
left-right mirror of the cell (for the left-right symmetric cells of the
acceptance corpus this is the suspension of the cell itself).

Both are nu of morphisms of augmented directed complexes p1, p2 and q, and
are checked there: each leg is checked to be a chain map that is
nonnegative and keeps degrees and the augmentation.  nu is a functor from
augmented directed complexes to strict omega-categories (Steiner,
"Omega-categories and chain complexes", HHA 6, 2004), so a leg that passes
is an omega-functor between the table categories, and no table is built.
"""

from __future__ import annotations

from functools import cache

from .dac import DAComplex, DAMorphism, lambda_cell, lambda_map, morphisms_agree, wreath_map
from .gray import cylinder_complex, endpoint_inclusion, interval, lax_shuffle_diagram
from .theta import POINT, ThetaCell, cell, coface, fold, theta_identity


def split_map(n: int, j: int) -> tuple:
    """The vertex images of [n] -> [1]: vertices below j to 0, the rest
    to 1."""
    if not 0 <= j <= n + 1:
        raise ValueError("threshold out of range")
    return tuple(0 if i < j else 1 for i in range(n + 1))


def mirror_positions(t: ThetaCell) -> tuple:
    """(mt, table): the mirror mt of t, and by position in lambda(t) the
    position of the generator of lambda(mt) that matches it under the
    reversal: o_p goes to o_{n-p}, and i|x to (n+1-i)|x' for the mirror x'
    of x.  Both come from one fold over the distinct subtrees of t."""
    mt, table = fold(t, _mirror_table, {})
    return mt, tuple(table)


def _mirror_table(u: ThetaCell, below: dict) -> tuple:
    """(mirror of u, its table), given those of u's children in below: child
    i of u goes with child n+1-i of the mirror, over the parts of lambda(u)
    and of lambda of the mirror."""
    n = u.width
    mu = ThetaCell(tuple([below[c][0] for c in reversed(u.children)]))
    K, M = lambda_cell(u), lambda_cell(mu)
    out = [None] * len(K.diff)
    for p, x in enumerate(K.parts[0]):
        out[x] = M.parts[0][n - p]
    for i, c in enumerate(u.children, start=1):
        inner, slot = below[c][1], M.parts[n + 1 - i]
        for x, y in enumerate(K.parts[i]):
            out[y] = slot[inner[x]]
    return mu, out


def _ends_to(t: ThetaCell, tgt: DAComplex, ends, cross=()) -> DAMorphism:
    """cyl(T) -> tgt: a⊗x goes to the generator ends[a] of tgt for x an
    object of T (to 0 where ends[a] is None), h⊗x to the generator cross[x]
    where cross is given, and every other generator to 0."""
    cyl = cylinder_complex(t)
    objects = lambda_cell(t).start[1]
    units = tgt.units
    images = [()] * len(cyl.diff)
    for lane, end in zip(cyl.parts, ends):
        if end is not None:
            for y in lane[:objects]:
                images[y] = units[end]
    for y, z in zip(cyl.parts[2], cross):
        images[y] = units[z]
    return DAMorphism(cyl, tgt, tuple(images))


def projection_to_interval(t: ThetaCell) -> DAMorphism:
    """cyl(T) -> lambda([1]): kill everything with a positive cell factor.
    The parts of the cylinder are its lanes over the interval's positions,
    which are those of the objects o0, o1 and the edge of lambda([1])."""
    return _ends_to(t, lambda_cell(cell(1)), (0, 1, 2))


def projection_to_cell(t: ThetaCell) -> DAMorphism:
    """cyl(T) -> lambda(T): kill everything with a positive interval factor."""
    cyl, K = cylinder_complex(t), lambda_cell(t)
    ends = interval().start[1]
    images = [None] * len(cyl.diff)
    for a, lane in enumerate(cyl.parts):
        for x, y in enumerate(lane):
            images[y] = K.units[x] if a < ends else ()
    return DAMorphism(cyl, K, tuple(images))


def shift_map(t: ThetaCell, mt: ThetaCell, mirrored: tuple) -> DAMorphism:
    """cyl(T) -> lambda([1];(mt)), where (mt, mirrored) is
    mirror_positions(t): ends collapse to the two objects, h⊗x goes to the
    suspended mirror of x, read from mirrored."""
    tgt = lambda_cell(ThetaCell((mt,)))
    slot = tgt.parts[1]
    return _ends_to(t, tgt, (*tgt.parts[0], None), [slot[x] for x in mirrored])


# ---------------------------------------------------------------------------
# the expected column maps of the defining diagram, built from positions
# ---------------------------------------------------------------------------

def _through(src: DAComplex, tgt: DAComplex, s: int, leg: DAMorphism) -> DAMorphism:
    """The wreath map from src, the complex of a cell of width n, to tgt,
    that of a cell [1];(A): the objects before s go to o0 and the rest to
    o1, segment s goes over the one segment by the child map leg into
    lambda(A), and every other segment collapses."""
    width = len(src.parts) - 1
    legs = [[]] * width
    legs[s - 1] = [(1, leg)]
    return wreath_map(src, tgt, (0,) * s + (1,) * (width + 1 - s), legs)


def _constant(src: DAComplex, tgt: DAComplex, p: int) -> DAMorphism:
    """The wreath map that sends every object of src to the object p of tgt
    and every other generator to 0: lambda of S -> [0] -> T at vertex p."""
    return wreath_map(src, tgt, (p,) * len(src.parts[0]), [[]] * (len(src.parts) - 1))


def _codegeneracy(src: DAComplex, tgt: DAComplex, j: int, ids: list) -> DAMorphism:
    """lambda of the codegeneracy s^j from o_cell(T, j), whose complex is
    src, onto T, whose complex is tgt: the vertices after j move down by
    one, the unit slot j+1 collapses, and the slots around it copy the
    slots of T by the legs ids, the children's identities."""
    return wreath_map(src, tgt, tuple(range(j + 1)) + tuple(range(j, len(ids) + 1)),
                      ids[:j] + [[]] + ids[j:])


def kappa_column_expectations(t: ThetaCell):
    """(column, expected p1 composite, expected p2 composite) triples.  O_j
    goes over the edge of [1] through its unit slot j+1, and onto T by the
    codegeneracy s^j.  M_k goes over the edge through its cylinder slot k,
    whose child collapses onto the point, and onto T by the identity, with
    the cylinder slot projected to the child."""
    edge, K = lambda_cell(cell(1)), lambda_cell(t)
    unit = lambda_map(theta_identity(POINT))
    ids = [[(i, lambda_map(theta_identity(c)))] for i, c in enumerate(t.children, start=1)]
    out = []
    for c in lax_shuffle_diagram(t):
        src, k = c.embed.source, c.index
        if c.kind == "O":
            out.append((c, _through(src, edge, k + 1, unit), _codegeneracy(src, K, k, ids)))
        else:
            child = t.children[k - 1]
            legs = list(ids)
            legs[k - 1] = [(k, projection_to_cell(child))]
            collapse = _ends_to(child, lambda_cell(POINT), (0, 0, None))
            out.append((c, _through(src, edge, k, collapse),
                        wreath_map(src, K, range(t.width + 1), legs)))
    return out


def sigma_column_expectations(t: ThetaCell, mt: ThetaCell, mirrored: tuple):
    """(column, expected sigma composite) pairs.  O_j goes over the edge of
    the shift through its unit slot j+1, onto the object n-j of the mirrored
    cell mt.  M_k goes over it through its cylinder slot k: the ends of the
    child go to the objects n-k and n+1-k of mt, and its crossing generators
    into the slot n+1-k, read from t's mirror table mirrored, where
    (mt, mirrored) is mirror_positions(t)."""
    n = t.width
    tgt = lambda_cell(ThetaCell((mt,)))
    M, K, point = lambda_cell(mt), lambda_cell(t), lambda_cell(POINT)
    out = []
    for c in lax_shuffle_diagram(t):
        src, k = c.embed.source, c.index
        if c.kind == "O":
            leg = _constant(point, M, n - k)
            out.append((c, _through(src, tgt, k + 1, leg)))
        else:
            leg = _ends_to(t.children[k - 1], M, (M.parts[0][n - k], M.parts[0][n + 1 - k], None),
                           [mirrored[y] for y in K.parts[k]])
            out.append((c, _through(src, tgt, k, leg)))
    return out


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def verify_span(t: ThetaCell) -> tuple[bool, dict]:
    """(ok, data) of the span on t, data being the report the CLI prints;
    the sigma side reads one mirror of t."""
    return _span_of(t, *mirror_positions(t))


def _span_of(t: ThetaCell, mt: ThetaCell, mirrored: tuple) -> tuple[bool, dict]:
    """The span report on t's own legs, where (mt, mirrored) is
    mirror_positions(t)."""
    return _span_report(t, projection_to_interval(t), projection_to_cell(t),
                        shift_map(t, mt, mirrored), mt, mirrored)


def _span_report(t: ThetaCell, p1: DAMorphism, p2: DAMorphism, q: DAMorphism,
                 mt: ThetaCell, mirrored: tuple) -> tuple[bool, dict]:
    """(ok, data) of the span with legs p1, p2 (kappa) and q (sigma), where
    (mt, mirrored) is mirror_positions(t).  A leg that is not a morphism of
    augmented directed complexes is counted by its violations, not
    raised."""
    kappa_functor = len(p1.violations()) + len(p2.violations())
    sigma_functor = len(q.violations())
    split_identities = _split_identities()
    kappa_columns = {col.name: (morphisms_agree(col.embed.then(p1), p1_exp)
                                and morphisms_agree(col.embed.then(p2), p2_exp))
                     for col, p1_exp, p2_exp in kappa_column_expectations(t)}
    sigma_columns = {col.name: morphisms_agree(col.embed.then(q), q_exp)
                     for col, q_exp in sigma_column_expectations(t, mt, mirrored)}

    # folding diamonds: each end of the cylinder goes to that end of the
    # interval and of the shift, and identically to the cell
    K = lambda_cell(t)
    edge, shift = lambda_cell(cell(1)), lambda_cell(ThetaCell((mt,)))
    diamonds = {}
    for eps in (0, 1):
        e = endpoint_inclusion(t, eps)
        diamonds[f"kappa_e{eps}"] = (
            morphisms_agree(e.then(p1), _constant(K, edge, eps))
            and morphisms_agree(e.then(p2), lambda_map(theta_identity(t))))
        diamonds[f"sigma_e{eps}"] = morphisms_agree(e.then(q), _constant(K, shift, eps))

    ok = (not kappa_functor and not sigma_functor and all(kappa_columns.values())
          and all(sigma_columns.values()) and all(diamonds.values()) and split_identities)
    return ok, {"cell": str(t), "kappa_functor_violations": kappa_functor,
                "sigma_functor_violations": sigma_functor, "kappa_columns": kappa_columns,
                "sigma_columns": sigma_columns, "diamonds": diamonds,
                "split_identities": split_identities, "passed": ok}


@cache
def _split_identities() -> bool:
    """The split-map identities from the square sorts.  They do not depend
    on the cell, so they are checked once per process."""
    ok = True
    for n in range(5):
        for k in range(n + 2):
            lhs = split_map(n + 1, k)
            for j in (k, k + 1):
                split = split_map(n + 2, j)
                if tuple([split[v] for v in coface(n + 1, k)]) != lhs:
                    ok = False
    return ok


def span_dot(t: ThetaCell) -> str:
    """The span diagram with pass/fail coloring per column square."""
    mt, mirrored = mirror_positions(t)
    _, data = _span_of(t, mt, mirrored)
    lines = ["digraph span {", "  rankdir=LR;",
             f'  cyl [label="[1]⊗{t}"];',
             f'  cart [label="[1]×{t}"];',
             f'  shift [label="[1];({mt})"];',
             "  cyl -> cart [label=kappa];",
             "  cyl -> shift [label=sigma];"]
    for name, ok in data["kappa_columns"].items():
        color = "green" if ok else "red"
        lines.append(f'  k_{name} [label="kappa {name}", color={color}];')
    for name, ok in data["sigma_columns"].items():
        color = "green" if ok else "red"
        lines.append(f'  s_{name} [label="sigma {name}", color={color}];')
    lines.append("}")
    return "\n".join(lines)
