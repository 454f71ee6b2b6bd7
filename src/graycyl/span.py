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

from .dac import DAMorphism, lambda_cell, lambda_map, morphisms_agree, wreath_morphism
from .gray import (cylinder_complex, endpoint_inclusion, interval,
                   lax_shuffle_diagram, o_cell)
from .theta import (POINT, SimplicialMap, ThetaCell, bang, cell, coface,
                    codegeneracy, mirror, segment_map, simplicial_identity,
                    theta_identity, theta_morphism, vertex)


def split_map(n: int, j: int) -> SimplicialMap:
    """[n] -> [1]: vertices below j to 0, the rest to 1."""
    if not 0 <= j <= n + 1:
        raise ValueError("threshold out of range")
    return SimplicialMap(n, 1, tuple(0 if i < j else 1 for i in range(n + 1)))


def mirror_positions(t: ThetaCell) -> tuple:
    """By position in lambda(t), the position of the generator of
    lambda(mirror t) that matches it under the reversal: o_p goes to
    o_{n-p}, and i|x to (n+1-i)|x' for the mirror x' of x."""
    K, M = lambda_cell(t), lambda_cell(mirror(t))
    n = t.width
    out = [None] * len(K.diff)
    for p, x in enumerate(K.parts[0]):
        out[x] = M.parts[0][n - p]
    for i, c in enumerate(t.children, start=1):
        inner, slot = mirror_positions(c), M.parts[n + 1 - i]
        for x, y in enumerate(K.parts[i]):
            out[y] = slot[inner[x]]
    return tuple(out)


def projection_to_interval(t: ThetaCell) -> DAMorphism:
    """cyl(T) -> lambda([1]): kill everything with a positive cell factor.
    The parts of the cylinder are its lanes over the interval's positions,
    which are those of the objects o0, o1 and the edge of lambda([1])."""
    cyl, tgt = cylinder_complex(t), lambda_cell(cell(1))
    objects = lambda_cell(t).start[1]
    images = [None] * len(cyl.diff)
    for a, lane in enumerate(cyl.parts):
        for x, y in enumerate(lane):
            images[y] = tgt.units[a] if x < objects else ()
    return DAMorphism(cyl, tgt, tuple(images))


def projection_to_cell(t: ThetaCell) -> DAMorphism:
    """cyl(T) -> lambda(T): kill everything with a positive interval factor."""
    cyl, K = cylinder_complex(t), lambda_cell(t)
    ends = interval().start[1]
    images = [None] * len(cyl.diff)
    for a, lane in enumerate(cyl.parts):
        for x, y in enumerate(lane):
            images[y] = K.units[x] if a < ends else ()
    return DAMorphism(cyl, K, tuple(images))


def shift_target_cell(t: ThetaCell) -> ThetaCell:
    return ThetaCell((mirror(t),))


def shift_map(t: ThetaCell) -> DAMorphism:
    """cyl(T) -> lambda([1];(mirror T)): ends collapse to the two objects,
    h⊗x goes to the suspended mirror of x."""
    cyl = cylinder_complex(t)
    tgt = lambda_cell(shift_target_cell(t))
    objects = lambda_cell(t).start[1]
    left, right, cross = cyl.parts
    images = [None] * len(cyl.diff)
    for end, lane in zip(tgt.parts[0], (left, right)):
        for x, y in enumerate(lane):
            images[y] = tgt.units[end] if x < objects else ()
    for x, y in zip(mirror_positions(t), cross):
        images[y] = tgt.units[tgt.parts[1][x]]
    return DAMorphism(cyl, tgt, tuple(images))


# ---------------------------------------------------------------------------
# the expected column maps of the defining diagram
# ---------------------------------------------------------------------------

def kappa_column_expectations(t: ThetaCell):
    """(column, expected p1 composite, expected p2 composite) triples."""
    out = []
    n = t.width
    for c in lax_shuffle_diagram(t):
        if c.kind == "O":
            j = c.index
            oc = o_cell(t, j)
            collapse = theta_morphism(
                oc, cell(1), split_map(n + 1, j + 1),
                {(j + 1, 1): theta_identity(POINT)})
            to_t = theta_morphism(
                oc, t, codegeneracy(n + 1, j),
                {(i, i if i <= j else i - 1): theta_identity(oc.children[i - 1])
                 for i in range(1, n + 2) if i != j + 1})
            out.append((c, lambda_map(collapse), lambda_map(to_t)))
        else:
            k = c.index
            child = t.children[k - 1]
            collapse = projection_to_cell(child).then(lambda_map(bang(child)))
            p1_exp = wreath_morphism(c.embed.source, lambda_cell(cell(1)),
                                     split_map(n, k), {(k, 1): collapse})
            comps = {(i, i): lambda_map(theta_identity(cc)) if i != k
                     else projection_to_cell(cc)
                     for i, cc in enumerate(t.children, start=1)}
            p2_exp = wreath_morphism(c.embed.source, lambda_cell(t),
                                     simplicial_identity(n), comps)
            out.append((c, p1_exp, p2_exp))
    return out


def sigma_column_expectations(t: ThetaCell):
    """(column, expected sigma composite) pairs.  O_j collapses to the
    suspended vertex n-j of the mirrored cell; M_k maps through the child's
    shift into the suspended slot n+1-k of the mirrored cell."""
    n = t.width
    mt = mirror(t)
    shift = shift_target_cell(t)
    tgt = lambda_cell(shift)
    out = []
    for c in lax_shuffle_diagram(t):
        if c.kind == "O":
            j = c.index
            collapse = theta_morphism(o_cell(t, j), shift, split_map(n + 1, j + 1),
                                      {(j + 1, 1): vertex(mt, n - j)})
            out.append((c, lambda_map(collapse)))
        else:
            k = c.index
            mirrored = mt.children[n - k]        # mirror of the k-th child
            slot = segment_map(mt, n + 1 - k, theta_identity(mirrored))
            into_slot = shift_map(t.children[k - 1]).then(lambda_map(slot))
            out.append((c, wreath_morphism(c.embed.source, tgt, split_map(n, k),
                                           {(k, 1): into_slot})))
    return out


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

class SpanReport:
    __slots__ = ("cell", "kappa_functor", "sigma_functor", "kappa_columns",
                 "sigma_columns", "diamonds", "split_identities")

    def __init__(self, cell: ThetaCell, kappa_functor: list, sigma_functor: list,
                 split_identities: bool):
        self.cell = cell
        self.kappa_functor = kappa_functor      # (kind, g) of p1, then p2
        self.sigma_functor = sigma_functor      # (kind, g) of q
        self.kappa_columns: list = []
        self.sigma_columns: list = []
        self.diamonds: dict = {}
        self.split_identities = split_identities

    @property
    def passed(self) -> bool:
        return (not self.kappa_functor and not self.sigma_functor
                and all(ok for _, ok in self.kappa_columns)
                and all(ok for _, ok in self.sigma_columns)
                and all(self.diamonds.values()) and self.split_identities)

    def to_json(self):
        return {
            "cell": str(self.cell),
            "kappa_functor_violations": len(self.kappa_functor),
            "sigma_functor_violations": len(self.sigma_functor),
            "kappa_columns": {k: v for k, v in self.kappa_columns},
            "sigma_columns": {k: v for k, v in self.sigma_columns},
            "diamonds": self.diamonds,
            "split_identities": self.split_identities,
            "passed": self.passed,
        }


def verify_span(t: ThetaCell) -> SpanReport:
    return _span_report(t, projection_to_interval(t), projection_to_cell(t), shift_map(t))


def _span_report(t: ThetaCell, p1: DAMorphism, p2: DAMorphism,
                 q: DAMorphism) -> SpanReport:
    """The report on the span with legs p1, p2 (kappa) and q (sigma).  A
    leg that is not a morphism of augmented directed complexes is recorded
    by its violations, not raised."""
    report = SpanReport(t, p1.violations() + p2.violations(), q.violations(),
                        _split_identities())

    for col, p1_exp, p2_exp in kappa_column_expectations(t):
        ok = (morphisms_agree(col.embed.then(p1), p1_exp)
              and morphisms_agree(col.embed.then(p2), p2_exp))
        report.kappa_columns.append((col.name, ok))
    for col, q_exp in sigma_column_expectations(t):
        report.sigma_columns.append((col.name, morphisms_agree(col.embed.then(q), q_exp)))

    # folding diamonds: each end of the cylinder goes to that end of the
    # interval and of the shift, and identically to the cell
    for eps in (0, 1):
        e = endpoint_inclusion(t, eps)
        p1_exp = lambda_map(bang(t).then(vertex(cell(1), eps)))
        q_exp = lambda_map(bang(t).then(vertex(shift_target_cell(t), eps)))
        report.diamonds[f"kappa_e{eps}"] = (
            morphisms_agree(e.then(p1), p1_exp)
            and morphisms_agree(e.then(p2), lambda_map(theta_identity(t))))
        report.diamonds[f"sigma_e{eps}"] = morphisms_agree(e.then(q), q_exp)
    return report


@cache
def _split_identities() -> bool:
    """The split-map identities from the square sorts.  They do not depend
    on the cell, so they are checked once per process."""
    ok = True
    for n in range(5):
        for k in range(n + 2):
            lhs = split_map(n + 1, k)
            if coface(n + 1, k).then(split_map(n + 2, k)) != lhs:
                ok = False
            if coface(n + 1, k).then(split_map(n + 2, k + 1)) != lhs:
                ok = False
    return ok


def span_dot(t: ThetaCell) -> str:
    """The span diagram with pass/fail coloring per column square."""
    rep = verify_span(t)
    lines = ["digraph span {", "  rankdir=LR;",
             f'  cyl [label="[1]⊗{t}"];',
             f'  cart [label="[1]×{t}"];',
             f'  shift [label="[1];({mirror(t)})"];',
             "  cyl -> cart [label=kappa];",
             "  cyl -> shift [label=sigma];"]
    for name, ok in rep.kappa_columns:
        color = "green" if ok else "red"
        lines.append(f'  k_{name} [label="kappa {name}", color={color}];')
    for name, ok in rep.sigma_columns:
        color = "green" if ok else "red"
        lines.append(f'  s_{name} [label="sigma {name}", color={color}];')
    lines.append("}")
    return "\n".join(lines)
