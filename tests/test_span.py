import copy
from collections import Counter

import pytest

from graycyl.dac import DAMorphism, MorphismError, lambda_cell
from graycyl.gray import H, L, R, cylinder_complex
from graycyl.nu import (OmegaFunctor, TableError, check_entrywise_functors,
                        check_functors, nu_boundary, nu_functor, nu_identity)
from graycyl.span import (build_span, mirror_name, shift_map,
                          shift_target_cell, span_dot, split_map, verify_span)
from graycyl.theta import cell, cells_up_to, cells_with_nodes, coface, parse_cell


def swapped_ends(q: DAMorphism) -> DAMorphism:
    """q with the two objects of its target exchanged: not a chain map."""
    ends = {("o", 0): ("o", 1), ("o", 1): ("o", 0)}
    return DAMorphism(q.source, q.target,
                      {g: {ends.get(h, h): c for h, c in img.items()}
                       for g, img in q.images.items()})


class TestSplitMap:
    def test_threshold_one_on_three(self):
        assert split_map(3, 1).image == (0, 1, 1, 1)

    def test_threshold_zero_is_constant_one(self):
        for n in range(5):
            assert split_map(n, 0).image == (1,) * (n + 1)

    def test_top_threshold_is_constant_zero(self):
        assert split_map(2, 3).image == (0, 0, 0)

    def test_coface_identities(self):
        for n in range(5):
            for k in range(n + 2):
                lhs = split_map(n + 1, k)
                assert coface(n + 1, k).then(split_map(n + 2, k)) == lhs
                assert coface(n + 1, k).then(split_map(n + 2, k + 1)) == lhs

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            split_map(2, 4)


class TestShiftMap:
    def test_point_is_identity_shaped(self):
        t = parse_cell("[0]")
        q = shift_map(t)
        assert q.images[("t", H, ("o", 0))] == {("s", 1, ("o", 0)): 1}

    def test_mirror_names(self):
        t = parse_cell("[2]([1],[0])")
        assert mirror_name(t, ("o", 0)) == ("o", 2)
        assert mirror_name(t, ("s", 1, ("o", 0))) == ("s", 2, ("o", 1))
        assert mirror_name(t, ("s", 2, ("o", 0))) == ("s", 1, ("o", 0))
        assert shift_target_cell(t) == cell(1, parse_cell("[2]([0],[1])"))

    def test_is_chain_map_on_corpus(self):
        for s in ("[1]", "[2]", "[1]([1])", "[1]([2])", "[2]([1],[0])"):
            shift_map(parse_cell(s)).validate()

    def test_unmirrored_assignment_fails(self):
        # sending h(x)x to the suspension of x itself breaks the chain rule
        t = cell(2)
        cyl = cylinder_complex(t)
        tgt = lambda_cell(cell(1, t))
        K = lambda_cell(t)
        images = {}
        for row in cyl.degrees:
            for g in row:
                _, a, x = g
                if a == H:
                    images[g] = {("s", 1, x): 1}
                elif K.degree_of(x) > 0:
                    images[g] = {}
                else:
                    images[g] = {("o", 0 if a == L else 1): 1}
        bad = DAMorphism(cyl, tgt, images)
        with pytest.raises(MorphismError):
            bad.validate()


class TestVerifySpan:
    def test_simplicial_cases(self):
        for n in range(5):
            assert verify_span(cell(n) if n else parse_cell("[0]")).passed

    def test_general_cases(self):
        for s in ("[1]([1])", "[2]([1],[0])", "[1]([2])"):
            assert verify_span(parse_cell(s)).passed

    def test_corpus_up_to_six_nodes(self):
        for t in cells_up_to(6):
            budget = min(t.dimension() + 1, 4)
            assert verify_span(t, max_dim=budget).passed, str(t)

    def test_corpus_of_seven_nodes(self):
        cells = cells_with_nodes(7)
        assert len(cells) == 132
        for t in cells:
            assert verify_span(t, max_dim=min(t.dimension() + 1, 4)).passed, str(t)

    def test_kappa_object_bijection(self):
        t = parse_cell("[2]([1],[0])")
        b = build_span(t)
        images = {tuple(leg(c) for leg in b.kappa) for c in b.cyl_view.cells(0)}
        assert len(images) == len(b.cyl_view.cells(0))
        assert len(images) == 2 * (t.width + 1)

    def test_mutated_sigma_fails(self):
        with pytest.raises(MorphismError):
            swapped_ends(build_span(cell(2)).q).validate()

    def test_image_violation_is_reported(self):
        t = cell(2)
        b = build_span(t)
        b.sigma = nu_functor(swapped_ends(b.q), b.cyl_view.max_dim, source_view=b.cyl_view)
        rep = verify_span(t, bundle=b)
        assert not rep.passed and not rep.kappa_functor
        assert rep.sigma_functor and rep.sigma_functor[0][0] == "image"
        assert rep.to_json()["sigma_functor_violations"] == len(rep.sigma_functor)

    def test_image_error_names_the_source_cell(self):
        b = build_span(cell(1))
        F = nu_functor(swapped_ends(b.q), b.cyl_view.max_dim, source_view=b.cyl_view)
        named = []
        for layer in b.cyl_view.layers:
            for c in layer:
                try:
                    F(c)
                except TableError as exc:
                    named.append((str(exc), b.cyl_view.text(c)))
        assert named
        assert all(msg == f"image table is not a cell of the target: {text}"
                   for msg, text in named)

    def test_functor_checks_run(self):
        b = build_span(parse_cell("[1]([1])"))
        for leg in b.kappa:
            assert not check_functors((leg,), b.cyl_view.max_dim)[0]
        assert not check_functors((b.sigma,), b.cyl_view.max_dim)[0]

    def test_coefficient_two_is_an_image_violation(self):
        b = build_span(cell(1))
        doubled = DAMorphism(b.q.source, b.q.target,
                             {g: {h: 2 * c for h, c in img.items()}
                              for g, img in b.q.images.items()})
        F = nu_functor(doubled, b.cyl_view.max_dim, source_view=b.cyl_view)
        report = check_entrywise_functors((F,))[0]
        assert report and {v[0] for v in report} == {"image"}
        with pytest.raises(TableError):
            check_functors((F,), b.cyl_view.max_dim)

    def test_broken_kappa_leg_fails(self):
        t = parse_cell("[1]([1])")
        b = build_span(t)
        to_cell = b.kappa[1]
        swap = dict(zip(to_cell.target_view.cells(0), reversed(to_cell.target_view.cells(0))))
        bad = OmegaFunctor(to_cell.source_view, to_cell.target_view,
                           lambda c: swap.get(to_cell(c), to_cell(c)))
        b.kappa = (b.kappa[0], bad)
        assert not verify_span(t, bundle=b).passed

    def test_swapped_sigma_fails_every_square(self):
        t = parse_cell("[2]([1],[0])")
        b = build_span(t)
        b.q = swapped_ends(b.q)
        rep = verify_span(t, bundle=b)
        assert rep.sigma_columns and not any(ok for _, ok in rep.sigma_columns)
        assert not rep.diamonds["sigma_e0"] and not rep.diamonds["sigma_e1"]
        assert all(ok for _, ok in rep.kappa_columns)
        assert rep.diamonds["kappa_e0"] and rep.diamonds["kappa_e1"]

    def test_swapped_kappa_fails_every_square(self):
        t = parse_cell("[2]([1],[0])")
        b = build_span(t)
        ends = {L: R, R: L}
        b.p1 = DAMorphism(b.p1.source, b.p1.target,
                          {g: {ends.get(h, h): c for h, c in img.items()}
                           for g, img in b.p1.images.items()})
        rep = verify_span(t, bundle=b)
        assert rep.kappa_columns and not any(ok for _, ok in rep.kappa_columns)
        assert not rep.diamonds["kappa_e0"] and not rep.diamonds["kappa_e1"]
        assert all(ok for _, ok in rep.sigma_columns)
        assert rep.diamonds["sigma_e0"] and rep.diamonds["sigma_e1"]

    def test_dot_colors(self):
        dot = span_dot(cell(1))
        assert "color=green" in dot and "color=red" not in dot


class TestEntrywiseCheck:
    """check_entrywise_functors against the all-pairs oracle check_functors."""

    @staticmethod
    def both(b):
        Fs = (*b.kappa, b.sigma)
        new = check_entrywise_functors(Fs)
        try:
            old = check_functors(Fs, b.cyl_view.max_dim)
        except TableError:
            old = None
        return new, old

    def test_same_violations_up_to_six_nodes(self):
        for t in cells_up_to(6):
            b = build_span(t, max_dim=min(t.dimension() + 1, 4))
            new, old = self.both(b)
            assert old is not None, str(t)
            assert [Counter(r) for r in new] == [Counter(r) for r in old], str(t)

    @pytest.mark.parametrize("text", ["[1]", "[2]", "[1]([1])"])
    def test_oracle_raises_exactly_on_image_violations(self, text):
        t = parse_cell(text)
        b = build_span(t)
        assert self.both(b)[1] is not None
        b.sigma = nu_functor(swapped_ends(b.q), b.cyl_view.max_dim, source_view=b.cyl_view)
        new, old = self.both(b)
        assert old is None
        assert any(v[0] == "image" for v in new[2])
        assert not new[0] and not new[1]

    def test_preservation_violations_match_oracle(self):
        t = parse_cell("[1]([1])")
        b = build_span(t)
        to_cell = b.kappa[1]
        objects = to_cell.target_view.cells(0)
        swap = dict(zip(objects, reversed(objects)))
        bad = OmegaFunctor(to_cell.source_view, to_cell.target_view,
                           lambda c: swap.get(to_cell(c), to_cell(c)))
        new = check_entrywise_functors((bad,))[0]
        old = check_functors((bad,), b.cyl_view.max_dim)[0]
        assert new and Counter(new) == Counter(old)

    def test_one_source_view_required(self):
        F = build_span(cell(1)).sigma
        G = build_span(cell(1)).sigma
        with pytest.raises(ValueError):
            check_entrywise_functors([F, G])


class TestEntrywisePass:
    """How check_entrywise_functors applies its functors, and what it reports
    against a target view that lacks a cell."""

    def test_one_application_per_source_cell(self):
        for text in ("[2]", "[1]([1])", "[2]([1],[0])"):
            b = build_span(parse_cell(text))
            cells = Counter(c for layer in b.cyl_view.layers for c in layer)
            calls = [Counter() for _ in range(3)]

            def counting(F, seen):
                def apply(c):
                    seen[c] += 1
                    return F(c)
                return OmegaFunctor(F.source_view, F.target_view, apply)

            Fs = [counting(F, n) for F, n in zip((*b.kappa, b.sigma), calls)]
            assert check_entrywise_functors(Fs) == [[], [], []]
            assert calls == [cells] * 3, text

    def test_incomplete_target_layer_is_reported(self):
        b = build_span(parse_cell("[1]([1])"))
        full = b.sigma
        broken = copy.copy(full.target_view)
        broken.layers = [set(layer) for layer in broken.layers]
        victim = nu_identity(full(b.cyl_view.cells(0)[0]))
        broken.layers[1].remove(victim)
        F = nu_functor(b.q, b.cyl_view.max_dim, source_view=b.cyl_view, target_view=broken)

        def missing(x):
            return x not in broken.layers[len(x) - 1]

        top = b.cyl_view.max_dim
        want = []
        for d, layer in enumerate(b.cyl_view.layers):
            for c in layer:
                if missing(full(c)):
                    want.append(("image", d, c))
                    continue
                if d:
                    src_c, tgt_c = nu_boundary(c)
                    if missing(full(src_c)):
                        want.append(("source", d, c))
                    if missing(full(tgt_c)):
                        want.append(("target", d, c))
                if d < top and missing(full(nu_identity(c))):
                    want.append(("identity", d, c))
        assert {v[0] for v in want} == {"image", "source", "target", "identity"}
        assert check_entrywise_functors((F,)) == [want]
