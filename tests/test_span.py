import pytest

from graycyl.dac import DAMorphism, MorphismError, lambda_cell
from graycyl.gray import H, L, cylinder_complex
from graycyl.nu import OmegaFunctor, check_functors
from graycyl.span import (build_span, mirror_name, shift_map,
                          shift_target_cell, span_dot, split_map, verify_span)
from graycyl.theta import cell, coface, parse_cell


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
        from graycyl.theta import cells_up_to
        for t in cells_up_to(6):
            budget = min(t.dimension() + 1, 4)
            assert verify_span(t, max_dim=budget).passed, str(t)

    def test_kappa_object_bijection(self):
        t = parse_cell("[2]([1],[0])")
        b = build_span(t)
        images = {tuple(leg(c) for leg in b.kappa) for c in b.cyl_view.cells(0)}
        assert len(images) == len(b.cyl_view.cells(0))
        assert len(images) == 2 * (t.width + 1)

    def test_mutated_sigma_fails(self):
        t = cell(2)
        b = build_span(t)
        q = b.q
        swapped = {}
        for g, img in q.images.items():
            out = {}
            for h, c in img.items():
                if h == ("o", 0):
                    out[("o", 1)] = c
                elif h == ("o", 1):
                    out[("o", 0)] = c
                else:
                    out[h] = c
            swapped[g] = out
        bad = DAMorphism(q.source, q.target, swapped)
        with pytest.raises(MorphismError):
            bad.validate()

    def test_functor_checks_run(self):
        b = build_span(parse_cell("[1]([1])"))
        for leg in b.kappa:
            assert not check_functors((leg,), b.max_dim)[0]
        assert not check_functors((b.sigma,), b.max_dim)[0]

    def test_broken_kappa_leg_fails(self):
        t = parse_cell("[1]([1])")
        b = build_span(t)
        to_cell = b.kappa[1]
        swap = dict(zip(to_cell.target_view.cells(0), reversed(to_cell.target_view.cells(0))))
        bad = OmegaFunctor(to_cell.source_view, to_cell.target_view,
                           lambda c: swap.get(to_cell(c), to_cell(c)))
        b.kappa = (b.kappa[0], bad)
        assert not verify_span(t, bundle=b).passed

    def test_dot_colors(self):
        dot = span_dot(cell(1))
        assert "color=green" in dot and "color=red" not in dot
