import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graycyl.gray import gray_cylinder
from graycyl.pr import (EMPTY, POINT_EXPR, _hom, _objects, _pairs, hom_cell, pr, pr_count,
                        pr_hom, pr_objects, product)
from graycyl.theta import cells_up_to, parse_cell

from oracles import expression_text, names_of


ONE = parse_cell("[1]")
TWO = parse_cell("[2]")


class TestObjects:
    def test_single_interval(self):
        objs = pr_objects([ONE])
        assert objs == {(lv, (z,)) for lv in (0, 1) for z in (0, 1)}

    def test_two_intervals(self):
        objs = pr_objects([ONE, ONE])
        assert len(objs) == 3 * 2 * 2

    def test_empty_family(self):
        assert pr_objects([]) == {(0, ())}

    def test_count_formula(self):
        for cells in ([TWO], [ONE, TWO], [ONE, ONE, ONE]):
            want = (len(cells) + 1)
            for c in cells:
                want *= c.width + 1
            assert len(pr_objects(cells)) == want
            assert pr_count(pr(cells), 0) == want


class TestHom:
    def test_crossing_bottom_segment(self):
        h = pr_hom([TWO], (0, (0,)), (1, (1,)))
        assert h == pr([parse_cell("[0]")])
        assert pr_count(h, 0) == 2 and pr_count(h, 1) == 3

    def test_crossing_top_segment(self):
        h = pr_hom([TWO], (0, (1,)), (1, (2,)))
        assert h == pr([parse_cell("[0]")])

    def test_crossing_both_segments(self):
        h = pr_hom([TWO], (0, (0,)), (1, (2,)))
        assert h == pr([parse_cell("[0]"), parse_cell("[0]")])
        assert pr_count(h, 0) == 3

    def test_reversed_levels_empty(self):
        assert pr_hom([TWO], (1, (0,)), (0, (1,))) is EMPTY

    def test_reversed_coordinates_empty(self):
        assert pr_hom([TWO], (0, (2,)), (1, (0,))) is EMPTY
        assert pr_hom([ONE, ONE], (0, (1, 0)), (2, (0, 1))) is EMPTY

    def test_same_level_is_cell_hom(self):
        t = parse_cell("[2]([1],[0])")
        h = pr_hom([t], (0, (0,)), (0, (2,)))
        assert h == hom_cell(t, 0, 2)
        assert h == ("cell", parse_cell("[1]"))

    def test_product_over_crossed_cells(self):
        h = pr_hom([ONE, ONE], (0, (0, 0)), (2, (1, 1)))
        assert h == ("*", (pr([parse_cell("[0]")]), pr([parse_cell("[0]")])))
        assert pr_count(h, 0) == 4


class TestExpressions:
    def test_point_conventions(self):
        assert pr([]) is POINT_EXPR
        assert product([]) is POINT_EXPR
        assert product([POINT_EXPR, POINT_EXPR]) is POINT_EXPR

    def test_empty_absorbs(self):
        assert product([("cell", ONE), EMPTY]) is EMPTY

    def test_pretty_printer(self):
        e = product([("cell", TWO), pr([ONE, TWO])])
        assert expression_text(e) == "[2]*PR([1],[2])"
        assert expression_text(POINT_EXPR) == "x" and expression_text(EMPTY) == "0"


class TestCounting:
    def test_interval_counts(self):
        assert [pr_count([parse_cell("[0]")], d) for d in range(4)] == [2, 3, 3, 3]

    def test_square_counts(self):
        assert pr_count([ONE], 0) == 4
        assert pr_count([ONE], 1) == 10

    def test_units_and_unknown_expressions(self):
        assert [pr_count(EMPTY, d) for d in range(3)] == [0, 0, 0]
        assert [pr_count(POINT_EXPR, d) for d in range(3)] == [1, 1, 1]
        with pytest.raises(TypeError):
            pr_count(("nosuch", ONE), 0)

    def test_no_cells_below_dimension_zero(self):
        for cells in ([ONE], [TWO], []):
            assert pr_count(cells, -1) == pr_count(cells, -3) == 0
        assert pr_count(POINT_EXPR, -1) == pr_count(EMPTY, -1) == 0

    def test_theta_count_matches_nu(self):
        from graycyl.dac import lambda_cell
        from graycyl.nu import NuView
        for s in ("[0]", "[1]", "[2]", "[1]([1])", "[2]([1],[0])"):
            t = parse_cell(s)
            view = NuView(lambda_cell(t), 3)
            for d in range(4):
                assert pr_count(("cell", t), d) == len(view.layers[d])

    def test_cross_oracle_small(self):
        for s in ("[1]", "[2]", "[1]([1])"):
            t = parse_cell(s)
            view = gray_cylinder(t)
            for d in range(view.max_dim + 1):
                assert pr_count([t], d) == len(view.layers[d])

    def test_cross_oracle_globes(self):
        for s in ("G2", "G3", "G4"):
            t = parse_cell(s)
            view = gray_cylinder(t)
            for d in range(view.max_dim + 1):
                assert pr_count([t], d) == len(view.layers[d]), (s, d)

    def test_cross_oracle_five_node_corpus(self):
        from graycyl.theta import cells_up_to
        for t in cells_up_to(5):
            view = gray_cylinder(t)
            for d in range(view.max_dim + 1):
                assert pr_count([t], d) == len(view.layers[d]), (str(t), d)

    @given(st.sampled_from(cells_up_to(7)))
    @settings(max_examples=30, deadline=None)
    def test_cross_oracle_up_to_seven_nodes(self, t):
        view = gray_cylinder(t, t.dimension() + 1)
        assert view.counts() == tuple(pr_count([t], d) for d in range(view.max_dim + 1))

    def test_concatenation_against_hom_restriction(self):
        # PR([1],[1]) is the top hom of the cylinder over [2]([1],[1])
        t = parse_cell("[2]([1],[1])")
        view = gray_cylinder(t, 4)
        lo = [("t", "b0", ("o", 0))]
        hi = [("t", "t0", ("o", 2))]
        K = view.complex
        expr = pr([ONE, ONE])
        for d in range(4):
            restricted = sum(
                1 for c in view.layers[d + 1]
                if names_of(K, c[0][0]) == lo and names_of(K, c[0][1]) == hi)
            assert pr_count(expr, d) == restricted

    def test_monotone_emptiness(self):
        t = parse_cell("[2]")
        for src in sorted(pr_objects([t])):
            for tgt in sorted(pr_objects([t])):
                dec_level = src[0] > tgt[0]
                dec_coord = any(a > b for a, b in zip(src[1], tgt[1]))
                h = pr_hom([t], src, tgt)
                assert (h is EMPTY) == (dec_level or dec_coord)


    def test_counted_pairs_are_the_nonempty_homs(self):
        # _count reads the homs over _pairs only, so those must be every
        # pair of objects whose hom is not EMPTY
        for t in cells_up_to(5):
            for expr in (("cell", t), pr([t]), pr([t, ONE])):
                objs = _objects(expr)
                nonempty = {(x, y) for x in objs for y in objs if _hom(expr, x, y) is not EMPTY}
                assert len(_pairs(expr)) == len(nonempty)
                assert set(_pairs(expr)) == nonempty


class TestPinnedCounts:
    # every count of two corpora, one "cells d count" line each, pinned by
    # digest: a change to how expressions are held must keep them all

    def test_every_cell_up_to_six_nodes(self):
        text = "".join(f"{t} {d} {pr_count([t], d)}\n" for t in cells_up_to(6) for d in range(5))
        assert text.count("\n") == 65 * 5
        assert text.startswith("[0] 0 2\n[0] 1 3\n[0] 2 3\n")
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
            "17a231a7484e12a9a19663e8e1ae726a43828a70ef7966fa12013238dad19277"

    def test_every_pair_up_to_four_and_three_nodes(self):
        text = "".join(f"{s} {u} {d} {pr_count([s, u], d)}\n"
                       for s in cells_up_to(4) for u in cells_up_to(3) for d in range(4))
        assert text.count("\n") == 9 * 4 * 4
        assert text.endswith("[3] [2] 0 36\n[3] [2] 1 600\n[3] [2] 2 1065\n[3] [2] 3 1065\n")
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
            "615f9bf95b163b1c26f150063da619d3da84981199d6bcf94057d7eb1c8f2d31"
