import json
from collections import Counter

import pytest

from graycyl import dac, nu
from graycyl.cli import _dump_pieces
from graycyl.dac import DAComplex, lambda_cell, lambda_globe, lambda_map, render_name, tensor
from graycyl.gray import cylinder_complex
from graycyl.nu import (EnumerationError, NuView, TableError, enumerate_cells,
                        nu_boundary, nu_identity)
from graycyl.theta import cell, cells_up_to, hyperfaces, parse_cell, theta_identity

from oracles import (OmegaFunctor, augmentations, boundaries, check_functors,
                     close_all_pairs, degrees, identity_morphism, make_cell, named_complex,
                     named_morphism, names_of, nu_composable, nu_compose, nu_functor,
                     position, search_tables, simplicial_coface, theta_morphism)


def atom_cell(K, g) -> tuple:
    a = K.atoms[position(K, g)]
    assert a is not None
    return make_cell(K, [tuple(dict.fromkeys(names_of(K, x), 1) for x in pair) for pair in a])


def entry(K, c, k, eps) -> dict:
    """Entry (k, eps) of the cell c of nu(K), as an element."""
    return dict.fromkeys(names_of(K, c[k][eps]), 1)


IV = lambda_globe(1)
SQ = tensor(IV, IV)  # the cylinder complex over the interval


def sq(a, b):
    return ("t", a, b)


class TestBoundary:
    def test_interval_top(self):
        c = atom_cell(IV, "v1")
        src, tgt = nu_boundary(c)
        assert src == atom_cell(IV, "b0")
        assert tgt == atom_cell(IV, "t0")

    def test_identity_boundary(self):
        c = atom_cell(IV, "v1")
        assert nu_boundary(nu_identity(c)) == (c, c)

    def test_square_filler(self):
        c = atom_cell(SQ, sq("v1", "v1"))
        src, tgt = nu_boundary(c)
        assert entry(SQ, src, 1, 0) == {sq("b0", "v1"): 1, sq("v1", "t0"): 1}
        assert entry(SQ, tgt, 1, 0) == {sq("v1", "b0"): 1, sq("t0", "v1"): 1}

    def test_zero_cell_has_none(self):
        with pytest.raises(TableError):
            nu_boundary(atom_cell(IV, "b0"))

    def test_globularity(self):
        view = NuView(SQ, 2)
        for d in (1, 2):
            for c in view.cells(d):
                if d >= 2:
                    s, t = nu_boundary(c)
                    assert nu_boundary(s) == nu_boundary(t)


class TestIdentity:
    def test_append_zero(self):
        c = atom_cell(IV, "b0")
        i = nu_identity(c)
        assert entry(IV, i, 1, 0) == {} and entry(IV, i, 1, 1) == {}
        assert len(i) - 1 == 1

    def test_double(self):
        c = atom_cell(IV, "b0")
        ii = nu_identity(nu_identity(c))
        assert all(entry(IV, ii, k, eps) == {} for k in (1, 2) for eps in (0, 1))


class TestCompose:
    def test_diagonal_path(self):
        a = atom_cell(SQ, sq("b0", "v1"))
        b = atom_cell(SQ, sq("v1", "t0"))
        c = nu_compose(0, a, b)
        assert entry(SQ, c, 1, 0) == {sq("b0", "v1"): 1, sq("v1", "t0"): 1}

    def test_unit_law(self):
        a = atom_cell(SQ, sq("b0", "v1"))
        left = nu_compose(0, nu_identity(nu_boundary(a)[0]), a)
        assert left == a
        right = nu_compose(0, a, nu_identity(nu_boundary(a)[1]))
        assert right == a

    def test_non_composable(self):
        a = atom_cell(SQ, sq("b0", "v1"))
        with pytest.raises(TableError):
            nu_compose(0, a, a)

    def test_associativity_instance(self):
        K = lambda_cell(cell(3))
        ones = [atom_cell(K, ("s", i, ("o", 0))) for i in (1, 2, 3)]
        a, b, c = ones
        lhs = nu_compose(0, nu_compose(0, a, b), c)
        rhs = nu_compose(0, a, nu_compose(0, b, c))
        assert lhs == rhs

    def test_exchange_law_instances(self):
        K = tensor(IV, lambda_globe(2))
        view = NuView(K, 2)
        twos = view.cells(2)
        checked = 0
        for a in twos:
            for b in twos:
                if not nu_composable(0, a, b):
                    continue
                ab = nu_compose(0, a, b)
                for c in twos:
                    if not nu_composable(1, a, c):
                        continue
                    for d in twos:
                        if nu_composable(1, b, d) and nu_composable(0, c, d):
                            lhs = nu_compose(1, ab, nu_compose(0, c, d))
                            rhs = nu_compose(0, nu_compose(1, a, c), nu_compose(1, b, d))
                            assert lhs == rhs
                            checked += 1
        assert checked > 0


class TestEnumeration:
    def test_two_globe(self):
        view = NuView(lambda_globe(2), 2)
        assert view.nondegenerate_counts() == (2, 2, 1)

    def test_square(self):
        view = NuView(SQ, 2)
        assert view.counts()[:2] == (4, 10)
        assert view.nondegenerate_counts() == (4, 6, 1)

    def test_point(self):
        view = NuView(lambda_globe(0), 3)
        assert view.counts() == (1, 1, 1, 1)

    def test_cells_outside_the_dimensions_are_empty(self):
        # a negative d indexes no layer from the top
        view = NuView(cylinder_complex(cell(1)), 2)
        assert len(view.cells(2)) == 11
        for d in (-1, -2, -3, 3):
            assert view.cells(d) == ()

    def test_globes_up_to_five(self):
        for n in range(6):
            view = NuView(lambda_globe(n), n)
            want = tuple([2] * n + [1])
            assert view.nondegenerate_counts() == want

    def test_idempotent_closure(self):
        view = NuView(SQ, 2)
        for d in (1, 2):
            cells = set(view.layers[d])
            extra = set()
            for j in range(d):
                for a in cells:
                    for b in cells:
                        if nu_composable(j, a, b):
                            extra.add(nu_compose(j, a, b))
            assert extra <= cells

    def test_atoms_built_once_per_complex(self, monkeypatch):
        # each row of an atom below its top takes one boundary of each
        # entry, and nothing else in a closure takes one
        K = tensor(IV, lambda_globe(2))
        boundaries = []
        real_d = DAComplex.d

        def counting_d(self, x):
            boundaries.append(x)
            return real_d(self, x)

        monkeypatch.setattr(DAComplex, "d", counting_d)
        NuView(K, 2)
        NuView(K, 3)
        assert len(K.atoms) == sum(len(row) for row in degrees(K))
        assert len(boundaries) == 2 * sum(d * len(row) for d, row in enumerate(degrees(K)))

    def test_cells_are_row_tuples(self):
        # a cell is the tuple of its (neg, pos) bitmask rows, with no wrapper,
        # and the closure is seeded with the atom tables themselves
        K = cylinder_complex(parse_cell("[2]([1],[0])"))
        view = NuView(K, 3)
        for d, layer in enumerate(view.layers):
            for c in layer:
                assert type(c) is tuple and len(c) == d + 1
                assert all(type(row) is tuple and len(row) == 2
                           and all(type(m) is int for m in row) for row in c)
            stored = {c: c for c in layer}
            start = K.start
            for a in K.atoms[start[d]:start[d + 1]]:
                assert stored[a] is a

    def test_ceiling(self):
        with pytest.raises(EnumerationError):
            enumerate_cells(SQ, 2, ceiling=3)

    def test_ceiling_is_exact(self):
        # the ceiling is checked on each insertion, so it bounds the cells
        # built in any one dimension exactly
        K = lambda_cell(parse_cell("[3]([1],[1],[1])"))
        layers = enumerate_cells(K, 2)
        most = max(len(cells) for cells in layers)
        assert enumerate_cells(K, 2, ceiling=most) == layers
        with pytest.raises(EnumerationError):
            enumerate_cells(K, 2, ceiling=most - 1)

    def test_requires_strong_steiner(self):
        K = named_complex(
            degrees=((("o", 0), ("o", 1)), (("x", 0),)),
            diff={("x", 0): {}},
            aug={("o", 0): 1, ("o", 1): 1},
        )
        with pytest.raises(EnumerationError):
            enumerate_cells(K, 1)


def pair_walk_layers(K, max_dim):
    """The layers of enumerate_cells, built by the pair-walk oracle."""
    layers = []
    for d in range(max_dim + 1):
        seeds = [nu_identity(c) for c in layers[-1]] if d else []
        seeds += [atom_cell(K, g) for g in K.basis(d)]
        layers.append(close_all_pairs(seeds, d))
    return layers


def assert_same_layers(got, want):
    assert len(got) == len(want)
    for d, (a, b) in enumerate(zip(got, want)):
        assert a == b, f"dimension {d}: {len(a - b)} extra, {len(b - a)} missing"


class TestPairWalkOracle:
    """The whiskered-atom closure against the closure under every
    composable pair."""

    @pytest.mark.parametrize("t", cells_up_to(6), ids=str)
    def test_cylinder_and_lambda_views(self, t):
        max_dim = min(t.dimension() + 1, 4)
        for K in (cylinder_complex(t), lambda_cell(t)):
            assert_same_layers(enumerate_cells(K, max_dim), pair_walk_layers(K, max_dim))

    @pytest.mark.parametrize("text, max_dim", [
        ("[2]([2],[2])", 4), ("[3]([0],[1]([1]),[0])", 4), ("[5]", 3), ("G4", 5),
    ])
    def test_closure_wide_cylinders(self, text, max_dim):
        K = cylinder_complex(parse_cell(text))
        assert_same_layers(enumerate_cells(K, max_dim), pair_walk_layers(K, max_dim))

    def test_dropping_whiskering_loses_cells(self, monkeypatch):
        # without stage 1 a layer holds only identities and (d-1)-composites of bare atoms
        K = cylinder_complex(parse_cell("[1]([1])"))
        full = enumerate_cells(K, 3)
        monkeypatch.setattr(nu, "_whisker", lambda atoms, identities, d, insert: list(atoms))
        cut = enumerate_cells(K, 3)
        assert all(b <= a for a, b in zip(full, cut))
        assert [len(a - b) for a, b in zip(full, cut)] == [0, 0, 4, 4]
        with pytest.raises(AssertionError):
            assert_same_layers(cut, pair_walk_layers(K, 3))


class TestSearchOracle:
    def test_square(self):
        view = NuView(SQ, 3)
        found = search_tables(SQ, 3, 3)
        for d in range(4):
            assert set(found[d]) == view.layers[d]

    def test_interval_times_two_globe(self):
        K = tensor(IV, lambda_globe(2))
        view = NuView(K, 3)
        found = search_tables(K, 3, 3)
        for d in range(4):
            assert set(found[d]) == view.layers[d]


class TestFunctors:
    def test_identity_functor(self):
        view = NuView(SQ, 2)
        f = nu_functor(identity_morphism(SQ), 2, source_view=view, target_view=view)
        assert not check_functors((f,), 2)[0]

    def test_long_edge_image(self):
        comp = {(1, 1): theta_identity(parse_cell("[0]")),
                (1, 2): theta_identity(parse_cell("[0]")),
                (2, 3): theta_identity(parse_cell("[0]"))}
        f = theta_morphism(cell(2), cell(3), simplicial_coface(2, 1), comp)
        m = lambda_map(f)
        F = nu_functor(m, 1)
        K = lambda_cell(cell(2))
        edge = atom_cell(K, ("s", 1, ("o", 0)))
        img = F(edge)
        assert entry(m.target, img, 1, 0) == {("s", 1, ("o", 0)): 1, ("s", 2, ("o", 0)): 1}

    def test_endpoint_inclusion_picks_object(self):
        from graycyl.theta import vertex
        m = lambda_map(vertex(cell(1), 0))
        F = nu_functor(m, 1)
        pt = atom_cell(lambda_cell(parse_cell("[0]")), ("o", 0))
        assert entry(m.target, F(pt), 0, 0) == {("o", 0): 1}

    def test_hyperfaces_of_two_simplex_pass(self):
        for face in hyperfaces(cell(2)):
            F = nu_functor(lambda_map(face.map), 2)
            assert not check_functors((F,), 2)[0]

    def test_corrupted_map_detected(self):
        view = NuView(SQ, 2)

        def bad(c):
            if len(c) - 1 == 1 and c[-1] != (0, 0):
                return nu_identity(nu_boundary(c)[0])
            return c if len(c) - 1 == 0 else nu_identity(bad(nu_boundary(c)[0]))

        F = OmegaFunctor(view, view, bad)
        assert check_functors((F,), 1)[0]

    def test_swapped_diagonals_break_composition(self):
        # the two diagonals of the square have the same source and target,
        # so only the composition check can tell them apart
        view = NuView(SQ, 1)
        at = {g: atom_cell(SQ, sq(*g)) for g in
              (("b0", "v1"), ("v1", "t0"), ("v1", "b0"), ("t0", "v1"))}
        lower = nu_compose(0, at["b0", "v1"], at["v1", "t0"])
        upper = nu_compose(0, at["v1", "b0"], at["t0", "v1"])
        assert nu_boundary(lower) == nu_boundary(upper)
        swap = {lower: upper, upper: lower}
        F = OmegaFunctor(view, view, lambda c: swap.get(c, c))
        report = check_functors((F,), 1)[0]
        assert report and all(v[0] == "compose" for v in report)


class TestTableGuards:
    """Tables hold {0,1} entries as bitmasks; every way to leave {0,1}
    raises instead of being silently truncated."""

    def test_coefficient_two_rejected(self):
        # a 1-generator with zero boundary lets 2x pass every other check
        K = named_complex(degrees=((("o", 0),), (("x", 0),)),
                      diff={("x", 0): {}}, aug={("o", 0): 1})
        o, x = {("o", 0): 1}, {("x", 0): 1}
        assert len(make_cell(K, [(o, o), (x, x)])) - 1 == 1
        with pytest.raises(TableError, match="coefficient 2"):
            make_cell(K, [(o, o), ({("x", 0): 2}, {("x", 0): 2})])

    def test_overlapping_composite_rejected(self):
        b0, v1 = 1 << position(IV, "b0"), 1 << position(IV, "v1")
        a = ((b0, b0), (v1, v1))
        assert nu_composable(0, a, a)
        with pytest.raises(TableError, match="coefficient 2"):
            nu_compose(0, a, a)

    def test_functor_doubling_a_generator_rejected(self):
        # both edges of [2] onto the first one: the long edge s1+s2 would
        # map to 2 s1
        K = lambda_cell(cell(2))
        s1, s2 = ("s", 1, ("o", 0)), ("s", 2, ("o", 0))
        images = {("o", p): {("o", p): 1} for p in range(3)}
        images.update({s1: {s1: 1}, s2: {s1: 1}})
        view = NuView(K, 1)
        F = nu_functor(named_morphism(K, K, images), 1, source_view=view, target_view=view)
        long_edge = nu_compose(0, atom_cell(K, s1), atom_cell(K, s2))
        with pytest.raises(TableError, match="coefficient"):
            F(long_edge)


class TestSharedFunctorCheck:
    def test_reports_per_functor(self):
        view = NuView(SQ, 2)
        good = nu_functor(identity_morphism(SQ), 2, source_view=view, target_view=view)
        bad = OmegaFunctor(view, view, lambda c: nu_identity(nu_boundary(c)[0])
                           if len(c) - 1 == 1 and c[-1] != (0, 0) else c)
        bad_alone = check_functors((bad,), 2)[0]
        assert bad_alone and check_functors((good,), 2)[0] == []
        assert check_functors([good, bad], 2) == [[], bad_alone]
        assert check_functors([bad, good], 2) == [bad_alone, []]

    def test_one_source_view_required(self):
        F = nu_functor(identity_morphism(SQ), 1)
        G = nu_functor(identity_morphism(SQ), 1)
        with pytest.raises(ValueError):
            check_functors([F, G], 1)


# The rendering formulas from before the per-index rendering table, kept
# here as the oracle of the bytes that table must reproduce.

def legacy_render_element(x: dict) -> str:
    if not x:
        return "0"
    parts = []
    for g in sorted(x, key=render_name):
        c = x[g]
        parts.append(f"{'' if c == 1 else c}{render_name(g)}" if c > 0
                     else f"-{'' if c == -1 else -c}{render_name(g)}")
    return "+".join(parts).replace("+-", "-")


def legacy_sort_key(K: DAComplex, c: tuple) -> str:
    def pairs(m):
        return tuple((g, 1) for g in sorted(names_of(K, m), key=repr))
    return repr(tuple((pairs(n), pairs(p)) for n, p in c))


def legacy_str(K: DAComplex, c: tuple) -> str:
    cols = [f"({legacy_render_element(entry(K, c, k, 0))};"
            f"{legacy_render_element(entry(K, c, k, 1))})" for k in range(len(c))]
    return "[" + " ".join(cols) + "]"


def legacy_to_json(K: DAComplex, c: tuple):
    def side(x):
        return {legacy_render_element({g: 1}): v for g, v in sorted(x.items(), key=repr)}
    return [[side(entry(K, c, k, 0)), side(entry(K, c, k, 1))] for k in range(len(c))]


def legacy_dump(K: DAComplex, view: NuView, indent) -> str:
    """The view's JSON dump as a tree of legacy cells, sorted by the legacy
    key, through json.dumps."""
    data = {
        "counts": list(view.counts()),
        "nondegenerate": list(view.nondegenerate_counts()),
        "cells": {str(d): [legacy_to_json(K, c)
                           for c in sorted(view.layers[d], key=lambda c: legacy_sort_key(K, c))]
                  for d in range(view.max_dim + 1)},
    }
    return json.dumps(data, sort_keys=True, ensure_ascii=False, indent=indent)


def dump(view: NuView, indent=None) -> str:
    return "".join(_dump_pieces(view, indent))


def legacy_complex_to_json(K: DAComplex) -> dict:
    def by_name(kv):
        return render_name(kv[0])
    return {
        "degrees": [[render_name(g) for g in b] for b in degrees(K)],
        "d": {render_name(g): {render_name(h): c for h, c in sorted(v.items(), key=by_name)}
              for g, v in sorted(boundaries(K).items(), key=by_name)},
        "e": {render_name(g): c for g, c in sorted(augmentations(K).items(), key=by_name)},
    }


def ordered(data) -> str:
    """JSON with the dict orders kept, so equal strings mean equal order."""
    return json.dumps(data, ensure_ascii=False)


class TestRenderingTable:
    @pytest.mark.parametrize("t", cells_up_to(5), ids=str)
    def test_matches_legacy_formulas(self, t):
        dim = t.dimension()
        sizes = Counter()
        for K in (cylinder_complex(t), lambda_cell(t)):
            view = NuView(K, dim + 1)
            for d in range(view.max_dim + 1):
                assert view.cells(d) == sorted(view.layers[d], key=lambda c: legacy_sort_key(K, c))
                for c in view.layers[d]:
                    assert view.text(c) == legacy_str(K, c)
                    sizes.update(len(names_of(K, m)) for row in c for m in row)
            for indent in (None, 1):
                assert dump(view, indent) == legacy_dump(K, view, indent)
        assert sizes[0] and sizes[1]        # empty and one-generator entries
        for K in (lambda_cell(t), cylinder_complex(t)):
            assert ordered(K.to_json()) == ordered(legacy_complex_to_json(K))

    def test_repr_and_rendered_orders_kept_apart(self):
        # "z" comes first in repr order, "2|o0" first in rendered order
        o = [("o", p) for p in range(3)]
        z, s = "z", ("s", 2, o[0])
        K = named_complex(degrees=(tuple(o), (z, s)),
                      diff={z: {o[1]: 1, o[0]: -1}, s: {o[2]: 1, o[1]: -1}},
                      aug=dict.fromkeys(o, 1))
        view = NuView(K, 1)
        c = make_cell(K, [({o[0]: 1}, {o[2]: 1}), ({z: 1, s: 1}, {z: 1, s: 1})])
        assert c in view.layers[1]
        assert view.text(c) == legacy_str(K, c) == "[(o0;o2) (2|o0+z;2|o0+z)]"
        assert view.cells(1) == sorted(view.layers[1], key=lambda c: legacy_sort_key(K, c))
        # the dump sorts each entry's names as strings, whatever their repr order
        assert dump(view) == legacy_dump(K, view, None)
        assert '[{"2|o0": 1, "z": 1}, {"2|o0": 1, "z": 1}]' in dump(view)

    def test_each_name_rendered_once_per_index(self, monkeypatch):
        # a complex of its own, so no earlier test has rendered its names
        K = tensor(IV, lambda_cell(parse_cell("[2]([1],[0])")))
        view = NuView(K, 3)
        calls, depth = [], [0]
        real = dac.render_name

        def counting(g):
            if not depth[0]:
                calls.append(g)         # the outermost call of a recursion
            depth[0] += 1
            try:
                return real(g)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(dac, "render_name", counting)

        def render():
            return dump(view), [view.text(c) for c in view.cells(2)], K.to_json()

        first = render()
        assert Counter(calls) == Counter(K.names)
        calls.clear()
        assert render() == first
        assert calls == []
