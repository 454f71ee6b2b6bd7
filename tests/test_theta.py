import gc
import hashlib
import random
import sys
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from graycyl import pr, theta
from graycyl.dac import MorphismError, lambda_map
from graycyl.gray import o_cell
from graycyl.theta import (MAX_DEPTH, CellSyntaxError, POINT, ThetaCell, ThetaMap, bang, cell,
                           cells_up_to, cells_with_nodes, coface, coface_map, globe,
                           globular_sum, hyperfaces, parse_cell, segment_map,
                           theta_identity, vertex)

from oracles import (SimplicialMap, as_oracle, bang_morphism, check_map, codegeneracy,
                     coface_morphism, component, compose, gamma_image, hyperface_morphisms,
                     leaf_morphism, map_errors, meet_morphism, mirror, parse_morphism,
                     reconstruct, segment_morphism, simplicial_coface, simplicial_identity,
                     theta_identity_morphism, theta_morphism, vertex_morphism)


def cells_strategy(max_width=3, max_height=3):
    return st.recursive(
        st.just(POINT),
        lambda kids: st.lists(kids, min_size=1, max_size=max_width).map(
            lambda ks: ThetaCell(tuple(ks))),
        max_leaves=6)


class TestParsing:
    def test_point(self):
        assert parse_cell("[0]") == POINT

    def test_nested(self):
        t = parse_cell("[2]([1],[0])")
        assert t.width == 2
        assert t.children == (cell(1), POINT)

    def test_bare_width_sugar(self):
        assert parse_cell("[3]") == cell(3)
        assert parse_cell("[3]") == parse_cell("[3]([0],[0],[0])")

    def test_globe_sugar(self):
        assert parse_cell("G3") == globe(3)

    def test_whitespace(self):
        assert parse_cell(" [2]( [1] , [0] ) ") == parse_cell("[2]([1],[0])")

    def test_syntax_error_position(self):
        with pytest.raises(CellSyntaxError) as exc:
            parse_cell("[2]([1]")
        assert exc.value.position >= 4

    def test_width_mismatch(self):
        with pytest.raises(CellSyntaxError):
            parse_cell("[2]([0])")

    def test_depth_cap(self):
        assert parse_cell(f"G{MAX_DEPTH}") == globe(MAX_DEPTH)
        nested = "[1](" * (MAX_DEPTH - 1) + "[1]" + ")" * (MAX_DEPTH - 1)
        assert parse_cell(nested) == globe(MAX_DEPTH)
        for text in (f"G{MAX_DEPTH + 1}", f"[1](G{MAX_DEPTH})",
                     "[1](" * MAX_DEPTH + "[1]" + ")" * MAX_DEPTH):
            with pytest.raises(CellSyntaxError, match="deeper"):
                parse_cell(text)

    @given(cells_strategy())
    @settings(max_examples=150, deadline=None)
    def test_roundtrip(self, t):
        assert parse_cell(str(t)) == t


class TestDimension:
    def test_point(self):
        assert POINT.dimension() == 0

    def test_two_globe(self):
        assert parse_cell("[1]([1])").dimension() == 2

    def test_mixed(self):
        assert parse_cell("[2]([1],[0])").dimension() == 2

    def test_globes(self):
        for n in range(6):
            assert globe(n).dimension() == n


def globular_dims(t):
    """The dimensions of the leaves and of the meets of t's globular sum."""
    leaves, meets = globular_sum(t)
    return [n for n, _ in leaves], [m for m, _ in meets]


class TestGlobularSum:
    def test_globe_single_leaf(self):
        for n in range(5):
            assert globular_dims(globe(n)) == ([n], [])

    def test_examples(self):
        assert globular_dims(parse_cell("[2]([1],[0])")) == ([2, 1], [0])
        assert globular_dims(parse_cell("[1]([2])")) == ([2, 2], [1])

    def test_shape_condition(self):
        for t in cells_up_to(7):
            leaf_dims, meet_dims = globular_dims(t)
            for i, m in enumerate(meet_dims):
                assert leaf_dims[i] >= m <= leaf_dims[i + 1]

    def test_reconstruct_corpus(self):
        for t in cells_up_to(7):
            assert reconstruct(*globular_sum(t)) == t


class TestGammaImage:
    def test_identity(self):
        assert gamma_image(simplicial_identity(2)) == {1: (1,), 2: (2,)}

    def test_inner_coface(self):
        assert coface(2, 1) == (0, 2, 3)
        assert gamma_image(simplicial_coface(2, 1)) == {1: (1, 2), 2: (3,)}

    def test_degeneracy(self):
        assert gamma_image(codegeneracy(1, 0)) == {1: ()}

    def test_memoised_value_is_read_only(self):
        image = gamma_image(simplicial_coface(2, 1))
        assert gamma_image(simplicial_coface(2, 1)) is image
        with pytest.raises(TypeError):
            image[1] = ()
        with pytest.raises(TypeError):
            del image[2]
        assert image == {1: (1, 2), 2: (3,)}

    def test_composite_union_formula(self):
        def monotone_maps(n, m):
            def rec(prefix, remaining):
                if remaining == 0:
                    yield SimplicialMap(n, m, tuple(prefix))
                    return
                lo = prefix[-1] if prefix else 0
                for v in range(lo, m + 1):
                    yield from rec(prefix + [v], remaining - 1)
            yield from rec([], n + 1)

        for n in range(5):
            for m in range(5):
                for k in range(5):
                    for f in monotone_maps(n, m):
                        gi_f = gamma_image(f)
                        for g in monotone_maps(m, k):
                            comp = gamma_image(f.then(g))
                            gi_g = gamma_image(g)
                            for i in range(1, n + 1):
                                union = sorted(j for mid in gi_f[i] for j in gi_g[mid])
                                assert sorted(comp[i]) == union


def random_morphism_from(rng, src, max_width=3, depth=0):
    """A random morphism with the given source; returns it with its target."""
    m = rng.randint(0, max_width)
    base = SimplicialMap(src.width, m,
                         tuple(sorted(rng.randint(0, m) for _ in range(src.width + 1))))
    fi = gamma_image(base)
    targets = {}
    comps = {}
    for i in range(1, src.width + 1):
        for j in fi[i]:
            sub = random_morphism_from(rng, src.children[i - 1], max_width=2)
            comps[(i, j)] = sub
            targets[j] = sub.target
    kids = tuple(targets.get(j, rng.choice([POINT, cell(1)])) for j in range(1, m + 1))
    tgt = ThetaCell(kids)
    return theta_morphism(src, tgt, base, comps)


class TestCompose:
    def test_identity_laws(self):
        rng = random.Random(7)
        for _ in range(40):
            src = rng.choice(cells_up_to(4))
            f = random_morphism_from(rng, src)
            assert compose(theta_identity(f.source), f) == f
            assert compose(f, theta_identity(f.target)) == f

    def test_associativity_random_triples(self):
        rng = random.Random(11)
        done = 0
        while done < 200:
            src = rng.choice([t for t in cells_up_to(5) if t.width <= 3])
            f = random_morphism_from(rng, src)
            g = random_morphism_from(rng, f.target)
            h = random_morphism_from(rng, g.target)
            assert compose(compose(f, g), h) == compose(f, compose(g, h))
            done += 1

    def test_misaligned_segments_raise(self):
        f = parse_morphism({"source": "[1]", "target": "[3]", "base": [0, 3]})
        g = parse_morphism({"source": "[3]", "target": "[2]", "base": [0, 2, 2, 2]})
        # a base that skipped validation: segments 1 and 3 both cover 2
        object.__setattr__(g.base, "image", (0, 2, 1, 2))
        with pytest.raises(ValueError, match="preimages"):
            compose(f, g)

    def test_hyperface_composite_base(self):
        faces3 = [f.map for f in hyperfaces(cell(3)) if f.kind != "vertical"]
        faces2 = [f.map for f in hyperfaces(cell(2)) if f.kind != "vertical"]
        pairs = 0
        for f in faces2:
            for g in faces3:
                if f.target == g.source:
                    comp = compose(f, g)
                    assert comp.base == as_oracle(f).base.then(as_oracle(g).base)
                    lhs = lambda_map(comp)
                    rhs = lambda_map(f).then(lambda_map(g))
                    assert lhs.images == rhs.images
                    pairs += 1
        assert pairs > 0


class TestHyperfaces:
    def test_interval(self):
        out = hyperfaces(cell(1))
        kinds = sorted((h.kind, h.map.image) for h in out)
        assert kinds == [("outer", (0,)), ("outer", (1,))]

    def test_two_simplex(self):
        out = hyperfaces(cell(2))
        assert sum(1 for h in out if h.kind == "outer") == 2
        assert sum(1 for h in out if h.kind == "inner") == 2
        assert all(h.map.target == cell(2) for h in out)

    def test_suspended_interval(self):
        out = hyperfaces(parse_cell("[1]([1])"))
        vertical = [h for h in out if h.kind == "vertical"]
        assert len(vertical) == 2
        assert all(h.map.source == cell(1) for h in vertical)
        assert sum(1 for h in out if h.kind == "outer") == 2

    def test_mixed_cell(self):
        out = hyperfaces(parse_cell("[2]([1],[0])"))
        by_kind = {}
        for h in out:
            by_kind.setdefault(h.kind, []).append(h)
        assert len(by_kind["vertical"]) == 2
        assert len(by_kind["outer"]) == 2
        assert len(by_kind["inner"]) == 1

    def test_inner_faces_keep_the_child_on_its_own_side(self):
        # on a unit child bang and the identity are one morphism, so only a
        # positive child shows which segment keeps it
        one = cell(1)
        after, = [h for h in hyperfaces(parse_cell("[2]([1],[0])")) if h.kind == "inner"]
        assert after.position == (1, "after")
        assert after.map.legs == (((1, theta_identity(one)), (2, bang(one))),)
        before, = [h for h in hyperfaces(parse_cell("[2]([0],[1])")) if h.kind == "inner"]
        assert before.position == (1, "before")
        assert before.map.legs == (((1, bang(one)), (2, theta_identity(one))),)


class TestMisc:
    def test_mirror_involution(self):
        for t in cells_up_to(6):
            assert mirror(mirror(t)) == t

    def test_leaf_and_meet_inclusions(self):
        for t in cells_up_to(6):
            leaves, meets = globular_sum(t)
            for n, inc in leaves + meets:
                assert inc.source == globe(n)
                assert inc.target == t

    def test_faces_and_globe_inclusions_are_pinned(self):
        lines = []
        for t in cells_up_to(7):
            for h in hyperfaces(t):
                lines.append((h.kind, h.position, h.map))
            leaves, meets = globular_sum(t)
            lines += [("leaf", (i,), f) for i, (_, f) in enumerate(leaves)]
            lines += [("meet", (g,), f) for g, (_, f) in enumerate(meets)]
        text = "\n".join(f"{kind} {position} {f.source} {f.target} {as_oracle(f)}"
                         for kind, position, f in lines)
        assert len(lines) == 2925
        assert (hashlib.sha256(text.encode()).hexdigest()
                == "f5f714bdef7cfedd197da7a339776e2ebe049c1ffc01e02592c02aad461b6ab3")

    def test_morphism_literal(self):
        data = {"source": "[1]([2])", "target": "[2]([1],[1])", "base": [0, 2],
                "components": {
                    "1,1": {"base": [0, 1, 1]},
                    "1,2": {"base": [0, 0, 1]},
                }}
        f = parse_morphism(data)
        assert f.base.image == (0, 2)
        assert component(f, 1, 1).base.image == (0, 1, 1)
        assert component(f, 1, 2).base.image == (0, 0, 1)

    def test_vertex(self):
        v = vertex(cell(2), 1)
        assert v.source == POINT and v.image == (1,) and v.legs == ()


class TestCellsWithNodes:
    def test_catalan_counts_in_a_pinned_order(self):
        # seeded corpora draw cells in this order, so the order is pinned too
        assert [len(cells_with_nodes(n)) for n in range(1, 9)] == [1, 1, 2, 5, 14, 42, 132, 429]
        text = "\n".join(str(t) for t in cells_up_to(8))
        assert (hashlib.sha256(text.encode()).hexdigest()
                == "649b48bb6482c9c02c81eb6c683f6225dd67167cf97c7abb93282c9acbc4c845")


class TestDeepCells:
    """Equality and hashing of cells deeper than a recursive walk could go
    under Python's default recursion limit."""

    def test_equal_to_a_separate_copy(self):
        # cells are interned, so a copy built apart is the same object
        a, b = globe(250), globe(250)
        assert a is b
        assert a == b and not a != b
        assert hash(a) == hash(b)

    def test_unequal_to_a_deeper_globe(self):
        a, c = globe(250), globe(251)
        assert a != c and c != a
        assert a != c.children[0].children[0]
        assert len({a, c, globe(250)}) == 2

    def test_unequal_at_the_bottom_only(self):
        def over(base):
            for _ in range(250):
                base = ThetaCell((base,))
            return base

        assert over(cell(2)) == over(cell(2))
        assert over(cell(2)) != over(cell(1)) and over(cell(1)) == globe(251)

    def test_lru_cache_keys(self):
        calls = []

        @lru_cache(maxsize=None)
        def depth(t):
            calls.append(t)
            n = 0
            while t.children:
                t, n = t.children[0], n + 1
            return n

        assert [depth(globe(250)), depth(globe(250)), depth(globe(251))] == [250, 250, 251]
        assert len(calls) == 2 and depth.cache_info().hits == 1

    def test_hash_is_the_dataclass_hash(self):
        # set and dict orders of cells and morphisms, and so the pinned CLI
        # bytes, rest on it
        for t in cells_up_to(5):
            assert hash(t) == hash((t.children,))
            for face in hyperfaces(t):
                f = as_oracle(face.map)
                assert hash(f.source) == hash((f.source.children,))
                assert hash(f) == hash((f.source, f.target, f.base, f.components))
                b = f.base
                assert hash(b) == hash((b.source_width, b.target_width, b.image))

    def test_expressions_compare_and_hash_by_value(self):
        # pr_count memoises on expressions: equal ones, however built,
        # compare and hash alike, and the five kinds stay distinct
        t = parse_cell("[2]([1],[0])")
        tt = ThetaCell((t, t))
        exprs = [pr.EMPTY, pr.POINT_EXPR, ("cell", t), pr.product([("cell", t), ("cell", t)]),
                 pr.pr([t, t])]
        again = [pr.hom_cell(t, 1, 0), pr.pr([]), pr.hom_cell(ThetaCell((t,)), 0, 1),
                 pr.hom_cell(tt, 0, 2), pr.pr_hom([tt], (0, (0,)), (1, (2,)))]
        assert [e[0] for e in exprs] == ["empty", "point", "cell", "*", "PR"]
        assert again == exprs and [hash(e) for e in again] == [hash(e) for e in exprs]
        assert len(set(exprs) | set(again)) == 5
        # a one-factor product, which only a test builds, is not PR of its
        # factor, nor a cell PR of the cell
        assert ("*", (("cell", t),)) != pr.pr([t]) and ("*", (t,)) != pr.pr([t])
        assert ("cell", t) != pr.pr([t])
        assert pr.pr_count(("cell", t), 1) != pr.pr_count(pr.pr([t]), 1)

    def test_shared_values_are_read_only(self):
        t = parse_cell("[2]([1],[0])")
        face = hyperfaces(t)[0]
        for value, name in ((t, "children"), (face.map, "image"), (face.map, "lam"),
                            (as_oracle(face.map).base, "image"), (face, "map")):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
        assert t.children == (cell(1), POINT)

    def test_simplicial_maps_compare_by_value(self):
        a, b = simplicial_coface(2, 1), SimplicialMap(2, 3, (0, 2, 3))
        assert a == b and a is not b and not a != b
        assert a != simplicial_coface(2, 0) and a != (2, 3, (0, 2, 3))
        assert len({a, b, simplicial_coface(2, 0)}) == 2

    def test_printing_and_dimension_do_not_recurse(self):
        g = globe(1000)
        assert str(g) == "[1](" * 999 + "[1]" + ")" * 999
        assert repr(g) == f"ThetaCell({g})"
        assert g.dimension() == 1000
        assert str(ThetaCell((g, POINT))).startswith("[2]([1]([1](")

    def test_tree_builders_do_not_recurse(self, monkeypatch):
        # a cell built in library code, deeper than parse_cell accepts, under
        # a recursion limit a fixed margin above this test's own depth
        monkeypatch.setattr(theta, "_IDENTITIES", {})     # drop the deep cells afterwards
        t = ThetaCell((globe(300), POINT))
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 50)
        try:
            faces = hyperfaces(t)
            leaves, meets = globular_sum(t)
            identity = theta_identity(t)
            mirrored = mirror(t)
        finally:
            sys.setrecursionlimit(limit)
        # globe(n) has the two outer faces at each of its n levels; t adds
        # its own two outer faces and the inner face after its point child
        assert len(faces) == 603
        assert faces[0].position == (1,) * 300 + (0,) and faces[0].map.source.width == 2
        assert [(f.kind, f.position) for f in faces[600:]] == [
            ("outer", (0,)), ("outer", (2,)), ("inner", (1, "after"))]
        assert [n for n, _ in leaves] == [301, 1] and [m for m, _ in meets] == [0]
        assert identity.source is identity.target is t
        assert mirrored == ThetaCell((POINT, globe(300)))


class TestInterning:
    """Equal cells are one object, held weakly, and so are equal morphisms
    in their oracle form."""

    def test_construction_returns_the_live_instance(self):
        for text in ("[0]", "[2]([1],[0])", "[3]([0],[1]([1]),[0])", "G7"):
            assert parse_cell(text) is parse_cell(text)
        assert parse_cell("[2]([1],[0])") is cell(2, cell(1), POINT)
        assert globe(250) is globe(250)
        for face in hyperfaces(parse_cell("[2]([1],[1])")):
            f = as_oracle(face.map)
            assert theta_morphism(f.source, f.target, f.base, dict(f.components)) is f
            assert compose(f, theta_identity(f.target)) is f

    def test_tables_free_what_no_one_holds(self):
        gc.collect()
        before = len(theta._CELLS), len(oracles._MORPHISMS)
        t = globe(500)
        v = as_oracle(vertex(t, 1))
        assert theta._CELLS[t.children] is t and len(theta._CELLS) > before[0]
        assert len(oracles._MORPHISMS) == before[1] + 1
        del t, v
        gc.collect()
        assert (len(theta._CELLS), len(oracles._MORPHISMS)) == before

    def test_a_bad_morphism_raises_every_time_and_is_not_kept(self):
        src = cell(1)
        base = simplicial_identity(1)
        wrong = {(1, 1): theta_identity(src)}       # the component must start at [0]
        before = len(oracles._MORPHISMS)
        for _ in range(2):
            with pytest.raises(ValueError, match="wrong source"):
                theta_morphism(src, src, base, wrong)
        assert len(oracles._MORPHISMS) == before
        key = (src, src, base, (((1, 1), as_oracle(theta_identity(src))),))
        assert key not in oracles._MORPHISMS


class TestIdentities:
    """theta_identity and bang are built once per cell and kept."""

    def test_deep_identity_does_not_recurse(self, monkeypatch):
        monkeypatch.setattr(theta, "_IDENTITIES", {})     # drop the deep cells afterwards
        g = globe(3000)
        f = theta_identity(g)
        assert f.source is f.target is g
        for _ in range(3000):
            assert f.image == (0, 1)
            ((j, f),), = f.legs
            assert j == 1
        assert f.source is POINT and f.image == (0,) and f.legs == ()

    def test_built_once_per_cell(self):
        for t in cells_up_to(5):
            f = theta_identity(t)
            assert theta_identity(t) is f and theta._IDENTITIES[t] is f
            assert as_oracle(f) is theta_morphism(t, t, simplicial_identity(t.width),
                                                  {(i, i): theta_identity(c)
                                                   for i, c in enumerate(t.children, start=1)})
            assert [g for leg in f.legs for _, g in leg] == [theta_identity(c)
                                                             for c in t.children]
            assert bang(t) is bang(t)
            assert bang(t).target is POINT and bang(t).source is t


class TestMapsMatchTheirOracles:
    """The library builds Theta maps as position data, unchecked.  Every map
    its builders make over the cells with at most 8 nodes passes the
    structural checks (check_map, at every depth) and equals, in its oracle
    form, what the same builder makes of validated, interned morphisms."""

    def test_every_builder_up_to_eight_nodes(self):
        counts = {}

        def same(f, want, kind):
            assert as_oracle(check_map(f)) is want, (kind, str(f.target))
            counts[kind] = counts.get(kind, 0) + 1

        for t in cells_up_to(8):
            same(theta_identity(t), theta_identity_morphism(t), "identity")
            same(bang(t), bang_morphism(t), "bang")
            for p in t.objects():
                same(vertex(t, p), vertex_morphism(t, p), "vertex")
            for s, c in enumerate(t.children, start=1):
                same(segment_map(t, s, theta_identity(c)),
                     segment_morphism(t, s, theta_identity_morphism(c)), "segment")
            faces, want = hyperfaces(t), hyperface_morphisms(t)
            assert [(h.kind, h.position) for h in faces] == [(k, p) for k, p, _ in want]
            for h, (_, _, m) in zip(faces, want):
                same(h.map, m, "hyperface")
            for k in range(1, t.width + 1):
                for j in (k - 1, k):
                    same(coface_map(o_cell(t, j), k, j + 1),
                         coface_morphism(o_cell(t, j), k, j + 1), "coface")
            leaves, meets = globular_sum(t)
            for i, (_, f) in enumerate(leaves):
                same(f, leaf_morphism(t, i), "leaf")
            for g, (_, f) in enumerate(meets):
                same(f, meet_morphism(t, g), "meet")
        assert counts == {"identity": 626, "bang": 626, "vertex": 2055, "segment": 1429,
                          "hyperface": 6862, "coface": 2858, "leaf": 2354, "meet": 1728}

    def test_a_perturbed_leg_fails_the_checks(self):
        face = next(h for h in hyperfaces(parse_cell("[2]([1],[0])"))
                    if h.position == (1, 0))
        f = face.map
        assert map_errors(f) == [] and check_map(f) is f
        # the leg of slot 1 reaches [1] at the wrong end: still a map into
        # [1], but from [0] by way of a map into [2]
        wrong_target = ThetaMap(f.source, f.target, f.image,
                                (((1, vertex(cell(2), 0)),),) + f.legs[1:])
        # the leg of slot 2 claims segment 1, which slot 1 covers
        wrong_key = ThetaMap(f.source, f.target, f.image,
                             f.legs[:1] + (((1, theta_identity(POINT)),),))
        # one deeper: the face over the perturbed map, as a vertical face
        deeper = ThetaMap(ThetaCell((wrong_target.source,)), ThetaCell((f.target,)),
                          (0, 1), (((1, wrong_target),),))
        for bad, error in ((wrong_target, "wrong target"), (wrong_key, "segment-image pairs"),
                           (deeper, "wrong target")):
            with pytest.raises(ValueError, match=error):
                check_map(bad)
            with pytest.raises(ValueError, match=error):
                as_oracle(bad)
        assert map_errors(deeper) == []
        assert map_errors(ThetaMap(f.source, f.target, (0, 2, 1), f.legs)) == [
            "map is not monotone"]
        assert map_errors(ThetaMap(f.source, f.target, (0, 1, 3), f.legs)) == [
            "vertex image out of range"]
        assert map_errors(ThetaMap(f.source, f.target, (0, 1), f.legs)) == [
            "base source width mismatch"]
        assert map_errors(ThetaMap(f.source, f.target, f.image, f.legs[:1])) == [
            "one leg per source segment"]

    def test_a_missized_child_map_is_refused(self):
        # a leg whose map runs into a complex of another size than its
        # target slot's raises, rather than read positions through the
        # wrong table
        face = next(h for h in hyperfaces(parse_cell("[2]([1],[0])"))
                    if h.position == (1, 0))
        f = face.map
        bad = ThetaMap(f.source, f.target, f.image, (((1, vertex(cell(2), 0)),),) + f.legs[1:])
        with pytest.raises(MorphismError, match="segment 1 over segment 1"):
            lambda_map(bad)
        assert bad.lam is None
        assert lambda_map(f).validate() is lambda_map(f)
