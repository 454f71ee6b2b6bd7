import re

import pytest

from graycyl import dac, gray, span
from graycyl.cli import main
from graycyl.dac import DAMorphism, MorphismError, lambda_cell, lambda_map
from graycyl.gray import (ShuffleColumn, cylinder_complex, cylinder_map,
                          endpoint_inclusion, gray_cylinder, hyperface_cylinder,
                          interval, lax_shuffle_diagram, shuffle_dot, verify_gluing,
                          verify_globular_preservation)
from graycyl.nu import NuView
from graycyl.theta import (POINT, cell, cells_up_to, cells_with_nodes, globe, hyperfaces,
                           parse_cell, theta_identity, vertex)

from oracles import (as_oracle, check_functors, combine, component, compose, element, image,
                     m_face_map, nu_functor, o_face_morphism, o_leg_morphism, parse_morphism,
                     row, simplicial_coface, theta_morphism, with_image)


class TestGrayCylinder:
    def test_point_is_interval(self):
        view = gray_cylinder(parse_cell("[0]"), 2)
        iv = NuView(interval(), 2)
        assert view.counts() == iv.counts()

    def test_interval(self):
        view = gray_cylinder(cell(1))
        assert view.nondegenerate_counts() == (4, 6, 1)

    def test_two_simplex(self):
        view = gray_cylinder(cell(2))
        assert len(view.cells(0)) == 6
        # two triangles per square plus the shuffle composites
        assert view.nondegenerate_counts() == (6, 16, 5)

    def test_object_bijection(self):
        for t in cells_up_to(5):
            view = gray_cylinder(t, 0)
            assert len(view.cells(0)) == 2 * (t.width + 1)


def end_functors(t):
    """The end inclusions T -> [1]⊗T at vertex 0 and 1, on tables."""
    max_dim = t.dimension() + 1
    src, tgt = NuView(lambda_cell(t), max_dim), gray_cylinder(t, max_dim)
    return tuple(nu_functor(endpoint_inclusion(t, eps), max_dim,
                            source_view=src, target_view=tgt) for eps in (0, 1))


class TestEndpoints:
    def test_point(self):
        e0, e1 = end_functors(parse_cell("[0]"))
        zero = e0.source_view.cells(0)[0]
        assert e0(zero) != e1(zero)

    def test_disjoint_images(self):
        for s in ("[1]", "[2]", "G2", "[1]([1])", "[2]([1],[0])"):
            t = parse_cell(s)
            e0, e1 = end_functors(t)
            for d in range(t.dimension() + 1):
                img0 = {e0(c) for c in e0.source_view.cells(d)}
                img1 = {e1(c) for c in e1.source_view.cells(d)}
                assert not img0 & img1

    def test_functorial(self):
        t = parse_cell("[1]([1])")
        e0, e1 = end_functors(t)
        assert not check_functors((e0,), t.dimension() + 1)[0]
        assert not check_functors((e1,), t.dimension() + 1)[0]

    def test_factorization_through_outer_pieces(self):
        # the 0-end sits in the unit-last piece, the 1-end in the unit-first
        for s in ("[1]", "[2]", "[1]([1])"):
            t = parse_cell(s)
            diag = lax_shuffle_diagram(t)
            into_first = lambda_map(unit_missing_inclusion(t, "first"))
            into_last = lambda_map(unit_missing_inclusion(t, "last"))
            e0 = endpoint_inclusion(t, 0)
            e1 = endpoint_inclusion(t, 1)
            assert into_last.then(diag[2 * t.width].embed).images == e0.images
            assert into_first.then(diag[0].embed).images == e1.images


def unit_missing_inclusion(t, which):
    """T into the O-piece with the unit slot first or last, missing it."""
    from graycyl.gray import o_cell
    n = t.width
    if which == "first":
        comp = {(i, i + 1): theta_identity(t.children[i - 1]) for i in range(1, n + 1)}
        return theta_morphism(t, o_cell(t, 0), simplicial_coface(n, 0), comp)
    comp = {(i, i): theta_identity(t.children[i - 1]) for i in range(1, n + 1)}
    return theta_morphism(t, o_cell(t, n), simplicial_coface(n, n + 1), comp)


def column_labels(t):
    """The node labels of shuffle_dot(t), in node order."""
    return re.findall(r'^  n\d+ \[label="(.*)"\];$', shuffle_dot(t), re.M)


class TestShuffleDiagram:
    def test_two_simplex_objects(self):
        assert column_labels(cell(2)) == [
            "[3]", "[2]([1],[0])", "[3]", "[2]([0],[1])", "[3]"]

    def test_interval_objects(self):
        assert column_labels(cell(1)) == ["[2]", "[1]([1])", "[2]"]

    def test_point_degenerate(self):
        t = parse_cell("[0]")
        assert column_labels(t) == ["[1]"]
        assert list(gray._spans(t, lax_shuffle_diagram(t))) == []

    def test_column_order(self):
        # callers index the tuple by position: O_j at 2j, M_k at 2k-1
        for t in cells_up_to(6):
            names = ["O0"] + [f"{kind}{k}" for k in range(1, t.width + 1) for kind in "MO"]
            assert [f"{c.kind}{c.index}" for c in lax_shuffle_diagram(t)] == names, str(t)

    def test_embeddings_are_chain_maps(self):
        for s in ("[2]", "[1]([2])", "[2]([1],[0])"):
            for c in lax_shuffle_diagram(parse_cell(s)):
                c.embed.validate()

    def test_corrected_degree_one_generators(self):
        # the cylinder column embeds its end copies with a crossing summand
        m1 = lax_shuffle_diagram(parse_cell("[1]([1])"))[1]
        left_end = image(m1.embed, ("s", 1, ("t", "b0", ("o", 0))))
        right_end = image(m1.embed, ("s", 1, ("t", "t0", ("o", 0))))
        assert left_end == {("t", "b0", ("s", 1, ("o", 0))): 1,
                            ("t", "v1", ("o", 1)): 1}
        assert right_end == {("t", "t0", ("s", 1, ("o", 0))): 1,
                             ("t", "v1", ("o", 0)): 1}
        crossing = image(m1.embed, ("s", 1, ("t", "v1", ("o", 0))))
        assert crossing == {("t", "v1", ("s", 1, ("o", 0))): 1}

    def test_span_legs_commute(self):
        t = parse_cell("[2]([1],[0])")
        K = lambda_cell(t)
        for _, _, col_o, col_m, leg_o, leg_m in gray._spans(t, lax_shuffle_diagram(t)):
            via_o = leg_o.then(col_o.embed)
            via_m = leg_m.then(col_m.embed)
            assert via_o.source is via_m.source is K
            assert all(image(via_o, g) == image(via_m, g) for g in K.names)

    def test_o_legs_match_the_theta_oracle(self):
        # the leg into O_j is a wreath map built from positions; the oracle
        # assembles the face d^k as a Theta morphism and takes its lambda map
        legs = 0
        for t in cells_up_to(7):
            for k, position, col_o, _, leg_o, _ in gray._spans(t, lax_shuffle_diagram(t)):
                want = lambda_map(o_leg_morphism(t, col_o.index, k))
                assert leg_o.source is want.source and leg_o.target is want.target
                assert leg_o.images == want.images, (str(t), k, position)
                legs += 1
        assert legs == 856

    def test_dot_deterministic(self):
        assert shuffle_dot(cell(2)) == shuffle_dot(cell(2))

    def test_span_legs_built_only_by_gluing(self, monkeypatch, capsys, forget_memos):
        calls = []
        real = gray.m_end_leg

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(gray, "m_end_leg", counted)
        t = parse_cell("[2]([1],[1])")
        forget_memos()
        assert main(["verify", "hyperface", str(t)]) == 0
        capsys.readouterr()
        assert calls == []
        assert verify_gluing(t)[0]
        assert len(calls) == 2 * t.width


class TestGluing:
    def test_globes(self):
        for n in range(5):
            assert verify_gluing(globe(n))[0]

    def test_point_trivial(self):
        assert verify_gluing(parse_cell("[0]"))[0]

    def test_five_pieces(self):
        ok, data = verify_gluing(parse_cell("[2]([1],[0])"))
        assert ok and data["overall"] is True
        assert len(data["monos"]) == 5
        assert len(data["spans"]) == 4

    def test_decomposition_corpus(self):
        for s in ("[1]", "[2]", "[3]", "[1]([1])", "[1]([2])", "[2]([1],[0])"):
            t = parse_cell(s)
            assert verify_gluing(t)[0]
            assert verify_globular_preservation(t)[0]

    def test_corpus_up_to_six_nodes(self):
        for t in cells_up_to(6):
            assert verify_gluing(t)[0], str(t)

    def test_corpus_of_eight_nodes(self):
        # the corpus of TestVerifySpan::test_corpus_of_eight_nodes
        cells = cells_with_nodes(8)
        assert len(cells) == 429
        for t in cells:
            assert verify_gluing(t)[0], str(t)
            assert verify_globular_preservation(t)[0], str(t)


class TestGlobularPreservation:
    def test_globe_trivial(self):
        assert verify_globular_preservation(globe(3))[0]

    def test_two_simplex(self):
        assert verify_globular_preservation(cell(2))[0]

    def test_suspended(self):
        assert verify_globular_preservation(parse_cell("[1]([2])"))[0]


class TestHyperfaceCylinder:
    def test_vertical(self):
        t = parse_cell("[1]([1])")
        vertical = [f for f in hyperfaces(t) if f.kind == "vertical"]
        assert vertical
        for f in vertical:
            assert hyperface_cylinder(f)[0]

    def test_outer(self):
        t = cell(2)
        for f in hyperfaces(t):
            if f.kind == "outer":
                assert hyperface_cylinder(f)[0]

    def test_inner_with_nontrivial_child(self):
        t = parse_cell("[2]([1],[0])")
        inner = [f for f in hyperfaces(t) if f.kind == "inner"]
        assert len(inner) == 1
        ok, results = hyperface_cylinder(inner[0])
        assert ok
        assert any(r["mode"] == "span" for r in results)

    def test_pinned_column_order_and_modes(self):
        # the CLI prints only `agree`; the columns checked per face are pinned here
        five = [(c, "exact") for c in ("O0", "O1", "O2", "M1", "M2")]
        three = [(c, "exact") for c in ("O0", "O1", "M1")]
        expected = {
            ("vertical", (1, 0)): five, ("vertical", (1, 1)): five,
            ("outer", (0,)): three, ("outer", (2,)): three,
            ("inner", (1, "after")): [("O0", "exact"), ("O1", "exact"), ("M1", "span")],
        }
        faces = hyperfaces(parse_cell("[2]([1],[0])"))
        assert {(f.kind, f.position): [(r["column"], r["mode"])
                                       for r in hyperface_cylinder(f)[1]]
                for f in faces} == expected
        assert len(faces) == len(expected)

    def test_full_corpus(self):
        for s in ("[2]", "[3]", "[1]([1])", "[2]([1],[0])"):
            for f in hyperfaces(parse_cell(s)):
                assert hyperface_cylinder(f)[0], (s, f.kind, f.position)

    def test_nested_cells(self):
        for s in ("[1]([2])", "[3]([1],[0],[0])", "[2]([2],[0])", "[1]([1]([1]))"):
            for f in hyperfaces(parse_cell(s)):
                assert hyperface_cylinder(f)[0], (s, f.kind, f.position)

    def test_corpus_up_to_seven_nodes(self):
        for t in cells_up_to(7):
            for f in hyperfaces(t):
                assert hyperface_cylinder(f)[0], (str(t), f.kind, f.position)

    def test_corpus_of_eight_nodes(self):
        # the corpus of TestGluing::test_corpus_of_eight_nodes
        faces = [f for t in cells_with_nodes(8) for f in hyperfaces(t)]
        assert len(faces) == 5016
        for f in faces:
            assert hyperface_cylinder(f)[0], (str(f.map.target), f.kind, f.position)

    def test_o_column_maps_match_the_theta_oracle(self):
        # the expected O-column maps are wreath maps of the face's own
        # component maps, read from one table per face; the oracle assembles
        # the Theta morphism and takes its lambda map
        maps = 0
        for t in cells_up_to(7):
            for face in hyperfaces(t):
                f = face.map
                table = gray._face_table(f)
                src, tgt = lax_shuffle_diagram(f.source), lax_shuffle_diagram(f.target)
                for j in range(f.source.width + 1):
                    got = gray._face_between_o_cells(f, table, src, tgt, j, f.image[j])
                    want = lambda_map(o_face_morphism(f, j, f.image[j]))
                    assert got.source is want.source and got.target is want.target
                    assert got.images == want.images, (str(t), face.position, j)
                    maps += 1
        assert maps == 5220

    def test_m_column_maps_match_the_per_column_oracle(self):
        # the M-column maps read the same per-face table; the oracle builds
        # each from the face's components, one column at a time
        maps = 0
        for t in cells_up_to(7):
            for face in hyperfaces(t):
                f = face.map
                table = gray._face_table(f)
                src, tgt = lax_shuffle_diagram(f.source), lax_shuffle_diagram(f.target)
                for i, leg in enumerate(f.legs, start=1):
                    if len(leg) != 1:
                        continue
                    (j, _), = leg
                    got = gray._face_between_m_columns(f, table, src, tgt, i, j)
                    want = m_face_map(f, src, tgt, i, j)
                    assert got.source is want.source and got.target is want.target
                    assert got.images == want.images, (str(t), face.position, i)
                    maps += 1
        assert maps == 3112

    def test_one_table_per_face(self, monkeypatch):
        # over a face, the check reads no O cell and looks each distinct
        # lambda map up once: the face's own, for its cylinder map, and
        # those of its components and of the identity of [0], for its table
        cells = cells_up_to(6)
        faces = [face for t in cells for face in hyperfaces(t)]
        for face in faces:
            lax_shuffle_diagram(face.map.source)
            lax_shuffle_diagram(face.map.target)
        looked_up = []

        def counted(g):
            looked_up.append(g)
            return lambda_map(g)

        def no_o_cell(t, j):
            raise AssertionError("o_cell read by the hyperface check")

        monkeypatch.setattr(gray, "lambda_map", counted)
        monkeypatch.setattr(gray, "o_cell", no_o_cell)
        for face in faces:
            looked_up.clear()
            assert hyperface_cylinder(face)[0]
            f = face.map
            allowed = {f, theta_identity(POINT)} | {g for leg in f.legs for _, g in leg}
            assert len(looked_up) == len(set(looked_up)) == len(allowed)
            assert set(looked_up) == allowed
        assert len(faces) == 502

    def test_steiner_functoriality(self):
        t = parse_cell("[2]([1],[0])")
        for face in hyperfaces(t):
            for face2 in hyperfaces(face.map.source):
                comp = compose(face2.map, face.map)
                lhs = cylinder_map(comp)
                rhs = cylinder_map(face2.map).then(cylinder_map(face.map))
                assert lhs.images == rhs.images


class TestMemoisedDiagram:
    def test_diagram_is_shared(self):
        t = parse_cell("[2]([1],[0])")
        assert lax_shuffle_diagram(t) is lax_shuffle_diagram(t)
        with pytest.raises(AttributeError):
            lax_shuffle_diagram(t)[0].embed = None

    def test_hyperfaces_build_each_diagram_once(self, forget_memos):
        t = parse_cell("[2]([1],[1])")
        faces = hyperfaces(t)
        forget_memos()
        assert all(hyperface_cylinder(f)[0] for f in faces)
        sources = {f.map.source for f in faces}
        assert lax_shuffle_diagram.cache_info().misses <= 1 + len(sources)


class TestOneCylinderBuilder:
    def test_interval_is_shared(self):
        assert interval() is interval()

    def test_interval_is_lambda_of_the_one_simplex(self):
        # L, R and H sit where the objects and the edge of lambda([1]) do,
        # so a map into either complex is read off by position alone
        iv, K = interval(), lambda_cell(cell(1))
        assert iv.names == ("b0", "t0", "v1")
        assert (iv.diff, iv.aug, iv.start) == (K.diff, K.aug, K.start)

    def test_cylinder_parts_are_its_lanes(self):
        for t in cells_up_to(6):
            cyl, names = cylinder_complex(t), lambda_cell(t).names
            assert len(cyl.parts) == 3
            for a, lane in enumerate(cyl.parts):
                assert [cyl.names[y] for y in lane] == \
                    [("t", ("b0", "t0", "v1")[a], g) for g in names]

    def test_hyperfaces_tensor_only_through_cylinder_complex(self, monkeypatch, forget_memos):
        calls = []
        real = dac.tensor

        def counted(K, L):
            calls.append((K, L))
            return real(K, L)

        monkeypatch.setattr(dac, "tensor", counted)
        monkeypatch.setattr(gray, "tensor", counted)
        forget_memos()
        faces = hyperfaces(parse_cell("[2]([1],[1])"))
        for f in faces:
            hyperface_cylinder(f)
        assert calls and len(calls) == cylinder_complex.cache_info().misses
        f = faces[0].map
        assert cylinder_map(f).source is cylinder_complex(f.source)

    @pytest.mark.parametrize("argv", [
        # an 8-node item that reads a cylinder again after 10 others
        ["verify", "hyperface", "[2]([1],[1]([2]([0],[1])))"],
        # a 7-node item that reads the cylinder of [1] again after 12 others
        ["verify", "all", "[2]([0],[1]([2]([0],[1])))"],
    ], ids=["hyperface", "all"])
    def test_one_tensor_per_cylinder_in_a_process(self, monkeypatch, capsys, forget_memos, argv):
        forget_memos()
        builds, touched = [], set()
        real_tensor, real_cylinder = gray.tensor, gray.cylinder_complex

        def counted(K, L):
            builds.append(L)
            return real_tensor(K, L)

        def cylinder(u):
            touched.add(u)
            return real_cylinder(u)

        monkeypatch.setattr(gray, "tensor", counted)
        monkeypatch.setattr(gray, "cylinder_complex", cylinder)
        monkeypatch.setattr(span, "cylinder_complex", cylinder)
        for _ in range(2):
            assert main(argv) == 0
        capsys.readouterr()
        assert len(touched) == 13
        assert len(builds) == len(touched)

    def test_maps_run_between_the_shared_complexes(self):
        for t in cells_up_to(6):
            for face in hyperfaces(t):
                f = face.map
                lam, cyl = lambda_map(f), cylinder_map(f)
                assert lam.source is lambda_cell(f.source) and lam.target is lambda_cell(f.target)
                assert cyl.source is cylinder_complex(f.source)
                assert cyl.target is cylinder_complex(f.target)

    def test_cylinder_map_on_objects_and_edges(self):
        f = parse_morphism({
            "source": "[1]([2])", "target": "[2]([1],[1])", "base": [0, 2],
            "components": {"1,1": {"base": [0, 1, 1]}, "1,2": {"base": [0, 0, 1]}}})
        steiner = cylinder_map(f)
        # the crossing 1-cells h⊗o_p go to h⊗o_f(p)
        for p in (0, 1):
            img = combine(steiner.images, row(steiner.source, {("t", "v1", ("o", p)): 1}))
            assert element(steiner.target, img) == {("t", "v1", ("o", f.base(p))): 1}
        # the lane edges b0⊗(1|o_a) go to the path through the component images
        for a in range(f.source.children[0].width + 1):
            edge = row(steiner.source, {("t", "b0", ("s", 1, ("o", a))): 1})
            img = combine(steiner.images, edge)
            want = {("t", "b0", ("s", j, ("o", comp.base(a)))): 1
                    for (i, j), comp in f.components}
            assert element(steiner.target, img) == want


class TestColumnsValidatedOnce:
    """A cell's column embeddings pass validate() when its diagram is built,
    and the diagram is built once per cell in the process."""

    def test_wrong_column_fails_on_first_build(self, monkeypatch, capsys, forget_memos):
        t = parse_cell("[2]([1],[0])")
        real = gray._o_embedding

        def perturbed(u, j, cyl):
            embed = real(u, j, cyl)
            # object 0 of O_0 goes nowhere: the augmentation breaks
            return with_image(embed, ("o", 0), {}) if j == 0 else embed

        monkeypatch.setattr(gray, "_o_embedding", perturbed)
        for run in (lambda: lax_shuffle_diagram(t),
                    lambda: main(["verify", "gray", str(t)]),
                    lambda: main(["verify", "hyperface", str(t)])):
            forget_memos()
            with pytest.raises(MorphismError, match="augmentation"):
                run()
        monkeypatch.undo()
        forget_memos()
        assert main(["verify", "gray", str(t)]) == 0
        capsys.readouterr()

    def test_each_column_validated_once(self, monkeypatch, capsys, forget_memos):
        t = parse_cell("[2]([1],[1])")
        validated = []
        real = DAMorphism.validate

        def counted(m):
            validated.append(m)
            return real(m)

        monkeypatch.setattr(DAMorphism, "validate", counted)
        forget_memos()
        for _ in range(2):
            assert main(["verify", "hyperface", str(t)]) == 0
        capsys.readouterr()
        cells = {t} | {f.map.source for f in hyperfaces(t)}
        assert lax_shuffle_diagram.cache_info().misses == len(cells)
        columns = [c.embed for u in cells for c in lax_shuffle_diagram(u)]
        assert len(validated) == len(columns)
        assert {id(m) for m in validated} == {id(m) for m in columns}


class TestPerturbedInputsFail:
    """Each verifier fails on a perturbed copy of one of its inputs, and the
    shared builders it reads stay unperturbed."""

    def test_gluing_column_embedding(self, monkeypatch):
        t = parse_cell("[2]([1],[0])")
        real = gray.lax_shuffle_diagram

        def perturbed(u):
            diag = real(u)
            col = diag[1]                       # M_1
            # send object 0 where object 1 goes: no longer injective
            embed = with_image(col.embed, ("o", 0), image(col.embed, ("o", 1)))
            return tuple(ShuffleColumn(c.kind, c.index, embed) if c is col else c
                         for c in diag)

        monkeypatch.setattr(gray, "lax_shuffle_diagram", perturbed)
        ok, data = verify_gluing(t)
        assert not ok and not data["overall"] and not data["monos"]["M1"]
        monkeypatch.undo()
        assert verify_gluing(t)[0]

    def test_gluing_span_leg(self, monkeypatch):
        t = parse_cell("[2]([1],[0])")
        real = gray.m_end_leg

        def perturbed(u, m, eps):
            leg = real(u, m, eps)
            if (m.index, eps) == (1, 1):        # the leg of the first span
                leg = with_image(leg, ("o", 0), image(leg, ("o", 1)))
            return leg

        monkeypatch.setattr(gray, "m_end_leg", perturbed)
        ok, data = verify_gluing(t)
        assert not ok and not data["overall"] and not data["spans"][0]["commutes"]
        monkeypatch.undo()
        assert verify_gluing(t)[0]

    def test_gluing_o_leg_builder(self, monkeypatch):
        # the leg of the first span skips vertex 0 of O_0 in place of vertex
        # 1: a face of the same cells, so only that span fails
        t = parse_cell("[2]([1],[0])")
        real = gray._o_leg

        def perturbed(u, j, k, tgt, ids):
            return real(u, j, 0 if (j, k) == (0, 1) else k, tgt, ids)

        monkeypatch.setattr(gray, "_o_leg", perturbed)
        ok, data = verify_gluing(t)
        assert not ok and all(data["monos"].values()) and all(data["coverage"].values())
        assert [(s["level"], s["position"], s["commutes"], s["pullback"])
                for s in data["spans"]] == [
            (1, "upper", False, False), (1, "lower", True, True),
            (2, "upper", True, True), (2, "lower", True, True)]
        monkeypatch.undo()
        assert verify_gluing(t)[0]

    def test_gluing_coverage(self, monkeypatch):
        t = parse_cell("[2]([1],[0])")
        real = gray.lax_shuffle_diagram
        crossing = ("s", 1, ("t", "v1", ("o", 0)))

        def perturbed(u):
            diag = real(u)
            col = diag[1]                       # M_1
            # only M_1 reaches the crossing generator h⊗(1|o0) of the cylinder
            embed = with_image(col.embed, crossing, {})
            return tuple(ShuffleColumn(c.kind, c.index, embed) if c is col else c
                         for c in diag)

        monkeypatch.setattr(gray, "lax_shuffle_diagram", perturbed)
        ok, data = verify_gluing(t)
        assert not ok and not data["coverage"]["2"]
        assert all(v for d, v in data["coverage"].items() if d != "2")
        monkeypatch.undo()
        assert verify_gluing(t)[0]

    def test_gluing_pullback(self, monkeypatch):
        t = parse_cell("[2]([1],[0])")
        real = gray._spans
        edge = ("s", 1, ("o", 0))

        def perturbed(u, columns):
            (k, position, col_o, col_m, leg_o, leg_m), *rest = real(u, columns)
            # both legs drop the same edge: the square still commutes, but
            # the span no longer maps onto the intersection of its columns
            return [(k, position, col_o, col_m,
                     with_image(leg_o, edge, {}), with_image(leg_m, edge, {}))] + rest

        monkeypatch.setattr(gray, "_spans", perturbed)
        ok, data = verify_gluing(t)
        assert not ok
        assert data["spans"][0]["commutes"] and not data["spans"][0]["pullback"]
        assert all(s["commutes"] and s["pullback"] for s in data["spans"][1:])
        monkeypatch.undo()
        assert verify_gluing(t)[0]

    def test_globular_meet_piece(self, monkeypatch):
        # the leaves of [2] meet in vertex 1, not in vertex 0
        real = gray.globular_sum

        def perturbed(u):
            leaves, meets = real(u)
            return leaves, [(0, vertex(u, 0))] + meets[1:]

        monkeypatch.setattr(gray, "globular_sum", perturbed)
        assert not verify_globular_preservation(cell(2))[0]
        monkeypatch.undo()
        assert verify_globular_preservation(cell(2))[0]

    def test_globular_leaf_piece(self, monkeypatch):
        t = parse_cell("[2]([1],[0])")
        real = gray.globular_sum

        def perturbed(u):
            # the second leaf piece becomes a copy of the first
            leaves, meets = real(u)
            return [leaves[0], leaves[0]] + leaves[2:], meets

        monkeypatch.setattr(gray, "globular_sum", perturbed)
        assert not verify_globular_preservation(t)[0]
        monkeypatch.undo()
        assert verify_globular_preservation(t)[0]

    @pytest.mark.parametrize("kind", ["vertical", "outer", "inner"])
    def test_hyperface_column_map(self, monkeypatch, kind):
        face = next(f for f in hyperfaces(parse_cell("[2]([1],[0])")) if f.kind == kind)
        real = gray._column_maps

        def perturbed(*args):
            (col_s, col_t, m), *rest = real(*args)
            return [(col_s, col_t, with_image(m, ("o", 0), {}))] + rest

        monkeypatch.setattr(gray, "_column_maps", perturbed)
        ok, results = hyperface_cylinder(face)
        assert not ok and not results[0]["ok"]
        monkeypatch.undo()
        assert hyperface_cylinder(face)[0]

    def test_hyperface_o_column_builder(self, monkeypatch):
        # the builder of O1's map reads the component [0] -> [1] at the
        # wrong vertex from the face's table; the cylinder map, the other
        # O columns and the M columns read the table as it is
        face = next(f for f in hyperfaces(parse_cell("[2]([1],[0])"))
                    if f.position == (1, 0))
        assert component(face.map, 1, 1) is as_oracle(vertex(cell(1), 1))
        wrong = lambda_map(vertex(cell(1), 0))
        real = gray._face_between_o_cells

        def perturbed(f, table, src, tgt, js, jt):
            if js == 1:
                legs, unit = table
                table = [[(1, wrong)]] + legs[1:], unit
            return real(f, table, src, tgt, js, jt)

        monkeypatch.setattr(gray, "_face_between_o_cells", perturbed)
        ok, results = hyperface_cylinder(face)
        assert not ok
        assert [(r["column"], r["ok"]) for r in results] == [
            ("O0", True), ("O1", False), ("O2", True), ("M1", True), ("M2", True)]
        monkeypatch.undo()
        assert hyperface_cylinder(face)[0]

    def test_hyperface_span_column(self, monkeypatch):
        face = next(f for f in hyperfaces(parse_cell("[2]([1],[0])")) if f.kind == "inner")
        real = gray._column_maps

        def perturbed(*args):
            # the column over two segments loses O_k and M_{k+1}
            return [(col_s, col_t if m is not None else col_t[:1], m)
                    for col_s, col_t, m in real(*args)]

        monkeypatch.setattr(gray, "_column_maps", perturbed)
        ok, results = hyperface_cylinder(face)
        assert not ok
        assert [(r["column"], r["mode"], r["ok"]) for r in results] == [
            ("O0", "exact", True), ("O1", "exact", True), ("M1", "span", False)]
        monkeypatch.undo()
        assert hyperface_cylinder(face)[0]


class TestFacePreconditions:
    def test_misaligned_unit_slots(self):
        face = next(f for f in hyperfaces(cell(2)) if f.position == (0,))
        assert face.map.image[0] == 1
        src = lax_shuffle_diagram(face.map.source)
        tgt = lax_shuffle_diagram(face.map.target)
        with pytest.raises(ValueError, match="unit slots"):
            gray._face_between_o_cells(face.map, gray._face_table(face.map), src, tgt, 0, 0)

    def test_cylinder_slot_elsewhere(self):
        face = next(f for f in hyperfaces(cell(2)) if f.position == (0,))
        src = lax_shuffle_diagram(face.map.source)
        tgt = lax_shuffle_diagram(face.map.target)
        with pytest.raises(ValueError, match="cylinder slot"):
            gray._face_between_m_columns(face.map, gray._face_table(face.map), src, tgt, 1, 1)
