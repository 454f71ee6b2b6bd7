from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graycyl import dac, gray, theta
from graycyl.cli import main
from graycyl.dac import (ComplexError, DAMorphism, MorphismError, check_basis,
                         composites_agree, lambda_cell, lambda_globe, lambda_map,
                         morphisms_agree, sign_split, tensor, wreath_complex)
from graycyl.gray import (cylinder_complex, cylinder_map, hyperface_cylinder,
                          lax_shuffle_diagram)
from graycyl.span import mirror_positions, projection_to_cell, projection_to_interval, shift_map
from graycyl.theta import (POINT, cell, cells_up_to, globe, hyperfaces, parse_cell,
                           theta_identity, vertex)

from oracles import (amalgamate_with_inclusions, amalgamation_over_globular_sum,
                     augmentations, boundaries, boundary, codegeneracy, combine, compose,
                     degree_of, degrees, element, find_isomorphism, gadd, globe_inclusion,
                     identity_morphism, image, named_complex, named_morphism, names_of,
                     position, positions_by_name, row, simplicial_coface, size_profile,
                     then_by_dict, theta_morphism, violations_by_dict)


def ordered_renaming_equal(K, L):
    """Order-preserving degree-wise renaming commuting with d and e."""
    if size_profile(K) != size_profile(L):
        return False
    # positions run through the bases degree by degree, so the renaming
    # keeps every position
    return K.diff == L.diff and K.aug == L.aug


def globe_by_names(n: int):
    """The globe complex stated by generator names: the oracle of
    lambda_globe, which builds it from position rows."""
    if n == 0:
        return named_complex((("b0",),), {}, {"b0": 1})
    bases = tuple((f"b{k}", f"t{k}") if k < n else (f"v{n}",) for k in range(n + 1))
    diff = {}
    for k in range(1, n):
        diff[f"b{k}"] = diff[f"t{k}"] = {f"t{k - 1}": 1, f"b{k - 1}": -1}
    diff[f"v{n}"] = {f"t{n - 1}": 1, f"b{n - 1}": -1}
    return named_complex(bases, diff, {"b0": 1, "t0": 1})


class TestLambdaGlobe:
    def test_matches_statement_by_names(self):
        for n in range(7):
            K, want = lambda_globe(n), globe_by_names(n)
            assert K.names == want.names and K.start == want.start
            assert K.diff == want.diff and K.aug == want.aug
            assert boundaries(K) == boundaries(want)

    def test_zero(self):
        K = lambda_globe(0)
        assert size_profile(K) == (1,)
        assert K.e(row(K, {"b0": 1})) == 1

    def test_one(self):
        K = lambda_globe(1)
        assert size_profile(K) == (2, 1)
        assert boundary(K, "v1") == {"t0": 1, "b0": -1}

    def test_two_matrices(self):
        K = lambda_globe(2)
        assert size_profile(K) == (2, 2, 1)
        assert boundary(K, "v2") == {"t1": 1, "b1": -1}
        assert boundary(K, "b1") == boundary(K, "t1") == {"t0": 1, "b0": -1}
        K.validate()


class TestLambda:
    def test_simplex(self):
        K = lambda_cell(cell(2))
        assert size_profile(K) == (3, 2)
        for i in (1, 2):
            assert boundary(K, ("s", i, ("o", 0))) == {("o", i): 1, ("o", i - 1): -1}

    def test_suspended_simplex(self):
        assert size_profile(lambda_cell(parse_cell("[1]([2])"))) == (2, 3, 2)

    def test_globes_match_lambda_globe(self):
        for n in range(6):
            assert ordered_renaming_equal(lambda_cell(globe(n)), lambda_globe(n))

    def test_corpus_valid(self):
        for t in cells_up_to(7):
            lambda_cell(t).validate()


class TestLambdaMap:
    def test_identity(self):
        for t in cells_up_to(6):
            m = lambda_map(theta_identity(t))
            assert m.images == identity_morphism(lambda_cell(t)).images

    def test_hyperfaces_build_each_identity_once(self, monkeypatch, capsys):
        built = Counter()      # by hash, so the count keeps no morphism alive
        real = dac._lambda_map

        def counted(f):
            if f is theta_identity(f.source):
                built[hash(f)] += 1
            return real(f)

        monkeypatch.setattr(dac, "_lambda_map", counted)
        monkeypatch.setattr(theta, "_IDENTITIES", {})
        for t in cells_up_to(5):
            assert main(["verify", "hyperface", str(t)]) == 0
        capsys.readouterr()
        assert built
        assert set(built.values()) == {1}

    def test_degeneracy_kills(self):
        f = theta_morphism(cell(1), POINT, codegeneracy(1, 0), {})
        m = lambda_map(f).validate()
        assert image(m, ("s", 1, ("o", 0))) == {}

    def test_inner_coface_sum(self):
        comp = {(1, 1): theta_identity(POINT), (1, 2): theta_identity(POINT),
                (2, 3): theta_identity(POINT)}
        f = theta_morphism(cell(2), cell(3), simplicial_coface(2, 1), comp)
        m = lambda_map(f).validate()
        assert image(m, ("s", 1, ("o", 0))) == {("s", 1, ("o", 0)): 1, ("s", 2, ("o", 0)): 1}

    def test_functorial_on_faces(self):
        for face in hyperfaces(parse_cell("[2]([1],[0])")):
            for face2 in hyperfaces(face.map.source):
                comp = compose(face2.map, face.map)
                lhs = lambda_map(comp)
                rhs = lambda_map(face2.map).then(lambda_map(face.map))
                assert lhs.images == rhs.images

    def test_composes_only_through_the_same_complex(self):
        f = hyperfaces(parse_cell("[2]([1],[0])"))[0].map
        K = lambda_cell(f.target)
        copy = wreath_complex([lambda_cell(c) for c in f.target.children])
        assert copy.to_json() == K.to_json()
        assert lambda_map(f).then(identity_morphism(K)).images == lambda_map(f).images
        with pytest.raises(MorphismError, match="composition mismatch"):
            lambda_map(f).then(identity_morphism(copy))

    def test_agrees_only_between_the_same_complexes(self):
        # positions mean something only within one complex, so an equal but
        # separately built target is refused, not compared
        f = hyperfaces(parse_cell("[2]([1],[0])"))[0].map
        m = lambda_map(f)
        copy = wreath_complex([lambda_cell(c) for c in f.target.children])
        assert copy.to_json() == m.target.to_json()
        moved = DAMorphism(m.source, copy, m.images)
        assert morphisms_agree(m, lambda_map(f))
        for a, b in ((m, moved), (moved, m)):
            with pytest.raises(MorphismError, match="different complexes"):
                morphisms_agree(a, b)
        source_copy = wreath_complex([lambda_cell(c) for c in f.source.children])
        with pytest.raises(MorphismError, match="different complexes"):
            morphisms_agree(m, DAMorphism(source_copy, m.target, m.images))

    def test_all_face_maps_valid(self):
        for t in cells_up_to(6):
            for face in hyperfaces(t):
                lambda_map(face.map).validate()

    def test_built_once_per_distinct_morphism(self, monkeypatch, forget_memos):
        # with the memos dropped, no identity or bang holds a lambda map yet
        built = Counter()      # also keeps every morphism built alive
        real = dac._lambda_map

        def counted(f):
            built[f] += 1
            return real(f)

        monkeypatch.setattr(dac, "_lambda_map", counted)
        forget_memos()
        faces = hyperfaces(parse_cell("[2]([1],[0])"))
        for _ in range(2):
            for face in faces:
                assert lambda_map(face.map) is lambda_map(face.map)
                assert hyperface_cylinder(face)[0]
        reachable, todo = set(), [face.map for face in faces]
        while todo:
            f = todo.pop()
            if f not in reachable:
                reachable.add(f)
                todo.extend(m for leg in f.legs for _, m in leg)
        assert reachable == set(built)
        assert set(built.values()) == {1}


class TestMissingImage:
    """A morphism stated by names that leaves out a generator."""

    def test_missing_generator_is_reported_and_skips_its_coboundary(self):
        K = lambda_cell(cell(3))
        o1, e1, e3 = ("o", 1), ("s", 1, ("o", 0)), ("s", 3, ("o", 0))
        images = {g: {g: 1} for g in K.names if g != o1}
        # both edges go to the middle edge: neither is a chain map there
        images[e1] = images[e3] = {("s", 2, ("o", 0)): 1}
        m = named_morphism(K, K, images)
        assert image(m, o1) is None and m.images[position(K, o1)] is None
        # the boundary of e1 holds o1, so only e3 is chain-checked
        assert m.violations() == [("missing", o1), ("chain", e3)]
        with pytest.raises(MorphismError, match=r"^no image for \('o', 1\)$"):
            m.validate()

    def test_complete_statement_has_no_missing_image(self):
        K = lambda_cell(cell(3))
        m = named_morphism(K, K, {g: {g: 1} for g in K.names})
        assert m.violations() == []
        assert m.images == identity_morphism(K).images


O0, O1, O2 = ("o", 0), ("o", 1), ("o", 2)
S1, S2 = ("s", 1, ("o", 0)), ("s", 2, ("o", 0))
# interval -> lambda([2]) with every image one entry, and with the edge
# sent over both segments; both are morphisms
ONE_ENTRY = {"b0": {O0: 1}, "t0": {O1: 1}, "v1": {S1: 1}}
MULTI_ENTRY = {"b0": {O0: 1}, "t0": {O2: 1}, "v1": {S1: 1, S2: 1}}
# the 2-globe -> lambda([2]), whose top degree is 1: the top goes to 0
ABOVE_TOP = {"b0": {O0: 1}, "t0": {O2: 1}, "b1": {S1: 1, S2: 1}, "t1": {S1: 1, S2: 1},
             "v2": {}}


class TestViolations:
    """violations reads a one-entry image from its pair and a longer one
    entry by entry; both paths report the same kinds, in the same order,
    as the dict oracle, which reads every image one way."""

    @pytest.mark.parametrize("statement, changes, want", [
        (ONE_ENTRY, {"t0": None}, [("missing", "t0")]),
        (MULTI_ENTRY, {"t0": None}, [("missing", "t0")]),
        (ONE_ENTRY, {"v1": {S1: -1}}, [("negative", "v1"), ("chain", "v1")]),
        (MULTI_ENTRY, {"b0": {O0: 1, O1: 1, O2: -1}}, [("negative", "b0"), ("chain", "v1")]),
        (ONE_ENTRY, {"b0": {S1: 1}},
         [("degree", "b0"), ("augmentation", "b0"), ("chain", "v1")]),
        (MULTI_ENTRY, {"v1": {O1: 1, S2: 1}}, [("degree", "v1"), ("chain", "v1")]),
        (ABOVE_TOP, {"v2": {S1: 1}}, [("degree", "v2"), ("chain", "v2")]),
        (ABOVE_TOP, {"v2": {S1: 1, S2: 1}}, [("degree", "v2"), ("chain", "v2")]),
        (ONE_ENTRY, {"b0": {O0: 2}}, [("augmentation", "b0"), ("chain", "v1")]),
        (ONE_ENTRY, {"b0": {}}, [("augmentation", "b0"), ("chain", "v1")]),
        (MULTI_ENTRY, {"t0": {O1: 1, O2: 1}}, [("augmentation", "t0"), ("chain", "v1")]),
        (ONE_ENTRY, {"v1": {S2: 1}}, [("chain", "v1")]),
        (MULTI_ENTRY, {"t0": {O1: 1}}, [("chain", "v1")]),
        (ONE_ENTRY, {}, []),
        (MULTI_ENTRY, {}, []),
        (ABOVE_TOP, {}, []),
    ], ids=["missing-one", "missing-multi", "negative-one", "negative-multi", "degree-one",
            "degree-multi", "degree-above-top-one", "degree-above-top-multi",
            "augmentation-one", "augmentation-empty", "augmentation-multi", "chain-one",
            "chain-multi", "morphism-one", "morphism-multi", "morphism-above-top"])
    def test_each_kind_on_both_paths(self, statement, changes, want):
        src = lambda_globe(2 if statement is ABOVE_TOP else 1)
        images = {g: img for g, img in {**statement, **changes}.items() if img is not None}
        m = named_morphism(src, lambda_cell(cell(2)), images)
        assert m.violations() == want
        assert violations_by_dict(m) == want

    def test_a_position_outside_the_target_is_of_the_wrong_degree(self):
        # t0 goes to position 7 of a complex of 3 generators: its degree is
        # wrong, and its augmentation and boundary cannot be read; v1's
        # boundary now holds that position, so v1 breaks the chain condition
        G = lambda_globe(1)
        m = DAMorphism(G, G, (((0, 1),), ((7, 1),), ((2, 1),)))
        assert m.violations() == violations_by_dict(m) == [("degree", "t0"), ("chain", "v1")]
        with pytest.raises(MorphismError, match="wrong degree"):
            m.validate()
        # on the multi-entry path, and below position 0
        for img in (((1, 1), (7, 1)), ((-1, 1),), ((-1, 1), (1, 1))):
            m = DAMorphism(G, G, (((0, 1),), img, ((2, 1),)))
            assert m.violations() == violations_by_dict(m) == [("degree", "t0"),
                                                               ("chain", "v1")]

    def test_corpus_matches_the_oracle(self):
        # the column embeddings, the span's legs and the face maps, as
        # built and with every coefficient doubled
        maps = 0
        for t in cells_up_to(6):
            legs = (projection_to_interval(t), projection_to_cell(t),
                    shift_map(t, *mirror_positions(t)))
            faces = tuple(lambda_map(face.map) for face in hyperfaces(t))
            for m in tuple(c.embed for c in lax_shuffle_diagram(t)) + legs + faces:
                assert m.violations() == violations_by_dict(m) == []
                bad = doubled(m)
                assert bad.violations() == violations_by_dict(bad) != []
                maps += 1
        assert maps == 1024


def doubled(m: DAMorphism) -> DAMorphism:
    """m with every coefficient doubled."""
    return DAMorphism(m.source, m.target, tuple(
        None if x is None else tuple([(h, 2 * c) for h, c in x]) for x in m.images))


def sorted_rows(rows):
    """{position: coefficient} dicts (or None) as sparse rows."""
    return tuple(None if r is None else tuple(sorted(r.items())) for r in rows)


ROWS = st.lists(st.one_of(st.none(), st.dictionaries(st.integers(0, 9),
                                                     st.integers(-4, 4).filter(bool),
                                                     max_size=6)),
                min_size=1, max_size=6).map(sorted_rows)


class TestCombine:
    """The row kernel sorts the scaled rows together and merges equal
    positions; the oracle adds them up in a dict."""

    @given(st.data())
    @settings(max_examples=500, deadline=None)
    def test_matches_the_dict_oracle(self, data):
        rows = data.draw(ROWS)
        x = data.draw(st.dictionaries(st.integers(0, len(rows) - 1),
                                      st.integers(-3, 3).filter(bool), max_size=6))
        x = tuple(sorted(x.items()))
        assert dac._combine(rows, x) == combine(rows, x)

    def test_cancellation(self):
        rows = (((0, 1), (3, 2)), ((0, 1), (3, 2)), ((4, 1),), ((4, -1),), ((4, 2),))
        assert dac._combine(rows, ((0, 1), (1, -1))) == ()
        assert dac._combine(rows, ((0, 2), (1, -1))) == ((0, 1), (3, 2))
        # a position that cancels to zero and then comes back
        assert dac._combine(rows, ((2, 1), (3, 1), (4, 1))) == ((4, 2),)
        assert dac._combine(rows, ((0, -3), (2, 1), (3, 1))) == ((0, -3), (3, -6))
        # a malformed row below position 0, which violations may meet
        rows = (((-1, 1),), ((-1, -1), (0, 1)), ((-1, 1),))
        for x in (((0, 1), (1, 1)), ((0, 1), (1, 1), (2, 1)), ((1, 2), (2, 1))):
            assert dac._combine(rows, x) == combine(rows, x)

    def test_none_row(self):
        rows = (None, ((0, 1),), ((1, 2),))
        assert dac._combine(rows, ((0, 1),)) is None
        assert dac._combine(rows, ((1, 1), (0, 2))) is None
        # then and composites_agree: a None row, and a row meeting one
        K = lambda_globe(1)
        a = DAMorphism(K, K, (None, ((1, 1),), ((0, 1), (1, 1))))
        b = DAMorphism(K, K, (None, ((0, 1),), ((2, 1),)))
        assert a.then(b).images == then_by_dict(a, b).images == (None, ((0, 1),), None)
        assert composites_agree(a, b, a, b)
        assert not composites_agree(a, b, b, a)


class TestComposites:
    """then and composites_agree read a unit row as the row it picks and
    merge the rest by the kernel; on every map the checks compose over the
    cells with at most 6 nodes they match the composites built by the dict
    oracle."""

    def test_column_embeddings(self):
        composites = 0
        for t in cells_up_to(6):
            columns = lax_shuffle_diagram(t)
            legs = (projection_to_interval(t), projection_to_cell(t),
                    shift_map(t, *mirror_positions(t)))
            pairs = [(c.embed, leg) for c in columns for leg in legs]
            pairs += [pair for _, _, col_o, col_m, leg_o, leg_m in gray._spans(t, columns)
                      for pair in ((leg_o, col_o.embed), (leg_m, col_m.embed))]
            for a, b in pairs:
                assert a.then(b).images == then_by_dict(a, b).images
                composites += 1
        assert composites == 1505

    def test_hyperface_squares(self):
        verdicts = Counter()
        for t in cells_up_to(6):
            for face in hyperfaces(t):
                f = face.map
                src, tgt = lax_shuffle_diagram(f.source), lax_shuffle_diagram(f.target)
                steiner = cylinder_map(f)
                for col_s, col_t, m in gray._column_maps(f, src, tgt):
                    want = then_by_dict(col_s.embed, steiner).images
                    assert col_s.embed.then(steiner).images == want
                    if m is None:
                        continue
                    for n in (m, doubled(m)):
                        agree = composites_agree(col_s.embed, steiner, n, col_t.embed)
                        assert agree == (want == then_by_dict(n, col_t.embed).images)
                        verdicts[agree] += 1
        assert verdicts == {True: 2068, False: 2068}


class TestTensor:
    def test_unit(self):
        K = lambda_globe(1)
        T = tensor(K, lambda_globe(0))
        assert size_profile(T) == size_profile(K)
        for g in T.names:
            assert g[2] == "b0"
            d_renamed = {h[1]: c for h, c in boundary(T, g).items()}
            assert d_renamed == boundary(K, g[1])

    def test_interval_times_two_globe(self):
        T = tensor(lambda_globe(1), lambda_globe(2)).validate()
        assert size_profile(T) == (4, 6, 4, 1)
        d = boundary(T, ("t", "v1", "b1"))
        assert set(d) == {("t", "b0", "b1"), ("t", "t0", "b1"),
                          ("t", "v1", "b0"), ("t", "v1", "t0")}

    def test_degree_size_convolution(self):
        for a in (lambda_globe(2), lambda_cell(parse_cell("[2]([1],[0])"))):
            for b in (lambda_globe(1), lambda_cell(cell(2))):
                T = tensor(a, b)
                for n in range(T.top_degree + 1):
                    want = sum(len(a.basis(i)) * len(b.basis(n - i)) for i in range(n + 1))
                    assert len(T.basis(n)) == want

    def test_associativity_bijection(self):
        def reassoc(name):
            _, ab, c = name
            _, a, b = ab
            return ("t", a, ("t", b, c))

        gl = [lambda_globe(n) for n in range(3)]
        for x in gl:
            for y in gl:
                for z in gl:
                    left = tensor(tensor(x, y), z)
                    right = tensor(x, tensor(y, z))
                    for g in left.names:
                        h = reassoc(g)
                        assert degree_of(right, h) == degree_of(left, g)
                        moved = {reassoc(k): v for k, v in boundary(left, g).items()}
                        assert moved == boundary(right, h)
                        if degree_of(left, g) == 0:
                            assert augmentations(left)[g] == augmentations(right)[h]

    def test_tensor_of_morphisms_chain(self):
        f = next(h.map for h in hyperfaces(cell(2)) if h.kind == "inner")
        m = cylinder_map(f)
        m.validate()


class TestSignSplit:
    def test_zero(self):
        assert sign_split(()) == ((), ())

    def test_interval_boundary_split(self):
        K = lambda_globe(1)
        plus, minus = sign_split(K.diff[position(K, "v1")])
        assert element(K, plus) == {"t0": 1} and element(K, minus) == {"b0": 1}

    def test_direct(self):
        plus, minus = sign_split(((0, 2), (1, -3), (2, 1)))
        assert plus == ((0, 2), (2, 1)) and minus == ((1, 3),)

    @given(st.dictionaries(st.integers(0, 7), st.integers(-9, 9), max_size=8))
    @settings(max_examples=500, deadline=None)
    def test_recombination(self, acc):
        x = tuple(sorted((k, v) for k, v in acc.items() if v))
        plus, minus = sign_split(x)
        assert gadd(plus, [(k, -v) for k, v in minus]) == x
        assert not dict(plus).keys() & dict(minus).keys()


def atom(K, g):
    """K's atom table <g>: its bitmask rows, or None."""
    return K.atoms[position(K, g)]


def atom_rows(K, g):
    """The rows of K's atom table <g> as (neg, pos) lists of generators."""
    return tuple((names_of(K, neg), names_of(K, pos)) for neg, pos in atom(K, g))


class TestAtoms:
    def test_interval_top(self):
        K = lambda_globe(1)
        assert atom_rows(K, "v1") == ((["b0"], ["t0"]), (["v1"], ["v1"]))

    def test_two_globe_top(self):
        K = lambda_globe(2)
        assert atom_rows(K, "v2") == ((["b0"], ["t0"]), (["b1"], ["t1"]), (["v2"], ["v2"]))

    def test_degree_zero(self):
        K = lambda_globe(2)
        assert atom_rows(K, "b0") == ((["b0"], ["b0"]),)

    def test_unknown_generator(self):
        with pytest.raises(KeyError):
            atom(lambda_globe(1), "zz")

    def test_complex_keeps_bitmask_rows(self):
        K = lambda_globe(2)
        bit = {g: 1 << i for g, i in positions_by_name(K).items()}
        assert atom(K, "v2") == ((bit["b0"], bit["t0"]), (bit["b1"], bit["t1"]),
                                 (bit["v2"], bit["v2"]))

    def test_square_top(self):
        # the top square of [1]⊗[1]: sources and targets of two paths
        K = tensor(lambda_globe(1), lambda_globe(1))
        top = ("t", "v1", "v1")
        assert atom_rows(K, top) == (
            ([("t", "b0", "b0")], [("t", "t0", "t0")]),
            ([("t", "b0", "v1"), ("t", "v1", "t0")], [("t", "t0", "v1"), ("t", "v1", "b0")]),
            ([top], [top]))

    def test_coefficient_two_is_not_a_valid_atom(self):
        o0, o1, x = ("o", 0), ("o", 1), ("x", 0)
        K = named_complex(((o0, o1), (x,)), {x: {o1: 2, o0: -2}}, {o0: 1, o1: 1}).validate()
        assert atom(K, o0) is not None and atom(K, x) is None
        assert check_basis(K)[0] is False


def named_atom(K, g):
    """<g> by its definition on elements: (neg, pos) sets of generator
    names from degree 0 up, or None where it is not a table of nu."""
    neg = pos = row(K, {g: 1})
    rows = [(neg, pos)]
    for _ in range(degree_of(K, g)):
        neg, pos = sign_split(K.d(neg))[1], sign_split(K.d(pos))[0]
        rows.append((neg, pos))
    rows.reverse()
    if K.e(rows[0][0]) != 1 or K.e(rows[0][1]) != 1:
        return None
    if any(c != 1 for pair in rows for x in pair for _, c in x):
        return None
    return tuple((set(element(K, n)), set(element(K, p))) for n, p in rows)


def built_complexes(t):
    """The complexes the builders make for t: lambda, the cylinder and the
    complexes of the shuffle columns."""
    yield lambda_cell(t)
    yield cylinder_complex(t)
    for column in lax_shuffle_diagram(t):
        yield column.embed.source


class TestGenIndex:
    """The one numbering of a complex's generators: names by position, and
    the positions of degree d from start[d] up to start[d + 1]."""

    @pytest.mark.parametrize("t", cells_up_to(5), ids=str)
    def test_one_numbering_per_complex(self, t):
        for K in built_complexes(t):
            for d, basis in enumerate(degrees(K)):
                assert [position(K, g) for g in basis] == list(range(K.start[d], K.start[d + 1]))
                for g in basis:
                    assert K.names[position(K, g)] == g
                    assert degree_of(K, g) == d
            assert K.start[-1] == len(K.names) == len(K.atoms)
            for g, a in zip(K.names, K.atoms):
                want = named_atom(K, g)
                assert (a is None) == (want is None)
                if a is not None:
                    assert [(set(names_of(K, n)), set(names_of(K, p))) for n, p in a] \
                        == list(want)

    def test_repeated_generator_raises(self):
        o = ("o", 0)
        with pytest.raises(ComplexError, match="duplicate"):
            named_complex(((o, o),), {}, {o: 1})
        with pytest.raises(ComplexError, match="duplicate"):
            named_complex(((o,), (o,)), {o: {o: 0}}, {o: 1})


def has_cycle(edges) -> bool:
    """Does some node reach itself along edges that are not self-loops?"""
    succ: dict = {}
    for u, v in edges:
        if u != v:
            succ.setdefault(u, set()).add(v)
    for start in succ:
        seen, todo = set(), list(succ[start])
        while todo:
            u = todo.pop()
            if u == start:
                return True
            if u not in seen:
                seen.add(u)
                todo.extend(succ.get(u, ()))
    return False


class TestCheckBasis:
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_acyclic_against_reachability(self, edges):
        assert dac._acyclic(edges) == (not has_cycle(edges))

    def test_deep_cell(self):
        assert check_basis(lambda_cell(globe(100))) == (True, True, True)

    def test_globes(self):
        for n in range(5):
            assert check_basis(lambda_globe(n)) == (True, True, True)

    def test_non_unital_counterexample(self):
        K = named_complex(
            degrees=((("o", 0), ("o", 1)), (("x", 0),)),
            diff={("x", 0): {}},
            aug={("o", 0): 1, ("o", 1): 1},
        ).validate()
        unital, _, _ = check_basis(K)
        assert not unital

    def test_two_cycle_is_not_loop_free(self):
        x, y = ("x", 0), ("x", 1)
        K = named_complex(
            degrees=((("o", 0), ("o", 1)), (x, y)),
            diff={x: {("o", 1): 1, ("o", 0): -1}, y: {("o", 0): 1, ("o", 1): -1}},
            aug={("o", 0): 1, ("o", 1): 1},
        ).validate()
        unital, loop_free, strong = check_basis(K)
        assert unital and loop_free is False and strong is False

    def test_strong_implies_loop_free_on_corpus(self):
        for t in cells_up_to(6):
            unital, loop_free, strong = check_basis(lambda_cell(t))
            assert not strong or loop_free


class TestAmalgamate:
    def test_two_globes_over_point(self):
        K = amalgamate_with_inclusions(lambda_globe(2), lambda_globe(1), lambda_globe(0),
                                       globe_inclusion(0, 2, "t"),
                                       globe_inclusion(0, 1, "s"))[0]
        want = lambda_cell(parse_cell("[2]([1],[0])"))
        assert find_isomorphism(K, want) is not None

    def test_gluing_point_to_object(self):
        K = lambda_globe(1)
        pt = lambda_globe(0)
        left = named_morphism(pt, K, {"b0": {"b0": 1}})
        K2 = amalgamate_with_inclusions(K, pt, pt, left, identity_morphism(pt))[0]
        assert find_isomorphism(K2, K) is not None

    def test_non_prerigid_rejected(self):
        K = lambda_globe(1)
        pt = lambda_globe(0)
        bad = named_morphism(pt, K, {"b0": {"b0": 1, "t0": 1}})
        with pytest.raises(MorphismError):
            amalgamate_with_inclusions(K, pt, pt, bad, identity_morphism(pt))

    def test_iterated_matches_recursion(self):
        for t in cells_up_to(7):
            A = amalgamation_over_globular_sum(t)
            assert find_isomorphism(A, lambda_cell(t)) is not None


class TestInvariants:
    def test_dd_zero_and_aug_kills(self):
        complexes = [lambda_cell(t) for t in cells_up_to(5)]
        complexes += [tensor(lambda_globe(1), lambda_cell(t)) for t in cells_up_to(4)]
        for K in complexes:
            K.validate()

    def test_wreath_of_points_is_simplex(self):
        K = wreath_complex([lambda_cell(POINT)] * 3)
        assert size_profile(K) == (4, 3)

    def test_lambda_map_of_vertex(self):
        m = lambda_map(vertex(cell(2), 1)).validate()
        assert image(m, ("o", 0)) == {("o", 1): 1}
