from collections import Counter
from itertools import product

import pytest

from graycyl import span
from graycyl.dac import DAMorphism, MorphismError, lambda_cell, lambda_map
from graycyl.gray import cylinder_complex, gray_cylinder, verify_gluing
from graycyl.nu import TableError
from graycyl.span import (_span_report, _split_identities, kappa_column_expectations,
                          mirror_positions, projection_to_cell, projection_to_interval,
                          shift_map, sigma_column_expectations, span_dot,
                          split_map, verify_span)
from graycyl.theta import (POINT, ThetaMap, bang, cell, cells_up_to, cells_with_nodes, coface,
                           parse_cell, theta_identity, vertex)

from oracles import (check_functors, compose, constant_morphism, degree_of, image, images,
                     kappa_m_maps, kappa_o_morphisms, mirror, mirror_positions_by_recursion,
                     named_morphism, nu_functor, sigma_m_map, sigma_o_morphism, with_image)


def swapped_ends(q: DAMorphism) -> DAMorphism:
    """q with the objects o0 and o1 of its target exchanged: not a chain
    map.  The legs p1 and q land in lambda([1]) and lambda([1];(mirror T)),
    whose objects these are."""
    ends = {("o", 0): ("o", 1), ("o", 1): ("o", 0)}
    return named_morphism(q.source, q.target,
                          {g: {ends.get(h, h): c for h, c in img.items()}
                           for g, img in images(q).items()})


def doubled(m: DAMorphism) -> DAMorphism:
    """m with every coefficient doubled: it breaks the augmentation."""
    return named_morphism(m.source, m.target,
                          {g: {h: 2 * c for h, c in img.items()} for g, img in images(m).items()})


def shift(t):
    return shift_map(t, *mirror_positions(t))


def legs(t):
    return projection_to_interval(t), projection_to_cell(t), shift(t)


def leg_functors(t, max_dim=None, maps=None):
    """nu of p1, p2 and q (or of the given maps) out of one cylinder view:
    the oracle's functors."""
    view = gray_cylinder(t, max_dim)
    return view, [nu_functor(m, view.max_dim, source_view=view) for m in maps or legs(t)]


def not_onto(view, Fs) -> list:
    """The (leg, d) pairs where nu of the span is not onto the d-cells of its
    targets: "kappa" where the pairs (nu p1, nu p2) of the cylinder's
    d-cells miss a pair in nu([1])_d × nu(T)_d, "sigma" where nu q misses a
    cell of nu(Σ mirror T)_d."""
    p1, p2, q = Fs
    out = []
    for d in range(view.max_dim + 1):
        cells = view.layers[d]
        if ({(p1(c), p2(c)) for c in cells}
                != set(product(p1.target_view.layers[d], p2.target_view.layers[d]))):
            out.append(("kappa", d))
        if {q(c) for c in cells} != q.target_view.layers[d]:
            out.append(("sigma", d))
    return out


class TestSplitMap:
    def test_threshold_one_on_three(self):
        assert split_map(3, 1) == (0, 1, 1, 1)

    def test_threshold_zero_is_constant_one(self):
        for n in range(5):
            assert split_map(n, 0) == (1,) * (n + 1)

    def test_top_threshold_is_constant_zero(self):
        assert split_map(2, 3) == (0, 0, 0)

    def test_coface_identities(self):
        for n in range(5):
            for k in range(n + 2):
                lhs = split_map(n + 1, k)
                assert tuple(split_map(n + 2, k)[v] for v in coface(n + 1, k)) == lhs
                assert tuple(split_map(n + 2, k + 1)[v] for v in coface(n + 1, k)) == lhs
        # every span report reads these identities from one check per process
        assert _split_identities() and _split_identities.cache_info().currsize == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            split_map(2, 4)


class TestShiftMap:
    def test_point_is_identity_shaped(self):
        t = parse_cell("[0]")
        q = shift(t)
        assert image(q, ("t", "v1", ("o", 0))) == {("s", 1, ("o", 0)): 1}

    def test_mirror_names(self):
        t = parse_cell("[2]([1],[0])")
        names = lambda_cell(t).names
        mirrored = lambda_cell(mirror(t)).names
        mirror_name = {g: mirrored[x] for g, x in zip(names, mirror_positions(t)[1])}
        assert mirror_name == {
            ("o", 0): ("o", 2), ("o", 1): ("o", 1), ("o", 2): ("o", 0),
            ("s", 1, ("o", 0)): ("s", 2, ("o", 1)), ("s", 1, ("o", 1)): ("s", 2, ("o", 0)),
            ("s", 2, ("o", 0)): ("s", 1, ("o", 0)),
            ("s", 1, ("s", 1, ("o", 0))): ("s", 2, ("s", 1, ("o", 0)))}
        assert mirror(t) == parse_cell("[2]([0],[1])")

    def test_no_library_module_binds_mirror(self):
        # the mirror of a cell on its own is a test oracle: the library
        # builds it only beside its table, in span.mirror_positions
        import graycyl
        from graycyl import cli, dac, gray, intlin, nu, pr, theta
        for module in (graycyl, cli, dac, gray, intlin, nu, pr, span, theta):
            assert not hasattr(module, "mirror"), module.__name__

    def test_mirror_table_built_once_per_report(self, monkeypatch):
        # q, the sigma columns and the diamonds read one mirror of the cell
        # and one table, both built in one fold: no call per child; span_dot
        # labels the shift with that same mirror
        built, calls = span.mirror_positions, Counter()

        def counted(t):
            calls[t] += 1
            return built(t)

        monkeypatch.setattr(span, "mirror_positions", counted)
        for t in cells_up_to(5):
            calls.clear()
            ok, _ = verify_span(t)
            assert calls == {t: 1}, str(t)
            assert ok, str(t)
            calls.clear()
            dot = span_dot(t)
            assert calls == {t: 1}, str(t)
            assert f'shift [label="[1];({mirror(t)})"];' in dot, str(t)

    def test_mirror_table_matches_the_recursive_oracle(self):
        cells = cells_up_to(8)
        for t in cells:
            mt, table = mirror_positions(t)
            assert mt == mirror(t) and table == mirror_positions_by_recursion(t), str(t)
        assert len(cells) == 626

    def test_is_chain_map_on_corpus(self):
        for s in ("[1]", "[2]", "[1]([1])", "[1]([2])", "[2]([1],[0])"):
            shift(parse_cell(s)).validate()

    def test_unmirrored_assignment_fails(self):
        # sending h(x)x to the suspension of x itself breaks the chain rule
        t = cell(2)
        cyl = cylinder_complex(t)
        tgt = lambda_cell(cell(1, t))
        K = lambda_cell(t)
        named = {}
        for g in cyl.names:
            _, a, x = g
            if a == "v1":
                named[g] = {("s", 1, x): 1}
            elif degree_of(K, x) > 0:
                named[g] = {}
            else:
                named[g] = {("o", 0 if a == "b0" else 1): 1}
        bad = named_morphism(cyl, tgt, named)
        with pytest.raises(MorphismError):
            bad.validate()


class TestVerifySpan:
    def test_simplicial_cases(self):
        for n in range(5):
            assert verify_span(cell(n) if n else parse_cell("[0]"))[0]

    def test_general_cases(self):
        for s in ("[1]([1])", "[2]([1],[0])", "[1]([2])"):
            assert verify_span(parse_cell(s))[0]

    def test_corpus_up_to_six_nodes(self):
        for t in cells_up_to(6):
            assert verify_span(t)[0], str(t)

    def test_corpus_of_seven_nodes(self):
        cells = cells_with_nodes(7)
        assert len(cells) == 132
        for t in cells:
            assert verify_span(t)[0], str(t)

    def test_corpus_of_eight_nodes(self):
        cells = cells_with_nodes(8)
        assert len(cells) == 429
        for t in cells:
            assert verify_span(t)[0], str(t)

    def test_kappa_object_bijection(self):
        t = parse_cell("[2]([1],[0])")
        view, (to_interval, to_cell, _) = leg_functors(t)
        images = {(to_interval(c), to_cell(c)) for c in view.cells(0)}
        assert len(images) == len(view.cells(0))
        assert len(images) == 2 * (t.width + 1)
        for c in view.cells(0):
            for leg in (to_interval, to_cell):
                assert leg(c) in leg.target_view.layers[0]

    def test_mutated_sigma_fails(self):
        with pytest.raises(MorphismError):
            swapped_ends(shift(cell(2))).validate()

    def test_image_violation_is_reported(self):
        t = cell(2)
        p1, p2, q = legs(t)
        bad = swapped_ends(q)
        violations = bad.violations()
        assert violations and violations[0][0] == "chain"
        ok, data = _span_report(t, p1, p2, bad, *mirror_positions(t))
        assert not ok and not data["passed"] and data["kappa_functor_violations"] == 0
        assert data["sigma_functor_violations"] == len(violations)

    def test_image_error_names_the_source_cell(self):
        t = cell(1)
        view = gray_cylinder(t)
        F = nu_functor(swapped_ends(shift(t)), view.max_dim, source_view=view)
        named = []
        for layer in view.layers:
            for c in layer:
                try:
                    F(c)
                except TableError as exc:
                    named.append((str(exc), view.text(c)))
        assert named
        assert all(msg == f"image table is not a cell of the target: {text}"
                   for msg, text in named)

    def test_functor_checks_run(self):
        view, Fs = leg_functors(parse_cell("[1]([1])"))
        for F in Fs:
            assert not check_functors((F,), view.max_dim)[0]

    def test_coefficient_two_is_an_image_violation(self):
        t = cell(1)
        view = gray_cylinder(t)
        F = nu_functor(doubled(shift(t)), view.max_dim, source_view=view)
        for c in view.cells(0):
            with pytest.raises(TableError):
                F(c)
        with pytest.raises(TableError):
            check_functors((F,), view.max_dim)

    def test_broken_kappa_leg_fails(self):
        t = parse_cell("[1]([1])")
        p1, p2, q = legs(t)
        ok, data = _span_report(t, p1, swapped_ends(p2), q, *mirror_positions(t))
        assert not ok
        assert data["kappa_functor_violations"] and not data["sigma_functor_violations"]

    def test_swapped_sigma_fails_every_square(self):
        t = parse_cell("[2]([1],[0])")
        p1, p2, q = legs(t)
        ok, data = _span_report(t, p1, p2, swapped_ends(q), *mirror_positions(t))
        assert not ok
        assert data["sigma_functor_violations"] and not data["kappa_functor_violations"]
        assert data["sigma_columns"] and not any(data["sigma_columns"].values())
        assert not data["diamonds"]["sigma_e0"] and not data["diamonds"]["sigma_e1"]
        assert all(data["kappa_columns"].values())
        assert data["diamonds"]["kappa_e0"] and data["diamonds"]["kappa_e1"]

    def test_swapped_kappa_fails_every_square(self):
        t = parse_cell("[2]([1],[0])")
        p1, p2, q = legs(t)
        # p1 lands in lambda([1]), so its ends are the objects o0 and o1
        assert p1.target is lambda_cell(cell(1))
        ok, data = _span_report(t, swapped_ends(p1), p2, q, *mirror_positions(t))
        assert not ok
        assert data["kappa_functor_violations"] and not data["sigma_functor_violations"]
        assert data["kappa_columns"] and not any(data["kappa_columns"].values())
        assert not data["diamonds"]["kappa_e0"] and not data["diamonds"]["kappa_e1"]
        assert all(data["sigma_columns"].values())
        assert data["diamonds"]["sigma_e0"] and data["diamonds"]["sigma_e1"]

    def test_dot_colors(self):
        dot = span_dot(cell(1))
        assert "color=green" in dot and "color=red" not in dot


def assert_same_map(got: DAMorphism, want: DAMorphism, where):
    assert got.source is want.source and got.target is want.target, where
    assert got.images == want.images, where


class TestExpectationsMatchTheThetaOracles:
    """The span's expected maps are wreath maps built from positions; the
    oracles assemble the Theta morphisms they stand for and take their
    lambda maps, or build the M columns' maps from the child's own legs."""

    def test_kappa_columns(self):
        columns = 0
        for t in cells_up_to(7):
            for c, p1_exp, p2_exp in kappa_column_expectations(t):
                want = ([lambda_map(f) for f in kappa_o_morphisms(t, c.index)]
                        if c.kind == "O" else kappa_m_maps(t, c))
                assert_same_map(p1_exp, want[0], (str(t), c.name, "p1"))
                assert_same_map(p2_exp, want[1], (str(t), c.name, "p2"))
                columns += 1
        assert columns == 1053

    def test_sigma_columns(self):
        columns = 0
        for t in cells_up_to(7):
            for c, q_exp in sigma_column_expectations(t, *mirror_positions(t)):
                want = (lambda_map(sigma_o_morphism(t, c.index)) if c.kind == "O"
                        else sigma_m_map(t, c))
                assert_same_map(q_exp, want, (str(t), c.name))
                columns += 1
        assert columns == 1053

    def test_diamonds(self):
        maps = 0
        for t in cells_up_to(7):
            for target in (cell(1), cell(1, mirror(t))):
                for eps in (0, 1):
                    got = span._constant(lambda_cell(t), lambda_cell(target), eps)
                    assert_same_map(got, lambda_map(constant_morphism(t, target, eps)),
                                    (str(t), str(target), eps))
                    maps += 1
        assert maps == 788


class TestPerturbedExpectationsFail:
    """Each expected-map builder, fed one wrong input, fails the columns or
    diamonds that read it and no other; undone, the span passes."""

    T = parse_cell("[2]([1],[0])")

    def test_kappa_o_column_builder(self, monkeypatch):
        # the codegeneracy onto T reads a constant map [1] -> [1] in place of
        # the identity of slot 1, on O1 only
        wrong = lambda_map(compose(bang(cell(1)), vertex(cell(1), 0)))
        real = span._codegeneracy

        def perturbed(src, tgt, j, ids):
            return real(src, tgt, j, [[(1, wrong)]] + ids[1:] if j == 1 else ids)

        monkeypatch.setattr(span, "_codegeneracy", perturbed)
        ok, data = verify_span(self.T)
        assert not ok
        assert list(data["kappa_columns"].items()) == [("O0", True), ("M1", True), ("O1", False),
                                                       ("M2", True), ("O2", True)]
        assert all(data["sigma_columns"].values()) and all(data["diamonds"].values())
        monkeypatch.undo()
        assert verify_span(self.T)[0]

    def test_sigma_o_column_builder(self, monkeypatch):
        # sigma's O_j reads the vertex j of the mirrored cell in place of
        # n-j: O1 sits in the middle of [2], so only O0 and O2 fail
        n, point = self.T.width, lambda_cell(POINT)
        real = span._constant

        def perturbed(src, tgt, p):
            return real(src, tgt, n - p if src is point else p)

        monkeypatch.setattr(span, "_constant", perturbed)
        ok, data = verify_span(self.T)
        assert not ok
        assert list(data["sigma_columns"].items()) == [("O0", False), ("M1", True), ("O1", True),
                                                       ("M2", True), ("O2", False)]
        assert all(data["kappa_columns"].values()) and all(data["diamonds"].values())
        monkeypatch.undo()
        assert verify_span(self.T)[0]

    def test_kappa_diamond_builder(self, monkeypatch):
        # the 0-end of the cell is expected at the 1-end of the interval
        edge = lambda_cell(cell(1))
        real = span._constant

        def perturbed(src, tgt, p):
            return real(src, tgt, 1 if tgt is edge and p == 0 else p)

        monkeypatch.setattr(span, "_constant", perturbed)
        ok, data = verify_span(self.T)
        assert not ok
        assert data["diamonds"] == {"kappa_e0": False, "sigma_e0": True, "kappa_e1": True,
                                    "sigma_e1": True}
        assert all(data["kappa_columns"].values()) and all(data["sigma_columns"].values())
        monkeypatch.undo()
        assert verify_span(self.T)[0]


class TestBuiltFromPositions:
    def test_no_theta_morphism_or_simplicial_map_per_column(self, monkeypatch):
        # once the identities and bangs of a cell's children exist, the span
        # and the gluing build every map they compare from positions, and
        # no Theta map
        cells = cells_up_to(6)
        for t in cells:
            theta_identity(t)
            for c in t.children:
                bang(c)
        built = []
        real = ThetaMap.__init__

        def counted(self, *args):
            built.append(args)
            real(self, *args)

        monkeypatch.setattr(ThetaMap, "__init__", counted)
        for t in cells:
            assert verify_span(t)[0] and verify_gluing(t)[0], str(t)
        assert built == []
        # the count sees a build
        v = vertex(cell(1), 0)
        assert built == [(POINT, cell(1), (0,), ())] and v.image == (0,)
        assert len(cells) == 65


def _negative(m: DAMorphism) -> DAMorphism:
    """m with the image of its first 1-generator that has one negated."""
    h = next(g for g in m.source.basis(1) if image(m, g))
    return with_image(m, h, {x: -c for x, c in image(m, h).items()})


def _wrong_degree(m: DAMorphism) -> DAMorphism:
    """m with its first 1-generator sent to a 0-generator."""
    return with_image(m, m.source.basis(1)[0], {m.target.basis(0)[0]: 1})


class TestLegViolations:
    """A broken leg is reported by the kind of its violation, on its own side
    of the span."""

    T = parse_cell("[1]([1])")

    @pytest.mark.parametrize("kind, leg, breaking", [
        ("negative", 2, _negative),
        ("degree", 1, _wrong_degree),
        ("augmentation", 2, doubled),
        ("chain", 2, swapped_ends),
        ("negative", 0, _negative),
        ("augmentation", 1, doubled),
    ], ids=["negative-sigma", "degree-kappa", "augmentation-sigma", "chain-sigma",
            "negative-kappa", "augmentation-kappa"])
    def test_violation_is_reported(self, kind, leg, breaking):
        ms = list(legs(self.T))
        bad = breaking(ms[leg])
        assert kind in {k for k, _ in bad.violations()}
        with pytest.raises(MorphismError):
            bad.validate()
        ms[leg] = bad
        ok, data = _span_report(self.T, *ms, *mirror_positions(self.T))
        assert not ok and not data["passed"]
        broken, intact = (("sigma", "kappa") if leg == 2 else ("kappa", "sigma"))
        assert data[f"{broken}_functor_violations"] > 0
        assert data[f"{intact}_functor_violations"] == 0


class TestFunctorOracle:
    """nu is a functor (Steiner 2004), so the legs the span checks as chain
    maps give omega-functors; the all-pairs check confirms it on the tables."""

    def test_legs_are_functors_up_to_six_nodes(self):
        for t in cells_up_to(6):
            view, Fs = leg_functors(t, min(t.dimension() + 1, 4))
            assert check_functors(Fs, view.max_dim) == [[], [], []], str(t)


class TestSpanIsOnto:
    """A d-cell of nu([1]) × nu(T) is a pair of d-cells, so the span should
    be onto on cells: (nu p1, nu p2) maps the d-cells of the cylinder onto
    nu([1])_d × nu(T)_d, and nu q onto nu(Σ mirror T)_d.  PAPER.md quotes
    only the abstract, so this is a property of the span checked on the
    tables, not a quoted theorem."""

    def test_kappa_and_sigma_are_onto_up_to_six_nodes(self):
        pairs = 0
        for t in cells_up_to(6):
            view, Fs = leg_functors(t, min(t.dimension() + 1, 4))
            assert not_onto(view, Fs) == [], str(t)
            pairs += view.max_dim + 1
        assert pairs == 286

    def test_a_collapsed_first_leg_is_not_onto(self):
        # p1 replaced by p2 ; lambda(T -> [0] -> [1] at vertex 0): every
        # cell goes to the vertex 0 end of the interval, so kappa misses the
        # pairs over vertex 1 in every dimension, and sigma is untouched
        pairs = 0
        for t in cells_up_to(5):
            p1, p2, q = legs(t)
            collapse = lambda_map(compose(bang(t), vertex(cell(1), 0)))
            view, Fs = leg_functors(t, min(t.dimension() + 1, 4),
                                    (p2.then(collapse), p2, q))
            assert not_onto(view, Fs) == [("kappa", d) for d in range(view.max_dim + 1)], str(t)
            pairs += view.max_dim + 1
        assert pairs == 93
