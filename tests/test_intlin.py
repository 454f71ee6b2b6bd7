import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graycyl import gray, intlin

from oracles import hnf, same_subgroup

LIBRARY = sorted((Path(__file__).resolve().parents[1] / "src" / "graycyl").glob("*.py"))


def _callers(name: str) -> set:
    """The library functions and methods, as "module.function", whose body
    calls a function called name (bare or as an attribute)."""
    out = set()
    for path in LIBRARY:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
        defs += [(f"{cls.name}.{node.name}", node) for cls in tree.body
                 if isinstance(cls, ast.ClassDef)
                 for node in cls.body if isinstance(node, ast.FunctionDef)]
        for fn_name, fn in defs:
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call)
                        and getattr(node.func, "attr", getattr(node.func, "id", None)) == name):
                    out.add(f"{path.stem}.{fn_name}")
    return out


# the meet of two lattices is read only by gray._meet_in, which compares it
# with a lattice by two containments, and lattice membership is asked only
# there and by gray._factors_through
LATTICE_CALLERS = {
    "contains": {"gray._factors_through", "gray._meet_in"},
    "intersection": {"gray._meet_in"},
}


@pytest.mark.parametrize("name", sorted(LATTICE_CALLERS))
def test_lattice_meets_go_through_one_helper(name):
    assert _callers(name) == LATTICE_CALLERS[name]


def test_predicates_reduce_through_one_echelon():
    assert _callers("_echelon") == {"intlin.rank", "intlin.pivots", "intlin.intersection",
                                    "intlin.contains"}


def sparse(rows):
    """Dense rows as the rows intlin reads: their (position, coefficient)
    pairs with nonzero coefficients, in position order."""
    return [tuple([(p, c) for p, c in enumerate(r) if c]) for r in rows]


# ---------------------------------------------------------------------------
# an independent oracle: the column sweep, which reduces every remaining row
# at each column down to one, then back-reduces the pivots top down
# ---------------------------------------------------------------------------

def _sweep(rows, width):
    rows = [list(r) for r in rows]
    pivot_row = 0
    for col in range(width):
        while True:
            live = [r for r in range(pivot_row, len(rows)) if rows[r][col] != 0]
            if len(live) <= 1:
                break
            live.sort(key=lambda r: abs(rows[r][col]))
            small = live[0]
            for r in live[1:]:
                q = rows[r][col] // rows[small][col]
                rows[r] = [a - q * b for a, b in zip(rows[r], rows[small])]
        if not live:
            continue
        r = live[0]
        rows[pivot_row], rows[r] = rows[r], rows[pivot_row]
        if rows[pivot_row][col] < 0:
            rows[pivot_row] = [-a for a in rows[pivot_row]]
        pivot_row += 1
    return rows, pivot_row


def oracle_rank(rows, width):
    return _sweep(rows, width)[1]


def oracle_hnf(rows, width):
    red, npiv = _sweep(rows, width)
    red = red[:npiv]
    pivots = [next(i for i, a in enumerate(r) if a != 0) for r in red]
    for k, c in enumerate(pivots):
        for up in range(k):
            q = red[up][c] // red[k][c]
            red[up] = [a - q * b for a, b in zip(red[up], red[k])]
    return tuple(tuple(r) for r in red)


def oracle_intersection(rows_a, rows_b, width):
    stacked = list(rows_a) + list(rows_b)
    n = len(stacked)
    aug = [list(r) + [int(i == k) for i in range(n)] for k, r in enumerate(stacked)]
    red, _ = _sweep(aug, width)
    kern = [r[width:] for r in red if not any(r[:width])]
    return [tuple(sum(c * row[p] for c, row in zip(v, rows_a)) for p in range(width))
            for v in kern]


@st.composite
def matrices(draw, max_rows=5, max_width=5):
    width = draw(st.integers(1, max_width))
    rows = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * width), max_size=max_rows))
    return rows, width


class TestAgainstTheSweep:
    @settings(max_examples=300, deadline=None)
    @given(matrices())
    def test_hnf_and_rank(self, m):
        rows, width = m
        assert hnf(sparse(rows), width) == tuple(sparse(oracle_hnf(rows, width)))
        assert intlin.rank(sparse(rows), width) == oracle_rank(rows, width)

    @settings(max_examples=300, deadline=None)
    @given(matrices())
    def test_spans_all(self, m):
        # the pivots are those of the Hermite form, and the rows span the
        # whole lattice exactly when every position holds a pivot equal to 1
        rows, width = m
        h = oracle_hnf(rows, width)
        pivots = intlin.pivots(sparse(rows), width)
        assert pivots == {r[0][0]: r[0][1] for r in sparse(h)}
        assert (len(pivots) == width and set(pivots.values()) <= {1}) == (
            len(h) == width and all(h[i][i] == 1 for i in range(width)))

    @settings(max_examples=300, deadline=None)
    @given(matrices(), st.lists(st.integers(-6, 6), min_size=5, max_size=5))
    def test_in_span(self, m, v):
        # membership as an equality of subgroups
        rows, width = m
        v = tuple(v[:width])
        member = oracle_hnf(rows + [v], width) == oracle_hnf(rows, width)
        assert same_subgroup(sparse(rows), sparse(rows + [v]), width) == member

    @settings(max_examples=300, deadline=None)
    @given(matrices(), st.lists(st.lists(st.integers(-6, 6), min_size=5, max_size=5),
                                max_size=3))
    def test_contains(self, m, vs):
        # membership from one echelon, as gray._factors_through asks it: the
        # verdict of the equality of subgroups, vector by vector and for all
        rows, width = m
        vs = [tuple(v[:width]) for v in vs]
        members = [oracle_hnf(rows + [v], width) == oracle_hnf(rows, width) for v in vs]
        for v, member in zip(vs, members):
            assert intlin.contains(sparse(rows), sparse([v]), width) == member
            assert same_subgroup(sparse(rows), sparse(rows + [v]), width) == member
        assert intlin.contains(sparse(rows), sparse(vs), width) == all(members)

    @settings(max_examples=200, deadline=None)
    @given(matrices(max_rows=4, max_width=3), st.data())
    def test_intersection(self, m, data):
        rows_a, width = m
        rows_b = data.draw(st.lists(st.tuples(*[st.integers(-4, 4)] * width), max_size=4))
        a, b = sparse(rows_a), sparse(rows_b)
        inter = intlin.intersection(a, b, width)
        assert same_subgroup(inter, sparse(oracle_intersection(rows_a, rows_b, width)),
                                    width)
        assert same_subgroup(a, a + inter, width)
        assert same_subgroup(b, b + inter, width)

    @settings(max_examples=300, deadline=None)
    @given(matrices(max_rows=4, max_width=3), st.data())
    def test_equality_by_two_containments(self, m, data):
        # gray._meet_in compares the meet with a lattice by two containment
        # tests: the verdict of comparing their Hermite forms
        rows_a, width = m
        rows_b = data.draw(st.lists(st.tuples(*[st.integers(-4, 4)] * width), max_size=4))
        rows_m = data.draw(st.lists(st.tuples(*[st.integers(-4, 4)] * width), max_size=3))
        a, b, rows = sparse(rows_a), sparse(rows_b), sparse(rows_m)
        for x, y in ((a, b), (a, rows), (a, a + b)):
            assert (intlin.contains(x, y, width) and intlin.contains(y, x, width)) == \
                same_subgroup(x, y, width)
        inter = intlin.intersection(a, b, width)
        assert gray._meet_in(a, b, rows, width) == same_subgroup(inter, rows, width)
        assert gray._meet_in(a, b, inter, width)
        assert gray._meet_in(a, b, sparse(oracle_intersection(rows_a, rows_b, width)), width)

    @settings(max_examples=200, deadline=None)
    @given(matrices(max_rows=4, max_width=3), st.data())
    def test_intersection_rank(self, m, data):
        # rank(A ∩ B) = rank A + rank B - rank(A + B); with B = 0 the rows
        # that reach zero are the relations of A, and each meets in 0
        rows_a, width = m
        rows_b = data.draw(st.lists(st.tuples(*[st.integers(-4, 4)] * width), max_size=4))
        inter = intlin.intersection(sparse(rows_a), sparse(rows_b), width)
        assert intlin.rank(inter, width) == (oracle_rank(rows_a, width) + oracle_rank(rows_b, width)
                                             - oracle_rank(rows_a + rows_b, width))
        relations = intlin.intersection(sparse(rows_a), [], width)
        assert relations == [()] * (len(rows_a) - oracle_rank(rows_a, width))


def shifted(rows, offset):
    return [tuple([(p + offset, c) for p, c in r]) for r in rows]


class TestDegreesAtOnce:
    """Rows drawn in several degrees, on disjoint ranges of positions: one
    echelon of all of them gives each degree the pivots, and so the rank
    and coverage, and the meet of separate calls per degree.  gray's lattice
    checks read every degree of a cylinder from one echelon this way."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(matrices(max_rows=4, max_width=3), st.data()),
                    min_size=1, max_size=3), st.randoms())
    def test_one_echelon_per_block(self, blocks, rnd):
        offset, rows_a, rows_b, pivots, meets = 0, [], [], {}, []
        for (dense_a, width), data in blocks:
            a = sparse(dense_a)
            b = sparse(data.draw(st.lists(st.tuples(*[st.integers(-4, 4)] * width),
                                          max_size=4)))
            rows_a += shifted(a, offset)
            rows_b += shifted(b, offset)
            pivots.update({p + offset: v for p, v in intlin.pivots(a + b, width).items()})
            meets += shifted(hnf(intlin.intersection(a, b, width), width), offset)
            offset += width
        rnd.shuffle(rows_a)
        rnd.shuffle(rows_b)
        assert intlin.pivots(rows_a + rows_b, offset) == pivots
        assert intlin.rank(rows_a + rows_b, offset) == len(pivots)
        assert hnf(intlin.intersection(rows_a, rows_b, offset), offset) == tuple(meets)


class TestVerdictsCanFail:
    def test_a_proper_sublattice_does_not_span(self):
        assert intlin.pivots(sparse([(2, 0), (0, 1)]), 2) == {0: 2, 1: 1}
        assert intlin.pivots(sparse([(2, 1), (1, 1)]), 2) == {0: 1, 1: 1}

    def test_dependent_rows_lose_rank(self):
        rows = sparse([(1, 2, 3), (2, 4, 6), (0, 1, 1), (1, 3, 4)])
        assert intlin.rank(rows, 3) == 2 < len(rows)
        # two relations, each meeting the zero lattice in 0
        assert intlin.intersection(rows, [], 3) == [(), ()]

    def test_a_rational_multiple_is_not_a_member(self):
        # (1, 0) lies in the rational span of (2, 0) but not in its lattice
        rows = [((0, 2),)]
        assert intlin.rank(rows + [((0, 1),)], 2) == intlin.rank(rows, 2)
        assert not intlin.contains(rows, [((0, 1),)], 2)
        assert not same_subgroup(rows, rows + [((0, 1),)], 2)
        assert intlin.contains(rows, [((0, 4),), ((0, -2),), ()], 2)

    def test_one_lattice_has_one_form(self):
        # two bases of one lattice; back-reducing the pivots bottom up
        # leaves (1, 1, -1) in the first and (1, 1, 2) in the second
        a = sparse([(1, 3, 0), (0, 2, 1), (0, 0, 3)])
        b = sparse([(1, 1, 2), (0, 2, 1), (0, 0, 3)])
        assert hnf(a, 3) == hnf(b, 3) == tuple(sparse([(1, 1, 2), (0, 2, 1),
                                                                     (0, 0, 3)]))
        assert same_subgroup(a, b, 3)
        assert not same_subgroup(a, sparse([(1, 0, 0), (0, 1, 0), (0, 0, 3)]), 3)


class TestIntersection:
    def test_known_lattices(self):
        # 2Z x Z meets Z x 3Z in 2Z x 3Z
        inter = intlin.intersection(sparse([(2, 0), (0, 1)]), sparse([(1, 0), (0, 3)]), 2)
        assert same_subgroup(inter, sparse([(2, 0), (0, 3)]), 2)

    def test_skew_generators(self):
        # the same lattices on other bases: Z(2,1) + Z(0,1) and Z(1,3) + Z(0,3)
        inter = intlin.intersection(sparse([(2, 1), (0, 1)]), sparse([(1, 3), (0, 3)]), 2)
        assert same_subgroup(inter, sparse([(2, 0), (0, 3)]), 2)

    def test_disjoint_lines(self):
        assert not any(intlin.intersection(sparse([(1, 0)]), sparse([(0, 1)]), 2))

    def test_inside_ambient_coordinates(self):
        # two planes of Z^3 meet in a line of the ambient space
        inter = intlin.intersection(sparse([(1, 0, 0), (0, 1, 0)]),
                                    sparse([(0, 2, 0), (0, 0, 1)]), 3)
        assert same_subgroup(inter, sparse([(0, 2, 0)]), 3)


class TestDividingPivot:
    """A row whose entry at a pivot's position is a multiple of the pivot is
    reduced by it, and the pivot stays; Euclid runs only when the pivot does
    not divide."""

    def test_a_unit_pivot_stays(self):
        # Euclid alone would make the longer row the pivot at 0 and carry
        # the remainder (0, -1, -1) on to position 1
        e0 = ((0, 1),)
        pivots, zero = intlin._echelon([e0, ((0, 1), (1, 1), (2, 1))], 3)
        assert pivots == {0: e0, 1: ((1, 1), (2, 1))}
        assert zero == []

    def test_a_dividing_pivot_stays(self):
        two = ((0, 2), (1, 1))
        pivots, zero = intlin._echelon([two, ((0, 4), (1, 3))], 2)
        assert pivots == {0: two, 1: ((1, 1),)}
        assert zero == []

    def test_euclid_reaches_the_gcd(self):
        pivots, zero = intlin._echelon([((0, 4),), ((0, 6),)], 1)
        assert pivots == {0: ((0, 2),)}
        assert zero == [()]
