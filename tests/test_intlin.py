from graycyl import intlin


class TestIntersection:
    def test_known_lattices(self):
        # 2Z x Z meets Z x 3Z in 2Z x 3Z
        inter = intlin.intersection([(2, 0), (0, 1)], [(1, 0), (0, 3)], 2)
        assert intlin.same_subgroup(inter, [(2, 0), (0, 3)], 2)

    def test_skew_generators(self):
        # the same lattices on other bases: Z(2,1) + Z(0,1) and Z(1,3) + Z(0,3)
        inter = intlin.intersection([(2, 1), (0, 1)], [(1, 3), (0, 3)], 2)
        assert intlin.same_subgroup(inter, [(2, 0), (0, 3)], 2)

    def test_disjoint_lines(self):
        assert not any(any(v) for v in intlin.intersection([(1, 0)], [(0, 1)], 2))

    def test_inside_ambient_coordinates(self):
        # two planes of Z^3 meet in a line of the ambient space
        inter = intlin.intersection([(1, 0, 0), (0, 1, 0)], [(0, 2, 0), (0, 0, 1)], 3)
        assert intlin.same_subgroup(inter, [(0, 2, 0)], 3)
