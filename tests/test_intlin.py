import ast
from pathlib import Path

import pytest

from graycyl import intlin

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


@pytest.mark.parametrize("name", ["intersection", "same_subgroup"])
def test_lattice_meets_go_through_one_helper(name):
    callers = _callers(name)
    assert len(callers) == 1, f"intlin.{name} is called from {sorted(callers)}"


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
