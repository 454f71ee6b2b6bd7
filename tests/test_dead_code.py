"""Every public name, method and field of the library has a reader.

Five rules over the syntax trees of src/graycyl and tests:

* a module-level public function, class or constant is used by some module
  other than its own, or by its own module outside its definition; an
  import is not a use, so a re-export in __init__.py reaches nothing;
* a public name that only tests use is an oracle, listed in ORACLES with
  the reason it is kept;
* a module-level private function or class (_name, not a dunder) is read
  by library code outside its definition: a test may reach into it, but
  only library callers keep it;
* every method, property and field of a library class is read as an
  attribute in the library or the tests, outside its own definition;
* every parameter of a library function or lambda is read in its body;
  the receiver self or cls of a method is bound, not passed, and exempt.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "graycyl").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))

# Public names that only tests use, kept as independent checks of the library.
ORACLES = {
    "nu.search_tables": "exhaustive table search, the oracle of the closure",
    "nu.close_all_pairs": "pair-walk closure, the oracle of enumerate_cells",
    "nu.make_cell": "validating table constructor, builds tables the closure must find",
    "nu.nu_compose": "checked composition for hand-built cells",
    "nu.nu_functor": "nu of a morphism of complexes, the oracle of the span's complex-level legs",
    "nu.check_functors": "all-pairs functor check, run on nu_functor by the span's oracle test",
    "dac.find_isomorphism": "compares the globular-sum amalgamation with lambda_cell",
    "dac.amalgamation_over_globular_sum": "the complex of a cell built from its globular sum",
    "theta.reconstruct": "inverse of globular_sum, round-trips the decomposition",
    "theta.parse_morphism": "morphism literals of the tests",
    "theta.cells_up_to": "the corpora of the tests and the benchmark",
}

TREES = {path: ast.parse(path.read_text(encoding="utf-8")) for path in LIBRARY + TESTS}


def _public_definitions(tree: ast.Module):
    """(name, node) for each module-level public def, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node


def _reads(tree: ast.AST, attributes_only: bool = False) -> Counter:
    """How often each name (unless attributes_only) and attribute is read
    in tree."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found[node.attr] += 1
        elif (not attributes_only and isinstance(node, ast.Name)
              and isinstance(node.ctx, ast.Load)):
            found[node.id] += 1
    return found


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def _members(cls: ast.ClassDef):
    """(name, node) for each method, property and field of a class: its
    non-dunder defs, its dataclass fields and what __init__ sets on self."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.name, node
            if node.name == "__init__":
                for sub in ast.walk(node):
                    if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                            and isinstance(sub.value, ast.Name) and sub.value.id == "self"):
                        yield sub.attr, sub
        elif (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
              and _is_dataclass(cls)):
            yield node.target.id, node


def _unused_by_library():
    """(never used anywhere, used only by tests), as "module.name" sets."""
    library = sum((_reads(TREES[p]) for p in LIBRARY), Counter())
    tests = sum((_reads(TREES[p]) for p in TESTS), Counter())
    dead, test_only = set(), set()
    for path in LIBRARY:
        for name, node in _public_definitions(TREES[path]):
            if library[name] <= _reads(node)[name]:
                (test_only if tests[name] else dead).add(f"{path.stem}.{name}")
    return dead, test_only


def test_every_public_definition_is_referenced():
    dead, test_only = _unused_by_library()
    assert not dead, f"defined but never used: {sorted(dead)}"
    assert test_only <= set(ORACLES), \
        f"used only by tests and not in ORACLES: {sorted(test_only - set(ORACLES))}"


def test_oracles_are_test_only():
    _, test_only = _unused_by_library()
    assert set(ORACLES) <= test_only, \
        f"in ORACLES but not a name only tests use: {sorted(set(ORACLES) - test_only)}"


def test_every_private_definition_is_read_by_library():
    library = sum((_reads(TREES[p]) for p in LIBRARY), Counter())
    unread = []
    for path in LIBRARY:
        for node in TREES[path].body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
                    and not (node.name.startswith("__") and node.name.endswith("__"))
                    and library[node.name] <= _reads(node)[node.name]):
                unread.append(f"{path.stem}.{node.name}")
    assert not unread, f"private and never read by the library: {unread}"


def test_every_member_is_read():
    reads = sum((_reads(t, attributes_only=True) for t in TREES.values()), Counter())
    unread = []
    for path in LIBRARY:
        for cls in TREES[path].body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for name, node in _members(cls):
                if reads[name] <= _reads(node, attributes_only=True)[name]:
                    unread.append(f"{path.stem}.{cls.name}.{name}")
    assert not unread, f"never read as an attribute: {unread}"


def _parameters(fn):
    args = fn.args
    named = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
    return [a.arg for a in named if a is not None and a.arg not in ("self", "cls")]


def test_every_parameter_is_read():
    unread = []
    for path in LIBRARY:
        for fn in ast.walk(TREES[path]):
            if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
                continue
            body = fn.body if isinstance(fn, ast.FunctionDef) else [fn.body]
            reads = sum((_reads(node) for node in body), Counter())
            name = getattr(fn, "name", "<lambda>")
            unread += [f"{path.stem}.{name}({p})" for p in _parameters(fn) if not reads[p]]
    assert not unread, f"parameters never read: {unread}"
