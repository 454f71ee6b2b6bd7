"""Every module-level public function and class of the library has a caller.

A name counts as used when some module of the library or of the tests
refers to it (a name, an attribute or an import) outside its own
definition.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "graycyl").glob("*.py"))
SOURCES = LIBRARY + sorted((ROOT / "tests").glob("*.py"))


def _public_definitions(tree: ast.Module):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _references(tree: ast.AST, skip: ast.AST | None = None):
    """Names referred to in tree, not looking inside the node skip."""
    found = set()
    todo = [tree]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        todo.extend(ast.iter_child_nodes(node))
    return found


def test_every_public_definition_is_referenced():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    refs = {path: _references(tree) for path, tree in trees.items()}
    unused = []
    for path in LIBRARY:
        for node in _public_definitions(trees[path]):
            used = (any(node.name in r for p, r in refs.items() if p != path)
                    or node.name in _references(trees[path], skip=node))
            if not used:
                unused.append(f"{path.stem}.{node.name}")
    assert not unused, f"defined but never referenced: {unused}"
