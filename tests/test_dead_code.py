"""Every public name, method and field of the library has a reader.

A read counts for the definition it reaches, not for every definition with
its name.  A bare name is resolved through the scopes of its module: a
parameter or local of an enclosing function hides the module-level binding,
which is a def, class or constant of the module itself or the definition
that an import binds (followed through ``graycyl/__init__.py``).  An
attribute ``x.a`` reaches ``a`` of the module or class that ``x`` is; that
class is inferred from ``self`` and ``cls``, parameter and field
annotations, constructor calls, return annotations and iteration over an
annotated sequence.  A field is a name in ``__slots__`` (typed by the
constructor parameter of that name), a name the class body assigns, or an
attribute that ``__init__`` stores on ``self``.
A member read counts for the class, its library bases and its library
subclasses.  An attribute read whose receiver has no inferred class counts
for every library class with a member of that name.

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
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "graycyl").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
PACKAGE = "graycyl"

# Public names that only tests use, kept as independent checks of the library.
ORACLES = {
    "theta.cells_up_to": "the corpora of the tests and the benchmark",
    "theta.mirror": "the tests' reference for the mirrored cell of span.mirror_positions",
}

TREES = {path: ast.parse(path.read_text(encoding="utf-8")) for path in LIBRARY + TESTS}
FUNCTION = (ast.FunctionDef,)
COMPREHENSION = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
SCOPES = FUNCTION + COMPREHENSION + (ast.Lambda, ast.ClassDef)
SEQUENCES = {"tuple", "list", "set", "frozenset"}


def _module(path: Path) -> str:
    """The key prefix of a file's definitions: the library module's stem,
    or tests.<stem>."""
    return path.stem if path in LIBRARY else f"tests.{path.stem}"


# ---------------------------------------------------------------------------
# definitions and module-level bindings
# ---------------------------------------------------------------------------

def _assigned_names(node) -> list:
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


@dataclass
class ClassInfo:
    node: ast.ClassDef
    module: str
    members: dict = field(default_factory=dict)      # name -> defining node
    annotations: dict = field(default_factory=dict)  # name -> annotation of its value
    methods: set = field(default_factory=set)        # names read as bound methods


def _on_self(node) -> bool:
    return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "self")


def _fields(node) -> list:
    """The non-dunder names a class-body assignment binds, and those it
    lists when it binds __slots__."""
    if not isinstance(node, ast.Assign):
        return []
    names = _assigned_names(node)
    if "__slots__" in names:
        names += ast.literal_eval(node.value)
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def _class_info(cls: ast.ClassDef, module: str) -> ClassInfo:
    """Each method, property and field of a class: its non-dunder defs, its
    __slots__, the names its body assigns (a property made by a call) and
    every attribute that __init__ stores on self, with the annotation of
    each value where there is one:
    that of an annotated store, of the parameter a plain store copies, or,
    for a slot, of the parameter of __init__ or __new__ with its name."""
    info = ClassInfo(cls, module)
    constructor = {a.arg: a.annotation for node in cls.body
                   if isinstance(node, FUNCTION) and node.name in ("__init__", "__new__")
                   for a in node.args.args}
    for node in cls.body:
        for name in _fields(node):
            info.members.setdefault(name, node)
            if constructor.get(name) is not None:
                info.annotations.setdefault(name, constructor[name])
        if isinstance(node, FUNCTION):
            decorators = {getattr(d, "id", None) for d in node.decorator_list}
            if not (node.name.startswith("__") and node.name.endswith("__")):
                info.members[node.name] = node
                if decorators & {"property", "cached_property"}:
                    info.annotations[node.name] = node.returns
                else:
                    info.methods.add(node.name)
            if node.name == "__init__":
                params = {a.arg: a.annotation for a in node.args.args}
                for sub in ast.walk(node):
                    if _on_self(sub) and isinstance(sub.ctx, ast.Store):
                        info.members.setdefault(sub.attr, sub)
                    if isinstance(sub, ast.AnnAssign) and _on_self(sub.target):
                        info.annotations.setdefault(sub.target.attr, sub.annotation)
                    elif isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Name):
                        for t in filter(_on_self, sub.targets):
                            info.annotations.setdefault(t.attr, params.get(sub.value.id))
    return info


DEFS = {}        # "module.name" -> (path, defining top-level node)
CLASSES = {}     # "module.Class" -> ClassInfo
FUNCTIONS = {}   # "module.function" -> (FunctionDef, module)
BINDINGS = {}    # module -> {name: "module.name", "module:<m>" or None (external)}


def _import_bindings(node) -> dict:
    """What the names of an import statement bind: a library definition
    key, "module:<m>" for a library module, or None for anything outside the
    package.  The library and the tests import the package only with
    ``from``, so a plain import binds a module outside it."""
    out = {}
    if isinstance(node, ast.Import):
        return {alias.asname or alias.name.split(".")[0]: None for alias in node.names}
    if node.level:                       # from . import x / from .x import y
        origin = node.module or "__init__"
    elif node.module and node.module.split(".")[0] == PACKAGE:
        origin = node.module.split(".")[1] if "." in node.module else "__init__"
    else:
        origin = None
    for alias in node.names:
        name = alias.asname or alias.name
        if origin is None:
            out[name] = None
        elif origin == "__init__" and alias.name in LIBRARY_MODULES:
            out[name] = f"module:{alias.name}"
        else:
            out[name] = ("import", origin, alias.name)
    return out


LIBRARY_MODULES = {path.stem for path in LIBRARY}


def _index(path: Path, tree: ast.Module):
    """Enter a file's module-level definitions and bindings."""
    module = _module(path)
    table = BINDINGS[module] = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            table.update(_import_bindings(node))
            continue
        if isinstance(node, FUNCTION + (ast.ClassDef,)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            names = _assigned_names(node)
        else:
            continue
        for name in names:
            key = table[name] = f"{module}.{name}"
            DEFS[key] = (path, node)
            if isinstance(node, ast.ClassDef):
                CLASSES[key] = _class_info(node, module)
            elif isinstance(node, FUNCTION):
                FUNCTIONS[key] = (node, module)


def _follow(binding):
    """The definition key or "module:<m>" an import binding reaches, through
    re-exports; None when it leaves the package."""
    while isinstance(binding, tuple):
        _, origin, name = binding
        binding = BINDINGS.get(origin, {}).get(name)
    return binding


for _path, _tree in TREES.items():
    _index(_path, _tree)
for _table in BINDINGS.values():
    _table.update({name: _follow(binding) for name, binding in _table.items()})


def _bases(key: str) -> set:
    """The library classes a class derives from, itself included."""
    out, todo = set(), [key]
    while todo:
        k = todo.pop()
        if k not in out:
            out.add(k)
            info = CLASSES[k]
            todo += [b for b in (BINDINGS[info.module].get(getattr(n, "id", None))
                                 for n in info.node.bases) if b in CLASSES]
    return out


# key -> the library classes a member read on it may reach: its bases and
# every class that derives from it
RELATED = {key: {k for k in CLASSES if key in _bases(k)} | _bases(key) for key in CLASSES}


# ---------------------------------------------------------------------------
# scopes and inferred classes
# ---------------------------------------------------------------------------
# An inferred type is a frozenset of ("inst", class key), ("cls", class key),
# ("fn", function key), ("meth", class key, name), ("mod", module) and
# ("seq", element type); None stands for a value of no inferred class.

def _union(types):
    types = list(types)
    if not types or any(t is None for t in types):
        return None
    return frozenset().union(*types)


def _from_key(key):
    if key is None:
        return None
    if key.startswith("module:"):
        return frozenset({("mod", key[len("module:"):])})
    if key in CLASSES:
        return frozenset({("cls", key)})
    if key in FUNCTIONS:
        return frozenset({("fn", key)})
    return None


def _annotation(node, module: str):
    """The type an annotation names, read in the namespace of module."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return _annotation(ast.parse(node.value, mode="eval").body, module)
    if isinstance(node, ast.Constant) and node.value is None:
        return frozenset()
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _union([_annotation(node.left, module), _annotation(node.right, module)])
    if isinstance(node, ast.Name):
        key = BINDINGS[module].get(node.id)
        return frozenset({("inst", key)}) if key in CLASSES else None
    if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) in SEQUENCES:
        # list[X], set[X] or tuple[X, ...]; a tuple of fixed length is not a sequence of one type
        args = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
        if len(args) == 1 or (len(args) == 2 and getattr(args[1], "value", None) is Ellipsis):
            element = _annotation(args[0], module)
            return None if element is None else frozenset({("seq", element)})
    return None


class Scope:
    """The names that a module, function, lambda, comprehension or class
    body binds, and the type inferred for each local."""

    def __init__(self, node, parent, module: str, cls=None):
        """cls is the class key when node is a method of that class."""
        self.node, self.parent, self.module = node, parent, module
        self.sources = defaultdict(list)     # local name -> what binds it
        self.types = {}
        if isinstance(node, ast.Module):
            return
        if isinstance(node, FUNCTION + (ast.Lambda,)):
            args = node.args
            params = args.posonlyargs + args.args
            for i, a in enumerate(params + args.kwonlyargs):
                if i == 0 and cls is not None and a in params:      # self, or cls of __new__
                    self.sources[a.arg].append(("type", frozenset({("inst", cls)})))
                else:
                    self.sources[a.arg].append(("annotation", a.annotation))
            for a in (args.vararg, args.kwarg):
                if a is not None:
                    self.sources[a.arg].append(None)
        own = list(_own_nodes(self.roots()))
        # a name target of a plain or annotated assignment or of a loop is
        # typed from its value; every other store binds a local of no type
        typed = {}
        for n in own + getattr(node, "generators", []):
            if isinstance(n, ast.Assign):
                typed.update((id(t), ("value", n.value)) for t in n.targets)
            elif isinstance(n, ast.AnnAssign):
                typed[id(n.target)] = ("annotation", n.annotation)
            elif isinstance(n, (ast.For, ast.comprehension)):
                typed[id(n.target)] = ("iter", n.iter)
        targets = [g.target for g in getattr(node, "generators", [])]
        outer = {name for n in own if isinstance(n, (ast.Global, ast.Nonlocal))
                 for name in n.names}
        for n in own + [x for t in targets for x in ast.walk(t)]:
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store) and n.id not in outer:
                self.sources[n.id].append(typed.get(id(n)))
            elif isinstance(n, ast.ExceptHandler) and n.name:
                self.sources[n.name].append(None)
            elif isinstance(n, (ast.Import, ast.ImportFrom)):
                for name, binding in _import_bindings(n).items():
                    self.sources[name].append(("key", _follow(binding)))
            elif isinstance(n, SCOPES) and hasattr(n, "name"):
                self.sources[n.name].append(None)

    def type_of(self, name: str):
        """The type of a local of this scope, inferred on first use."""
        if name not in self.types:
            self.types[name] = None        # a local typed from itself has none
            self.types[name] = _union(self._type(s) for s in self.sources[name])
        return self.types[name]

    def roots(self) -> list:
        node = self.node
        if isinstance(node, ast.Lambda):
            return [node.body]
        if isinstance(node, COMPREHENSION):
            elts = [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
            return elts + [x for g in node.generators for x in [g.iter, *g.ifs]][1:]
        return node.body

    def _type(self, source):
        if source is None:
            return None
        kind, what = source
        if kind == "type":
            return what
        if kind == "annotation":
            return None if what is None else _annotation(what, self.module)
        if kind == "key":
            return _from_key(what)
        if kind == "value":
            return self.infer(what)
        return _elements(self.infer(what))

    def lookup(self, name: str):
        """("local", scope) or ("global", key or None) for a name read here."""
        scope, first = self, True
        while scope.parent is not None:
            # a class body's names are not seen from the functions inside it
            if name in scope.sources and (first or not isinstance(scope.node, ast.ClassDef)):
                return "local", scope
            scope, first = scope.parent, False
        return "global", BINDINGS[scope.module].get(name)

    def infer(self, node):
        if isinstance(node, ast.Name):
            where, found = self.lookup(node.id)
            if where == "global":
                return _from_key(found)
            return found.type_of(node.id)
        if isinstance(node, ast.Call):
            return _union(_called(t) for t in self.infer(node.func) or [None])
        if isinstance(node, ast.Attribute):
            return _union(_attribute(t, node.attr) for t in self.infer(node.value) or [None])
        if isinstance(node, ast.Subscript) and not isinstance(node.slice, ast.Slice):
            return _elements(self.infer(node.value))
        return None


def _elements(types):
    """The type of an item of a value of the given type."""
    if types is None or any(t[0] != "seq" for t in types):
        return None
    return _union(t[1] for t in types)


def _called(t):
    if t is None:
        return None
    if t[0] == "cls":
        return frozenset({("inst", t[1])})
    if t[0] == "fn" and FUNCTIONS[t[1]][0].returns is not None:
        node, module = FUNCTIONS[t[1]]
        return _annotation(node.returns, module)
    if t[0] == "meth":
        returns = CLASSES[t[1]].members[t[2]].returns
        return None if returns is None else _annotation(returns, CLASSES[t[1]].module)
    return None


def _attribute(t, attr: str):
    if t is None:
        return None
    if t[0] == "mod":
        return _from_key(BINDINGS[t[1]].get(attr))
    if t[0] in ("inst", "cls"):
        owners = [k for k in _bases(t[1]) if attr in CLASSES[k].members]
        if not owners:
            return None
        info = CLASSES[owners[0]]
        if attr in info.methods:
            return frozenset({("meth", owners[0], attr)})
        annotation = info.annotations.get(attr)
        return None if annotation is None else _annotation(annotation, info.module)
    return None


def _own_nodes(roots):
    """The nodes under roots that a scope evaluates itself: not the bodies
    of the functions, lambdas, classes and comprehensions nested in it, but
    their decorators, defaults, annotations and bases, and the first
    iterable of a comprehension."""
    todo = list(roots)
    while todo:
        node = todo.pop()
        yield node
        if isinstance(node, FUNCTION + (ast.Lambda,)):
            args = node.args
            todo += args.defaults + [d for d in args.kw_defaults if d is not None]
            if isinstance(node, FUNCTION):
                todo += node.decorator_list + [node.returns] * (node.returns is not None)
                todo += [a.annotation for a in args.posonlyargs + args.args + args.kwonlyargs
                         if a.annotation is not None]
        elif isinstance(node, ast.ClassDef):
            todo += node.decorator_list + node.bases + [k.value for k in node.keywords]
        elif isinstance(node, COMPREHENSION):
            todo.append(node.generators[0].iter)
        else:
            todo += ast.iter_child_nodes(node)


# ---------------------------------------------------------------------------
# reads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Read:
    target: tuple      # ("def", key), ("member", class key, name) or ("any member", name)
    library: bool      # read by library code
    inside: frozenset  # ids of the definitions enclosing the read


def _reads_in(scope: Scope, roots, inside: frozenset, out: list, library: bool):
    for node in _own_nodes(roots):
        if isinstance(node, SCOPES):
            method_of = None
            if isinstance(node, FUNCTION) and isinstance(scope.node, ast.ClassDef):
                method_of = BINDINGS[scope.module].get(scope.node.name)
            child = Scope(node, scope, scope.module, method_of)
            _reads_in(child, child.roots(), inside | {id(node)}, out, library)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            where, found = scope.lookup(node.id)
            if where == "local":
                found = next((s[1] for s in found.sources[node.id]
                              if s is not None and s[0] == "key"), None)
            if found in DEFS:
                out.append(Read(("def", found), library, inside))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            types = scope.infer(node.value)
            if types is None:
                out.append(Read(("any member", node.attr), library, inside))
                continue
            for t in types:
                if t[0] == "mod" and BINDINGS[t[1]].get(node.attr) in DEFS:
                    out.append(Read(("def", BINDINGS[t[1]][node.attr]), library, inside))
                elif t[0] in ("inst", "cls"):
                    for k in RELATED[t[1]]:
                        if node.attr in CLASSES[k].members:
                            out.append(Read(("member", k, node.attr), library, inside))


def _module_reads(tree: ast.Module, module: str, library: bool) -> list:
    """Every read in a module; each top-level statement encloses its own."""
    out = []
    scope = Scope(tree, None, module)
    for stmt in tree.body:
        _reads_in(scope, [stmt], frozenset({id(stmt)}), out, library)
    return out


READS = defaultdict(list)
for _path, _tree in TREES.items():
    for _read in _module_reads(_tree, _module(_path), _path in LIBRARY):
        READS[_read.target].append(_read)


def _readers(target: tuple, definition, reads=READS) -> Counter:
    """Reads of target outside the definition node, by library and tests."""
    return Counter("library" if r.library else "tests" for r in reads[target]
                   if id(definition) not in r.inside)


def _unused_by_library():
    """(never used anywhere, used only by tests), as "module.name" sets."""
    dead, test_only = set(), set()
    for key, (path, node) in DEFS.items():
        name = key.split(".", 1)[1]
        if path not in LIBRARY or name.startswith("_"):
            continue
        readers = _readers(("def", key), node)
        if not readers["library"]:
            (test_only if readers["tests"] else dead).add(key)
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
    unread = []
    for key, (path, node) in DEFS.items():
        name = key.split(".", 1)[1]
        if (path in LIBRARY and isinstance(node, FUNCTION + (ast.ClassDef,))
                and name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
                and not _readers(("def", key), node)["library"]):
            unread.append(key)
    assert not unread, f"private and never read by the library: {unread}"


def _unread_members(keys, reads=READS) -> list:
    """The members of the classes keys that no read reaches."""
    return [f"{key}.{name}" for key in keys for name, node in CLASSES[key].members.items()
            if not (_readers(("member", key, name), node, reads)
                    or _readers(("any member", name), node, reads))]


def test_every_member_is_read():
    unread = _unread_members(key for key in CLASSES if DEFS[key][0] in LIBRARY)
    assert not unread, f"never read as an attribute: {unread}"


def _parameters(fn):
    args = fn.args
    named = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
    return [a.arg for a in named if a is not None and a.arg not in ("self", "cls")]


def _names_read(nodes) -> set:
    return {n.id for node in nodes for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def test_every_parameter_is_read():
    unread = []
    for path in LIBRARY:
        for fn in ast.walk(TREES[path]):
            if not isinstance(fn, FUNCTION + (ast.Lambda,)):
                continue
            reads = _names_read(fn.body if isinstance(fn, FUNCTION) else [fn.body])
            name = getattr(fn, "name", "<lambda>")
            unread += [f"{path.stem}.{name}({p})" for p in _parameters(fn) if p not in reads]
    assert not unread, f"parameters never read: {unread}"


class TestResolution:
    """The guard resolves reads through bindings, not bare names."""

    def _probe(self, source: str):
        """The reads of source, indexed as the test module tests.probe, and
        the members of its classes that they leave unread."""
        tree = ast.parse(source)
        before = set(DEFS)
        _index(Path("probe.py"), tree)
        table = BINDINGS["tests.probe"]
        table.update({name: _follow(binding) for name, binding in table.items()})
        added = set(DEFS) - before
        classes = sorted(added & set(CLASSES))
        RELATED.update({key: {key} for key in classes})
        try:
            reads = defaultdict(list)
            for r in _module_reads(tree, "tests.probe", False):
                reads[r.target].append(r)
            return reads, _unread_members(classes, reads)
        finally:
            del BINDINGS["tests.probe"]
            for key in added:
                for table in (DEFS, CLASSES, FUNCTIONS, RELATED):
                    table.pop(key, None)

    def _read_targets(self, source: str) -> list:
        reads, _ = self._probe(source)
        return [target for target, found in reads.items() for _ in found]

    def test_attribute_reaches_the_inferred_class(self):
        found = self._read_targets(
            "from graycyl.theta import hyperfaces\n"
            "def f(t):\n"
            "    return [h.kind for h in hyperfaces(t)]\n")
        assert ("member", "theta.Hyperface", "kind") in found
        assert ("member", "gray.ShuffleColumn", "kind") not in found
        assert ("any member", "kind") not in found

    def test_local_hides_the_module_function(self):
        found = self._read_targets(
            "from graycyl.theta import cell\n"
            "def f(cell):\n"
            "    return cell\n"
            "def g():\n"
            "    return [cell for cell in ()], cell\n")
        assert found.count(("def", "theta.cell")) == 1

    def test_read_through_reexport_and_module(self):
        found = self._read_targets(
            "from graycyl import lax_shuffle_diagram, dac\n"
            "lax_shuffle_diagram\n"
            "dac.tensor\n")
        assert ("def", "gray.lax_shuffle_diagram") in found
        assert ("def", "dac.tensor") in found

    def test_unknown_receiver_reads_every_member_of_the_name(self):
        assert self._read_targets("def f(x):\n    return x.kind\n") == [("any member", "kind")]

    def test_every_store_on_self_in_init_is_a_member(self):
        reads, unread = self._probe(
            "from graycyl.theta import Hyperface\n"
            "class C:\n"
            "    def __init__(self, n: int, face: Hyperface):\n"
            "        self.annotated: dict = {}\n"
            "        self.left, self.right = n, n\n"
            "        self.outer = self.inner = n\n"
            "        self.total = 0\n"
            "        self.total += n\n"
            "        self.face: Hyperface = face\n"
            "def f(c: C):\n"
            "    return c.left, c.right, c.outer, c.inner, c.face.kind\n")
        assert unread == ["tests.probe.C.annotated", "tests.probe.C.total"]
        assert ("member", "theta.Hyperface", "kind") in reads

    def test_slots_are_members_typed_by_the_constructor(self):
        reads, unread = self._probe(
            "from graycyl.theta import Frozen, Hyperface\n"
            "class C(Frozen):\n"
            "    __slots__ = ('face', 'count', '__weakref__')\n"
            "    def __init__(self, face: Hyperface, count: int):\n"
            "        object.__setattr__(self, 'face', face)\n"
            "        object.__setattr__(self, 'count', count)\n"
            "def f(c: C):\n"
            "    return c.face.kind\n")
        assert unread == ["tests.probe.C.count"]
        assert ("member", "theta.Hyperface", "kind") in reads
