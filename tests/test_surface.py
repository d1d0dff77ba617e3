"""Every option of the public surface has a caller, and every definition
has a use.

The source of ``opbar`` is parsed with ``ast``.  A defaulted parameter of a
public function, method or class constructor must be passed, by keyword or
by position, by at least one call in the library, the tests or the
benchmark harness; otherwise it is a choice nobody makes and should be a
constant.  Calls are matched by the called name only (``f(...)`` or
``x.f(...)``), so two definitions that share a name share their callers,
and a call through another name (``build = f; build(...)``) is not seen.

Every top-level definition of ``opbar`` must be reachable from the entry
points: the command line (``verify``, ``cli``, ``__main__``), the
benchmark's workloads and the functions its tracer wraps.  A definition
reaches the names it uses: its own module's definitions, the names it
imports from ``opbar`` and ``module.name`` through an imported module.
What only tests reach is listed in ``UNREACHED`` with its reason, or goes.

A module-level memo of ``opbar``, a ``functools`` cache or a weak-reference
dict, would live as long as the process, so none is allowed: a memo lives
for one call, on the object it belongs to, or in the ``cache`` dict its
caller passes.  ``CACHED`` lists the exceptions with their reasons; a new
memo fails until it is listed.  No module attaches a memo to an object
through ``vars()``: the owning class declares it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "opbar"
CALLERS = (LIBRARY, ROOT / "tests", ROOT / "perfbench")


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _options(func, is_method):
    """(name, position or None) of each defaulted parameter of func;
    positions count after self/cls for methods."""
    args = func.args
    positional = args.posonlyargs + args.args
    first = 1 if is_method and positional else 0
    out = []
    for i in range(len(positional) - len(args.defaults), len(positional)):
        if i >= first:
            out.append((positional[i].arg, i - first))
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    return out


def _public_options():
    """{(module, qualified name): (call name, [(parameter, position)])}."""
    found = {}
    for path in sorted(LIBRARY.glob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, ast.FunctionDef) and \
                    not node.name.startswith("_"):
                found[(path.stem, node.name)] = (
                    node.name, _options(node, False))
            elif isinstance(node, ast.ClassDef) and \
                    not node.name.startswith("_"):
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef):
                        continue
                    static = any(isinstance(d, ast.Name)
                                 and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    if item.name == "__init__":
                        call = node.name
                    elif item.name.startswith("_"):
                        continue
                    else:
                        call = item.name
                    found[(path.stem, f"{node.name}.{item.name}")] = (
                        call, _options(item, not static))
    return found


def _calls():
    """{call name: [ast.Call]} over every caller file; a classmethod's
    ``cls(...)`` counts as a call of its class."""
    calls = {}
    for top in CALLERS:
        for path in sorted(top.rglob("*.py")):
            tree = _parse(path)
            owner = {}
            for cls in ast.walk(tree):
                if isinstance(cls, ast.ClassDef):
                    for node in ast.walk(cls):
                        owner[node] = cls.name
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                if isinstance(f, ast.Name):
                    name = owner.get(node, f.id) if f.id == "cls" else f.id
                elif isinstance(f, ast.Attribute):
                    name = f.attr
                else:
                    continue
                calls.setdefault(name, []).append(node)
    return calls


def _passes(call, name, position):
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if position is None:
        return False
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return len(call.args) > position


def unpassed_options():
    calls = _calls()
    unpassed = []
    for (module, qualname), (call, options) in _public_options().items():
        for name, position in options:
            if not any(_passes(c, name, position) for c in calls.get(call, ())):
                unpassed.append(f"{module}.{qualname}({name})")
    return sorted(unpassed)


def test_every_public_option_is_passed_somewhere():
    assert unpassed_options() == []


def test_the_scan_sees_positional_and_keyword_calls():
    options = _public_options()
    call, params = options[("exactla", "ExactMatrix.__init__")]
    assert call == "ExactMatrix"
    assert params == [("entries", 2), ("ring", 3)]
    tree = ast.parse("ExactMatrix(1, 1, {})\nExactMatrix(1, 1, ring=RAT)")
    first, second = (node.value for node in tree.body)
    assert _passes(first, "entries", 2) and not _passes(first, "ring", 3)
    assert _passes(second, "ring", 3) and not _passes(second, "entries", 2)


ENTRY_MODULES = ("verify", "cli", "__main__")

# Definitions no entry point reaches, kept on purpose, with the reason.
UNREACHED = {
    ("opalg", "dumps"): "the on-disk structure format (ROADMAP item 5)",
    ("opalg", "save"): "the on-disk structure format (ROADMAP item 5)",
    ("opalg", "load_structures"):
        "the on-disk structure format (ROADMAP item 5)",
    ("opalg", "load_operad"): "the on-disk structure format (ROADMAP item 5)",
    ("trees", "covers"):
        "one tree's covers, checked; the weighting complexes share theirs "
        "per arity",
    ("trees", "down_set"):
        "one tree's down set, checked; the weighting complexes share "
        "theirs per arity",
    ("trees", "parse_tree"):
        "the text side of the tree serialization, read where trees come in",
}


def _opbar_imports(tree):
    """({local name: (module, name)}, {alias: module}) of the tree's
    imports from opbar, relative or absolute."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        source = node.module or ""
        if not node.level:
            if source.split(".")[0] != "opbar":
                continue
            source = source[len("opbar"):].lstrip(".")
        for alias in node.names:
            local = alias.asname or alias.name
            if source:
                names[local] = (source, alias.name)
            else:
                modules[local] = alias.name
    return names, modules


def _definitions():
    """{(module, name): ast node} of every top-level function, class and
    assigned name of opbar but dunders, and each module's imports."""
    found, imports = {}, {}
    for path in sorted(LIBRARY.glob("*.py")):
        tree = _parse(path)
        imports[path.stem] = _opbar_imports(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets
                           if isinstance(t, ast.Name)]
            else:
                continue
            for name in targets:
                if not name.startswith("__"):
                    found[(path.stem, name)] = node
    return found, imports


def _uses(node, module, definitions, imports):
    """The definitions the node's names refer to, seen from module."""
    names, modules = imports
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            if (module, sub.id) in definitions:
                out.add((module, sub.id))
            elif sub.id in names:
                out.add(names[sub.id])
        elif isinstance(sub, ast.Attribute) and \
                isinstance(sub.value, ast.Name) and sub.value.id in modules:
            out.add((modules[sub.value.id], sub.attr))
    return out & definitions.keys()


def _reached(roots, definitions, imports):
    seen, stack = set(), list(roots)
    while stack:
        key = stack.pop()
        if key in seen:
            continue
        seen.add(key)
        stack.extend(_uses(definitions[key], key[0], definitions,
                           imports[key[0]]))
    return seen


def _entry_points(definitions):
    roots = {key for key in definitions if key[0] in ENTRY_MODULES}
    workloads = _parse(ROOT / "perfbench" / "workloads.py")
    roots |= _uses(workloads, None, definitions, _opbar_imports(workloads))
    tracer = (ROOT / "perfbench" / "tracer.py").read_text()
    for module, path in re.findall(r'"opbar\.(\w+):([\w.]+)"', tracer):
        roots.add((module, path.split(".")[0]))
    return roots & definitions.keys()


def test_every_definition_is_reached_from_an_entry_point():
    definitions, imports = _definitions()
    reached = _reached(_entry_points(definitions), definitions, imports)
    kept = _reached(reached | UNREACHED.keys(), definitions, imports)
    assert sorted(definitions.keys() - kept) == []
    # An entry that an entry point reaches is no longer an exception.
    assert sorted(reached & UNREACHED.keys()) == []


def test_the_reachability_scan_follows_module_attributes():
    definitions, imports = _definitions()
    reached = _reached(_entry_points(definitions), definitions, imports)
    # verify calls tr.weighting_complexes, which reaches _covers and
    # collapse.
    assert {("trees", "weighting_complexes"), ("trees", "_covers"),
            ("trees", "collapse")} <= reached
    assert ("trees", "down_set") not in reached


def _unused_imports(tree):
    """The names the tree imports and never uses as a name, sorted;
    ``from __future__`` imports are exempt."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and \
                node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
    return sorted(imported - used)


def test_every_imported_name_is_used():
    unused = [(path.stem, name) for path in sorted(LIBRARY.glob("*.py"))
              for name in _unused_imports(_parse(path))]
    assert unused == []


def test_the_import_scan_sees_unused_names():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nimport re as regex\n"
                     "from .x import a, b as c\n"
                     "os.path.join(a)\n")
    assert _unused_imports(tree) == ["c", "regex"]


# Module-level memos of opbar, which would live as long as the process,
# each with the reason it is kept.
CACHED = {
    ("exactla", "_PRODUCTS"):
        "tensor products shared while some caller holds them; the values "
        "are weak, so the table keeps no product alive",
}

_CACHE_NAMES = ("cache", "lru_cache", "WeakValueDictionary",
                "WeakKeyDictionary")


def _is_cache(node):
    """Whether the decorator or call node is functools.cache or lru_cache,
    called with options or not, or a weakref dict, by name."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr in _CACHE_NAMES
    return isinstance(node, ast.Name) and node.id in _CACHE_NAMES


def _module_caches(tree):
    """The names of the module's top-level functions, and of its classes'
    methods as Class.method, that a cache decorates, and of its top-level
    names assigned from a cache call."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            found += [f"{node.name}.{item.name}" for item in node.body
                      if isinstance(item, ast.FunctionDef)
                      and any(map(_is_cache, item.decorator_list))]
        elif isinstance(node, ast.FunctionDef):
            if any(map(_is_cache, node.decorator_list)):
                found.append(node.name)
        elif isinstance(node, ast.Assign) and any(
                isinstance(sub, ast.Call) and _is_cache(sub)
                for sub in ast.walk(node.value)):
            found += [t.id for t in node.targets if isinstance(t, ast.Name)]
    return found


def test_every_module_level_cache_is_listed():
    found = {(path.stem, name) for path in sorted(LIBRARY.glob("*.py"))
             for name in _module_caches(_parse(path))}
    assert sorted(found) == sorted(CACHED)


def test_the_cache_scan_sees_every_form():
    tree = ast.parse("import functools\nfrom functools import cache\n"
                     "@functools.lru_cache(maxsize=None)\ndef a(): pass\n"
                     "@cache\ndef b(): pass\n"
                     "def c():\n    memo = cache(len)\n"
                     "class D:\n    @functools.cache\n    def e(self): pass\n"
                     "f = functools.lru_cache()(len)\n")
    assert _module_caches(tree) == ["a", "b", "D.e", "f"]


def test_the_cache_scan_sees_weak_memos():
    tree = ast.parse("import weakref\nfrom weakref import WeakKeyDictionary\n"
                     "a = weakref.WeakValueDictionary()\n"
                     "b = WeakKeyDictionary()\nc = weakref.ref(len)\n")
    assert _module_caches(tree) == ["a", "b"]


def _vars_calls(tree):
    """The line numbers of the tree's calls of vars()."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "vars"]


def test_no_module_calls_vars():
    found = [(path.stem, line) for path in sorted(LIBRARY.glob("*.py"))
             for line in _vars_calls(_parse(path))]
    assert found == []


def test_the_vars_scan_sees_calls():
    tree = ast.parse("x = 1\nmemo = vars(x).get('m')\nvars\n")
    assert _vars_calls(tree) == [2]
