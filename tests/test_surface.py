"""Every option of the public surface has a caller.

The source of ``opbar`` is parsed with ``ast``.  A defaulted parameter of a
public function, method or class constructor must be passed, by keyword or
by position, by at least one call in the library, the tests or the
benchmark harness; otherwise it is a choice nobody makes and should be a
constant.  Calls are matched by the called name only (``f(...)`` or
``x.f(...)``), so two definitions that share a name share their callers,
and a call through another name (``build = f; build(...)``) is not seen.
"""

import ast
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
