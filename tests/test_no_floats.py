"""AST scans of the ``semitoric`` source.

Exact arithmetic throughout: no module of ``semitoric`` except ``figures``,
which writes SVG coordinates, holds a float literal, calls ``float`` or
uses the floating-point functions and constants of ``math``.

Every module parses with the grammar of the oldest Python that
``pyproject.toml`` declares in ``requires-python``.

Nothing defined without a use: every public function, class and method,
and every private top-level function and class, is referenced by other
library code, by an acceptance criterion or in a backtick span of
README.md.  Names are matched by their last component, as
a bare name or an attribute; a bare name bound as a parameter or local of an
enclosing function, lambda or comprehension is not a use.  A plain method
counts as used only where a method of its name is called, ``x.name(...)``,
or read off a class, ``Cls.name`` (a capitalized name is taken for a
class); a property, static method or class method counts wherever an
attribute of its name is read."""

import ast
import pathlib
import re
from collections import Counter

import pytest

import semitoric

SOURCE = pathlib.Path(semitoric.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parent.parent
FLOAT_MATH = {"sqrt", "log", "exp", "pi", "e", "fsum", "isclose"}


def float_uses(tree) -> list:
    """(line, what) for every float literal, call to ``float`` and
    floating-point name of ``math``, as an attribute or imported."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, f"float literal {node.value!r}"))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
            found.append((node.lineno, "call to float"))
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr in FLOAT_MATH
        ):
            found.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(node.lineno, f"math.{a.name}") for a in node.names if a.name in FLOAT_MATH]
    return sorted(found)


def test_float_uses_finds_each_kind():
    tree = ast.parse(
        "import math\n"
        "from math import gcd, pi\n"
        "x = 0.5 + float(1) + math.sqrt(2) + math.isqrt(4)\n"
    )
    assert float_uses(tree) == [
        (2, "math.pi"),
        (3, "call to float"),
        (3, "float literal 0.5"),
        (3, "math.sqrt"),
    ]


@pytest.mark.parametrize(
    "name", sorted(p.name for p in SOURCE.glob("*.py") if p.name != "figures.py")
)
def test_module_uses_no_floating_point(name):
    assert float_uses(ast.parse((SOURCE / name).read_text())) == []


@pytest.mark.parametrize("name", sorted(p.name for p in SOURCE.glob("*.py")))
def test_module_parses_as_the_oldest_supported_python(name):
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text())
    version = tuple(map(int, floor.groups()))
    ast.parse((SOURCE / name).read_text(), filename=name, feature_version=version)


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ListComp, ast.SetComp,
          ast.DictComp, ast.GeneratorExp)


def local_names(scope) -> set:
    """The names a function, lambda or comprehension binds for its own body:
    parameters, and names stored to, defined or caught outside nested
    scopes, less those declared global or nonlocal.  Imports are left out,
    since an imported name still refers to its definition."""
    if isinstance(scope, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
        names, stack = set(), [g.target for g in scope.generators]
    else:
        a = scope.args
        names = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p}
        stack = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    declared = set()
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        if not isinstance(node, SCOPES + (ast.ClassDef,)):
            stack.extend(ast.iter_child_nodes(node))
    return names - declared


def references(tree) -> Counter:
    """How often each name is read: as an attribute, or as a bare name that
    no enclosing function, lambda or comprehension binds as a parameter or
    local of its own."""
    found = Counter()
    stack = [(tree, frozenset())]
    while stack:
        node, local = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in local:
            found[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found[node.attr] += 1
        if isinstance(node, SCOPES):
            local = local | local_names(node)
        stack.extend((child, local) for child in ast.iter_child_nodes(node))
    return found


def method_uses(tree) -> Counter:
    """How often each name is called as an attribute, ``x.name(...)``, or
    read off a capitalized name, ``Cls.name``."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            found[node.func.attr] += 1
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and isinstance(node.value, ast.Name) and node.value.id[:1].isupper()):
            found[node.attr] += 1
    return found


def is_plain_method(qualified: str, node) -> bool:
    """A method without a property, static method or class method decorator."""
    return "." in qualified and not any(
        isinstance(d, ast.Name) and d.id in ("property", "staticmethod", "classmethod")
        for d in node.decorator_list
    )


def definitions(tree):
    """(qualified name, node) for each top-level function or class, public
    or private, and each public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def unused(modules: dict, named: set, readers=()) -> list:
    """The scanned ``definitions`` of ``modules`` (module name -> tree) that no
    code outside their own body uses, in ``modules`` or in the ``readers``
    trees, and that ``named`` leaves out."""
    trees = list(modules.values()) + list(readers)
    reads = sum(map(references, trees), Counter())
    calls = sum(map(method_uses, trees), Counter())
    found = []
    for module, tree in modules.items():
        for qualified, node in definitions(tree):
            uses, own = (calls, method_uses) if is_plain_method(qualified, node) else (reads, references)
            if node.name not in named and uses[node.name] == own(node)[node.name]:
                found.append(f"{module}.{qualified}")
    return sorted(found)


def test_unused_finds_functions_classes_and_methods():
    tree = ast.parse(
        "def used(): return _helper()\n"
        "def _helper(): return 1\n"
        "def _unused_helper(n): return _unused_helper(n - 1)\n"
        "class _Unused: pass\n"
        "def recursive(n): return recursive(n - 1)\n"
        "def shadowed(): return 2\n"
        "def reads_a_parameter(shadowed): return shadowed\n"
        "def reads_a_local():\n"
        "    shadowed = 3\n"
        "    return lambda: [shadowed for shadowed in (shadowed,)]\n"
        "class Kept:\n"
        "    def called(self): return used()\n"
        "    def caller(self): return self.called()\n"
        "    def _private(self): pass\n"
    )
    assert unused({"m": tree}, set()) == [
        "m.Kept",
        "m.Kept.caller",
        "m._Unused",
        "m._unused_helper",
        "m.reads_a_local",
        "m.reads_a_parameter",
        "m.recursive",
        "m.shadowed",
    ]
    named = {"Kept", "caller", "_Unused", "_unused_helper", "reads_a_local", "reads_a_parameter",
             "recursive", "shadowed"}
    assert unused({"m": tree}, named) == []
    # a read outside the shadowing scopes, bare or as an attribute, is a use
    for use in ("x = shadowed\n", "def f(g): return g.shadowed\n"):
        other = ast.parse(use)
        assert "m.shadowed" not in unused({"m": tree, "other": other}, set())
    # a plain method is used when called or read off a class, not when an
    # attribute of its name is read; a property is used when read
    tree = ast.parse(
        "class Framing:\n"
        "    def cone(self): pass\n"
        "    def key(self): pass\n"
        "    def called(self): pass\n"
        "    @property\n"
        "    def rank(self): pass\n"
    )
    other = ast.parse("def f(x): return x.cone, x.rank, x.called(), sorted([x], key=Framing.key)\n")
    assert unused({"m": tree, "other": other}, {"f"}) == ["m.Framing.cone"]


def test_every_public_name_has_a_use():
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(SOURCE.glob("*.py"))}
    criteria = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    readme = (ROOT / "README.md").read_text()
    documented = {w for span in re.findall(r"`([^`]*)`", readme) for w in re.findall(r"\w+", span)}
    assert unused(modules, documented, [criteria]) == []
