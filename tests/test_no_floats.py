"""Exact arithmetic throughout: no module of ``semitoric`` except ``figures``,
which writes SVG coordinates, holds a float literal, calls ``float`` or
uses the floating-point functions and constants of ``math``."""

import ast
import pathlib

import pytest

import semitoric

SOURCE = pathlib.Path(semitoric.__file__).parent
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
