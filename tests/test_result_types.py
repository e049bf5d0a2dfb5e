"""The result and input types of ``semitoric``: what importing them costs,
how they are constructed and how they compare.

Importing the package loads none of the standard library's code-generation
and introspection modules.  Every constructor keeps its parameters: names,
kinds and defaults in order; an optional list or dict parameter gives a
fresh empty container per instance.  ``Condition``, ``Report``,
``FormalSeries`` and ``GroupElement`` compare by value, and the last two,
which are immutable, hash by value."""

import inspect
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import semitoric
from semitoric import connection, cusp, fans, monodromy, quadfield, report
from semitoric.fans import GroupElement
from semitoric.lattice import IntMatrix
from semitoric.report import Condition, Report
from semitoric.series import FormalSeries, Framing

REQUIRED = object()
FRESH = object()  # optional; a fresh empty list or dict per instance

# class -> (parameter, default) in order; every parameter is positional-or-keyword
CONSTRUCTORS = {
    connection.MaxDepthPoint: (("label", REQUIRED), ("cone", REQUIRED), ("frame", REQUIRED)),
    connection.BoundaryAtlas: (("rank", REQUIRED), ("points", REQUIRED), ("group", REQUIRED),
                               ("covers_boundary", True), ("support_hint", None)),
    connection.Reconstruction: (("lattice", REQUIRED), ("support", REQUIRED),
                                ("decomposition", REQUIRED), ("group", REQUIRED)),
    connection.NondescentWitness: (("sample_section", REQUIRED), ("sample_nabla", REQUIRED),
                                   ("pole_order", REQUIRED), ("lead_coefficient", REQUIRED),
                                   ("scaling_obstruction", REQUIRED),
                                   ("translation_obstruction", REQUIRED)),
    cusp.VertexChain: (("cusp", REQUIRED), ("vertices", REQUIRED), ("b", REQUIRED),
                       ("box_used", REQUIRED)),
    cusp.CycleResolution: (("chain", REQUIRED), ("b", REQUIRED), ("offset", REQUIRED)),
    fans.GroupElement: (("linear", REQUIRED), ("translation", ())),
    fans.Support: (("cone", REQUIRED), ("interior_only", False), ("include_origin", True)),
    fans.Decomposition: (("rank", REQUIRED), ("members", REQUIRED), ("group", REQUIRED),
                         ("support", REQUIRED)),
    fans.Stratum: (("cone", REQUIRED), ("complex_dim", REQUIRED), ("torus_dim", REQUIRED)),
    fans.Chart: (("cone", REQUIRED), ("basis", REQUIRED), ("k", REQUIRED), ("rank", REQUIRED),
                 ("coordinate_names", REQUIRED)),
    monodromy.MonodromySet: (("operators", REQUIRED),),
    monodromy.QuasiCanonicalCoordinates: (("fs", REQUIRED), ("constants", REQUIRED),
                                          ("remainders", REQUIRED), ("m", REQUIRED),
                                          ("exact", REQUIRED), ("degenerate", REQUIRED),
                                          ("linear_parts", REQUIRED), ("order", REQUIRED)),
    quadfield.QuadIdeal: (("alpha", REQUIRED), ("beta", REQUIRED), ("D", REQUIRED)),
    quadfield.CuspData: (("ideal", REQUIRED), ("unit", REQUIRED)),
    report.Condition: (("name", REQUIRED), ("passed", REQUIRED), ("details", ""),
                       ("witnesses", FRESH)),
    report.Report: (("conditions", REQUIRED), ("notes", FRESH), ("data", FRESH)),
    FormalSeries: (("rank", REQUIRED), ("terms", REQUIRED), ("truncation", REQUIRED),
                   ("complete_order", REQUIRED)),
    Framing: (("basis", REQUIRED), ("support", None)),
}

HEAVY_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")


def test_import_loads_no_code_generation_modules():
    """In a fresh interpreter, ``import semitoric, semitoric.cli`` adds none
    of the heavy modules to ``sys.modules`` (those loaded before it, as
    ``site`` may load some, do not count)."""
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import semitoric, semitoric.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    src = str(pathlib.Path(semitoric.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert "semitoric.cli" in out
    assert [m for m in HEAVY_MODULES if m in out] == []


@pytest.mark.parametrize("cls", CONSTRUCTORS, ids=lambda c: c.__name__)
def test_constructor_parameters_are_unchanged(cls):
    params = list(inspect.signature(cls).parameters.values())
    assert [p.name for p in params] == [name for name, _ in CONSTRUCTORS[cls]]
    assert {p.kind for p in params} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}
    for p, (name, default) in zip(params, CONSTRUCTORS[cls]):
        if default is REQUIRED:
            assert p.default is inspect.Parameter.empty, name
        elif default is FRESH:
            assert p.default is not inspect.Parameter.empty, name
        else:
            assert type(p.default) is type(default) and p.default == default, name


def test_optional_containers_are_fresh_per_instance():
    a, b = Condition("c", True), Condition("c", True)
    assert a.witnesses == [] and a.witnesses is not b.witnesses
    a.witnesses.append(1)
    assert b.witnesses == [] and Condition("c", True).witnesses == []
    r, s = Report([]), Report([])
    assert r.notes == [] and r.data == {}
    assert r.notes is not s.notes and r.data is not s.data
    r.notes.append("n")
    r.data["k"] = 1
    assert (s.notes, s.data) == ([], {}) and (Report([]).notes, Report([]).data) == ([], {})
    given = [1]
    assert Condition("c", False, "d", given).witnesses is given


SHEAR = IntMatrix([[1, 1], [0, 1]])
TERMS = (((1, 0), Fraction(1)),)
# (class, field values, the same values with one field changed, for each field)
VALUE_TYPES = [
    (Condition, ("c", True, "d", [1]),
     [("e", True, "d", [1]), ("c", False, "d", [1]), ("c", True, "e", [1]), ("c", True, "d", [2])]),
    (Report, ([Condition("c", True)], ["n"], {"k": 1}),
     [([Condition("c", False)], ["n"], {"k": 1}), ([Condition("c", True)], [], {"k": 1}),
      ([Condition("c", True)], ["n"], {"k": 2})]),
    (FormalSeries, (2, TERMS, 3, 2),
     [(2, (((1, 0), Fraction(2)),), 3, 2), (2, (((0, 1), Fraction(1)),), 3, 2),
      (2, TERMS, 4, 2), (2, TERMS, 3, 1)]),
    (FormalSeries, (2, (), 3, 2), [(3, (), 3, 2)]),
    (GroupElement, (SHEAR, (1, 0)),
     [(IntMatrix([[1, 0], [1, 1]]), (1, 0)), (SHEAR, (0, 1))]),
]


@pytest.mark.parametrize("cls, fields, changed", VALUE_TYPES,
                         ids=["Condition", "Report", "FormalSeries", "FormalSeries-rank",
                              "GroupElement"])
def test_value_types_compare_by_their_fields(cls, fields, changed):
    a, b = cls(*fields), cls(*fields)
    assert a == b and not a != b
    if cls in (FormalSeries, GroupElement):
        assert hash(a) == hash(b)
    for other in changed:
        c = cls(*other)
        assert a != c and not a == c, other
    assert a != object()


@pytest.mark.parametrize("value, fields", [
    (FormalSeries(2, TERMS, 3, 2), ("rank", "terms", "truncation", "complete_order")),
    (GroupElement(SHEAR, (1, 0)), ("linear", "translation")),
], ids=["FormalSeries", "GroupElement"])
def test_immutable_value_types_refuse_assignment(value, fields):
    for name in fields:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        assert getattr(value, name) is before
