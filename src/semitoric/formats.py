"""Versioned JSON encodings for the data the command line moves around.

Scalars are strings "p/q" for rationals or objects {"a","b","D"} for
quadratic values a + b sqrt(D).  Serialization is canonical (sorted keys,
compact separators, trailing newline) so identical data always produces
identical bytes.

Rationals are read by ``parse_frac``: the plain ASCII spellings "-?n" and
"-?n/d" with d nonzero, which every dump writes, become a Fraction of two
ints directly; any other string goes through ``Fraction(str)``, so it keeps
that parser's value, and its error text inside the FormatError.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import chain, repeat

from .connection import BoundaryAtlas, MaxDepthPoint, NondescentWitness
from .cusp import CycleResolution, VertexChain
from .errors import DegenerateInputError, FormatError
from .fans import Decomposition, GroupElement, Support
from .lattice import Cone, ExactScalar, IntMatrix, Vector
from .quadfield import CuspData, QuadIdeal
from .series import FormalSeries

FAN_FORMAT = "fan/1"
CHAIN_FORMAT = "chain/1"
CYCLE_FORMAT = "cycle/1"
ATLAS_FORMAT = "atlas/1"
MONODROMY_FORMAT = "monodromy/1"
SERIES_FORMAT = "series/1"


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _is_int(x) -> bool:
    """JSON integers only: ``bool`` is a subclass of ``int`` in Python."""
    return isinstance(x, int) and not isinstance(x, bool)


def _int_list(obj, length=None) -> bool:
    return (
        isinstance(obj, list)
        and (length is None or len(obj) == length)
        and all(_is_int(x) for x in obj)
    )


def _list_of(obj, key, path: str) -> list:
    items = obj.get(key, [])
    if not isinstance(items, list):
        raise FormatError(f"{path}.{key}: expected a list")
    return items


def _frac_list(obj, path: str) -> tuple:
    if not isinstance(obj, list):
        raise FormatError(f"{path}: expected a list")
    return tuple(parse_frac(x, f"{path}[{i}]") for i, x in enumerate(obj))


def frac_str(f: Fraction) -> str:
    if type(f) is not Fraction:
        f = Fraction(f)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


_PLAIN_RATIONAL = re.compile(r"(-?)([0-9]+)(?:/([0-9]+))?")


def parse_frac(obj, path: str) -> Fraction:
    if isinstance(obj, bool):
        raise FormatError(f"{path}: expected a rational, got a boolean")
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, str):
        try:
            plain = _PLAIN_RATIONAL.fullmatch(obj)
            if plain:
                sign, num, den = plain.groups()
                num, den = int(num), int(den or 1)
                if den:
                    return Fraction(-num if sign else num, den)
            return Fraction(obj)
        except (ValueError, ZeroDivisionError) as e:
            raise FormatError(f"{path}: bad rational {obj!r}: {e}") from None
    raise FormatError(f"{path}: expected a rational, got {type(obj).__name__}")


def dump_scalar(x: ExactScalar):
    if x.D is None:
        return frac_str(x.a)
    return {"a": frac_str(x.a), "b": frac_str(x.b), "D": x.D}


def parse_scalar(obj, path: str) -> ExactScalar:
    if isinstance(obj, dict):
        for key in ("a", "b", "D"):
            if key not in obj:
                raise FormatError(f"{path}: scalar object needs the key {key!r}")
        D = obj["D"]
        if not _is_int(D):
            raise FormatError(f"{path}.D: expected an integer")
        return ExactScalar(
            parse_frac(obj["a"], f"{path}.a"), parse_frac(obj["b"], f"{path}.b"), D
        )
    return ExactScalar(parse_frac(obj, path))


def dump_vector(v: Vector) -> list:
    return [dump_scalar(x) for x in v]


def parse_vector(obj, rank: int, path: str) -> Vector:
    if not isinstance(obj, list) or len(obj) != rank:
        raise FormatError(f"{path}: expected a list of {rank} scalars")
    return Vector([parse_scalar(x, f"{path}[{i}]") for i, x in enumerate(obj)])


def _require(obj, key, path: str):
    if not isinstance(obj, dict):
        raise FormatError(f"{path}: expected an object")
    if key not in obj:
        raise FormatError(f"{path}: missing the key {key!r}")
    return obj[key]


def _check_format(obj, expected: str, path: str):
    got = _require(obj, "format", path)
    if got != expected:
        raise FormatError(f"{path}.format: expected {expected!r}, got {got!r}")


# -- support / fan -----------------------------------------------------------------


def dump_support(s: Support) -> dict:
    return {
        "generators": [dump_vector(g) for g in s.cone.generators],
        "rank": s.cone.rank,
        "interior_only": s.interior_only,
        "include_origin": s.include_origin,
    }


def parse_support(obj, path: str) -> Support:
    rank = _require(obj, "rank", path)
    if not _is_int(rank) or rank < 1:
        raise FormatError(f"{path}.rank: expected a positive integer")
    gens = _require(obj, "generators", path)
    if not isinstance(gens, list):
        raise FormatError(f"{path}.generators: expected a list")
    vectors = [
        parse_vector(g, rank, f"{path}.generators[{i}]") for i, g in enumerate(gens)
    ]
    flags = {"interior_only": False, "include_origin": True}
    for key in flags:
        flags[key] = obj.get(key, flags[key])
        if not isinstance(flags[key], bool):
            raise FormatError(f"{path}.{key}: expected a boolean")
    return Support(Cone(rank, vectors), **flags)


def dump_group_element(g: GroupElement) -> dict:
    return {
        "linear": [list(row) for row in g.linear.rows],
        "translation": list(g.translation),
    }


def parse_group_element(obj, rank: int, path: str) -> GroupElement:
    linear = _require(obj, "linear", path)
    if (
        not isinstance(linear, list)
        or len(linear) != rank
        or not all(_int_list(r, rank) for r in linear)
    ):
        raise FormatError(f"{path}.linear: expected a {rank}x{rank} integer matrix")
    translation = obj.get("translation", [])
    if not _int_list(translation):
        raise FormatError(f"{path}.translation: expected a list of integers")
    try:
        return GroupElement(IntMatrix([tuple(r) for r in linear]), tuple(translation))
    except ValueError as e:
        raise FormatError(f"{path}: {e}") from None


def dump_fan(P: Decomposition) -> dict:
    return {
        "format": FAN_FORMAT,
        "rank": P.rank,
        "support": dump_support(P.support),
        "members": [
            {"generators": [dump_vector(g) for g in m.generators]} for m in P.members
        ],
        "group": [dump_group_element(g) for g in P.group],
    }


def load_fan(obj, path: str = "fan") -> Decomposition:
    _check_format(obj, FAN_FORMAT, path)
    rank = _require(obj, "rank", path)
    if not _is_int(rank) or rank < 1:
        raise FormatError(f"{path}.rank: expected a positive integer")
    support = parse_support(_require(obj, "support", path), f"{path}.support")
    members_obj = _require(obj, "members", path)
    if not isinstance(members_obj, list):
        raise FormatError(f"{path}.members: expected a list")
    members = []
    for i, m in enumerate(members_obj):
        gens_obj = _require(m, "generators", f"{path}.members[{i}]")
        if not isinstance(gens_obj, list):
            raise FormatError(f"{path}.members[{i}].generators: expected a list")
        vectors = [
            parse_vector(g, rank, f"{path}.members[{i}].generators[{j}]")
            for j, g in enumerate(gens_obj)
        ]
        members.append(Cone(rank, vectors, relint=True))
    group = [
        parse_group_element(g, rank, f"{path}.group[{i}]")
        for i, g in enumerate(_list_of(obj, "group", path))
    ]
    try:
        return Decomposition(rank, tuple(members), tuple(group), support)
    except ValueError as e:
        raise FormatError(f"{path}: {e}") from None


# -- chains and cycles ----------------------------------------------------------------


def dump_chain(chain: VertexChain) -> dict:
    return {
        "format": CHAIN_FORMAT,
        "discriminant": chain.cusp.ideal.D,
        "alpha": dump_scalar(chain.cusp.ideal.alpha),
        "beta": dump_scalar(chain.cusp.ideal.beta),
        "unit": dump_scalar(chain.cusp.unit),
        "vertices": [list(v) for v in chain.vertices],
        "b": list(chain.b),
        "box": chain.box_used,
    }


def load_chain(obj, path: str = "chain") -> VertexChain:
    _check_format(obj, CHAIN_FORMAT, path)
    D = _require(obj, "discriminant", path)
    if not _is_int(D):
        raise FormatError(f"{path}.discriminant: expected an integer")
    alpha = parse_scalar(_require(obj, "alpha", path), f"{path}.alpha")
    beta = parse_scalar(_require(obj, "beta", path), f"{path}.beta")
    unit = parse_scalar(_require(obj, "unit", path), f"{path}.unit")
    vertices = _require(obj, "vertices", path)
    b = _require(obj, "b", path)
    if not isinstance(vertices, list) or not all(_int_list(v, 2) for v in vertices):
        raise FormatError(f"{path}.vertices: expected a list of integer pairs")
    if not _int_list(b):
        raise FormatError(f"{path}.b: expected a list of integers")
    box = obj.get("box", max((abs(t) for v in vertices for t in v), default=0))
    if not _is_int(box):
        raise FormatError(f"{path}.box: expected an integer")
    try:
        cusp = CuspData(QuadIdeal(alpha, beta, D), unit)
        return VertexChain(cusp, tuple(tuple(v) for v in vertices), tuple(b), box)
    except ValueError as e:
        raise FormatError(f"{path}: {e}") from None


def dump_cycle(res: CycleResolution) -> dict:
    return {
        "format": CYCLE_FORMAT,
        "m": res.m,
        "b": list(res.b),
        "self_intersections": list(res.self_intersection_numbers()),
        "offset": res.offset,
    }


# -- atlases ---------------------------------------------------------------------------


def dump_atlas(atlas: BoundaryAtlas) -> dict:
    return {
        "format": ATLAS_FORMAT,
        "rank": atlas.rank,
        "points": [
            {
                "label": p.label,
                "cone": [[int(x) for x in g.as_integers()] for g in p.cone.generators],
                "frame": [[frac_str(x) for x in row] for row in p.frame],
            }
            for p in atlas.points
        ],
        "group": [dump_group_element(g) for g in atlas.group],
        "covers_boundary": atlas.covers_boundary,
        "support": dump_support(atlas.support_hint) if atlas.support_hint else None,
    }


def load_atlas(obj, path: str = "atlas") -> BoundaryAtlas:
    _check_format(obj, ATLAS_FORMAT, path)
    rank = _require(obj, "rank", path)
    if not _is_int(rank) or rank < 1:
        raise FormatError(f"{path}.rank: expected a positive integer")
    points = []
    points_obj = _require(obj, "points", path)
    if not isinstance(points_obj, list):
        raise FormatError(f"{path}.points: expected a list")
    for i, p in enumerate(points_obj):
        ppath = f"{path}.points[{i}]"
        label = _require(p, "label", ppath)
        cone_rows = _require(p, "cone", ppath)
        if not isinstance(cone_rows, list) or not all(_int_list(r, rank) for r in cone_rows):
            raise FormatError(f"{ppath}.cone: expected integer generator rows of length {rank}")
        frame_rows = _require(p, "frame", ppath)
        if not isinstance(frame_rows, list):
            raise FormatError(f"{ppath}.frame: expected a matrix")
        frame = tuple(
            _frac_list(row, f"{ppath}.frame[{r}]") for r, row in enumerate(frame_rows)
        )
        try:
            points.append(
                MaxDepthPoint(str(label), Cone(rank, [Vector(r) for r in cone_rows]), frame)
            )
        except ValueError as e:
            raise FormatError(f"{ppath}: {e}") from None
    group = [
        parse_group_element(g, rank, f"{path}.group[{i}]")
        for i, g in enumerate(_list_of(obj, "group", path))
    ]
    support = obj.get("support")
    support = parse_support(support, f"{path}.support") if support else None
    covers = obj.get("covers_boundary", True)
    if not isinstance(covers, bool):
        raise FormatError(f"{path}.covers_boundary: expected a boolean")
    try:
        return BoundaryAtlas(rank, tuple(points), tuple(group), covers, support)
    except ValueError as e:
        raise FormatError(f"{path}: {e}") from None


# -- monodromy ---------------------------------------------------------------------------


def _frac_vector(obj, n: int, path: str) -> tuple:
    """A list of n rationals; n is the operators' dimension."""
    out = _frac_list(obj, path)
    if len(out) != n:
        raise FormatError(f"{path}: expected {n} entries, the operators' dimension, got {len(out)}")
    return out


def _parse_frac_matrix(obj, path: str, n=None) -> tuple:
    """An n x n matrix of rationals; n is its number of rows unless given."""
    if not isinstance(obj, list) or not obj:
        raise FormatError(f"{path}: expected a nonempty matrix")
    n = len(obj) if n is None else n
    if len(obj) != n:
        raise FormatError(f"{path}: expected {n} rows, the operators' dimension, got {len(obj)}")
    return tuple(_frac_vector(row, n, f"{path}[{i}]") for i, row in enumerate(obj))


def load_monodromy(obj, path: str = "monodromy") -> dict:
    """The operators, square and of one dimension n, with the optional n x n
    pairing, omega0 of length n, and basis of length-n vectors g0 and one g
    per operator, all checked for shape here."""
    _check_format(obj, MONODROMY_FORMAT, path)
    ops_obj = _require(obj, "operators", path)
    if not isinstance(ops_obj, list) or not ops_obj:
        raise FormatError(f"{path}.operators: expected a nonempty list of matrices")
    first = _parse_frac_matrix(ops_obj[0], f"{path}.operators[0]")
    n = len(first)
    operators = (first,) + tuple(
        _parse_frac_matrix(T, f"{path}.operators[{i}]", n) for i, T in enumerate(ops_obj) if i
    )
    out = {"operators": operators, "pairing": None, "omega0": None, "basis": None, "weight": None}
    if obj.get("pairing") is not None:
        out["pairing"] = _parse_frac_matrix(obj["pairing"], f"{path}.pairing", n)
    if obj.get("omega0") is not None:
        out["omega0"] = _frac_vector(obj["omega0"], n, f"{path}.omega0")
    if obj.get("basis") is not None:
        b = obj["basis"]
        g0 = _require(b, "g0", f"{path}.basis")
        gs = _require(b, "gs", f"{path}.basis")
        if not isinstance(gs, list):
            raise FormatError(f"{path}.basis.gs: expected a list")
        out["basis"] = (
            _frac_vector(g0, n, f"{path}.basis.g0"),
            [_frac_vector(g, n, f"{path}.basis.gs[{k}]") for k, g in enumerate(gs)],
        )
        if len(gs) != len(operators):
            raise FormatError(
                f"{path}.basis.gs: expected {len(operators)} vectors, one per operator, got {len(gs)}"
            )
    if obj.get("weight") is not None:
        w = obj["weight"]
        if not _is_int(w):
            raise FormatError(f"{path}.weight: expected an integer")
        out["weight"] = w
    return out


def dump_monodromy(operators, pairing=None, omega0=None, basis=None, weight=None) -> dict:
    out = {
        "format": MONODROMY_FORMAT,
        "operators": [[[frac_str(Fraction(x)) for x in row] for row in T] for T in operators],
        "pairing": None,
        "omega0": None,
        "basis": None,
        "weight": weight,
    }
    if pairing is not None:
        out["pairing"] = [[frac_str(Fraction(x)) for x in row] for row in pairing]
    if omega0 is not None:
        out["omega0"] = [frac_str(Fraction(x)) for x in omega0]
    if basis is not None:
        g0, gs = basis
        out["basis"] = {
            "g0": [frac_str(Fraction(x)) for x in g0],
            "gs": [[frac_str(Fraction(x)) for x in g] for g in gs],
        }
    return out


# -- series ---------------------------------------------------------------------------


def dump_series(s: FormalSeries) -> dict:
    return {
        "format": SERIES_FORMAT,
        "rank": s.rank,
        "truncation": s.truncation,
        "complete_order": s.complete_order,
        "terms": [
            {"exponent": list(e), "coefficient": frac_str(c)} for e, c in s.terms
        ],
    }


def _series_term(t, rank: int, tpath: str) -> tuple:
    """(exponent, coefficient) of one term, or the FormatError at ``tpath``."""
    expo = _require(t, "exponent", tpath)
    if not _int_list(expo, rank):
        raise FormatError(f"{tpath}.exponent: expected {rank} integers")
    return tuple(expo), parse_frac(_require(t, "coefficient", tpath), f"{tpath}.coefficient")


def _regular_terms(terms_obj, rank: int, truncation: int):
    """The exponent -> coefficient dict of a term list checked a column at a
    time, or None unless every term has a list of ``rank`` ints and an int
    or a string spelling a nonzero rational, no exponent repeats and none
    lies beyond the truncation.  Each distinct spelling is parsed once."""
    try:
        lists = [t["exponent"] for t in terms_obj]
        spellings = [t["coefficient"] for t in terms_obj]
    except (TypeError, KeyError):
        return None
    if not (set(map(type, lists)) <= {list} and set(map(len, lists)) <= {rank}
            and set(map(type, chain.from_iterable(lists))) <= {int}
            and set(map(type, spellings)) <= {int, str}):
        return None
    try:
        value = {c: parse_frac(c, "") for c in set(spellings)}
    except FormatError:
        return None
    expos = list(map(tuple, lists))
    terms = dict(zip(expos, map(value.__getitem__, spellings)))
    if len(terms) < len(expos) or not all(value.values()):
        return None
    l1 = max(map(sum, map(map, repeat(abs), expos)), default=0)
    return terms if l1 <= truncation else None


def load_series(obj, path: str = "series") -> FormalSeries:
    _check_format(obj, SERIES_FORMAT, path)
    rank = _require(obj, "rank", path)
    truncation = _require(obj, "truncation", path)
    if not _is_int(rank) or rank < 1:
        raise FormatError(f"{path}.rank: expected a positive integer")
    if not _is_int(truncation) or truncation < 0:
        raise FormatError(f"{path}.truncation: expected a nonnegative integer")
    complete = obj.get("complete_order", truncation)
    if not _is_int(complete):
        raise FormatError(f"{path}.complete_order: expected an integer")
    terms_obj = _require(obj, "terms", path)
    if not isinstance(terms_obj, list):
        raise FormatError(f"{path}.terms: expected a list")
    clean = _regular_terms(terms_obj, rank, truncation)
    if clean is None:
        terms = tuple(_series_term(t, rank, f"{path}.terms[{i}]") for i, t in enumerate(terms_obj))
        try:
            return FormalSeries(rank, terms, truncation, complete)
        except DegenerateInputError as e:
            raise FormatError(f"{path}: {e}") from None
    if not 0 <= complete <= truncation:
        raise FormatError(f"{path}: complete order must lie within the truncation")
    return FormalSeries._of(rank, clean.items(), truncation, complete)


# -- reports (output only) ---------------------------------------------------------------


def dump_lattice(lattice) -> dict:
    """A lattice given as (denominator, HNF rows), or None, as two fields."""
    return {
        "lattice": [list(r) for r in lattice[1]] if lattice else None,
        "lattice_denominator": lattice[0] if lattice else None,
    }


def dump_report(rep, witnesses: bool = False) -> dict:
    """The verdict, each condition and the report's data; ``witnesses`` adds
    each condition's witnesses (as strings) and the notes."""
    doc = {
        "passed": rep.passed,
        "conditions": [
            {"name": c.name, "passed": c.passed, "details": c.details}
            for c in rep.conditions
        ],
    }
    if witnesses:
        for out, c in zip(doc["conditions"], rep.conditions):
            out["witnesses"] = [str(w) for w in c.witnesses]
        doc["notes"] = list(rep.notes)
    for key, value in rep.data.items():
        doc.update(dump_lattice(value) if key == "lattice" else {key: value})
    return doc


def dump_coordinates(qc) -> dict:
    def poly(p):
        return [
            {"exponent": list(e), "coefficient": frac_str(c)}
            for e, c in sorted(p.items())
        ]

    return {
        "f": [poly(f) for f in qc.fs],
        "constants": [frac_str(c) for c in qc.constants],
        "remainders": [poly(r) for r in qc.remainders],
        "m": [[frac_str(x) for x in row] for row in qc.m],
        "exact": qc.exact,
        "degenerate": qc.degenerate,
        "q": list(qc.q_descriptions()),
        "order": qc.order,
    }


def dump_nondescent_witness(w: NondescentWitness) -> dict:
    def laurent(d):
        return [{"power": k, "coefficient": frac_str(v)} for k, v in sorted(d.items())]

    return {
        "sample_section": laurent(w.sample_section),
        "sample_nabla": laurent(w.sample_nabla),
        "pole_order": w.pole_order,
        "lead_coefficient": frac_str(w.lead_coefficient),
        "scaling_obstruction": laurent(w.scaling_obstruction),
        "translation_obstruction": laurent(w.translation_obstruction),
        "descends_under_scalings": w.descends_under_scalings,
        "obstructed_under_translations": w.obstructed_under_translations,
    }
