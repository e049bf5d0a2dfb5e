import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from semitoric import (
    Cone,
    DegenerateInputError,
    FormatError,
    FormalSeries,
    Framing,
    IntMatrix,
    Vector,
    cli,
    effectivity_check,
    reframe,
    reframing_preserves_effectivity,
    series,
    series_inverse,
    series_multiply,
)
from semitoric.formats import canonical_dumps, dump_series, load_series, parse_frac

PROPERTIES = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _l1(expo):
    return sum(abs(e) for e in expo)


def _random_series(rng, rank, truncation=8, effective=True):
    terms = {}
    lo = 0 if effective else -3
    for _ in range(rng.randint(3, 10)):
        expo = tuple(rng.randint(lo, 4) for _ in range(rank))
        if _l1(expo) <= truncation:
            terms[expo] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return series(rank, terms, truncation)


def test_constructor_normalizes_terms():
    s = series(2, {(1, 0): 2, (0, 0): 0, (0, 2): Fraction(1, 3)}, 4)
    assert s.terms == (((0, 2), Fraction(1, 3)), ((1, 0), Fraction(2)))
    assert s.coefficient((1, 0)) == 2
    assert s.coefficient((5, 5)) == 0
    assert s.complete_order == 4


def test_constructor_guards():
    with pytest.raises(DegenerateInputError, match="duplicate"):
        series(2, [((1, 0), 1), ((1, 0), 2)], 4)
    with pytest.raises(DegenerateInputError, match="rank"):
        series(2, {(1, 0, 0): 1}, 4)
    with pytest.raises(DegenerateInputError, match="rank must be positive"):
        series(0, {(): 1}, 0)
    with pytest.raises(DegenerateInputError, match="beyond the truncation"):
        series(2, {(3, 2): 1}, 4)
    with pytest.raises(DegenerateInputError, match="complete order"):
        series(2, {(1, 0): 1}, 4, complete_order=5)
    with pytest.raises(DegenerateInputError, match="non-integer"):
        series(2, {(1.5, 0): 1, (0, 2.9): 2}, 4)
    with pytest.raises(DegenerateInputError, match="non-integer"):
        series(2, {(Fraction(1), 0): 1}, 4)
    assert series(2, {(1, 0): 2}, 4).coefficient((1.5, 0)) == 0


def test_effectivity_witness_in_standard_framing():
    good = series(2, {(0, 0): 1, (2, 1): 5}, 4)
    assert effectivity_check(good)
    bad = series(2, {(1, -1): 1, (0, 1): 2}, 4)
    rep = effectivity_check(bad)
    assert not rep.passed
    assert rep.witness == (1, -1)


def test_effectivity_in_custom_framing():
    framing = Framing(IntMatrix(((1, 1), (0, 1))))
    inside = series(2, {(1, 1): 1, (1, 2): 3}, 4)
    assert effectivity_check(inside, framing)
    outside = series(2, {(1, 0): 1}, 4)
    rep = effectivity_check(outside, framing)
    assert not rep.passed and rep.witness == (1, 0)


def test_framing_guards_and_coordinates():
    with pytest.raises(DegenerateInputError):
        Framing(IntMatrix(((1, 0), (1, 2))))
    quad = Cone(2, [Vector((1, 0)), Vector((0, 1))]).closure()
    with pytest.raises(DegenerateInputError):
        Framing(IntMatrix(((1, 0), (0, -1))), support=quad)
    f = Framing(IntMatrix(((1, 1), (0, 1))), support=quad)
    assert f.rank == 2
    assert f.coordinates((1, 1)) == (1, 0)
    assert f.coordinates((1, 2)) == (1, 1)


def test_reframe_round_trips_exactly():
    rng = random.Random(61)
    for _ in range(20):
        rank = rng.choice((2, 3))
        s = _random_series(rng, rank)
        M = IntMatrix(tuple(tuple(r) for r in oracles.random_unimodular(rng, rank)))
        forward = reframe(s, M)
        back = reframe(forward, M.inverse_unimodular())
        assert back.terms == s.terms
        inv_t = [list(r) for r in M.inverse_unimodular().transpose().rows]
        rho = max(
            sum(abs(inv_t[i][j]) for i in range(rank)) for j in range(rank)
        )
        assert forward.complete_order == s.complete_order // rho


def test_reframe_composition_identity():
    rng = random.Random(62)
    for _ in range(20):
        rank = rng.choice((2, 3))
        s = _random_series(rng, rank)
        M1 = IntMatrix(tuple(tuple(r) for r in oracles.random_unimodular(rng, rank)))
        M2 = IntMatrix(tuple(tuple(r) for r in oracles.random_unimodular(rng, rank)))
        two_steps = reframe(reframe(s, M1), M2)
        one_step = reframe(s, M1 * M2)
        assert two_steps.terms == one_step.terms


def test_reframe_moves_exponents_by_transpose():
    s = series(2, {(1, 0): 7}, 3)
    M = IntMatrix(((1, 2), (0, 1)))
    out = reframe(s, M)
    assert out.terms == (((1, 2), Fraction(7)),)


def test_reframe_guards():
    s = series(2, {(1, 0): 1}, 3)
    with pytest.raises(DegenerateInputError):
        reframe(s, IntMatrix(((2, 0), (0, 1))))
    with pytest.raises(DegenerateInputError):
        reframe(s, IntMatrix.identity(3))


def test_preserves_effectivity_verdicts_and_witness():
    keeps = IntMatrix(((1, 0), (1, 1)))
    assert reframing_preserves_effectivity(keeps)
    drops = IntMatrix(((1, 0), (-1, 1)))
    rep = reframing_preserves_effectivity(drops)
    assert not rep.passed
    assert rep.witness == (0, 1)

    s = series(2, {tuple(rep.witness): 1}, 4)
    assert effectivity_check(s)
    assert not effectivity_check(reframe(s, drops))

    rng = random.Random(63)
    for _ in range(15):
        s = _random_series(rng, 2)
        if reframing_preserves_effectivity(keeps) and effectivity_check(s):
            assert effectivity_check(reframe(s, keeps))


def test_preserves_effectivity_in_custom_framing():
    framing = Framing(IntMatrix(((1, 1), (0, 1))))
    shear = IntMatrix(((1, 1), (0, 1)))
    rep = reframing_preserves_effectivity(shear, framing)
    assert rep.passed


def test_series_multiply_matches_convolution():
    rng = random.Random(64)
    for _ in range(10):
        a = _random_series(rng, 2)
        b = _random_series(rng, 2)
        out = series_multiply(a, b)
        cap = min(a.complete_order, b.complete_order)
        expected = {}
        for ea, ca in a.terms:
            for eb, cb in b.terms:
                e = (ea[0] + eb[0], ea[1] + eb[1])
                if _l1(e) <= cap:
                    expected[e] = expected.get(e, Fraction(0)) + ca * cb
        expected = {e: c for e, c in expected.items() if c != 0}
        assert out.as_dict() == expected
        assert out.complete_order == cap


def test_series_multiply_requires_effectivity():
    a = series(2, {(1, -1): 1}, 4)
    b = series(2, {(0, 0): 1}, 4)
    with pytest.raises(DegenerateInputError, match="effective"):
        series_multiply(a, b)


def test_series_inverse_of_a_geometric_series():
    s = series(1, {(0,): 2, (1,): -2}, 5, complete_order=4)
    inv = series_inverse(s)
    assert inv.as_dict() == {(k,): Fraction(1, 2) for k in range(5)}
    assert inv.truncation == inv.complete_order == 4


def test_series_inverse_guards():
    with pytest.raises(DegenerateInputError, match="nonzero constant term"):
        series_inverse(series(2, {(1, 0): 1, (0, 2): 3}, 4))
    with pytest.raises(DegenerateInputError, match="effective"):
        series_inverse(series(2, {(0, 0): 1, (1, -1): 1}, 4))


# -- properties ----------------------------------------------------------------------


@st.composite
def series_and_matrices(draw):
    """A series of rank 2 to 4 with exponents in [-3, 3] and a unimodular
    matrix built from elementary row operations, sign changes and swaps."""
    rank = draw(st.integers(2, 4))
    expo = st.tuples(*[st.integers(-3, 3)] * rank)
    coeff = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    terms = draw(st.dictionaries(expo, coeff, max_size=12))
    truncation = max([_l1(e) for e in terms] + [0]) + draw(st.integers(0, 3))
    complete = draw(st.integers(0, truncation))
    rows = [[int(i == j) for j in range(rank)] for i in range(rank)]
    index = st.integers(0, rank - 1)
    steps = st.lists(st.tuples(st.integers(0, 2), index, index, st.integers(-3, 3)), max_size=8)
    for kind, i, j, k in draw(steps):
        if kind == 0 and i != j:
            rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
        elif kind == 1:
            rows[i] = [-a for a in rows[i]]
        else:
            rows[i], rows[j] = rows[j], rows[i]
    return series(rank, terms, truncation, complete), IntMatrix(rows)


@PROPERTIES
@given(series_and_matrices())
def test_reframing_back_recovers_the_terms(sm):
    s, M = sm
    back = reframe(reframe(s, M), M.inverse_unimodular())
    assert back.terms == s.terms


@PROPERTIES
@given(series_and_matrices())
def test_series_documents_are_byte_stable(sm):
    s, M = sm
    for t in (s, reframe(s, M)):
        text = canonical_dumps(dump_series(t))
        again = load_series(dump_series(t))
        assert again == t
        assert canonical_dumps(dump_series(again)) == text


@st.composite
def invertible_series(draw):
    """An effective series of rank 1 to 3 with a nonzero constant term and
    negative and fractional coefficients."""
    rank = draw(st.integers(1, 3))
    expo = st.tuples(*[st.integers(0, 3)] * rank)
    coeff = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    terms = draw(st.dictionaries(expo, coeff, max_size=10))
    terms[(0,) * rank] = draw(coeff.filter(bool))
    truncation = max(_l1(e) for e in terms) + draw(st.integers(0, 2))
    complete = draw(st.integers(0, truncation))
    return series(rank, terms, truncation, complete)


@PROPERTIES
@given(invertible_series())
def test_series_inverse_times_the_series_is_one(s):
    inv = series_inverse(s)
    assert inv.truncation == inv.complete_order == s.complete_order
    one = series_multiply(s, inv)
    assert one.as_dict() == {(0,) * s.rank: Fraction(1)}
    assert one.complete_order == s.complete_order



@st.composite
def series_documents(draw):
    """A well-formed series/1 document of rank 1 to 3: exponents in
    [-3, 3] that may repeat, coefficients spelled as integers or "p/q"
    (some zero), a truncation that may leave terms beyond it, and a complete
    order that may be absent or out of range."""
    rank = draw(st.integers(1, 3))
    expo = st.lists(st.integers(-3, 3), min_size=rank, max_size=rank)
    coeff = st.one_of(
        st.integers(-3, 3),
        st.tuples(st.integers(-9, 9), st.integers(1, 6)).map(lambda t: f"{t[0]}/{t[1]}"),
    )
    terms = draw(st.lists(st.tuples(expo, coeff), max_size=10))
    doc = {
        "format": "series/1",
        "rank": rank,
        "truncation": draw(st.integers(0, 9)),
        "terms": [{"exponent": e, "coefficient": c} for e, c in terms],
    }
    if draw(st.booleans()):
        doc["complete_order"] = draw(st.integers(-1, 10))
    return doc


@PROPERTIES
@given(series_documents())
@example({"format": "series/1", "rank": 1, "truncation": 2, "complete_order": 3,
          "terms": [{"exponent": [1], "coefficient": 1}, {"exponent": [1], "coefficient": 2}]})
@example({"format": "series/1", "rank": 1, "truncation": 1,
          "terms": [{"exponent": [1], "coefficient": 1}, {"exponent": [1], "coefficient": "0/2"}]})
def test_load_series_agrees_with_the_public_constructor(doc):
    """A parsed document is the series the checking constructor builds from
    the parsed terms, or fails with that constructor's message."""
    terms = tuple(
        (tuple(t["exponent"]), Fraction(t["coefficient"])) for t in doc["terms"]
    )
    truncation = doc["truncation"]
    try:
        expected = FormalSeries(rank=doc["rank"], terms=terms, truncation=truncation,
                                complete_order=doc.get("complete_order", truncation))
    except DegenerateInputError as e:
        with pytest.raises(FormatError) as info:
            load_series(doc)
        assert str(info.value) == f"series: {e}"
        return
    got = load_series(doc)
    assert got == expected
    assert all(type(c) is Fraction and all(type(x) is int for x in e) for e, c in got.terms)

def _fraction_or_error(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        return type(e), str(e)


@PROPERTIES
@given(st.text(alphabet="0123456789-+/ ._eE\u0663x\t", max_size=10))
@example("1" * 4301)
@example("-" + "1" * 4301)
@example("1/" + "2" * 4301)
@example("-0/5")
@example("1/0")
@example("-")
def test_parse_frac_agrees_with_fraction(text):
    expected = _fraction_or_error(text)
    if isinstance(expected, Fraction):
        got = parse_frac(text, "x")
        assert type(got) is Fraction and got == expected
    else:
        with pytest.raises(FormatError) as info:
            parse_frac(text, "x")
        assert type(info.value.__context__) is expected[0]
        assert str(info.value) == f"x: bad rational {text!r}: {expected[1]}"


# -- work at benchmark scale ---------------------------------------------------------------


SPELLINGS = ("-5/2", "-3", "-2/3", "-1/4", "1", "2/3", "3/2", "4")


def _large_series_doc(rng, rank, n=1500, side=12, spellings=SPELLINGS):
    """A series/1 document of ``n`` distinct exponents in [0, side]^rank, in
    random order, its coefficients drawn from ``spellings``."""
    exps = set()
    while len(exps) < n:
        exps.add(tuple(rng.randint(0, side) for _ in range(rank)))
    terms = [{"exponent": list(e), "coefficient": rng.choice(spellings)} for e in sorted(exps)]
    rng.shuffle(terms)
    return {"format": "series/1", "rank": rank, "truncation": rank * side, "terms": terms}


def test_large_series_work_is_per_column_not_per_term(monkeypatch):
    """Each distinct coefficient spelling is parsed once, and neither the
    reframing nor the effectivity check applies a matrix term by term."""
    from semitoric import formats

    rng = random.Random(2201)
    doc = _large_series_doc(rng, 3)
    M = IntMatrix(oracles.random_unimodular(rng, 3))
    framing = Framing(IntMatrix(oracles.random_unimodular(rng, 3)))
    calls = {"parse_frac": 0, "apply_int": 0}

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    monkeypatch.setattr(formats, "parse_frac", counted("parse_frac", formats.parse_frac))
    monkeypatch.setattr(IntMatrix, "apply_int", counted("apply_int", IntMatrix.apply_int))
    s = load_series(doc)
    assert len(s.terms) == 1500
    assert calls["parse_frac"] <= len(SPELLINGS)
    reframe(s, M)
    effectivity_check(s, framing)
    assert calls["apply_int"] == 0


def _matrix_arg(M) -> str:
    return ";".join(",".join(map(str, row)) for row in M)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_large_series_commands_match_the_oracle(tmp_path, capsys, rank):
    """At the benchmark's scale: 1,500 terms, coefficients spelled reduced,
    unreduced and as JSON integers, and random unimodular matrices."""
    rng = random.Random(2200 + rank)
    side = (40, 12, 6)[rank - 2]
    doc = _large_series_doc(rng, rank, side=side, spellings=SPELLINGS + ("4/6", "-6/3", 3))
    doc["complete_order"] = rng.randint(rank * side // 2, rank * side)
    path = tmp_path / "reframe.json"
    path.write_text(json.dumps(doc))
    for _ in range(3):
        M = oracles.random_unimodular(rng, rank)
        assert cli.main(["series", "reframe", str(path), f"--matrix={_matrix_arg(M)}"]) == 0
        assert capsys.readouterr().out == oracles.reframed_series_text(doc, M)

    F = oracles.random_unimodular(rng, rank)

    def framed(coords_doc):
        """The document with each exponent c moved to F^T c, truncated at
        the largest l1 norm."""
        d = json.loads(json.dumps(coords_doc))
        for t in d["terms"]:
            c = t["exponent"]
            t["exponent"] = [sum(F[j][i] * c[j] for j in range(rank)) for i in range(rank)]
        d["truncation"] = max(sum(map(abs, t["exponent"])) for t in d["terms"])
        return d

    coords = _large_series_doc(rng, rank, side=side)
    inside = framed(coords)
    for k, t in enumerate(rng.sample(coords["terms"], 3), 1):
        t["exponent"] = [-k] + [side + 1] * (rank - 1)
    outside = framed(coords)
    for d, effective in ((inside, True), (outside, False), (doc, None)):
        path.write_text(json.dumps(d))
        rc = cli.main(["series", "check", str(path), f"--framing={_matrix_arg(F)}"])
        out = json.loads(capsys.readouterr().out)
        witness = oracles.first_noneffective_exponent(d, F)
        assert effective is None or effective is (witness is None)
        assert out["effective"] is (witness is None)
        assert out["witness"] == (list(witness) if witness else None)
        assert rc == (0 if witness is None else 1)


def _zero_division_text(text):
    try:
        Fraction(text)
    except ZeroDivisionError as e:
        return str(e)


LATE_FAULTS = [
    "zero-coefficient-repeat", "duplicate", "beyond", "bool-entry", "float-entry",
    "bool-coefficient", "float-coefficient", "zero-denominator", "missing-exponent",
    "missing-coefficient", "duplicate-then-float",
]


@pytest.mark.parametrize("fault", LATE_FAULTS)
def test_one_late_bad_term_gets_the_term_by_term_message(fault):
    """One seeded fault among the last tenth of 1,500 terms: the document
    fails with the message of the first faulty term, every term parsing
    before the duplicate and truncation checks, or, for a zero coefficient
    on a repeated exponent, loads as if the term were absent."""
    rng = random.Random(f"late {fault}")
    doc = _large_series_doc(rng, 3)
    terms = doc["terms"]
    i = rng.randrange(len(terms) * 9 // 10, len(terms))
    t = terms[i]
    where = f"series.terms[{i}]"
    earlier = tuple(terms[rng.randrange(i - 5)]["exponent"])
    if fault == "zero-coefficient-repeat":
        expected = load_series(doc)
        terms.insert(i, {"exponent": list(earlier), "coefficient": "0/7"})
        assert load_series(doc) == expected
        return
    if fault == "duplicate":
        t["exponent"] = list(earlier)
        message = f"series: duplicate exponent {earlier}"
    elif fault == "beyond":
        t["exponent"] = [doc["truncation"] + 1, 0, 0]
        message = f"series: term {tuple(t['exponent'])} lies beyond the truncation {doc['truncation']}"
    elif fault in ("bool-entry", "float-entry"):
        t["exponent"][rng.randrange(3)] = True if fault == "bool-entry" else 1.0
        message = f"{where}.exponent: expected 3 integers"
    elif fault == "bool-coefficient":
        t["coefficient"] = True
        message = f"{where}.coefficient: expected a rational, got a boolean"
    elif fault == "float-coefficient":
        t["coefficient"] = 0.5
        message = f"{where}.coefficient: expected a rational, got float"
    elif fault == "zero-denominator":
        t["coefficient"] = "1/0"
        message = f"{where}.coefficient: bad rational '1/0': {_zero_division_text('1/0')}"
    elif fault.startswith("missing"):
        key = fault.split("-")[1]
        del t[key]
        message = f"{where}: missing the key {key!r}"
    else:
        terms[i - 5]["exponent"] = list(earlier)
        t["coefficient"] = 0.5
        message = f"{where}.coefficient: expected a rational, got float"
    with pytest.raises(FormatError) as info:
        load_series(doc)
    assert str(info.value) == message
