import json
import random
from fractions import Fraction

import pytest

import fixtures
from semitoric import CuspData, FormatError, IntMatrix, build_fan, hull_vertices, series
from semitoric.connection import atlas_from_fan
from semitoric.cusp import self_intersections
from semitoric.formats import (
    canonical_dumps,
    dump_atlas,
    dump_chain,
    dump_cycle,
    dump_fan,
    dump_monodromy,
    dump_series,
    frac_str,
    load_atlas,
    load_chain,
    load_fan,
    load_monodromy,
    load_series,
    parse_frac,
    parse_scalar,
)


def _round_trip(dump, load, obj):
    text = canonical_dumps(dump(obj))
    parsed = load(json.loads(text))
    again = canonical_dumps(dump(parsed))
    assert again == text
    return parsed


def test_chain_round_trip_bytes():
    chain = hull_vertices(CuspData.standard(13))
    parsed = _round_trip(dump_chain, load_chain, chain)
    assert parsed.b == chain.b
    assert parsed.vertices == chain.vertices
    # a chain without "box" takes it from its vertices
    doc = dump_chain(chain)
    del doc["box"]
    assert load_chain(doc).box_used == chain.box_used == 3


def test_fan_round_trip_bytes_irrational_support():
    fan = build_fan(CuspData.standard(5))
    parsed = _round_trip(dump_fan, load_fan, fan)
    assert parsed.rank == fan.rank
    assert len(parsed.members) == len(fan.members)
    assert parsed.support.same_as(fan.support)


def test_fan_round_trip_bytes_rational():
    rng = random.Random(8)
    fan = fixtures.stern_brocot_fan(rng, 5)
    parsed = _round_trip(dump_fan, load_fan, fan)
    assert {m.generators for m in parsed.members} == {
        m.generators for m in fan.members
    }


def test_atlas_round_trip_bytes():
    atlas = atlas_from_fan(build_fan(CuspData.standard(5)))
    parsed = _round_trip(dump_atlas, load_atlas, atlas)
    assert [p.label for p in parsed.points] == [p.label for p in atlas.points]
    assert parsed.points[0].frame == atlas.points[0].frame


def test_monodromy_round_trip_bytes():
    T1, T2 = fixtures.product_operators()
    doc = dump_monodromy(
        [[list(r) for r in T.rows] for T in (T1, T2)],
        pairing=fixtures.antidiagonal_pairing(4),
        omega0=(1, 0, 0, 0),
        basis=((0, 0, 0, 1), [(0, 1, 0, 0), (0, 0, 1, 0)]),
        weight=2,
    )
    text = canonical_dumps(doc)
    parsed = load_monodromy(json.loads(text))
    again = canonical_dumps(
        dump_monodromy(
            parsed["operators"],
            parsed["pairing"],
            parsed["omega0"],
            parsed["basis"],
            parsed["weight"],
        )
    )
    assert again == text
    assert parsed["weight"] == 2
    assert parsed["operators"][0] == tuple(tuple(Fraction(x) for x in r) for r in T1.rows)


def test_series_round_trip_bytes():
    s = series(2, {(1, 0): Fraction(3, 2), (0, 2): -4}, 8, complete_order=5)
    parsed = _round_trip(dump_series, load_series, s)
    assert parsed.terms == s.terms
    assert parsed.truncation == 8 and parsed.complete_order == 5


def test_cycle_dump_is_canonical_json():
    cyc = self_intersections(CuspData.standard(13))
    text = canonical_dumps(dump_cycle(cyc))
    assert canonical_dumps(json.loads(text)) == text
    doc = json.loads(text)
    assert doc["format"] == "cycle/1"
    assert doc["b"] == [2, 2, 5]


def test_scalar_and_frac_parsing():
    assert parse_frac("3/4", "x") == Fraction(3, 4)
    assert parse_frac(7, "x") == 7
    assert frac_str(Fraction(-5, 3)) == "-5/3"
    assert frac_str(Fraction(4, 2)) == "2"
    s = parse_scalar({"a": "1/2", "b": "1", "D": 5}, "x")
    assert s.a == Fraction(1, 2) and s.b == 1 and s.D == 5
    assert parse_scalar("9", "x").is_rational


def test_format_errors_carry_paths():
    fan_doc = json.loads(canonical_dumps(dump_fan(build_fan(CuspData.standard(5)))))

    with pytest.raises(FormatError, match=r"fan\.format"):
        load_fan({**fan_doc, "format": "fan/2"})
    with pytest.raises(FormatError, match=r"fan: missing the key 'rank'"):
        load_fan({k: v for k, v in fan_doc.items() if k != "rank"})
    with pytest.raises(FormatError, match=r"fan\.support: expected an object"):
        load_fan({**fan_doc, "support": 3})

    broken = json.loads(json.dumps(fan_doc))
    broken["members"][0]["generators"][0][1] = "x"
    with pytest.raises(
        FormatError, match=r"fan\.members\[0\]\.generators\[0\]\[1\]: bad rational"
    ):
        load_fan(broken)

    short = json.loads(json.dumps(fan_doc))
    short["members"][0]["generators"][0] = [1]
    with pytest.raises(FormatError, match=r"expected a list of 2 scalars"):
        load_fan(short)

    badgroup = json.loads(json.dumps(fan_doc))
    badgroup["group"][0]["linear"] = [[1, 0], [0, "1"]]
    with pytest.raises(FormatError, match=r"fan\.group\[0\]\.linear"):
        load_fan(badgroup)


def test_format_errors_for_other_documents():
    chain_doc = json.loads(canonical_dumps(dump_chain(hull_vertices(CuspData.standard(5)))))
    vertbad = {**chain_doc, "vertices": [[1, "0"]]}
    with pytest.raises(FormatError, match=r"chain\.vertices"):
        load_chain(vertbad)

    with pytest.raises(FormatError, match=r"monodromy\.operators"):
        load_monodromy({"format": "monodromy/1", "operators": []})

    series_doc = {
        "format": "series/1",
        "rank": 2,
        "truncation": 4,
        "terms": [{"exponent": [1], "coefficient": "1"}],
    }
    with pytest.raises(FormatError, match=r"series\.terms\[0\]\.exponent"):
        load_series(series_doc)

    boolcoeff = {
        "format": "series/1",
        "rank": 2,
        "truncation": 4,
        "terms": [{"exponent": [1, 0], "coefficient": True}],
    }
    with pytest.raises(FormatError, match="boolean"):
        load_series(boolcoeff)

    dup = {
        "format": "series/1",
        "rank": 2,
        "truncation": 4,
        "terms": [
            {"exponent": [1, 0], "coefficient": "1"},
            {"exponent": [1, 0], "coefficient": "2"},
        ],
    }
    with pytest.raises(FormatError, match="duplicate"):
        load_series(dup)


def test_non_list_containers_are_format_errors():
    atlas_doc = json.loads(canonical_dumps(dump_atlas(atlas_from_fan(build_fan(
        CuspData.standard(5))))))
    mono_doc = json.loads(canonical_dumps(dump_monodromy(
        [[[1, 1], [0, 1]]], pairing=[[0, 1], [-1, 0]], omega0=[1, 0],
        basis=([1, 0], [[0, 1]]),
    )))
    load_monodromy(json.loads(json.dumps(mono_doc)))

    def patched(doc, edit):
        out = json.loads(json.dumps(doc))
        edit(out)
        return out

    def point(**kw):
        return lambda d: d["points"][0].update(**kw)

    cases = [
        (load_atlas, patched(atlas_doc, point(frame=[1, 2])), r"atlas\.points\[0\]\.frame\[0\]"),
        (load_atlas, patched(atlas_doc, point(frame=["12", "34"])),
         r"atlas\.points\[0\]\.frame\[0\]: expected a list"),
        (load_atlas, patched(atlas_doc, point(frame=5)), r"atlas\.points\[0\]\.frame"),
        (load_atlas, patched(atlas_doc, point(cone=[5])), r"atlas\.points\[0\]\.cone"),
        (load_atlas, patched(atlas_doc, point(cone=5)), r"atlas\.points\[0\]\.cone"),
        (load_atlas, patched(atlas_doc, lambda d: d.update(points=[5])),
         r"atlas\.points\[0\]: expected an object"),
        (load_atlas, patched(atlas_doc, lambda d: d.update(points=5)), r"atlas\.points"),
        (load_monodromy, patched(mono_doc, lambda d: d.update(basis={"g0": 5, "gs": []})),
         r"monodromy\.basis\.g0: expected a list"),
        (load_monodromy, patched(mono_doc, lambda d: d["basis"].update(gs=5)),
         r"monodromy\.basis\.gs: expected a list"),
        (load_monodromy, patched(mono_doc, lambda d: d["basis"].update(gs=[5])),
         r"monodromy\.basis\.gs\[0\]: expected a list"),
        (load_monodromy, patched(mono_doc, lambda d: d["basis"].update(g0="10")),
         r"monodromy\.basis\.g0: expected a list"),
        (load_monodromy, patched(mono_doc, lambda d: d.update(basis=5)),
         r"monodromy\.basis: expected an object"),
        (load_monodromy, patched(mono_doc, lambda d: d.update(operators=[[5]])),
         r"monodromy\.operators\[0\]\[0\]: expected a list"),
        (load_monodromy, patched(mono_doc, lambda d: d.update(operators=5)),
         r"monodromy\.operators"),
        (load_monodromy, patched(mono_doc, lambda d: d.update(pairing=[5, 6])),
         r"monodromy\.pairing\[0\]: expected a list"),
        (load_monodromy, patched(mono_doc, lambda d: d.update(omega0=5)),
         r"monodromy\.omega0: expected a list"),
        (load_monodromy, patched(mono_doc, lambda d: d.update(omega0="10")),
         r"monodromy\.omega0: expected a list"),
    ]
    for load, doc, where in cases:
        with pytest.raises(FormatError, match=where):
            load(doc)


def test_atlas_frame_fractions_survive():
    atlas = atlas_from_fan(build_fan(CuspData.standard(13)))
    doc = dump_atlas(atlas)
    frame_strings = doc["points"][0]["frame"]
    assert any("/" in x for row in frame_strings for x in row) or all(
        Fraction(x).denominator == 1 for row in frame_strings for x in row
    )
    parsed = load_atlas(json.loads(canonical_dumps(doc)))
    assert parsed.points[0].frame == atlas.points[0].frame


def test_group_element_identity_matrix_round_trips():
    rng = random.Random(9)
    fan = fixtures.stern_brocot_fan(rng, 4)
    doc = dump_fan(fan)
    assert doc["group"] == []
    parsed = load_fan(json.loads(canonical_dumps(doc)))
    assert parsed.group == ()


def test_booleans_are_not_integers():
    fan_doc = json.loads(canonical_dumps(dump_fan(build_fan(CuspData.standard(5)))))
    atlas = atlas_from_fan(build_fan(CuspData.standard(5)))
    atlas_doc = json.loads(canonical_dumps(dump_atlas(atlas)))
    chain_doc = json.loads(canonical_dumps(dump_chain(hull_vertices(CuspData.standard(5)))))
    series_doc = {
        "format": "series/1",
        "rank": 2,
        "truncation": 4,
        "terms": [{"exponent": [1, 0], "coefficient": "1"}],
    }

    def patched(doc, edit):
        out = json.loads(json.dumps(doc))
        edit(out)
        return out

    cases = [
        (load_fan, patched(fan_doc, lambda d: d.update(rank=True)), r"fan\.rank"),
        (load_fan, patched(fan_doc, lambda d: d["support"].update(rank=True)),
         r"fan\.support\.rank"),
        (load_fan, patched(fan_doc, lambda d: d["group"][0].update(
            linear=[[True, False], [False, True]])), r"fan\.group\[0\]\.linear"),
        (load_fan, patched(fan_doc, lambda d: d["group"][0].update(translation=[True])),
         r"fan\.group\[0\]\.translation"),
        (load_fan, patched(fan_doc, lambda d: d["members"][0].update(generators=5)),
         r"fan\.members\[0\]\.generators: expected a list"),
        (load_fan, patched(fan_doc, lambda d: d.update(group=5)), r"fan\.group: expected a list"),
        (load_atlas, patched(atlas_doc, lambda d: d.update(rank=True)), r"atlas\.rank"),
        (load_atlas, patched(atlas_doc, lambda d: d["points"][0]["cone"][0].__setitem__(0, True)),
         r"atlas\.points\[0\]\.cone"),
        (load_chain, patched(chain_doc, lambda d: d.update(discriminant=True)),
         r"chain\.discriminant"),
        (load_chain, patched(chain_doc, lambda d: d["vertices"][0].__setitem__(0, False)),
         r"chain\.vertices"),
        (load_chain, patched(chain_doc, lambda d: d.update(b=[True])), r"chain\.b"),
        (load_chain, patched(chain_doc, lambda d: d.update(box=True)), r"chain\.box"),
        (load_chain, patched(chain_doc, lambda d: d.update(box=999)), r"chain: box 999"),
        (load_chain, patched(chain_doc, lambda d: d.update(box=-5)), r"chain: box -5"),
        (load_monodromy, {"format": "monodromy/1", "operators": [[["1"]]], "weight": True},
         r"monodromy\.weight"),
        (load_series, patched(series_doc, lambda d: d.update(rank=True)), r"series\.rank"),
        (load_series, patched(series_doc, lambda d: d.update(truncation=True)),
         r"series\.truncation"),
        (load_series, patched(series_doc, lambda d: d.update(complete_order=False)),
         r"series\.complete_order"),
        (load_series, patched(series_doc, lambda d: d["terms"][0].update(exponent=[True, 0])),
         r"series\.terms\[0\]\.exponent"),
    ]
    for load, doc, where in cases:
        with pytest.raises(FormatError, match=where):
            load(doc)
    with pytest.raises(FormatError, match=r"x\.D"):
        parse_scalar({"a": "0", "b": "1", "D": True}, "x")
