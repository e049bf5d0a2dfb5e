import argparse
import hashlib
import json
import pathlib
import re
import time
from fractions import Fraction

import pytest

import fixtures
from semitoric import (
    CuspData,
    Decomposition,
    GroupElement,
    IntMatrix,
    build_fan,
    cli,
    sbb_decomposition,
)
from semitoric.connection import atlas_from_fan
from semitoric.fans import Cone, Support, Vector, zero_cone
from semitoric.formats import (
    canonical_dumps,
    dump_atlas,
    dump_fan,
    dump_monodromy,
    dump_series,
    frac_str,
    load_fan,
    load_series,
)
from semitoric.series import series


def _write(tmp_path, name, doc) -> str:
    path = tmp_path / name
    path.write_text(canonical_dumps(doc))
    return str(path)


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


VALIDATION_KEYS = {"conditions", "notes", "passed"}
COMPATIBILITY_KEYS = {"conditions", "lattice", "lattice_denominator", "passed"}
UNIPOTENCY_KEYS = {"conditions", "dims", "draws", "passed", "weight"}
CONDITION_KEYS = {"name", "passed", "details"}
# sha256 of the option contract of the 17 commands (see _leaf_contract)
LEAF_CONTRACT = "3d9c874433c3d1af684a575c69204c0294dc1b8788d97388c723f25d29bf99e8"


def _assert_shape(doc, top, witnesses):
    """Exact key sets of a verdict document and of each of its conditions."""
    assert set(doc) == top
    keys = CONDITION_KEYS | {"witnesses"} if witnesses else CONDITION_KEYS
    for c in doc["conditions"]:
        assert set(c) == keys


@pytest.fixture()
def cusp_fan_file(tmp_path):
    return _write(tmp_path, "fan5.json", dump_fan(build_fan(CuspData.standard(5))))


def test_cusp_resolve_outputs_chain_and_cycle(capsys):
    assert cli.main(["cusp", "resolve", "-D", "5"]) == 0
    doc = _json_out(capsys)
    assert doc["chain"]["b"] == [3]
    assert doc["cycle"]["b"] == [3]
    assert doc["cycle"]["self_intersections"] == [-3]


def test_cusp_fan_writes_file(tmp_path):
    out = tmp_path / "fan.json"
    assert cli.main(["cusp", "fan", "-D", "13", "--output", str(out)]) == 0
    fan = load_fan(json.loads(out.read_text()))
    assert fan.rank == 2
    assert len(fan.group) == 1


def test_cusp_figure_svg(tmp_path):
    out = tmp_path / "cycle.svg"
    code = cli.main(
        ["cusp", "figure", "-D", "13", "--kind", "cycle", "--output", str(out)]
    )
    assert code == 0
    assert out.read_text().lstrip().startswith("<svg")


def test_fan_validate_passes_on_cusp_fan(cusp_fan_file, capsys):
    assert cli.main(["fan", "validate", cusp_fan_file]) == 0
    doc = _json_out(capsys)
    assert doc["passed"] is True
    _assert_shape(doc, VALIDATION_KEYS, witnesses=True)
    assert [c["name"] for c in doc["conditions"]] == [
        "disjoint-cover",
        "rational-span",
        "face-closure",
        "local-finiteness",
    ]


def test_fan_validate_fails_on_deleted_member(tmp_path, capsys):
    fan = build_fan(CuspData.standard(5))
    broken = Decomposition(fan.rank, fan.members[:-1], fan.group, fan.support)
    path = _write(tmp_path, "broken.json", dump_fan(broken))
    assert cli.main(["fan", "validate", path]) == 1
    doc = _json_out(capsys)
    assert doc["passed"] is False
    _assert_shape(doc, VALIDATION_KEYS, witnesses=True)
    assert any(c["witnesses"] for c in doc["conditions"])
    # the group preserves the support, so local finiteness is still probed
    assert doc["conditions"][3]["details"] == "1 probes certified"


def _support_move_witness(doc):
    cover = doc["conditions"][0]
    assert cover["name"] == "disjoint-cover" and cover["passed"] is False
    assert "group does not preserve the support; local finiteness not probed" in doc["notes"]
    finiteness = doc["conditions"][3]
    assert finiteness["passed"] is True
    assert finiteness["details"] == "not probed: group does not preserve the support"
    return cover["witnesses"][0]


def test_fan_validate_rejects_a_group_that_moves_the_support(tmp_path, capsys):
    quadrant = Cone(2, [Vector((1, 0)), Vector((0, 1))])
    members = (
        zero_cone(2),
        Cone(2, [Vector((1, 0))], relint=True),
        Cone(2, [Vector((0, 1))], relint=True),
        quadrant.relative_interior(),
    )
    flip = GroupElement(IntMatrix([[-1, 0], [0, -1]]))
    fan = Decomposition(2, members, (flip,), Support(quadrant.closure()))
    assert cli.main(["fan", "validate", _write(tmp_path, "flip.json", dump_fan(fan))]) == 1
    witness = _support_move_witness(_json_out(capsys))
    assert witness.startswith("((0, 1), 'support ray leaves the support")
    assert "maps it to (0, -1)" in witness


def test_fan_validate_rejects_a_shear_of_the_cusp_fan_quickly(tmp_path, capsys):
    """The shear moves the irrational support rays, so the probes are
    skipped: the ball of unit and shear grows about 2.6x per radius, and
    probing it up to the radius cap would not finish."""
    fan = build_fan(CuspData.standard(5))
    shear = GroupElement(IntMatrix([[1, 1], [0, 1]]))
    sheared = Decomposition(fan.rank, fan.members, fan.group + (shear,), fan.support)
    path = _write(tmp_path, "shear.json", dump_fan(sheared))
    start = time.perf_counter()
    assert cli.main(["fan", "validate", path]) == 1
    assert time.perf_counter() - start < 2.0
    witness = _support_move_witness(_json_out(capsys))
    assert witness.startswith("((1, 1/2-1/2*sqrt(5)), 'support ray leaves the support")


def test_fan_sbb_refinement_pair(tmp_path, cusp_fan_file, capsys):
    sbb = tmp_path / "sbb.json"
    assert cli.main(["fan", "sbb", "-D", "5", "--output", str(sbb)]) == 0
    assert cli.main(["fan", "refines", cusp_fan_file, str(sbb)]) == 0
    assert _json_out(capsys)["refines"] is True
    assert cli.main(["fan", "refines", str(sbb), cusp_fan_file]) == 1
    assert _json_out(capsys)["refines"] is False


def test_fans_in_different_settings_are_not_compared(tmp_path, cusp_fan_file, capsys):
    """``fan refines`` and ``fan common`` take two fans of one rank, support
    and group; any other pair exits 2, in either order, naming what differs."""
    cusp = build_fan(CuspData.standard(5))
    E = cusp.group[0].linear
    others = {
        "different ranks": sbb_decomposition(fixtures.octant_support()),
        "different supports": sbb_decomposition(fixtures.quadrant_support()),
        "different group generators": Decomposition(
            2, cusp.members, (GroupElement(E * E),), cusp.support),
    }
    for message, other in others.items():
        path = _write(tmp_path, "other.json", dump_fan(other))
        for command in ("refines", "common"):
            for pair in ((cusp_fan_file, path), (path, cusp_fan_file)):
                assert cli.main(["fan", command, *pair]) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err.startswith("error: ") and message in captured.err


def test_fan_common_and_strata(tmp_path, cusp_fan_file, capsys):
    common = tmp_path / "common.json"
    code = cli.main(
        ["fan", "common", cusp_fan_file, cusp_fan_file, "--output", str(common)]
    )
    assert code == 0
    assert cli.main(["fan", "strata", str(common)]) == 0
    doc = _json_out(capsys)
    dims = sorted(s["complex_dim"] for s in doc["strata"])
    assert dims == [0, 1]


def test_fan_mumford_verdicts(tmp_path, cusp_fan_file, capsys):
    assert cli.main(["fan", "mumford", cusp_fan_file]) == 0
    assert _json_out(capsys)["mumford_type"] is True
    sup = Support(Cone(2, [Vector((1, 0)), Vector((0, 1))]).closure())
    bad = Decomposition(
        2,
        (zero_cone(2), Cone(2, [Vector((1, 0)), Vector((1, 2))])),
        (),
        sup,
    )
    path = _write(tmp_path, "bad.json", dump_fan(bad))
    assert cli.main(["fan", "mumford", path]) == 1
    assert _json_out(capsys)["mumford_type"] is False


def test_atlas_pipeline(tmp_path, cusp_fan_file, capsys):
    atlas_path = tmp_path / "atlas.json"
    assert cli.main(["atlas", "from-fan", cusp_fan_file, "--output", str(atlas_path)]) == 0
    assert cli.main(["atlas", "check", str(atlas_path)]) == 0
    doc = _json_out(capsys)
    assert doc["passed"] is True and doc["lattice"] == [[1, 0], [0, 1]]
    _assert_shape(doc, COMPATIBILITY_KEYS, witnesses=False)
    assert doc["lattice_denominator"] == 1
    assert cli.main(["atlas", "reconstruct", str(atlas_path)]) == 0
    rec = _json_out(capsys)
    assert rec["lattice_denominator"] == 1
    assert len(rec["fan"]["members"]) == 2


def test_atlas_check_flags_frame_defect(tmp_path, capsys):
    atlas = atlas_from_fan(build_fan(CuspData.standard(13)))
    doc = dump_atlas(atlas)
    frame = doc["points"][0]["frame"]
    frame[0] = [frac_str(2 * Fraction(x)) for x in frame[0]]
    path = _write(tmp_path, "mutated.json", doc)
    assert cli.main(["atlas", "check", str(path)]) == 1
    out = _json_out(capsys)
    names = {c["name"]: c["passed"] for c in out["conditions"]}
    assert names["common-lattice"] is False
    _assert_shape(out, COMPATIBILITY_KEYS, witnesses=False)
    assert out["lattice"] is None and out["lattice_denominator"] is None


def test_atlas_without_a_support_infers_the_cone_of_its_charts(tmp_path, capsys):
    """Without a support an atlas stands for the cone spanned by its chart
    cones with the origin: that is the quadrant for the one-chart quadrant
    atlas, but not the cusp support for the D = 5 cusp-fan atlas, whose unit
    does not preserve the cone of its two charts."""
    quadrant = dump_atlas(atlas_from_fan(sbb_decomposition(fixtures.quadrant_support())))
    cusp = dump_atlas(atlas_from_fan(build_fan(CuspData.standard(5))))
    for doc in (quadrant, cusp):
        del doc["support"]
    path = _write(tmp_path, "quadrant.json", quadrant)
    assert cli.main(["atlas", "check", path]) == 0
    assert _json_out(capsys)["passed"] is True
    assert cli.main(["atlas", "reconstruct", path]) == 0
    support = {"generators": [["0", "1"], ["1", "0"]], "include_origin": True,
               "interior_only": False, "rank": 2}
    rec = _json_out(capsys)
    assert rec["support"] == rec["fan"]["support"] == support
    path = _write(tmp_path, "cusp.json", cusp)
    assert cli.main(["atlas", "check", path]) == 1
    failed = [c["name"] for c in _json_out(capsys)["conditions"] if not c["passed"]]
    assert failed == ["face-decomposition"]
    assert cli.main(["atlas", "reconstruct", path]) == 2
    assert capsys.readouterr().err == "error: atlas is not compatible: face-decomposition\n"


def test_atlas_witness_numbers(capsys):
    assert cli.main(["atlas", "witness", "--order", "3"]) == 0
    doc = _json_out(capsys)
    assert doc["pole_order"] == 3
    assert doc["lead_coefficient"] == "-2"
    assert doc["descends_under_scalings"] is True
    assert doc["obstructed_under_translations"] is True


def test_monodromy_check_verdicts(tmp_path, capsys):
    good = _write(
        tmp_path,
        "good.json",
        dump_monodromy(
            [[list(r) for r in fixtures.elliptic_operator().rows]], weight=1
        ),
    )
    assert cli.main(["monodromy", "check", good, "--draws", "8"]) == 0
    doc = _json_out(capsys)
    assert doc["weight"] == 1
    _assert_shape(doc, UNIPOTENCY_KEYS, witnesses=False)
    assert doc["dims"] == {"W0": 1, "W1": 1, "W2": 2} and doc["draws"] == 9

    two_chains = [[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 1]]
    bad = _write(tmp_path, "bad.json", dump_monodromy([two_chains], weight=1))
    assert cli.main(["monodromy", "check", bad, "--draws", "8"]) == 1
    doc = _json_out(capsys)
    assert doc["passed"] is False
    _assert_shape(doc, UNIPOTENCY_KEYS, witnesses=False)

    # non-commuting operators: the later conditions are skipped
    ops = [[[1, 1], [0, 1]], [[1, 0], [1, 1]]]
    skipped = _write(tmp_path, "nc.json", dump_monodromy(ops))
    assert cli.main(["monodromy", "check", skipped]) == 1
    doc = _json_out(capsys)
    _assert_shape(doc, UNIPOTENCY_KEYS, witnesses=False)
    assert doc["weight"] is None and doc["dims"] == {} and doc["draws"] == 0
    assert [c["details"] for c in doc["conditions"][1:]] == ["skipped", "skipped"]


def test_monodromy_coords_exact_and_degenerate(tmp_path, capsys):
    good = _write(
        tmp_path,
        "coords.json",
        dump_monodromy(
            [[list(r) for r in fixtures.elliptic_operator().rows]],
            pairing=fixtures.antidiagonal_pairing(2),
            omega0=(0, 1),
        ),
    )
    assert cli.main(["monodromy", "coords", good]) == 0
    doc = _json_out(capsys)
    assert doc["q"] == ["q_1 = exp(2*pi*i*(z_1))"]
    assert doc["exact"] is True

    degenerate = _write(
        tmp_path,
        "deg.json",
        dump_monodromy(
            [[list(r) for r in fixtures.elliptic_operator().rows]],
            pairing=((0, 1), (-1, 0)),
            omega0=(0, 1),
        ),
    )
    assert cli.main(["monodromy", "coords", degenerate]) == 1
    assert _json_out(capsys)["degenerate"] is True

    no_pairing = _write(
        tmp_path,
        "nopair.json",
        dump_monodromy([[list(r) for r in fixtures.elliptic_operator().rows]]),
    )
    assert cli.main(["monodromy", "coords", no_pairing]) == 2


def test_series_reframe_round_trip(tmp_path, capsys):
    s = series(2, {(1, 0): 1, (0, 1): 2}, 8)
    path = _write(tmp_path, "series.json", dump_series(s))
    out = tmp_path / "reframed.json"
    code = cli.main(
        ["series", "reframe", str(path), "--matrix", "1,1;0,1", "--output", str(out)]
    )
    assert code == 0
    assert cli.main(["series", "reframe", str(out), "--matrix", "1,-1;0,1"]) == 0
    doc = _json_out(capsys)
    back = load_series(doc)
    assert back.terms == s.terms


def test_series_check_verdicts(tmp_path, capsys):
    eff = _write(tmp_path, "eff.json", dump_series(series(2, {(2, 1): 1}, 8)))
    assert cli.main(["series", "check", eff]) == 0
    doc = _json_out(capsys)
    assert doc == {"effective": True, "witness": None}

    assert cli.main(["series", "check", eff, "--matrix", "1,-1;0,1"]) == 1
    doc = _json_out(capsys)
    assert set(doc) == {
        "effective", "witness", "reframing_preserves_effectivity", "reframing_witness"
    }
    assert doc["witness"] is None
    assert doc["effective"] is True
    assert doc["reframing_preserves_effectivity"] is False
    assert doc["reframing_witness"] == [1, 0]

    noneff = _write(
        tmp_path, "noneff.json", dump_series(series(2, {(1, -1): 1}, 8))
    )
    assert cli.main(["series", "check", noneff]) == 1
    assert _json_out(capsys) == {"effective": False, "witness": [1, -1]}

    assert cli.main(["series", "check", noneff, "--matrix", "1,1;0,1"]) == 1
    assert _json_out(capsys) == {
        "effective": False,
        "witness": [1, -1],
        "reframing_preserves_effectivity": True,
        "reframing_witness": None,
    }


def test_input_errors_exit_two(tmp_path, capsys):
    assert cli.main(["fan", "validate", str(tmp_path / "missing.json")]) == 2

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert cli.main(["fan", "validate", str(garbled)]) == 2

    wrong_version = _write(
        tmp_path,
        "wrong.json",
        {**dump_fan(build_fan(CuspData.standard(5))), "format": "fan/9"},
    )
    assert cli.main(["fan", "validate", wrong_version]) == 2

    assert cli.main(["cusp", "resolve", "-D", "12"]) == 2
    assert cli.main(["fan", "sbb"]) == 2

    s = _write(tmp_path, "s.json", dump_series(series(2, {(1, 0): 1}, 4)))
    assert cli.main(["series", "reframe", s, "--matrix", "1,x;0,1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["series-reframe", "cusp-resolve"])
def test_unwritable_output_exits_two(tmp_path, capsys, command):
    out = tmp_path / "no-such-directory" / "out.json"
    if command == "series-reframe":
        s = _write(tmp_path, "s.json", dump_series(series(2, {(1, 0): 1}, 4)))
        argv = ["series", "reframe", s, "--matrix", "1,0;0,1"]
    else:
        argv = ["cusp", "resolve", "-D", "13"]
    assert cli.main(argv + ["--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {str(out)!r}: ")
    assert captured.out == ""
    assert not out.parent.exists()


def test_boolean_integer_fields_exit_two(tmp_path, capsys):
    fan_doc = dump_fan(build_fan(CuspData.standard(5)))
    bad_rank = _write(tmp_path, "rank.json", {**fan_doc, "rank": True})
    assert cli.main(["fan", "validate", bad_rank]) == 2
    identity = {"linear": [[True, False], [False, True]], "translation": []}
    bool_group = {**fan_doc, "group": [identity]}
    assert cli.main(["fan", "validate", _write(tmp_path, "group.json", bool_group)]) == 2
    members = [{"generators": 5}] + fan_doc["members"][1:]
    bad_member = _write(tmp_path, "member.json", {**fan_doc, "members": members})
    assert cli.main(["fan", "validate", bad_member]) == 2
    atlas_doc = dump_atlas(atlas_from_fan(build_fan(CuspData.standard(5))))
    bool_atlas = _write(tmp_path, "atlas.json", {**atlas_doc, "rank": True})
    assert cli.main(["atlas", "check", bool_atlas]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, edit, message",
    [
        (["fan", "sbb", "--file"], lambda d: d["support"].update(interior_only="false"),
         "fan.support.interior_only: expected a boolean"),
        (["fan", "sbb", "--file"], lambda d: d["support"].update(include_origin="no"),
         "fan.support.include_origin: expected a boolean"),
        (["fan", "validate"], lambda d: d["support"].update(include_origin=0),
         "fan.support.include_origin: expected a boolean"),
        (["fan", "validate"], lambda d: d["support"].update(interior_only=None),
         "fan.support.interior_only: expected a boolean"),
        (["atlas", "check"], lambda d: d.update(covers_boundary="false"),
         "atlas.covers_boundary: expected a boolean"),
        (["atlas", "reconstruct"], lambda d: d["support"].update(interior_only=1),
         "atlas.support.interior_only: expected a boolean"),
    ],
)
def test_flags_that_are_not_booleans_exit_two(tmp_path, capsys, command, edit, message):
    """A support or atlas flag given as anything but a JSON boolean is
    malformed, instead of being read by its truth value."""
    fan = build_fan(CuspData.standard(5))
    doc = json.loads(canonical_dumps(
        dump_atlas(atlas_from_fan(fan)) if command[0] == "atlas" else dump_fan(fan)))
    edit(doc)
    assert cli.main([*command, _write(tmp_path, "doc.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_non_list_containers_exit_two(tmp_path, capsys):
    atlas_doc = dump_atlas(atlas_from_fan(build_fan(CuspData.standard(5))))
    atlas_doc["points"][0]["frame"] = [1, 2]
    assert cli.main(["atlas", "check", _write(tmp_path, "atlas.json", atlas_doc)]) == 2
    mono_doc = dump_monodromy([[[1, 1], [0, 1]]])
    mono_doc["basis"] = {"g0": 5, "gs": []}
    assert cli.main(["monodromy", "check", _write(tmp_path, "mono.json", mono_doc)]) == 2
    err = capsys.readouterr().err
    assert "frame[0]: expected a list" in err and "basis.g0: expected a list" in err
    assert "Traceback" not in err


def test_pell_bound_exits_before_searching(capsys):
    start = time.perf_counter()
    assert cli.main(["cusp", "resolve", "-D", "151"]) == 3
    assert time.perf_counter() - start < 2
    assert "resource bound exceeded" in capsys.readouterr().err
    assert cli.main(["cusp", "resolve", "-D", "151", "--pell-bound", "200000000"]) == 0
    doc = _json_out(capsys)
    assert doc["chain"]["unit"]["D"] == 151


def test_resource_bounds_exit_three(capsys):
    assert cli.main(["cusp", "resolve", "-D", "61", "--pell-bound", "3"]) == 3
    err = capsys.readouterr().err
    assert "resource bound" in err
    assert cli.main(["cusp", "resolve", "-D", "94", "--box-limit", "64"]) == 3
    err = capsys.readouterr().err
    assert "resource bound" in err


def test_negative_bounds_exit_two_and_zero_bounds_three(capsys):
    for flag, value, want in (("--pell-bound", "-5", 2), ("--box-limit", "-1", 2),
                              ("--pell-bound", "0", 3), ("--box-limit", "0", 3)):
        assert cli.main(["cusp", "resolve", "-D", "13", flag, value]) == want
        captured = capsys.readouterr()
        assert captured.out == ""
        if want == 2:
            assert captured.err.startswith(f"error: {flag[2:].replace('-', ' ')} must be nonnegative")
        else:
            assert captured.err.startswith("resource bound exceeded:")
    assert cli.main(["fan", "sbb", "-D", "13", "--pell-bound", "-5"]) == 2
    assert "pell bound must be nonnegative" in capsys.readouterr().err
    # a bound is checked before any work: a given unit never reads the Pell
    # bound, and D = 151 would exhaust the default Pell bound first
    for argv, message in ((["-D", "5", "--unit", "3/2,1/2", "--pell-bound", "-5"], "pell bound"),
                          (["-D", "151", "--box-limit", "-1"], "box limit"),
                          (["-D", "151", "--pell-bound", "-1"], "pell bound")):
        assert cli.main(["cusp", "resolve", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message} must be nonnegative, got -")
    assert cli.main(["fan", "sbb", "-D", "151", "--pell-bound", "-1"]) == 2
    assert capsys.readouterr().err.startswith("error: pell bound must be nonnegative, got -1")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cusp", "resolve", "-D", "13", "--ideal", ""], "an ideal takes two generators"),
        (["cusp", "resolve", "-D", "13", "--unit", ""], "expected 'a,b'"),
        (["cusp", "resolve", "-D", "13", "--output", ""], "No such file or directory"),
        (["fan", "sbb", "--file", "", "-D", "13"], "exactly one of --file and a discriminant"),
        (["fan", "sbb", "--file", ""], "No such file or directory"),
        (["fan", "sbb", "-D", "0"], "discriminant must be a squarefree integer >= 2, got 0"),
        (["fan", "sbb", "--file", "FAN", "-D", "13"], "exactly one of --file and a discriminant"),
        (["series", "check", "SERIES", "--framing", ""], "bad matrix ''"),
        (["series", "check", "SERIES", "--matrix", ""], "bad matrix ''"),
    ],
)
def test_empty_or_zero_values_are_not_absent_options(argv, message, cusp_fan_file, tmp_path,
                                                     capsys):
    """An option given an empty or zero value is given: it is read, found
    malformed and exits 2, instead of answering as if it were absent."""
    s = _write(tmp_path, "s.json", dump_series(series(2, {(1, 0): 1}, 4)))
    argv = [{"FAN": cusp_fan_file, "SERIES": s}.get(a, a) for a in argv]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    if message == "No such file or directory":  # the line names the empty path
        assert captured.err.startswith("error: '': [Errno 2] ")


def test_main_keeps_no_state_between_calls(tmp_path, capsys):
    mono = _write(tmp_path, "mono.json", dump_monodromy([[[1, 1], [0, 1]]], weight=1))
    assert cli.main(["monodromy", "check", mono]) == 0
    fresh = capsys.readouterr()
    assert cli.main(["monodromy", "check", mono, "--draws", "x"]) == 2
    assert "invalid int value" in capsys.readouterr().err
    assert cli.main(["monodromy", "check", mono, "--draws", "3", "--seed", "5"]) == 0
    assert _json_out(capsys)["draws"] == 4
    # the defaults come back on the next call
    assert cli.main(["monodromy", "check", mono]) == 0
    assert capsys.readouterr() == fresh


def test_fan_sbb_takes_a_pell_bound(capsys):
    assert cli.main(["fan", "sbb", "-D", "151"]) == 3
    assert "resource bound exceeded" in capsys.readouterr().err
    assert cli.main(["fan", "sbb", "-D", "151", "--pell-bound", "200000000"]) == 0
    doc = _json_out(capsys)
    assert doc["group"][0]["linear"][1][0] == 140634693


def test_series_check_rejects_rank_mismatches(tmp_path, capsys):
    s = _write(tmp_path, "s.json", dump_series(series(2, {(1, 0): 1, (0, 1): 2}, 4)))
    eye3 = "1,0,0;0,1,0;0,0,1"
    assert cli.main(["series", "check", s, "--framing", eye3]) == 2
    assert "framing basis has the wrong rank" in capsys.readouterr().err
    assert cli.main(["series", "check", s, "--matrix", eye3]) == 2
    assert "framing change has the wrong rank" in capsys.readouterr().err
    assert cli.main(["series", "check", s, "--framing", "1,0;0,1", "--matrix", eye3]) == 2
    captured = capsys.readouterr()
    assert "framing change has the wrong rank" in captured.err
    assert captured.out == "" and "Traceback" not in captured.err


def test_series_check_without_framing_scales_with_the_input(tmp_path, capsys):
    """In the standard framing an exponent is its own coordinate vector, so
    no rank-n identity is reduced: rank 2,000 answers at once."""
    rank = 2000
    empty = _write(tmp_path, "empty.json", dump_series(series(rank, {}, 0)))
    start = time.perf_counter()
    assert cli.main(["series", "check", empty]) == 0
    assert time.perf_counter() - start < 2.0
    assert _json_out(capsys) == {"effective": True, "witness": None}

    terms = {tuple(int(i == k) for i in range(rank)): k + 1 for k in range(0, rank, 40)}
    bad = tuple(-1 if i == 7 else int(i == 8) for i in range(rank))
    doc = dump_series(series(rank, {**terms, bad: 1}, 2))
    start = time.perf_counter()
    assert cli.main(["series", "check", _write(tmp_path, "terms.json", doc)]) == 1
    assert time.perf_counter() - start < 2.0
    assert _json_out(capsys) == {"effective": False, "witness": list(bad)}


def test_negative_draws_and_order_exit_two(tmp_path, capsys):
    mono = _write(
        tmp_path,
        "mono.json",
        dump_monodromy([[[1, 1], [0, 1]]], pairing=((0, 1), (1, 0)), omega0=(0, 1), weight=1),
    )
    assert cli.main(["monodromy", "check", mono, "--draws", "-3"]) == 2
    assert "draws must be nonnegative" in capsys.readouterr().err
    for order in ("-1", "0"):
        assert cli.main(["monodromy", "coords", mono, "--order", order]) == 2
        captured = capsys.readouterr()
        assert "order must be at least 1" in captured.err and captured.out == ""
    assert cli.main(["monodromy", "check", mono, "--draws", "0"]) == 0
    assert _json_out(capsys)["draws"] == 1


def test_coords_of_noncommuting_logs_exit_two(tmp_path, capsys):
    ops = [[[1, 1], [0, 1]], [[1, 0], [1, 1]]]
    doc = dump_monodromy(ops, pairing=((0, 1), (1, 0)), omega0=(0, 1))
    assert cli.main(["monodromy", "coords", _write(tmp_path, "nc.json", doc)]) == 2
    assert "not nilpotent" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [
        ("operators", [[["1", "1", "0"], ["0", "1", "0"]]]),
        ("operators", [[["1", "1"], ["0", "1"]], [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]]),
        ("pairing", [["0", "1"]]),
        ("pairing", [["0", "1", "0"], ["1", "0", "0"]]),
        ("omega0", ["0", "1", "5"]),
        ("omega0", ["1"]),
        ("basis", {"g0": ["1"], "gs": [["0", "1"]]}),
        ("basis", {"g0": ["1", "0"], "gs": [["0", "1", "0"]]}),
        ("basis", {"g0": ["1", "0"], "gs": [["0", "1"], ["1", "1"]]}),
    ],
)
def test_monodromy_documents_of_the_wrong_shape_exit_two(tmp_path, capsys, field, value):
    """Every matrix and vector of a monodromy document has the operators'
    dimension, and the basis one vector per operator; both commands name the
    misshapen field instead of failing inside the computation."""
    doc = dump_monodromy([[[1, 1], [0, 1]]], pairing=((0, 1), (1, 0)), omega0=(0, 1), weight=1)
    doc[field] = value
    path = _write(tmp_path, "mono.json", doc)
    for command in ("coords", "check"):
        assert cli.main(["monodromy", command, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: monodromy.{field}"), captured.err


def _thin_fan(rank: int, steep: int) -> Decomposition:
    """The origin and the rays of the support cone on e_1 and steep*e_1 + e_i
    (i > 1): every face but the full-dimensional one."""
    e = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    rays = [e[0]] + [tuple(steep * a + b for a, b in zip(e[0], e[i])) for i in range(1, rank)]
    support = Support(Cone(rank, [Vector(r) for r in rays]))
    members = (zero_cone(rank),) + tuple(Cone(rank, [Vector(r)]) for r in rays)
    return Decomposition(rank, members, (), support)


@pytest.mark.parametrize("rank, steep", [(2, 100), (3, 100), (4, 100), (2, 1)])
def test_fan_without_a_full_dimensional_member_fails(tmp_path, capsys, rank, steep):
    path = _write(tmp_path, "thin.json", dump_fan(_thin_fan(rank, steep)))
    start = time.perf_counter()
    assert cli.main(["fan", "validate", path]) == 1
    assert time.perf_counter() - start < 2.0
    cover = _json_out(capsys)["conditions"][0]
    assert cover["name"] == "disjoint-cover" and cover["passed"] is False
    assert len(cover["witnesses"]) == 1
    assert "no full-dimensional member" in cover["witnesses"][0]


def test_shell_zero_passes_the_cusp_fan(cusp_fan_file, capsys):
    assert cli.main(["fan", "validate", cusp_fan_file, "--shell", "0"]) == 0
    doc = _json_out(capsys)
    assert doc["passed"] is True
    assert all(c["passed"] and not c["witnesses"] for c in doc["conditions"])
    # the cover details name the region that was searched
    searched = {}
    for shell in ("0", "1", "2"):
        assert cli.main(["fan", "validate", cusp_fan_file, "--shell", shell]) == 0
        cover = next(c for c in _json_out(capsys)["conditions"] if c["name"] == "disjoint-cover")
        searched[shell] = cover["details"]
    assert searched == {
        "0": "overlaps among the representatives, neighbours over representatives "
             "plus one shell of translates",
        "1": "representatives plus one shell of translates",
        "2": "representatives plus 2 shells of translates",
    }


def test_help_returns_zero_with_the_parser_text(capsys):
    assert cli.main(["--help"]) == 0
    assert capsys.readouterr().out == cli.build_parser().format_help()
    assert cli.main(["fan", "validate", "--help"]) == 0
    assert "--shell" in capsys.readouterr().out


def test_out_of_range_counts_exit_two(cusp_fan_file, capsys):
    for argv, message in (
        (["atlas", "witness", "--order", "0"], "order must be at least 1, got 0"),
        (["atlas", "witness", "--order", "-2"], "order must be at least 1, got -2"),
        (["fan", "validate", cusp_fan_file, "--shell", "-1"], "shell depth must be nonnegative"),
    ):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""
    assert cli.main(["fan", "validate", cusp_fan_file, "--samples", "-1"]) == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: --samples -1" in captured.err and captured.out == ""
    # the smallest values in range still answer
    assert cli.main(["atlas", "witness", "--order", "1"]) == 0
    assert _json_out(capsys)["obstructed_under_translations"] is True
    assert cli.main(["fan", "validate", cusp_fan_file, "--shell", "0"]) in (0, 1)
    assert _json_out(capsys)["conditions"]


def test_fan_with_a_mixed_field_generator_exits_two(tmp_path, capsys):
    doc = dump_fan(build_fan(CuspData.standard(2)))
    doc["members"][0]["generators"][0] = [
        {"D": 2, "a": "0", "b": "1"},
        {"D": 3, "a": "0", "b": "1"},
    ]
    assert cli.main(["fan", "validate", _write(tmp_path, "mixed.json", doc)]) == 2
    captured = capsys.readouterr()
    assert "cannot mix sqrt(2) with sqrt(3)" in captured.err and captured.out == ""


def _parsers(parser, path=()):
    """(command path, parser) for ``parser`` and every parser below it."""
    yield path, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _parsers(sub, path + (name,))


def _leaves():
    return {
        path: p for path, p in _parsers(cli.build_parser())
        if not any(isinstance(a, argparse._SubParsersAction) for a in p._actions)
    }


def _leaf_contract(parser) -> list:
    """What a command accepts: positionals in their order, then options by
    flag, each as (flags, dest, type, default, required, choices, nargs).
    Help texts and the order of options are left out."""
    positional = [a for a in parser._actions if not a.option_strings]
    optional = sorted((a for a in parser._actions if a.option_strings),
                      key=lambda a: a.option_strings)
    return [
        [a.option_strings, a.dest, getattr(a.type, "__name__", a.type), a.default,
         a.required, list(a.choices) if a.choices else None, a.nargs]
        for a in positional + optional
    ]


def test_every_leaf_accepts_what_it_accepted_before():
    leaves = _leaves()
    assert len(leaves) == 17
    contract = json.dumps(
        [[list(path), _leaf_contract(p)] for path, p in sorted(leaves.items())],
        sort_keys=True,
    )
    assert hashlib.sha256(contract.encode()).hexdigest() == LEAF_CONTRACT


@pytest.mark.parametrize("path", [path for path, _ in _parsers(cli.build_parser())])
def test_every_parser_prints_its_help(path, capsys):
    assert cli.main([*path, "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: semitoric")


def test_every_leaf_takes_output_with_one_help_text():
    for path, p in _leaves().items():
        helps = [a.help for a in p._actions if "--output" in a.option_strings]
        assert helps == ["write to this file instead of stdout"], path


def _synopsis() -> list:
    """The README's command synopsis: (group, leaf names, options) for each
    entry, an entry being a line that starts with ``semitoric`` together
    with the indented lines under it."""
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
    entries = re.sub(r"\n\s+", " ", block).splitlines()
    return [
        (words[1], words[2].split("|"), set(re.findall(r"(?:^|[\s\[|])(--?[A-Za-z][\w-]*)", entry)))
        for entry in entries
        for words in [entry.split()]
    ]


def test_readme_synopsis_lists_every_leaf_and_its_options():
    """Each synopsis entry names real commands and lists every option they
    take, and only those, apart from ``--output``: every command takes it,
    and the text under the synopsis says so once."""
    leaves = _leaves()
    listed = set()
    for group, names, options in _synopsis():
        for name in names:
            listed.add((group, name))
            actions = [a for a in leaves[group, name]._actions
                       if a.option_strings and a.dest not in ("help", "output")]
            flags = {flag for a in actions for flag in a.option_strings}
            assert options - {"--output"} <= flags, (group, name, options - flags)
            missing = [a.option_strings for a in actions if not options & set(a.option_strings)]
            assert missing == [], (group, name)
    assert listed == set(leaves)
