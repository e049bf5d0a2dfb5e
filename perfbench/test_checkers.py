"""Checker self-test: each checker accepts a correct document and rejects
the same document with one deliberate error.

Run with ``python3 -m pytest perfbench/test_checkers.py`` from the
repository root.  It needs no ``semitoric``: the correct documents are
assembled here from how the inputs were built.
"""

import copy
import json
import os
import random
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checkers as ck  # noqa: E402
import workloads as wl  # noqa: E402


def accepts(job, doc, rc=0, err=""):
    return ck.check(job, rc, json.dumps(doc), err) == "answer"


def rejects(job, doc, rc=0, err=""):
    with pytest.raises(ck.WrongAnswer):
        ck.check(job, rc, json.dumps(doc), err)
    return True


def cusp_resolve_doc(D, P):
    chain = ck.cusp_chain(D)
    basis = ck.basis_for(D, P)
    verts = [[int(c) for c in ck.coordinates(chain.vertex(-i), basis, D)] for i in range(chain.m)]
    b = [chain.b_at(-i) for i in range(chain.m)]
    rot, offset = ck.lexmin_rotation(b)
    return {
        "chain": {"format": "chain/1", "discriminant": D, "alpha": wl.scalar(basis[0], D),
                  "beta": wl.scalar(basis[1], D), "unit": wl.scalar(chain.unit, D),
                  "vertices": verts, "b": b, "box": 16},
        "cycle": {"format": "cycle/1", "m": chain.m, "b": rot, "offset": offset,
                  "self_intersections": [-x for x in rot]},
    }


def test_cusp_cycle_with_a_changed_b_value_is_rejected():
    P = [[1, 1], [1, 2]]
    job = {"kind": "cusp-resolve", "D": 13, "basis": P}
    doc = cusp_resolve_doc(13, P)
    assert doc["cycle"]["b"] == [2, 2, 5]
    assert accepts(job, doc)
    bad = copy.deepcopy(doc)
    bad["chain"]["b"][0] += 1
    assert rejects(job, bad)
    bad = copy.deepcopy(doc)
    bad["cycle"]["b"] = [2, 5, 2]
    assert rejects(job, bad)
    bad = copy.deepcopy(doc)
    bad["chain"]["unit"] = wl.scalar(ck.qmul(ck.cusp_chain(13).unit, ck.cusp_chain(13).unit, 13), 13)
    assert rejects(job, bad)


def test_bound_exit_needs_the_documented_message():
    job = {"kind": "cusp-resolve", "D": 19, "basis": ck.identity(2)}
    assert ck.check(job, 3, "", "resource bound exceeded: box") == "refused"
    with pytest.raises(ck.WrongAnswer):
        ck.check(job, 3, "", "Traceback (most recent call last)")
    assert ck.check(job, 2, "", "error: bad input") == "failed"


def test_cusp_fan_with_a_dropped_sector_or_wrong_group_is_rejected():
    P = [[2, 1], [1, 1]]
    job = {"kind": "cusp-fan", "D": 7, "basis": P}
    doc, _, E = wl.cusp_fan(7, P)
    assert accepts(job, doc)
    bad = copy.deepcopy(doc)
    bad["members"] = [m for m in bad["members"] if len(m["generators"]) == 1]
    assert rejects(job, bad)
    bad = copy.deepcopy(doc)
    bad["group"][0]["linear"] = ck.mat_mul(E, E)
    assert rejects(job, bad)
    bad = copy.deepcopy(doc)
    bad["support"]["generators"].reverse()
    bad["support"]["generators"][0] = bad["support"]["generators"][1]
    assert rejects(job, bad)


def report(names, passed):
    return {"passed": all(passed), "conditions": [{"name": n, "passed": p, "details": ""} for n, p in zip(names, passed)]}


def test_flipped_validation_and_atlas_verdicts_are_rejected():
    job = {"kind": "validate", "expect": True}
    good = dict(report(ck.CONDITIONS, [True] * 4), notes=[])
    assert accepts(job, good)
    assert rejects(job, dict(report(ck.CONDITIONS, [True, True, False, True]), notes=[]), rc=1)
    mutant = {"kind": "validate", "expect": False}
    assert accepts(mutant, dict(report(ck.CONDITIONS, [False, True, True, True]), notes=[]), rc=1)
    assert rejects(mutant, good)
    names = ["boundary-coverage", "common-lattice", "translation-lattice", "face-decomposition"]
    atlas = {"kind": "atlas-check", "expect": False, "rank": 2}
    defect = dict(report(names, [True, False, True, True]), lattice=None, lattice_denominator=None)
    assert accepts(atlas, defect, rc=1)
    assert rejects(atlas, dict(report(names, [True] * 4), lattice=ck.identity(2), lattice_denominator=1))


def test_reconstruction_missing_a_member_is_rejected():
    members, support = wl.moved_fan([[2, 1], [1, 1]], 2, wl.stern_brocot_members(wl.stern_brocot_rays((0, 1, 1))))
    fan = wl.rational_fan_doc(2, members, support)
    job = {"kind": "atlas-reconstruct", "rank": 2, "fan": members}
    doc = {"lattice": ck.identity(2), "lattice_denominator": 1, "support": fan["support"], "fan": fan}
    assert accepts(job, doc)
    bad = copy.deepcopy(doc)
    del bad["fan"]["members"][3]
    assert rejects(job, bad)
    bad = copy.deepcopy(doc)
    bad["lattice_denominator"] = 2
    assert rejects(job, bad)


def test_monodromy_verdict_and_coordinates_are_checked():
    job = {"kind": "monodromy-check", "expect": True, "weight": 3, "r": 1}
    good = {"passed": True, "weight": 3, "dims": {"W0": 1, "W1": 1, "W2": 2}, "draws": 21, "conditions": []}
    assert accepts(job, good)
    assert rejects(job, dict(good, passed=False), rc=1)
    assert rejects(job, dict(good, dims={"W0": 1, "W1": 1, "W2": 3}))
    coords = {"kind": "monodromy-coords", "r": 1, "order": 6}
    doc = {"f": [[{"coefficient": "1", "exponent": [1]}]], "constants": ["0"], "remainders": [[]],
           "m": [["1"]], "exact": True, "degenerate": False, "q": [], "order": 6}
    assert accepts(coords, doc)
    assert rejects(coords, dict(doc, constants=["1/2"]))


def test_reframed_series_with_a_wrong_term_is_rejected():
    rng = random.Random(11)
    terms = wl.random_terms(rng, [(0, 1), (2, 1), (3, 0), (1, 4)])
    M = [[1, 1], [0, 1]]
    job = {"kind": "series-reframe", "matrix": M, "terms": terms, "complete_order": 5}
    mt = ck.transpose(M)
    new = sorted((ck.mat_vec(mt, e), c) for e, c in terms)
    # inverse transpose [[1, 0], [-1, 1]] has column l1 norms 2 and 1
    doc = wl.series_doc(2, new, max(ck.l1(e) for e, _ in new))
    doc["complete_order"] = 5 // 2
    assert accepts(job, doc)
    bad = copy.deepcopy(doc)
    bad["terms"][0]["exponent"][0] += 1
    assert rejects(job, bad)


def test_flipped_effectivity_verdict_is_rejected():
    F = [[1, 1], [0, 1]]
    terms = [((1, 1), 1), ((1, 2), 3), ((0, 1), -2)]
    M = [[1, 0], [1, 1]]
    job = {"kind": "series-check", "framing": F, "matrix": M, "terms": terms}
    # (1, 1), (1, 2), (0, 1) = rows of F with nonnegative coefficients; M^T maps
    # (1, 1) to (2, 1) = 2*(1, 1) - (0, 1), which leaves the cone
    doc = {"effective": True, "witness": None, "reframing_preserves_effectivity": False,
           "reframing_witness": [1, 1]}
    assert accepts(job, doc, rc=1)
    assert rejects(job, dict(doc, effective=False, witness=[0, 1]), rc=1)
    assert rejects(job, doc, rc=0)
