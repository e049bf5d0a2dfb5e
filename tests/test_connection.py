import random
from fractions import Fraction

import pytest

import fixtures
from semitoric import (
    BoundaryAtlas,
    Cone,
    CuspData,
    Decomposition,
    DegenerateInputError,
    ExactScalar,
    GroupElement,
    IntMatrix,
    MaxDepthPoint,
    RequiresRationalConeError,
    Support,
    Vector,
    atlas_from_fan,
    build_fan,
    compatibility_check,
    disc_translation_pullback,
    decompositions_match,
    laurent_nabla,
    local_lattice,
    nondescent_witness,
    reconstruct,
    torus_nabla,
    torus_scaling_pullback,
)
from semitoric.fans import zero_cone

STANDARD_LATTICE_2 = (1, ((1, 0), (0, 1)))


def _scale_first_frame_row(atlas: BoundaryAtlas, factor) -> BoundaryAtlas:
    p = atlas.points[0]
    frame = (tuple(x * factor for x in p.frame[0]),) + p.frame[1:]
    mutated = MaxDepthPoint(p.label, p.cone, frame)
    return BoundaryAtlas(
        atlas.rank,
        (mutated,) + atlas.points[1:],
        atlas.group,
        atlas.covers_boundary,
        atlas.support_hint,
    )


def test_chart_frame_recovers_cone_generators():
    cone = Cone(2, [Vector((2, 1)), Vector((1, 1))])
    p = MaxDepthPoint.from_cone("p", cone)
    lattice = local_lattice(p)
    gens = {g.as_integers() for g in cone.generators}
    assert {tuple(int(x) for x in v.as_fractions()) for v in lattice} == gens


def test_chart_point_guards():
    with pytest.raises(DegenerateInputError):
        MaxDepthPoint("p", Cone(2, [Vector((1, 0))]), ((1, 0), (0, 1)))
    full = Cone(2, [Vector((1, 0)), Vector((0, 1))])
    with pytest.raises(DegenerateInputError):
        MaxDepthPoint("p", full, ((1, 1), (2, 2)))
    with pytest.raises(DegenerateInputError):
        MaxDepthPoint.from_cone("p", Cone(2, [Vector((1, 0)), Vector((1, 2))]))
    irr = Cone(2, [Vector((1, 0)), Vector((ExactScalar(1), ExactScalar(0, 1, 2)))])
    with pytest.raises(RequiresRationalConeError):
        MaxDepthPoint("p", irr, ((1, 0), (0, 1)))
    with pytest.raises(DegenerateInputError):
        BoundaryAtlas(2, (MaxDepthPoint.from_cone("p", full),) * 2, ())


def test_cusp_atlases_are_compatible():
    for D in (5, 13):
        atlas = atlas_from_fan(build_fan(CuspData.standard(D)))
        rep = compatibility_check(atlas)
        assert rep.passed
        assert [c.name for c in rep.conditions] == [
            "boundary-coverage",
            "common-lattice",
            "translation-lattice",
            "face-decomposition",
        ]
        assert rep.data["lattice"] == STANDARD_LATTICE_2


def test_random_fan_atlas_compatible_and_reconstructs():
    rng = random.Random(2)
    fan = fixtures.stern_brocot_fan(rng, 5)
    atlas = atlas_from_fan(fan)
    rec = reconstruct(atlas)
    assert decompositions_match(rec.decomposition, fan)
    assert rec.support.same_as(fan.support)
    assert rec.lattice == STANDARD_LATTICE_2


def test_cusp_reconstruction_round_trip():
    fan = build_fan(CuspData.standard(13))
    rec = reconstruct(atlas_from_fan(fan))
    assert decompositions_match(rec.decomposition, fan)
    assert rec.group == atlas_from_fan(fan).group


def test_frame_defect_reports_index_two():
    rng = random.Random(3)
    fan = fixtures.stern_brocot_fan(rng, 4)
    atlas = _scale_first_frame_row(atlas_from_fan(fan), 2)
    rep = compatibility_check(atlas)
    assert not rep.passed
    cond = rep.condition("common-lattice")
    assert not cond.passed
    base_label, label, ratio = cond.witnesses[0]
    assert base_label == "p0" and label != base_label
    assert max(ratio, 1 / ratio) == 2
    assert "index witness" in cond.details
    assert rep.data["lattice"] is None
    with pytest.raises(DegenerateInputError, match="common-lattice"):
        reconstruct(atlas)


def test_half_frame_defect_reports_index_two_other_direction():
    rng = random.Random(4)
    fan = fixtures.stern_brocot_fan(rng, 4)
    atlas = _scale_first_frame_row(atlas_from_fan(fan), Fraction(1, 2))
    cond = compatibility_check(atlas).condition("common-lattice")
    assert not cond.passed
    ratio = cond.witnesses[0][2]
    assert max(ratio, 1 / ratio) == 2


def test_translation_lattice_failures():
    rng = random.Random(5)
    fan = fixtures.stern_brocot_fan(rng, 4)
    atlas = atlas_from_fan(fan)
    ident = IntMatrix.identity(2)

    bare = BoundaryAtlas(2, atlas.points, (), True, atlas.support_hint)
    cond = compatibility_check(bare).condition("translation-lattice")
    assert not cond.passed and "no translations" in cond.details

    trivial = atlas.group + (GroupElement(ident, (0, 0)),)
    withtriv = BoundaryAtlas(2, atlas.points, trivial, True, atlas.support_hint)
    cond = compatibility_check(withtriv).condition("translation-lattice")
    assert not cond.passed and "acts trivially" in cond.details

    coarse = (GroupElement(ident, (2, 0)), GroupElement(ident, (0, 1)))
    coarse_atlas = BoundaryAtlas(2, atlas.points, coarse, True, atlas.support_hint)
    cond = compatibility_check(coarse_atlas).condition("translation-lattice")
    assert not cond.passed and "do not generate" in cond.details


def test_incomplete_cover_flag_fails_first_condition():
    rng = random.Random(6)
    atlas = atlas_from_fan(fixtures.stern_brocot_fan(rng, 4))
    partial = BoundaryAtlas(2, atlas.points, atlas.group, False, atlas.support_hint)
    cond = compatibility_check(partial).condition("boundary-coverage")
    assert not cond.passed and "incomplete" in cond.details


def test_atlas_from_lower_dimensional_support_is_rejected():
    for ray in ((1, 0), (0, 1)):
        cone = Cone(2, [Vector(ray)])
        support = Support(cone.closure(), interior_only=False, include_origin=True)
        P = Decomposition(2, (zero_cone(2), cone), (), support)
        with pytest.raises(DegenerateInputError, match="full-dimensional"):
            atlas_from_fan(P)


def test_nabla_calculus_rules():
    assert laurent_nabla({-2: 1}) == {-3: -2}
    assert laurent_nabla({0: 5}) == {}
    assert laurent_nabla({3: 1, 0: 7}) == {2: 3}
    assert torus_nabla({0: 1}) == {}
    assert torus_nabla({2: Fraction(1, 2)}) == {2: 1}
    assert torus_scaling_pullback({0: 1}, Fraction(5, 3)) == {0: 1}
    assert torus_scaling_pullback({1: 1}, 2) == {1: 2}
    assert disc_translation_pullback(4) == {1: 1, 2: -1, 3: 1, 4: -1}
    assert disc_translation_pullback(2, Fraction(2)) == {
        1: Fraction(1, 2),
        2: Fraction(-1, 4),
    }
    with pytest.raises(DegenerateInputError):
        disc_translation_pullback(3, 0)


def test_nondescent_witness_exact_numbers():
    w = nondescent_witness(order=4)
    assert w.sample_section == {-2: 1}
    assert w.sample_nabla == {-3: -2}
    assert w.pole_order == 3
    assert w.lead_coefficient == -2
    assert w.descends_under_scalings
    assert w.scaling_obstruction == {}
    assert w.obstructed_under_translations
    assert w.translation_obstruction[1] == 1
