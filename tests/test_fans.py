import random

import pytest

import fixtures
import oracles
from semitoric import (
    Cone,
    CuspData,
    Decomposition,
    DegenerateInputError,
    ExactScalar,
    GroupElement,
    IntMatrix,
    RequiresRationalConeError,
    Support,
    Vector,
    boundary_chart,
    build_fan,
    common_refinement,
    decompositions_match,
    is_mumford_type,
    is_refinement,
    sbb_decomposition,
    strata,
    validate_decomposition,
)
from semitoric import fans, lattice
from semitoric.fans import zero_cone


def _fan_without(fan: Decomposition, index: int) -> Decomposition:
    members = tuple(m for i, m in enumerate(fan.members) if i != index)
    return Decomposition(fan.rank, members, fan.group, fan.support)


def _witness_inside(witness, closure: Cone) -> bool:
    obj = witness[0]
    if isinstance(obj, Vector):
        return closure.contains(obj)
    if not obj.generators:
        return True
    return closure.contains(obj.interior_sample())


def test_cusp_fans_validate():
    for D in (5, 13):
        fan = build_fan(CuspData.standard(D))
        rep = validate_decomposition(fan)
        assert rep.passed
        names = [c.name for c in rep.conditions]
        assert names == [
            "disjoint-cover",
            "rational-span",
            "face-closure",
            "local-finiteness",
        ]
        for c in rep.conditions:
            assert c.passed and not c.witnesses


def test_random_rank2_fans_validate_and_are_mumford():
    for seed in range(3):
        rng = random.Random(seed)
        fan = fixtures.stern_brocot_fan(rng, 6)
        rep = validate_decomposition(fan)
        assert rep.passed
        assert is_mumford_type(fan)


def test_random_rank3_fan_validates():
    rng = random.Random(3)
    fan = fixtures.octant_fan(rng, 4)
    rep = validate_decomposition(fan)
    assert rep.passed
    assert is_mumford_type(fan)


def test_validation_decides_overlaps_without_intersecting(monkeypatch):
    def refuse(a, b):
        raise AssertionError("validate_decomposition intersected two cones")

    monkeypatch.setattr(fans, "cone_intersection", refuse)
    monkeypatch.setattr(lattice, "cone_intersection", refuse)
    cusp = build_fan(CuspData.standard(13))
    assert cusp.group
    for fan in (
        fixtures.octant_fan(random.Random(3), 4),
        fixtures.stern_brocot_fan(random.Random(1), 6),
        cusp,
    ):
        assert validate_decomposition(fan, shell_depth=2).passed


def test_deleted_member_is_detected_with_witness():
    rng = random.Random(11)
    for trial in range(8):
        fan = fixtures.stern_brocot_fan(rng, rng.randint(3, 6))
        nonzero = [i for i, m in enumerate(fan.members) if m.generators]
        index = rng.choice(nonzero)
        deleted = fan.members[index].closure()
        broken = _fan_without(fan, index)
        rep = validate_decomposition(broken)
        assert not rep.passed
        found = [
            w
            for c in rep.conditions
            for w in c.witnesses
            if _witness_inside(w, deleted)
        ]
        assert found


def test_deleted_rank3_wall_is_detected():
    rng = random.Random(5)
    fan = fixtures.octant_fan(rng, 3)
    walls = [i for i, m in enumerate(fan.members) if m.dim() == 2]
    index = rng.choice(walls)
    deleted = fan.members[index].closure()
    rep = validate_decomposition(_fan_without(fan, index))
    assert not rep.passed
    witnesses = [w for c in rep.conditions for w in c.witnesses]
    assert any(_witness_inside(w, deleted) for w in witnesses)


def test_codimension_one_members_without_neighbours_are_witnesses():
    facet = "interior facet of a full-dimensional member has no neighbor on the other side"
    lone = (
        "codimension-one member inside the support is not a facet of "
        "full-dimensional translates on both sides"
    )
    rays = [Cone(2, [Vector(r)]) for r in ((1, 0), (1, 1), (1, 2), (0, 1))]
    sector = Cone(2, [Vector((1, 0)), Vector((1, 1))])
    P = Decomposition(2, (zero_cone(2), *rays, sector), (), fixtures.quadrant_support())
    cover = validate_decomposition(P).condition("disjoint-cover")
    # the ray (1, 1) is named once, by facet matching
    assert [(w[0].generators, w[1]) for w in cover.witnesses] == [
        (rays[1].generators, facet),
        (rays[2].generators, lone),
    ]
    fan = build_fan(CuspData.standard(5))
    assert [m.dim() for m in fan.members] == [1, 2]
    cover = validate_decomposition(_fan_without(fan, 1)).condition("disjoint-cover")
    assert [w[1] for w in cover.witnesses] == [
        "no full-dimensional member: the support has dimension 2 and no member does",
        lone,
    ]
    assert cover.witnesses[0][0] == fan.support.cone
    assert cover.witnesses[1][0] == fan.members[0]


def test_deleted_origin_reported_as_missing_zero_face():
    rng = random.Random(4)
    fan = fixtures.stern_brocot_fan(rng, 4)
    zero_index = next(i for i, m in enumerate(fan.members) if not m.generators)
    rep = validate_decomposition(_fan_without(fan, zero_index))
    cond = rep.condition("face-closure")
    assert not cond.passed
    assert any("zero face" in w[1] for w in cond.witnesses)


def test_irrational_span_member_is_flagged():
    ray = Cone(2, [Vector((ExactScalar(1), ExactScalar(0, 1, 2)))])
    P = Decomposition(
        2, (zero_cone(2), ray), (), fixtures.quadrant_support()
    )
    rep = validate_decomposition(P)
    assert not rep.passed
    cond = rep.condition("rational-span")
    assert not cond.passed
    assert cond.witnesses[0][0].same_rays(ray)


def test_local_finiteness_counts_only_stabilized_probes():
    fan = build_fan(CuspData.standard(13))
    probes = [m.closure() for m in fan.members if m.dim() == 2]
    assert len(probes) == 3
    stable = validate_decomposition(fan).condition("local-finiteness")
    assert stable.passed and stable.details == "3 probes certified"
    capped = validate_decomposition(fan, probe_radius_cap=0)
    cond = capped.condition("local-finiteness")
    assert not cond.passed
    assert cond.details == "0 probes certified"
    assert [w[0] for w in cond.witnesses] == probes
    assert all(w[1] == "meeting set did not stabilize within radius 0" for w in cond.witnesses)


def test_local_finiteness_without_a_rational_probe_says_why():
    ray = Cone(2, [Vector((ExactScalar(1), ExactScalar(0, 1, 2)))])
    P = Decomposition(2, (zero_cone(2), ray), (), Support(ray.closure()))
    rep = validate_decomposition(P)
    cond = rep.condition("local-finiteness")
    assert cond.passed and not cond.witnesses
    assert cond.details == "not probed: no rational probe available"
    assert "no rational probe available; local finiteness not probed" in rep.notes


def _oracle_counts(fan: Decomposition, box: int) -> dict:
    """``oracles.cover_counts`` of the fan over translates of depth 4."""
    gens = fan.support.cone.generators
    return oracles.cover_counts(
        [[g.as_integers() for g in m.generators] for m in fan.members],
        [g.linear.rows for g in fan.group],
        [tuple((e.a, e.b) for e in g.entries) for g in gens],
        next((g.D for g in gens if g.D), 0),
        box,
        4,
        fan.support.interior_only,
        fan.support.include_origin,
    )


def test_certificate_agrees_with_the_cover_oracle():
    """The pool of acceptance criterion 03 passes the certificate and the
    oracle; every one-member deletion of its cusp fans and of a few of its
    rational fans fails the certificate, and must whenever the oracle counts
    a lattice point other than once."""
    rng = random.Random(103)
    cusps = [build_fan(CuspData.standard(D)) for D in (2, 3, 5, 6, 7, 13)]
    sbs = [fixtures.stern_brocot_fan(rng, rng.randint(3, 6)) for _ in range(25)]
    octants = [fixtures.octant_fan(rng, rng.randint(2, 3)) for _ in range(25)]
    for fan in cusps + sbs + octants:
        counts = _oracle_counts(fan, 6 if fan.group else 3)
        assert counts and set(counts.values()) == {1}
        assert validate_decomposition(fan).passed
    gaps = 0
    for fan in cusps + sbs[:3] + octants[:2]:
        for index in range(len(fan.members)):
            broken = _fan_without(fan, index)
            counts = _oracle_counts(broken, 6 if fan.group else 3)
            gaps += set(counts.values()) != {1}
            assert not validate_decomposition(broken).passed
    assert gaps


def test_sbb_counts_match_hyperplane_oracle():
    rng = random.Random(17)
    for _ in range(12):
        cone = fixtures.random_simplicial_cone(rng)
        sup = Support(cone.closure())
        P = sbb_decomposition(sup)
        gens = [g.as_integers() for g in cone.closure().generators]
        expected = oracles.face_count_by_hyperplanes(gens, cone.rank)
        assert len(P.members) == expected
        assert expected == 1 << len(gens)


def test_sbb_on_quadrant_lists_all_faces():
    P = sbb_decomposition(fixtures.quadrant_support())
    dims = sorted(m.dim() for m in P.members)
    assert dims == [0, 1, 1, 2]


def test_sbb_restricted_mode_for_irrational_support():
    cusp = CuspData.standard(5)
    fan = build_fan(cusp)
    P = sbb_decomposition(fan.support, group=fan.group)
    assert len(P.members) == 1
    assert P.members[0].dim() == 2
    opened = Support(fan.support.cone, interior_only=True, include_origin=True)
    P2 = sbb_decomposition(opened)
    assert sorted(m.dim() for m in P2.members) == [0, 2]


def test_strata_dims_complement_member_dims():
    rng = random.Random(7)
    for fan in (
        build_fan(CuspData.standard(13)),
        fixtures.stern_brocot_fan(rng, 5),
        fixtures.octant_fan(rng, 3),
    ):
        for s in strata(fan):
            assert s.complex_dim == fan.rank - s.cone.dim()
            assert s.torus_dim == s.complex_dim


def test_boundary_chart_matches_stratum_dimension():
    rng = random.Random(9)
    fan = fixtures.octant_fan(rng, 3)
    for s in strata(fan):
        chart = boundary_chart(s.cone, rank=fan.rank)
        assert len(chart.torus_coordinates()) == s.complex_dim
        assert chart.k == s.cone.dim()
        assert abs(chart.basis.det()) == 1
        for i, g in enumerate(chart.cone.generators):
            assert tuple(chart.basis.rows[i]) == g.as_integers()


def test_boundary_chart_rejects_nonunimodular_cone():
    cone = Cone(2, [Vector((1, 0)), Vector((1, 2))])
    with pytest.raises(DegenerateInputError):
        boundary_chart(cone)


def test_refinement_between_fan_and_face_decomposition():
    rng = random.Random(21)
    fine = fixtures.stern_brocot_fan(rng, 5)
    coarse = sbb_decomposition(fixtures.quadrant_support())
    assert is_refinement(fine, coarse)
    assert not is_refinement(coarse, fine)
    assert is_refinement(fine, fine)


def test_common_refinement_properties():
    rng1, rng2 = random.Random(31), random.Random(32)
    P1 = fixtures.stern_brocot_fan(rng1, 4)
    P2 = fixtures.stern_brocot_fan(rng2, 4)
    C = common_refinement(P1, P2)
    assert validate_decomposition(C).passed
    assert is_refinement(C, P1)
    assert is_refinement(C, P2)
    assert decompositions_match(C, common_refinement(P2, P1))
    assert decompositions_match(common_refinement(P1, P1), P1)


def _words_ball(gens, rank, depth):
    """Rows of every product of at most ``depth`` of the given matrices."""
    ball = {IntMatrix.identity(rank).rows}
    for _ in range(depth):
        ball |= {(g * IntMatrix(m)).rows for m in ball for g in gens}
    return ball


def test_shells_are_the_spheres_of_the_group_ball():
    flip = GroupElement(IntMatrix([[-1, 0], [0, -1]]))
    shear = GroupElement(IntMatrix([[1, 1], [0, 1]]))
    unit = build_fan(CuspData.standard(13)).group[0]
    swap3 = GroupElement(IntMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]]))
    shear3 = GroupElement(IntMatrix([[1, 0, 1], [0, 1, 0], [0, 0, 1]]))
    for rank, group in ((2, (unit,)), (2, (unit, shear)), (2, (flip,)), (3, (swap3, shear3))):
        P = Decomposition(rank, (), group, fixtures.quadrant_support())
        gens = [m for g in group for m in (g.linear, g.inverse_linear())]
        spheres = list(P.shells(4))
        assert len(spheres) == 5
        assert P.linear_ball(4) == [t for sphere in spheres for t in sphere]
        inner = set()
        for radius, sphere in enumerate(spheres):
            rows = [t.rows for t in sphere]
            assert len(set(rows)) == len(rows)
            ball = _words_ball(gens, rank, radius)
            assert set(rows) == ball - inner, (rank, radius)
            inner = ball
    # a finite group: the spheres past it are empty
    flipped = Decomposition(2, (), (flip,), fixtures.quadrant_support())
    assert [len(s) for s in flipped.shells(3)] == [1, 1, 0, 0]


def test_decompositions_match_up_to_relabeling():
    rng = random.Random(41)
    fan = fixtures.stern_brocot_fan(rng, 5)
    shuffled = list(fan.members)
    rng.shuffle(shuffled)
    relabeled = Decomposition(fan.rank, tuple(shuffled), fan.group, fan.support)
    assert decompositions_match(fan, relabeled)
    coarse = sbb_decomposition(fixtures.quadrant_support())
    assert not decompositions_match(fan, coarse)


def test_group_element_guards_and_action():
    with pytest.raises(DegenerateInputError, match="unimodular"):
        GroupElement(IntMatrix(((2, 0), (0, 1))))
    g = GroupElement(IntMatrix(((1, 1), (0, 1))), translation=(1, 0))
    assert g.translation == (1, 0)
    ray = Cone(2, [Vector((0, 1))])
    moved = fans._act_linear(g.linear, ray)
    assert moved.relint == ray.relint
    assert moved.generators[0].as_integers() == (1, 1)
    assert (g.linear * g.inverse_linear()).rows == IntMatrix.identity(2).rows


def test_support_membership_flags():
    cone = Cone(2, [Vector((1, 0)), Vector((0, 1))]).closure()
    closed = Support(cone, interior_only=False, include_origin=True)
    assert closed.contains_point((0, 0))
    assert closed.contains_point((1, 0))
    opened = Support(cone, interior_only=True, include_origin=False)
    assert not opened.contains_point((0, 0))
    assert not opened.contains_point((1, 0))
    assert opened.contains_point((1, 1))


def test_mumford_type_negative_cases():
    sup = fixtures.quadrant_support()
    bad = Decomposition(
        2, (zero_cone(2), Cone(2, [Vector((1, 0)), Vector((1, 2))])), (), sup
    )
    assert not is_mumford_type(bad)
    ray = Cone(2, [Vector((ExactScalar(1), ExactScalar(0, 1, 2)))])
    irr = Decomposition(2, (ray,), (), sup)
    with pytest.raises(RequiresRationalConeError):
        is_mumford_type(irr)


def test_member_containing_is_unique_on_valid_fan():
    rng = random.Random(51)
    fan = fixtures.stern_brocot_fan(rng, 5)
    sector = next(m for m in fan.members if m.dim() == 2)
    point = sector.interior_sample()
    assert len([c for c in fan.translated_members(2) if c.contains(point)]) == 1
    cusp_fan = build_fan(CuspData.standard(5))
    far = cusp_fan.group[0].linear.apply(
        cusp_fan.members[-1].interior_sample()
    )
    assert len([c for c in cusp_fan.translated_members(2) if c.contains(far)]) == 1
