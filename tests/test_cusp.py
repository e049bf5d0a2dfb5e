import random
from fractions import Fraction

import pytest

import oracles
from semitoric import (
    CuspData,
    CycleResolution,
    DegenerateInputError,
    ExactScalar,
    QuadIdeal,
    ResourceBoundError,
    Vector,
    build_fan,
    cusp_cone,
    emit_figure,
    hull_vertices,
    ring_basis,
    self_intersections,
    sqrtD,
)
from semitoric.lattice import is_squarefree

DISCRIMINANTS = (2, 3, 5, 6, 7, 13)

# hand-checked cycles; also re-derived by the continued fraction oracle below
KNOWN_CYCLES = {
    2: [2, 4],
    3: [4],
    5: [3],
    6: [2, 6],
    7: [3, 6],
    13: [2, 2, 5],
}


def lexmin_rotation(seq):
    return min(oracles.cyclic_rotations(seq))


def test_chain_b_matches_minus_cf_oracle():
    for D in DISCRIMINANTS:
        chain = hull_vertices(CuspData.standard(D))
        got = lexmin_rotation(chain.b)
        assert got == lexmin_rotation(oracles.minus_cf_cycle(D)), D
        assert got == lexmin_rotation(KNOWN_CYCLES[D]), D


def test_chain_length_and_single_curve_case():
    for D in DISCRIMINANTS:
        chain = hull_vertices(CuspData.standard(D))
        assert chain.m == len(KNOWN_CYCLES[D])
    chain5 = hull_vertices(CuspData.standard(5))
    assert chain5.m == 1
    # single vertex: b equals the trace of the unit action
    E = chain5.cusp.unit_action()
    assert chain5.b[0] == E[0][0] + E[1][1]


def test_first_vertex_is_the_unit_point():
    for D in DISCRIMINANTS:
        chain = hull_vertices(CuspData.standard(D))
        assert chain.vertices[0] == (1, 0)


def test_hull_invariants_three_periods():
    for D in DISCRIMINANTS:
        chain = hull_vertices(CuspData.standard(D))
        verts = chain.extended_vertices(periods=3)
        bs = chain.extended_b(periods=3)
        assert len(verts) == 3 * chain.m + 1
        for j in range(len(verts) - 1):
            x, y = verts[j], verts[j + 1]
            assert abs(x[0] * y[1] - x[1] * y[0]) == 1
        for j in range(1, len(verts) - 1):
            prev, cur, nxt = verts[j - 1], verts[j], verts[j + 1]
            b = bs[j % chain.m]
            assert prev[0] + nxt[0] == b * cur[0]
            assert prev[1] + nxt[1] == b * cur[1]
        assert all(b >= 2 for b in bs)
        assert max(bs) >= 3


def test_vertices_lie_in_cusp_cone():
    from semitoric.quadfield import cusp_cone

    for D in DISCRIMINANTS:
        chain = hull_vertices(CuspData.standard(D))
        cone = cusp_cone(chain.cusp.ideal)
        for v in chain.extended_vertices(periods=2):
            assert cone.contains(Vector(v))


def test_unit_translates_chain():
    for D in (2, 13):
        chain = hull_vertices(CuspData.standard(D))
        E = chain.cusp.unit_action()
        verts = chain.extended_vertices(periods=2)
        for j in range(chain.m):
            assert E.apply_int(verts[j]) == verts[j + chain.m]


def test_cycle_resolution_values():
    for D in DISCRIMINANTS:
        cyc = self_intersections(hull_vertices(CuspData.standard(D)))
        assert isinstance(cyc, CycleResolution)
        assert list(cyc.b) == lexmin_rotation(KNOWN_CYCLES[D])
        assert cyc.self_intersection_numbers() == tuple(-b for b in cyc.b)


def test_self_intersections_strict_recheck():
    chain = hull_vertices(CuspData.standard(6))
    loose = self_intersections(chain, strict=False)
    strict = self_intersections(chain, strict=True)
    assert loose.b == strict.b


def test_box_growth_is_bounded():
    for D in DISCRIMINANTS:
        chain = hull_vertices(CuspData.standard(D))
        assert chain.box_used <= 64


def test_box_limit_raises():
    with pytest.raises(ResourceBoundError):
        hull_vertices(CuspData.standard(94), box_limit=64)
    # zero is a limit that no chain meets; a negative limit is malformed
    with pytest.raises(ResourceBoundError):
        hull_vertices(CuspData.standard(13), box_limit=0)
    with pytest.raises(DegenerateInputError, match="box limit must be nonnegative, got -1"):
        hull_vertices(CuspData.standard(13), box_limit=-1)


def test_build_fan_shape():
    for D in (5, 13):
        chain = hull_vertices(CuspData.standard(D))
        P = build_fan(chain)
        rays = [m for m in P.members if m.dim() == 1]
        sectors = [m for m in P.members if m.dim() == 2]
        assert len(rays) == chain.m and len(sectors) == chain.m
        assert len(P.group) == 1
        assert P.support.interior_only and not P.support.include_origin
        # each chain vertex generates a ray member
        ray_keys = {r.generators[0].key() for r in rays}
        for v in chain.vertices:
            assert Vector(v).key() in ray_keys


def test_figures_are_deterministic_svg():
    chain = hull_vertices(CuspData.standard(13))
    hull_svg = emit_figure(chain, "hull")
    assert hull_svg == emit_figure(chain, "hull")
    assert hull_svg.startswith("<svg ") and hull_svg.rstrip().endswith("</svg>")
    for v in chain.vertices:
        assert f"v{chain.vertices.index(v)}" in hull_svg
    cyc = self_intersections(chain)
    cyc_svg = emit_figure(cyc, "cycle")
    assert cyc_svg.startswith("<svg ")
    for b in cyc.b:
        assert f"-{b}" in cyc_svg


def test_custom_unit_power_doubles_cycle():
    # resolving with the square of the unit doubles the period
    base = CuspData.standard(5)
    squared = CuspData(base.ideal, base.unit * base.unit)
    chain = hull_vertices(squared, box_limit=1 << 16)
    assert chain.m == 2 * len(KNOWN_CYCLES[5])
    assert lexmin_rotation(chain.b) == lexmin_rotation(KNOWN_CYCLES[5] * 2)



def _pair(x):
    return (x.a, x.b)


def _power(x, k):
    out = x
    for _ in range(k - 1):
        out = out * x
    return out


def _stabilized(ideal, unit):
    """The cusp of ``ideal`` with the least power of ``unit`` that maps it to itself."""
    for k in range(1, 13):
        try:
            return CuspData(ideal, _power(unit, k))
        except DegenerateInputError:
            pass
    raise AssertionError("no small power of the unit stabilizes the module")


def _oracle_cases():
    rng = random.Random(20)
    cases = []
    for D in (2, 3, 5, 6, 7, 13, 14, 21):
        base = CuspData.standard(D)
        alpha, beta = base.ideal.alpha, base.ideal.beta
        for _ in range(3):
            (a, b), (c, d) = oracles.random_sl2(rng, 6)
            ideal = QuadIdeal(a * alpha + c * beta, b * alpha + d * beta, D)
            cases.append(CuspData(ideal, base.unit))
    # non-maximal modules Z + k*omega*Z, and sqrt(2) times the maximal order
    for D in (2, 3, 5, 7):
        one, omega = ring_basis(D)
        for k in (2, 3):
            cases.append(_stabilized(QuadIdeal(one, omega * k, D), CuspData.standard(D).unit))
    cases.append(CuspData(QuadIdeal(ExactScalar(2), sqrtD(2), 2), CuspData.standard(2).unit))
    # thin modules Z + Z*(1 + sqrt(D)/k)/2: the reduced basis lies below the
    # period window, so the chain walks forward into it
    for D, k in ((2, 3), (3, 3), (5, 7)):
        thin = QuadIdeal(ExactScalar(1), ExactScalar(Fraction(1, 2), Fraction(1, 2 * k), D), D)
        cases.append(_stabilized(thin, CuspData.standard(D).unit))
    # squared and cubed units: two and three periods of the fundamental chain
    for D in (2, 3, 5):
        base = CuspData.standard(D)
        for k in (2, 3):
            cases.append(CuspData(base.ideal, _power(base.unit, k)))
    return cases


def test_chain_matches_box_hull_oracle():
    for cusp in _oracle_cases():
        ideal = cusp.ideal
        want = oracles.box_hull_chain(
            ideal.D, _pair(ideal.alpha), _pair(ideal.beta), _pair(cusp.unit)
        )
        assert want is not None, cusp
        chain = hull_vertices(cusp)
        assert (chain.vertices, chain.b) == want[:2], cusp
        assert [list(r) for r in cusp.unit_action().rows] == want[2]
        assert chain.box_used == max(abs(t) for v in chain.vertices for t in v)


def _seeded_bases():
    """(D, alpha, beta) for maximal-order bases moved by SL2(Z) and scaled
    by a field element, in both orders."""
    rng = random.Random(25)
    for D in (2, 3, 5, 6, 7, 13, 14, 21):
        one, omega = ring_basis(D)
        for _ in range(6):
            (a, b), (c, d) = oracles.random_sl2(rng, 6)
            scale = ExactScalar(Fraction(rng.randint(1, 5), rng.randint(1, 3)), rng.randint(-2, 2), D)
            alpha, beta = scale * (a * one + c * omega), scale * (b * one + d * omega)
            yield D, alpha, beta
            yield D, beta, alpha


def test_cusp_cone_matches_oracle_edges():
    for D, alpha, beta in _seeded_bases():
        cone = cusp_cone(QuadIdeal(alpha, beta, D))
        assert cone.relint and cone.dim() == 2 and len(cone.generators) == 2
        edges = oracles.cusp_cone_edges(D, _pair(alpha), _pair(beta))
        for g in cone.generators:
            g = tuple(map(_pair, g))
            assert [oracles.same_ray(g, e, D) for e in edges].count(True) == 1, (D, alpha, beta)


def test_cusp_construction_makes_no_scalar_arithmetic(monkeypatch):
    """Given the basis and the unit, the ideal, its cone, the cusp and its
    chain are computed in integers: no ExactScalar +, -, * or / call."""
    cases = [(D, alpha, beta, CuspData.standard(D).unit) for D, alpha, beta in _seeded_bases()]
    calls = []

    def counted(op):
        def wrapper(*args):
            calls.append(op.__name__)
            return op(*args)
        return wrapper

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__"):
        monkeypatch.setattr(ExactScalar, name, counted(getattr(ExactScalar, name)))
    oriented = 0
    for D, alpha, beta, unit in cases:
        ideal = QuadIdeal(alpha, beta, D)
        cusp_cone(ideal)
        cusp = CuspData(ideal, unit)
        try:
            hull_vertices(cusp)
            oriented += 1
        except DegenerateInputError:
            pass
    monkeypatch.undo()
    assert oriented == len(cases) // 2
    assert calls == []


def test_every_discriminant_below_1000_matches_minus_cf_oracles():
    count = 0
    for D in range(2, 1000):
        if not is_squarefree(D):
            continue
        count += 1
        cusp = CuspData.standard(D, bound=10**60)
        assert _pair(cusp.unit) == oracles.minus_cf_unit(D), D
        chain = hull_vertices(cusp)
        assert lexmin_rotation(chain.b) == lexmin_rotation(oracles.minus_cf_cycle(D)), D
    assert count == 607


def test_misoriented_basis_and_small_unit_are_rejected():
    base = CuspData.standard(2)
    swapped = CuspData(QuadIdeal(base.ideal.beta, base.ideal.alpha, 2), base.unit)
    with pytest.raises(DegenerateInputError, match="alpha"):
        hull_vertices(swapped)
    with pytest.raises(DegenerateInputError, match="exceed 1"):
        hull_vertices(CuspData(base.ideal, base.unit.inverse()))
