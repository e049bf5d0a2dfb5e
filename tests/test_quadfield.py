import random
from fractions import Fraction

import pytest

import oracles
from semitoric import (
    CuspData,
    DegenerateInputError,
    ExactScalar,
    MixedDiscriminantError,
    QuadIdeal,
    ResourceBoundError,
    cusp_cone,
    fundamental_totally_positive_unit,
    fundamental_unit,
    ring_basis,
    sqrtD,
)
from semitoric.lattice import is_squarefree


def test_discriminant_validation():
    for bad in (0, 1, 4, 8, 9, 12, 18, -3):
        with pytest.raises(DegenerateInputError):
            QuadIdeal.maximal_order(bad)


def test_ring_basis_by_residue():
    one, omega = ring_basis(7)
    assert one == ExactScalar(1)
    assert omega == sqrtD(7)
    one, omega = ring_basis(13)
    assert omega == ExactScalar(Fraction(1, 2), Fraction(1, 2), 13)
    # omega satisfies a monic integer quadratic
    tr, nm = omega.trace(), omega.norm()
    assert tr.denominator == 1 and nm.denominator == 1
    assert omega * omega - tr * omega + nm == ExactScalar(0)


def test_fundamental_unit_against_pell_bruteforce():
    for D in [D for D in range(2, 100) if is_squarefree(D)]:
        a, b, den = oracles.pell_fundamental(D)
        eps = fundamental_unit(D)
        assert eps.a == Fraction(a, den) and eps.b == Fraction(b, den)
        assert eps.norm() in (1, -1)
        assert eps > 1


def test_totally_positive_unit():
    for D in (2, 3, 5, 6, 7, 13, 29):
        eps = fundamental_totally_positive_unit(D)
        assert eps.norm() == 1
        assert eps.is_totally_positive()
        assert eps > 1
        base = fundamental_unit(D)
        if base.norm() == -1:
            assert eps == base * base
        else:
            assert eps in (base, base * base)


def test_unit_search_bound():
    with pytest.raises(ResourceBoundError):
        fundamental_unit(61, bound=3)  # needs b = 5/2 scale, far beyond 3
    # zero is a bound that no unit meets; a negative bound is malformed
    with pytest.raises(ResourceBoundError):
        fundamental_unit(2, bound=0)
    with pytest.raises(DegenerateInputError, match="pell bound must be nonnegative, got -5"):
        fundamental_unit(2, bound=-5)


def test_ideal_coordinates_roundtrip():
    rng = random.Random(11)
    for D in (2, 13):
        ideal = QuadIdeal.maximal_order(D)
        for _ in range(20):
            c1, c2 = rng.randrange(-9, 10), rng.randrange(-9, 10)
            x = ideal.element(c1, c2)
            assert ideal.coordinates(x) == (c1, c2)


def test_ideal_coordinates_reject_another_field():
    ideal = QuadIdeal.maximal_order(5)
    assert ideal.coordinates(ExactScalar(3)) == (3, 0)
    with pytest.raises(MixedDiscriminantError):
        ideal.coordinates(ExactScalar(0, 1, 3))


def test_cusp_cone_contains_totally_positive_elements():
    for D in (2, 5, 13):
        ideal = QuadIdeal.maximal_order(D)
        cone = cusp_cone(ideal)
        alpha, beta = ideal.alpha, ideal.beta
        alphap, betap = alpha.conjugate(), beta.conjugate()
        # the two normals are the coordinate functionals of the embeddings
        for c1 in range(-4, 5):
            for c2 in range(-4, 5):
                x = ideal.element(c1, c2)
                inside = x.is_totally_positive()
                val1 = alpha * c1 + beta * c2
                val2 = alphap * c1 + betap * c2
                assert inside == (val1.sign() > 0 and val2.sign() > 0)
                from semitoric import Vector

                assert cone.contains(Vector((c1, c2))) == inside


def test_unit_action_preserves_ideal():
    for D in (2, 3, 5, 6, 7, 13):
        cusp = CuspData.standard(D)
        E = cusp.unit_action()
        assert E.det() == 1
        # acting by the unit in coordinates agrees with multiplication
        ideal = cusp.ideal
        for c1, c2 in ((1, 0), (0, 1), (3, -2)):
            x = ideal.element(c1, c2)
            assert ideal.coordinates(cusp.unit * x) == E.apply_int((c1, c2))
        # trace of the action equals the trace of the unit
        assert E[0][0] + E[1][1] == cusp.unit.trace()


def test_unit_action_fixes_cusp_cone():
    for D in (5, 13):
        cusp = CuspData.standard(D)
        cone = cusp_cone(cusp.ideal)
        E = cusp.unit_action()
        for c1, c2 in ((1, 1), (2, 1), (5, 3)):
            from semitoric import Vector

            v = Vector((c1, c2))
            if cone.contains(v):
                assert cone.contains(Vector(E.apply_int((c1, c2))))


def test_nonmaximal_module():
    # index-2 submodule of the maximal order for D = 2
    D = 2
    ideal = QuadIdeal(ExactScalar(2), sqrtD(D), D)
    x = ideal.element(1, 1)
    assert x == ExactScalar(2, 1, 2)
    assert ideal.coordinates(x) == (1, 1)
    cone = cusp_cone(ideal)
    assert cone.dim() == 2


def test_degenerate_module_rejected():
    with pytest.raises(DegenerateInputError):
        QuadIdeal(ExactScalar(1), ExactScalar(2), 5)  # rationally dependent
