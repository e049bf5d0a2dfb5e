import math
import operator
import random
from fractions import Fraction
from unittest import mock

import pytest

import oracles
from semitoric import (
    Cone,
    DegenerateInputError,
    ExactScalar,
    IntMatrix,
    MixedDiscriminantError,
    QuadIdeal,
    UnsupportedRankError,
    Vector,
    complete_to_basis,
    cone_from_inequalities,
    cone_intersection,
    faces,
    hermite_normal_form,
    integer_kernel,
    is_strongly_convex,
    is_unimodular_part_of_basis,
)
from semitoric import lattice
from semitoric.lattice import (
    _dot_parts,
    _dot_sign,
    _dual_description,
    _int_echelon,
    _int_kernel,
    _int_rank,
    _kernel,
    _realified_kernel,
    _realify,
    _vector_rank,
)


def rand_scalar(rng, D):
    a = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
    b = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
    return ExactScalar(a, b, D if b else None)


def test_scalar_normalization():
    x = ExactScalar(3, 0, 7)
    assert x.D is None and x.is_rational
    y = ExactScalar(Fraction(1, 2), Fraction(-2, 3), 5)
    assert y.D == 5 and not y.is_rational
    with pytest.raises(DegenerateInputError):
        ExactScalar(1, 1, 4)  # not squarefree


def test_scalar_field_identities():
    rng = random.Random(1)
    for _ in range(60):
        D = rng.choice([2, 3, 5, 13])
        x, y, z = (rand_scalar(rng, D) for _ in range(3))
        assert (x + y) * z == x * z + y * z
        assert x * y == y * x
        assert (x - y) + y == x
        if y.sign() != 0:
            assert (x / y) * y == x
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        assert x.norm() == (x * x.conjugate()).as_fraction()
        assert x.trace() == (x + x.conjugate()).as_fraction()


def test_scalar_mixed_discriminants_rejected():
    x = ExactScalar(0, 1, 2)
    y = ExactScalar(0, 1, 3)
    with pytest.raises(MixedDiscriminantError):
        x + y
    with pytest.raises(MixedDiscriminantError):
        x * y


def test_scalars_mix_only_with_exact_numbers():
    one = ExactScalar(1)
    assert one != "1" and not one == "1" and len({one, "1"}) == 2
    assert one != 1.0 and len({one, 1, Fraction(1)}) == 1
    for other in (0.1, "1/2"):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(TypeError):
                op(one, other)
            with pytest.raises(TypeError):
                op(other, one)
        with pytest.raises(TypeError):
            Vector([1, other])
        with pytest.raises(TypeError):
            ExactScalar(other)
        with pytest.raises(TypeError):
            ExactScalar(0, other, 5)
    # exact operands keep working, on both sides and in the other entry points
    half = Fraction(1, 2)
    assert one + half == half + one == ExactScalar(Fraction(3, 2))
    assert 2 - one == one and 2 / ExactScalar(4) == half and one * True == one
    x = ExactScalar(half, 3, 5)
    assert (x.a, x.b, x.D) == (half, 3, 5)
    assert Vector([half, 1, x]).entries == (ExactScalar(half), one, x)
    ideal = QuadIdeal.maximal_order(5)
    assert ideal.coordinates(ideal.element(half, -3)) == (half, -3)
    assert ideal.coordinates(7) == (7, 0)


def test_scalar_floor_ceil_sign():
    rng = random.Random(2)
    for _ in range(80):
        D = rng.choice([2, 3, 5, 6, 7, 13])
        x = rand_scalar(rng, D)
        f, c = x.floor(), -(-x).floor()
        assert (x - f).sign() >= 0 and (x - f - 1).sign() < 0
        assert (c - x).sign() >= 0 and (c - x - 1) .sign() < 0 or x == f
        if x.sign() > 0:
            assert x > 0
        # total positivity means both embeddings are positive
        assert x.is_totally_positive() == (x.sign() > 0 and x.conjugate().sign() > 0)


def test_scalar_sqrt_comparison_is_exact():
    # 1 + sqrt(2) vs 41/17: 17(1+sqrt2) - 41 = 17 sqrt2 - 24 > 0 iff 578 > 576
    x = ExactScalar(1, 1, 2)
    assert x > Fraction(41, 17)
    assert x < Fraction(41, 16)
    assert ExactScalar(0, 1, 2).floor() == 1
    assert -ExactScalar(0, -1, 2).floor() == 2
    assert ExactScalar(0, -1, 2).floor() == -2
    assert ExactScalar(Fraction(1, 2), Fraction(1, 2), 13).floor() == 2


def _scalar_draw(rng, D):
    """A random element of Q(sqrt(D)) as an ExactScalar and as its Fraction
    pair (a, b) for a + b*sqrt(D): rational a quarter of the time, and with
    30-digit numerators a fifth of the time."""
    top, den = (10**30, 10**12) if rng.random() < 0.2 else (9, 7)

    def frac():
        return Fraction(rng.randrange(-top, top + 1), rng.randrange(1, den))

    a = frac()
    b = frac() if rng.random() < 0.75 else Fraction(0)
    return ExactScalar(a, b, D if b else None), (a, b)


def _scalar_results(seed, rounds):
    """(result, oracle pair, D) for the field operations on random operands,
    with int and Fraction operands on either side."""
    rng = random.Random(seed)
    for _ in range(rounds):
        D = rng.choice([2, 3, 5, 6, 7, 13, 21, 1009])
        (x, (a, b)), (y, (c, d)) = _scalar_draw(rng, D), _scalar_draw(rng, D)
        k = rng.randrange(-5, 6)
        f = Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
        yield x, (a, b), D
        yield x + y, (a + c, b + d), D
        yield x - y, (a - c, b - d), D
        yield x * y, oracles._q_mul((a, b), (c, d), D), D
        yield k + x, (k + a, b), D
        yield x + f, (a + f, b), D
        yield f - x, (f - a, -b), D
        yield x - k, (a - k, b), D
        yield k * x, (k * a, k * b), D
        yield x * f, (a * f, b * f), D
        yield -x, (-a, -b), D
        yield x.conjugate(), (a, -b), D
        if c or d:
            inverse = oracles._q_inverse((c, d), D)
            yield x / y, oracles._q_mul((a, b), inverse, D), D
            yield k / y, (k * inverse[0], k * inverse[1]), D
            yield y.inverse(), inverse, D
        if f:
            yield x / f, (a / f, b / f), D


def _scalar_repr(a, b, D) -> str:
    if b == 0:
        return str(a)
    tail = ("" if abs(b) == 1 else f"{abs(b)}*") + f"sqrt({D})"
    sign = "-" if b < 0 else "+" if a else ""
    return f"{a if a else ''}{sign}{tail}"


def test_scalar_ops_match_the_fraction_pair_oracle():
    for x, (a, b), D in _scalar_results(51, 400):
        assert (x.a, x.b) == (a, b)
        assert x.D == (D if b else None) and x.is_rational == (b == 0)
        sign = oracles._q_sign((a, b), D)
        assert x.sign() == sign and (x < 0) == (sign < 0) and bool(x) == (sign != 0)
        assert x.norm() == a * a - D * b * b and x.trace() == 2 * a
        n, m = x.floor(), -(-x).floor()
        assert oracles._q_sign((a - n, b), D) >= 0 > oracles._q_sign((a - n - 1, b), D)
        assert oracles._q_sign((a - m, b), D) <= 0 < oracles._q_sign((a - m + 1, b), D)
        assert repr(x) == _scalar_repr(a, b, D)
        assert x == ExactScalar(a, b, D if b else None)
        if b == 0:
            assert x == a and hash(x) == hash(x.as_fraction()) == hash(a)
            if a.denominator == 1:
                assert x == a.numerator and hash(x) == hash(a.numerator)
        else:
            assert x != a and x != ExactScalar(a, 0)
            with pytest.raises(DegenerateInputError):
                x.as_fraction()


def _assert_canonical(x):
    assert x.den > 0 and math.gcd(x.num, x.irr, x.den) == 1
    assert (x.D is None) == (x.irr == 0)


def test_scalars_stay_in_canonical_integer_form():
    rng = random.Random(52)
    for x, _, _ in _scalar_results(52, 300):
        _assert_canonical(x)
    for _ in range(200):
        D = rng.choice([2, 5, 13])
        u, v = (_quad_vector(_random_pairs(rng, 3), D) for _ in range(2))
        keys = () if u.ints is not None else tuple(e for key in u.key() for e in key[:2])
        for x in u.entries + (_dot(u, v),) + keys:
            _assert_canonical(x)
    assert (ExactScalar(Fraction(4, 6), Fraction(2, 6), 5).num, ExactScalar(0).den) == (2, 1)


def test_vector_primitive_rational():
    v = Vector([Fraction(2, 3), Fraction(-4, 3), Fraction(2, 3)])
    assert v.primitive() == Vector([1, -2, 1])
    assert Vector([0, 0]).primitive() == Vector([0, 0])
    assert Vector([6, -9]).primitive() == Vector([2, -3])


def test_vector_primitive_irrational():
    w = Vector([ExactScalar(0, 2, 5), ExactScalar(4, 0, None)])
    p = w.primitive()
    # first nonzero entry scaled to +-1, direction preserved
    first = next(x for x in p if x.sign() != 0)
    assert abs(first) == 1 or first == ExactScalar(1)


def _random_pairs(rng, n):
    """n entries as (a, b) Fraction pairs for a + b*sqrt(D): an integral,
    a rational or a quadratic vector, sometimes with zero entries."""
    kind = rng.choice(("integral", "rational", "quadratic"))

    def entry():
        if rng.random() < 0.2:
            return (Fraction(0), Fraction(0))
        den = 1 if kind == "integral" else rng.randrange(1, 7)
        a = Fraction(rng.randrange(-9, 10), den)
        b = Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)) if kind == "quadratic" else 0
        return (a, Fraction(b))

    return [entry() for _ in range(n)]


def _quad_vector(pairs, D):
    return Vector(ExactScalar(a, b, D) for a, b in pairs)


def _dot(u, v):
    """<u, v> as an ExactScalar, from the integer parts of ``_dot_parts``."""
    p, q, D = _dot_parts(u, v)
    return ExactScalar._of(p, q, u.den * v.den, D)


def test_vector_dot_and_sign_match_quadratic_oracle():
    rng = random.Random(48)
    for _ in range(600):
        D = rng.choice([2, 3, 5, 6, 7, 13, 21])
        n = rng.randrange(1, 5)
        xs, ys = _random_pairs(rng, n), _random_pairs(rng, n)
        if n >= 2 and rng.random() < 0.2:  # orthogonal over Q(sqrt(D))
            ys = [xs[1], (-xs[0][0], -xs[0][1])] + ys[2:]
            ys[2:] = [(Fraction(0), Fraction(0))] * (n - 2)
        u, v = _quad_vector(xs, D), _quad_vector(ys, D)
        expected = oracles.quad_dot(xs, ys, D)
        got = _dot(u, v)
        assert (got.a, got.b) == expected
        assert _dot_sign(u, v) == oracles._q_sign(expected, D) == _dot_sign(v, u)


def test_vector_apply_primitive_and_key_match_the_scalar_path():
    rng = random.Random(49)
    for _ in range(300):
        D = rng.choice([2, 3, 5, 6, 7, 13, 21])
        n = rng.randrange(1, 5)
        vectors = [_quad_vector(_random_pairs(rng, n), D) for _ in range(6)]
        M = IntMatrix([[rng.randrange(-3, 4) for _ in range(n)] for _ in range(rng.randrange(1, 5))])
        for v in vectors:
            image = tuple(
                sum((ExactScalar(c) * x for c, x in zip(row, v.entries)), ExactScalar(0))
                for row in M.rows
            )
            assert M.apply(v).entries == image
            if v.is_zero:
                assert v.primitive() == v
            elif v.is_rational:
                den = math.lcm(*(x.a.denominator for x in v.entries))
                ints = [int(x.a * den) for x in v.entries]
                g = math.gcd(*ints)
                assert v.primitive().entries == tuple(ExactScalar(x // g) for x in ints)
            else:
                lead = abs(next(x for x in v.entries if x))
                assert v.primitive().entries == tuple(x / lead for x in v.entries)
        by_scalars = sorted(vectors, key=lambda v: [(x.a, x.b, x.D) for x in v.entries])
        assert sorted(vectors, key=Vector.key) == by_scalars


def test_vector_scale_matches_the_entrywise_products():
    rng = random.Random(53)
    for _ in range(300):
        D = rng.choice([2, 3, 5, 13])
        v = _quad_vector(_random_pairs(rng, rng.randrange(1, 5)), D)
        c, _ = _scalar_draw(rng, D)
        for k in (c, rng.randrange(-4, 5), Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))):
            assert v.scale(k) == Vector(k * x for x in v.entries)
    with pytest.raises(MixedDiscriminantError):
        Vector([ExactScalar(0, 1, 2)]).scale(ExactScalar(0, 1, 3))


def test_vector_equality_and_hash_do_not_depend_on_how_it_was_built():
    rng = random.Random(50)
    for _ in range(200):
        n = rng.randrange(1, 5)
        fractions = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(n)]
        a = Vector(fractions)
        b = Vector(ExactScalar(f) for f in fractions)
        assert a == b and hash(a) == hash(b)
        assert a.den > 0 and math.gcd(a.den, *a.num) == 1 and a.irr is None
        integral = [rng.randrange(-9, 10) for _ in range(n)]
        c = Vector(integral)
        assert c == Vector(map(Fraction, integral)) == Vector(map(ExactScalar, integral))
        assert c.ints == tuple(integral) and hash(c) == hash(Vector(map(ExactScalar, integral)))
        D = rng.choice([2, 3, 5, 13])
        q = _quad_vector(_random_pairs(rng, n), D)
        again = q.scale(6).scale(Fraction(1, 6))
        assert q == again and hash(q) == hash(again)
        assert q.den > 0 and math.gcd(q.den, *q.num, *(q.irr or ())) == 1


def test_vector_rejects_mixed_discriminants_when_built():
    with pytest.raises(MixedDiscriminantError):
        Vector([ExactScalar(0, 1, 2), ExactScalar(0, 1, 3)])
    with pytest.raises(MixedDiscriminantError):
        _dot_parts(Vector([ExactScalar(0, 1, 2), 1]), Vector([1, ExactScalar(0, 1, 3)]))


def test_int_matrix_basics():
    rng = random.Random(3)
    for n in (2, 3, 4):
        M = IntMatrix(tuple(tuple(r) for r in oracles.random_unimodular(rng, n)))
        assert abs(M.det()) == 1
        assert M * M.inverse_unimodular() == IntMatrix.identity(n)
    A = IntMatrix(((2, 0), (0, 3)))
    assert A.det() == 6
    assert A.apply_int((1, 1)) == (2, 3)


def test_inverse_unimodular_matches_oracle():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(2, 6)
        U = oracles.random_unimodular(rng, n, shears=rng.randint(2, 12))
        if rng.random() < 0.5:
            U = [[-x for x in U[0]]] + U[1:]  # determinant -1
        inverse = IntMatrix(U).inverse_unimodular()
        assert [list(r) for r in inverse.rows] == oracles.invert_unimodular(U)
    for rows, det in ((((2, 0), (0, 1)), 2), (((1, 2), (2, 4)), 0), (((0, 0), (0, 0)), 0)):
        with pytest.raises(DegenerateInputError, match=f"determinant {det},"):
            IntMatrix(rows).inverse_unimodular()
    with pytest.raises(DegenerateInputError, match="non-square"):
        IntMatrix(((1, 0, 0), (0, 1, 0))).inverse_unimodular()


def test_hermite_normal_form_properties():
    rng = random.Random(4)
    for _ in range(25):
        n = rng.randrange(2, 5)
        m = rng.randrange(2, 5)
        M = IntMatrix(tuple(tuple(rng.randrange(-6, 7) for _ in range(m)) for _ in range(n)))
        H, U = hermite_normal_form(M)
        assert abs(U.det()) == 1
        assert U * M == H
        # echelon shape: pivot columns strictly increase
        pivots = []
        for row in H.rows:
            nz = next((j for j, x in enumerate(row) if x), None)
            if nz is not None:
                assert not pivots or nz > pivots[-1]
                assert row[nz] > 0
                pivots.append(nz)
        # idempotence
        H2, _ = hermite_normal_form(H)
        assert H2 == H


def test_integer_kernel_saturated():
    M = IntMatrix(((2, 4, 6),))
    ker = integer_kernel(M)
    assert len(ker) == 2
    for v in ker:
        assert sum(M[0][j] * v[j] for j in range(3)) == 0
    # (1, -2, 1) lies in the kernel and must be an integer combination
    sol = oracles.solve(
        [[Fraction(ker[0][j]), Fraction(ker[1][j])] for j in range(3)],
        [Fraction(1), Fraction(-2), Fraction(1)],
    )
    assert sol is not None and all(x.denominator == 1 for x in sol)


def test_complete_to_basis_keeps_input_rows():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randrange(2, 5)
        U = oracles.random_unimodular(rng, n)
        k = rng.randrange(1, n)
        vectors = [tuple(U[i]) for i in range(k)]
        B = complete_to_basis([Vector(v) for v in vectors], n)
        assert abs(B.det()) == 1
        for i, v in enumerate(vectors):
            assert tuple(B[i]) == v
    assert complete_to_basis([], 3) == IntMatrix.identity(3)
    for vectors, n in (
        ([(0, 0)], 2),  # a zero row
        ([(2, 0)], 2),  # a row that is not primitive
        ([(1, 2, 0), (2, 4, 0)], 3),  # dependent rows
        ([(1, 0), (0, 1), (1, 1)], 2),  # more rows than the rank
        ([(1, 0, 0)], 2),  # rows of the wrong length
    ):
        with pytest.raises(DegenerateInputError, match="not part of a lattice basis"):
            complete_to_basis(vectors, n)


def test_basis_completion_against_minor_gcd():
    """k integer rows of length n extend to a Z-basis exactly when they are
    independent and their k x k minors have gcd 1: complete_to_basis then
    keeps them as its first rows with determinant +-1, and raises otherwise;
    is_unimodular_part_of_basis agrees on every cone whose minimal
    generators are those rows."""
    rng = random.Random(6)
    outcomes, cones = [], 0
    for _ in range(400):
        n = rng.randint(1, 4)
        k = rng.randint(1, n)
        rows = [tuple(rng.randrange(-2, 3) for _ in range(n)) for _ in range(k)]
        extends = oracles.rank(rows) == k and oracles.maximal_minor_gcd(rows, n) == 1
        outcomes.append(extends)
        if extends:
            B = complete_to_basis(rows, n)
            assert B.rows[:k] == tuple(rows)
            assert abs(oracles.leibniz_det(B.rows)) == 1
        else:
            with pytest.raises(DegenerateInputError, match="not part of a lattice basis"):
                complete_to_basis(rows, n)
        cone = Cone(n, [Vector(r) for r in rows if any(r)])
        if sorted(g.ints for g in cone.generators) == sorted(rows):
            cones += 1
            assert is_unimodular_part_of_basis(cone) == extends, rows
    assert 100 < sum(outcomes) < 300 and cones > 150, (sum(outcomes), cones)


def test_is_unimodular_part_of_basis():
    assert is_unimodular_part_of_basis(Cone(2, [Vector((1, 0)), Vector((0, 1))]))
    assert is_unimodular_part_of_basis(Cone(2, [Vector((2, 1)), Vector((1, 1))]))
    assert not is_unimodular_part_of_basis(Cone(2, [Vector((2, 1)), Vector((1, 2))]))
    assert is_unimodular_part_of_basis(Cone(3, [Vector((1, 0, 0)), Vector((1, 1, 0))]))
    # generators are stored primitively, so a doubled ray is still unimodular
    assert is_unimodular_part_of_basis(Cone(2, [Vector((2, 0))]))
    assert not is_unimodular_part_of_basis(
        Cone(3, [Vector((1, 1, 0)), Vector((1, -1, 0))])
    )


def test_cone_canonicalization_and_containment():
    a = Cone(2, [Vector((2, 0)), Vector((0, 3)), Vector((1, 1))])
    b = Cone(2, [Vector((1, 0)), Vector((0, 1))])
    assert a.same_rays(b)
    assert a.contains(Vector((5, 7)))
    assert not a.contains(Vector((-1, 0)))
    assert a.contains(a.interior_sample(), relint=True)
    assert not a.contains(Vector((1, 0)), relint=True)


def test_cone_dual_description():
    rng = random.Random(8)
    for _ in range(20):
        n = rng.randrange(2, 5)
        U = oracles.random_unimodular(rng, n)
        k = rng.randrange(1, n + 1)
        gens = [Vector(tuple(U[i])) for i in range(k)]
        c = Cone(n, gens)
        normals, equations = c.dual_description()
        for g in c.generators:
            assert all(_dot_sign(nrm, g) >= 0 for nrm in normals)
            assert all(_dot_sign(eq, g) == 0 for eq in equations)
        s = c.interior_sample()
        assert all(_dot_sign(nrm, s) > 0 for nrm in normals)


def test_cone_from_inequalities_double_dual():
    quad = cone_from_inequalities([Vector((1, 0)), Vector((0, 1))], [], 2)
    assert quad.same_rays(Cone(2, [Vector((1, 0)), Vector((0, 1))]))
    line_cut = cone_from_inequalities(
        [Vector((1, -1, 0))], [Vector((0, 0, 1))], 3
    )
    assert line_cut.dim() == 2
    rng = random.Random(9)
    for _ in range(10):
        U = oracles.random_unimodular(rng, 3)
        c = Cone(3, [Vector(tuple(U[i])) for i in range(3)])
        normals, equations = c.dual_description()
        back = cone_from_inequalities(normals, equations, 3)
        assert back.same_rays(c)


def test_cone_intersection_shared_ray():
    a = Cone(2, [Vector((1, 0)), Vector((1, 1))])
    b = Cone(2, [Vector((1, 1)), Vector((0, 1))])
    inter = cone_intersection(a, b)
    assert inter.same_rays(Cone(2, [Vector((1, 1))]))


def test_faces_of_simplicial_cone():
    c = Cone(3, [Vector((1, 0, 0)), Vector((0, 1, 0)), Vector((0, 0, 1))])
    fs = faces(c)
    assert len(fs) == 8
    dims = sorted(f.dim() for f in fs)
    assert dims == [0, 1, 1, 1, 2, 2, 2, 3]


def test_strong_convexity():
    assert is_strongly_convex(Cone(2, [Vector((1, 0)), Vector((0, 1))]))
    assert not is_strongly_convex(
        Cone(2, [Vector((1, 0)), Vector((-1, 0)), Vector((0, 1))])
    )


def test_rank_guard():
    with pytest.raises(UnsupportedRankError):
        Cone(5, [Vector((1, 0, 0, 0, 0))])


def test_irrational_cone_membership():
    s5 = ExactScalar(0, 1, 5)
    c = Cone(2, [Vector([ExactScalar(1), s5]), Vector([ExactScalar(1), -1 / s5])])
    assert c.contains(Vector((1, 0)))
    assert c.contains(Vector((1, 2)))
    assert not c.contains(Vector((1, 3)))
    assert not c.contains(Vector((-1, 0)))


def _realified_rank(vectors):
    return _int_rank(_realify(vectors)[1]) // 2


def test_rational_rank_matches_oracle():
    rng = random.Random(10)
    for _ in range(20):
        n, m = rng.randrange(2, 5), rng.randrange(2, 5)
        rows = [[Fraction(rng.randrange(-4, 5)) for _ in range(m)] for _ in range(n)]
        vectors = [Vector(row) for row in rows]
        thirds = [Vector([x / 3 for x in row]) for row in rows]  # rational, not integral
        expected = oracles.rank(rows)
        assert _vector_rank(vectors) == _realified_rank(vectors) == expected
        assert _vector_rank(thirds) == expected


# -- the realified path against the direct integer path and the oracles -----------
#
# Integral generators take the integer kernel directly.  Quadratic data is
# realified first: each vector becomes the integer rows of the rational and
# the sqrt(D) part of its pairing, and kernels are read back from the integer
# kernel of those rows.  Here the realified kernel and ExactScalar dot
# products, the path quadratic data takes, run on the same integral input as
# one reference, with tests/oracles.py as the other.  On quadratic input the
# realified kernel and rank are checked against Gauss-Jordan elimination over
# Q(sqrt(D)) in tests/oracles.py.


def _exact_dual_description(gens, n):
    """``_dual_description`` with every kernel taken through realification."""
    with mock.patch.object(lattice, "_kernel", _realified_kernel):
        return _dual_description(gens, n)


def _random_gens(rng, n, count=None):
    count = rng.randrange(1, n + 3) if count is None else count
    return [Vector(tuple(rng.randrange(-3, 4) for _ in range(n))) for _ in range(count)]


def _exact_dot(u, v):
    acc = ExactScalar(0)
    for x, y in zip(u.entries, v.entries):
        acc = acc + x * y
    return acc


def _exact_contains(desc, v, strict):
    normals, equations = desc
    if any(_exact_dot(e, v) for e in equations):
        return False
    if strict:
        return all(_exact_dot(nrm, v).sign() > 0 for nrm in normals)
    return all(_exact_dot(nrm, v).sign() >= 0 for nrm in normals)


def _exact_double_dual(normals, equations, n):
    dual_gens = list(normals) + list(equations) + [-e for e in equations]
    dn, de = _exact_dual_description(dual_gens, n)
    return list(dn) + list(de) + [-e for e in de], bool(de)


def _exact_faces(c):
    seen = set()
    stack = [c.generators]
    while stack:
        gens = stack.pop()
        if gens in seen:
            continue
        seen.add(gens)
        normals, _ = _exact_dual_description(list(gens), c.rank)
        for nrm in normals:
            stack.append(tuple(g for g in gens if not _exact_dot(nrm, g)))
    return sorted(
        seen, key=lambda gens: (oracles.rank([g.ints for g in gens]), [g.ints for g in gens])
    )


def test_integer_echelon_rank_kernel_and_det_match_oracles():
    rng = random.Random(40)
    for _ in range(300):
        ncols = rng.randrange(1, 5)
        vectors = _random_gens(rng, ncols, rng.randrange(0, 6))
        if vectors and rng.random() < 0.4:  # force a dependent row
            a, b = rng.choice(vectors), rng.choice(vectors)
            vectors.append(a.scale(2) + b.scale(-3))
        rows = [v.ints for v in vectors]
        assert len(_int_echelon(rows)[1]) == oracles.rank(rows)
        assert [v.ints for v in _int_kernel(rows, ncols)] == oracles.kernel(rows, ncols)
        square = [v.ints for v in _random_gens(rng, ncols, ncols)]
        assert IntMatrix(square).det() == oracles.leibniz_det(square)


def test_integer_dual_description_matches_exact_path():
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randrange(2, 5)
        gens = _random_gens(rng, n)
        got = _dual_description(gens, n)
        assert got == _exact_dual_description([g for g in gens if not g.is_zero], n)
        normals, equations = got
        assert all(v.ints is not None for v in normals + equations)
        expected = oracles.dual_description([g.ints for g in gens], n)
        assert ([v.ints for v in normals], [v.ints for v in equations]) == expected


def test_integer_dim_matches_oracle_rank():
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randrange(2, 5)
        c = Cone(n, _random_gens(rng, n))
        rows = [g.ints for g in c.generators]
        assert c.dim() == oracles.rank(rows) == _realified_rank(c.generators)


def test_integer_containment_matches_exact_path():
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randrange(2, 5)
        c = Cone(n, _random_gens(rng, n))
        desc = _exact_dual_description(list(c.generators), n)
        points = [Vector([0] * n)] + _random_gens(rng, n, 8)
        for _ in range(6):  # points on faces: sums of generator subsets
            pick = [g for g in c.generators if rng.random() < 0.5]
            points.append(sum(pick[1:], pick[0]) if pick else Vector([0] * n))
        for v in points:
            for strict in (False, True):
                assert c.contains(v, relint=strict) == _exact_contains(desc, v, strict)
            assert c.relative_interior().contains(v) == _exact_contains(desc, v, True)


def test_integer_intersection_matches_exact_path():
    rng = random.Random(44)
    for _ in range(60):
        n = rng.randrange(2, 5)
        a, b = Cone(n, _random_gens(rng, n)), Cone(n, _random_gens(rng, n))
        inter = cone_intersection(a, b)
        na, ea = _exact_dual_description(list(a.generators), n)
        nb, eb = _exact_dual_description(list(b.generators), n)
        ref, has_lines = _exact_double_dual(na + nb, ea + eb, n)
        got = _exact_dual_description(list(inter.generators), n)
        assert got == _exact_dual_description(ref, n)
        if not has_lines:
            assert set(inter.generators) == set(ref)


def test_integer_faces_match_exact_path():
    rng = random.Random(45)
    for _ in range(40):
        n = rng.randrange(2, 5)
        U = [Vector(tuple(r)) for r in oracles.random_unimodular(rng, n)]
        gens = [u for u in U if rng.random() < 0.8] or U[:1]
        for _ in range(rng.randrange(0, 3)):  # non-simplicial, still pointed
            first = U[0].scale(rng.randrange(1, 3))
            gens.append(sum((u.scale(rng.randrange(0, 3)) for u in U[1:]), first))
        c = Cone(n, gens)
        assert [f.generators for f in faces(c)] == _exact_faces(c)


def test_quadratic_support_meets_integral_cones():
    s5 = ExactScalar(0, 1, 5)
    quad = Cone(2, [Vector([ExactScalar(1), s5]), Vector([ExactScalar(1), -1 / s5])])
    assert all(v.ints is None for v in quad.generators)
    rng = random.Random(46)
    for _ in range(30):
        b = Cone(2, _random_gens(rng, 2))
        inter = cone_intersection(quad, b)
        nq, eq = quad.dual_description()
        nb, eb = _exact_dual_description(list(b.generators), 2)
        ref, _ = _exact_double_dual(nq + nb, eq + eb, 2)
        assert inter.same_rays(Cone(2, ref))
        for v in _random_gens(rng, 2, 6):
            expected = _exact_contains((nq, eq), v, False)
            assert quad.contains(v) == expected
            assert inter.contains(v) == (expected and b.contains(v))


def _pairs(v):
    return tuple((Fraction(e.a), Fraction(e.b)) for e in v.entries)


def _random_quadratic_rows(rng, D):
    """1-4 rows of ambient rank 1-4 over Q(sqrt(D)) as (a, b) pairs, some
    rational; 30% get a row dependent over Q(sqrt(D)) on the others."""
    n = rng.randrange(1, 5)

    def entry():
        if rng.random() < 0.25:
            return (Fraction(0), Fraction(0))
        b = Fraction(rng.randrange(-4, 5), rng.randrange(1, 3)) if rng.random() < 0.6 else 0
        return (Fraction(rng.randrange(-4, 5), rng.randrange(1, 3)), Fraction(b))

    rows = [[entry() for _ in range(n)] for _ in range(rng.randrange(1, 5))]
    if rng.random() < 0.3:
        coeffs = [entry() for _ in rows]
        rows.append([oracles.quad_dot(coeffs, col, D) for col in zip(*rows)])
        rng.shuffle(rows)
    return n, rows


def test_realified_kernel_and_rank_match_quadratic_oracle():
    rng = random.Random(47)
    for _ in range(400):
        D = rng.choice([2, 3, 5, 6, 7, 13, 21])
        n, rows = _random_quadratic_rows(rng, D)
        vectors = [Vector(ExactScalar(a, b, D) for a, b in row) for row in rows]
        expected = oracles.quad_kernel(rows, n, D)
        assert [_pairs(v) for v in _kernel(vectors, n)] == expected
        assert [_pairs(v) for v in _realified_kernel(vectors, n)] == expected
        assert _vector_rank(vectors) == oracles.quad_rank(rows, D)
        # integral input forced through realification agrees with the oracle too
        ints = [Vector(tuple(rng.randrange(-3, 4) for _ in range(n))) for _ in rows]
        int_rows = [[(Fraction(x), Fraction(0)) for x in v.ints] for v in ints]
        assert [_pairs(v) for v in _realified_kernel(ints, n)] == oracles.quad_kernel(
            int_rows, n, D
        )
        assert _realified_rank(ints) == oracles.quad_rank(int_rows, D)


def test_realify_rejects_mixed_discriminants():
    vectors = [Vector([ExactScalar(0, 1, 2), 1]), Vector([1, ExactScalar(0, 1, 3)])]
    with pytest.raises(MixedDiscriminantError):
        _vector_rank(vectors)
    with pytest.raises(MixedDiscriminantError):
        _kernel(vectors, 2)
