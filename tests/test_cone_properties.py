"""Property tests on random integral cones of ranks 2 to 4, and on seeded
cones over Q(sqrt(2)) and Q(sqrt(5))."""

import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from semitoric import fans, lattice
from semitoric.fans import _meets
from semitoric.lattice import (
    Cone,
    ExactScalar,
    Vector,
    cone_intersection,
    faces,
    is_strongly_convex,
)

CONES = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _vectors(rank, max_size):
    vector = st.tuples(*[st.integers(-3, 3)] * rank).filter(any)
    return st.lists(vector, min_size=1, max_size=max_size)


@st.composite
def cone_pairs(draw):
    """(rank, rows of a, rows of b): a often shares generators with b, so
    that it lies on a face of b."""
    rank = draw(st.sampled_from((2, 3)))
    b_rows = draw(_vectors(rank, 4))
    shared = draw(st.lists(st.sampled_from(b_rows), max_size=len(b_rows), unique=True))
    a_rows = shared + draw(st.lists(_vectors(rank, 1).map(lambda v: v[0]), max_size=2))
    assume(a_rows)
    return rank, a_rows, b_rows


def _cone(rank, rows) -> Cone:
    return Cone(rank, [Vector(r) for r in rows])


def _meets_by_intersection(a: Cone, b: Cone) -> bool:
    """Whether the relative interior of ``a`` meets ``b`` (open or closed
    per ``b.relint``), read off one relative-interior point of the
    intersection of the closures: the origin when that intersection is
    zero."""
    s = cone_intersection(a, b).interior_sample()
    return a.contains(s, relint=True) and b.contains(s)


@st.composite
def meet_pairs(draw):
    """(rank, rows of a, rows of b) in ranks 2 to 4.  Either side may be
    empty (the zero cone), ``a`` often shares generators with ``b``, and in
    about half the draws every row lies in the hyperplane x_1 = 0, so that
    both cones are lower-dimensional."""
    rank = draw(st.sampled_from((2, 3, 4)))
    first = st.just(0) if draw(st.booleans()) else st.integers(-3, 3)
    vector = st.tuples(first, *[st.integers(-3, 3)] * (rank - 1)).filter(any)
    b_rows = draw(st.lists(vector, max_size=4))
    shared = draw(st.lists(st.sampled_from(b_rows), max_size=len(b_rows), unique=True)) if b_rows else []
    return rank, shared + draw(st.lists(vector, max_size=2)), b_rows


@CONES
@given(meet_pairs(), st.booleans())
@example((2, [(1, 0)], [(1, 0), (0, 1)]), False)
@example((3, [(1, 0, 0), (0, 1, 0)], [(1, 0, 0), (0, 1, 0), (0, 0, 1)]), False)
@example((4, [], [(1, 0, 0, 0), (0, 1, 0, 0)]), False)
@example((4, [], [(1, 0, 0, 0), (0, 1, 0, 0)]), True)
@example((4, [(1, 0, 0, 0)], []), False)
@example((4, [], []), True)
# a line against the zero cone: both relative interiors hold the origin
@example((2, [(1, 0), (-1, 0)], []), False)
@example((2, [(1, 0), (-1, 0)], []), True)
@example((2, [], [(1, 0), (-1, 0)]), False)
@example((2, [], [(1, 0), (-1, 0)]), True)
# a line or the whole plane against a nonzero cone
@example((2, [(1, 0)], [(1, 0), (-1, 0), (0, 1), (0, -1)]), False)
@example((2, [(1, 0), (-1, 0)], [(0, 1)]), False)
@example((2, [(1, 0), (-1, 0)], [(0, 1)]), True)
@example((4, [(0, 1, 0, 0), (0, 0, 1, 0)], [(0, 1, 1, 0), (0, 0, 1, 1)]), True)
@example((4, [(0, 1, 1, 0)], [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]), True)
# disjoint pairs that no facet normal or span equation of a or b separates
@example((4, [(-2, 1, 2, 1), (1, 0, 2, 2), (2, 2, 1, 0)],
          [(-1, 1, 2, 2), (-1, 2, -2, 0), (2, 2, -1, 1), (2, 2, 1, 0)]), False)
@example((4, [(-2, 0, 2, 1), (-2, 1, -2, 0), (-1, 1, -1, 2), (1, -2, -2, 2)],
          [(-2, 0, 2, 1), (-1, 1, -1, 2), (2, 1, -2, 1)]), False)
@example((4, [(1, -2, 2, 1), (1, 2, 0, -1)], [(-1, 0, 2, -1), (0, 0, 1, 0), (2, 1, 0, 0)]), True)
def test_meets_agrees_with_the_intersection(pair, b_open):
    rank, a_rows, b_rows = pair
    a = _cone(rank, a_rows).relative_interior()
    b = _cone(rank, b_rows)
    if b_open:
        b = b.relative_interior()
    assert _meets(a, b) == _meets_by_intersection(a, b)


def _quadratic_rows(rng, rank, D, count):
    """``count`` nonzero rows whose entries are p + q*sqrt(D), |p|, |q| <= 2,
    with q = 0 in about half the entries."""
    rows = []
    while len(rows) < count:
        row = [ExactScalar(rng.randint(-2, 2), rng.randint(-2, 2) * rng.randint(0, 1), D) for _ in range(rank)]
        if any(row):
            rows.append(row)
    return rows


@pytest.mark.parametrize("D", [2, 5])
def test_meets_agrees_with_the_intersection_over_quadratic_fields(D):
    rng = random.Random(D)
    answers = []
    for _ in range(60):
        rank = rng.choice((2, 3, 4))
        b_rows = _quadratic_rows(rng, rank, D, rng.randint(0, 4))
        a_rows = rng.sample(b_rows, rng.randint(0, len(b_rows))) + _quadratic_rows(rng, rank, D, rng.randint(0, 2))
        a = _cone(rank, a_rows).relative_interior()
        for b in (_cone(rank, b_rows), _cone(rank, b_rows).relative_interior()):
            answers.append(_meets(a, b))
            assert answers[-1] == _meets_by_intersection(a, b), (a, b)
    assert len(answers) > 80 and 0 < sum(answers) < len(answers)


@CONES
@given(cone_pairs())
def test_intersection_is_commutative_and_idempotent(pair):
    rank, a_rows, b_rows = pair
    a, b = _cone(rank, a_rows), _cone(rank, b_rows)
    ab = cone_intersection(a, b)
    assert ab == cone_intersection(b, a)
    assert cone_intersection(ab, ab) == ab
    if is_strongly_convex(a):
        assert cone_intersection(a, a) == a


@CONES
@given(cone_pairs())
def test_a_face_of_a_face_is_a_face(pair):
    rank, _, rows = pair
    c = _cone(rank, rows)
    assume(is_strongly_convex(c))
    keys = {f.generators for f in faces(c)}
    for f in faces(c):
        for g in faces(f):
            assert g.generators in keys


ZERO_MEMBER_PROBES = [
    (2, []),
    (2, [(1, 0)]),
    (2, [(1, 0), (0, 1)]),
    (2, [(1, 0), (-1, 0)]),
    (3, [(1, 0, 0), (0, 1, 0), (1, 1, 1)]),
    (4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1)]),
]


@pytest.mark.parametrize("rank, rows", ZERO_MEMBER_PROBES)
def test_zero_member_meets_every_closed_cone(rank, rows, monkeypatch):
    """The relative interior of the zero cone is the origin, which every
    closed cone holds; deciding it computes no dual description."""
    calls = []

    def counted(gens, rank):
        calls.append(gens)
        return real(gens, rank)

    zero, b = _cone(rank, []).relative_interior(), _cone(rank, rows)
    real = lattice._dual_description
    monkeypatch.setattr(lattice, "_dual_description", counted)
    monkeypatch.setattr(fans, "_dual_description", counted)
    assert _meets(zero, b)
    assert calls == []
