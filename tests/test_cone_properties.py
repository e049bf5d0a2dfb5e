"""Property tests on random rank-2 and rank-3 integral cones."""

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from semitoric.fans import _meets
from semitoric.lattice import Cone, Vector, cone_intersection, faces, is_strongly_convex

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
    intersection of the closures."""
    inter = cone_intersection(a, b)
    if not inter.generators:
        return False
    s = inter.interior_sample()
    return a.contains(s, relint=True) and b.contains(s)


@CONES
@given(cone_pairs(), st.booleans())
@example((2, [(1, 0)], [(1, 0), (0, 1)]), False)
@example((3, [(1, 0, 0), (0, 1, 0)], [(1, 0, 0), (0, 1, 0), (0, 0, 1)]), False)
def test_meets_agrees_with_the_intersection(pair, b_open):
    rank, a_rows, b_rows = pair
    a = _cone(rank, a_rows).relative_interior()
    b = _cone(rank, b_rows)
    if b_open:
        b = b.relative_interior()
    assert _meets(a, b) == _meets_by_intersection(a, b)


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
