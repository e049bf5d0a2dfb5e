"""Locally rational polyhedral decompositions of a support cone.

A Decomposition holds finitely many representative cones (as relative
interiors), a finitely generated symmetry group acting by lattice
automorphisms, and the support region: the Gamma-admissible decompositions
of Ash-Mumford-Rapoport-Tai (1975, ch. II).  Validation checks the four
defining conditions on the representatives together with ``shell_depth``
shells of group translates (one by default); for infinite groups the
reports are certificates on the explored region, not global decision
procedures.  The exact cover is certified, not sampled, by the argument in
``validate_decomposition``.

One geometric test serves every overlap question: ``_meets(a, b)`` decides
whether the relative interior of ``a`` meets ``b``, open or closed, without
intersecting them.  After trying a separating facet normal or span
equation, it reads the answer off the facet normals of cone(a, -b): the
relative interior of ``a`` meets ``b`` exactly when every such normal
vanishes on the generators of ``a``, and also on those of ``b`` when ``b``
is open.  For a common point sum(l_i a_i) = sum(m_j b_j), l > 0 (and
m > 0), gives a vanishing combination of the a_i and -b_j positive on them,
and a generator of a cone has a positive coefficient in a vanishing
combination exactly when it lies in the lineality space.  One filter,
``_one_per_orbit``, keeps a single piece per group orbit when pieces are
collected into members.
"""

from __future__ import annotations

from itertools import islice

from .errors import DegenerateInputError, GroupMismatchError, RequiresRationalConeError
from .lattice import (
    Cone,
    IntMatrix,
    Vector,
    _dual_description,
    _dot_sign,
    _vector_rank,
    as_vector,
    complete_to_basis,
    cone_intersection,
    is_unimodular_part_of_basis,
)
from .report import Condition, Report

# Radius of the group ball searched for orbit partners: pieces one generator
# step from the representatives differ by a word of length at most 2.  It
# bounds a search; partners lying farther apart are missed.
_ORBIT_RADIUS = 2


class GroupElement:
    """Affine symmetry: integer linear part (a lattice automorphism) plus an
    integer translation.  Only the linear part acts on cones."""

    __slots__ = ("linear", "translation", "_inverse")

    def __init__(self, linear: IntMatrix, translation: tuple = ()):
        if not linear.is_unimodular():
            raise DegenerateInputError("group element linear part must be unimodular")
        put = object.__setattr__
        put(self, "linear", linear)
        put(self, "translation", tuple(int(t) for t in translation))
        put(self, "_inverse", None)

    def __setattr__(self, name, value):
        raise AttributeError("GroupElement is immutable")

    def __eq__(self, other):
        if type(other) is not GroupElement:
            return NotImplemented
        return (self.linear, self.translation) == (other.linear, other.translation)

    def __hash__(self):
        return hash((self.linear, self.translation))

    def inverse_linear(self) -> IntMatrix:
        """The inverse of the linear part, computed once and kept."""
        if self._inverse is None:
            object.__setattr__(self, "_inverse", self.linear.inverse_unimodular())
        return self._inverse


class Support:
    """Support region: a cone with interpretation flags.

    ``interior_only`` restricts to the relative interior (used when the
    boundary rays are irrational and carry no lattice points); the origin is
    included or excluded explicitly, independent of the other flags.
    """

    __slots__ = ("cone", "interior_only", "include_origin")

    def __init__(self, cone: Cone, interior_only: bool = False, include_origin: bool = True):
        self.cone, self.interior_only, self.include_origin = cone, interior_only, include_origin

    def contains_point(self, v) -> bool:
        v = as_vector(v, self.cone.rank)
        if v.is_zero:
            return self.include_origin
        return self.cone.contains(v, relint=self.interior_only)

    @property
    def is_rational(self) -> bool:
        return self.cone.is_rational

    def boundary_normals(self):
        return self.cone.dual_description()[0]

    def same_as(self, other: "Support") -> bool:
        return (
            self.cone.same_rays(other.cone)
            and self.interior_only == other.interior_only
            and self.include_origin == other.include_origin
        )


def zero_cone(rank: int) -> Cone:
    return Cone(rank, [], relint=True)


class Decomposition:
    """Representative members (relative interiors), the symmetry group and
    the support.

    Three tables are kept on the instance, filled as they are first needed,
    as a ``Cone`` keeps its dual description: the spheres of the group ball,
    the translates of the members by each ball element, and the closed cones
    by generators (member closures, translate closures and faces).  So every
    translate and face is built once per decomposition and keeps its dual
    description across calls."""

    __slots__ = ("rank", "members", "group", "support", "_spheres", "_reached", "_images",
                 "_closed")

    def __init__(self, rank: int, members: tuple, group: tuple, support: Support):
        self.rank = rank
        self.members = tuple(m if m.relint else m.relative_interior() for m in members)
        self.group = tuple(group)
        self.support = support
        self._spheres, self._reached, self._images, self._closed = [], set(), {}, None

    # -- group exploration ----------------------------------------------------

    def shells(self, depth: int):
        """Spheres of the group ball, radius 0 to ``depth`` in order: the
        products of exactly that many generator linear parts and inverses
        that no shorter product reaches.  Spheres past a finite group are
        empty.  Each sphere is built once per decomposition, when first
        reached, and kept."""
        spheres, reached = self._spheres, self._reached
        for radius in range(depth + 1):
            if radius == len(spheres):
                if spheres:
                    steps = [t for g in self.group for t in (g.linear, g.inverse_linear())]
                    candidates = (g * m for m in spheres[-1] for g in steps)
                else:
                    candidates = [IntMatrix.identity(self.rank)]
                sphere = []
                for cand in candidates:
                    if cand.rows not in reached:
                        reached.add(cand.rows)
                        sphere.append(cand)
                spheres.append(sphere)
            yield spheres[radius]

    def linear_ball(self, depth: int) -> list:
        """Products of at most ``depth`` generator linear parts and inverses."""
        return [t for sphere in self.shells(depth) for t in sphere]

    def _exhausted(self, radius: int) -> bool:
        """Whether the ball of ``radius`` is the whole group: a sphere of
        radius 1 to ``radius`` is empty.  Only the spheres built so far are
        read, and the sphere of radius 1, which any search past the identity
        builds."""
        built = max(len(self._spheres), 2)
        return any(not sphere for sphere in islice(self.shells(radius), 1, built))

    def translated_members(self, depth: int) -> list:
        """The distinct translates of the members over the ball, in order.
        Each is built once per decomposition (see ``_translates``)."""
        return list(dict.fromkeys(c for t in self.linear_ball(depth) for c in self._translates(t)))

    def _translates(self, t: IntMatrix) -> tuple:
        """The members moved by ``t``, in order, built once per element; their
        closures are the face table's cones of their generators."""
        images = self._images.get(t.rows)
        if images is None:
            table = self._face_table()
            images = self._images[t.rows] = tuple(_act_linear(t, m, table) for m in self.members)
        return images

    def _face_table(self) -> dict:
        """Closed cones by generators, first the member closures, then every
        translate closure and face as it is built."""
        if self._closed is None:
            table = {}
            for m in self.members:
                table.setdefault(m.generators, m.closure())
            self._closed = table
        return self._closed


def _act_linear(t: IntMatrix, cone: Cone, closed=None) -> Cone:
    """The image of ``cone`` under the unimodular ``t`` (a GroupElement's
    linear part or a product of them).  Such a map keeps extremal primitive
    generators extremal and primitive, so they are not reduced.  With
    ``closed``, a table of closed cones by generators, the image's closure is
    the table's cone of its generators, entered when new, so that its dual
    description is computed once."""
    if t.rows == IntMatrix.identity(cone.rank).rows:
        return cone
    gens = [t.apply(g) for g in cone.generators]
    if closed is None:
        return Cone(cone.rank, gens, relint=cone.relint, _reduce=False)
    image = Cone(cone.rank, gens, _reduce=False)
    image = closed.setdefault(image.generators, image)
    return image.relative_interior() if cone.relint else image


# -- validation ---------------------------------------------------------------


def _separated(a: Cone, b: Cone) -> bool:
    """Certificate that the relative interior of ``a`` misses ``b`` (its
    relative interior when ``b.relint``, else its closure), found without an
    intersection: a facet normal of ``b`` that is nonpositive on ``a``, and
    negative somewhere on it when ``b`` is closed, or a span equation of
    ``b`` with a fixed strict sign on ``a``."""
    normals, equations = b.dual_description()
    for n in normals:
        if all(_dot_sign(n, g) <= 0 for g in a.generators) and (
            b.relint or any(_dot_sign(n, g) for g in a.generators)
        ):
            return True
    for e in equations:
        signs = [_dot_sign(e, g) for g in a.generators]
        if any(signs) and (min(signs) >= 0 or max(signs) <= 0):
            return True
    return False


def _meets(a: Cone, b: Cone) -> bool:
    """Whether the relative interior of ``a`` meets ``b``, read as its
    relative interior when ``b.relint`` and as its closure otherwise.

    It does when sum(l_i a_i) = sum(m_j b_j) for some l > 0 and m >= 0
    (m > 0 when ``b.relint``), that is, when a nonnegative combination of
    the a_i and -b_j, positive on the a_i (and the b_j), vanishes.  A
    generator of C = cone(a, -b) has a positive coefficient in a vanishing
    combination exactly when it lies in the lineality space of C, the common
    zeros of the facet normals of C; summing such combinations gives one
    positive on all of them.  A zero cone needs no special case: the empty
    sum is the origin, which lies in the relative interior of a cone exactly
    when the cone is a linear subspace; the zero cone meets any closed cone.
    """
    tested = a.generators + b.generators if b.relint else a.generators
    if not tested:
        return True
    if _separated(a, b) or (b.relint and _separated(b, a)):
        return False
    normals, _ = _dual_description(a.generators + tuple(-g for g in b.generators), a.rank)
    return all(_dot_sign(n, g) == 0 for n in normals for g in tested)


def _one_per_orbit(pieces, ball) -> list:
    """The pieces, in order, that no element of ``ball`` (which holds the
    identity) maps onto an earlier kept piece."""
    kept, seen = [], set()
    for piece in pieces:
        if not any(_act_linear(t, piece).generators in seen for t in ball):
            seen.add(piece.generators)
            kept.append(piece)
    return kept


def validate_decomposition(
    P: Decomposition,
    shell_depth: int = 1,
    probe_radius_cap: int = 16,
) -> Report:
    """Check the four decomposition conditions on representatives plus
    ``shell_depth`` shells of group translates.  A cone is full-dimensional
    when its dimension is d, that of the support S.

    (i)   the group preserves the support, members are pairwise disjoint and
          lie in the support, and the cover is certified: some member is
          full-dimensional, every facet of a full-dimensional member inside
          the support has a full-dimensional neighbour on the other side, and
          every codimension-one member inside the support is a facet of
          full-dimensional translates on both sides;
    (ii)  the linear span of every member is defined over Q;
    (iii) every face of a member closure that lies in the support is again a
          member, up to the group action;
    (iv)  each closed probe cone meets the relative interiors of only
          finitely many translated members: the list of those it meets stops
          growing at some radius of the group ball, at most
          ``probe_radius_cap``.  The details count the probes so certified;
          a probe whose list still grows at the cap is a witness.  Once a
          sphere of radius 1 to the cap is empty (radius 1 with no group),
          the ball is the whole group, the list cannot grow past it, and
          every probe is certified without an overlap test.  When nothing
          is probed, because the group moves the support (its shells need
          not stabilize) or no rational probe exists, the details say why.

    The cover certificate is the pseudomanifold argument for complete fans,
    valid in every rank and so for the cones of rank at most 4 used here.
    Let U be the union of the closed full-dimensional translates and K that
    of the cones of dimension at most d - 2.  By local finiteness U is
    closed and the relative interior of S minus K is connected.  A
    neighbour across a facet holds the facet and a point beyond it, so
    facet matching makes U open there, and a full-dimensional member makes
    it nonempty.  Hence U contains S; a point of S lies in the relative
    interior of a face of a full-dimensional closure, by (iii) a member
    translate, the only one by disjointness.  The matching seen from a
    codimension-one member follows from the rest but names the member
    itself (a cone facet matching already named is skipped).  Neighbours
    are searched over the group ball of radius max(``shell_depth``, 1),
    overlaps over radius ``shell_depth``: for an infinite group the
    certificate covers the explored region.  Every condition reads the
    translates and faces from the tables of ``P``, so each is built once
    per decomposition, however many conditions, probes and calls ask.

    A negative ``shell_depth`` raises DegenerateInputError.
    """
    if shell_depth < 0:
        raise DegenerateInputError(f"the shell depth must be nonnegative, got {shell_depth}")
    notes = []
    sup = P.support
    if not sup.is_rational and not sup.include_origin:
        notes.append(
            "support has irrational boundary; origin excluded from the support by convention"
        )
    translated = P.translated_members(shell_depth)
    d_max = sup.cone.dim()
    neighbours = translated if shell_depth else P.translated_members(1)
    full = [c for c in neighbours if c.dim() == d_max]

    # condition (i): group invariance, containment, disjointness, cover
    moves = _support_moves(P)
    witnesses_i = list(moves)
    for m in P.members:
        if not m.generators:
            if not sup.include_origin:
                witnesses_i.append((m, "zero member but origin not in support"))
            continue
        if not all(sup.cone.contains(g) for g in m.generators):
            witnesses_i.append((m, "member not contained in support closure"))
            continue
        if not sup.contains_point(m.interior_sample()):
            witnesses_i.append((m, "member interior escapes the support"))
    for i, a in enumerate(translated):
        for b in translated[i + 1 :]:
            if _meets(a, b):
                witnesses_i.append((a, f"relative interiors overlap with {b}"))
    support_normals = sup.boundary_normals()

    def on_boundary(cone: Cone) -> bool:
        sample = cone.interior_sample()
        return any(_dot_sign(n, sample) == 0 for n in support_normals)

    unmatched = set()
    for m in P.members:
        if m.dim() != d_max or not m.generators:
            continue
        closure = m.closure()
        for f in m.faces(P._face_table()):
            if f.dim() != d_max - 1 or on_boundary(f):
                continue
            normal = _facet_normal(closure, f)
            if not any(
                other.generators != m.generators
                and _dot_sign(normal, other.interior_sample()) < 0
                and all(other.closure().contains(g) for g in f.generators)
                for other in full
            ):
                unmatched.add(f.generators)
                witnesses_i.append(
                    (f, "interior facet of a full-dimensional member has no "
                        "neighbor on the other side")
                )
    if (d_max or sup.include_origin) and not any(m.dim() == d_max for m in P.members):
        witnesses_i.append(
            (sup.cone, "no full-dimensional member: the support has dimension "
                       f"{d_max} and no member does")
        )
    for m in P.members:
        if m.dim() != d_max - 1 or not m.generators or m.generators in unmatched:
            continue
        if on_boundary(m):
            continue
        around = [c.closure() for c in full if all(c.closure().contains(g) for g in m.generators)]
        normal = next(filter(None, (_facet_normal(c, m) for c in around)), None)
        if normal is None or not any(_dot_sign(normal, c.interior_sample()) < 0 for c in around):
            witnesses_i.append(
                (m, "codimension-one member inside the support is not a facet "
                    "of full-dimensional translates on both sides")
            )
    shells = "one shell" if shell_depth <= 1 else f"{shell_depth} shells"
    searched = f"representatives plus {shells} of translates"
    cond1 = Condition(
        "disjoint-cover",
        not witnesses_i,
        searched if shell_depth else f"overlaps among the representatives, neighbours over {searched}",
        witnesses_i,
    )

    # condition (ii): rational spans
    witnesses_ii = []
    for m in P.members:
        if not _span_defined_over_Q(m):
            witnesses_ii.append((m, "linear span is not defined over Q"))
    cond2 = Condition("rational-span", not witnesses_ii, "", witnesses_ii)

    # condition (iii): face closure up to the group
    witnesses_iii = []
    member_keys = {c.generators for c in P.translated_members(_ORBIT_RADIUS)}
    if (
        sup.include_origin
        and any(m.generators for m in P.members)
        and not any(not m.generators for m in P.members)
    ):
        witnesses_iii.append((zero_cone(P.rank), "zero face missing from members"))
    for m in P.members:
        if not m.generators:
            continue
        for f in m.faces(P._face_table()):
            if f.generators == m.generators or not f.generators:
                continue
            if not sup.contains_point(f.interior_sample()):
                continue
            if f.generators not in member_keys:
                witnesses_iii.append(
                    (f, "face of a member closure is absent up to the group")
                )
    cond3 = Condition("face-closure", not witnesses_iii, "", witnesses_iii)

    # condition (iv): local finiteness against probes
    unprobed = None
    if moves:
        probes, unprobed = [], "group does not preserve the support"
    else:
        probes = _default_probes(P, d_max)
        if not probes:
            unprobed = "no rational probe available"
    if unprobed:
        notes.append(f"{unprobed}; local finiteness not probed")
    witnesses_iv = []
    certified = 0
    for probe in probes:
        if P._exhausted(probe_radius_cap):
            certified += 1
            continue
        meeting = set()
        for radius, sphere in enumerate(P.shells(probe_radius_cap)):
            added = False
            for t in sphere:
                for c in P._translates(t):
                    if c not in meeting and _meets(c, probe):
                        meeting.add(c)
                        added = True
            if radius > 0 and not added:
                certified += 1
                break
        else:
            witnesses_iv.append(
                (probe, f"meeting set did not stabilize within radius {probe_radius_cap}")
            )
    cond4 = Condition(
        "local-finiteness",
        not witnesses_iv,
        f"not probed: {unprobed}" if unprobed else f"{certified} probes certified",
        witnesses_iv,
    )
    return Report([cond1, cond2, cond3, cond4], notes)


def _support_moves(P: Decomposition) -> list:
    """(ray, reason) for each ray of the closed support cone that a generator
    linear part, or its inverse, maps out of the cone.  With none, the group
    maps the support cone onto itself, and so its relative interior and the
    origin too."""
    cone = P.support.cone
    moves = []
    for g in P.group:
        rows = [list(r) for r in g.linear.rows]
        for word, t in (("generator", g.linear), ("inverse of generator", g.inverse_linear())):
            for ray in cone.generators:
                image = t.apply(ray)
                if not cone.contains(image, relint=False):
                    why = f"support ray leaves the support: the {word} {rows} maps it to {image}"
                    moves.append((ray, why))
    return moves


_DYADIC_BITS = 64


def _default_probes(P: Decomposition, d_max: int) -> list:
    """Rational probe cones: up to four full-dimensional rational member
    closures; else the support, if rational; else the cone on the dyadic
    approximations from below of the points 2*s + g (s the sum of the
    support generators g) at the first precision, of ``_DYADIC_BITS``, where
    all are interior and span."""
    rational = [
        m.closure()
        for m in P.members
        if m.dim() == d_max and m.generators and m.is_rational
    ]
    if rational:
        return rational[:4]
    cone = P.support.cone
    if not cone.generators:
        return []
    if cone.is_rational:
        return [cone.closure()]
    s = cone.interior_sample().scale(2)
    points = [(s + g).entries for g in cone.generators]
    for bits in range(_DYADIC_BITS):
        rays = [Vector([(x * (1 << bits)).floor() for x in p]) for p in points]
        if _vector_rank(rays) == d_max and all(cone.contains(r, relint=True) for r in rays):
            return [Cone(P.rank, rays)]
    return []


def _facet_normal(cone: Cone, facet: Cone):
    """Facet normal of ``cone`` vanishing on ``facet``, positive inside, or
    None when ``facet`` lies on no facet of ``cone``."""
    normals, _ = cone.dual_description()
    for n in normals:
        if all(_dot_sign(n, g) == 0 for g in facet.generators):
            return n
    return None


def _span_defined_over_Q(cone: Cone) -> bool:
    if not cone.generators:
        return True
    if cone.is_rational:
        return True
    gens = list(cone.generators)
    conj = [Vector(e.conjugate() for e in g) for g in gens]
    return _vector_rank(gens) == _vector_rank(gens + conj)


# -- standard constructions ---------------------------------------------------


def sbb_decomposition(support: Support, group=()) -> Decomposition:
    """Decomposition into the relative interiors of the nonempty faces of the
    support.  When the support has irrational boundary, the only rational
    faces are the interior (and the origin when included): restricted mode."""
    rank = support.cone.rank
    members = []
    if support.is_rational and not support.interior_only:
        for f in support.cone.faces():
            if not f.generators:
                if support.include_origin:
                    members.append(zero_cone(rank))
                continue
            members.append(f.relative_interior())
    else:
        members.append(support.cone.relative_interior())
        if support.include_origin:
            members.append(zero_cone(rank))
    return Decomposition(rank, tuple(members), tuple(group), support)


def is_mumford_type(P: Decomposition) -> bool:
    """True iff every member closure is generated by part of a Z-basis."""
    for m in P.members:
        if not m.generators:
            continue
        if not m.is_rational:
            raise RequiresRationalConeError(
                "Mumford-type test needs rational members"
            )
        if not is_unimodular_part_of_basis(m.closure()):
            return False
    return True


class Stratum:
    __slots__ = ("cone", "complex_dim", "torus_dim")

    def __init__(self, cone: Cone, complex_dim: int, torus_dim: int):
        self.cone, self.complex_dim, self.torus_dim = cone, complex_dim, torus_dim


def strata(P: Decomposition) -> list:
    """One stratum per representative member: a member of dimension k yields
    a boundary stratum of complex dimension rank - k, whose distinguished
    limit points sweep a torus of the same dimension."""
    out = []
    for m in P.members:
        k = m.dim()
        out.append(Stratum(m, P.rank - k, P.rank - k))
    out.sort(key=lambda s: (s.complex_dim, [g.key() for g in s.cone.generators]))
    return out


class Chart:
    """Boundary chart data for a Mumford-type cone: the cone generators as
    the first k vectors of a Z-basis, plus coordinate names."""

    __slots__ = ("cone", "basis", "k", "rank", "coordinate_names")

    def __init__(self, cone: Cone, basis: IntMatrix, k: int, rank: int, coordinate_names: tuple):
        self.cone, self.basis, self.k, self.rank = cone, basis, k, rank
        self.coordinate_names = coordinate_names

    def torus_coordinates(self) -> tuple:
        return self.coordinate_names[self.k :]


def boundary_chart(cone: Cone, rank=None) -> Chart:
    rank = cone.rank if rank is None else rank
    if not is_unimodular_part_of_basis(cone.closure()):
        raise DegenerateInputError("chart requires a unimodular cone")
    rows = [g.as_integers() for g in cone.generators]
    k = len(rows)
    basis = complete_to_basis(rows, rank)
    names = tuple(f"w_{i+1}" for i in range(rank))
    return Chart(cone.closure(), basis, k, rank, names)


# -- refinements ----------------------------------------------------------------


def _require_same_setting(P1: Decomposition, P2: Decomposition):
    if P1.rank != P2.rank:
        raise DegenerateInputError("decompositions live in different ranks")
    if not P1.support.same_as(P2.support):
        raise DegenerateInputError("decompositions have different supports")
    g1 = sorted((g.linear.rows, g.translation) for g in P1.group)
    g2 = sorted((g.linear.rows, g.translation) for g in P2.group)
    if g1 != g2:
        raise GroupMismatchError("decompositions carry different group generators")


def is_refinement(fine: Decomposition, coarse: Decomposition) -> bool:
    """True iff every member of ``fine`` lies inside a member of ``coarse``
    (up to the group action)."""
    _require_same_setting(fine, coarse)
    coarse_cones = list(coarse.translated_members(1))
    for m in fine.members:
        if not m.generators:
            if any(not c.generators for c in coarse.members):
                continue
            return False
        sample = m.interior_sample()
        found = False
        for c in coarse_cones:
            if not c.generators:
                continue
            if c.contains(sample) and all(
                c.closure().contains(g) for g in m.generators
            ):
                found = True
                break
        if not found:
            return False
    return True


def common_refinement(P1: Decomposition, P2: Decomposition) -> Decomposition:
    """Decomposition whose members are the nonempty intersections of the
    relative interiors of members of the two inputs."""
    _require_same_setting(P1, P2)
    second = P2.translated_members(1 if P1.group else 0)
    pieces = [
        cone_intersection(a, b).relative_interior()
        for a in P1.members
        for b in second
        if _meets(a, b)
    ]
    members = _one_per_orbit(pieces, P1.linear_ball(_ORBIT_RADIUS))
    return Decomposition(P1.rank, tuple(members), P1.group, P1.support)


# -- comparison helper ------------------------------------------------------------


def decompositions_match(P1: Decomposition, P2: Decomposition) -> bool:
    """Equality of member sets up to relabeling and the group action."""
    return P1.rank == P2.rank and _orbit_keys(P1) == _orbit_keys(P2)


def _orbit_keys(P: Decomposition) -> set:
    ball = P.linear_ball(_ORBIT_RADIUS)
    keys = set()
    for i in range(len(P.members)):
        orbit = [tuple(g.key() for g in P._translates(t)[i].generators) for t in ball]
        keys.add(min(orbit))
    return keys
