"""Cusp cross-section geometry for real quadratic tube quotients.

The lattice points of a rank-two module sitting inside its totally positive
cone have a convex hull whose boundary polyline is periodic under the
totally positive unit.  One period of that polyline determines the cycle of
rational curves resolving the cusp, with self-intersection numbers -b_j read
off from the relation v_{j-1} + v_{j+1} = b_j v_j.

The polyline is computed as a purely periodic minus continued fraction
(Hirzebruch, "Hilbert modular surfaces", Enseign. Math. 1973, section 2):
minus continued fraction steps reduce the module basis to two consecutive
boundary points, and A_{k+1} = b_k A_k - A_{k-1} with
b_k = floor(x'(A_{k-1}) / x'(A_k)) + 1 walks one unit period from there.
Every sign test and floor is done in integers on the two embeddings
(u.c +- (v.c) sqrt(D)) / d of the module element with coordinates c, where
(u + v sqrt(D)) / d is the basis (alpha, beta) as a lattice vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import DegenerateInputError, ResourceBoundError
from .fans import Decomposition, GroupElement, Support
from .lattice import Cone, IntMatrix, Vector, _floor_quotient, _quad_sign
from .quadfield import CuspData, cusp_cone


def _cross(p, q) -> int:
    return p[0] * q[1] - p[1] * q[0]


def _complement(P) -> tuple:
    """Q with det(P, Q) = 1 for a primitive integer vector P."""
    a, b = P
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        k = a // b
        a, b = b, a - k * b
        x0, x1 = x1, x0 - k * x1
        y0, y1 = y1, y0 - k * y1
    # a = +-1 = x0*P[0] + y0*P[1]
    return (-y0 * a, x0 * a)


@dataclass(frozen=True)
class VertexChain:
    """One period of the boundary polyline of the lattice hull.

    ``vertices`` starts at the minimal-norm point of the period window and
    follows increasing ratio x/x'; ``b`` holds the integers from
    v_{j-1} + v_{j+1} = b_j v_j, aligned with ``vertices``.  Consecutive
    vertices (with the unit-translate wraparound) always have determinant
    one, every b_j is at least 2, and at least one exceeds 2.  ``box_used``
    is the largest absolute coordinate among the vertices.
    """

    cusp: CuspData
    vertices: tuple
    b: tuple
    box_used: int

    def __post_init__(self):
        if len(self.vertices) != len(self.b) or not self.vertices:
            raise DegenerateInputError("chain needs matching vertices and b values")
        E = self.cusp.unit_action()
        prev = E.inverse_unimodular().apply_int(self.vertices[-1])
        ext = [prev] + list(self.vertices) + [E.apply_int(self.vertices[0])]
        for j in range(1, len(ext)):
            if _cross(ext[j - 1], ext[j]) != 1:
                raise DegenerateInputError("consecutive chain vertices must span the lattice")
        for j in range(1, len(ext) - 1):
            bj = self.b[j - 1]
            if bj < 2:
                raise DegenerateInputError("every b value must be at least 2")
            for t in range(2):
                if ext[j - 1][t] + ext[j + 1][t] != bj * ext[j][t]:
                    raise DegenerateInputError("b values do not match the chain relation")
        if all(bj == 2 for bj in self.b):
            raise DegenerateInputError("a hyperbolic unit forces some b value above 2")

    @property
    def m(self) -> int:
        return len(self.vertices)

    def extended_vertices(self, periods: int = 1) -> tuple:
        """Vertices over several consecutive unit translates of the period."""
        if periods < 1:
            raise DegenerateInputError("periods must be positive")
        E = self.cusp.unit_action()
        out = []
        power = IntMatrix.identity(2)
        for _ in range(periods):
            out.extend(power.apply_int(v) for v in self.vertices)
            power = E * power
        out.append(power.apply_int(self.vertices[0]))
        return tuple(out)

    def extended_b(self, periods: int = 1) -> tuple:
        return self.b * periods


def hull_vertices(cusp: CuspData, box_limit: int | None = None) -> VertexChain:
    """Lattice points of the boundary polyline of the hull of the cone
    lattice points, over one unit period.

    The period window holds the points with ratio x/x' in [1, eps^2), where
    eps is the unit, and starts at its point of least (norm, coordinates).
    Raises ResourceBoundError when a vertex coordinate exceeds ``box_limit``
    (None sets no limit), and DegenerateInputError when the unit is below 1
    or the basis has alpha*beta' - alpha'*beta > 0: the chain then runs the
    other way, against the determinant-one order of the vertices.
    """
    D = cusp.ideal.D
    basis = Vector([cusp.ideal.alpha, cusp.ideal.beta])
    (u0, u1), (v0, v1) = basis.num, basis.irr
    if u0 * v1 - u1 * v0 < 0:
        raise DegenerateInputError("basis must have alpha*beta' - alpha'*beta < 0")
    if cusp.unit < 1:
        raise DegenerateInputError("the unit must exceed 1")
    E = cusp.unit_action().apply_int

    def x(c):  # x(c) * d as an integer pair (p, q) for p + q sqrt(D)
        return u0 * c[0] + u1 * c[1], v0 * c[0] + v1 * c[1]

    def xc(c):  # the conjugate x'(c) * d
        return u0 * c[0] + u1 * c[1], -v0 * c[0] - v1 * c[1]

    def q(c):  # ratio x/x' is >= 1 exactly when q(c) >= 0
        return v0 * c[0] + v1 * c[1]

    def step(prev, cur):
        b = _floor_quotient(*xc(prev), *xc(cur), D) + 1
        return b, (b * cur[0] - prev[0], b * cur[1] - prev[1])

    # P is the positive generator of the module's rational line (positive by
    # the orientation test above); Q completes it to a lattice basis.  Minus
    # continued fraction steps on z = x(Q)/x(P) keep P totally positive and
    # x(Q) > x(P), x'(Q) > 0; once x'(Q) < x'(P), z is reduced and P, Q are
    # consecutive boundary points with ratio below 1.
    g = gcd(v0, v1)
    P = (v1 // g, -v0 // g)
    Q = _complement(P)
    while True:
        b = _floor_quotient(*x(Q), *x(P), D) + 1
        P, Q = (b * P[0] - Q[0], b * P[1] - Q[1]), P
        if _quad_sign(*xc((P[0] - Q[0], P[1] - Q[1])), D) > 0:
            break
    while q(E(Q)) < 0:
        P, Q = E(P), E(Q)
    while q(Q) < 0:
        P, Q = Q, step(P, Q)[1]
    stop = E(Q)
    window, bs = [], []
    while Q != stop:
        b, nxt = step(P, Q)
        window.append(Q)
        bs.append(b)
        P, Q = Q, nxt
    norms = [p * p - r * r * D for p, r in map(x, window)]
    start = min(range(len(window)), key=lambda i: (norms[i], window[i]))
    vertices = window[start:] + [E(c) for c in window[:start]]
    box = max(abs(t) for c in vertices for t in c)
    if box_limit is not None and box > box_limit:
        raise ResourceBoundError(
            f"chain vertices reach coordinate {box}, over the box limit {box_limit}"
        )
    return VertexChain(cusp, tuple(vertices), tuple(bs[start:] + bs[:start]), box)


@dataclass(frozen=True)
class CycleResolution:
    """Cycle of rational curves resolving the cusp: curve j has
    self-intersection -b[j].  ``b`` is the lexicographically smallest
    rotation of the chain values; ``offset`` says where it starts in the
    chain."""

    chain: VertexChain
    b: tuple
    offset: int

    @property
    def m(self) -> int:
        return len(self.b)

    def self_intersection_numbers(self) -> tuple:
        return tuple(-x for x in self.b)


def _lex_min_rotation(cycle: tuple):
    rotations = [(cycle[i:] + cycle[:i], i) for i in range(len(cycle))]
    rotations.sort(key=lambda r: (r[0], r[1]))
    return rotations[0]


def self_intersections(source, strict: bool = True) -> CycleResolution:
    """Self-intersection cycle from a cusp or a precomputed chain.

    With ``strict`` the chain certificate is recomputed from scratch; the
    chain constructor re-checks the determinant and b relations either way.
    """
    chain = hull_vertices(source) if isinstance(source, CuspData) else source
    if strict and not isinstance(source, CuspData):
        fresh = hull_vertices(chain.cusp)
        if fresh.b != chain.b or fresh.vertices != chain.vertices:
            raise DegenerateInputError("chain does not match the recomputed hull")
    b_min, offset = _lex_min_rotation(chain.b)
    return CycleResolution(chain, b_min, offset)


def build_fan(source) -> Decomposition:
    """Decomposition of the open cusp cone into the rays through the chain
    vertices and the sectors between consecutive ones, with the unit action
    as symmetry group."""
    chain = hull_vertices(source) if isinstance(source, CuspData) else source
    cusp = chain.cusp
    E = cusp.unit_action()
    verts = list(chain.vertices) + [E.apply_int(chain.vertices[0])]
    members = []
    for j in range(chain.m):
        members.append(Cone(2, [Vector(verts[j])], relint=True))
        members.append(Cone(2, [Vector(verts[j]), Vector(verts[j + 1])], relint=True))
    support = Support(
        cusp_cone(cusp.ideal).closure(), interior_only=True, include_origin=False
    )
    return Decomposition(2, tuple(members), (GroupElement(E),), support)


def emit_figure(obj, kind: str = "hull") -> str:
    """Deterministic SVG picture of a chain hull or a resolution cycle."""
    from . import figures

    if kind == "hull":
        chain = obj.chain if isinstance(obj, CycleResolution) else obj
        return figures.hull_figure(chain)
    if kind == "cycle":
        cycle = obj if isinstance(obj, CycleResolution) else self_intersections(obj, strict=False)
        return figures.cycle_figure(cycle)
    raise DegenerateInputError(f"unknown figure kind: {kind}")
