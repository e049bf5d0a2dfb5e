"""Boundary atlases for toric flat connections.

A boundary atlas lists the maximal-depth points of a toric boundary, one per
full-dimensional cone, each carrying the matrix of a flat frame written in
the d log v basis of its chart.  Compatibility of the local data is what
lets the flat structure descend to the quotient; ``reconstruct`` recovers
the lattice, support and cone decomposition from a compatible atlas.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import DegenerateInputError, RequiresRationalConeError
from .fans import (
    Decomposition,
    GroupElement,
    Support,
    _one_per_orbit,
    validate_decomposition,
)
from .lattice import (
    Cone,
    IntMatrix,
    Vector,
    _denominator,
    _int_rank,
    _inverse,
    _times,
    hermite_normal_form,
    is_strongly_convex,
    is_unimodular_part_of_basis,
)
from .report import Condition, Report


class MaxDepthPoint:
    """Maximal-depth boundary point: its cone and the flat frame matrix A
    whose rows express flat sections in the d log v chart basis."""

    __slots__ = ("label", "cone", "frame")

    def __init__(self, label: str, cone: Cone, frame: tuple):
        r = cone.rank
        if cone.dim() != r:
            raise DegenerateInputError("maximal-depth point needs a full-dimensional cone")
        if not cone.is_rational:
            raise RequiresRationalConeError("chart cones must be rational")
        rows = tuple(tuple(Fraction(x) for x in row) for row in frame)
        if len(rows) != r or any(len(row) != r for row in rows):
            raise DegenerateInputError("frame must be a square matrix of chart rank")
        if _int_rank(_times(rows, _denominator(rows))) != r:
            raise DegenerateInputError("frame matrix must be invertible")
        self.label = label
        self.cone = cone
        self.frame = rows  # rows of A, entries Fraction

    @staticmethod
    def from_cone(label: str, cone: Cone) -> "MaxDepthPoint":
        """Frame of the chart attached to a unimodular cone: the inverse
        transpose of the generator matrix, so the local lattice recovers the
        cone generators."""
        if not is_unimodular_part_of_basis(cone.closure()):
            raise DegenerateInputError("chart cones must be unimodular")
        W = IntMatrix(g.as_integers() for g in cone.closure().generators)
        if W.nrows != cone.rank:
            raise DegenerateInputError("maximal-depth point needs a full-dimensional cone")
        frame = W.inverse_unimodular().transpose().rows
        return MaxDepthPoint(label, cone.closure(), frame)

    def frame_inverse(self) -> list:
        return _inverse(self.frame)


def local_lattice(point: MaxDepthPoint) -> tuple:
    """Generators of the local lattice: the columns of the inverse frame
    matrix.  For a chart built from a cone these are the cone generators."""
    inv = point.frame_inverse()
    r = len(inv)
    return tuple(Vector(tuple(inv[i][j] for i in range(r))) for j in range(r))


def _lattice_canonical(columns) -> tuple:
    """Canonical form (denominator, row HNF) of the lattice spanned by the
    given rational vectors."""
    den = lcm(*(v.den for v in columns)) if columns else 1
    rows = [tuple(x * (den // v.den) for x in v.num) for v in columns]
    H, _ = hermite_normal_form(IntMatrix(rows))
    hrows = [row for row in H.rows if any(row)]
    g = den
    for row in hrows:
        for x in row:
            g = gcd(g, x)
    return (den // g, tuple(tuple(x // g for x in row) for row in hrows))


class BoundaryAtlas:
    __slots__ = ("rank", "points", "group", "covers_boundary", "support_hint")

    def __init__(self, rank: int, points: tuple, group: tuple, covers_boundary: bool = True,
                 support_hint: Support | None = None):
        labels = [p.label for p in points]
        if len(set(labels)) != len(labels):
            raise DegenerateInputError("atlas point labels must be distinct")
        self.rank, self.points, self.group = rank, points, group
        self.covers_boundary, self.support_hint = covers_boundary, support_hint


def atlas_from_fan(P: Decomposition) -> BoundaryAtlas:
    """Atlas with one maximal-depth point per full-dimensional member.

    The chart group is the decomposition group extended by the lattice
    translations of the boundary torus along the standard basis.
    """
    d_max = P.support.cone.dim()
    points = []
    idx = 0
    for m in sorted(P.members, key=lambda c: [g.key() for g in c.generators]):
        if m.dim() != d_max or not m.generators:
            continue
        points.append(MaxDepthPoint.from_cone(f"p{idx}", m.closure()))
        idx += 1
    if not points:
        raise DegenerateInputError("decomposition has no full-dimensional member")
    ident = IntMatrix.identity(P.rank)
    group = list(P.group) + [GroupElement(ident, row) for row in ident.rows]
    return BoundaryAtlas(P.rank, tuple(points), tuple(group), True, P.support)


def compatibility_check(atlas: BoundaryAtlas) -> Report:
    """The four descent conditions, each certified on the given data.

    1. the charts cover the boundary (atlas-level claim plus full-dimensional
       strongly convex chart cones);
    2. all local lattices agree, with the covolume index as witness when not;
    3. the group translations generate exactly the common lattice, the linear
       parts preserve it, and no nonidentity generator acts trivially;
    4. the faces of the chart cones form a valid decomposition of the support.

    ``data["lattice"]`` is the common lattice, (denominator, HNF rows), or None.
    """
    conds = []

    ok1 = atlas.covers_boundary
    details1 = "caller asserts boundary coverage" if ok1 else "atlas marked incomplete"
    for p in atlas.points:
        if not is_strongly_convex(p.cone):
            ok1 = False
            details1 = f"chart cone at {p.label} is not strongly convex"
    conds.append(Condition("boundary-coverage", ok1, details1))

    lattices = [(p.label, _lattice_canonical(local_lattice(p))) for p in atlas.points]
    base_label, base = lattices[0]
    witnesses = []
    for label, lat in lattices[1:]:
        if lat != base:
            witnesses.append((base_label, label, _covolume_ratio(base, lat)))
    conds.append(
        Condition(
            "common-lattice",
            not witnesses,
            "all chart lattices agree" if not witnesses else f"index witness {witnesses[0]}",
            witnesses,
        )
    )

    translations = [g.translation for g in atlas.group if any(g.translation)]
    ok3 = True
    details3 = ""
    if translations:
        tlat = _lattice_canonical([Vector(t) for t in translations])
        if tlat != base:
            ok3 = False
            details3 = "translations do not generate the chart lattice"
    else:
        ok3 = False
        details3 = "no translations in the group"
    ident = IntMatrix.identity(atlas.rank)
    for g in atlas.group:
        if g.linear.rows == ident.rows and not any(g.translation):
            ok3 = False
            details3 = "a generator acts trivially"
        if g.linear.rows != ident.rows:
            moved = _lattice_canonical([g.linear.apply(Vector(row)) for row in _basis_rows(base)])
            if moved != base:
                ok3 = False
                details3 = "a linear part does not preserve the lattice"
    conds.append(Condition("translation-lattice", ok3, details3))

    try:
        dec = _face_decomposition(atlas)
        rep = validate_decomposition(dec)
        ok4 = rep.passed
        details4 = "chart cone faces decompose the support" if ok4 else rep.summary()
    except (DegenerateInputError, RequiresRationalConeError) as e:
        ok4, details4 = False, str(e)
    conds.append(Condition("face-decomposition", ok4, details4))

    return Report(conds, data={"lattice": base if all(c.passed for c in conds) else None})


def _basis_rows(canonical) -> list:
    den, rows = canonical
    return [tuple(Fraction(x, den) for x in row) for row in rows]


def _covolume_ratio(lat_a, lat_b) -> Fraction:
    """covol(lat_a) / covol(lat_b) for two full-rank chart lattices."""
    def covol(lat):
        den, rows = lat
        return abs(Fraction(IntMatrix(rows).det(), den ** len(rows)))

    return covol(lat_a) / covol(lat_b)


def _face_decomposition(atlas: BoundaryAtlas) -> Decomposition:
    support = atlas.support_hint
    if support is None:
        gens = []
        for p in atlas.points:
            gens.extend(p.cone.generators)
        support = Support(Cone(atlas.rank, gens), include_origin=True)
    linear_group = tuple(
        g for g in atlas.group if g.linear.rows != IntMatrix.identity(atlas.rank).rows
    )
    pieces = [
        f.relative_interior()
        for p in atlas.points
        for f in p.cone.faces()
        if support.contains_point(f.interior_sample())
    ]
    ball = Decomposition(atlas.rank, (), linear_group, support).linear_ball(2)
    return Decomposition(atlas.rank, tuple(_one_per_orbit(pieces, ball)), linear_group, support)


class Reconstruction:
    __slots__ = ("lattice", "support", "decomposition", "group")

    def __init__(self, lattice: tuple, support: Support, decomposition: Decomposition,
                 group: tuple):
        self.lattice = lattice  # (denominator, HNF rows) of the common local lattice
        self.support, self.decomposition, self.group = support, decomposition, group


def reconstruct(atlas: BoundaryAtlas) -> Reconstruction:
    """Lattice, support and cone decomposition determined by a compatible
    atlas.  Raises on an incompatible one, quoting the failed condition."""
    report = compatibility_check(atlas)
    if not report.passed:
        failed = [c.name for c in report.conditions if not c.passed]
        raise DegenerateInputError(f"atlas is not compatible: {', '.join(failed)}")
    dec = _face_decomposition(atlas)
    return Reconstruction(report.data["lattice"], dec.support, dec, atlas.group)


# -- the model computation showing why compatibility is needed -----------------


def laurent_nabla(section: dict) -> dict:
    """Flat-coordinate covariant derivative on sections written as Laurent
    coefficients: f(t) dt maps to f'(t) dt (x) dt."""
    out = {}
    for k, c in section.items():
        c = Fraction(c)
        if k != 0 and c != 0:
            out[k - 1] = out.get(k - 1, Fraction(0)) + k * c
    return {k: v for k, v in out.items() if v != 0}


def torus_nabla(section: dict) -> dict:
    """Derivative in the boundary chart: sections g(v) dlog v map to
    v g'(v) dlog v (x) dlog v, again coefficientwise."""
    return {k: k * Fraction(c) for k, c in section.items() if k != 0 and c != 0}


def torus_scaling_pullback(section: dict, lam: Fraction) -> dict:
    """Pullback of g(v) dlog v under v -> lam v."""
    lam = Fraction(lam)
    return {k: Fraction(c) * lam**k for k, c in section.items()}


def disc_translation_pullback(order: int, c: Fraction = Fraction(1)) -> dict:
    """Truncated pullback of dlog v under v -> v + c: the geometric expansion
    of v/(v+c) to the given order.  The lead term is exact regardless of the
    truncation order."""
    c = Fraction(c)
    if c == 0:
        raise DegenerateInputError("translation must be nonzero")
    return {k: Fraction((-1) ** (k - 1)) / c**k for k in range(1, order + 1)}


class NondescentWitness:
    """Exact one-variable computation: translations of the disc coordinate
    break flatness while torus scalings (the shadows of lattice
    translations upstairs) preserve it."""

    __slots__ = ("sample_section", "sample_nabla", "pole_order", "lead_coefficient",
                 "scaling_obstruction", "translation_obstruction")

    def __init__(self, sample_section: dict, sample_nabla: dict, pole_order: int,
                 lead_coefficient: Fraction, scaling_obstruction: dict,
                 translation_obstruction: dict):
        self.sample_section, self.sample_nabla = sample_section, sample_nabla
        self.pole_order, self.lead_coefficient = pole_order, lead_coefficient
        self.scaling_obstruction = scaling_obstruction
        self.translation_obstruction = translation_obstruction

    @property
    def descends_under_scalings(self) -> bool:
        return not self.scaling_obstruction

    @property
    def obstructed_under_translations(self) -> bool:
        return bool(self.translation_obstruction)


def nondescent_witness(order: int = 4) -> NondescentWitness:
    """Witness that the chart connection does not descend along coordinate
    translations: nabla(t^-2 dt) = -2 t^-3 dt (x) dt pins the exact calculus,
    the flat frame dlog v survives every scaling pullback, and its pullback
    under v -> v + 1 acquires a nonzero derivative already at order one."""
    if order < 1:
        raise DegenerateInputError(f"the witness order must be at least 1, got {order}")
    sample = {-2: Fraction(1)}
    nab = laurent_nabla(sample)
    flat = {0: Fraction(1)}
    scaled = torus_scaling_pullback(flat, Fraction(2))
    translated = disc_translation_pullback(order)
    witness = NondescentWitness(
        sample_section=sample,
        sample_nabla=nab,
        pole_order=-min(nab),
        lead_coefficient=nab[min(nab)],
        scaling_obstruction=torus_nabla(scaled),
        translation_obstruction=torus_nabla(translated),
    )
    assert witness.pole_order == 3 and witness.lead_coefficient == -2
    return witness
