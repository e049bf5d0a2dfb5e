"""Truncated instanton series and framing changes.

A series is a finite list of exponent/coefficient pairs together with a
truncation bound on the l1 norm of the stored exponents.  Reframing by a
unimodular matrix keeps every transformed term, so round trips are exact on
terms; the metadata records how far the transformed series is still
guaranteed complete.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DegenerateInputError
from .lattice import Cone, IntMatrix, Vector
from .report import Condition, Report


@dataclass(frozen=True)
class Framing:
    """Basis of the exponent lattice whose nonnegative span is the
    effectivity cone, optionally constrained to lie in a support cone."""

    basis: IntMatrix
    support: Cone | None = None
    _coordinate_map: IntMatrix = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.basis.nrows != self.basis.ncols:
            raise DegenerateInputError("framing basis must be square")
        if not self.basis.is_unimodular():
            raise DegenerateInputError("framing basis must be unimodular")
        object.__setattr__(self, "_coordinate_map", self.basis.inverse_unimodular().transpose())
        if self.support is not None:
            closure = self.support.closure()
            for row in self.basis.rows:
                if not closure.contains(Vector(row)):
                    raise DegenerateInputError("framing basis leaves the support cone")

    @property
    def rank(self) -> int:
        return self.basis.nrows

    def cone(self) -> Cone:
        return Cone(self.rank, [Vector(r) for r in self.basis.rows], relint=True)

    def coordinates(self, expo) -> tuple:
        """Integer coordinates of an exponent in this framing."""
        return self._coordinate_map.apply_int(expo)


def standard_framing(rank: int) -> Framing:
    return Framing(IntMatrix.identity(rank))


def _l1(expo) -> int:
    return sum(abs(int(e)) for e in expo)


@dataclass(frozen=True)
class FormalSeries:
    """Finitely many terms plus a truncation bound.

    Every stored exponent has l1 norm at most ``truncation``; nothing is
    known beyond it.  ``complete_order`` marks the largest l1 norm up to
    which the term list is guaranteed complete (it can sink below the
    truncation after a reframing)."""

    rank: int
    terms: tuple
    truncation: int
    complete_order: int

    def __post_init__(self):
        clean = {}
        for expo, coeff in self.terms:
            expo = tuple(int(e) for e in expo)
            if len(expo) != self.rank:
                raise DegenerateInputError("exponent length does not match the rank")
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            if expo in clean:
                raise DegenerateInputError(f"duplicate exponent {expo}")
            if _l1(expo) > self.truncation:
                raise DegenerateInputError(
                    f"term {expo} lies beyond the truncation {self.truncation}"
                )
            clean[expo] = coeff
        object.__setattr__(self, "terms", tuple(sorted(clean.items())))
        if not (0 <= self.complete_order <= self.truncation):
            raise DegenerateInputError("complete order must lie within the truncation")

    def coefficient(self, expo) -> Fraction:
        expo = tuple(int(e) for e in expo)
        for e, c in self.terms:
            if e == expo:
                return c
        return Fraction(0)

    def as_dict(self) -> dict:
        return dict(self.terms)

    def support_exponents(self) -> tuple:
        return tuple(e for e, _ in self.terms)


def series(rank: int, terms, truncation: int, complete_order: int | None = None) -> FormalSeries:
    if complete_order is None:
        complete_order = truncation
    if isinstance(terms, dict):
        terms = terms.items()
    return FormalSeries(rank, tuple(terms), truncation, complete_order)


def effectivity_check(s: FormalSeries, framing: Framing | None = None) -> Report:
    """Whether every exponent lies in the nonnegative span of the framing
    basis.  One condition, "effective"; its witness is the first offending
    exponent."""
    framing = framing or standard_framing(s.rank)
    if framing.rank != s.rank:
        raise DegenerateInputError("framing basis has the wrong rank")
    for expo, _ in s.terms:
        coords = framing.coordinates(expo)
        if any(c < 0 for c in coords):
            return Report([Condition("effective", False, "", [expo])])
    return Report([Condition("effective", True)])


def reframe(s: FormalSeries, M: IntMatrix) -> FormalSeries:
    """Apply the framing change exponent -> M^T exponent to every term.

    All transformed terms are kept, so reframing back recovers the original
    term list exactly.  The guaranteed-complete order divides by the maximal
    column l1 norm of the inverse transpose: unknown terms beyond the old
    bound land strictly above it."""
    if not M.is_unimodular():
        raise DegenerateInputError("framing changes must be unimodular")
    if M.nrows != s.rank:
        raise DegenerateInputError("framing change has the wrong rank")
    Mt = M.transpose()
    new_terms = []
    for expo, coeff in s.terms:
        new_terms.append((Mt.apply_int(expo), coeff))
    inv_t = M.inverse_unimodular().transpose()
    rho = max(
        sum(abs(inv_t[i][j]) for i in range(s.rank)) for j in range(s.rank)
    )
    complete = s.complete_order // rho
    truncation = max([_l1(e) for e, _ in new_terms] + [complete])
    return FormalSeries(s.rank, tuple(new_terms), truncation, complete)


def reframing_preserves_effectivity(M: IntMatrix, framing: Framing | None = None):
    """Whether every effective series stays effective under the reframing.

    True exactly when the matrix of the framing change, written in framing
    coordinates, is entrywise nonnegative; otherwise the witness of the one
    condition, "preserves-effectivity", is a basis exponent whose image
    leaves the effectivity cone."""
    if not M.is_unimodular():
        raise DegenerateInputError("framing changes must be unimodular")
    rank = M.nrows
    framing = framing or standard_framing(rank)
    if framing.rank != rank:
        raise DegenerateInputError("framing change has the wrong rank")
    B = framing.basis
    Mt = M.transpose()
    for i in range(rank):
        image = Mt.apply_int(B.rows[i])
        coords = framing.coordinates(image)
        if any(c < 0 for c in coords):
            return Report([Condition("preserves-effectivity", False, "", [tuple(B.rows[i])])])
    return Report([Condition("preserves-effectivity", True)])


# -- arithmetic ------------------------------------------------------------------


def series_add(a: FormalSeries, b: FormalSeries) -> FormalSeries:
    if a.rank != b.rank:
        raise DegenerateInputError("series ranks differ")
    t = min(a.truncation, b.truncation)
    c = min(a.complete_order, b.complete_order)
    out = {}
    for expo, coeff in list(a.terms) + list(b.terms):
        if _l1(expo) > t:
            continue
        out[expo] = out.get(expo, Fraction(0)) + coeff
    return FormalSeries(a.rank, tuple(out.items()), t, c)


def series_multiply(
    a: FormalSeries, b: FormalSeries, framing: Framing | None = None
) -> FormalSeries:
    """Cauchy product of two effective series.

    Effectivity (in the given framing) makes l1 norms additive on exponents,
    so the product is complete up to the smaller complete order."""
    if a.rank != b.rank:
        raise DegenerateInputError("series ranks differ")
    framing = framing or standard_framing(a.rank)
    for s in (a, b):
        rep = effectivity_check(s, framing)
        if not rep:
            raise DegenerateInputError(
                f"product needs effective series; exponent {rep.witness} is not"
            )
    c = min(a.complete_order, b.complete_order)
    out = {}
    for ea, ca in a.terms:
        for eb, cb in b.terms:
            expo = tuple(x + y for x, y in zip(ea, eb))
            if _l1(expo) > c:
                continue
            out[expo] = out.get(expo, Fraction(0)) + ca * cb
    return FormalSeries(a.rank, tuple(out.items()), c, c)


def series_truncate(s: FormalSeries, order: int) -> FormalSeries:
    if order < 0:
        raise DegenerateInputError("truncation order must be nonnegative")
    terms = tuple((e, c) for e, c in s.terms if _l1(e) <= order)
    return FormalSeries(s.rank, terms, min(order, s.truncation), min(order, s.complete_order))
