"""Truncated instanton series and framing changes.

A series is a finite list of exponent/coefficient pairs together with a
truncation bound on the l1 norm of the stored exponents.  Reframing by a
unimodular matrix keeps every transformed term, so round trips are exact on
terms; the metadata records how far the transformed series is still
guaranteed complete.

The public constructor checks every term.  ``reframe``, ``series_multiply``
and ``series_inverse`` build their results with the unchecked
``FormalSeries._of`` instead, because their terms hold by construction: a
unimodular map is a bijection of Z^n, so reframed exponents stay distinct;
coefficients are carried over unchanged or, in products and inverses, kept
only when nonzero; the inverse collects each exponent in the one layer of
its degree, so its exponents are distinct too; and each result's
truncation bounds the l1 norm of its exponents and its complete order,
which is nonnegative.  ``formats.load_series`` uses ``_of`` only for a
term list that passed the constructor's checks a column at a time, and the
constructor itself for any other.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from operator import add, mul

from .errors import DegenerateInputError
from .lattice import Cone, IntMatrix, Vector
from .report import Condition, Report


class Framing:
    """Basis of the exponent lattice whose nonnegative span is the
    effectivity cone, optionally constrained to lie in a support cone."""

    __slots__ = ("basis", "support", "_coordinate_map")

    def __init__(self, basis: IntMatrix, support: Cone | None = None):
        if basis.nrows != basis.ncols:
            raise DegenerateInputError("framing basis must be square")
        if not basis.is_unimodular():
            raise DegenerateInputError("framing basis must be unimodular")
        self.basis = basis
        self.support = support
        self._coordinate_map = basis.inverse_unimodular().transpose()
        if support is not None:
            closure = support.closure()
            for row in basis.rows:
                if not closure.contains(Vector(row)):
                    raise DegenerateInputError("framing basis leaves the support cone")

    @property
    def rank(self) -> int:
        return self.basis.nrows

    def coordinates(self, expo) -> tuple:
        """Integer coordinates of an exponent in this framing."""
        return self._coordinate_map.apply_int(expo)


def _l1(expo) -> int:
    return sum(map(abs, expo))


def _apply_to_all(A: IntMatrix, expos) -> list:
    """The int tuples A e for the int tuples e in ``expos``, a column at a
    time: column i of the result is the sum over j of A[i][j] times column j
    of the input, added and multiplied by C-level ``map``."""
    columns = list(zip(*expos))
    out = []
    for row in A.rows:
        acc = repeat(0, len(expos))
        for a, col in zip(row, columns):
            if a:
                acc = map(add, acc, col if a == 1 else map(mul, repeat(a), col))
        out.append(acc)
    return list(zip(*out))


class FormalSeries:
    """Finitely many terms plus a truncation bound.

    Every stored exponent has l1 norm at most ``truncation``; nothing is
    known beyond it.  ``complete_order`` marks the largest l1 norm up to
    which the term list is guaranteed complete (it can sink below the
    truncation after a reframing)."""

    __slots__ = ("rank", "terms", "truncation", "complete_order")

    def __init__(self, rank: int, terms: tuple, truncation: int, complete_order: int):
        if rank < 1:
            raise DegenerateInputError("rank must be positive")
        clean = {}
        for expo, coeff in terms:
            expo = tuple(expo)
            if any(type(e) is not int for e in expo):
                raise DegenerateInputError(f"exponent {expo} has a non-integer entry")
            if len(expo) != rank:
                raise DegenerateInputError("exponent length does not match the rank")
            if type(coeff) is not Fraction:
                coeff = Fraction(coeff)
            if not coeff:
                continue
            if expo in clean:
                raise DegenerateInputError(f"duplicate exponent {expo}")
            if _l1(expo) > truncation:
                raise DegenerateInputError(
                    f"term {expo} lies beyond the truncation {truncation}"
                )
            clean[expo] = coeff
        if not (0 <= complete_order <= truncation):
            raise DegenerateInputError("complete order must lie within the truncation")
        self._put(rank, clean.items(), truncation, complete_order)

    @classmethod
    def _of(cls, rank: int, terms, truncation: int, complete_order: int) -> "FormalSeries":
        """The series with these terms, sorted but not checked: the caller
        guarantees distinct int-tuple exponents of length ``rank`` and l1 norm
        at most ``truncation``, nonzero Fraction coefficients, and
        0 <= complete_order <= truncation."""
        return object.__new__(cls)._put(rank, terms, truncation, complete_order)

    def _put(self, rank: int, terms, truncation: int, complete_order: int) -> "FormalSeries":
        put = object.__setattr__
        put(self, "rank", rank)
        put(self, "terms", tuple(sorted(terms)))
        put(self, "truncation", truncation)
        put(self, "complete_order", complete_order)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("FormalSeries is immutable")

    def __eq__(self, other):
        if type(other) is not FormalSeries:
            return NotImplemented
        return (self.rank, self.terms, self.truncation, self.complete_order) == (
            other.rank, other.terms, other.truncation, other.complete_order)

    def __hash__(self):
        return hash((self.rank, self.terms, self.truncation, self.complete_order))

    def coefficient(self, expo) -> Fraction:
        expo = tuple(expo)
        for e, c in self.terms:
            if e == expo:
                return c
        return Fraction(0)

    def as_dict(self) -> dict:
        return dict(self.terms)


def series(rank: int, terms, truncation: int, complete_order: int | None = None) -> FormalSeries:
    if complete_order is None:
        complete_order = truncation
    if isinstance(terms, dict):
        terms = terms.items()
    return FormalSeries(rank, tuple(terms), truncation, complete_order)


def effectivity_check(s: FormalSeries, framing: Framing | None = None) -> Report:
    """Whether every exponent lies in the nonnegative span of the framing
    basis.  One condition, "effective"; its witness is the first offending
    exponent.  Without a framing the coordinates are the exponents
    themselves, so the standard framing costs no matrix work."""
    if framing is not None and framing.rank != s.rank:
        raise DegenerateInputError("framing basis has the wrong rank")
    expos = [e for e, _ in s.terms]
    coords = _apply_to_all(framing._coordinate_map, expos) if framing else expos
    negative = list(map((0).__gt__, map(min, coords)))
    if True in negative:
        return Report([Condition("effective", False, "", [expos[negative.index(True)]])])
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
    expos = _apply_to_all(M.transpose(), [e for e, _ in s.terms])
    inv_t = M.inverse_unimodular().transpose()
    rho = max(
        sum(abs(inv_t[i][j]) for i in range(s.rank)) for j in range(s.rank)
    )
    complete = s.complete_order // rho
    truncation = max(complete, max(map(_l1, expos), default=0))
    return FormalSeries._of(s.rank, zip(expos, [c for _, c in s.terms]), truncation, complete)


def reframing_preserves_effectivity(M: IntMatrix, framing: Framing | None = None):
    """Whether every effective series stays effective under the reframing.

    True exactly when the matrix of the framing change, written in framing
    coordinates, is entrywise nonnegative; otherwise the witness of the one
    condition, "preserves-effectivity", is a basis exponent whose image
    leaves the effectivity cone."""
    if not M.is_unimodular():
        raise DegenerateInputError("framing changes must be unimodular")
    rank = M.nrows
    if framing is not None and framing.rank != rank:
        raise DegenerateInputError("framing change has the wrong rank")
    basis = framing.basis if framing else IntMatrix.identity(rank)
    Mt = M.transpose()
    for row in basis.rows:
        image = Mt.apply_int(row)
        coords = framing.coordinates(image) if framing else image
        if min(coords, default=0) < 0:
            return Report([Condition("preserves-effectivity", False, "", [tuple(row)])])
    return Report([Condition("preserves-effectivity", True)])


# -- arithmetic ------------------------------------------------------------------


def series_multiply(a: FormalSeries, b: FormalSeries) -> FormalSeries:
    """Cauchy product of two effective series.

    Effectivity makes l1 norms additive on exponents, so the product is
    complete up to the smaller complete order."""
    if a.rank != b.rank:
        raise DegenerateInputError("series ranks differ")
    for s in (a, b):
        rep = effectivity_check(s)
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
    return FormalSeries._of(a.rank, [(e, v) for e, v in out.items() if v], c, c)


def series_inverse(s: FormalSeries) -> FormalSeries:
    """Multiplicative inverse of an effective series with a nonzero constant
    term c0, complete up to the complete order of the series.

    The coefficients come degree by degree from s * inverse = 1: the one at
    a nonzero exponent e is -(1/c0) times the sum of s_a * inverse_(e - a)
    over the nonzero exponents a of s."""
    rep = effectivity_check(s)
    if not rep:
        raise DegenerateInputError(
            f"inverse needs an effective series; exponent {rep.witness} is not"
        )
    zero = (0,) * s.rank
    c0 = s.coefficient(zero)
    if not c0:
        raise DegenerateInputError("inverse needs a nonzero constant term")
    c = s.complete_order
    rest = [(e, coeff, sum(e)) for e, coeff in s.terms if 0 < sum(e) <= c]
    layers = [{zero: 1 / c0}]
    for d in range(1, c + 1):
        acc = {}
        for ea, ca, da in rest:
            if da <= d:
                for eb, cb in layers[d - da].items():
                    expo = tuple(x + y for x, y in zip(ea, eb))
                    acc[expo] = acc.get(expo, Fraction(0)) + ca * cb
        layers.append({e: -v / c0 for e, v in acc.items() if v})
    return FormalSeries._of(s.rank, [t for layer in layers for t in layer.items()], c, c)
