"""Real quadratic fields: units, ideal bases, cusp cones.

Elements of Q(sqrt(D)) are ExactScalar values, whose integer form
(num + irr*sqrt(D)) / den gives units, ring bases and module coordinates
directly.  The two real embeddings are always ordered as (identity,
conjugate); everything downstream relies on that order staying fixed.  The
fundamental unit comes from the continued fraction of the maximal order's
generator, in O(period) integer steps.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DegenerateInputError, MixedDiscriminantError, ResourceBoundError
from .lattice import Cone, ExactScalar, IntMatrix, Vector, is_squarefree

QuadNum = ExactScalar

PELL_BOUND = 10**8


def check_discriminant(D: int) -> int:
    if not isinstance(D, int) or D < 2 or not is_squarefree(D):
        raise DegenerateInputError(f"discriminant must be a squarefree integer >= 2, got {D!r}")
    return D


def check_bound(name: str, bound) -> None:
    """A bound is None (no bound) or a nonnegative int; a negative one is malformed."""
    if bound is not None and bound < 0:
        raise DegenerateInputError(f"{name} must be nonnegative, got {bound}")


def sqrtD(D: int) -> QuadNum:
    return ExactScalar(0, 1, check_discriminant(D))


def ring_basis(D: int) -> tuple:
    """Z-basis (1, w) of the maximal order: w = (1+sqrt(D))/2 if D = 1 mod 4,
    else w = sqrt(D)."""
    check_discriminant(D)
    if D % 4 == 1:
        w = ExactScalar._of(1, 1, 2, D)
    else:
        w = sqrtD(D)
    return ExactScalar(1), w


def fundamental_unit(D: int, bound: int = PELL_BOUND) -> QuadNum:
    """Smallest unit > 1 of the maximal order, from the continued fraction
    of w = sqrt(D) or (1+sqrt(D))/2 (Lenstra, "Solving the Pell equation",
    Notices AMS 2002).

    The complete quotients are exact integer states (P + sqrt(D))/Q.  When
    they first return to the state after w, the period has length l, and
    the unit is p - q*w' for the convergent p/q = p_{l-1}/q_{l-1}.  Its
    sqrt(D) coefficient is q, or q/2 when D = 1 mod 4; ResourceBoundError is
    raised once a convergent's q exceeds ``bound``, and DegenerateInputError
    when ``bound`` is negative.
    """
    check_discriminant(D)
    check_bound("pell bound", bound)
    s = math.isqrt(D)
    P, Q = (1, 2) if D % 4 == 1 else (0, 1)
    a = (P + s) // Q
    p0, q0, p, q = 1, 0, a, 1
    P = a * Q - P
    Q = (D - P * P) // Q
    first = (P, Q)
    while True:
        if q > bound:
            raise ResourceBoundError(
                f"no unit found for D={D} with sqrt coefficient <= {bound}"
            )
        a = (P + s) // Q
        P = a * Q - P
        Q = (D - P * P) // Q
        if (P, Q) == first:
            break
        p0, q0, p, q = p, q, a * p + p0, a * q + q0
    if D % 4 == 1:
        # w' = 1 - w
        return ExactScalar._of(2 * p - q, q, 2, D)
    return ExactScalar._of(p, q, 1, D)


def fundamental_totally_positive_unit(D: int, bound: int = PELL_BOUND) -> QuadNum:
    """Smallest totally positive unit > 1: the fundamental unit if its norm
    is +1, else its square."""
    eps = fundamental_unit(D, bound)
    if eps.norm() == 1:
        return eps
    return eps * eps


class QuadIdeal:
    """Fractional-ideal data: an ordered Z-basis (alpha, beta) of a rank-2
    module in Q(sqrt(D)).  ``basis`` is (alpha, beta) as a lattice vector,
    whose integer form (u + v*sqrt(D)) / d gives the cusp cone, the unit
    action and the chain."""

    __slots__ = ("alpha", "beta", "D", "basis")

    def __init__(self, alpha: QuadNum, beta: QuadNum, D: int):
        self.alpha, self.beta, self.D = alpha, beta, D
        check_discriminant(self.D)
        for x in (self.alpha, self.beta):
            if x.D not in (None, self.D):
                raise DegenerateInputError("basis element from the wrong field")
        self.basis = Vector([alpha, beta])
        # alpha*beta' - alpha'*beta = 2 (u1 v0 - u0 v1) sqrt(D) / d^2
        (u0, u1), (v0, v1) = self.basis.num, self.basis.irr or (0, 0)
        if u1 * v0 == u0 * v1:
            raise DegenerateInputError(
                "basis is degenerate: alpha*beta' - alpha'*beta = 0"
            )

    def coordinates(self, x: QuadNum) -> tuple:
        """(c1, c2) in Q^2 with x = c1*alpha + c2*beta, by Cramer's rule on
        the integer rational and sqrt(D) parts of ``basis``, whose
        determinant is nonzero for a nondegenerate basis."""
        x = ExactScalar.lift(x)
        if x.D not in (None, self.D):
            raise MixedDiscriminantError(f"{x} does not lie in Q(sqrt({self.D}))")
        (u0, u1), (v0, v1) = self.basis.num, self.basis.irr
        det = (u0 * v1 - u1 * v0) * x.den
        c1 = Fraction((x.num * v1 - u1 * x.irr) * self.basis.den, det)
        return c1, Fraction((u0 * x.irr - x.num * v0) * self.basis.den, det)

    def element(self, c1, c2) -> QuadNum:
        return ExactScalar.lift(c1) * self.alpha + ExactScalar.lift(c2) * self.beta

    @staticmethod
    def maximal_order(D: int) -> "QuadIdeal":
        one, w = ring_basis(D)
        return QuadIdeal(one, w, D)


def cusp_cone(ideal: QuadIdeal) -> Cone:
    """Open cone C = {(y1, y2) : alpha y1 + beta y2 > 0, alpha' y1 + beta' y2 > 0}
    in the tube coordinate plane, returned as a relative interior.  Its
    edges are s*(beta', -alpha') and -s*(beta, -alpha), with s the sign of
    alpha*beta' - alpha'*beta, that is of u1 v0 - u0 v1."""
    (u0, u1), (v0, v1), d = ideal.basis.num, ideal.basis.irr, ideal.basis.den
    s = 1 if u1 * v0 > u0 * v1 else -1
    g1 = Vector._of((s * u1, -s * u0), (-s * v1, s * v0), d, ideal.D)
    g2 = Vector._of((-s * u1, s * u0), (-s * v1, s * v0), d, ideal.D)
    return Cone(2, [g1, g2], relint=True)


class CuspData:
    """A cusp: module basis plus a totally positive unit stabilizing it."""

    __slots__ = ("ideal", "unit", "_action")

    def __init__(self, ideal: QuadIdeal, unit: QuadNum):
        self.ideal = ideal
        self.unit = eps = unit
        if eps.norm() != 1:
            raise DegenerateInputError(f"unit must have norm +1, got norm {eps.norm()}")
        if not eps.is_totally_positive():
            raise DegenerateInputError("unit must be totally positive")
        if eps == ExactScalar(1):
            raise DegenerateInputError("unit must differ from 1")
        if eps.D != ideal.D:
            raise MixedDiscriminantError(f"cannot mix sqrt({eps.D}) with sqrt({ideal.D})")
        # the action is adj(B) M B / (det B * e): on (1, sqrt(D)), B holds the
        # integer basis and M is e times the unit (p + q sqrt(D)) / e
        (u0, u1), (v0, v1) = ideal.basis.num, ideal.basis.irr
        M = IntMatrix([[eps.num, eps.irr * ideal.D], [eps.irr, eps.num]])
        N = IntMatrix([[v1, -u1], [-v0, u0]]) * M * IntMatrix([[u0, u1], [v0, v1]])
        n = (u0 * v1 - u1 * v0) * eps.den
        if any(x % n for row in N.rows for x in row):
            raise DegenerateInputError("unit does not stabilize the module: non-integer action")
        self._action = IntMatrix([[x // n for x in row] for row in N.rows])

    def unit_action(self) -> IntMatrix:
        """Matrix of multiplication by the unit on (alpha, beta) coordinates:
        column j holds the coordinates of unit * basis_j."""
        return self._action

    @staticmethod
    def standard(D: int, bound: int = PELL_BOUND) -> "CuspData":
        """Maximal order with its fundamental totally positive unit."""
        return CuspData(
            QuadIdeal.maximal_order(D),
            fundamental_totally_positive_unit(D, bound),
        )
