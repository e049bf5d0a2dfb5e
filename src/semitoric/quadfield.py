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
    module in Q(sqrt(D))."""

    __slots__ = ("alpha", "beta", "D")

    def __init__(self, alpha: QuadNum, beta: QuadNum, D: int):
        self.alpha, self.beta, self.D = alpha, beta, D
        check_discriminant(self.D)
        for x in (self.alpha, self.beta):
            if x.D not in (None, self.D):
                raise DegenerateInputError("basis element from the wrong field")
        if not self.twist():
            raise DegenerateInputError(
                "basis is degenerate: alpha*beta' - alpha'*beta = 0"
            )

    def twist(self) -> QuadNum:
        return self.alpha * self.beta.conjugate() - self.alpha.conjugate() * self.beta

    def coordinates(self, x: QuadNum) -> tuple:
        """(c1, c2) in Q^2 with x = c1*alpha + c2*beta, by Cramer's rule on
        the integer rational and sqrt(D) parts.  The determinant is nonzero
        because the twist is -2*det*sqrt(D)."""
        x = ExactScalar.lift(x)
        if x.D not in (None, self.D):
            raise MixedDiscriminantError(f"{x} does not lie in Q(sqrt({self.D}))")
        a, b = self.alpha, self.beta
        det = (a.num * b.irr - b.num * a.irr) * x.den
        c1 = Fraction((x.num * b.irr - b.num * x.irr) * a.den, det)
        return c1, Fraction((a.num * x.irr - x.num * a.irr) * b.den, det)

    def element(self, c1, c2) -> QuadNum:
        return ExactScalar.lift(c1) * self.alpha + ExactScalar.lift(c2) * self.beta

    @staticmethod
    def maximal_order(D: int) -> "QuadIdeal":
        one, w = ring_basis(D)
        return QuadIdeal(one, w, D)


def cusp_cone(ideal: QuadIdeal) -> Cone:
    """Open cone C = {(y1, y2) : alpha y1 + beta y2 > 0, alpha' y1 + beta' y2 > 0}
    in the tube coordinate plane, returned as a relative interior."""
    a, b = ideal.alpha, ideal.beta
    n1 = Vector([a, b])
    n2 = Vector([a.conjugate(), b.conjugate()])
    # edge directions: orthogonal to one normal, positive on the other
    g1 = Vector([b.conjugate(), -a.conjugate()])
    if n1.dot(g1).sign() < 0:
        g1 = -g1
    g2 = Vector([b, -a])
    if n2.dot(g2).sign() < 0:
        g2 = -g2
    cone = Cone(2, [g1, g2], relint=True)
    if cone.dim() != 2:
        raise DegenerateInputError("cusp cone is degenerate")
    return cone


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
        # stabilization: eps * basis must stay in the Z-span of the basis; the
        # action is kept for unit_action()
        cols = []
        for x in (self.ideal.alpha, self.ideal.beta):
            c1, c2 = self.ideal.coordinates(eps * x)
            for c in (c1, c2):
                if c.denominator != 1:
                    raise DegenerateInputError(
                        "unit does not stabilize the module: non-integer action"
                    )
            cols.append((c1.numerator, c2.numerator))
        E = IntMatrix([[cols[0][0], cols[1][0]], [cols[0][1], cols[1][1]]])
        if E.det() != 1:
            raise DegenerateInputError("unit action must have determinant 1")
        self._action = E

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
