"""Exact scalars, integer matrices and rational polyhedral cones.

Scalars live in Q or in a fixed real quadratic field Q(sqrt(D)); all
arithmetic and sign decisions are exact.  Every vector keeps its coordinates
in integers, as (num + irr*sqrt(D)) / den, so dot products, signs,
containment and matrix images use plain integer arithmetic, and the sign of
p + q*sqrt(D) is decided by one comparison of squares (``_quad_sign``).  One
elimination loop, fraction-free Bareiss elimination (``_int_echelon``),
computes every rank, kernel, determinant and inverse; one Hermite form
does the unimodular work: integer kernels, basis completion and the test
that rows extend to a Z-basis.  Quadratic data, such as the irrational rays
of a cusp's support cone, reaches that loop through realification: writing
x = y + z*sqrt(D), each vector (a + b*sqrt(D)) / den gives the two integer
rows of the rational and the sqrt(D) part of den <v, x>, so ranks over
Q(sqrt(D)) are half the integer ranks and kernels are read back from the
integer kernel.  Scalars share that integer form: an ExactScalar is
(num + irr*sqrt(D)) / den, stored like a one-entry vector, so scalar
arithmetic, signs, floors and equality are integer arithmetic as well.
Fractions appear only at the boundary: the ExactScalar constructor, the
coefficients ``a`` and ``b``, norms, traces and ``as_fraction``.

Cones are given by finitely many generators and carry a closed /
relative-interior interpretation flag.  Facet enumeration is done by brute
force over generator subsets, which is adequate for ambient rank up to 4
(the supported bound).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import combinations
from operator import add, mul

from .errors import (
    DegenerateInputError,
    MixedDiscriminantError,
    RequiresRationalConeError,
    UnsupportedRankError,
)

MAX_CONE_RANK = 4


def is_squarefree(n: int) -> bool:
    if n < 1:
        return False
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def _quad_sign(p: int, q: int, D) -> int:
    """Sign of p + q*sqrt(D) for integers p, q and squarefree D >= 2 (any D
    when q = 0).  When p and q have opposite signs the larger of p^2 and
    q^2 D decides; the two are never equal, as sqrt(D) is irrational."""
    sp, sq = (p > 0) - (p < 0), (q > 0) - (q < 0)
    if sp * sq >= 0:
        return sp or sq
    return sp if p * p > q * q * D else sq


def _floor_quotient(p1: int, q1: int, p2: int, q2: int, D: int) -> int:
    """floor((p1 + q1 sqrt(D)) / (p2 + q2 sqrt(D))) for a nonzero divisor,
    with D squarefree >= 2, or D = 0 when q1 = q2 = 0."""
    s = p1 * p2 - q1 * q2 * D
    t = q1 * p2 - p1 * q2
    n = p2 * p2 - q2 * q2 * D
    if n < 0:
        s, t, n = -s, -t, -n
    r = math.isqrt(t * t * D)
    # floor((s + y) / n) = (s + floor(y)) // n, and t sqrt(D) is irrational unless t = 0
    return (s + (r if t >= 0 else -r - 1)) // n


class ExactScalar:
    """Element (num + irr*sqrt(D)) / den of Q or of Q(sqrt(D)), in integers.

    The form is that of a one-entry Vector: den > 0, gcd(num, irr, den) = 1,
    and D is None exactly when irr = 0.  Arithmetic, signs, floors and
    equality stay in integers; the coefficients ``a`` and ``b`` of
    a + b*sqrt(D) are Fractions built when asked for.
    """

    __slots__ = ("num", "irr", "den", "D")

    def __init__(self, a=0, b=0, D=None):
        for x in (a, b):
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"cannot use a {type(x).__name__} as an exact scalar")
        if b == 0:
            D = None
        elif D is None:
            raise MixedDiscriminantError("irrational part without a discriminant")
        elif not isinstance(D, int) or D < 2 or not is_squarefree(D):
            raise DegenerateInputError(f"discriminant must be squarefree >= 2, got {D!r}")
        den = math.lcm(a.denominator, b.denominator)
        self._put(a.numerator * (den // a.denominator), b.numerator * (den // b.denominator), den, D)

    def _put(self, num: int, irr: int, den: int, D) -> "ExactScalar":
        put = object.__setattr__
        put(self, "num", num)
        put(self, "irr", irr)
        put(self, "den", den)
        put(self, "D", D)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("ExactScalar is immutable")

    @staticmethod
    def _of(num: int, irr: int, den: int, D) -> "ExactScalar":
        """(num + irr*sqrt(D)) / den in canonical form, for den != 0 and D,
        when irr != 0, an already checked discriminant."""
        if den < 0:
            num, irr, den = -num, -irr, -den
        if den != 1:
            g = math.gcd(num, irr, den)
            num, irr, den = num // g, irr // g, den // g
        return object.__new__(ExactScalar)._put(num, irr, den, D if irr else None)

    # -- coercion -----------------------------------------------------------

    @staticmethod
    def lift(x) -> "ExactScalar":
        """An ExactScalar, int or Fraction as an ExactScalar; no other type
        is coerced, so floats and strings raise TypeError."""
        if isinstance(x, ExactScalar):
            return x
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"cannot use a {type(x).__name__} as an exact scalar")
        return ExactScalar._of(x.numerator, 0, x.denominator, None)

    def _join(self, other) -> "tuple[ExactScalar, ExactScalar]":
        other = ExactScalar.lift(other)
        if self.D is not None and other.D is not None and self.D != other.D:
            raise MixedDiscriminantError(
                f"cannot mix sqrt({self.D}) with sqrt({other.D})"
            )
        return self, other

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, _LIFTABLE):
            return NotImplemented
        s, o = self._join(other)
        return ExactScalar._of(
            s.num * o.den + o.num * s.den, s.irr * o.den + o.irr * s.den, s.den * o.den, s.D or o.D
        )

    __radd__ = __add__

    def __neg__(self):
        return ExactScalar._of(-self.num, -self.irr, self.den, self.D)

    def __sub__(self, other):
        if not isinstance(other, _LIFTABLE):
            return NotImplemented
        return self + (-ExactScalar.lift(other))

    def __rsub__(self, other):
        if not isinstance(other, _LIFTABLE):
            return NotImplemented
        return ExactScalar.lift(other) - self

    def __mul__(self, other):
        if not isinstance(other, _LIFTABLE):
            return NotImplemented
        s, o = self._join(other)
        D = s.D or o.D
        num = s.num * o.num + (s.irr * o.irr * D if D else 0)
        return ExactScalar._of(num, s.num * o.irr + s.irr * o.num, s.den * o.den, D)

    __rmul__ = __mul__

    def inverse(self) -> "ExactScalar":
        if not self:
            raise ZeroDivisionError("inverse of zero")
        # den / (num + irr sqrt(D)) = den (num - irr sqrt(D)) / (num^2 - irr^2 D)
        n = self.num * self.num - self.irr * self.irr * (self.D or 0)
        return ExactScalar._of(self.den * self.num, -self.den * self.irr, n, self.D)

    def __truediv__(self, other):
        if not isinstance(other, _LIFTABLE):
            return NotImplemented
        s, o = self._join(other)
        return s * o.inverse()

    def __rtruediv__(self, other):
        if not isinstance(other, _LIFTABLE):
            return NotImplemented
        return ExactScalar.lift(other) / self

    # -- field-theoretic data -----------------------------------------------

    def conjugate(self) -> "ExactScalar":
        return ExactScalar._of(self.num, -self.irr, self.den, self.D)

    def norm(self) -> Fraction:
        """a^2 - b^2 D, the product of the two embeddings."""
        return Fraction(self.num * self.num - self.irr * self.irr * (self.D or 0), self.den * self.den)

    def trace(self) -> Fraction:
        return Fraction(2 * self.num, self.den)

    def is_totally_positive(self) -> bool:
        return self.sign() > 0 and self.conjugate().sign() > 0

    # -- order --------------------------------------------------------------

    def sign(self) -> int:
        return _quad_sign(self.num, self.irr, self.D)

    def __bool__(self):
        return bool(self.num or self.irr)

    def __eq__(self, other):
        try:
            s, o = self._join(other)
        except (TypeError, ValueError):
            return NotImplemented
        return (s.num, s.irr, s.den) == (o.num, o.irr, o.den)

    def __hash__(self):
        return hash((self.a, self.b, self.D) if self.irr else self.a)

    def _cmp(self, other) -> int:
        s, o = self._join(other)
        return _quad_sign(s.num * o.den - o.num * s.den, s.irr * o.den - o.irr * s.den, s.D or o.D)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- rational access ----------------------------------------------------

    @property
    def a(self) -> Fraction:
        return Fraction(self.num, self.den)

    @property
    def b(self) -> Fraction:
        return Fraction(self.irr, self.den)

    @property
    def is_rational(self) -> bool:
        return not self.irr

    def as_fraction(self) -> Fraction:
        if self.irr:
            raise DegenerateInputError(f"{self} is irrational")
        return self.a

    def floor(self) -> int:
        return _floor_quotient(self.num, self.irr, self.den, 0, self.D or 0)

    def __repr__(self):
        a, b = self.a, self.b
        if b == 0:
            return str(a)
        tail = ("" if abs(b) == 1 else f"{abs(b)}*") + f"sqrt({self.D})"
        return f"{a or ''}{'-' if b < 0 else '+' if a else ''}{tail}"


# The operand types the ExactScalar operators accept; others get NotImplemented.
_LIFTABLE = (ExactScalar, int, Fraction)


class Vector:
    """Immutable vector over Q or Q(sqrt(D)), stored in integers.

    Entry i is (num[i] + irr[i]*sqrt(D)) / den with den > 0 and den coprime
    to the numerators taken together; ``irr`` and ``D`` are None for
    rational vectors, and ``ints`` is ``num`` for integral ones, else None.
    Dot products, signs and matrix images stay in integers; the ExactScalar
    ``entries`` are built when asked for.
    """

    __slots__ = ("num", "irr", "den", "D", "ints")

    def __new__(cls, entries):
        entries = tuple(entries)
        if all(type(x) is int for x in entries):
            return cls._of(entries)
        scalars = [ExactScalar.lift(x) for x in entries]
        fields = {x.D for x in scalars} - {None}
        if len(fields) > 1:
            raise MixedDiscriminantError(f"cannot mix sqrt({min(fields)}) with sqrt({max(fields)})")
        den = math.lcm(*(x.den for x in scalars))
        num = tuple(x.num * (den // x.den) for x in scalars)
        irr = tuple(x.irr * (den // x.den) for x in scalars)
        return cls._of(num, irr, den, fields.pop() if fields else None)

    @classmethod
    def _of(cls, num: tuple, irr=None, den: int = 1, D=None) -> "Vector":
        """The vector (num + irr*sqrt(D)) / den for den > 0, in canonical form."""
        if irr is not None and not any(irr):
            irr = D = None
        if den != 1:
            g = math.gcd(den, *num, *(irr or ()))
            num, den = tuple(x // g for x in num), den // g
            irr = irr and tuple(x // g for x in irr)
        v = object.__new__(cls)
        put = object.__setattr__
        put(v, "num", num)
        put(v, "irr", irr)
        put(v, "den", den)
        put(v, "D", D)
        put(v, "ints", num if den == 1 and irr is None else None)
        return v

    def __setattr__(self, name, value):
        raise AttributeError("Vector is immutable")

    @property
    def entries(self) -> tuple:
        irr = self.irr or (0,) * len(self.num)
        return tuple(ExactScalar._of(a, b, self.den, self.D) for a, b in zip(self.num, irr))

    @property
    def rank(self) -> int:
        return len(self)

    def __len__(self):
        return len(self.num)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __add__(self, other):
        if self.ints is not None and other.ints is not None:
            return Vector._of(tuple(map(add, self.ints, other.ints)))
        return Vector(x + y for x, y in zip(self.entries, other.entries))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        irr = self.irr and tuple(-x for x in self.irr)
        return Vector._of(tuple(-x for x in self.num), irr, self.den, self.D)

    def scale(self, c) -> "Vector":
        c = ExactScalar.lift(c)
        if c.D and self.D and c.D != self.D:
            raise MixedDiscriminantError(f"cannot mix sqrt({c.D}) with sqrt({self.D})")
        D = c.D or self.D
        a, b = self.num, self.irr or (0,) * len(self.num)
        num = tuple(c.num * x + c.irr * y * (D or 0) for x, y in zip(a, b))
        return Vector._of(num, tuple(c.num * y + c.irr * x for x, y in zip(a, b)), c.den * self.den, D)

    @property
    def is_zero(self) -> bool:
        return self.irr is None and not any(self.num)

    @property
    def is_rational(self) -> bool:
        return self.irr is None

    def as_fractions(self) -> tuple:
        return tuple(e.as_fraction() for e in self.entries)

    def as_integers(self) -> tuple:
        if self.ints is not None:
            return self.ints
        raise DegenerateInputError(f"{self} is not integral")

    def primitive(self) -> "Vector":
        """Canonical representative of the positive ray through this vector.

        Rational vectors scale to primitive integer vectors; irrational ones
        scale so the first nonzero entry is +-1.  Only positive scalings are
        used, so the ray direction is preserved.
        """
        if self.irr is None:
            g = math.gcd(*self.num)
            return self if g <= 1 and self.den == 1 else Vector._of(tuple(x // g for x in self.num))
        for e in self.entries:
            if e:
                return self.scale(abs(e).inverse())

    def key(self):
        """Entrywise (a, b, D) of a + b*sqrt(D), D None where b = 0, exactly."""
        if self.ints is not None:
            return tuple((x, 0, None) for x in self.ints)
        irr = self.irr or (0,) * len(self.num)
        rational = ExactScalar._of
        return tuple(
            (rational(a, 0, self.den, None), rational(b, 0, self.den, None), self.D if b else None)
            for a, b in zip(self.num, irr)
        )

    def __eq__(self, other):
        if not isinstance(other, Vector):
            return NotImplemented
        return (self.num, self.irr, self.den, self.D) == (other.num, other.irr, other.den, other.D)

    def __hash__(self):
        return hash((self.num, self.irr, self.den))

    def __repr__(self):
        return "(" + ", ".join(repr(e) for e in self.entries) + ")"


def _dot_parts(u: Vector, v: Vector) -> tuple:
    """(p, q, D) with <u, v> = (p + q*sqrt(D)) / (u.den * v.den); D is None
    when q = 0."""
    p = sum(map(mul, u.num, v.num))
    if u.irr is None and v.irr is None:
        return p, 0, None
    if u.irr is None or v.irr is None:
        a, b = (u.num, v.irr) if u.irr is None else (u.irr, v.num)
        return p, sum(map(mul, a, b)), u.D or v.D
    if u.D != v.D:
        raise MixedDiscriminantError(f"cannot mix sqrt({u.D}) with sqrt({v.D})")
    q = sum(map(mul, u.num, v.irr)) + sum(map(mul, u.irr, v.num))
    return p + u.D * sum(map(mul, u.irr, v.irr)), q, u.D


def _dot_sign(u: Vector, v: Vector) -> int:
    """Sign of <u, v>, in integers."""
    a, b = u.ints, v.ints
    if a is None or b is None:
        return _quad_sign(*_dot_parts(u, v))
    s = sum(map(mul, a, b))
    return (s > 0) - (s < 0)


def as_vector(v, rank=None) -> Vector:
    vec = v if isinstance(v, Vector) else Vector(v)
    if rank is not None and len(vec) != rank:
        raise DegenerateInputError(f"expected rank {rank}, got vector of rank {vec.rank}")
    return vec


class IntMatrix:
    """Immutable integer matrix with arbitrary-precision entries."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        mat = tuple(tuple(int(x) for x in row) for row in rows)
        if mat and any(len(r) != len(mat[0]) for r in mat):
            raise DegenerateInputError("ragged matrix")
        object.__setattr__(self, "rows", mat)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @staticmethod
    @cache
    def identity(n: int) -> "IntMatrix":
        return IntMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, i):
        return self.rows[i]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(list(zip(*self.rows))) if self.rows else IntMatrix([])

    def __mul__(self, other):
        if isinstance(other, IntMatrix):
            return IntMatrix(_mat_mul(self.rows, other.rows))
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def apply(self, v) -> Vector:
        v = v if isinstance(v, Vector) else Vector(v)
        return Vector._of(self.apply_int(v.num), v.irr and self.apply_int(v.irr), v.den, v.D)

    def apply_int(self, v) -> tuple:
        return tuple(sum(map(mul, row, v)) for row in self.rows)

    def det(self) -> int:
        if self.nrows != self.ncols:
            raise DegenerateInputError("determinant of a non-square matrix")
        if not self.rows:
            return 1
        m, pivots, sign = _int_echelon(self.rows)
        return sign * m[-1][-1] if len(pivots) == self.nrows else 0

    def is_unimodular(self) -> bool:
        return self.nrows == self.ncols and self.det() in (1, -1)

    def inverse_unimodular(self) -> "IntMatrix":
        """The inverse of a lattice automorphism, integral since det = +-1."""
        d = self.det()
        if d not in (1, -1):
            raise DegenerateInputError(f"matrix has determinant {d}, not a lattice automorphism")
        return IntMatrix(_inverse(self.rows))

    def __repr__(self):
        return "IntMatrix(" + repr([list(r) for r in self.rows]) + ")"


# -- fraction-free integer linear algebra ---------------------------------------


def _mat_mul(A, B) -> tuple:
    """Product of two matrices given as rows of ints or Fractions."""
    cols = tuple(zip(*B))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in A)


def _mat_combination(coeffs, mats) -> tuple:
    """sum c_j M_j over the coefficients and same-shape matrices."""
    return tuple(
        tuple(sum(map(mul, coeffs, entries)) for entries in zip(*rows)) for rows in zip(*mats)
    )


def _denominator(rows) -> int:
    """Least common denominator of the entries of a rational matrix."""
    return math.lcm(*(x.denominator for row in rows for x in row))


def _times(rows, den: int) -> tuple:
    """The integer matrix den * rows; den must be a common denominator."""
    return tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in rows)


def _int_echelon(rows):
    """Fraction-free Gauss-Jordan (Bareiss) elimination of an integer matrix.

    Returns (m, pivots, sign).  Row r < len(pivots) of m has the common
    nonzero pivot value m[r][pivots[r]] and zeros in the other pivot
    columns; the remaining rows are zero.  For a nonsingular square input the
    pivot value times ``sign`` (the sign of the row swaps) is the
    determinant.  Every division is exact because each entry is a minor of
    the input.
    """
    m = [list(r) for r in rows]
    pivots = []
    sign = 1
    if not m:
        return m, pivots, sign
    prev = 1
    for c in range(len(m[0])):
        r = len(pivots)
        i = next((i for i in range(r, len(m)) if m[i][c]), None)
        if i is None:
            continue
        if i != r:
            m[r], m[i] = m[i], m[r]
            sign = -sign
        top = m[r]
        p = top[c]
        for i, row in enumerate(m):
            if i != r:
                f = row[c]
                m[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
        pivots.append(c)
        if len(pivots) == len(m):
            break
    return m, pivots, sign


def _inverse(rows):
    """Inverse of a square rational matrix A as Fraction rows, or None when A
    is singular.  With den a common denominator, elimination of [den A | 1]
    ends in [p | p (den A)^-1], p the common pivot value."""
    n = len(rows)
    den = _denominator(rows)
    m, pivots, _ = _int_echelon(
        [row + tuple(int(i == j) for j in range(n)) for i, row in enumerate(_times(rows, den))]
    )
    if pivots != list(range(n)):
        return None
    return [[Fraction(den * x, m[0][0]) for x in row[n:]] for row in m]


def _int_rank(rows) -> int:
    return len(_int_echelon(rows)[1])


def _int_rref(rows) -> list:
    """Reduced row echelon basis of the span of integer rows, as Fraction
    tuples: the Gauss-Jordan rows divided by their common pivot value."""
    m, pivots, _ = _int_echelon(rows)
    return [tuple(Fraction(x, m[0][pivots[0]]) for x in m[r]) for r in range(len(pivots))]


def _int_kernel(rows, ncols: int) -> list:
    """Basis of {x : <row, x> = 0 for the given integer rows}, one vector per
    free column: the rational reduced-echelon kernel basis, each scaled to a
    primitive integer vector."""
    m, pivots, _ = _int_echelon(rows)
    d = m[0][pivots[0]] if pivots else 1
    s = 1 if d > 0 else -1
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        x = [0] * ncols
        x[f] = s * d
        for r, p in enumerate(pivots):
            x[p] = -s * m[r][f]
        basis.append(Vector._of(tuple(x)).primitive())
    return basis


def _realify(vectors) -> tuple:
    """(D, integer rows) for vectors over Q(sqrt(D)); D = 1 for rational ones.

    In the coordinates (y1, z1, ..., yn, zn) of x = y + z*sqrt(D), each
    v = (a + b*sqrt(D)) / den gives the rational part a.y + D b.z and the
    sqrt(D) part b.y + a.z of den <v, x>.  The rows have twice the rank of
    the vectors.
    """
    fields = {v.D for v in vectors} - {None}
    if len(fields) > 1:
        raise MixedDiscriminantError(f"cannot mix sqrt({min(fields)}) with sqrt({max(fields)})")
    D = fields.pop() if fields else 1
    rows = []
    for v in vectors:
        a, b = v.num, v.irr or (0,) * len(v.num)
        rows.append(tuple(c for pair in zip(a, (D * x for x in b)) for c in pair))
        rows.append(tuple(c for pair in zip(b, a) for c in pair))
    return D, rows


def _realified_kernel(vectors, ncols: int) -> list:
    """``_kernel`` through the realified rows.  Their free columns pair up
    as (y_f, z_f); the kernel vector of y_f, read back as y + z*sqrt(D), is
    the reduced-echelon one over Q(sqrt(D)), that of z_f sqrt(D) times it."""
    D, rows = _realify(vectors)
    return [
        Vector._of(k.ints[::2], k.ints[1::2], 1, D).primitive()
        for k in _int_kernel(rows, 2 * ncols)[::2]
    ]


def _kernel(vectors, ncols: int) -> list:
    """Basis of {x : <v, x> = 0 for the given vectors} over Q or Q(sqrt(D)),
    one primitive vector per free column of the reduced echelon form."""
    rows = [v.ints for v in vectors]
    if None in rows:
        return _realified_kernel(vectors, ncols)
    return _int_kernel(rows, ncols)


def _vector_rank(vectors) -> int:
    rows = [v.ints for v in vectors]
    if None in rows:
        return _int_rank(_realify(vectors)[1]) // 2
    return _int_rank(rows)


# -- integer normal forms -----------------------------------------------------


def hermite_normal_form(M: IntMatrix):
    """Row-style Hermite normal form.

    Returns (H, U) with H = U * M, U unimodular, pivots positive, and entries
    above each pivot reduced into [0, pivot).
    """
    if M.nrows == 0 or M.ncols == 0 or all(all(x == 0 for x in r) for r in M.rows):
        raise DegenerateInputError("Hermite form of a zero or empty matrix")
    h = [list(r) for r in M.rows]
    u = [[1 if i == j else 0 for j in range(M.nrows)] for i in range(M.nrows)]
    row = 0
    for col in range(M.ncols):
        # clear below (row) in this column by gcd row operations
        while True:
            idx = [i for i in range(row, len(h)) if h[i][col] != 0]
            if not idx:
                break
            i0 = min(idx, key=lambda i: abs(h[i][col]))
            if i0 != row:
                h[row], h[i0] = h[i0], h[row]
                u[row], u[i0] = u[i0], u[row]
            done = True
            for i in range(row + 1, len(h)):
                if h[i][col] != 0:
                    q = h[i][col] // h[row][col]
                    h[i] = [a - q * b for a, b in zip(h[i], h[row])]
                    u[i] = [a - q * b for a, b in zip(u[i], u[row])]
                    if h[i][col] != 0:
                        done = False
            if done:
                break
        if row < len(h) and h[row][col] != 0:
            if h[row][col] < 0:
                h[row] = [-a for a in h[row]]
                u[row] = [-a for a in u[row]]
            for i in range(row):
                q = h[i][col] // h[row][col]
                if q:
                    h[i] = [a - q * b for a, b in zip(h[i], h[row])]
                    u[i] = [a - q * b for a, b in zip(u[i], u[row])]
            row += 1
            if row == len(h):
                break
    return IntMatrix(h), IntMatrix(u)


def integer_kernel(M: IntMatrix) -> list:
    """Basis of {x in Z^ncols : M x = 0} (saturated by construction)."""
    h, u = hermite_normal_form(M.transpose())
    out = []
    for i, row in enumerate(h.rows):
        if all(x == 0 for x in row):
            out.append(tuple(u[i]))
    return out


def _basis_transform(rows, n: int):
    """Unimodular U with U * G^T = [I_k; 0] for the k x n integer matrix G
    of ``rows``, or None when there is none.  U exists exactly when the rows
    extend to a Z-basis of Z^n, for [I_k; 0] is then the row Hermite form of
    G^T; G is the top k rows of the unimodular (U^-1)^T."""
    k = len(rows)
    if k > n or any(len(r) != n for r in rows):
        return None
    if not k:
        return IntMatrix.identity(n)
    if not any(map(any, rows)):
        return None
    H, U = hermite_normal_form(IntMatrix(zip(*rows)))
    if H.rows != tuple(tuple(int(i == j) for j in range(k)) for i in range(n)):
        return None
    return U


def complete_to_basis(vectors, rank: int) -> IntMatrix:
    """Unimodular matrix whose first rows are the given saturated integer
    rows: (U^-1)^T for the U of ``_basis_transform``."""
    rows = [
        v.as_integers() if isinstance(v, Vector) else tuple(int(x) for x in v)
        for v in vectors
    ]
    U = _basis_transform(rows, rank)
    if U is None:
        raise DegenerateInputError("rows are not part of a lattice basis")
    return U.inverse_unimodular().transpose()


# -- cones --------------------------------------------------------------------


class Cone:
    """Finitely generated convex cone, interpreted closed or as its relative
    interior according to the ``relint`` flag.

    Generators are reduced to a canonical minimal set on construction
    (primitive representatives of the extremal rays, sorted), so equality and
    hashing are structural for strongly convex cones.
    """

    __slots__ = ("rank", "generators", "relint", "_dual", "_dim", "_closure", "_faces")

    def __init__(self, rank, generators, relint=False, _reduce=True):
        rank = int(rank)
        if rank > MAX_CONE_RANK:
            raise UnsupportedRankError(
                f"cones support rank <= {MAX_CONE_RANK}, got {rank}"
            )
        gens = []
        seen = set()
        for g in generators:
            v = as_vector(g, rank).primitive()
            if v.is_zero:
                continue
            if v.key() in seen:
                continue
            seen.add(v.key())
            gens.append(v)
        if _reduce:
            gens = _extremal_subset(gens, rank)
        gens.sort(key=Vector.key)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "generators", tuple(gens))
        object.__setattr__(self, "relint", bool(relint))
        for slot in ("_dual", "_dim", "_closure", "_faces"):
            object.__setattr__(self, slot, None)

    def __setattr__(self, name, value):
        raise AttributeError("Cone is immutable")

    # -- basic structure ----------------------------------------------------

    def dim(self) -> int:
        if self._dim is None:
            object.__setattr__(self, "_dim", _vector_rank(self.generators))
        return self._dim

    @property
    def is_rational(self) -> bool:
        return all(g.is_rational for g in self.generators)

    def dual_description(self):
        """(facet normals, span equations): the closure is the set of x with
        <n, x> >= 0 for every normal and <e, x> = 0 for every equation;
        computed once and kept with the closure."""
        closed = self.closure()
        if closed._dual is None:
            object.__setattr__(closed, "_dual", _dual_description(self.generators, self.rank))
        return closed._dual

    def closure(self) -> "Cone":
        """The closed cone; built once per relative interior, so what is
        cached on it (dual description, faces) is kept with this cone."""
        if not self.relint:
            return self
        if self._closure is None:
            closed = Cone(self.rank, self.generators, relint=False, _reduce=False)
            object.__setattr__(self, "_closure", closed)
        return self._closure

    def relative_interior(self) -> "Cone":
        if self.relint:
            return self
        inner = Cone(self.rank, self.generators, relint=True, _reduce=False)
        object.__setattr__(inner, "_closure", self)
        return inner

    def faces(self, known=None) -> list:
        """``faces`` of the closure, computed once and kept with the closure;
        ``known`` is passed on to it."""
        closed = self.closure()
        if closed._faces is None:
            object.__setattr__(closed, "_faces", faces(closed, known))
        return closed._faces

    def contains(self, v, relint=None) -> bool:
        v = as_vector(v, self.rank)
        strict = self.relint if relint is None else relint
        if strict and not self.generators:
            return v.is_zero
        normals, equations = self.dual_description()
        return _satisfies(v, normals, equations, strict)

    def interior_sample(self) -> Vector:
        """A point of the relative interior (the sum of the generators)."""
        if not self.generators:
            return Vector([0] * self.rank)
        acc = self.generators[0]
        for g in self.generators[1:]:
            acc = acc + g
        return acc

    def __eq__(self, other):
        if not isinstance(other, Cone):
            return NotImplemented
        return (
            self.rank == other.rank
            and self.relint == other.relint
            and self.generators == other.generators
        )

    def same_rays(self, other) -> bool:
        return self.rank == other.rank and self.generators == other.generators

    def __hash__(self):
        return hash((self.rank, self.relint, self.generators))

    def __repr__(self):
        tag = "relint " if self.relint else ""
        return f"Cone({tag}rank={self.rank}, gens={list(self.generators)})"


def _extremal_subset(gens, rank):
    """Drop generators lying in the cone of the others."""
    if len(gens) <= 1:
        return list(gens)
    if len(gens) <= rank and _vector_rank(gens) == len(gens):
        return list(gens)  # simplicial: every generator is extremal
    out = list(gens)
    changed = True
    while changed:
        changed = False
        for i in range(len(out)):
            rest = out[:i] + out[i + 1 :]
            if _cone_membership(out[i], rest, rank):
                out.pop(i)
                changed = True
                break
    return out


def _cone_membership(v, gens, rank) -> bool:
    normals, equations = _dual_description(tuple(gens), rank)
    return _satisfies(v, normals, equations, False)


def _satisfies(v, normals, equations, strict: bool) -> bool:
    """Whether <e, v> = 0 for every equation and <n, v> >= 0 (> 0 when
    strict) for every normal."""
    x = v.ints
    for e in equations:
        a = e.ints
        if sum(map(mul, a, x)) if a is not None and x is not None else _dot_sign(e, v):
            return False
    for n in normals:
        a = n.ints
        s = sum(map(mul, a, x)) if a is not None and x is not None else _dot_sign(n, v)
        if s < 0 or (strict and s == 0):
            return False
    return True


def _dual_description(gens, rank):
    """Facet normals and span equations for cone(gens) in ambient ``rank``,
    each primitive, normals sorted.  Facets are enumerated by brute force:
    each normal is the kernel line of d - 1 generators plus the span
    equations, oriented nonnegative on ``gens``.  Integral generators take
    the integer kernel directly; quadratic data takes it through
    realification."""
    if rank > MAX_CONE_RANK:
        raise UnsupportedRankError(
            f"facet enumeration supports rank <= {MAX_CONE_RANK}, got {rank}"
        )
    gens = [v for v in (as_vector(g, rank) for g in gens) if not v.is_zero]
    equations = _kernel(gens, rank)
    d = rank - len(equations)
    if d == 0:
        return (), tuple(equations)
    normals = set()
    for subset in combinations(gens, d - 1):
        kern = _kernel(list(subset) + equations, rank)
        if len(kern) != 1:
            continue
        n = kern[0]
        signs = {_dot_sign(n, g) for g in gens}
        if -1 in signs:
            if 1 in signs:
                continue
            n = -n
        normals.add(n)
    return tuple(sorted(normals, key=Vector.key)), tuple(equations)


def cone_from_inequalities(normals, equations, rank: int) -> Cone:
    """Closed cone {x : <n,x> >= 0, <e,x> = 0} via double duality."""
    dual_gens = [as_vector(n, rank) for n in normals]
    for e in equations:
        e = as_vector(e, rank)
        dual_gens.append(e)
        dual_gens.append(-e)
    dn, de = _dual_description(tuple(dual_gens), rank)
    gens = list(dn)
    for e in de:
        gens.append(e)
        gens.append(-e)
    return Cone(rank, gens)


def cone_intersection(a: Cone, b: Cone) -> Cone:
    """Intersection of the closures of two cones in the same ambient rank."""
    if a.rank != b.rank:
        raise DegenerateInputError("cones live in different ambient ranks")
    na, ea = a.dual_description()
    nb, eb = b.dual_description()
    return cone_from_inequalities(list(na) + list(nb), list(ea) + list(eb), a.rank)


def is_strongly_convex(c: Cone) -> bool:
    """True iff the closure contains no line (equivalently, no nontrivial
    nonnegative combination of generators vanishes)."""
    normals, equations = c.dual_description()
    return _vector_rank(normals + equations) == c.rank


def faces(c: Cone, known=None) -> list:
    """All faces of the closure (including {0} and the cone itself), as closed
    cones, sorted by dimension then generators.  Requires strong convexity.

    ``known`` maps generator tuples to closed cones already built: a face
    found there is that cone, with the dual description it may already
    hold, and a face built here is entered in it."""
    if not is_strongly_convex(c):
        raise DegenerateInputError("face enumeration requires a strongly convex cone")
    known = {} if known is None else known
    seen = {}
    stack = [c.closure()]
    while stack:
        cur = stack.pop()
        if cur.generators in seen:
            continue
        seen[cur.generators] = cur
        normals, _ = cur.dual_description()
        for n in normals:
            sub = tuple(g for g in cur.generators if _dot_sign(n, g) == 0)
            if sub not in known:
                known[sub] = Cone(c.rank, sub, _reduce=False)
            stack.append(known[sub])
    out = list(seen.values())
    out.sort(key=lambda f: (f.dim(), [g.key() for g in f.generators]))
    return out


def is_unimodular_part_of_basis(c: Cone) -> bool:
    """True iff the minimal generators, primitive integer vectors, extend to
    a Z-basis: the row Hermite form of their transposed matrix is the
    identity over zeros (``_basis_transform``)."""
    if not c.generators:
        return True
    if not c.is_rational:
        raise RequiresRationalConeError("unimodularity needs rational generators")
    # rational generators are primitive
    return _basis_transform([g.ints for g in c.generators], c.rank) is not None
