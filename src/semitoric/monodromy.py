"""Monodromy weight data and quasi-canonical coordinates.

All operators are rational matrices acting on column vectors.  Logarithms of
unipotent operators terminate exactly; weight spaces come from images and
kernels of powers; the coordinate construction pairs an exponential of the
log operators against an adapted integral basis.  Its truncated power-series
arithmetic (products and the inverse of the bottom pairing) is that of
``series``.

The matrix algebra runs in integers: a rational matrix is cleared by the
least common denominator of its entries, which changes neither its image nor
its kernel, and power sums are taken over one common denominator.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial, gcd, lcm, prod
from operator import mul

from .errors import DegenerateInputError, NotUnipotentError
from .lattice import (
    IntMatrix,
    Vector,
    _denominator,
    _int_echelon,
    _int_kernel,
    _int_rank,
    _int_rref,
    _inverse,
    _mat_combination,
    _mat_mul,
    _times,
    complete_to_basis,
    hermite_normal_form,
    integer_kernel,
)
from .report import Condition, Report
from .series import series, series_inverse, series_multiply


def _frac(x) -> Fraction:
    """An int, Fraction or rational ExactScalar as a Fraction; anything else
    (an irrational scalar, a float, a string) raises DegenerateInputError."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if hasattr(x, "as_fraction"):
        return x.as_fraction()
    raise DegenerateInputError(f"monodromy data must be exact rationals, got {x!r}")


def _mat(rows) -> tuple:
    out = tuple(tuple(_frac(x) for x in row) for row in rows)
    d = len(out)
    if any(len(row) != d for row in out):
        raise DegenerateInputError("operators must be square matrices")
    return out


def _nonzero_powers(A, limit: int):
    """[A, A^2, ..., A^n] with A^(n+1) = 0, or None when the first ``limit``
    powers are all nonzero."""
    powers = []
    P = A
    while any(map(any, P)):
        if len(powers) == limit:
            return None
        powers.append(P)
        P = _mat_mul(P, A)
    return powers


def _apply(A, v) -> tuple:
    return tuple(sum(A[i][j] * v[j] for j in range(len(v))) for i in range(len(A)))


# -- logarithm and minimal polynomial -------------------------------------------


def minimal_polynomial(T) -> list:
    """Monic minimal polynomial, coefficients ascending."""
    T = _mat(T)
    power = _mat(IntMatrix.identity(len(T)))
    flat_rows = []
    while True:
        flat_rows.append([x for row in power for x in row])
        # 1, T, ..., T^(k-1) are independent: the first dependency is free in T^k
        cols = tuple(zip(*flat_rows))
        dependency = _int_kernel(_times(cols, _denominator(cols)), len(flat_rows))
        if dependency:
            coeffs = dependency[0].ints
            return [Fraction(c, coeffs[-1]) for c in coeffs]
        power = _mat_mul(power, T)


def _poly_divide_linear_root_one(p) -> list:
    """Divide p by (x - 1); requires p(1) == 0."""
    out = [Fraction(0)] * (len(p) - 1)
    carry = Fraction(0)
    for k in range(len(p) - 1, 0, -1):
        carry = p[k] + carry
        out[k - 1] = carry
    return out


def _poly_str(p) -> str:
    terms = []
    for k in range(len(p) - 1, -1, -1):
        c = p[k]
        if c == 0:
            continue
        if k == 0:
            mono = ""
        elif k == 1:
            mono = "x"
        else:
            mono = f"x^{k}"
        mag = abs(c)
        coeff = "" if (mag == 1 and mono) else str(mag) + ("*" if mono else "")
        piece = coeff + mono
        if not terms:
            terms.append(("-" if c < 0 else "") + piece)
        else:
            terms.append(("- " if c < 0 else "+ ") + piece)
    return " ".join(terms) if terms else "0"


def unipotent_log(T) -> tuple:
    """Exact logarithm of a unipotent operator.

    Raises NotUnipotentError naming the minimal-polynomial factor left after
    removing every (x - 1); verifies exp(log T) == T before returning.
    """
    T = _mat(T)
    d = len(T)
    nil = tuple(tuple(x - (i == j) for j, x in enumerate(row)) for i, row in enumerate(T))
    den = _denominator(nil)
    A = _times(nil, den)
    powers = _nonzero_powers(A, d)
    if powers is None:
        p = minimal_polynomial(T)
        while len(p) > 1 and sum(p) == 0:
            p = _poly_divide_linear_root_one(p)
        raise NotUnipotentError(
            f"operator is not unipotent: minimal polynomial keeps the factor {_poly_str(p)}"
        )
    # log T = sum_k (-1)^(k+1) (A / den)^k / k = S / L
    n = len(powers)
    L = lcm(*range(1, n + 1)) * den**n
    coeffs = [(-1) ** (k + 1) * (L // (k * den**k)) for k in range(1, n + 1)]
    S = _mat_combination(coeffs, powers) if powers else A
    # exp(S / L) = E / M must be T = 1 + A / den
    E, M = _mat_exp(S, L)
    one = IntMatrix.identity(d).rows
    if _mat_combination([den], [E]) != _mat_combination([M * den, M], [one, A]):
        raise DegenerateInputError("logarithm verification failed")
    return tuple(tuple(Fraction(x, L) for x in row) for row in S)


def _mat_exp(S, L) -> tuple:
    """exp(S / L) of a nilpotent integer matrix S as (E, M) with
    exp(S / L) = E / M over the common denominator M = m! L^m, where S^m is
    the last nonzero power."""
    d = len(S)
    powers = _nonzero_powers(S, d)
    if powers is None:
        raise DegenerateInputError("logarithm verification failed")
    m = len(powers)
    M = factorial(m) * L**m
    coeffs = [M // (factorial(j) * L**j) for j in range(m + 1)]
    return _mat_combination(coeffs, [IntMatrix.identity(d).rows] + powers), M


# -- weight spaces -------------------------------------------------------------------


def _weight_dims(powers) -> tuple:
    """dim W0, W1, W2 of a nilpotent N from powers = [N^0, ..., N^n] with
    N^(n+1) = 0: dim(im N^a meet ker N^b) = rk N^a' - rk N^(a'+b) with
    a' = max(a, 0), since N^b maps im N^a' onto im N^(a'+b)."""
    n = len(powers) - 1
    ranks = {0: len(powers[0])}

    def rk(k):
        if k > n:
            return 0
        if k not in ranks:
            ranks[k] = _int_rank(powers[k])
        return ranks[k]

    dims = [rk(n)]
    for b in (1, 2):
        a = max(n - b, 0)
        dims.append(rk(a) - rk(a + b))
    return tuple(dims)


def weight_spaces(N, n: int) -> tuple:
    """Bases of the bottom pieces of the weight structure attached to a
    nilpotent operator of nilpotency degree n: image of N^n, image of
    N^(n-1) meeting ker N, image of N^(n-2) meeting ker N^2.  Powers with
    nonpositive exponent are read as the identity.  Each basis is the
    reduced row echelon one, as Fraction tuples."""
    N = _mat(N)
    d = len(N)
    M = _times(N, _denominator(N))
    powers = [IntMatrix.identity(d).rows]
    for _ in range(max(n, 2)):
        powers.append(_mat_mul(powers[-1], M))
    w0 = _int_rref(tuple(zip(*powers[max(n, 0)])))
    out = [w0]
    for b in (1, 2):
        # im N^a meet ker N^b is the image of ker N^(a+b) under N^a
        a = max(n - b, 0)
        kernel = _int_kernel(powers[a + b], d)
        out.append(_int_rref([_apply(powers[a], k.ints) for k in kernel]))
    return tuple(out)


# -- the maximal unipotency test ----------------------------------------------------


class MonodromySet:
    """Commuting monodromy operators around the branches of a normal
    crossings boundary point."""

    __slots__ = ("operators", "_logs", "_scaled_logs", "_chains")

    def __init__(self, operators: tuple):
        ops = tuple(_mat(T) for T in operators)
        if not ops:
            raise DegenerateInputError("need at least one operator")
        d = len(ops[0])
        if any(len(T) != d for T in ops):
            raise DegenerateInputError("operators must share a dimension")
        self.operators = ops
        self._logs = self._scaled_logs = None
        self._chains = {}

    @property
    def r(self) -> int:
        return len(self.operators)

    @property
    def dim(self) -> int:
        return len(self.operators[0])

    def commuting(self) -> bool:
        ops = [_times(T, _denominator(T)) for T in self.operators]
        return all(
            _mat_mul(ops[i], ops[j]) == _mat_mul(ops[j], ops[i])
            for i in range(len(ops))
            for j in range(i + 1, len(ops))
        )

    def logs(self) -> tuple:
        """The logarithms of the operators, computed once."""
        if self._logs is None:
            self._logs = tuple(unipotent_log(T) for T in self.operators)
        return self._logs

    def scaled_logs(self) -> tuple:
        """(den, (M_1, ..., M_r)) with integer M_j = den * log T_j for the
        least common denominator den of the logs, computed once.  Every
        combination of the M_j has the image and kernel of the same
        combination of the logs."""
        if self._scaled_logs is None:
            logs = self.logs()
            den = lcm(*(_denominator(L) for L in logs))
            self._scaled_logs = (den, tuple(_times(L, den) for L in logs))
        return self._scaled_logs

    def chain(self, a) -> tuple | None:
        """(nilpotency degree n, ``_weight_dims``, N_a^n) for N_a = sum a_j M_j
        and a positive integer a, or None when N_a is not nilpotent.  N_ca =
        c N_a has the ranks and images of N_a, so this is computed once per
        primitive direction a / gcd(a)."""
        g = gcd(*a)
        key = tuple(x // g for x in a)
        if key not in self._chains:
            powers = _nonzero_powers(_mat_combination(key, self.scaled_logs()[1]), self.dim)
            entry = None
            if powers is not None:
                powers.insert(0, IntMatrix.identity(self.dim).rows)
                entry = (len(powers) - 1, _weight_dims(powers), powers[-1])
            self._chains[key] = entry
        return self._chains[key]


def combined_log(logs, a) -> tuple:
    return _mat_combination(a, logs)


def is_maximally_unipotent(
    operators, weight: int | None = None, draws: int = 20, seed: int = 7
) -> Report:
    """Three conditions, checked for a = (1,...,1) and for ``draws`` random
    positive integer combinations N_a of the logs:

    1. the operators commute and every one is unipotent;
    2. the two bottom weight pieces of N_a are lines, with the nilpotency
       degree equal to the expected weight for every draw;
    3. the piece above them has dimension r + 1, so the coordinate count
       matches the number of operators, and the pairing matrix m of the
       adapted basis is invertible.

    ``data`` holds the observed nilpotency degree ``weight``, the weight
    piece ``dims`` and the number of ``draws`` (None, {} and 0 when skipped).
    Draws along one ray give the same weight data, so each direction is
    evaluated once (``MonodromySet.chain``), and draws are made as needed.
    """
    if draws < 0:
        raise DegenerateInputError(f"the number of draws must be nonnegative, got {draws}")
    mset = operators if isinstance(operators, MonodromySet) else MonodromySet(tuple(operators))
    conds = []
    commuting = mset.commuting()
    try:
        logs = mset.logs()
        unip_detail = "all operators unipotent"
        unip_ok = True
    except NotUnipotentError as e:
        logs = None
        unip_ok = False
        unip_detail = str(e)
    conds.append(
        Condition(
            "commuting-unipotent",
            commuting and unip_ok,
            unip_detail if not unip_ok else ("operators commute, " + unip_detail),
        )
    )
    if logs is None or not commuting:
        conds += [
            Condition("bottom-weight", False, "skipped"),
            Condition("coordinate-count", False, "skipped"),
        ]
        return Report(conds, data={"weight": None, "dims": {}, "draws": 0})

    rng = random.Random(seed)
    seen = set()  # (nilpotency degree, weight piece dims) over the draws
    for k in range(draws + 1):
        a = tuple(rng.randint(1, 9) for _ in range(mset.r)) if k else (1,) * mset.r
        seen.add(mset.chain(a)[:2])  # commuting nilpotent logs: N_a is nilpotent
    weights = {n for n, _ in seen}
    dims0, dims1, dims2 = ({dims[i] for _, dims in seen} for i in range(3))

    stable = len(weights) == 1 and len(dims0) == 1 and len(dims1) == 1 and len(dims2) == 1
    n_obs = max(weights)
    weight_ok = weight is None or (weights == {weight})
    d0, d1, d2 = max(dims0), max(dims1), max(dims2)
    conds.append(
        Condition(
            "bottom-weight",
            stable and weight_ok and d0 == 1 and d1 == 1,
            f"nilpotency degree {sorted(weights)}, dim W0 {sorted(dims0)}, "
            f"dim W1 {sorted(dims1)} over {draws + 1} draws",
        )
    )
    lines_ok = stable and d0 == 1 and d1 == 1 and d2 == mset.r + 1
    m_ok = False
    m_detail = "pairing matrix not computed"
    if lines_ok:
        try:
            g0, gs = integral_normalization(mset)
            m = m_matrix(logs, tuple(g0.as_fractions()), [g.as_fractions() for g in gs])
            m_ok = _inverse(m) is not None
            m_detail = (
                "pairing matrix m invertible" if m_ok else "pairing matrix m is singular"
            )
        except DegenerateInputError as e:
            m_detail = str(e)
    conds.append(
        Condition(
            "coordinate-count",
            stable and d2 == mset.r + 1 and m_ok,
            f"dim W2 {sorted(dims2)}, expected {mset.r + 1}; {m_detail}",
        )
    )
    dims = {"W0": d0, "W1": d1, "W2": d2}
    return Report(conds, data={"weight": n_obs, "dims": dims, "draws": draws + 1})


# -- adapted integral basis -----------------------------------------------------------


def integral_normalization(operators) -> tuple:
    """Adapted integral basis (g0, (g1..gr)) for a maximally unipotent set.

    g0 is the primitive integral generator of the bottom weight line, sign
    normalized; the gk complete it to a basis of the saturated lattice of
    vectors that every log operator sends into the g0 line, reduced to
    Hermite form.
    """
    mset = operators if isinstance(operators, MonodromySet) else MonodromySet(tuple(operators))
    d = mset.dim
    den, scaled = mset.scaled_logs()
    chain = mset.chain((1,) * mset.r)
    if chain is None:
        raise DegenerateInputError("the sum of the logs is not nilpotent")
    _, dims, top = chain  # top = N^n, whose image is W0
    if dims[0] != 1:
        raise DegenerateInputError("bottom weight piece is not a line")
    g0 = _primitive_integer(next(col for col in zip(*top) if any(col)))

    # lattice of v with N_j v in the g0 line: with p the first nonzero entry
    # of g0, the functionals g0_p x_i - g0_i x_p (i != p) cut out that line.
    # The rational constraint rows are rows / (g0_p den); they are cleared by
    # the lcm of their denominators.
    p = next(i for i, x in enumerate(g0) if x)
    rows = [
        tuple(g0[p] * M[i][j] - g0[i] * M[p][j] for j in range(d))
        for M in scaled
        for i in range(d)
        if i != p
    ]
    g = gcd(g0[p] * den, *(x for row in rows for x in row))
    int_rows = [tuple(x // g for x in row) for row in rows]
    if any(any(r) for r in int_rows):
        basis_rows = [tuple(v) for v in integer_kernel(IntMatrix(int_rows))]
    else:
        basis_rows = list(IntMatrix.identity(d).rows)
    if len(basis_rows) != mset.r + 1:
        raise DegenerateInputError(
            f"adapted lattice has rank {len(basis_rows)}, expected {mset.r + 1}"
        )
    # rewrite so g0 is the first basis vector, then Hermite-reduce the rest
    coords = _integer_coordinates(basis_rows, g0)
    U = complete_to_basis([coords], len(coords)).rows
    new_basis = list(_mat_mul(U, basis_rows))
    assert new_basis[0] == tuple(g0) or new_basis[0] == tuple(-x for x in g0)
    if new_basis[0] != tuple(g0):
        new_basis[0] = tuple(-x for x in new_basis[0])
    H, _ = hermite_normal_form(IntMatrix([tuple(r) for r in new_basis[1:]]))
    rest = [row for row in H.rows if any(row)]
    return Vector(g0), tuple(Vector(r) for r in rest)


def _primitive_integer(vec) -> tuple:
    """The primitive integer vector on the line of a nonzero integer vector,
    with a positive first nonzero entry."""
    g = gcd(*vec)
    lead = next(x for x in vec if x)
    return tuple(x // g if lead > 0 else -x // g for x in vec)


def _integer_coordinates(basis_rows, target) -> tuple:
    """Integer x with sum_k x_k basis_rows[k] = target, for independent rows."""
    k = len(basis_rows)
    m, pivots, _ = _int_echelon([col + (t,) for col, t in zip(zip(*basis_rows), target)])
    p = m[0][0]
    if pivots != list(range(k)) or any(m[r][k] % p for r in range(k)):
        raise DegenerateInputError("bottom vector is not in the adapted lattice")
    return tuple(m[r][k] // p for r in range(k))


# -- quasi-canonical coordinates ---------------------------------------------------------


def m_matrix(logs, g0, gs) -> list:
    """Pairing matrix m[j][k] with N_j g^k = m[j][k] g0."""
    out = []
    for L in logs:
        row = []
        for g in gs:
            img = _apply(L, tuple(_frac(x) for x in g))
            coeff = _multiple_of(img, g0)
            row.append(coeff)
        out.append(row)
    return out


def _multiple_of(vec, g0) -> Fraction:
    coeff = None
    for x, y in zip(vec, g0):
        y = _frac(y)
        if y == 0:
            if x != 0:
                raise DegenerateInputError("vector is not a multiple of the bottom vector")
            continue
        c = _frac(x) / y
        if coeff is None:
            coeff = c
        elif coeff != c:
            raise DegenerateInputError("vector is not a multiple of the bottom vector")
    return coeff if coeff is not None else Fraction(0)


class QuasiCanonicalCoordinates:
    """Coordinates f_j = z_j + c_j + rho_j.

    ``fs`` holds the full polynomials keyed by exponent tuples; ``exact`` is
    set when no truncation was needed; ``degenerate`` is set when some
    linear part is not exactly z_j, with the offending coefficients kept for
    inspection."""

    __slots__ = ("fs", "constants", "remainders", "m", "exact", "degenerate", "linear_parts",
                 "order")

    def __init__(self, fs: tuple, constants: tuple, remainders: tuple, m: tuple, exact: bool,
                 degenerate: bool, linear_parts: tuple, order: int):
        self.fs, self.constants, self.remainders, self.m = fs, constants, remainders, m
        self.exact, self.degenerate = exact, degenerate
        self.linear_parts, self.order = linear_parts, order

    def q_descriptions(self) -> tuple:
        out = []
        for j, c in enumerate(self.constants):
            parts = []
            for k, a in enumerate(self.linear_parts[j]):
                if a == 0:
                    continue
                var = f"z_{k+1}"
                if a == 1:
                    parts.append(f"+ {var}" if parts else var)
                elif a == -1:
                    parts.append(f"- {var}" if parts else f"-{var}")
                else:
                    parts.append(f"+ {a}*{var}" if parts and a > 0 else f"{a}*{var}")
            linear = " ".join(parts) if parts else "0"
            shift = "" if c == 0 else f" + {c}" if c > 0 else f" - {-c}"
            tail = " + ..." if any(self.remainders[j]) else ""
            out.append(f"q_{j+1} = exp(2*pi*i*({linear}{shift}{tail}))")
        return tuple(out)


def quasi_canonical_coordinates(
    operators, Q, omega0, basis=None, order: int = 6
) -> QuasiCanonicalCoordinates:
    """Coordinates from the pairings of an adapted basis against
    omega(z) = exp(sum z_j N_j) omega0.

    The caller supplies the pairing matrix Q; the adapted basis defaults to
    the integral normalization.  f_j is the pairing with
    h_j = sum_k (m^-1)_kj g_k divided by the pairing with g0, as series
    complete up to ``order``.  The order is at least 1: below that no
    linear term survives, so every input would read as degenerate.
    """
    if order < 1:
        raise DegenerateInputError(f"the series order must be at least 1, got {order}")
    mset = operators if isinstance(operators, MonodromySet) else MonodromySet(tuple(operators))
    logs = mset.logs()
    r = mset.r
    if basis is None:
        basis = integral_normalization(mset)
    g0, gs = basis
    g0 = tuple(_frac(x) for x in g0)
    gs = [tuple(_frac(x) for x in g) for g in gs]
    if len(gs) != r:
        raise DegenerateInputError("adapted basis must have one vector per operator")
    m = m_matrix(logs, g0, gs)
    m_inv = _inverse(m)
    if m_inv is None:
        raise DegenerateInputError("pairing matrix m is singular")

    # omega(z) up to total degree ``order``, as exponent -> vector
    omega0 = tuple(_frac(x) for x in omega0)
    zero = tuple([0] * r)
    level = {zero: omega0}
    omega = {zero: omega0}
    truncated = False
    for _deg in range(1, order + 1):
        nxt = {}
        for expo, vec in level.items():
            for j in range(r):
                e2 = tuple(x + (1 if t == j else 0) for t, x in enumerate(expo))
                if e2 in nxt or e2 in omega:
                    continue
                img = _apply(logs[j], vec)
                if any(img):
                    nxt[e2] = img
        if not nxt:
            break
        for e2, vec in nxt.items():
            omega[e2] = vec
        level = nxt
    else:
        truncated = any(any(_apply(L, vec)) for vec in level.values() for L in logs)

    # <g | omega(z)> as a series, with the 1/beta! weights; the row g^T Q is
    # formed once per g, as wide as the widest vector of omega
    width = max(map(len, omega.values()))

    def pairing_series(g):
        row = [sum(_frac(x) * _frac(Q[i][j]) for i, x in enumerate(g)) for j in range(width)]
        terms = [(e, sum(map(mul, row, v)) / prod(map(factorial, e))) for e, v in omega.items()]
        return series(r, terms, order)

    bottom = pairing_series(g0)
    if not bottom.coefficient(zero):
        raise DegenerateInputError("pairing against the bottom vector vanishes at the origin")
    inverse = series_inverse(bottom)
    # f_j = <h_j | omega> / <g0 | omega> with h_j = sum_k (m^-1)_kj g_k
    hs = _mat_mul(tuple(zip(*m_inv)), gs)
    fs = tuple(series_multiply(pairing_series(h), inverse).as_dict() for h in hs)
    units = tuple(tuple(int(t == i) for t in range(r)) for i in range(r))
    linear_parts = tuple(tuple(f.get(u, Fraction(0)) for u in units) for f in fs)
    return QuasiCanonicalCoordinates(
        fs,
        tuple(f.get(zero, Fraction(0)) for f in fs),
        tuple({e: c for e, c in f.items() if sum(e) >= 2} for f in fs),
        tuple(tuple(row) for row in m),
        not truncated and len(bottom.terms) == 1,
        linear_parts != units,
        linear_parts,
        order,
    )
