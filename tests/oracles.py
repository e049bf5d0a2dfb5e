"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from scratch with plain Fractions
and integers, without calling into the package, so the tests compare two
separate derivations of the same quantities.
"""

import json
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd, isqrt, lcm


# -- minus continued fractions --------------------------------------------------


def minus_cf_cycle(D: int) -> list:
    """Purely periodic minus continued fraction attached to the maximal order.

    Expands w = b0 - 1/(b1 - 1/(...)) with b_i = ceil(w_i) for the reduced
    generator w of the order: n + sqrt(D) with n = floor(sqrt(D)) + 1 when
    D is 2 or 3 mod 4, and n + (1+sqrt(D))/2 with the smallest n making the
    conjugate land in (0,1) when D is 1 mod 4.  States are exact integer
    pairs (p, q) for w = (p + sqrt(D))/q; the cycle ends when the first
    state recurs.
    """
    s = isqrt(D)
    if s * s == D:
        raise ValueError("D must not be a square")
    if D % 4 == 1:
        # smallest n with the conjugate n + (1 - sqrt(D))/2 in (0, 1)
        n = (s - 1) // 2 + 1
        p, q = 2 * n + 1, 2
    else:
        p, q = s + 1, 1
    assert (p * p - D) % q == 0
    start = (p, q)
    cycle = []
    while True:
        b = (p + s) // q + 1
        t = b * q - p
        p, q = t, (t * t - D) // q
        cycle.append(b)
        if (p, q) == start:
            return cycle


def minus_cf_unit(D: int):
    """Totally positive fundamental unit as the product of the complete
    quotients w_k = (p_k + sqrt(D))/q_k over one period of the minus
    continued fraction above.  Returns (a, b) with the unit a + b*sqrt(D)."""
    s = isqrt(D)
    if D % 4 == 1:
        n = (s - 1) // 2 + 1
        p, q = 2 * n + 1, 2
    else:
        p, q = s + 1, 1
    start = (p, q)
    a, b = Fraction(1), Fraction(0)
    while True:
        # (a + b sqrt(D)) * (p + sqrt(D)) / q
        a, b = (a * p + b * D) / q, (a + b * p) / q
        c = (p + s) // q + 1
        t = c * q - p
        p, q = t, (t * t - D) // q
        if (p, q) == start:
            return a, b


def cyclic_rotations(seq):
    seq = list(seq)
    return [seq[i:] + seq[:i] for i in range(len(seq))]


def pell_fundamental(D: int):
    """Smallest unit > 1 of the maximal order by brute force on the sqrt
    coefficient.  Returns (a, b, den) meaning (a + b*sqrt(D))/den."""
    if D % 4 == 1:
        b = 1
        while True:
            for sign in (-4, 4):  # for fixed b the norm -1 solution is smaller
                a2 = D * b * b + sign
                if a2 > 0:
                    a = isqrt(a2)
                    if a * a == a2 and (a - b) % 2 == 0:
                        return a, b, 2
            b += 1
    b = 1
    while True:
        for sign in (-1, 1):
            a2 = D * b * b + sign
            if a2 > 0:
                a = isqrt(a2)
                if a * a == a2:
                    return a, b, 1
        b += 1


# -- cusp chains by box enumeration ----------------------------------------------


def _qsign(p: int, q: int, D: int) -> int:
    """Sign of p + q*sqrt(D) for integers p, q."""
    if q == 0 or p == 0 or (p > 0) == (q > 0):
        return (p > 0) - (p < 0) if p else (q > 0) - (q < 0)
    big = p * p > q * q * D  # |p| > |q| sqrt(D); never equal for q != 0
    return (1 if p > 0 else -1) if big else (1 if q > 0 else -1)


def _cross(p, q):
    return p[0] * q[1] - p[1] * q[0]


def _monotone_hull(points):
    """Convex hull in counterclockwise order, collinear points dropped."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross(
                (out[-1][0] - out[-2][0], out[-1][1] - out[-2][1]),
                (p[0] - out[-2][0], p[1] - out[-2][1]),
            ) <= 0:
                out.pop()
            out.append(p)
        return out

    return half(pts)[:-1] + half(reversed(pts))[:-1]


def _box_period(D, u, v, E, box):
    """One certified period from the lattice points in [-box, box]^2, or None."""
    def emb(c):
        return u[0] * c[0] + u[1] * c[1], v[0] * c[0] + v[1] * c[1]

    def totally_positive(c):
        p, q = emb(c)
        return _qsign(p, q, D) > 0 and _qsign(p, -q, D) > 0

    pts = [(c1, c2) for c1 in range(-box, box + 1) for c2 in range(-box, box + 1)
           if totally_positive((c1, c2))]
    hull = _monotone_hull(pts)
    boundary = set()
    for i in range(len(hull)):
        p, q = hull[i], hull[(i + 1) % len(hull)]
        if _cross(p, q) >= 0:  # the origin is not on this edge's outer side
            continue
        dx, dy = q[0] - p[0], q[1] - p[1]
        g = gcd(dx, dy)
        boundary.update((p[0] + k * dx // g, p[1] + k * dy // g) for k in range(g + 1))
    # x/x' >= 1 iff the sqrt(D) part q is >= 0, and x/x' >= unit^2 iff
    # q >= 0 at unit^-1 * x
    Einv = invert_unimodular(E)

    def act(M, c):
        return tuple(M[i][0] * c[0] + M[i][1] * c[1] for i in range(2))

    # x/x' = (p + q sqrt(D)) / (p - q sqrt(D)) grows with q/p, and p > 0
    order = sorted(boundary, key=lambda c: Fraction(emb(c)[1], emb(c)[0]))
    window = [c for c in order if emb(c)[1] >= 0 and emb(act(Einv, c))[1] < 0]
    if not window:
        return None
    before = [c for c in order if emb(c)[1] < 0]
    after = [c for c in order if emb(act(Einv, c))[1] >= 0]
    if not before or not after:
        return None
    ext = [before[-1]] + window + [after[0]]
    if ext[0] != act(Einv, window[-1]) or ext[-1] != act(E, window[0]):
        return None
    bs = []
    for j in range(1, len(ext) - 1):
        if _cross(ext[j - 1], ext[j]) != 1 or _cross(ext[j], ext[j + 1]) != 1:
            return None
        t = 0 if ext[j][0] else 1
        b, r = divmod(ext[j - 1][t] + ext[j + 1][t], ext[j][t])
        if r or b < 2 or any(ext[j - 1][k] + ext[j + 1][k] != b * ext[j][k] for k in range(2)):
            return None
        bs.append(b)
    if all(b == 2 for b in bs):
        return None
    norms = [emb(c)[0] ** 2 - emb(c)[1] ** 2 * D for c in window]
    i = min(range(len(window)), key=lambda k: (norms[k], window[k]))
    vertices = window[i:] + [act(E, c) for c in window[:i]]
    return tuple(vertices), tuple(bs[i:] + bs[:i])


def box_hull_chain(D: int, alpha, beta, unit, box_limit: int = 256):
    """Boundary chain of the hull of the totally positive points of the
    module Z*alpha + Z*beta by enumerating a doubling box of lattice points
    until one unit period is certified and stable.

    ``alpha``, ``beta`` and ``unit`` are pairs (a, b) of rationals for
    a + b*sqrt(D).  Returns (vertices, b, E): the period window of ratio
    x/x' in [1, unit^2) rotated to its least (norm, coordinates) point, the
    values of v_{j-1} + v_{j+1} = b_j v_j, and the unit action E (column j
    holds the coordinates of unit * basis_j).  Returns None when the box
    limit is reached first.
    """
    alpha = tuple(Fraction(x) for x in alpha)
    beta = tuple(Fraction(x) for x in beta)
    d = lcm(*(x.denominator for x in alpha + beta))
    u = (int(alpha[0] * d), int(beta[0] * d))
    v = (int(alpha[1] * d), int(beta[1] * d))
    cols = []
    for x in (alpha, beta):
        ea = unit[0] * x[0] + unit[1] * x[1] * D
        eb = unit[0] * x[1] + unit[1] * x[0]
        c = solve([[alpha[0], beta[0]], [alpha[1], beta[1]]], [ea, eb])
        assert all(y.denominator == 1 for y in c)
        cols.append([int(y) for y in c])
    E = [[cols[0][0], cols[1][0]], [cols[0][1], cols[1][1]]]
    box, previous = 8, None
    while box <= box_limit:
        got = _box_period(D, u, v, E, box)
        if got is not None and got == previous:
            return got[0], got[1], E
        previous = got
        box *= 2
    return None


# -- exact linear algebra --------------------------------------------------------


def rref(rows):
    """Reduced row echelon form over Fractions; returns the nonzero rows."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return []
    ncols = len(mat[0])
    out = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = mat[r][c]
        mat[r] = [x / inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        r += 1
        if r == len(mat):
            break
    for row in mat[:r]:
        out.append(tuple(row))
    return out


def rank(rows) -> int:
    return len(rref(rows))


def solve(A, b):
    """One solution x of A x = b over Fractions, or None."""
    m = len(A)
    n = len(A[0]) if m else 0
    aug = [[Fraction(A[i][j]) for j in range(n)] + [Fraction(b[i])] for i in range(m)]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = aug[r][c]
        aug[r] = [x / inv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = aug[i][n]
    return x


def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    return [
        [sum(Fraction(A[i][t]) * Fraction(B[t][j]) for t in range(k)) for j in range(m)]
        for i in range(n)
    ]


def mat_sub_identity(T):
    n = len(T)
    return [[Fraction(T[i][j]) - (1 if i == j else 0) for j in range(n)] for i in range(n)]


def mat_is_zero(A):
    return all(x == 0 for row in A for x in row)


def oracle_exp(N):
    """exp of a nilpotent matrix as a terminating series."""
    n = len(N)
    out = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    term = [[Fraction(N[i][j]) for j in range(n)] for i in range(n)]
    k = 1
    fact = 1
    while not mat_is_zero(term):
        out = [[out[i][j] + term[i][j] / fact for j in range(n)] for i in range(n)]
        term = mat_mul(term, N)
        k += 1
        fact *= k
    return out


def oracle_log(T):
    """log of a unipotent matrix as a terminating series in T - 1."""
    A = mat_sub_identity(T)
    n = len(A)
    out = [[Fraction(0)] * n for _ in range(n)]
    term = [row[:] for row in A]
    k = 1
    while not mat_is_zero(term):
        sign = Fraction((-1) ** (k + 1), k)
        out = [[out[i][j] + sign * term[i][j] for j in range(n)] for i in range(n)]
        term = mat_mul(term, A)
        k += 1
        if k > n + 1:
            raise ValueError("not unipotent")
    return out


def leibniz_det(rows) -> int:
    """Determinant of a square integer matrix as the signed sum over permutations."""
    total = 0
    for perm in permutations(range(len(rows))):
        inversions = sum(perm[j] > perm[i] for i in range(len(perm)) for j in range(i))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def maximal_minor_gcd(rows, n: int) -> int:
    """gcd of the k x k minors of k integer rows of length n (1 for no rows).
    k rows extend to a basis of Z^n exactly when this is 1."""
    g = 0 if rows else 1
    for cols in combinations(range(n), len(rows)):
        g = gcd(g, leibniz_det([[row[c] for c in cols] for row in rows]))
    return g


# -- brute-force maximal unipotency ----------------------------------------------
#
# Subspaces are handled in integers: a rational matrix is first cleared of its
# denominators (images and kernels do not change), and a subspace is kept as
# the reduced echelon form of a spanning set with every row scaled to a
# primitive integer row with positive pivot, which is canonical.


def _int_mul(A, B):
    cols = list(zip(*B))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in A]


def _cleared(A):
    """The integer matrix den * A for the lcm den of the entry denominators."""
    den = lcm(*(Fraction(x).denominator for row in A for x in row))
    return [[int(Fraction(x) * den) for x in row] for row in A]


def _primitive_row(row):
    g = 0
    for x in row:
        g = gcd(g, x)
    return [x // g for x in row] if g > 1 else list(row)


def _int_rref(rows):
    """Reduced echelon rows of the span over Q, each primitive in Z with a
    positive pivot: cross-multiplied elimination, contents divided out."""
    mat = [list(r) for r in rows]
    if not mat:
        return []
    r = 0
    for c in range(len(mat[0])):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        top = _primitive_row(mat[r] if mat[r][c] > 0 else [-x for x in mat[r]])
        mat[r] = top
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = _primitive_row([top[c] * x - f * y for x, y in zip(mat[i], top)])
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]]


def _as_rref(rows):
    """The same rows divided by their pivots: the rational reduced echelon form."""
    out = []
    for row in rows:
        p = next(x for x in row if x != 0)
        out.append(tuple(Fraction(x, p) for x in row))
    return out


def _image_rows(A):
    return _int_rref([[A[i][j] for i in range(len(A))] for j in range(len(A[0]))])


def _kernel_rows(A):
    """Integer basis of the kernel of the integer matrix A (rows are kernel
    vectors), one per free column."""
    n = len(A[0])
    red = _int_rref(A)
    pivots = [next(c for c, x in enumerate(row) if x != 0) for row in red]
    scale = lcm(*(row[c] for row, c in zip(red, pivots)))
    basis = []
    for f in range(n):
        if f in pivots:
            continue
        v = [0] * n
        v[f] = scale
        for row, c in zip(red, pivots):
            v[c] = -row[f] * (scale // row[c])
        basis.append(tuple(_primitive_row(v)))
    return basis


def _intersect_rows(rows_a, rows_b, n):
    """Intersection of two row spans inside Q^n."""
    if not rows_a or not rows_b:
        return []
    # joint kernel vectors (c_a, c_b) with sum c_a rows_a - sum c_b rows_b = 0
    cols = []
    for j in range(n):
        cols.append([row[j] for row in rows_a] + [-row[j] for row in rows_b])
    combos = _kernel_rows(cols)
    vecs = []
    for combo in combos:
        v = [0] * n
        for c, row in zip(combo[: len(rows_a)], rows_a):
            for j in range(n):
                v[j] += c * row[j]
        vecs.append(tuple(v))
    return _int_rref(vecs)


def _int_weight_pieces(N, n_weight, dim):
    """Canonical integer bases of (W0, W1, W2) for an integer nilpotent N."""

    def power(k):
        out = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
        for _ in range(k):
            out = _int_mul(out, N)
        return out

    def im(k):
        if k <= 0:
            return _int_rref([[1 if i == j else 0 for j in range(dim)] for i in range(dim)])
        return _image_rows(power(k))

    def ker(k):
        return _int_rref(_kernel_rows(power(k)))

    w0 = im(n_weight)
    w1 = _intersect_rows(im(n_weight - 1), ker(1), dim)
    w2 = _intersect_rows(im(n_weight - 2), ker(2), dim)
    return w0, w1, w2


def oracle_weight_dims(logs, a, n_weight, dim):
    """Dims of (W0, W1, W2) for N = sum a_j logs[j], weight n_weight, and
    their reduced echelon bases as Fraction rows."""
    N = [[sum(Fraction(a[j]) * logs[j][i][k] for j in range(len(logs)))
          for k in range(dim)] for i in range(dim)]
    w0, w1, w2 = _int_weight_pieces(_cleared(N), n_weight, dim)
    return len(w0), len(w1), len(w2), (_as_rref(w0), _as_rref(w1), _as_rref(w2))


def oracle_max_unipotent(operators, weight, rng, a_draws=50, basis_draws=50):
    """Randomized brute-force verdict for maximal unipotency."""
    dim = len(operators[0])
    r = len(operators)
    # commutation and nilpotency survive clearing denominators
    cleared = [_cleared(T) for T in operators]
    for A in cleared:
        for B in cleared:
            if _int_mul(A, B) != _int_mul(B, A):
                return False
    for T in operators:
        M = _cleared(mat_sub_identity(T))
        P = [row[:] for row in M]
        for _ in range(dim - 1):
            P = _int_mul(P, M)
        if not mat_is_zero(P):
            return False
    logs = [oracle_log(T) for T in operators]
    # one common denominator: combinations keep their images and kernels
    den = lcm(*(x.denominator for L in logs for row in L for x in row))
    int_logs = [[[int(x * den) for x in row] for row in L] for L in logs]

    def pieces(mats, a):
        N = [[sum(a[j] * mats[j][i][k] for j in range(r)) for k in range(dim)]
             for i in range(dim)]
        return _int_weight_pieces(N, weight, dim)

    seen_w0 = None
    seen_w2 = None
    for _ in range(a_draws):
        a = [rng.randrange(1, 10) for _ in range(r)]
        w0, w1, w2 = pieces(int_logs, a)
        if (len(w0), len(w1), len(w2)) != (1, 1, r + 1):
            return False
        if seen_w0 is None:
            seen_w0, seen_w2 = w0, w2
        elif w0 != seen_w0 or w2 != seen_w2:
            return False
    # m-matrix invertibility on a rational basis of W2 over W0
    g0 = seen_w0[0]
    others = [w for w in seen_w2 if w != g0]
    # express N_j g^k in terms of g0
    m_rows = []
    for Nj in logs:
        row = []
        for g in others[: r]:
            img = [sum(Nj[i][t] * g[t] for t in range(dim)) for i in range(dim)]
            coeff = None
            nz = next((i for i, x in enumerate(g0) if x != 0), None)
            if all(x == 0 for x in img):
                coeff = Fraction(0)
            else:
                coeff = img[nz] / g0[nz]
                if [coeff * x for x in g0] != img:
                    return False
            row.append(coeff)
        m_rows.append(row)
    if rank(m_rows) != r:
        return False
    for _ in range(basis_draws):
        # dims are basis independent; recheck under a random conjugation
        U = random_unimodular(rng, dim)
        Uinv = invert_unimodular(U)
        a = [rng.randrange(1, 10) for _ in range(r)]
        conj = [_int_mul(_int_mul(U, L), Uinv) for L in int_logs]
        w0, w1, w2 = pieces(conj, a)
        if (len(w0), len(w1), len(w2)) != (1, 1, r + 1):
            return False
    return True


# -- random integer matrices -----------------------------------------------------


def random_unimodular(rng, n, shears: int = 6):
    M = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(shears):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = rng.randrange(-2, 3)
        for k in range(n):
            M[i][k] += c * M[j][k]
    return M


def invert_unimodular(M):
    n = len(M)
    aug = [[Fraction(M[i][j]) for j in range(n)]
           + [Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = next(i for i in range(c, n) if aug[i][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = aug[c][c]
        aug[c] = [x / inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    out = [[aug[i][n + j] for j in range(n)] for i in range(n)]
    assert all(x.denominator == 1 for row in out for x in row)
    return [[int(x) for x in row] for row in out]


def random_sl2(rng, words: int = 8):
    """Word in the two standard generators of the integer 2x2 unimodular group."""
    S = ((0, -1), (1, 0))
    T = ((1, 1), (0, 1))
    M = [[1, 0], [0, 1]]
    for _ in range(words):
        G = S if rng.random() < 0.4 else T
        M = [[sum(M[i][k] * G[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
    return M


# -- instanton series --------------------------------------------------------------


def _series_terms(doc):
    """(exponent tuple, Fraction) for every term of a series/1 document
    whose coefficient is nonzero, in document order."""
    out = []
    for t in doc["terms"]:
        c = Fraction(t["coefficient"])
        if c != 0:
            out.append((tuple(t["exponent"]), c))
    return out


def reframed_series_text(doc, M) -> str:
    """The canonical text (sorted keys, no spaces, one newline) of a
    series/1 document after the framing change e -> M^T e, term by term.
    Terms are sorted by exponent and coefficients written reduced, as "n" or
    "p/q".  The complete order is the old one floor-divided by the largest
    column l1 norm of M^-T, that is the largest row l1 norm of M^-1, and
    the truncation is the larger of it and the l1 norms of the new
    exponents."""
    n = len(M)
    terms = sorted(
        (tuple(sum(M[j][i] * e[j] for j in range(n)) for i in range(n)), c)
        for e, c in _series_terms(doc)
    )
    rho = max(sum(abs(x) for x in row) for row in invert_unimodular(M))
    complete = doc.get("complete_order", doc["truncation"]) // rho
    truncation = max([complete] + [sum(abs(x) for x in e) for e, _ in terms])
    out = {
        "format": "series/1",
        "rank": n,
        "truncation": truncation,
        "complete_order": complete,
        "terms": [
            {
                "exponent": list(e),
                "coefficient": f"{c.numerator}" if c.denominator == 1
                else f"{c.numerator}/{c.denominator}",
            }
            for e, c in terms
        ],
    }
    return json.dumps(out, sort_keys=True, separators=(",", ":")) + "\n"


def first_noneffective_exponent(doc, F):
    """The smallest exponent of the document, in tuple order, whose
    coordinates in the basis of the rows of F have a negative entry, or
    None.  The coordinates c of e solve F^T c = e, so c = F^-T e."""
    n = len(F)
    inv = invert_unimodular(F)
    for e, _ in sorted(_series_terms(doc)):
        if any(sum(inv[j][i] * e[j] for j in range(n)) < 0 for i in range(n)):
            return e
    return None


# -- fan construction ------------------------------------------------------------


def stern_brocot_rays(rng, steps: int):
    """Unimodular subdivision of the first quadrant by repeated mediants."""
    rays = [(1, 0), (0, 1)]
    for _ in range(steps):
        i = rng.randrange(len(rays) - 1)
        a, b = rays[i], rays[i + 1]
        rays.insert(i + 1, (a[0] + b[0], a[1] + b[1]))
    return rays


def octant_tops(rng, steps: int):
    """Stellar subdivisions of the positive octant; all cones stay unimodular.

    Each step subdivides along the sum of two generators of a random cone;
    every top cone containing that edge is split, keeping the collection a
    fan."""
    tops = [((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    for _ in range(steps):
        cone = tops[rng.randrange(len(tops))]
        gi, gj = (cone[i] for i in sorted(rng.sample(range(3), 2)))
        w = tuple(gi[k] + gj[k] for k in range(3))
        new_tops = []
        for t in tops:
            if gi in t and gj in t:
                new_tops.append(tuple(w if g == gi else g for g in t))
                new_tops.append(tuple(w if g == gj else g for g in t))
            else:
                new_tops.append(t)
        tops = new_tops
    return tops


def simplicial_faces(generators):
    """All faces of a simplicial cone as frozensets of generator tuples."""
    out = set()
    n = len(generators)
    for mask in range(1 << n):
        out.add(frozenset(generators[i] for i in range(n) if mask >> i & 1))
    return out


def face_count_by_hyperplanes(generators, ambient: int) -> int:
    """Number of faces of a simplicial cone counted by exhibiting, for each
    candidate generator subset, a supporting functional vanishing there and
    strictly positive on the remaining generators."""
    gens = [tuple(g) for g in generators]
    count = 0
    n = len(gens)
    for mask in range(1 << n):
        inside = [g for i, g in enumerate(gens) if mask >> i & 1]
        outside = [g for i, g in enumerate(gens) if not mask >> i & 1]
        if not outside:
            count += 1  # the cone itself, supported by the zero functional
            continue
        rows = inside + outside
        rhs = [0] * len(inside) + [1] * len(outside)
        u = solve(rows, rhs)
        if u is not None:
            count += 1
    return count


def primitive(vec):
    g = 0
    for x in vec:
        g = gcd(g, abs(x))
    return tuple(x // g for x in vec) if g else tuple(vec)


# -- cone duals -------------------------------------------------------------------


def kernel(rows, n: int) -> list:
    """Basis of {x : rows . x = 0}, one vector per free column of the
    reduced echelon form, each scaled to a primitive integer vector."""
    red = rref(rows)
    pivots = [next(j for j, x in enumerate(row) if x != 0) for row in red]
    out = []
    for f in range(n):
        if f in pivots:
            continue
        vec = [Fraction(int(j == f)) for j in range(n)]
        for row, p in zip(red, pivots):
            vec[p] = -row[f]
        den = lcm(*(x.denominator for x in vec))
        out.append(primitive([int(x * den) for x in vec]))
    return out


def dual_description(gens, n: int):
    """(sorted primitive facet normals, span equations) of the cone on the
    integer vectors ``gens``: every normal is the kernel line of d - 1
    generators plus the span equations, oriented nonnegative on all of them."""
    gens = [tuple(g) for g in gens if any(g)]
    equations = kernel(gens, n)
    d = n - len(equations)
    normals = set()
    for subset in combinations(gens, d - 1) if d else ():
        kern = kernel(list(subset) + equations, n)
        if len(kern) != 1:
            continue
        dots = [sum(a * b for a, b in zip(kern[0], g)) for g in gens]
        if min(dots) < 0 < max(dots):
            continue
        normals.add(tuple(-x for x in kern[0]) if min(dots) < 0 else kern[0])
    return sorted(normals), equations


# -- linear algebra over Q(sqrt(D)) ---------------------------------------------------
#
# An element a + b*sqrt(D) is the pair (a, b) of Fractions, with D passed
# explicitly; rows are Gauss-Jordan reduced in that field directly.


def _q_mul(x, y, D):
    return (x[0] * y[0] + D * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _q_inverse(x, D):
    norm = x[0] * x[0] - D * x[1] * x[1]
    return (x[0] / norm, -x[1] / norm)


def _q_sign(x, D) -> int:
    """Sign of a + b*sqrt(D): when a and b have opposite signs, the larger
    of a^2 and D b^2 decides."""
    sa = (x[0] > 0) - (x[0] < 0)
    sb = (x[1] > 0) - (x[1] < 0)
    if sa == sb or sb == 0:
        return sa
    if sa == 0:
        return sb
    return sa if x[0] * x[0] > D * x[1] * x[1] else sb


def quad_dot(xs, ys, D):
    """sum x*y over pairs of field elements."""
    acc = (Fraction(0), Fraction(0))
    for x, y in zip(xs, ys):
        p = _q_mul(x, y, D)
        acc = (acc[0] + p[0], acc[1] + p[1])
    return acc


def cusp_cone_edges(D: int, alpha, beta) -> list:
    """The two edge directions of the open cone
    {y : alpha y1 + beta y2 > 0, alpha' y1 + beta' y2 > 0}, for pairs (a, b)
    of a + b*sqrt(D): each edge spans the line where one form vanishes and
    points to the side where the other is positive."""
    a, b = tuple(map(Fraction, alpha)), tuple(map(Fraction, beta))
    ac, bc = (a[0], -a[1]), (b[0], -b[1])

    def neg(x):
        return (-x[0], -x[1])

    edges = []
    for edge, form in (((bc, neg(ac)), (a, b)), ((b, neg(a)), (ac, bc))):
        if _q_sign(quad_dot(form, edge, D), D) < 0:
            edge = tuple(map(neg, edge))
        edges.append(edge)
    return edges


def same_ray(u, v, D: int) -> bool:
    """Whether the plane vectors u and v, with entries (a, b) for
    a + b*sqrt(D), are positive multiples of one another."""
    cross = quad_dot(u, (v[1], (-v[0][0], -v[0][1])), D)
    return cross == (0, 0) and _q_sign(quad_dot(u, v, D), D) > 0


def quad_rref(rows, D):
    """(reduced echelon rows, pivot columns) over Q(sqrt(D)) for rows of
    (a, b) pairs."""
    mat = [[(Fraction(a), Fraction(b)) for a, b in row] for row in rows]
    pivots = []
    for c in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != (0, 0)), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = _q_inverse(mat[r][c], D)
        mat[r] = [_q_mul(x, inv, D) for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != (0, 0):
                f = mat[i][c]
                mat[i] = [
                    (x[0] - p[0], x[1] - p[1])
                    for x, p in zip(mat[i], (_q_mul(f, y, D) for y in mat[r]))
                ]
        pivots.append(c)
        if len(pivots) == len(mat):
            break
    return mat[: len(pivots)], pivots


def quad_rank(rows, D) -> int:
    return len(quad_rref(rows, D)[1])


def quad_kernel(rows, n: int, D) -> list:
    """Kernel basis over Q(sqrt(D)), one vector per free column of the reduced
    echelon form, each scaled to the canonical point of its positive ray: a
    primitive integer vector when every entry is rational, else the multiple
    whose first nonzero entry is +-1.  Vectors are tuples of (a, b) pairs."""
    red, pivots = quad_rref(rows, D)
    out = []
    for f in range(n):
        if f in pivots:
            continue
        vec = [(Fraction(int(j == f)), Fraction(0)) for j in range(n)]
        for row, p in zip(red, pivots):
            vec[p] = (-row[f][0], -row[f][1])
        if all(b == 0 for _, b in vec):
            den = lcm(*(a.denominator for a, _ in vec))
            ints = primitive([int(a * den) for a, _ in vec])
            out.append(tuple((Fraction(x), Fraction(0)) for x in ints))
            continue
        lead = next(x for x in vec if x != (0, 0))
        if _q_sign(lead, D) < 0:
            lead = (-lead[0], -lead[1])
        inv = _q_inverse(lead, D)
        out.append(tuple(_q_mul(x, inv, D) for x in vec))
    return out


# -- cover counts -------------------------------------------------------------------


def _relint_test(gens, n: int):
    """Whether an integer point lies in the relative interior of the cone on
    the integer vectors ``gens``: every span equation vanishes on it and
    every facet normal is positive (the zero cone holds only the origin)."""
    normals, equations = dual_description(gens, n)

    def holds(x) -> bool:
        return all(sum(a * b for a, b in zip(e, x)) == 0 for e in equations) and all(
            sum(a * b for a, b in zip(u, x)) > 0 for u in normals
        )

    return holds


def _support_test(gens, D: int, open_cone: bool):
    """Whether an integer point is a combination of the linearly independent
    ``gens`` (tuples of (a, b) pairs for a + b*sqrt(D)) with coefficients
    all positive when ``open_cone``, else all nonnegative.  Reducing
    [gens | identity] gives the coefficient functionals in its first rows
    and the span equations in the rest."""
    k, n = len(gens), len(gens[0])
    rows = [[g[j] for g in gens] + [(int(i == j), 0) for i in range(n)] for j in range(n)]
    red, pivots = quad_rref(rows, D)
    assert pivots[:k] == list(range(k)), "support generators must be independent"
    # each functional as integer vectors (A, B) of (A + B*sqrt(D)) / den, den > 0
    functionals = []
    for row in red:
        den = lcm(*(x.denominator for pair in row[k:] for x in pair))
        functionals.append(([int(a * den) for a, _ in row[k:]], [int(b * den) for _, b in row[k:]]))

    def holds(x) -> bool:
        values = [
            (sum(a * v for a, v in zip(A, x)), sum(b * v for b, v in zip(B, x)))
            for A, B in functionals
        ]
        if any(v != (0, 0) for v in values[k:]):
            return False
        signs = [_q_sign(v, D) for v in values[:k]]
        return all(s > 0 for s in signs) if open_cone else all(s >= 0 for s in signs)

    return holds


def _ball(generators, n: int, depth: int) -> list:
    """Distinct products of at most ``depth`` of the integer matrices and
    their inverses, the identity first."""
    steps = [[list(r) for r in g] for g in generators]
    steps += [invert_unimodular(g) for g in steps]
    ball = [[[int(i == j) for j in range(n)] for i in range(n)]]
    seen = {tuple(map(tuple, ball[0]))}
    frontier = ball
    for _ in range(depth):
        new = []
        for m in frontier:
            for s in steps:
                prod = [[sum(s[i][t] * m[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
                key = tuple(map(tuple, prod))
                if key not in seen:
                    seen.add(key)
                    new.append(prod)
        ball += new
        frontier = new
    return ball


def cover_counts(members, generators, support, D: int, box: int, depth: int,
                 open_support: bool = False, include_origin: bool = True) -> dict:
    """For every integer point with coordinates in [-box, box] that lies in
    the support, the number of distinct member translates whose relative
    interior holds it.

    ``members`` are cones given by integer generators; translates are their
    images under products of at most ``depth`` of the integer matrices
    ``generators`` and their inverses, acting on column vectors.  The
    support is the cone on the linearly independent ``support`` vectors,
    whose entries are (a, b) pairs for a + b*sqrt(D) (D = 0 for rational
    data), taken open when ``open_support``; it holds the origin only when
    ``include_origin``.  A decomposition covers every such point exactly
    once, so any count other than 1 shows a gap or an overlap."""
    n = len(support[0])
    translates = {}
    for m in _ball(generators, n, depth):
        for cone in members:
            image = [primitive([sum(a * b for a, b in zip(row, g)) for row in m]) for g in cone]
            key = tuple(sorted(image))
            if key not in translates:
                translates[key] = _relint_test(image, n)
    in_support = _support_test(support, D, open_support)
    counts = {}
    for x in product(range(-box, box + 1), repeat=n):
        if in_support(x) if any(x) else include_origin:
            counts[x] = sum(1 for holds in translates.values() if holds(x))
    return counts
