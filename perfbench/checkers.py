"""Independent answer checkers for the benchmark jobs.

Nothing here imports ``semitoric``: every expected answer is derived from
how the input was built, with plain integers and Fractions.  A checker
returns ``"answer"`` for an accepted document or verdict and ``"refused"``
for a documented resource-bound exit (code 3); anything else raises
``WrongAnswer``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cache
from math import isqrt


class WrongAnswer(Exception):
    """A job's output disagrees with what its input guarantees."""


def require(cond, message):
    if not cond:
        raise WrongAnswer(message)


# -- exact arithmetic in Q(sqrt(D)) ---------------------------------------------
# An element a + b*sqrt(D) is the pair (a, b) of Fractions; D travels alongside.


def qmul(x, y, D):
    return (x[0] * y[0] + D * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def qadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def qconj(x):
    return (x[0], -x[1])


def qneg(x):
    return (-x[0], -x[1])


def qnorm(x, D):
    return x[0] * x[0] - D * x[1] * x[1]


def qdiv(x, y, D):
    n = qnorm(y, D)
    z = qmul(x, qconj(y), D)
    return (z[0] / n, z[1] / n)


def qsign(x, D) -> int:
    a, b = x
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sb == 0 or sa == sb:
        return sa if sa else sb
    if sa == 0:
        return sb
    return sa if a * a > D * b * b else sb


def quad(a, b=0):
    return (Fraction(a), Fraction(b))


def parse_frac(text) -> Fraction:
    require(isinstance(text, (str, int)) and not isinstance(text, bool), f"bad rational {text!r}")
    return Fraction(text)


def parse_scalar(obj, D):
    """A document scalar: "p/q" or {"a", "b", "D"}."""
    if isinstance(obj, dict):
        require(obj.get("D") == D, f"scalar from the wrong field: {obj!r}")
        return (parse_frac(obj["a"]), parse_frac(obj["b"]))
    return (parse_frac(obj), Fraction(0))


def scalar_text(x) -> str:
    """Command-line form 'a,b' of a + b*sqrt(D)."""
    return f"{x[0]},{x[1]}"


# -- cusp chains by the minus continued fraction ---------------------------------


def is_squarefree(n: int) -> bool:
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return n >= 2


def order_generator(D: int):
    """w with Z + Zw the maximal order: sqrt(D), or (1 + sqrt(D))/2 if D = 1 mod 4."""
    return quad(Fraction(1, 2), Fraction(1, 2)) if D % 4 == 1 else quad(0, 1)


class CuspChain:
    """Boundary chain of the maximal order of Q(sqrt(D)), from the purely
    periodic minus continued fraction of a reduced generator.

    With reduced states w_k = (p_k + sqrt(D))/q_k and b_k = ceil(w_k), the
    hull vertices are A_0 = 1 and A_k = A_{k-1}/w_k, they satisfy
    A_{k-1} + A_{k+1} = b_k A_k, and A_{k+m} = A_k / eps for the totally
    positive fundamental unit eps = w_1 ... w_m.
    """

    def __init__(self, D: int):
        s = isqrt(D)
        if D % 4 == 1:
            n = (s - 1) // 2 + 1  # smallest n with n + (1 - sqrt(D))/2 in (0, 1)
            p, q = 2 * n + 1, 2
        else:
            p, q = s + 1, 1
        states, bs = [], []
        start = (p, q)
        while True:
            states.append((p, q))
            b = (p + s) // q + 1
            bs.append(b)
            t = b * q - p
            p, q = t, (t * t - D) // q
            if (p, q) == start:
                break
        self.D = D
        self.m = len(bs)
        self.b = bs
        ws = [quad(Fraction(p, q), Fraction(1, q)) for p, q in states]
        A = [quad(1)]
        for k in range(1, self.m + 1):
            A.append(qdiv(A[-1], ws[k % self.m], D))
        self.unit = qdiv(quad(1), A[self.m], D)
        self._vertex = {}
        unit_inv = qconj(self.unit)
        for j in range(-3, 4):
            scale = quad(1)
            for _ in range(abs(j)):
                scale = qmul(scale, unit_inv if j > 0 else self.unit, D)
            for k in range(self.m):
                self._vertex[k + j * self.m] = qmul(A[k], scale, D)
        self._index = {x: k for k, x in self._vertex.items()}

    def vertex(self, k: int):
        """A_k, for k within three periods of 0."""
        return self._vertex[k]

    def index_of(self, x):
        """k with x == A_k (within three periods of A_0), else None."""
        return self._index.get(x)

    def b_at(self, k: int) -> int:
        return self.b[k % self.m]


@cache
def cusp_chain(D: int) -> CuspChain:
    return CuspChain(D)


def basis_for(D: int, P):
    """Module basis (alpha, beta) = (a + c*w, b + d*w) for P = [[a, b], [c, d]]."""
    w = order_generator(D)
    (a, b), (c, d) = P
    return (qadd(quad(a), qmul(quad(c), w, D)), qadd(quad(b), qmul(quad(d), w, D)))


def coordinates(x, basis, D):
    """(c1, c2) with x = c1*alpha + c2*beta."""
    (a0, a1), (b0, b1) = basis
    det = a0 * b1 - a1 * b0
    return ((x[0] * b1 - x[1] * b0) / det, (a0 * x[1] - a1 * x[0]) / det)


def element(v, basis, D):
    return qadd(qmul(quad(v[0]), basis[0], D), qmul(quad(v[1]), basis[1], D))


def unit_action(eps, basis, D):
    cols = [coordinates(qmul(eps, g, D), basis, D) for g in basis]
    rows = [[cols[0][0], cols[1][0]], [cols[0][1], cols[1][1]]]
    require(all(x.denominator == 1 for r in rows for x in r), "unit does not fix the module")
    return [[int(x) for x in r] for r in rows]


def lexmin_rotation(seq):
    seq = list(seq)
    return min((seq[i:] + seq[:i], i) for i in range(len(seq)))


def _chain_indices(vertices, basis, chain: CuspChain):
    ks = []
    for v in vertices:
        k = chain.index_of(element(v, basis, chain.D))
        require(k is not None, f"vertex {v} is not a hull vertex")
        ks.append(k)
    return ks


def check_cusp_resolve(job, rc, out, err):
    require(rc == 0, f"exit {rc}: {err.strip()}")
    D, P = job["D"], job["basis"]
    chain = cusp_chain(D)
    basis = basis_for(D, P)
    doc = json.loads(out)
    ch, cy = doc["chain"], doc["cycle"]
    require(ch["format"] == "chain/1" and cy["format"] == "cycle/1", "wrong formats")
    require(ch["discriminant"] == D, "wrong discriminant")
    require(parse_scalar(ch["alpha"], D) == basis[0], "alpha differs from the input basis")
    require(parse_scalar(ch["beta"], D) == basis[1], "beta differs from the input basis")
    require(parse_scalar(ch["unit"], D) == chain.unit, "unit is not the totally positive fundamental unit")
    verts, b = ch["vertices"], ch["b"]
    require(len(verts) == chain.m and len(b) == chain.m, f"m={len(verts)}, oracle m={chain.m}")
    ks = _chain_indices(verts, basis, chain)
    require(ks == [ks[0] - i for i in range(chain.m)], f"vertices are not consecutive hull vertices: {ks}")
    require(b == [chain.b_at(k) for k in ks], f"b={b} disagrees with the continued fraction")
    rot, offset = lexmin_rotation(b)
    require(cy["b"] == rot and cy["offset"] == offset and cy["m"] == chain.m, "cycle is not the minimal rotation")
    require(cy["self_intersections"] == [-x for x in rot], "self-intersections are not -b")
    return "answer"


def check_cusp_fan(job, rc, out, err):
    require(rc == 0, f"exit {rc}: {err.strip()}")
    D, P = job["D"], job["basis"]
    chain = cusp_chain(D)
    basis = basis_for(D, P)
    doc = json.loads(out)
    require(doc["format"] == "fan/1" and doc["rank"] == 2, "not a rank-2 fan")
    members = [int_vectors(m["generators"]) for m in doc["members"]]
    rays = [m[0] for m in members if len(m) == 1]
    sectors = {frozenset(m) for m in members if len(m) == 2}
    require(len(rays) + len(sectors) == len(members) == 2 * chain.m, "wrong member count")
    by_k = dict(zip(_chain_indices(rays, basis, chain), rays))
    top = max(by_k)
    require(sorted(by_k) == list(range(top - chain.m + 1, top + 1)), "rays are not one period")
    E = unit_action(chain.unit, basis, D)
    by_k[top - chain.m] = mat_vec(E, by_k[top])  # eps * A_k = A_(k-m)
    expected = {frozenset((by_k[k], by_k[k - 1])) for k in range(top - chain.m + 1, top + 1)}
    require(sectors == expected, "sectors do not join consecutive rays")
    group = doc["group"]
    require(len(group) == 1 and group[0]["linear"] == E, "group is not the unit action")
    check_cusp_support(doc["support"], basis, D)
    return "answer"


def check_cusp_support(sup, basis, D):
    require(sup["interior_only"] is True and sup["include_origin"] is False, "wrong support flags")
    alpha, beta = basis
    zero_sides = set()
    for g in sup["generators"]:
        u = [parse_scalar(x, D) for x in g]
        forms = (
            qadd(qmul(alpha, u[0], D), qmul(beta, u[1], D)),
            qadd(qmul(qconj(alpha), u[0], D), qmul(qconj(beta), u[1], D)),
        )
        signs = [qsign(f, D) for f in forms]
        require(sorted(signs) == [0, 1], f"support generator {g} is not a cusp cone edge")
        zero_sides.add(signs.index(0))
    require(zero_sides == {0, 1}, "support edges do not bound the cusp cone")


# -- integer matrices ------------------------------------------------------------


def det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    return sum(
        (-1) ** j * rows[0][j] * det([r[:j] + r[j + 1:] for r in rows[1:]]) for j in range(n)
    )


def mat_mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def mat_vec(A, v):
    return tuple(sum(a * x for a, x in zip(row, v)) for row in A)


def transpose(A):
    return [list(c) for c in zip(*A)]


def inverse(A):
    """Exact inverse by the adjugate; entries are Fractions."""
    n = len(A)
    d = det(A)
    require(d != 0, "singular matrix")
    if n == 1:
        return [[Fraction(1, d)]]
    cof = [
        [(-1) ** (i + j) * det([r[:j] + r[j + 1:] for k, r in enumerate(A) if k != i]) for j in range(n)]
        for i in range(n)
    ]
    return [[Fraction(cof[j][i], d) for j in range(n)] for i in range(n)]


def int_inverse(U):
    inv = inverse(U)
    require(all(x.denominator == 1 for r in inv for x in r), "matrix is not unimodular")
    return [[int(x) for x in r] for r in inv]


def as_int(text) -> int:
    x = parse_frac(text)
    require(x.denominator == 1, f"{text!r} is not an integer")
    return int(x)


def int_vectors(rows):
    return [tuple(as_int(x) for x in r) for r in rows]


def fan_members(doc):
    return {frozenset(int_vectors(m["generators"])) for m in doc["members"]}


# -- fan, atlas, monodromy and series verdicts -------------------------------------


CONDITIONS = ["disjoint-cover", "rational-span", "face-closure", "local-finiteness"]


def check_verdict(job, rc, out, err):
    """Validation and compatibility reports: verdict and exit code as built."""
    require(rc in (0, 1), f"exit {rc}: {err.strip()}")
    doc = json.loads(out)
    expected = job["expect"]
    require(doc["passed"] is expected, f"verdict {doc['passed']}, built to be {expected}")
    require(rc == (0 if expected else 1), f"exit {rc} for verdict {expected}")
    names = [c["name"] for c in doc["conditions"]]
    if job["kind"] == "atlas-check":
        require(names == ["boundary-coverage", "common-lattice", "translation-lattice", "face-decomposition"], "wrong conditions")
        failed = [c["name"] for c in doc["conditions"] if not c["passed"]]
        if expected:
            require(doc["lattice"] == identity(job["rank"]) and doc["lattice_denominator"] == 1, "lattice is not Z^r")
        else:
            require("common-lattice" in failed and doc["lattice"] is None, "frame defect not reported")
    else:
        require(names == CONDITIONS, "wrong conditions")
        require(all(c["passed"] for c in doc["conditions"]) is expected, "conditions disagree with the verdict")
    return "answer"


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def check_reconstruct(job, rc, out, err):
    require(rc == 0, f"exit {rc}: {err.strip()}")
    doc = json.loads(out)
    require(doc["lattice"] == identity(job["rank"]) and doc["lattice_denominator"] == 1, "lattice is not Z^r")
    got = doc["fan"]
    require(got["format"] == "fan/1" and got["rank"] == job["rank"], "not a fan of the source rank")
    require(doc["support"] == got["support"], "support and fan disagree")
    require(fan_members(got) == {frozenset(m) for m in job["fan"]}, "reconstructed fan differs from the source")
    return "answer"


def check_unipotency(job, rc, out, err):
    require(rc in (0, 1), f"exit {rc}: {err.strip()}")
    doc = json.loads(out)
    expected = job["expect"]
    require(doc["passed"] is expected and rc == (0 if expected else 1), f"verdict {doc['passed']}, built to be {expected}")
    if expected:
        require(doc["weight"] == job["weight"], "wrong weight")
        require(doc["dims"] == {"W0": 1, "W1": 1, "W2": job["r"] + 1}, f"wrong weight dims {doc['dims']}")
    return "answer"


def check_coords(job, rc, out, err):
    require(rc == 0, f"exit {rc}: {err.strip()}")
    doc = json.loads(out)
    r = job["r"]
    require(doc["exact"] is True and doc["degenerate"] is False, "coordinates not exact")
    unit = [[{"coefficient": "1", "exponent": [int(i == j) for i in range(r)]}] for j in range(r)]
    require(doc["f"] == unit and doc["constants"] == ["0"] * r, "f_j is not z_j")
    require(doc["remainders"] == [[]] * r and doc["order"] == job["order"], "nonzero remainders")
    return "answer"


def l1(e):
    return sum(abs(x) for x in e)


def check_reframe(job, rc, out, err):
    require(rc == 0, f"exit {rc}: {err.strip()}")
    doc = json.loads(out)
    M, terms = job["matrix"], job["terms"]
    Mt = transpose(M)
    expected = sorted((mat_vec(Mt, e), c) for e, c in terms)
    got = [(tuple(t["exponent"]), Fraction(t["coefficient"])) for t in doc["terms"]]
    require(got == [(e, Fraction(c)) for e, c in expected], "reframed terms differ from M^T e")
    inv_t = transpose(int_inverse(M))
    rho = max(sum(abs(inv_t[i][j]) for i in range(len(M))) for j in range(len(M)))
    complete = job["complete_order"] // rho
    require(doc["complete_order"] == complete, "wrong complete order")
    require(doc["truncation"] == max([l1(e) for e, _ in expected] + [complete]), "wrong truncation")
    return "answer"


def effectivity_witness(exponents, framing):
    """First exponent (in sorted order) outside the nonnegative span of the
    framing rows, with one inverse for the whole framing."""
    inv = int_inverse(framing)
    for e in sorted(exponents):
        if any(c < 0 for c in mat_vec(transpose(inv), e)):
            return list(e)
    return None


def check_effectivity(job, rc, out, err):
    require(rc in (0, 1), f"exit {rc}: {err.strip()}")
    doc = json.loads(out)
    F, M = job["framing"], job["matrix"]
    witness = effectivity_witness([e for e, _ in job["terms"]], F)
    images = [mat_vec(transpose(M), row) for row in F]
    inv_t = transpose(int_inverse(F))
    bad = [row for row, img in zip(F, images) if any(c < 0 for c in mat_vec(inv_t, img))]
    expected = {
        "effective": witness is None,
        "witness": witness,
        "reframing_preserves_effectivity": not bad,
        "reframing_witness": list(bad[0]) if bad else None,
    }
    require(doc == expected, f"effectivity report {doc} differs from {expected}")
    require(rc == (0 if witness is None and not bad else 1), "exit code disagrees with the verdicts")
    return "answer"


CHECKERS = {
    "cusp-resolve": check_cusp_resolve,
    "cusp-fan": check_cusp_fan,
    "validate": check_verdict,
    "atlas-check": check_verdict,
    "atlas-reconstruct": check_reconstruct,
    "monodromy-check": check_unipotency,
    "monodromy-coords": check_coords,
    "series-reframe": check_reframe,
    "series-check": check_effectivity,
}


def check(job, rc, out, err) -> str:
    """Classify one finished job: "answer", "refused" or "failed" (exit 2);
    raise WrongAnswer when the output contradicts the oracle."""
    if rc == 2:
        return "failed"
    if rc == 3:
        require(err.startswith("resource bound exceeded"), f"exit 3 without a bound message: {err!r}")
        return "refused"
    try:
        return CHECKERS[job["kind"]](job, rc, out, err)
    except (KeyError, TypeError, ValueError, IndexError) as e:
        raise WrongAnswer(f"malformed output ({type(e).__name__}: {e})") from None
