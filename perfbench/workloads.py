"""Seeded job streams for the benchmark workloads.

A workload is a sequence of rounds.  Round ``r`` of workload ``w`` under
seed ``s`` is a pure function of ``(w, s, r)``: it writes its input
documents into a directory and returns job specs.  Every round of a
workload has the same mix of job kinds (or a mix fixed by ``r`` alone), so
runs that stop on a round boundary measure the same mix whatever the seed.
Inputs are never repeated within a run: fans of fan-validate are moved by
a fresh signed permutation of a fixed base, cusp modules of cusp-sweep get a
fresh SL2(Z) basis, operators and series a fresh unimodular map.

A job spec holds ``kind`` (which checker applies), ``argv`` (the
``semitoric`` command line), ``inputs`` (document paths it reads), and the
data its checker needs.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from fractions import Fraction

import checkers as ck

WORKLOADS = ("cusp-sweep", "fan-validate", "algebra")

# Rounds each pass of a traced run covers (run.py makes three pairs of passes).
TRACE_ROUNDS = {"cusp-sweep": 6, "fan-validate": 1, "algebra": 3}

# Percentile behind job_tail_ms: the highest whole percentile with at least
# ten answered jobs beyond it, at the smallest answered count of ten untraced
# runs at the seed commit (330, 33 and 224 jobs; first_set and end_to_end of
# baseline.json).
TAIL_PERCENTILE = {"cusp-sweep": 96, "fan-validate": 69, "algebra": 95}

# Fixed fan shapes of fan-validate.  SB_MEDIANTS gives the rays (1, 0),
# (1, 1), (1, 2), ..., (1, 5), (0, 1); the mutant drops the 2-cone between
# (1, 2) and (1, 3), so its support is not covered; OCTANT_STEPS leaves five
# top cones.
SB_MEDIANTS = (0, 1, 2, 3, 4)
SB_MUTANT_DROP = 10
OCTANT_STEPS = ((0, (0, 1)), (1, (0, 2)), (2, (1, 2)))

# Sweep range of cusp-sweep.  D = 151 would spend about 80 s in the Pell
# search before exiting 3, longer than one run.
SWEEP_MAX_D = 150

# Bases of SL2(Z) with entries in [-3, 3] (116 of them).
SL2_POOL = [
    ((a, b), (c, d))
    for a in range(-3, 4) for b in range(-3, 4) for c in range(-3, 4) for d in range(-3, 4)
    if a * d - b * c == 1
]


# -- documents -------------------------------------------------------------------


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def write(directory, name, obj) -> str:
    path = os.path.join(directory, name + ".json")
    with open(path, "w") as fh:
        fh.write(canonical(obj))
    return path


def frac(x) -> str:
    return str(Fraction(x))


def scalar(x, D):
    return frac(x[0]) if x[1] == 0 else {"a": frac(x[0]), "b": frac(x[1]), "D": D}


def int_rows(rows):
    return [[frac(x) for x in r] for r in rows]


def fan_doc(rank, members, support, group=(), interior_only=False, include_origin=True):
    return {
        "format": "fan/1",
        "rank": rank,
        "support": {
            "generators": support,
            "rank": rank,
            "interior_only": interior_only,
            "include_origin": include_origin,
        },
        "members": [{"generators": int_rows(m)} for m in members],
        "group": [{"linear": [list(r) for r in g], "translation": []} for g in group],
    }


def atlas_doc(rank, members, support_doc, group=()):
    """Atlas with one chart per full-dimensional unimodular member: the
    frame is the inverse transpose of the generator matrix."""
    points = []
    for idx, m in enumerate(sorted(sorted(m) for m in members if len(m) == rank)):
        inv = ck.inverse([list(g) for g in m])
        points.append({
            "label": f"p{idx}",
            "cone": [list(g) for g in m],
            "frame": [[frac(inv[j][i]) for j in range(rank)] for i in range(rank)],
        })
    translations = [
        {"linear": ck.identity(rank), "translation": [int(i == j) for j in range(rank)]}
        for i in range(rank)
    ]
    return {
        "format": "atlas/1",
        "rank": rank,
        "points": points,
        "group": [{"linear": [list(r) for r in g], "translation": []} for g in group] + translations,
        "covers_boundary": True,
        "support": support_doc,
    }


def double_first_frame_row(atlas):
    out = json.loads(json.dumps(atlas))
    row = out["points"][0]["frame"][0]
    out["points"][0]["frame"][0] = [frac(Fraction(x) * 2) for x in row]
    return out


# -- integer building blocks ---------------------------------------------------------


def shears(rng, n, count):
    return [(i, j, rng.choice((-2, -1, 1, 2))) for i, j in (rng.sample(range(n), 2) for _ in range(count))]


def shear_product(n, ops, inverse=False):
    """Product of elementary shears I + c e_i e_j^T; with ``inverse`` the
    product of their inverses in reverse order."""
    M = ck.identity(n)
    for i, j, c in (reversed(ops) if inverse else ops):
        c = -c if inverse else c
        M = [row[:] for row in M]
        M[i] = [a + c * b for a, b in zip(M[i], M[j])]
    return M


def unimodular(rng, n, count=4):
    return shear_product(n, shears(rng, n, count))


def move(M, vectors):
    return [ck.mat_vec(M, v) for v in vectors]


def stern_brocot_rays(mediants):
    """Rays of a Stern-Brocot fan: starting from (1, 0), (0, 1), insert the
    mediant after position i for each i of ``mediants``."""
    rays = [(1, 0), (0, 1)]
    for i in mediants:
        a, b = rays[i], rays[i + 1]
        rays.insert(i + 1, (a[0] + b[0], a[1] + b[1]))
    return rays


def stern_brocot_members(rays):
    return [[]] + [[r] for r in rays] + [[rays[i], rays[i + 1]] for i in range(len(rays) - 1)]


def octant_members(steps):
    """All faces of a stellar subdivision of the positive octant: for each
    (top, (i, j)) of ``steps``, the edge between generators i and j of that
    top cone is subdivided in every top cone that contains it."""
    tops = [((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    for top, (i, j) in steps:
        gi, gj = tops[top][i], tops[top][j]
        w = tuple(a + b for a, b in zip(gi, gj))
        new = []
        for t in tops:
            if gi in t and gj in t:
                new.append(tuple(w if g == gi else g for g in t))
                new.append(tuple(w if g == gj else g for g in t))
            else:
                new.append(t)
        tops = new
    faces = set()
    for t in tops:
        for mask in range(8):
            faces.add(frozenset(t[i] for i in range(3) if mask >> i & 1))
    return [sorted(f) for f in sorted(faces, key=lambda f: (len(f), sorted(f)))]


def signed_permutations(n):
    return [
        [[sign[i] * int(j == perm[i]) for j in range(n)] for i in range(n)]
        for perm in itertools.permutations(range(n))
        for sign in itertools.product((1, -1), repeat=n)
    ]


def fixed_base(n, role, q):
    """The q-th base matrix of a role: four shears drawn from a generator
    keyed by the role and q, never by the seed."""
    return shear_product(n, shears(random.Random(f"base:{role}:{q}"), n, 4))


def seeded_move(seed, r, n, role):
    """Round r's move of one role's input: base ``r // k`` of the role under
    the (r mod k)-th of a seeded order of the k signed permutations.  The
    seed only permutes and negates coordinates, so the entry sizes, and with
    them the work of a round, do not depend on it; inputs of one role never
    repeat within a run."""
    perms = signed_permutations(n)
    random.Random(f"{seed}:{role}").shuffle(perms)
    return perms[r % len(perms)], fixed_base(n, role, r // len(perms))


def moved_fan(M, rank, members):
    """A rational fan and its support, moved by M."""
    return [move(M, m) for m in members], move(M, ck.identity(rank))


def rational_fan_doc(rank, members, support):
    return fan_doc(rank, members, int_rows(support))


# -- cusps -----------------------------------------------------------------------------


def cusp_basis_args(D, P):
    chain = ck.cusp_chain(D)
    alpha, beta = ck.basis_for(D, P)
    return [
        f"--ideal={ck.scalar_text(alpha)};{ck.scalar_text(beta)}",
        f"--unit={ck.scalar_text(chain.unit)}",
    ]


def cusp_fan(D, P):
    """Rays through one period of hull vertices, the sectors between them,
    the unit action as group, and the cusp cone as support."""
    chain = ck.cusp_chain(D)
    basis = ck.basis_for(D, P)
    ks = range(0, -chain.m - 1, -1)
    verts = {}
    for k in ks:
        c = ck.coordinates(chain.vertex(k), basis, D)
        verts[k] = (int(c[0]), int(c[1]))
    members = []
    for k in ks[:-1]:
        members.append([verts[k]])
        members.append([verts[k], verts[k - 1]])
    # edges of {y : alpha*y1 + beta*y2 >= 0, alpha'*y1 + beta'*y2 >= 0}, pointing inward
    alpha, beta = basis
    twist = ck.qadd(ck.qmul(alpha, ck.qconj(beta), D), ck.qneg(ck.qmul(ck.qconj(alpha), beta, D)))
    g1 = [ck.qconj(beta), ck.qneg(ck.qconj(alpha))]
    g2 = [beta, ck.qneg(alpha)]
    if ck.qsign(twist, D) < 0:
        g1 = [ck.qneg(x) for x in g1]
    else:
        g2 = [ck.qneg(x) for x in g2]
    support = [[scalar(x, D) for x in g] for g in (g1, g2)]
    E = ck.unit_action(chain.unit, basis, D)
    doc = fan_doc(2, members, support, [E], interior_only=True, include_origin=False)
    return doc, members, E


# -- rounds ------------------------------------------------------------------------------


def _rng(workload, seed, r):
    return random.Random(f"{workload}:{seed}:{r}")


def cusp_round(seed, r, directory):
    """Every squarefree D in 2..SWEEP_MAX_D in seeded order.  Round 0 runs
    ``cusp resolve -D D`` on the maximal order, which includes the Pell
    search; later rounds run ``cusp resolve`` and ``cusp fan`` on a fresh
    SL2(Z) basis of the maximal order with the unit given, so every round
    has the same mix of discriminants and inputs never repeat."""
    rng = _rng("cusp-sweep", seed, r)
    Ds = [D for D in range(2, SWEEP_MAX_D + 1) if ck.is_squarefree(D)]
    rng.shuffle(Ds)
    if r == 0:
        return [
            {"kind": "cusp-resolve", "argv": ["cusp", "resolve", "-D", str(D)], "D": D,
             "basis": ck.identity(2), "inputs": []}
            for D in Ds
        ]
    jobs = []
    for D in Ds:
        P = sl2_basis(seed, D, r - 1)
        extra = cusp_basis_args(D, P)
        for kind in ("resolve", "fan"):
            jobs.append({"kind": f"cusp-{kind}", "argv": ["cusp", kind, "-D", str(D)] + extra,
                         "D": D, "basis": P, "inputs": []})
    return jobs


def sl2_basis(seed, D, i):
    """The i-th basis of a seeded walk through SL2_POOL; distinct for the
    first len(SL2_POOL) values of i."""
    order = list(SL2_POOL)
    random.Random(f"sl2:{seed}:{D}").shuffle(order)
    return order[i % len(order)]


def validate_round(seed, r, directory):
    """Eleven jobs of fixed shape; the seed only chooses the signed
    permutations that move them (``seeded_move``).  Four finish well below
    the median (the D = 3 cusp atlas check, SB atlas reconstruction,
    frame-defect check, the one-vertex cusp fan of D = 5), four above it (SB
    fan, SB mutant, octant fan, the three-vertex cusp fan of D = 13), and the
    two-vertex cusp fans of D = 2, 6 and 7 sit at it, so the median falls
    inside one job kind rather than in a gap between kinds."""
    jobs = []

    def validate(name, doc, expect):
        path = write(directory, name, doc)
        jobs.append({"kind": "validate", "argv": ["fan", "validate", path], "expect": expect, "inputs": [path]})

    def rational(role, rank, members):
        P, B = seeded_move(seed, r, rank, role)
        return moved_fan(ck.mat_mul(P, B), rank, members)

    def cusp(D):
        # B * P relabels and negates the basis vectors of the fixed basis B.
        P, B = seeded_move(seed, r, 2, f"cusp{D}")
        return cusp_fan(D, ck.mat_mul(B, P))

    sb_members = stern_brocot_members(stern_brocot_rays(SB_MEDIANTS))
    sb, sb_support = rational("sb", 2, sb_members)
    validate("sb", rational_fan_doc(2, sb, sb_support), True)
    mutant = [m for i, m in enumerate(sb_members) if i != SB_MUTANT_DROP]
    other, other_support = rational("sb-mutant", 2, mutant)
    validate("sb-mutant", rational_fan_doc(2, other, other_support), False)
    octant, octant_support = rational("octant", 3, octant_members(OCTANT_STEPS))
    validate("octant", rational_fan_doc(3, octant, octant_support), True)
    for D in (2, 5, 6, 7, 13):
        validate(f"cusp{D}", cusp(D)[0], True)

    doc, members, E = cusp(3)
    path = write(directory, "cusp-atlas", atlas_doc(2, members, doc["support"], [E]))
    jobs.append({"kind": "atlas-check", "argv": ["atlas", "check", path], "expect": True, "rank": 2, "inputs": [path]})
    sb_atlas = atlas_doc(2, sb, rational_fan_doc(2, sb, sb_support)["support"])
    path = write(directory, "sb-atlas", sb_atlas)
    jobs.append({"kind": "atlas-reconstruct", "argv": ["atlas", "reconstruct", path], "rank": 2,
                 "fan": [sorted(m) for m in sb], "inputs": [path]})
    path = write(directory, "sb-atlas-mutant", double_first_frame_row(sb_atlas))
    jobs.append({"kind": "atlas-check", "argv": ["atlas", "check", path], "expect": False, "rank": 2, "inputs": [path]})
    return jobs


# -- monodromy and series ---------------------------------------------------------------


def chain_operator(n):
    return [[int(i == j or i == j + 1) for j in range(n)] for i in range(n)]


def conjugate(ops, rng):
    n = len(ops[0])
    ops_ = shears(rng, n, 2 * n)
    U, Ui = shear_product(n, ops_), shear_product(n, ops_, inverse=True)
    return [ck.mat_mul(ck.mat_mul(U, T), Ui) for T in ops]


def product_operators():
    N1 = [[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]]
    N2 = [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]]
    return [[[int(i == j) + N[i][j] for j in range(4)] for i in range(4)] for N in (N1, N2)]


def battery():
    """(operators, weight, verdict) cases whose verdicts follow from their
    construction: single chains and products are maximally unipotent; the
    rest fail commutation, unipotency, the line conditions or the weight."""
    T1, T2 = product_operators()
    both = ck.mat_mul(T1, T2)
    return [
        ([chain_operator(2)], 1, True),
        ([chain_operator(3)], 2, True),
        ([chain_operator(4)], 3, True),
        ([chain_operator(5)], 4, True),
        ([chain_operator(6)], 5, True),
        ([T1, T2], 2, True),
        ([T1, both], 2, True),
        ([chain_operator(2)], 1, True),
        ([chain_operator(4)], 3, True),
        ([T2, both], 2, True),
        ([ck.identity(2)], 1, False),
        ([[[2, 0], [0, 1]]], 1, False),
        ([[[0, -1], [1, 0]]], 1, False),
        ([[[-1, 1], [0, -1]]], 1, False),
        ([[[1, 0], [1, 1]], [[1, 1], [0, 1]]], 1, False),
        ([[[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 1]]], 1, False),
        ([chain_operator(4), chain_operator(4)], 3, False),
        ([both, both], 2, False),
        ([[[1, 0, 0], [1, 1, 0], [0, 0, 1]]], 1, False),
        ([chain_operator(4)], 2, False),
    ]


def monodromy_doc(ops, weight=None, pairing=None, omega0=None):
    return {
        "format": "monodromy/1",
        "operators": [int_rows(T) for T in ops],
        "pairing": int_rows(pairing) if pairing else None,
        "omega0": [frac(x) for x in omega0] if omega0 else None,
        "basis": None,
        "weight": weight,
    }


def antidiagonal(n):
    return [[int(i + j == n - 1) for j in range(n)] for i in range(n)]


def coords_fixtures(c):
    """Elliptic, quintic-like and product fixtures, with omega0 scaled by c."""
    return [
        ([[[1, 1], [0, 1]]], antidiagonal(2), (0, c)),
        ([chain_operator(4)], antidiagonal(4), (c, 0, 0, 0)),
        (product_operators(), antidiagonal(4), (c, 0, 0, 0)),
    ]


def series_doc(rank, terms, truncation):
    return {
        "format": "series/1",
        "rank": rank,
        "truncation": truncation,
        "complete_order": truncation,
        "terms": [{"exponent": list(e), "coefficient": frac(c)} for e, c in terms],
    }


def random_terms(rng, exponents):
    return [(e, Fraction(rng.choice((-5, -3, -2, -1, 1, 2, 3, 4)), rng.randint(1, 4))) for e in exponents]


def algebra_round(seed, r, directory):
    """The same 32 jobs in every round: conjugated chains of sizes 3, 5 and
    7, the whole conjugated battery (chains of sizes 2 to 6 among it), the
    three coordinate fixtures, and one reframing and one effectivity check
    for each rank 2, 3 and 4, the rank-3 series carrying one term outside
    the framing cone."""
    rng = _rng("algebra", seed, r)
    jobs = []
    for n in (3, 5, 7):
        ops = conjugate([chain_operator(n)], rng)
        path = write(directory, f"chain{n}", monodromy_doc(ops, weight=n - 1))
        jobs.append({"kind": "monodromy-check", "argv": ["monodromy", "check", path], "expect": True,
                     "weight": n - 1, "r": 1, "inputs": [path]})
    for i, (ops, weight, verdict) in enumerate(battery()):
        path = write(directory, f"case{i}", monodromy_doc(conjugate(ops, rng), weight=weight))
        jobs.append({"kind": "monodromy-check", "argv": ["monodromy", "check", path], "expect": verdict,
                     "weight": weight, "r": len(ops), "inputs": [path]})
    c = rng.randint(2, 9)
    for i, (ops, pairing, omega0) in enumerate(coords_fixtures(c)):
        path = write(directory, f"coords{i}", monodromy_doc(ops, pairing=pairing, omega0=omega0))
        jobs.append({"kind": "monodromy-coords", "argv": ["monodromy", "coords", path], "r": len(ops),
                     "order": 6, "inputs": [path]})
    for rank in (2, 3, 4):
        jobs += series_jobs(rng, rank, directory, effective=rank != 3)
    return jobs


def series_jobs(rng, rank, directory, effective):
    """Reframe 1500 random terms; check 800 terms built inside a random
    framing cone (plus one outside it unless ``effective``)."""
    side = (40, 12, 6)[rank - 2]
    exps = set()
    while len(exps) < 1500:
        exps.add(tuple(rng.randint(0, side) for _ in range(rank)))
    terms = random_terms(rng, sorted(exps))
    truncation = max(ck.l1(e) for e in exps)
    path = write(directory, f"reframe{rank}", series_doc(rank, terms, truncation))
    M = unimodular(rng, rank, 3)
    jobs = [{"kind": "series-reframe", "argv": ["series", "reframe", path, f"--matrix={matrix_arg(M)}"],
             "matrix": M, "terms": terms, "complete_order": truncation, "inputs": [path]}]

    F = unimodular(rng, rank, 3)
    coeffs = set()
    while len(coeffs) < 800:
        coeffs.add(tuple(rng.randint(0, side) for _ in range(rank)))
    exps = [ck.mat_vec(ck.transpose(F), cv) for cv in sorted(coeffs)]
    if not effective:
        bad = tuple(-1 if i == 0 else 2 for i in range(rank))
        exps[rng.randrange(len(exps))] = ck.mat_vec(ck.transpose(F), bad)
    exps = sorted(set(exps))
    terms = random_terms(rng, exps)
    path = write(directory, f"effective{rank}", series_doc(rank, terms, max(ck.l1(e) for e in exps)))
    M = unimodular(rng, rank, 2)
    jobs.append({"kind": "series-check",
                 "argv": ["series", "check", path, f"--framing={matrix_arg(F)}", f"--matrix={matrix_arg(M)}"],
                 "framing": F, "matrix": M, "terms": terms, "inputs": [path]})
    return jobs


def matrix_arg(M) -> str:
    return ";".join(",".join(str(x) for x in row) for row in M)


ROUNDS = {
    "cusp-sweep": cusp_round,
    "fan-validate": validate_round,
    "algebra": algebra_round,
}


def make_round(workload, seed, r, directory):
    os.makedirs(directory, exist_ok=True)
    return ROUNDS[workload](seed, r, directory)


# -- warm-up ------------------------------------------------------------------------------


def warmup_jobs(directory):
    """One small job per subcommand the workloads use, on inputs no round
    produces: the unmoved quadrant, an explicit cusp basis, the
    unconjugated elliptic operator and a three-term series.  The cusp jobs
    pass an explicit basis and unit for D = 11, which no round does."""
    os.makedirs(directory, exist_ok=True)
    quadrant = stern_brocot_members([(1, 0), (0, 1)])
    support = ck.identity(2)
    fan = write(directory, "quadrant", rational_fan_doc(2, quadrant, support))
    atlas = write(directory, "quadrant-atlas", atlas_doc(2, quadrant, rational_fan_doc(2, quadrant, support)["support"]))
    P = ck.identity(2)
    cusp = cusp_basis_args(11, P)
    mono = write(directory, "elliptic", monodromy_doc([[[1, 1], [0, 1]]], weight=1))
    coords = write(directory, "elliptic-coords", monodromy_doc([[[1, 1], [0, 1]]], pairing=antidiagonal(2), omega0=(0, 1)))
    terms = [((1, 0), Fraction(1)), ((0, 1), Fraction(2)), ((1, 1), Fraction(-1, 2))]
    ser = write(directory, "series", series_doc(2, terms, 2))
    ident = [[1, 0], [0, 1]]
    return [
        {"kind": "cusp-resolve", "argv": ["cusp", "resolve", "-D", "11"] + cusp, "D": 11, "basis": P, "inputs": []},
        {"kind": "cusp-fan", "argv": ["cusp", "fan", "-D", "11"] + cusp, "D": 11, "basis": P, "inputs": []},
        {"kind": "validate", "argv": ["fan", "validate", fan], "expect": True, "inputs": [fan]},
        {"kind": "atlas-check", "argv": ["atlas", "check", atlas], "expect": True, "rank": 2, "inputs": [atlas]},
        {"kind": "atlas-reconstruct", "argv": ["atlas", "reconstruct", atlas], "rank": 2, "fan": quadrant,
         "inputs": [atlas]},
        {"kind": "monodromy-check", "argv": ["monodromy", "check", mono], "expect": True, "weight": 1, "r": 1,
         "inputs": [mono]},
        {"kind": "monodromy-coords", "argv": ["monodromy", "coords", coords], "r": 1, "order": 6, "inputs": [coords]},
        {"kind": "series-reframe", "argv": ["series", "reframe", ser, "--matrix", "1,1;0,1"],
         "matrix": [[1, 1], [0, 1]], "terms": terms, "complete_order": 2, "inputs": [ser]},
        {"kind": "series-check", "argv": ["series", "check", ser, "--framing", "1,0;0,1", "--matrix", "1,0;1,1"],
         "framing": ident, "matrix": [[1, 0], [1, 1]], "terms": terms, "inputs": [ser]},
    ]
