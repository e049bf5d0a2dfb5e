"""End-to-end acceptance checks for the advertised guarantees.

Each test exercises one guarantee, prints a single PASS/FAIL line that stays
visible under output capture, and then asserts.  Run with pytest; the twelve
lines together are the acceptance summary.
"""

import json
import random
import time
from fractions import Fraction

import pytest

import fixtures
import oracles
from semitoric import (
    BoundaryAtlas,
    CuspData,
    Decomposition,
    IntMatrix,
    MaxDepthPoint,
    MonodromySet,
    Support,
    Vector,
    atlas_from_fan,
    boundary_chart,
    build_fan,
    common_refinement,
    compatibility_check,
    decompositions_match,
    effectivity_check,
    hull_vertices,
    integral_normalization,
    is_maximally_unipotent,
    is_refinement,
    laurent_nabla,
    nondescent_witness,
    quasi_canonical_coordinates,
    reconstruct,
    reframe,
    reframing_preserves_effectivity,
    sbb_decomposition,
    series,
    strata,
    torus_nabla,
    torus_scaling_pullback,
    unipotent_log,
    validate_decomposition,
    weight_spaces,
)
from semitoric import cli
from semitoric.formats import (
    canonical_dumps,
    dump_atlas,
    dump_chain,
    dump_fan,
    dump_monodromy,
    dump_series,
    load_atlas,
    load_chain,
    load_fan,
    load_monodromy,
    load_series,
)
from semitoric.monodromy import combined_log

DISCRIMINANTS = (2, 3, 5, 6, 7, 13)


@pytest.fixture
def report(capsys):
    def _report(number, ok, detail):
        with capsys.disabled():
            print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
        assert ok, f"criterion {number}: {detail}"

    return _report


def _cusp_fans():
    return [build_fan(CuspData.standard(D)) for D in DISCRIMINANTS]


def _witness_inside(witness, closure) -> bool:
    obj = witness[0]
    if isinstance(obj, Vector):
        return closure.contains(obj)
    if not obj.generators:
        return True
    return closure.contains(obj.interior_sample())


def _scale_first_frame_row(atlas: BoundaryAtlas, factor) -> BoundaryAtlas:
    p = atlas.points[0]
    frame = (tuple(x * factor for x in p.frame[0]),) + p.frame[1:]
    mutated = MaxDepthPoint(p.label, p.cone, frame)
    return BoundaryAtlas(
        atlas.rank,
        (mutated,) + atlas.points[1:],
        atlas.group,
        atlas.covers_boundary,
        atlas.support_hint,
    )


def _random_unipotent(rng, size):
    N = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i):
            N[i][j] = rng.randint(-2, 2)
    T = IntMatrix(
        tuple(tuple(int(i == j) + N[i][j] for j in range(size)) for i in range(size))
    )
    return fixtures.conjugate_operator(T, oracles.random_unimodular(rng, size))


def _random_series(rng, rank, truncation=8):
    terms = {}
    for _ in range(rng.randint(2, 6)):
        expo = tuple(rng.randint(0, 3) for _ in range(rank))
        if sum(abs(e) for e in expo) <= truncation:
            terms[expo] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    terms[tuple([1] + [0] * (rank - 1))] = Fraction(1)
    return series(rank, terms, truncation)


def _unimodular(rng, rank):
    return IntMatrix(tuple(tuple(r) for r in oracles.random_unimodular(rng, rank)))


def _nonneg_unimodular(rng, rank):
    rows = [[int(i == j) for j in range(rank)] for i in range(rank)]
    for _ in range(rng.randint(1, 4)):
        i, j = rng.sample(range(rank), 2)
        rows[i] = [a + b for a, b in zip(rows[i], rows[j])]
    return IntMatrix(tuple(tuple(r) for r in rows))


def test_criterion_01_cusp_pipeline(report):
    t0 = time.monotonic()
    problems = []
    for D in DISCRIMINANTS:
        chain = hull_vertices(CuspData.standard(D))
        cycle = oracles.minus_cf_cycle(D)
        if chain.m != len(cycle):
            problems.append(f"D={D}: m={chain.m} vs oracle {len(cycle)}")
        if min(oracles.cyclic_rotations(chain.b)) != min(
            oracles.cyclic_rotations(cycle)
        ):
            problems.append(f"D={D}: b cycle mismatch")
    chain5 = hull_vertices(CuspData.standard(5))
    if not (chain5.m == 1 and list(chain5.b) == [3]):
        problems.append(f"D=5 gave m={chain5.m}, b={list(chain5.b)}")
    elapsed = time.monotonic() - t0
    if elapsed >= 10.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds 10s")
    detail = (
        f"(m, b) matches the continued fraction oracle for "
        f"{len(DISCRIMINANTS)} discriminants in {elapsed:.2f}s"
    )
    if problems:
        detail += "; " + "; ".join(problems)
    report(1, not problems, detail)


def test_criterion_02_hull_invariants(report):
    violations = 0
    pairs = 0
    for D in DISCRIMINANTS:
        chain = hull_vertices(CuspData.standard(D))
        verts = chain.extended_vertices(periods=3)
        bs = chain.extended_b(periods=3)
        for j in range(len(verts) - 1):
            pairs += 1
            x, y = verts[j], verts[j + 1]
            if abs(x[0] * y[1] - x[1] * y[0]) != 1:
                violations += 1
        for j in range(1, len(verts) - 1):
            b = bs[j % chain.m]
            prev, cur, nxt = verts[j - 1], verts[j], verts[j + 1]
            if (prev[0] + nxt[0], prev[1] + nxt[1]) != (b * cur[0], b * cur[1]):
                violations += 1
        if not all(b >= 2 for b in bs) or max(bs) < 3:
            violations += 1
    report(
        2,
        violations == 0,
        f"hull vertex invariants hold over 3 periods, {pairs} consecutive pairs "
        f"({violations} violations)",
    )


def test_criterion_03_decomposition_axioms(report):
    rng = random.Random(103)
    pool = _cusp_fans()
    for _ in range(25):
        pool.append(fixtures.stern_brocot_fan(rng, rng.randint(3, 6)))
    for _ in range(25):
        pool.append(fixtures.octant_fan(rng, rng.randint(2, 3)))
    invalid = sum(
        1 for f in pool if not validate_decomposition(f).passed
    )
    trials = 50
    detected = 0
    for t in range(trials):
        fan = pool[t % len(pool)]
        idx = rng.randrange(len(fan.members))
        broken = Decomposition(
            fan.rank,
            tuple(m for i, m in enumerate(fan.members) if i != idx),
            fan.group,
            fan.support,
        )
        rep = validate_decomposition(broken)
        closure = fan.members[idx].closure()
        localized = any(
            _witness_inside(w, closure)
            for c in rep.conditions
            if not c.passed
            for w in c.witnesses
        )
        if not rep.passed and localized:
            detected += 1
    ok = invalid == 0 and detected == trials
    report(
        3,
        ok,
        f"all four axioms hold on {len(pool)} fans ({invalid} failures); "
        f"{detected}/{trials} injected deletions caught with a witness in the "
        f"deleted face",
    )


def test_criterion_04_sbb_face_counts(report):
    rng = random.Random(104)
    mismatches = 0
    for _ in range(50):
        cone = fixtures.random_simplicial_cone(rng)
        P = sbb_decomposition(Support(cone.closure()))
        gens = [g.as_integers() for g in cone.closure().generators]
        if len(P.members) != oracles.face_count_by_hyperplanes(gens, cone.rank):
            mismatches += 1
    report(
        4,
        mismatches == 0,
        f"face decomposition sizes equal supporting-hyperplane enumeration on "
        f"50 simplicial cones ({mismatches} mismatches)",
    )


def test_criterion_05_strata_dimensions(report):
    rng = random.Random(105)
    fans = _cusp_fans() + [
        fixtures.stern_brocot_fan(rng, 5),
        fixtures.octant_fan(rng, 3),
    ]
    mismatches = 0
    n_strata = 0
    for fan in fans:
        assert validate_decomposition(fan).passed
        for s in strata(fan):
            n_strata += 1
            if s.complex_dim != fan.rank - s.cone.dim():
                mismatches += 1
            if s.torus_dim != s.complex_dim:
                mismatches += 1
            chart = boundary_chart(s.cone, rank=fan.rank)
            if len(chart.torus_coordinates()) != s.complex_dim:
                mismatches += 1
    report(
        5,
        mismatches == 0,
        f"stratum dimension complements cone dimension and matches the limit "
        f"chart on {n_strata} strata across {len(fans)} fans "
        f"({mismatches} mismatches)",
    )


def test_criterion_06_common_refinement(report):
    rng = random.Random(106)
    failures = 0
    for _ in range(50):
        P1 = fixtures.stern_brocot_fan(rng, rng.randint(3, 5))
        P2 = fixtures.stern_brocot_fan(rng, rng.randint(3, 5))
        C = common_refinement(P1, P2)
        if not (is_refinement(C, P1) and is_refinement(C, P2)):
            failures += 1
        if not decompositions_match(C, common_refinement(P2, P1)):
            failures += 1
        if not decompositions_match(common_refinement(P1, P1), P1):
            failures += 1
    report(
        6,
        failures == 0,
        f"common refinements refine both inputs, commute, and are idempotent "
        f"on 50 rank-2 pairs ({failures} failures)",
    )


def test_criterion_07_connection_round_trip(report):
    rng = random.Random(107)
    fans = _cusp_fans()
    for _ in range(20):
        fans.append(fixtures.stern_brocot_fan(rng, rng.randint(3, 6)))
    bad_round_trips = 0
    for fan in fans:
        rec = reconstruct(atlas_from_fan(fan))
        if not decompositions_match(rec.decomposition, fan):
            bad_round_trips += 1
    mutated = 0
    bad_defects = 0
    for k, fan in enumerate(fans):
        atlas = atlas_from_fan(fan)
        if len(atlas.points) < 2:
            continue
        mutated += 1
        factor = 2 if k % 2 == 0 else Fraction(1, 2)
        cond = compatibility_check(
            _scale_first_frame_row(atlas, factor)
        ).condition("common-lattice")
        if cond.passed or not cond.witnesses:
            bad_defects += 1
            continue
        ratio = cond.witnesses[0][2]
        if max(ratio, 1 / ratio) != 2:
            bad_defects += 1
    ok = bad_round_trips == 0 and bad_defects == 0 and mutated >= 20
    report(
        7,
        ok,
        f"atlas reconstruction matches the source on {len(fans)} fans "
        f"({bad_round_trips} misses); {mutated} frame defects all reported "
        f"with lattice index 2 ({bad_defects} misses)",
    )


def test_criterion_08_nondescent_witness(report):
    w = nondescent_witness(order=4)
    flat = {0: Fraction(1)}
    pulled = torus_scaling_pullback(flat, Fraction(5))
    ok = (
        laurent_nabla({-2: 1}) == {-3: -2}
        and w.sample_nabla == {-3: Fraction(-2)}
        and w.pole_order == 3
        and w.lead_coefficient == -2
        and pulled == flat
        and torus_nabla(pulled) == {}
        and w.descends_under_scalings
        and w.obstructed_under_translations
    )
    report(
        8,
        ok,
        "nabla(t^-2 dt) = -2 t^-3 dt(x)dt with pole order 3, and the flat "
        "frame stays flat under every lattice-translation pullback",
    )


def test_criterion_09_monodromy(report):
    rng = random.Random(109)
    bad_logs = 0
    for _ in range(100):
        size = rng.randint(2, 6)
        T = _random_unipotent(rng, size)
        rows = [list(r) for r in T.rows]
        log = unipotent_log(rows)
        back = oracles.oracle_exp([list(r) for r in log])
        if back != [[Fraction(x) for x in r] for r in rows]:
            bad_logs += 1

    T1, T2 = fixtures.product_operators()
    logs = MonodromySet((T1, T2)).logs()
    seen = None
    unstable = 0
    for _ in range(100):
        a = (rng.randint(1, 12), rng.randint(1, 12))
        w0, _, w2 = weight_spaces(combined_log(logs, a), 2)
        if seen is None:
            seen = (w0, w2)
        elif (w0, w2) != seen:
            unstable += 1

    disagreements = 0
    n_pos = n_neg = 0
    for name, ops, w, expected in fixtures.max_unipotency_battery():
        n_pos += int(expected)
        n_neg += int(not expected)
        rep = is_maximally_unipotent(ops, weight=w, draws=12)
        rows = [[list(r) for r in T.rows] for T in ops]
        oracle = oracles.oracle_max_unipotent(rows, w, rng, a_draws=50, basis_draws=50)
        if rep.passed != expected or oracle != expected:
            disagreements += 1

    decides_yes = (
        is_maximally_unipotent([fixtures.elliptic_operator()], weight=1).passed
        and is_maximally_unipotent([fixtures.quintic_like_operator()], weight=3).passed
    )
    ok = (
        bad_logs == 0
        and unstable == 0
        and disagreements == 0
        and n_pos == 10
        and n_neg == 10
        and decides_yes
    )
    report(
        9,
        ok,
        f"exp(log T) = T on 100 operators ({bad_logs} misses); W0/W2 stable "
        f"over 100 draws ({unstable} changes); {n_pos}+{n_neg} verdicts match "
        f"the 50x50 randomized oracle ({disagreements} disagreements)",
    )


def test_criterion_10_quasi_canonical(report):
    Q2 = fixtures.antidiagonal_pairing(2)
    Q4 = fixtures.antidiagonal_pairing(4)
    problems = []

    qc1 = quasi_canonical_coordinates([fixtures.elliptic_operator()], Q2, (0, 1))
    if not (qc1.exact and qc1.linear_parts == ((1,),) and qc1.remainders == ({},)):
        problems.append("elliptic fixture not exact")

    qc3 = quasi_canonical_coordinates(
        [fixtures.quintic_like_operator()], Q4, (1, 0, 0, 0)
    )
    if not (qc3.exact and qc3.linear_parts == ((1,),) and qc3.remainders == ({},)):
        problems.append("quintic-like fixture not exact")

    T1, T2 = fixtures.product_operators()
    base = quasi_canonical_coordinates([T1, T2], Q4, (1, 0, 0, 0))
    scaled = quasi_canonical_coordinates([T1, T2], Q4, (7, 0, 0, 0))
    if not (base.exact and scaled.fs == base.fs):
        problems.append("omega rescale changed the coordinates")

    mset = MonodromySet((T1, T2))
    g0, gs = integral_normalization(mset)
    g0f = g0.as_fractions()
    g1f, g2f = (g.as_fractions() for g in gs)
    mu = (3, 1)
    shifted = (
        g0,
        (
            tuple(a + mu[0] * b for a, b in zip(g1f, g0f)),
            tuple(a + mu[1] * b for a, b in zip(g2f, g0f)),
        ),
    )
    qs = quasi_canonical_coordinates([T1, T2], Q4, (1, 0, 0, 0), basis=shifted)
    if not (
        qs.linear_parts == ((1, 0), (0, 1))
        and qs.remainders == ({}, {})
        and qs.constants == (Fraction(3), Fraction(1))
    ):
        problems.append("weight-respecting shift broke f = z + c")

    mixed = (g0, (tuple(a + b for a, b in zip(g1f, g2f)), g2f))
    qm = quasi_canonical_coordinates([T1, T2], Q4, (1, 0, 0, 0), basis=mixed)
    if not (
        qm.linear_parts == ((1, 0), (0, 1))
        and qm.remainders == ({}, {})
        and qm.constants == (0, 0)
    ):
        problems.append("unimodular mixing broke f = z + c")

    report(
        10,
        not problems,
        "f_j(z) = z_j + c_j exactly on the chain and product fixtures, stable "
        "under rescaling and basis changes"
        + ("; " + "; ".join(problems) if problems else ""),
    )


def test_criterion_11_series(report):
    rng = random.Random(111)
    bad_identities = 0
    for _ in range(100):
        rank = rng.choice((2, 3))
        s = _random_series(rng, rank)
        M1 = _unimodular(rng, rank)
        M2 = _unimodular(rng, rank)
        if reframe(reframe(s, M1), M1.inverse_unimodular()).terms != s.terms:
            bad_identities += 1
        if reframe(reframe(s, M1), M2).terms != reframe(s, M1 * M2).terms:
            bad_identities += 1

    false_verdicts = 0
    for i in range(100):
        rank = rng.choice((2, 3))
        M = _nonneg_unimodular(rng, rank) if i % 2 else _unimodular(rng, rank)
        rep = reframing_preserves_effectivity(M)
        basis_terms = {
            tuple(int(k == j) for k in range(rank)): Fraction(1) for j in range(rank)
        }
        oracle_says = bool(effectivity_check(reframe(series(rank, basis_terms, 8), M)))
        if bool(rep) != oracle_says:
            false_verdicts += 1
        elif not rep:
            probe = series(rank, {tuple(rep.witness): Fraction(1)}, 8)
            if not effectivity_check(probe) or effectivity_check(reframe(probe, M)):
                false_verdicts += 1
    ok = bad_identities == 0 and false_verdicts == 0
    report(
        11,
        ok,
        f"reframing round-trips and compositions exact at truncation 8 on 100 "
        f"pairs ({bad_identities} misses); effectivity verdicts agree with the "
        f"term-by-term oracle on 100 framings ({false_verdicts} false verdicts)",
    )


def test_criterion_12_cli_and_formats(report, tmp_path, capsys):
    bad_bytes = 0

    def byte_round_trip(dump_fn, load_fn, obj):
        nonlocal bad_bytes
        blob = canonical_dumps(dump_fn(obj))
        again = canonical_dumps(dump_fn(load_fn(json.loads(blob))))
        if blob != again:
            bad_bytes += 1

    chain = hull_vertices(CuspData.standard(13))
    fan5 = build_fan(CuspData.standard(5))
    rng = random.Random(112)
    rational_fan = fixtures.stern_brocot_fan(rng, 4)
    byte_round_trip(dump_chain, load_chain, chain)
    byte_round_trip(dump_fan, load_fan, fan5)
    byte_round_trip(dump_fan, load_fan, rational_fan)
    byte_round_trip(dump_atlas, load_atlas, atlas_from_fan(fan5))
    byte_round_trip(dump_series, load_series, series(2, {(1, 0): Fraction(3, 2)}, 6))

    T1, T2 = fixtures.product_operators()
    mono_doc = dump_monodromy(
        [[list(r) for r in T.rows] for T in (T1, T2)],
        pairing=fixtures.antidiagonal_pairing(4),
        omega0=(1, 0, 0, 0),
        weight=2,
    )
    blob = canonical_dumps(mono_doc)
    parsed = load_monodromy(json.loads(blob))
    again = canonical_dumps(
        dump_monodromy(
            parsed["operators"],
            parsed["pairing"],
            parsed["omega0"],
            parsed["basis"],
            parsed["weight"],
        )
    )
    if blob != again:
        bad_bytes += 1

    def write(name, doc):
        path = tmp_path / name
        path.write_text(canonical_dumps(doc))
        return str(path)

    fan_path = write("fan5.json", dump_fan(fan5))
    broken = Decomposition(fan5.rank, fan5.members[:-1], fan5.group, fan5.support)
    broken_path = write("broken.json", dump_fan(broken))
    sbb_path = str(tmp_path / "sbb.json")
    assert cli.main(["fan", "sbb", "-D", "5", "--output", sbb_path]) == 0
    good_mono = write(
        "mono.json",
        dump_monodromy([[list(r) for r in fixtures.elliptic_operator().rows]], weight=1),
    )
    degenerate = write(
        "degenerate.json",
        dump_monodromy(
            [[list(r) for r in fixtures.elliptic_operator().rows]],
            pairing=((0, 1), (-1, 0)),
            omega0=(0, 1),
        ),
    )
    effective = write("eff.json", dump_series(series(2, {(2, 1): 1}, 8)))
    negative = write("neg.json", dump_series(series(2, {(1, -1): 1}, 8)))

    matrix = [
        (["cusp", "resolve", "-D", "5"], 0),
        (["fan", "validate", fan_path], 0),
        (["fan", "refines", fan_path, sbb_path], 0),
        (["fan", "mumford", fan_path], 0),
        (["monodromy", "check", good_mono, "--draws", "6"], 0),
        (["series", "check", effective], 0),
        (["fan", "refines", sbb_path, fan_path], 1),
        (["fan", "validate", broken_path], 1),
        (["monodromy", "coords", degenerate], 1),
        (["series", "check", negative], 1),
        (["fan", "validate", str(tmp_path / "missing.json")], 2),
        (["cusp", "resolve", "-D", "12"], 2),
        (["fan", "sbb"], 2),
        (["series", "reframe", effective, "--matrix", "1,x;0,1"], 2),
        (["cusp", "resolve", "-D", "61", "--pell-bound", "3"], 3),
        (["cusp", "resolve", "-D", "94", "--box-limit", "64"], 3),
    ]
    wrong_exits = sum(1 for argv, want in matrix if cli.main(argv) != want)
    capsys.readouterr()
    codes = sorted({want for _, want in matrix})
    ok = bad_bytes == 0 and wrong_exits == 0 and len(matrix) >= 12 and codes == [0, 1, 2, 3]
    report(
        12,
        ok,
        f"6 document kinds re-emit byte-identically ({bad_bytes} diffs); "
        f"{len(matrix)} CLI fixtures return the contracted exit codes "
        f"({wrong_exits} wrong)",
    )
