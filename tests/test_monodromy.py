import hashlib
import random
import tracemalloc
from fractions import Fraction

import pytest

import fixtures
import oracles
from semitoric import (
    DegenerateInputError,
    ExactScalar,
    IntMatrix,
    MonodromySet,
    NotUnipotentError,
    cli,
    hermite_normal_form,
    integral_normalization,
    is_maximally_unipotent,
    m_matrix,
    minimal_polynomial,
    quasi_canonical_coordinates,
    unipotent_log,
    weight_spaces,
)
from semitoric.formats import canonical_dumps, dump_monodromy
from semitoric.monodromy import combined_log

Q2 = fixtures.antidiagonal_pairing(2)
Q4 = fixtures.antidiagonal_pairing(4)


def _random_unipotent(rng, size):
    N = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i):
            N[i][j] = rng.randint(-2, 2)
    T = IntMatrix(
        tuple(tuple(int(i == j) + N[i][j] for j in range(size)) for i in range(size))
    )
    U = oracles.random_unimodular(rng, size)
    return fixtures.conjugate_operator(T, U)


def test_minimal_polynomial_examples():
    assert minimal_polynomial(IntMatrix.identity(2)) == [-1, 1]
    assert minimal_polynomial(fixtures.elliptic_operator()) == [1, -2, 1]
    assert minimal_polynomial(IntMatrix(((2, 0), (0, 1)))) == [2, -3, 1]
    assert minimal_polynomial(IntMatrix(((0, -1), (1, 0)))) == [1, 0, 1]


def test_unipotent_log_matches_series_oracle():
    rng = random.Random(14)
    for _ in range(25):
        size = rng.randint(2, 6)
        T = _random_unipotent(rng, size)
        rows = [list(r) for r in T.rows]
        log = unipotent_log(rows)
        expected = oracles.oracle_log(rows)
        assert [list(r) for r in log] == expected
        back = oracles.oracle_exp(expected)
        assert [[Fraction(x) for x in r] for r in rows] == back


def test_not_unipotent_error_names_left_factor():
    with pytest.raises(NotUnipotentError, match=r"x - 2"):
        unipotent_log(IntMatrix(((2, 0), (0, 1))))
    with pytest.raises(NotUnipotentError, match=r"x\^2 \+ 1"):
        unipotent_log(IntMatrix(((0, -1), (1, 0))))


def test_weight_space_dims_on_chains():
    N2 = fixtures.chain_nilpotent(2)
    w0, w1, w2 = weight_spaces(N2, 1)
    assert (len(w0), len(w1), len(w2)) == (1, 1, 2)
    N4 = fixtures.chain_nilpotent(4)
    w0, w1, w2 = weight_spaces(N4, 3)
    assert (len(w0), len(w1), len(w2)) == (1, 1, 2)
    assert [tuple(map(int, v)) for v in w0] == [(0, 0, 0, 1)]


def test_weight_spaces_match_oracle_and_are_draw_independent():
    T1, T2 = fixtures.product_operators()
    mset = MonodromySet((T1, T2))
    logs = mset.logs()
    rng = random.Random(23)
    seen_w0, seen_w2 = None, None
    for _ in range(30):
        a = (rng.randint(1, 9), rng.randint(1, 9))
        from semitoric.monodromy import combined_log

        N = combined_log(logs, a)
        w0, w1, w2 = weight_spaces(N, 2)
        d0, d1, d2, (ow0, _, ow2) = oracles.oracle_weight_dims(
            [list(map(list, L)) for L in logs], a, 2, 4
        )
        assert (len(w0), len(w1), len(w2)) == (d0, d1, d2) == (1, 1, 3)
        assert list(w0) == [tuple(r) for r in ow0]
        if seen_w0 is None:
            seen_w0, seen_w2 = w0, w2
        else:
            assert w0 == seen_w0 and w2 == seen_w2


def test_monodromy_set_guards():
    with pytest.raises(DegenerateInputError):
        MonodromySet(())
    with pytest.raises(DegenerateInputError):
        MonodromySet((IntMatrix.identity(2), IntMatrix.identity(3)))
    pair = MonodromySet((IntMatrix(((1, 0), (1, 1))), IntMatrix(((1, 1), (0, 1)))))
    assert not pair.commuting()


@pytest.mark.parametrize("entry", [0.1, "1/10", None, 1j])
def test_monodromy_entries_must_be_exact_rationals(entry):
    with pytest.raises(DegenerateInputError):
        unipotent_log([[1, entry], [0, 1]])
    with pytest.raises(DegenerateInputError):
        quasi_canonical_coordinates([fixtures.elliptic_operator()], Q2, (entry, 1))


def test_monodromy_entries_take_ints_fractions_and_rational_scalars():
    expected = ((0, Fraction(1, 10)), (0, 0))
    assert unipotent_log([[1, Fraction(1, 10)], [0, 1]]) == expected
    assert unipotent_log([[ExactScalar(1), ExactScalar(Fraction(1, 10))], [0, 1]]) == expected
    with pytest.raises(DegenerateInputError):
        unipotent_log([[1, ExactScalar(0, 1, 2)], [0, 1]])


def test_maximal_unipotency_battery_against_oracle():
    rng = random.Random(29)
    for name, ops, w, expected in fixtures.max_unipotency_battery():
        rep = is_maximally_unipotent(ops, weight=w, draws=10)
        rows = [[list(r) for r in T.rows] for T in ops]
        oracle = oracles.oracle_max_unipotent(rows, w, rng, a_draws=10, basis_draws=10)
        assert rep.passed == expected, name
        assert oracle == expected, name


def test_report_names_failing_condition():
    rep = is_maximally_unipotent([IntMatrix(((2, 0), (0, 1)))], weight=1)
    assert not rep.passed
    assert rep.data["weight"] is None
    cond = rep.condition("commuting-unipotent")
    assert not cond.passed and "x - 2" in cond.details

    T1, T2 = fixtures.product_operators()
    T12 = T1 * T2
    rep = is_maximally_unipotent([T12, T12], weight=2)
    cond = rep.condition("coordinate-count")
    assert not cond.passed and "singular" in cond.details

    rep = is_maximally_unipotent([fixtures.quintic_like_operator()], weight=2)
    assert not rep.condition("bottom-weight").passed
    assert rep.data["weight"] == 3


def test_integral_normalization_adapted_basis():
    T1, T2 = fixtures.product_operators()
    g0, gs = integral_normalization((T1, T2))
    assert g0.as_integers() == (0, 0, 0, 1)
    assert [g.as_integers() for g in gs] == [(0, 1, 0, 0), (0, 0, 1, 0)]
    g0q, gsq = integral_normalization((fixtures.quintic_like_operator(),))
    assert g0q.as_integers() == (0, 0, 0, 1)
    assert len(gsq) == 1


def test_integral_normalization_transports_under_conjugation():
    rng = random.Random(31)
    T = fixtures.quintic_like_operator()
    g0, gs = integral_normalization((T,))
    for _ in range(5):
        U = oracles.random_unimodular(rng, 4)
        Tc = fixtures.conjugate_operator(T, U)
        g0c, gsc = integral_normalization((Tc,))
        moved = tuple(
            sum(U[i][j] * x for j, x in enumerate(g0.as_integers()))
            for i in range(4)
        )
        assert g0c.as_integers() in (moved, tuple(-x for x in moved))


def test_m_matrix_values():
    T1, T2 = fixtures.product_operators()
    mset = MonodromySet((T1, T2))
    g0, gs = integral_normalization(mset)
    m = m_matrix(
        mset.logs(), g0.as_fractions(), [g.as_fractions() for g in gs]
    )
    assert m == [[1, 0], [0, 1]]
    q = MonodromySet((fixtures.quintic_like_operator(),))
    g0q, gsq = integral_normalization(q)
    mq = m_matrix(q.logs(), g0q.as_fractions(), [g.as_fractions() for g in gsq])
    assert mq == [[1]]


def test_coordinates_contract_the_basis_against_the_first_slot():
    """<g | w> = g^T Q w.  On the elliptic operator with omega0 = (0, 1),
    g0 = (1, 0) and g1 = (0, 1), the Q below gives <g0 | omega> = 2 + z and
    <g1 | omega> = 4 + 3z, so f = (4 + 3z) / (2 + z); its transpose would
    give (4 + 2z) / (3 + z)."""
    Q = ((1, 2), (3, 4))
    qc = quasi_canonical_coordinates([fixtures.elliptic_operator()], Q, (0, 1), order=3)
    assert qc.fs == ({(0,): 2, (1,): Fraction(1, 2), (2,): Fraction(-1, 4), (3,): Fraction(1, 8)},)


def test_quasi_canonical_exact_on_chain_fixtures():
    qc = quasi_canonical_coordinates([fixtures.elliptic_operator()], Q2, (0, 1))
    assert qc.exact and not qc.degenerate
    assert qc.constants == (0,)
    assert qc.linear_parts == ((1,),)
    assert qc.remainders == ({},)
    assert qc.m == ((1,),)
    assert qc.q_descriptions() == ("q_1 = exp(2*pi*i*(z_1))",)

    qc4 = quasi_canonical_coordinates(
        [fixtures.quintic_like_operator()], Q4, (1, 0, 0, 0)
    )
    assert qc4.exact and not qc4.degenerate
    assert qc4.constants == (0,) and qc4.linear_parts == ((1,),)


def test_quasi_canonical_is_exact_at_the_last_degree_of_omega():
    """omega(z) stops at degree 1 for the elliptic fixture and at degree 3
    for the quintic-like one; an order that reaches that degree loses
    nothing, one below it truncates."""
    elliptic = quasi_canonical_coordinates([fixtures.elliptic_operator()], Q2, (0, 1), order=1)
    assert elliptic.exact
    quintic = [fixtures.quintic_like_operator()]
    assert quasi_canonical_coordinates(quintic, Q4, (1, 0, 0, 0), order=3).exact
    assert not quasi_canonical_coordinates(quintic, Q4, (1, 0, 0, 0), order=2).exact


def test_quasi_canonical_inverts_a_nonconstant_bottom_pairing():
    """A dense pairing makes <g0, omega(z)> a non-constant series, so it is
    inverted term by term, and orders below the nilpotency index truncate
    omega(z); f_1 <g0, omega> must still equal (m^-1)_11 <g1, omega> up to
    the order."""
    T = fixtures.quintic_like_operator()
    Q = ((1, 1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 3, 1))
    omega0 = (1, 1, 1, 1)
    N = oracles.oracle_log([list(row) for row in T.rows])
    g0, (g1,) = integral_normalization((T,))

    def pairing_series(g, order):
        """Coefficients of z^0..z^order of <g, exp(z N) omega0>."""
        out, w, fact = [], [Fraction(x) for x in omega0], 1
        for d in range(order + 1):
            fact *= max(d, 1)
            out.append(sum(Fraction(gi) * Q[i][j] * w[j] for i, gi in enumerate(g)
                           for j in range(4)) / fact)
            w = [sum(N[i][j] * w[j] for j in range(4)) for i in range(4)]
        return out

    for order in (1, 3, 6):
        qc = quasi_canonical_coordinates([T], Q, omega0, order=order)
        assert not qc.exact and qc.degenerate
        denom = pairing_series(g0.as_fractions(), order)
        assert any(denom[1:])
        numer = pairing_series(g1.as_fractions(), order)
        m_inv = 1 / Fraction(qc.m[0][0])
        f = [qc.fs[0].get((d,), Fraction(0)) for d in range(order + 1)]
        product = [sum(f[i] * denom[d - i] for i in range(d + 1)) for d in range(order + 1)]
        assert product == [m_inv * c for c in numer]


def test_quasi_canonical_exact_on_product():
    T1, T2 = fixtures.product_operators()
    qc = quasi_canonical_coordinates([T1, T2], Q4, (1, 0, 0, 0))
    assert qc.exact and not qc.degenerate
    assert qc.constants == (0, 0)
    assert qc.linear_parts == ((1, 0), (0, 1))
    assert qc.q_descriptions() == (
        "q_1 = exp(2*pi*i*(z_1))",
        "q_2 = exp(2*pi*i*(z_2))",
    )


def test_quasi_canonical_invariant_under_omega_rescale():
    T1, T2 = fixtures.product_operators()
    base = quasi_canonical_coordinates([T1, T2], Q4, (1, 0, 0, 0))
    scaled = quasi_canonical_coordinates([T1, T2], Q4, (3, 0, 0, 0))
    assert scaled.fs == base.fs


def test_quasi_canonical_under_filtration_respecting_changes():
    T1, T2 = fixtures.product_operators()
    mset = MonodromySet((T1, T2))
    g0, gs = integral_normalization(mset)
    g0f = g0.as_fractions()
    g1f, g2f = (g.as_fractions() for g in gs)

    mu = (2, 0)
    shifted_basis = (
        g0,
        (
            tuple(a + mu[0] * b for a, b in zip(g1f, g0f)),
            tuple(a + mu[1] * b for a, b in zip(g2f, g0f)),
        ),
    )
    qc = quasi_canonical_coordinates([T1, T2], Q4, (1, 0, 0, 0), basis=shifted_basis)
    assert not qc.degenerate
    assert qc.linear_parts == ((1, 0), (0, 1))
    assert qc.remainders == ({}, {})
    m_inv = [[1, 0], [0, 1]]
    expected = tuple(
        sum(Fraction(mu[k]) * m_inv[k][j] for k in range(2)) for j in range(2)
    )
    assert qc.constants == expected

    mixed_basis = (g0, (tuple(a + b for a, b in zip(g1f, g2f)), g2f))
    qm = quasi_canonical_coordinates([T1, T2], Q4, (1, 0, 0, 0), basis=mixed_basis)
    assert not qm.degenerate
    assert qm.constants == (0, 0)
    assert qm.linear_parts == ((1, 0), (0, 1))
    assert qm.m == ((1, 0), (1, 1))


def test_quasi_canonical_flags_sign_degeneracy():
    Qa = ((0, 1), (-1, 0))
    qc = quasi_canonical_coordinates([fixtures.elliptic_operator()], Qa, (0, 1))
    assert qc.degenerate
    assert qc.linear_parts == ((-1,),)
    assert qc.q_descriptions() == ("q_1 = exp(2*pi*i*(-z_1))",)


def _chain(size):
    return IntMatrix(
        tuple(tuple(int(i == j or i == j + 1) for j in range(size)) for i in range(size))
    )


def _direct_sum(*blocks):
    size = sum(B.nrows for B in blocks)
    rows = [[0] * size for _ in range(size)]
    at = 0
    for B in blocks:
        for i, row in enumerate(B.rows):
            rows[at + i][at : at + B.nrows] = row
        at += B.nrows
    return IntMatrix(tuple(tuple(r) for r in rows))


def test_unipotent_log_of_rational_operators_matches_oracles():
    half = [[1, Fraction(1, 2)], [0, 1]]
    log = unipotent_log(half)
    assert [list(r) for r in log] == oracles.oracle_log(half) == [[0, Fraction(1, 2)], [0, 0]]
    rng = random.Random(41)
    for _ in range(20):
        size = rng.randint(2, 6)
        lower = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) if i > j else 0 for j in range(size)]
            for i in range(size)
        ]
        rows = [[int(i == j) + x for j, x in enumerate(row)] for i, row in enumerate(lower)]
        log = unipotent_log(rows)
        expected = oracles.oracle_log(rows)
        assert [list(r) for r in log] == expected
        assert oracles.oracle_exp(expected) == rows
    assert unipotent_log(IntMatrix.identity(3)) == ((0, 0, 0),) * 3


def test_weight_spaces_and_dims_match_oracle_on_chains_and_products():
    rng = random.Random(43)
    T1, T2 = fixtures.product_operators()
    cases = [
        ((fixtures.conjugate_operator(_chain(d), oracles.random_unimodular(rng, d)),), d - 1)
        for d in range(2, 10)
    ]
    cases += [
        ((T1, T2), 2),
        ((T1, T1 * T2), 2),
        ((_direct_sum(_chain(2), _chain(2)),), 1),
        ((_direct_sum(_chain(3), _chain(2)),), 2),
        ((IntMatrix.identity(3),), 0),
    ]
    for ops, n in cases:
        mset = MonodromySet(ops)
        logs = mset.logs()
        rows = [[list(r) for r in L] for L in logs]
        d = mset.dim
        for a in [(1,) * mset.r] + [tuple(rng.randint(1, 9) for _ in ops) for _ in range(2)]:
            N = combined_log(logs, a)
            for k in range(-1, d + 1):
                d0, d1, d2, bases = oracles.oracle_weight_dims(rows, a, k, d)
                assert weight_spaces(N, k) == tuple(list(b) for b in bases), (d, a, k)
        d0, d1, d2, _ = oracles.oracle_weight_dims(rows, (1,) * mset.r, n, d)
        rep = is_maximally_unipotent(mset, draws=3)
        assert rep.data["weight"] == n
        assert rep.data["dims"] == {"W0": d0, "W1": d1, "W2": d2}, (d, n)


def _nilpotency_degree(logs, a, dim):
    """The largest k with N^k != 0 for N = sum a_j logs[j], by brute force."""
    N = oracles._cleared(
        [[sum(Fraction(a[j]) * L[i][k] for j, L in enumerate(logs)) for k in range(dim)]
         for i in range(dim)]
    )
    power, k = [[int(i == j) for j in range(dim)] for i in range(dim)], 0
    while not oracles.mat_is_zero(oracles._int_mul(power, N)):
        power, k = oracles._int_mul(power, N), k + 1
    return k


def _draw_battery():
    """(name, operators): conjugated single chains (r = 1), the product
    pair, and a repeated chain whose combinations N_a all lie on one ray."""
    rng = random.Random(47)
    cases = [
        (f"chain-{d}", (fixtures.conjugate_operator(_chain(d), oracles.random_unimodular(rng, d)),))
        for d in range(2, 8)
    ]
    return cases + [
        ("product", fixtures.product_operators()),
        ("duplicate-chain-4", (_chain(4), _chain(4))),
    ]


@pytest.mark.parametrize("draws", [0, 1, 20])
@pytest.mark.parametrize("seed", [7, 11])
def test_draw_report_matches_the_oracle_at_every_seeded_sample(draws, seed):
    """The weight data and the bottom-weight details of
    ``is_maximally_unipotent`` are those of the oracle evaluated at
    (1, ..., 1) and at each of the ``draws`` seeded positive draws."""
    for name, ops in _draw_battery():
        mset = MonodromySet(ops)
        logs = [[list(r) for r in L] for L in mset.logs()]
        rng = random.Random(seed)
        samples = [(1,) * mset.r] + [
            tuple(rng.randint(1, 9) for _ in range(mset.r)) for _ in range(draws)
        ]
        weights, dims = set(), [set(), set(), set()]
        for a in samples:
            n = _nilpotency_degree(logs, a, mset.dim)
            weights.add(n)
            for seen, dim in zip(dims, oracles.oracle_weight_dims(logs, a, n, mset.dim)):
                seen.add(dim)
        rep = is_maximally_unipotent(ops, draws=draws, seed=seed)
        assert rep.data == {
            "weight": max(weights),
            "dims": {"W0": max(dims[0]), "W1": max(dims[1]), "W2": max(dims[2])},
            "draws": draws + 1,
        }, name
        assert rep.condition("bottom-weight").details == (
            f"nilpotency degree {sorted(weights)}, dim W0 {sorted(dims[0])}, "
            f"dim W1 {sorted(dims[1])} over {draws + 1} draws"
        ), name


def _traced_peak(draws):
    ops = (fixtures.conjugate_operator(_chain(4), oracles.random_unimodular(random.Random(53), 4)),)
    # an untraced call first, so one-time interpreter allocations do not count
    is_maximally_unipotent(ops, draws=draws)
    tracemalloc.start()
    try:
        rep = is_maximally_unipotent(ops, draws=draws)
        return tracemalloc.get_traced_memory()[1], rep
    finally:
        tracemalloc.stop()


def test_draws_are_generated_as_the_loop_needs_them():
    """Peak traced memory does not grow with the number of draws of a
    single operator: no list of samples is built up front."""
    small, _ = _traced_peak(20)
    large, rep = _traced_peak(20_000)
    assert rep.passed and rep.data["draws"] == 20_001
    assert large < small + 16_384, (small, large)


# -- conjugated fixtures through the CLI ------------------------------------------------

MAX_UNIPOTENT_FIXTURES = {
    name: (ops, weight) for name, ops, weight, passed in fixtures.max_unipotency_battery() if passed
}

# sha256 over the exit codes and stdout of `monodromy check` and `monodromy
# coords` on four seeded unimodular conjugates of each fixture (see
# _conjugates), recorded while basis completion still went through a Smith
# form.
CONJUGATED_STDOUT_SHA256 = {
    "chain-2": "e244a92a310ae1815c21b2f597e3b7a1b578b25f7e9172effba8a7606cdad43c",
    "chain-2-conjugated": "7687436e0351da5cefd63711d80994118f78ce4dc26c78e1b81429d1d1a5de6d",
    "chain-3": "3afe147b48c46ec9020a52063b830afe8e32797936f29ce2e38f52f49fe053ea",
    "chain-4": "0b9137ac44a0b66516ad7ea7eb3d79a3edb4057d648176b8490051d6a3aa1dfd",
    "chain-4-conjugated": "096e41d98c1b4ceeb8a08a10b3b82b13424f2dc69b7773161e09bcd03ee0a0c6",
    "chain-5": "ba87e138f39740a3d8d635c80321a0ff97bbf2cfaa9765364a5c8771acb74778",
    "chain-6": "8295d0598202251e83fa7fb09be70e26fdce12fdf3d9cd1c18fff8e73f2dfa19",
    "product": "1d5d3a26c327d267731df5a22b45136bc110fdb8fa3ab92633e3888c5cabe1c5",
    "product-conjugated": "81339965420e882ef71574747f743895c1b3c237bb2b2ea1eefbda76b3465240",
    "product-mixed": "235b455c41918f8df5cac78b28d34e080ebb1ee791d5f2a8b17eb1dbc76a3e8c",
}


def _conjugates(name):
    """Four (operators, check document, coords document) triples: the
    fixture moved by a seeded unimodular U, with the antidiagonal pairing Q
    moved to U^-T Q U^-1 and omega0 = e_1 to U e_1, so every pairing is
    unchanged."""
    ops, weight = MAX_UNIPOTENT_FIXTURES[name]
    n = ops[0].nrows
    rng = random.Random(f"conjugate {name}")
    Q = fixtures.antidiagonal_pairing(n)
    out = []
    for _ in range(4):
        U = oracles.random_unimodular(rng, n)
        Ui = oracles.invert_unimodular(U)
        moved = [fixtures.conjugate_operator(T, U) for T in ops]
        rows = [[list(r) for r in T.rows] for T in moved]
        pairing = oracles.mat_mul(oracles.mat_mul(list(zip(*Ui)), Q), Ui)
        omega0 = [row[0] for row in U]
        out.append(
            (
                moved,
                dump_monodromy(rows, weight=weight),
                dump_monodromy(rows, pairing=pairing, omega0=omega0),
            )
        )
    return out


@pytest.mark.parametrize("name", sorted(MAX_UNIPOTENT_FIXTURES))
def test_conjugated_fixtures_keep_their_cli_output(name, tmp_path, capsys):
    """`monodromy check` and `coords` print the recorded documents on
    conjugated fixtures, and the adapted basis is a basis of the lattice of
    v with every N_j v on the g0 line: g0 and the Hermite-reduced rest are
    saturated, of rank r + 1, inside that lattice."""
    digest = hashlib.sha256()
    for i, (ops, check, coords) in enumerate(_conjugates(name)):
        for command, doc in (("check", check), ("coords", coords)):
            path = tmp_path / f"{command}{i}.json"
            path.write_text(canonical_dumps(doc))
            code = cli.main(["monodromy", command, str(path)])
            digest.update(f"{code}\n".encode() + capsys.readouterr().out.encode())
        g0, gs = integral_normalization(ops)
        g0, rest = g0.as_integers(), [g.as_integers() for g in gs]
        assert hermite_normal_form(IntMatrix(rest))[0].rows == tuple(rest)
        d, p = len(g0), next(i for i, x in enumerate(g0) if x)
        logs = [oracles.oracle_log([list(r) for r in T.rows]) for T in ops]
        constraints = [
            [g0[p] * N[i][j] - g0[i] * N[p][j] for j in range(d)]
            for N in logs
            for i in range(d)
            if i != p
        ]
        lattice = oracles.kernel(constraints, d)
        assert len(lattice) == len(ops) + 1
        assert oracles.rank(lattice + [g0] + rest) == len(ops) + 1
        assert oracles.maximal_minor_gcd([g0] + rest, d) == 1
    assert digest.hexdigest() == CONJUGATED_STDOUT_SHA256[name]
