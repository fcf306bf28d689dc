"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every check here is exact (rational or integer equality, never tolerance
bands); the few runtime caps are asserted with wall-clock measurements.
Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from u3local.analytic import ihara_rank_test, make_model
from u3local.cosets import (
    AuxOperatorFamily,
    EdgeForm,
    FormTriple,
    complete_biregular,
    congruence_module,
    ihara_kernel_test,
    kernel_eigenvalue_check,
    level_matrix,
    level_raising_search,
    map_i,
    map_iplus,
    pairing,
    parallel_multigraph,
    random_biregular_graph,
    twisted_complete,
    walk_operator_v0,
)
from u3local.linalg import Matrix
from u3local.lparam import (
    components_through,
    is_degenerate_satake,
    pgl2_check,
    stratum_witnesses,
)
from u3local.satake import (
    SatakeParam,
    SplitEigensystem,
    spherical_eigenvalue,
    very_eisenstein_check,
)
from u3local.scalars import is_prime
from u3local.slope import fredholm_series, newton_polygon, slope_decomposition
from u3local.tree import TreeBall, verify_composition

from .oracles import snf_reduction
from .test_cosets import GAMMA_GRAPHS
from .test_satake import interior_samples, radial_tree_oracle


def record(num, label, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:02d}: {label}")
    assert ok, f"criterion {num} failed: {label}"


@pytest.fixture(scope="module")
def test_graphs():
    rng = random.Random(20240)
    graphs = [complete_biregular(2), parallel_multigraph(2), twisted_complete(2)]
    randoms = [random_biregular_graph(2, rng.choice([2, 3, 4]), rng) for _ in range(20)]
    return graphs, randoms


def test_criterion_01_tree_identity():
    t0 = time.monotonic()
    ok = True
    for l in (2, 3):
        report = verify_composition(TreeBall(l, 4))
        ok = ok and report["ok"] and report["checked_deltas"] == 1 + l * (l**3 + 1)
    elapsed = time.monotonic() - t0
    record(1, f"walk identity on radius-4 balls, l in {{2,3}} ({elapsed:.1f}s)", ok and elapsed < 10)


def test_criterion_02_shell_counts():
    counts = TreeBall(2, 2).shell_counts()
    record(2, "radius-2 shell counts at l=2 are [1, 9, 18]", counts == [1, 9, 18])


def test_criterion_03_level_matrix(test_graphs):
    named, randoms = test_graphs
    ok = True
    for g in [named[0]] + randoms:
        block = level_matrix(g)
        ok = ok and block.report["ok"]
        for i in range(g.n0):
            ok = ok and block.composite.rows[i][i] == 9
        for j in range(g.n1):
            ok = ok and block.composite.rows[g.n0 + j][g.n0 + j] == 3
    record(3, "level-changing block matrix on K39 + 20 random biregular graphs", ok)


def test_criterion_04_kernel_eigenvalue(test_graphs):
    named, randoms = test_graphs
    ok = all(kernel_eigenvalue_check(level_matrix(g))["ok"] for g in named + randoms)
    record(4, "composite-kernel vectors have walk eigenvalue l(l^3+1)", ok)


def test_criterion_05_adjointness(test_graphs):
    named, randoms = test_graphs
    rng = random.Random(515)
    ok = True
    for g in named + randoms:
        for _ in range(100):
            t = FormTriple(
                [Fraction(rng.randint(-9, 9)) for _ in range(g.n0)],
                [Fraction(rng.randint(-9, 9)) for _ in range(g.n1)],
            )
            m = EdgeForm([Fraction(rng.randint(-9, 9)) for _ in range(g.nedges)])
            ok = ok and pairing(map_i(t, g), m) == pairing(t, map_iplus(m, g))
    record(5, "raising/lowering adjointness on 100 random pairs per graph", ok)


def test_criterion_06_graph_ihara(test_graphs):
    named, randoms = test_graphs
    primes = [p for p in range(2, 51) if is_prime(p)]
    ok = True
    for g in named + randoms:
        if not g.connected:
            continue
        for p in primes:
            rep = ihara_kernel_test(g, p)
            ok = ok and rep["kernel_dim"] == 1 and rep["ok"]
    record(6, "mod-p raising kernel is the constant pair for all p <= 50", ok)


def test_criterion_07_satake_dictionary():
    ok = True
    for l in (2, 3, 5):
        ok = ok and spherical_eigenvalue(SatakeParam(Fraction(l) ** 2, l)) == l * (l**3 + 1)
        ok = ok and spherical_eigenvalue(SatakeParam(Fraction(-l), l)) == -(l**3 + 1)
    rng = random.Random(707)
    for l in (2, 3):
        ball = TreeBall(l, 6, vertex_budget=5_000_000)
        samples = interior_samples(ball)
        alphas = []
        while len(alphas) < 20:
            a = Fraction(rng.randint(1, 25), rng.randint(1, 25)) * rng.choice([1, -1])
            if a != 0:
                alphas.append(a)
        for a in alphas:
            expected = spherical_eigenvalue(SatakeParam(a, l))
            ok = ok and all(r == expected for r in radial_tree_oracle(ball, a, samples))
    record(7, "spherical eigenvalue dictionary + radial tree oracle agreement", ok)


def test_criterion_08_moduli_proposition():
    import itertools

    t0 = time.monotonic()
    ok = True
    for l in (2, 3):
        for n in (1, 2, 3):
            for exps in itertools.product(range(4), repeat=n):
                s = Matrix.zeros(n, n)
                for i, e in enumerate(exps):
                    s.rows[i][i] = Fraction(l) ** e
                comps = components_through(s, l)
                nontrivial = any(p != (1,) * n for p in comps)
                ok = ok and (nontrivial == is_degenerate_satake(s, l))
                for part, data in stratum_witnesses(s, l).items():
                    ok = ok and data is not None and data["verified"]
    elapsed = time.monotonic() - t0
    record(8, f"components match ratio-l degeneracy with verified witnesses ({elapsed:.1f}s)",
           ok and elapsed < 30)


def test_criterion_09_pgl2_negative():
    ok = all(pgl2_check(l)["solution_dimension"] == 0 for l in (2, 3))
    record(9, "trace-zero model has zero solution space at l in {2,3}", ok)


def test_criterion_10_slope_decomposition():
    rng = random.Random(1010)
    ok = True
    count = 0
    while count < 20:
        p = rng.choice([2, 3, 5])
        n = rng.randint(2, 4)
        vals = [rng.randint(0, 3) for _ in range(n)]
        units = [rng.choice([1, -1, 1 + p, 1 - p]) for _ in range(n)]
        eigs = [u * Fraction(p) ** v for u, v in zip(units, vals)]
        g = Matrix.identity(n)
        for _ in range(3 * n):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = Fraction(rng.randint(-2, 2))
                g.rows[i] = [a + c * b for a, b in zip(g.rows[i], g.rows[j])]
        d = Matrix.zeros(n, n)
        for i, lam in enumerate(eigs):
            d.rows[i][i] = lam
        U = g @ d @ g.inverse()
        h = rng.randint(0, 3)
        dec = slope_decomposition(U, h, p, precision=20)
        polygon = newton_polygon(fredholm_series(U), p)
        ok = ok and dec.report["ok"]
        ok = ok and len(dec.q_part_basis) == polygon.length_at_most(h)
        ok = ok and len(dec.q_part_basis) == sum(1 for v in vals if v <= h)
        count += 1
    record(10, "20 planted-slope matrices: dimensions, annihilation, invertibility", ok)


def test_criterion_11_analytic_rank():
    t0 = time.monotonic()
    ok = True
    for p in (2, 3):
        for d in range(7):
            ok = ok and ihara_rank_test(make_model(p, 1, d), Fraction(1))
    elapsed = time.monotonic() - t0
    record(11, f"translated-monomial differences span every degree <= 6 ({elapsed:.1f}s)",
           ok and elapsed < 10)


def test_criterion_12_very_eisenstein():
    ok = True
    for q in (2, 5):
        deg = 1 + q + q * q
        for psi in (Fraction(1), Fraction(-1)):
            es = SplitEigensystem(q, deg / psi, deg / psi**2, 1 / psi**3)
            ok = ok and very_eisenstein_check(es, psi)
    rng = random.Random(1212)
    rejected = 0
    while rejected < 50:
        q = rng.choice([2, 5])
        psi = Fraction(rng.choice([1, -1]))
        deg = 1 + q + q * q
        t = [deg / psi, deg / psi**2, 1 / psi**3]
        slot = rng.randrange(3)
        t[slot] += Fraction(rng.randint(1, 9))
        if t[2] == 0:
            continue
        es = SplitEigensystem(q, *t)
        ok = ok and not very_eisenstein_check(es, psi)
        rejected += 1
    record(12, "abelian eigensystem pattern accepted at psi = +-1, 50 perturbations rejected", ok)


def test_criterion_13_congruence_fixtures():
    # frozen before the build from the independent elementary-reduction oracle
    expected = {
        "k39": {"torsion": [], "q12": [3, 3, 3, 3, 3, 3, 3, 9, 27], "q23": []},
        "m13": {"torsion": [], "q12": [3, 3, 3], "q23": []},
    }
    ok = True
    for name, g in (("k39", complete_biregular(2)), ("m13", parallel_multigraph(2))):
        rep = congruence_module(g)
        ok = ok and rep["torsion_invariants"] == expected[name]["torsion"]
        ok = ok and rep["q12_invariants"] == expected[name]["q12"]
        ok = ok and rep["q23_invariants"] == expected[name]["q23"]
        # re-derive the headline fixture with the oracle right here
        oracle_factors = snf_reduction(g.incidence_rows())
        ok = ok and [d for d in oracle_factors if d not in (0, 1)] == expected[name]["torsion"]
    record(13, "congruence-module outputs match oracle-frozen fixtures", ok)


def test_criterion_14_level_raising_at_q12_torsion():
    # every q12 invariant divides the last, so the primes dividing their
    # product are those dividing the last; the primes of n0 join them.  Away
    # from l+1, q12 is the torsion of coker(lambda0 I - T0) (criterion 17),
    # whose p-rank the search counts, so p | n0 is included.  p | l+1 is
    # excluded: that reduction takes the Schur complement of the (l+1) I block
    # of the composite, which needs l+1 invertible, and there the counts
    # differ (at p = l+1 on K39 the 3-rank is 9 and the count 3)
    primes = [p for p in range(2, 10**5) if is_prime(p)]
    ok, pairs = True, 0
    for make in GAMMA_GRAPHS.values():
        g = make()
        q12 = congruence_module(g)["q12_invariants"]
        top = q12[-1] if q12 else 1
        for p in sorted({p for p in primes if top * g.n0 % p == 0} | {5, 7, 11, 13}):
            if (g.l + 1) % p == 0:
                continue
            search = level_raising_search(g, p, AuxOperatorFamily.empty(g))
            p_rank = sum(1 for q in q12 if q % p == 0)
            ok = ok and p_rank == search["eigenspace_dim"] - g.n_components
            pairs += 1
    record(14, f"level raising at p is the p-rank of q12 ({pairs} graph-prime pairs)", ok)


def _order_identity(g, t0):
    """Both sides of n0 * prod(q12) = (l+1)^(n1-n0+1) * chi'(lambda0), chi the
    char poly of t0 and lambda0 = l(l^3+1), for a connected graph g."""
    prod = math.prod(congruence_module(g)["q12_invariants"])
    lam = g.l * (g.l**3 + 1)
    chi = Matrix(t0).char_poly()
    slope_at_lam = sum(k * c * lam ** (k - 1) for k, c in enumerate(chi) if k)
    return g.n0 * prod, (g.l + 1) ** (g.n1 - g.n0 + 1) * slope_at_lam


def _smith_facts(g, t0=None, lam_shift=0, power_shift=0):
    """Facts (b') and (c') on g, with M = lambda0 I - T0 and SNF(M) its nonzero
    Smith invariants by the oracle: whether prod(q12) = (l+1)^(n1-n0+#components)
    * prod SNF(M), and whether q12 and the torsion of coker M agree once every
    prime of l+1 is stripped.  ``t0``, ``lam_shift`` and ``power_shift`` build
    mutants."""
    t0 = walk_operator_v0(g) if t0 is None else t0
    lam = g.l * (g.l**3 + 1) + lam_shift
    smith = [
        d
        for d in snf_reduction([[lam * (i == j) - x for j, x in enumerate(row)] for i, row in enumerate(t0)])
        if d
    ]
    q12 = congruence_module(g)["q12_invariants"]
    power = g.n1 - g.n0 + g.n_components + power_shift
    order_ok = math.prod(q12) == (g.l + 1) ** power * math.prod(smith)
    return order_ok, _away_from(q12, g.l + 1) == _away_from(smith, g.l + 1)


def _away_from(invariants, m):
    """The invariants with every prime of m divided out, the 1s dropped."""
    out = []
    for d in invariants:
        while (common := math.gcd(d, m)) > 1:
            d //= common
        if d != 1:
            out.append(d)
    return out


def test_criterion_15_order_identity():
    # the char poly form (b) holds on connected graphs and stays the oracle; the
    # Smith form (b') holds on every graph, K39 + K39 ("k39u") among them
    graphs = [make() for make in GAMMA_GRAPHS.values()]
    connected = [g for g in graphs if g.connected]
    ok = all(lhs == rhs for lhs, rhs in (_order_identity(g, walk_operator_v0(g)) for g in connected))
    ok = ok and all(_smith_facts(g)[0] for g in graphs)
    record(
        15,
        f"n0 * prod q12 = (l+1)^(n1-n0+1) chi_T0'(lambda0) on {len(connected)} graphs, and "
        f"prod q12 = (l+1)^(n1-n0+#components) prod SNF(lambda0 I - T0) on {len(graphs)}",
        ok,
    )


def _reduced_laplacian(g):
    """The Laplacian D - A of g on V0 + V1, edge multiplicities counted, without
    its last row and column."""
    n = g.n0 + g.n1
    lap = [[0] * n for _ in range(n)]
    for v, w in g.edges:
        w += g.n0
        lap[v][v] += 1
        lap[w][w] += 1
        lap[v][w] -= 1
        lap[w][v] -= 1
    return [row[:-1] for row in lap[:-1]]


def _critical_group(rows):
    return [d for d in snf_reduction(rows) if d != 1]


def test_criterion_16_q12_is_the_critical_group():
    # the cokernel of the reduced Laplacian is the critical group (Biggs,
    # J. Algebraic Combin. 9, 1999), of order the number of spanning trees
    connected = [g for g in (make() for make in GAMMA_GRAPHS.values()) if g.connected]
    ok = all(
        _critical_group(_reduced_laplacian(g)) == congruence_module(g)["q12_invariants"]
        for g in connected
    )
    record(16, f"q12 is the critical group on {len(connected)} graphs", ok)


def test_critical_group_sees_a_changed_laplacian():
    g = complete_biregular(2)
    rows = _reduced_laplacian(g)
    assert _critical_group(rows) == congruence_module(g)["q12_invariants"]
    # the reduced Laplacian is positive definite, so this raises its determinant
    rows[0][0] += 1
    assert _critical_group(rows) != congruence_module(g)["q12_invariants"]


def test_order_identity_sees_a_changed_walk_operator():
    g = complete_biregular(2)
    t0 = walk_operator_v0(g)
    lhs, rhs = _order_identity(g, t0)
    assert lhs == rhs
    t0[0][1] += 1
    t0[1][0] += 1
    lhs, rhs = _order_identity(g, t0)
    assert lhs != rhs


def test_criterion_17_q12_is_coker_away_from_l_plus_1():
    # GAMMA_GRAPHS holds K39 + K39 as "k39u"
    graphs = [make() for make in GAMMA_GRAPHS.values()]
    ok = all(_smith_facts(g)[1] for g in graphs)
    record(17, f"q12 and coker(lambda0 I - T0) agree away from l+1 on {len(graphs)} graphs", ok)


def _symmetric_bump(t0):
    """t0 with the entries (0, 1) and (1, 0) raised by one, when n0 >= 2."""
    t0 = [row[:] for row in t0]
    if len(t0) >= 2:
        t0[0][1] += 1
        t0[1][0] += 1
    return t0


@pytest.mark.parametrize(
    "mutant, breaks_c",
    [
        (lambda g: _smith_facts(g, t0=_symmetric_bump(walk_operator_v0(g))), True),
        (lambda g: _smith_facts(g, lam_shift=1), True),
        (lambda g: _smith_facts(g, power_shift=1), False),
    ],
    ids=["t0-entry", "lambda0-plus-1", "power-plus-1"],
)
def test_smith_facts_see_mutants(mutant, breaks_c):
    facts = [mutant(make()) for make in GAMMA_GRAPHS.values()]
    assert not all(order_ok for order_ok, _ in facts)
    assert all(away_ok for _, away_ok in facts) != breaks_c
