"""Command line front end: every subcommand runs one bundle of exact checks
and emits a single deterministic structured report.

Reports are JSON documents with sorted keys: a command echo, an input digest,
a results tree, and a list of named assertions.  The process exits 0 exactly
when every assertion passed.  Identical invocations produce byte-identical
output; timing is only included on request (it breaks determinism).
"""

from __future__ import annotations

import argparse
import enum
import json
import math
import re
import sys
import time
from collections import Counter
from fractions import Fraction

from . import analytic, cosets, lparam, satake, slope, tree
from .linalg import QQ, Matrix
from .poly import Poly
from .scalars import require_prime


def _digits(n: int) -> str:
    """str(n), in time near linear in the digits where str() is quadratic (a
    2 M-digit int takes over a minute): n is split by bits, and the halves are
    rebuilt in decimal arithmetic, exact at unbounded precision, where libmpdec
    multiplies large operands by number-theoretic transform."""
    if n.bit_length() <= 4096:
        return str(n)
    import decimal  # off the start-up path: few reports hold such numbers

    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    powers = {}

    def wide(m, bits):
        if bits <= 4096:
            return decimal.Decimal(m)
        h = bits // 2
        if h not in powers:
            powers[h] = ctx.power(2, h)
        high = ctx.multiply(wide(m >> h, bits - h), powers[h])
        return ctx.add(high, wide(m & ((1 << h) - 1), h))

    return ("-" if n < 0 else "") + str(wide(abs(n), n.bit_length()))


def _rational_text(x) -> str:
    """str(x) of an int or a Fraction, by way of ``_digits``."""
    if isinstance(x, Fraction) and x.denominator != 1:
        return f"{_digits(x.numerator)}/{_digits(x.denominator)}"
    return _digits(int(x))


def jsonable(x):
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return x
    if isinstance(x, float):
        return "inf" if x == float("inf") else x
    if isinstance(x, Fraction):
        return _rational_text(x)
    if isinstance(x, enum.Enum):
        return x.value
    if isinstance(x, Poly):
        return [_rational_text(c) for c in x.coeffs]
    if isinstance(x, Matrix):
        return [[_rational_text(c) for c in row] for row in x.rows]
    if isinstance(x, dict):
        return {_key(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted((jsonable(v) for v in x), key=repr)
    return str(x)


def _key(k):
    if isinstance(k, str):
        return k
    if isinstance(k, tuple):
        return ",".join(str(v) for v in k)
    return str(k)


def digest(payload: str) -> str:
    import hashlib  # off the start-up path: only graph and matrix files are digested

    return hashlib.sha256(payload.encode()).hexdigest()[:16]


class Report:
    def __init__(self, command: str, inputs: dict):
        self.command = command
        self.inputs = inputs
        self.results = {}
        self.assertions = []

    def put(self, key, value):
        self.results[key] = jsonable(value)

    def check(self, name, passed, detail=None):
        entry = {"name": name, "passed": bool(passed)}
        if detail is not None:
            entry["detail"] = jsonable(detail)
        self.assertions.append(entry)

    @property
    def passed(self):
        return all(a["passed"] for a in self.assertions)

    def document(self, timing=None):
        doc = {
            "command": self.command,
            "inputs": jsonable(self.inputs),
            "results": self.results,
            "assertions": self.assertions,
            "passed": self.passed,
        }
        if timing is not None:
            doc["timing_ms"] = timing
        return doc

    def render(self, fmt="json", timing=None):
        doc = self.document(timing)
        if fmt == "json":
            return json.dumps(doc, sort_keys=True, indent=2) + "\n"
        lines = [f"== {self.command} =="]
        for key in sorted(self.results):
            lines.append(f"  {key}: {json.dumps(self.results[key], sort_keys=True)}")
        for a in self.assertions:
            tag = "PASS" if a["passed"] else "FAIL"
            lines.append(f"{tag}  {a['name']}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


# a decimal exponent as Fraction reads one: the last thing in the token
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def _exponent_bits(tokens) -> int:
    """Bits of the powers of ten the decimal exponents of ``tokens`` ask for:
    |e|·bit_length(10) per token, the estimate of the l^e tokens of --diag."""
    exps = (_EXPONENT.search(tok) for tok in tokens)
    return sum(abs(int(m[1])) for m in exps if m) * (10).bit_length()


def _digit_bits(tokens) -> int:
    """Bits of the numbers the digits of ``tokens`` spell, exponents aside:
    bit_length(10) per digit, since k digits are below 16^k."""
    return sum(sum(map(str.isdigit, _EXPONENT.sub("", tok))) for tok in tokens) * 4


def parse_fraction(text: str, budget: int) -> Fraction:
    """The one parser from text to a rational.  A decimal exponent whose power of
    ten, or digits whose number, would pass ``budget`` bits are refused before
    the number is formed (reading a decimal string takes time quadratic in
    its length)."""
    _within_decimal_budget([text], budget)
    return Fraction(text)


def _within_decimal_budget(tokens, budget: int):
    bits = _exponent_bits(tokens)
    _within_budget(bits, budget, f"decimal exponents of {bits} bits")
    bits = _digit_bits(tokens)
    _within_budget(bits, budget, f"decimal digits of {bits} bits")


def parse_diag(spec: str, l: int, budget: int):
    """Comma list of diagonal entries; tokens may use the letter l, e.g. l^2.

    The estimate is n^2 times the square of the 64-bit words the entries hold
    (powers of l, powers of ten and digits): the cost of long divisions of
    numbers as large as the product of the n entries on up to n^2 rows, as a
    determinant of phi would do.  The solution space tests invertibility by a
    rank and meets only differences phi_i - l phi_j, so the estimate is an
    upper bound, kept so that no input it refused before now runs.  It is
    checked before any power is formed."""
    tokens = [tok.strip() for tok in spec.split(",")]
    plain = [tok for tok in tokens if not tok.startswith("l^")]
    bits = sum(abs(int(tok[2:])) for tok in tokens if tok.startswith("l^")) * l.bit_length()
    bits += _exponent_bits(plain) + _digit_bits(plain)
    words = -(-bits // 64)
    _within_budget(len(tokens) ** 2 * words**2, budget, f"--diag entries of {bits} bits")
    entries = []
    for tok in tokens:
        if tok.startswith("l^"):
            entries.append(QQ.exact(Fraction(l) ** int(tok[2:])))
        elif tok == "l":
            entries.append(l)
        else:
            entries.append(QQ.exact(parse_fraction(tok, budget)))
    n = len(entries)
    return Matrix.from_support(n, n, {(i, i): x for i, x in enumerate(entries)})


def parse_matrix(spec: str, budget: int) -> Matrix:
    rows = [row.split(",") for row in spec.split(";")]
    _within_decimal_budget([x for row in rows for x in row], budget)
    return Matrix([[QQ.exact(parse_fraction(x, budget)) for x in row] for row in rows])


def parse_poly(spec: str, budget: int) -> Poly:
    tokens = spec.split(",")
    _within_decimal_budget(tokens, budget)
    return Poly([parse_fraction(x, budget) for x in tokens])


def _within_budget(estimate: int, budget: int, work: str):
    """Refuse work whose estimated size passes --budget, before it starts."""
    if estimate > budget:
        raise ValueError(f"{work} would pass the budget {budget}; raise --budget to run it")


# --- subcommand bodies -------------------------------------------------------


def cmd_tree_verify(args):
    rep = Report("tree verify", {"l": args.l, "radius": args.radius})
    ball = tree.TreeBall(args.l, args.radius, vertex_budget=args.budget)
    rep.put("shell_counts", ball.shell_counts())
    rep.put("vertices", ball.size)
    rep.check(
        "shell_counts_follow_growth_law",
        ball.shell_counts() == tree.expected_shell_counts(args.l, args.radius),
    )
    comp = tree.verify_composition(ball)
    rep.put("composition_checked_deltas", comp["checked_deltas"])
    rep.check("composition_identity", comp["ok"], comp["violations"][:3])
    mirror = tree.verify_mirror_composition(ball)
    rep.put("mirror_checked_deltas", mirror["checked_deltas"])
    rep.check("mirror_identity", mirror["ok"], mirror["violations"][:3])
    return rep


def _load_graph_file(path):
    with open(path) as fh:
        text = fh.read()
    return cosets.load_graph(text), digest(text)


def cmd_graph_analyze(args):
    g, text_digest = _load_graph_file(args.path)
    rep = Report("graph analyze", {"path_digest": text_digest, "prime": args.prime})
    rep.put("l", g.l)
    rep.put("v0", g.n0)
    rep.put("v1", g.n1)
    rep.put("edges", g.nedges)
    rep.put("components", g.n_components)
    block = cosets.level_matrix(g)
    rep.check("level_matrix_blocks", block.report["ok"], block.report)
    _, _, dims = cosets.old_new_decomposition(g)
    rep.put("old_dim", dims["old"])
    rep.put("new_dim", dims["new"])
    rep.check("old_new_direct_sum", dims["direct_sum"] and dims["orthogonal"])
    ker = cosets.kernel_eigenvalue_check(block)
    rep.put("composite_kernel_dim", ker["kernel_dim"])
    rep.check("kernel_walk_eigenvalue", ker["ok"])
    det = cosets.det_identity_check(block)
    rep.put("det_lhs", det["lhs"])
    rep.check("det_identity", det["ok"])
    if args.prime is not None:
        ihara = cosets.ihara_kernel_test(g, args.prime)
        rep.put("ihara_kernel_dim", ihara["kernel_dim"])
        rep.check("ihara_kernel_abelian", ihara["ok"])
        search = cosets.level_raising_search(
            g, args.prime, cosets.AuxOperatorFamily.empty(g)
        )
        rep.put("walk_spectrum", search["integer_walk_eigenvalues"])
        rep.put("congruent_eigenvalues", search["congruent_integer_eigenvalues"])
        rep.put("raising_candidates", search["candidates"])
    return rep


def cmd_graph_congruence(args):
    g, text_digest = _load_graph_file(args.path)
    rep = Report("graph congruence", {"path_digest": text_digest})
    data = cosets.congruence_module(g)
    for key in (
        "torsion_invariants",
        "old_lattice_rank",
        "coker_free_rank",
        "gamma_ranks",
        "q01_free_rank",
        "q12_invariants",
        "q23_invariants",
    ):
        rep.put(key, data[key])
    rep.check("gamma_chain_containments", data["containments_ok"])
    return rep


def cmd_graph_levelraise(args):
    if args.aux_limit < 0:
        raise ValueError("--aux-limit must be nonnegative")
    require_prime(args.prime)
    g, text_digest = _load_graph_file(args.path)
    inputs = {"path_digest": text_digest, "prime": args.prime, "aux": args.aux}
    rep = Report("graph levelraise", inputs)
    lab = None
    if args.labels:
        with open(args.labels) as fh:
            lab = cosets.load_labeling(fh.read(), g)
        lab.validate(g)
    # one scan of the p residues per auxiliary member, one more for the
    # characters of a nontrivial labeling; each member also costs an
    # elimination over the E-long new-space basis, counted as E x E
    members = args.aux_limit if args.aux == "auto" else 0
    scans = members + (lab is not None and lab.order > 1)
    _within_budget(
        args.prime * scans + members * g.nedges**2,
        args.budget,
        f"{scans} residue scans mod {args.prime} and {members} operators on {g.nedges} edges",
    )
    if args.aux == "auto":
        perms = cosets.find_automorphisms(g, limit=args.aux_limit + 1)
        fam = cosets.AuxOperatorFamily.from_automorphisms(g, perms[1:])
    else:
        fam = cosets.AuxOperatorFamily.empty(g)
    rep.put("aux_members", len(fam.members))
    search = cosets.level_raising_search(g, args.prime, fam, lab)
    for key in (
        "target_eigenvalue_mod_p",
        "eigenspace_dim",
        "new_space_dim",
        "integer_walk_eigenvalues",
        "congruent_integer_eigenvalues",
        "candidates",
    ):
        rep.put(key, search[key])
    rep.check("raised_candidates_found_in_new_space", search["prediction_confirmed"])
    return rep


def cmd_satake_classify(args):
    s = satake.SatakeParam(parse_fraction(args.alpha, args.budget), args.l)
    rep = Report("satake classify", {"alpha": _rational_text(s.alpha), "l": args.l})
    cls = satake.classify_principal_series(s)
    lam = satake.spherical_eigenvalue(s)
    rep.put("classification", cls)
    rep.put("eigenvalue", lam)
    steinberg = cls is satake.PrincipalSeries.CHARACTER_PLUS_STEINBERG
    rep.check(
        "classification_consistent_with_raising",
        steinberg == satake.level_raising_condition(lam, args.l),
    )
    return rep


def cmd_satake_eig(args):
    s = satake.SatakeParam(parse_fraction(args.alpha, args.budget), args.l)
    rep = Report("satake eig", {"alpha": _rational_text(s.alpha), "l": args.l})
    lam = satake.spherical_eigenvalue(s)
    rep.put("eigenvalue", lam)
    rep.put("degree", satake.deg_inert_Tl(args.l))
    rep.check("symmetric_under_inversion", lam == satake.spherical_eigenvalue(
        satake.SatakeParam(1 / s.alpha, args.l)
    ))
    return rep


def cmd_satake_ve_check(args):
    es = satake.SplitEigensystem(
        args.q, *(parse_fraction(t, args.budget) for t in (args.t1, args.t2, args.t3))
    )
    psi = parse_fraction(args.psi, args.budget)
    rep = Report(
        "satake ve-check",
        {"q": args.q, "psi": _rational_text(psi), "t": [args.t1, args.t2, args.t3]},
    )
    verdict = satake.very_eisenstein_check(es, psi)
    rep.put("very_eisenstein", verdict)
    rep.check("pattern_evaluated", True)
    return rep


def cmd_moduli_components(args):
    require_prime(args.l)
    s = parse_diag(args.diag, args.l, args.budget)
    # the witnesses walk all 2^dim 0/1 combinations of the solution space, where
    # dim = #{(i, j) : s_i = l s_j} for nonzero s_i, and each nonzero one costs
    # an n x n Jordan type; past the budget's bits the exact power does not matter
    counts = Counter(s.rows[i][i] for i in range(s.nrows))
    dim = sum(c * counts[args.l * x] for x, c in counts.items() if x)
    estimate = (2 ** min(dim, args.budget.bit_length() + 1) - 1) * s.nrows**3
    _within_budget(estimate, args.budget, f"a walk over 2^{dim} combinations of the solution space")
    rep = Report("moduli components", {"diag": args.diag, "l": args.l, "group": args.group})
    witnesses = lparam.stratum_witnesses(s, args.l)
    degenerate = lparam.is_degenerate_satake(s, args.l)
    rep.put("partitions", list(witnesses))
    rep.put("degenerate", degenerate)
    rep.put(
        "witnesses",
        {
            "|".join(map(str, part)): (
                None if w is None else {**w, "witness": w["witness"].as_dict()}
            )
            for part, w in witnesses.items()
        },
    )
    rep.check(
        "every_partition_witnessed",
        all(w is not None and w["verified"] for w in witnesses.values()),
    )
    nontrivial = any(len(p) < s.nrows for p in witnesses)
    rep.check("degeneracy_matches_components", nontrivial == degenerate)
    return rep


def cmd_moduli_witness(args):
    require_prime(args.l)
    s = parse_diag(args.diag, args.l, args.budget)
    n = s.nrows
    support = {}
    for pair in args.nilpotent.split(";"):
        i, j = (int(x) for x in pair.split(","))
        support[i, j] = 1
    N = Matrix.from_support(n, n, support)
    rep = Report(
        "moduli witness",
        {"diag": args.diag, "l": args.l, "nilpotent": args.nilpotent},
    )
    w = lparam.degeneration_witness(s, N, args.l)
    rep.put("mu", list(w.mu))
    rep.put("jordan_type", lparam.jordan_partition(N))
    rep.check("scaling_verified", w.scaling_verified)
    rep.check("path_on_stratum", w.path_on_stratum)
    return rep


def cmd_moduli_pgl2(args):
    require_prime(args.l)
    rep = Report("moduli pgl2", {"l": args.l})
    data = lparam.pgl2_check(args.l)
    rep.put("solution_dimension", data["solution_dimension"])
    rep.put("gl2_contrast_dimension", data["gl2_contrast_dimension"])
    rep.check("not_intersection_point", data["not_intersection_point"])
    return rep


def _matrix_input(args):
    """The matrix of --entries or --matrix-file, whose char poly the caller
    computes: that is refused past --budget here, before it starts."""
    if getattr(args, "matrix_file", None):
        with open(args.matrix_file) as fh:
            spec = fh.read().strip()
        U, src = parse_matrix(spec, args.budget), {"matrix_file_digest": digest(spec)}
    elif not args.entries:
        raise ValueError("provide --entries or --matrix-file")
    else:
        U, src = parse_matrix(args.entries, args.budget), {"entries": args.entries}
    _within_char_poly_budget(U, args.budget)
    return U, src


def _within_char_poly_budget(U, budget):
    """``Matrix.char_poly`` over Q reduces A = d U (d the lcm of the entry
    denominators) modulo primes below 2^61 until their product passes
    2 (1 + R)^n, R the largest absolute row sum of A: about k = b/61 + 1
    primes for a bound of b bits.  Each prime costs a Hessenberg reduction
    (n^3) and a CRT step of the n + 1 coefficients against a modulus of up to
    k words, so the estimate is k (k (n + 1) + n^3)."""
    n = U.nrows
    d = math.lcm(*(Fraction(x).denominator for r in U.rows for x in r))
    R = max((sum(abs(x) * d for x in r) for r in U.rows), default=0)
    k = (n * (1 + int(R)).bit_length() + 1) // 61 + 1
    _within_budget(
        k * (k * (n + 1) + n**3), budget, f"a {n}x{n} char poly modulo {k} word primes"
    )


def cmd_slope_series(args):
    U, src = _matrix_input(args)
    rep = Report("slope series", {**src, "p": args.p})
    P = slope.fredholm_series(U)
    np = slope.newton_polygon(P, args.p)
    rep.put("series", P)
    rep.put("polygon_vertices", np.vertices)
    rep.put("polygon_slopes", np.slopes())
    rep.check("constant_term_one", P(Fraction(0)) == 1)
    return rep


def cmd_slope_polygon(args):
    P = parse_poly(args.poly, args.budget)
    rep = Report("slope polygon", {"poly": args.poly, "p": args.p})
    np = slope.newton_polygon(P, args.p)
    rep.put("vertices", np.vertices)
    rep.put("slopes", np.slopes())
    rep.check("slopes_weakly_increasing", np.slopes() == sorted(np.slopes()))
    return rep


def _within_precision_budget(args, degree):
    """Refuse the Hensel iteration of ``slope`` past --budget before it starts:
    it solves degree x degree systems on numbers of (precision + margin) p-adic
    digits, so it costs about degree^3 times the square of their 64-bit words.
    A precision below 1 is left to the iteration's own error."""
    digits = max(args.precision, 1) + slope.RECONSTRUCTION_MARGIN
    words = -(-digits * args.p.bit_length() // 64)
    _within_budget(
        max(degree, 0) ** 3 * words**2,
        args.budget,
        f"precision {args.precision} mod {args.p} at degree {degree}",
    )


def cmd_slope_factor(args):
    P = parse_poly(args.poly, args.budget)
    h = parse_fraction(args.h, args.budget)
    _within_precision_budget(args, P.degree)
    rep = Report(
        "slope factor",
        {"poly": args.poly, "p": args.p, "h": _rational_text(h), "precision": args.precision},
    )
    fact = slope.slope_factorization(P, h, args.p, args.precision)
    rep.put("Q", fact.Q)
    rep.put("S", fact.S)
    rep.put("m", fact.m)
    rep.put("exact", fact.exact)
    residual = fact.residual_valuation(P)
    rep.check(
        "product_matches",
        residual == float("inf") or residual >= args.precision,
        str(residual),
    )
    return rep


def cmd_slope_decompose(args):
    U, src = _matrix_input(args)
    h = parse_fraction(args.h, args.budget)
    _within_precision_budget(args, U.nrows)
    rep = Report(
        "slope decompose",
        {**src, "p": args.p, "h": _rational_text(h), "precision": args.precision},
    )
    dec = slope.slope_decomposition(U, h, args.p, args.precision)
    rep.put("q_part_dim", len(dec.q_part_basis))
    rep.put("complement_dim", len(dec.complement_basis))
    rep.put("Q", dec.factorization.Q)
    rep.put("S", dec.factorization.S)
    rep.put("polygon_vertices", slope.newton_polygon(dec.series, args.p).vertices)
    for name, ok in dec.report.items():
        if name != "ok":
            rep.check(name, ok)
    return rep


def cmd_analytic_ihara(args):
    rep = Report(
        "analytic ihara",
        {"p": args.p, "m": args.m, "degree": args.degree, "delta": args.delta},
    )
    delta = parse_fraction(args.delta, args.budget)
    if args.degree < 0:
        raise ValueError("--degree must be nonnegative")
    # an upper bound on the entries the rank tests read at degrees 0..D: one
    # block per (j, k), the sum over n <= D+1 of n^2 (D+2-n)(D+3-n)/2 in closed
    # form, where the tests rank one block per side
    entries = math.comb(args.degree + 5, 5) + math.comb(args.degree + 4, 5)
    _within_budget(entries, args.budget, f"the rank tests up to degree {args.degree}")
    table = {}
    for d in range(args.degree + 1):
        model = analytic.make_model(args.p, args.m, d, budget=args.budget)
        table[d] = analytic.ihara_rank_test(model, delta)
    rep.put("balls", model.n_balls)  # (p^m)^3 at every degree
    rep.put("rank_table", table)
    rep.check("full_rank_at_every_degree", all(table.values()))
    return rep


def cmd_analytic_weight(args):
    rep = Report(
        "analytic weight",
        {
            "p": args.p,
            "level": args.level,
            "chi": [args.chi1, args.chi2, args.chi3],
        },
    )
    # the primitive root search walks the units mod p^level; for p >= 2 (any
    # other p is refused as not prime) a level past the budget's bit length is
    # past the budget without the power
    units = args.p ** min(args.level, args.budget.bit_length() + 1)
    _within_budget(units, args.budget, f"the units mod {args.p}^{args.level}")
    chis = []
    for spec in (args.chi1, args.chi2, args.chi3):
        exps = tuple(int(x) for x in spec.split(",")) if spec else ()
        chis.append(analytic.Character(args.p, args.level, exps))
    w = analytic.Weight(*chis)
    rigidity = analytic.torus_rigidity_check(w)
    witness = analytic.torus_rigidity_witness(w)
    rep.put("central", analytic.central_weight_test(w))
    rep.put("rigidity", rigidity)
    rep.put("rigidity_witness", witness)
    rep.check("rigidity_holds", rigidity)
    rep.check("witness_iff_noncentral_pair", (witness is None) == (w.chi1 == w.chi2))
    return rep


# --- argument wiring ---------------------------------------------------------


def build_parser():
    top = argparse.ArgumentParser(prog="u3local", description=__doc__)
    top.add_argument("--seed", type=int, default=0, help="seed echoed into reports")
    top.add_argument("--budget", type=int, default=2_000_000, help="bound on work estimated before it starts")
    top.add_argument("--format", choices=("json", "table"), default="json")
    top.add_argument("--timing", action="store_true", help="include elapsed ms (breaks determinism)")
    sub = top.add_subparsers(dest="group", required=True)

    tr = sub.add_parser("tree").add_subparsers(dest="cmd", required=True)
    v = tr.add_parser("verify")
    v.add_argument("--l", type=int, required=True)
    v.add_argument("--radius", type=int, required=True)
    v.set_defaults(run=cmd_tree_verify)

    gr = sub.add_parser("graph").add_subparsers(dest="cmd", required=True)
    a = gr.add_parser("analyze")
    a.add_argument("path")
    a.add_argument("--prime", type=int)
    a.set_defaults(run=cmd_graph_analyze)
    c = gr.add_parser("congruence")
    c.add_argument("path")
    c.set_defaults(run=cmd_graph_congruence)
    r = gr.add_parser("levelraise")
    r.add_argument("path")
    r.add_argument("--prime", type=int, required=True)
    r.add_argument("--labels")
    r.add_argument("--aux", choices=("auto", "none"), default="auto")
    r.add_argument("--aux-limit", type=int, default=3)
    r.set_defaults(run=cmd_graph_levelraise)

    sa = sub.add_parser("satake").add_subparsers(dest="cmd", required=True)
    cl = sa.add_parser("classify")
    cl.add_argument("--alpha", required=True)
    cl.add_argument("--l", type=int, required=True)
    cl.set_defaults(run=cmd_satake_classify)
    ei = sa.add_parser("eig")
    ei.add_argument("--alpha", required=True)
    ei.add_argument("--l", type=int, required=True)
    ei.set_defaults(run=cmd_satake_eig)
    ve = sa.add_parser("ve-check")
    ve.add_argument("--q", type=int, required=True)
    ve.add_argument("--psi", required=True)
    ve.add_argument("--t1", required=True)
    ve.add_argument("--t2", required=True)
    ve.add_argument("--t3", required=True)
    ve.set_defaults(run=cmd_satake_ve_check)

    mo = sub.add_parser("moduli").add_subparsers(dest="cmd", required=True)
    co = mo.add_parser("components")
    co.add_argument("--diag", required=True)
    co.add_argument("--l", type=int, required=True)
    co.add_argument("--group", default="gl3")
    co.set_defaults(run=cmd_moduli_components)
    wi = mo.add_parser("witness")
    wi.add_argument("--diag", required=True)
    wi.add_argument("--l", type=int, required=True)
    wi.add_argument("--nilpotent", required=True, help="support pairs like '0,1;1,2'")
    wi.set_defaults(run=cmd_moduli_witness)
    pg = mo.add_parser("pgl2")
    pg.add_argument("--l", type=int, required=True)
    pg.set_defaults(run=cmd_moduli_pgl2)

    sl = sub.add_parser("slope").add_subparsers(dest="cmd", required=True)
    se = sl.add_parser("series")
    se.add_argument("--entries", help="rows 'a,b;c,d'")
    se.add_argument("--matrix-file", help="file holding the same row format")
    se.add_argument("--p", type=int, required=True)
    se.set_defaults(run=cmd_slope_series)
    po = sl.add_parser("polygon")
    po.add_argument("--poly", required=True, help="coefficients 'a0,a1,...'")
    po.add_argument("--p", type=int, required=True)
    po.set_defaults(run=cmd_slope_polygon)
    fa = sl.add_parser("factor")
    fa.add_argument("--poly", required=True)
    fa.add_argument("--p", type=int, required=True)
    fa.add_argument("--h", required=True)
    fa.add_argument("--precision", type=int, default=20)
    fa.set_defaults(run=cmd_slope_factor)
    de = sl.add_parser("decompose")
    de.add_argument("--entries")
    de.add_argument("--matrix-file")
    de.add_argument("--p", type=int, required=True)
    de.add_argument("--h", required=True)
    de.add_argument("--precision", type=int, default=20)
    de.set_defaults(run=cmd_slope_decompose)

    an = sub.add_parser("analytic").add_subparsers(dest="cmd", required=True)
    ih = an.add_parser("ihara")
    ih.add_argument("--p", type=int, required=True)
    ih.add_argument("--m", type=int, required=True)
    ih.add_argument("--degree", type=int, required=True)
    ih.add_argument("--delta", default="1")
    ih.set_defaults(run=cmd_analytic_ihara)
    we = an.add_parser("weight")
    we.add_argument("--p", type=int, required=True)
    we.add_argument("--level", type=int, required=True)
    we.add_argument("--chi1", default="")
    we.add_argument("--chi2", default="")
    we.add_argument("--chi3", default="")
    we.set_defaults(run=cmd_analytic_weight)

    return top


_parser = None  # (builder, parser): built by the first call to main, not at import


def main(argv=None) -> int:
    global _parser
    # one parser per process; a replaced build_parser (a test's patch, a tracer's
    # wrapper) gets a parser of its own
    if _parser is None or _parser[0] is not build_parser:
        _parser = (build_parser, build_parser())
    # --budget bounds every number before it is formed, so a report prints
    # whatever the budget admits, past the interpreter's 4300-digit default
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = _parser[1].parse_args(argv)
    t0 = time.monotonic()
    try:
        # Python 3.11's argparse reads `--opt=--` as an empty list, past the
        # option's type; no option here takes a list
        for name, value in vars(args).items():
            if value == []:
                raise ValueError(f"--{name.replace('_', '-')} expects one value")
        report = args.run(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report.inputs.setdefault("seed", args.seed)
    elapsed = int((time.monotonic() - t0) * 1000) if args.timing else None
    sys.stdout.write(report.render(args.format, elapsed))
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
