"""Command line front end: every subcommand runs one bundle of exact checks
and emits a single deterministic structured report.

Reports are JSON documents with sorted keys: a command echo, an input digest,
a results tree, and a list of named assertions.  The process exits 0 exactly
when every assertion passed.  Identical invocations produce byte-identical
output; timing is only included on request (it breaks determinism).

Reading argv: ``_COMMANDS`` declares every command once, and ``build_parser``
reads plain argv flat from it; argparse is imported, and its parser built from
the same table, only for help, abbreviations and errors.  The top help shows
the two paragraphs above.
"""

from __future__ import annotations

import enum
import functools
import math
import re
import sys
import time
import types
from collections import Counter
from fractions import Fraction

from . import analytic, cosets, lparam, satake, slope, tree
from .linalg import QQ, Matrix
from .poly import Poly
from .scalars import require_prime, within_budget


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


def digest(payload: str) -> str:
    import hashlib  # off the start-up path: only graph and matrix files are digested

    return hashlib.sha256(payload.encode()).hexdigest()[:16]


# json's escapes of ASCII text: \" \\ \b \f \n \r \t, and \u00XX for the other
# C0 controls and DEL
_ASCII_ESCAPES = {c: f"\\u{c:04x}" for c in (*range(0x20), 0x7F)}
_ASCII_ESCAPES.update((ord(c), "\\" + e) for c, e in zip('"\\\b\f\n\r\t', '"\\bfnrt'))


def _json_string(s: str) -> str:
    """json.dumps(s); json is imported only for text that is not ASCII."""
    if not s.isascii():
        import json  # off the start-up path: few reports hold text that is not ASCII

        return json.dumps(s)
    if s.isprintable() and '"' not in s and "\\" not in s:
        return f'"{s}"'  # nothing to escape, as in most report strings
    return '"' + s.translate(_ASCII_ESCAPES) + '"'


def _json_text(x, newline: str | None) -> str:
    """json.dumps(x, sort_keys=True, indent=2) of a report value, converted as
    it is written: a Fraction is its ``_rational_text``, an enum its value, a
    Poly its coefficient strings, an int ``_digits`` and a dict key str(key);
    any other type raises TypeError.  ``newline`` is a newline and the indent
    of x's own line, or None for the one-line json.dumps(x, sort_keys=True)."""
    if isinstance(x, str):
        return _json_string(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return _digits(x)
    inner = None if newline is None else newline + "  "
    if isinstance(x, (list, tuple)):
        items, ends = [_json_text(v, inner) for v in x], "[]"
    elif isinstance(x, dict):
        keyed = sorted({str(k): v for k, v in x.items()}.items())
        items, ends = [_json_string(k) + ": " + _json_text(v, inner) for k, v in keyed], "{}"
    elif isinstance(x, Fraction):
        return _json_string(_rational_text(x))
    elif isinstance(x, enum.Enum):
        return _json_text(x.value, newline)
    elif isinstance(x, Poly):
        items, ends = [_json_string(_rational_text(c)) for c in x.coeffs], "[]"
    else:
        raise TypeError(f"no report encoding for {type(x).__name__}")
    if not items:
        return ends
    if newline is None:
        return ends[0] + ", ".join(items) + ends[1]
    return ends[0] + inner + ("," + inner).join(items) + newline + ends[1]


class Report:
    def __init__(self, command: str, inputs: dict):
        self.command = command
        self.inputs = inputs
        self.results = {}
        self.assertions = []

    def put(self, key, value):
        self.results[key] = value

    def check(self, name, passed, detail=None):
        entry = {"name": name, "passed": bool(passed)}
        if detail is not None:
            entry["detail"] = detail
        self.assertions.append(entry)

    @property
    def passed(self):
        return all(a["passed"] for a in self.assertions)

    def render(self, fmt="json", timing=None):
        if fmt == "json":
            doc = {
                "command": self.command,
                "inputs": self.inputs,
                "results": self.results,
                "assertions": self.assertions,
                "passed": self.passed,
            }
            if timing is not None:
                doc["timing_ms"] = timing
            return _json_text(doc, "\n") + "\n"
        lines = [f"== {self.command} =="]
        for key in sorted(self.results):
            lines.append(f"  {key}: {_json_text(self.results[key], None)}")
        for a in self.assertions:
            tag = "PASS" if a["passed"] else "FAIL"
            lines.append(f"{tag}  {a['name']}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


# a decimal exponent as Fraction reads one: the last thing in the token
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def _within_digit_limit(tokens, what: str):
    """Refuse integer text past the interpreter's default 4300 digits, leading
    zeros aside, before int() reads it in time quadratic in the digits (main
    lifts the limit after reading argv); no budget admits such a number."""
    for tok in tokens:
        if sum(map(str.isdigit, tok.lstrip(" +-0_"))) > 4300:
            raise ValueError(f"{what} has more than 4300 digits")


def _exponent_bits(tokens) -> int:
    """Bits of the powers of ten the decimal exponents of ``tokens`` ask for:
    |e|·bit_length(10) per token, the estimate of the l^e tokens of --diag."""
    exps = [m[1] for m in map(_EXPONENT.search, tokens) if m]
    _within_digit_limit(exps, "a decimal exponent")
    return sum(abs(int(e)) for e in exps) * (10).bit_length()


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
    return _rational(text)


def _rational(text: str) -> Fraction:
    """Fraction(text), a zero denominator or a malformed token refused as
    ``ValueError`` that quotes it (its first 100 characters, as int() does
    with 200); the caller has checked the decimal budget."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    except ValueError:
        raise ValueError(f"{text!r:.100} is not a rational number") from None


def _integer(text: str, what: str) -> int:
    """int(text), a malformed token refused as ``ValueError`` that quotes it
    as ``_rational`` does; the caller has checked the digit limit."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{what} {text!r:.100} is not an integer") from None


def _within_decimal_budget(tokens, budget: int):
    bits = _exponent_bits(tokens)
    within_budget(bits, budget, f"decimal exponents of {bits} bits")
    bits = _digit_bits(tokens)
    within_budget(bits, budget, f"decimal digits of {bits} bits")


def parse_diag(spec: str, l: int, budget: int) -> list:
    """The diagonal entries of a comma list, as ints and Fractions; tokens may
    use the letter l, e.g. l^2.

    The estimate is n^2 times the square of the 64-bit words the entries hold
    (powers of l, powers of ten and digits): the cost of long divisions of
    numbers as large as the product of the n entries on up to n^2 rows, as a
    determinant of phi would do.  The solution space compares phi_i with
    l phi_j and forms no determinant, so the estimate is an upper bound, kept
    so that no input it refused before now runs.  It is checked before any
    power is formed."""
    tokens = [tok.strip() for tok in spec.split(",")]
    plain = [tok for tok in tokens if not tok.startswith("l^")]
    powers = [tok[2:] for tok in tokens if tok.startswith("l^")]
    _within_digit_limit(powers, "an exponent of l^K in --diag")
    bits = sum(abs(_integer(k, "--diag exponent")) for k in powers) * l.bit_length()
    bits += _exponent_bits(plain) + _digit_bits(plain)
    # a bare l or l^0 spells no bits, yet n such entries still take n^2 work
    words = max(1, -(-bits // 64))
    within_budget(len(tokens) ** 2 * words**2, budget, f"--diag entries of {bits} bits")
    entries = []
    for tok in tokens:
        if tok.startswith("l^"):
            entries.append(QQ.exact(Fraction(l) ** int(tok[2:])))
        elif tok == "l":
            entries.append(l)
        else:
            entries.append(QQ.exact(parse_fraction(tok, budget)))
    return entries


def parse_matrix(spec: str, budget: int) -> Matrix:
    """The matrix of rows split by ';' and entries by ','.  The budget is
    checked once on all entries: its bit counts are sums over the tokens, so
    no single token can pass it after all of them did."""
    rows = [row.split(",") for row in spec.split(";")]
    _within_decimal_budget([x for row in rows for x in row], budget)
    return Matrix([[QQ.exact(_rational(x)) for x in row] for row in rows])


def parse_poly(spec: str, budget: int) -> Poly:
    """The polynomial of comma-separated coefficients, constant term first;
    the budget is checked once, as in ``parse_matrix``."""
    tokens = spec.split(",")
    _within_decimal_budget(tokens, budget)
    return Poly([_rational(x) for x in tokens])


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
    # inc, E x |V|, is eliminated once per orientation
    within_budget(
        g.nedges * (g.n0 + g.n1),
        args.budget,
        f"eliminations of the {g.nedges}x{g.n0 + g.n1} incidence matrix",
    )
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
    # Smith forms of inc, E x |V|, and of the composite C = inc^T inc, |V| x |V|.
    # The form of C fills in and its entries grow, so on random l = 2 graphs the
    # command's time grows about as n0^4 (3.8 s at n0 = 150, 16.6 s at 210),
    # faster than analyze's eliminations of inc: the entries of both matrices
    # are booked, not analyze's E x |V| alone, which admitted n0 = 230
    nv = g.n0 + g.n1
    within_budget(
        g.nedges * nv + nv**2,
        args.budget,
        f"Smith forms of the {g.nedges}x{nv} incidence matrix and the {nv}x{nv} composite",
    )
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
    # elimination over the E-long new-space basis, counted as E x E; inc is
    # eliminated as in graph analyze
    members = args.aux_limit if args.aux == "auto" else 0
    scans = members + (lab is not None and lab.order > 1)
    within_budget(
        args.prime * scans + members * g.nedges**2 + g.nedges * (g.n0 + g.n1),
        args.budget,
        f"{scans} residue scans mod {args.prime} and {members} operators on {g.nedges} edges"
        f" and the {g.nedges}x{g.n0 + g.n1} incidence matrix",
    )
    if members:
        perms = cosets.find_automorphisms(g, limit=members + 1)
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
    rep = Report("satake classify", {"alpha": s.alpha, "l": args.l})
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
    rep = Report("satake eig", {"alpha": s.alpha, "l": args.l})
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
    rep = Report("satake ve-check", {"q": args.q, "psi": psi, "t": [args.t1, args.t2, args.t3]})
    verdict = satake.very_eisenstein_check(es, psi)
    rep.put("very_eisenstein", verdict)
    rep.check("pattern_evaluated", True)
    return rep


def cmd_moduli_components(args):
    require_prime(args.l)
    s = parse_diag(args.diag, args.l, args.budget)
    # the witnesses walk all 2^dim 0/1 combinations of the solution space, where
    # dim = #{(i, j) : s_i = l s_j} for nonzero s_i, block by block with the
    # ranks of small block products; n^3 per combination, the cost of an n x n
    # Jordan type, stays the estimate, so the inputs refused do not move.  Past
    # the budget's bits the exact power does not matter
    counts = Counter(s)
    dim = sum(c * counts[args.l * x] for x, c in counts.items() if x)
    estimate = (2 ** min(dim, args.budget.bit_length() + 1) - 1) * len(s) ** 3
    within_budget(estimate, args.budget, f"a walk over 2^{dim} combinations of the solution space")
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
    nontrivial = any(len(p) < len(s) for p in witnesses)
    rep.check("degeneracy_matches_components", nontrivial == degenerate)
    return rep


def cmd_moduli_witness(args):
    require_prime(args.l)
    s = parse_diag(args.diag, args.l, args.budget)
    n = len(s)
    support = {}
    for index, pair in enumerate(args.nilpotent.split(";"), 1):
        _within_digit_limit(pair.split(","), f"an index of --nilpotent pair {index}")
        try:
            i, j = map(int, pair.split(","))
        except ValueError:
            raise ValueError(f"--nilpotent pair {index} ({pair!r}) is not i,j") from None
        support[i, j] = 1
    # a nilpotent 0/1 N with k support entries has index at most k + 1, and the
    # ranks of any N stop falling within n powers: at most that many n x n ranks
    # and products
    k = len(support)
    within_budget(
        n**3 * min(n, k + 1), args.budget, f"the Jordan type of a {n}x{n} matrix with {k} entries"
    )
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
    if args.entries is not None and args.matrix_file is not None:
        raise ValueError("give --entries or --matrix-file, not both")
    if args.matrix_file:
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
    within_budget(
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
    slopes = np.slopes()
    rep.put("vertices", np.vertices)
    rep.put("slopes", slopes)
    rep.check("slopes_weakly_increasing", slopes == sorted(slopes))
    return rep


def cmd_slope_factor(args):
    P = parse_poly(args.poly, args.budget)
    h = parse_fraction(args.h, args.budget)
    inputs = {"poly": args.poly, "p": args.p, "h": h, "precision": args.precision}
    rep = Report("slope factor", inputs)
    fact = slope.slope_factorization(P, h, args.p, args.precision, args.budget)
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
    rep = Report("slope decompose", {**src, "p": args.p, "h": h, "precision": args.precision})
    dec = slope.slope_decomposition(U, h, args.p, args.precision, args.budget)
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
    within_budget(entries, args.budget, f"the rank tests up to degree {args.degree}")
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
    within_budget(units, args.budget, f"the units mod {args.p}^{args.level}")
    # int() reads the exponents in time quadratic in their digits: the square
    # of the 64-bit words they spell, booked before any is read
    digits = sum(map(str.isdigit, args.chi1 + args.chi2 + args.chi3))
    words = -(-digits * (10).bit_length() // 64)
    within_budget(words**2, args.budget, f"--chi1..--chi3 exponents of {digits} digits")
    chis = []
    for name, spec in (("--chi1", args.chi1), ("--chi2", args.chi2), ("--chi3", args.chi3)):
        exps = tuple(_integer(x, f"{name} exponent") for x in spec.split(",")) if spec else ()
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

# Every command once: (group, command) -> (its run function, its arguments).  An
# argument is its name (a positional when it has no leading '-') and argparse's
# keywords for it; the flat read takes the type, default, choices, required
# flag and store_true action from the same keywords.
_INT = {"type": int, "required": True}
_TEXT = {"required": True}
_PRECISION = {"type": int, "default": 20}
_TOP = (
    ("--seed", {"type": int, "default": 0, "help": "seed echoed into reports"}),
    ("--budget", {"type": int, "default": 2_000_000, "help": "bound on work estimated before it starts"}),
    ("--format", {"choices": ("json", "table"), "default": "json"}),
    ("--timing", {"action": "store_true", "help": "include elapsed ms (breaks determinism)"}),
)
_COMMANDS = {
    ("tree", "verify"): (cmd_tree_verify, (("--l", _INT), ("--radius", _INT))),
    ("graph", "analyze"): (cmd_graph_analyze, (("path", {}), ("--prime", {"type": int}))),
    ("graph", "congruence"): (cmd_graph_congruence, (("path", {}),)),
    ("graph", "levelraise"): (cmd_graph_levelraise, (
        ("path", {}), ("--prime", _INT), ("--labels", {}),
        ("--aux", {"choices": ("auto", "none"), "default": "auto"}),
        ("--aux-limit", {"type": int, "default": 3}),
    )),
    ("satake", "classify"): (cmd_satake_classify, (("--alpha", _TEXT), ("--l", _INT))),
    ("satake", "eig"): (cmd_satake_eig, (("--alpha", _TEXT), ("--l", _INT))),
    ("satake", "ve-check"): (cmd_satake_ve_check, (
        ("--q", _INT), ("--psi", _TEXT), ("--t1", _TEXT), ("--t2", _TEXT), ("--t3", _TEXT),
    )),
    ("moduli", "components"): (cmd_moduli_components, (
        ("--diag", _TEXT), ("--l", _INT), ("--group", {"default": "gl3"}),
    )),
    ("moduli", "witness"): (cmd_moduli_witness, (
        ("--diag", _TEXT), ("--l", _INT), ("--nilpotent", {**_TEXT, "help": "support pairs like '0,1;1,2'"}),
    )),
    ("moduli", "pgl2"): (cmd_moduli_pgl2, (("--l", _INT),)),
    ("slope", "series"): (cmd_slope_series, (
        ("--entries", {"help": "rows 'a,b;c,d'"}),
        ("--matrix-file", {"help": "file holding the same row format"}),
        ("--p", _INT),
    )),
    ("slope", "polygon"): (cmd_slope_polygon, (
        ("--poly", {**_TEXT, "help": "coefficients 'a0,a1,...'"}), ("--p", _INT),
    )),
    ("slope", "factor"): (cmd_slope_factor, (
        ("--poly", _TEXT), ("--p", _INT), ("--h", _TEXT), ("--precision", _PRECISION),
    )),
    ("slope", "decompose"): (cmd_slope_decompose, (
        ("--entries", {}), ("--matrix-file", {}), ("--p", _INT), ("--h", _TEXT), ("--precision", _PRECISION),
    )),
    ("analytic", "ihara"): (cmd_analytic_ihara, (
        ("--p", _INT), ("--m", _INT), ("--degree", _INT), ("--delta", {"default": "1"}),
    )),
    ("analytic", "weight"): (cmd_analytic_weight, (
        ("--p", _INT), ("--level", _INT),
        ("--chi1", {"default": ""}), ("--chi2", {"default": ""}), ("--chi3", {"default": ""}),
    )),
}

# argparse's test for a separate value that starts with '-' yet is no option,
# compiled by re at its first use, off the start-up path
_NEGATIVE_NUMBER = r"^-\d+$|^-\d*\.\d+$"


class _Arg:
    """One argument of the flat read: the attribute its value sets, the type
    that converts its text (None for a store_true flag) and its choices."""

    __slots__ = ("dest", "type", "choices")

    def __init__(self, name, keywords):
        self.dest = name.lstrip("-").replace("-", "_")
        self.type = None if keywords.get("action") == "store_true" else keywords.get("type", str)
        self.choices = keywords.get("choices")


def _level(arguments):
    """One parser's part of the flat read: its options by name, its positionals
    in order, the defaults its namespace starts from and its required dests."""
    options, positionals, defaults, required = {}, [], {}, set()
    for name, keywords in arguments:
        arg = _Arg(name, keywords)
        defaults[arg.dest] = keywords.get("default", False if arg.type is None else None)
        if name[:1] != "-":
            positionals.append(arg)
            required.add(arg.dest)
        else:
            options[name] = arg
            if keywords.get("required"):
                required.add(arg.dest)
    return options, positionals, defaults, required


class _Reader:
    """The argv reader of ``_COMMANDS``.  ``parse_args`` reads plain argv in one
    flat pass: exact option names with their values (``--opt value`` or
    ``--opt=value``), the top options before the group, and the leaf's options
    and positionals after group and command.  It declines everything else
    (help, abbreviations, ``--`` and ``--opt=--``, a separate value that looks
    like an option, unknown tokens, bad values, missing arguments), and
    argparse's parser of the same table reads that argv, so every help text,
    error message and exit code is argparse's own.  Where it does not decline,
    its namespace is the one argparse's three nested parses would give."""

    def __init__(self):
        self.options, _, self.defaults, _ = _level(_TOP)
        self.leaves = {}
        for (group, cmd), (run, arguments) in _COMMANDS.items():
            options, positionals, defaults, required = _level(arguments)
            # argparse merges the namespaces of group and leaf over the top's
            base = {"group": group, "cmd": cmd, **defaults, "run": run}
            self.leaves[group, cmd] = (options, positionals, base, required)

    def parse_args(self, args=None):
        argv = sys.argv[1:] if args is None else list(args)
        ns = self.read(argv)
        return _argparse_parser().parse_args(argv) if ns is None else ns

    def read(self, argv):
        """The namespace of plain argv, or None to leave argv to argparse."""
        values = dict(self.defaults)
        i = self._read_tokens(argv, 0, self.options, None, values, set())
        leaf = self.leaves.get(tuple(argv[i : i + 2])) if i is not None else None
        if leaf is None:
            return None
        options, positionals, base, required = leaf
        values.update(base)
        seen = set()
        if self._read_tokens(argv, i + 2, options, positionals, values, seen) is None:
            return None
        return types.SimpleNamespace(**values) if required <= seen else None

    def _read_tokens(self, argv, i, options, positionals, values, seen):
        """Reads argv[i:] into values, adding the dest of each argument read to
        seen.  With positionals None (the top) it stops at the first positional
        token and returns its index; otherwise it fills the positionals in
        order and returns len(argv).  None declines."""
        pending = iter(positionals or ())
        while i < len(argv):
            tok = argv[i]
            i += 1
            if tok[:1] != "-":  # a positional to every parser
                if positionals is None:
                    return i - 1
                arg, text = next(pending, None), tok
            elif tok in options:
                arg, text = options[tok], None
                if arg.type is not None:
                    # argparse reads a separate token starting with '-' as an
                    # option, unless it is a negative number
                    if i == len(argv) or (argv[i][:1] == "-" and not re.match(_NEGATIVE_NUMBER, argv[i])):
                        return None
                    text = argv[i]
                    i += 1
            else:
                name, eq, text = tok.partition("=")
                arg = options.get(name) if eq and text != "--" else None
                if arg is not None and arg.type is None:
                    return None  # a flag given a value
            if arg is None:
                return None
            try:
                values[arg.dest] = True if text is None else self._value(arg, text)
            except ValueError:
                return None
            seen.add(arg.dest)
        return None if positionals is None else i

    @staticmethod
    def _value(arg, text):
        """text converted by the argument's type; ValueError if the type or
        the choices refuse it."""
        value = arg.type(text)
        if arg.choices is not None and value not in arg.choices:
            raise ValueError(f"{value!r} is not a choice")
        return value


def build_parser():
    """The flat argv reader of ``_COMMANDS``; ``main`` builds one per process."""
    return _Reader()


@functools.cache
def _argparse_parser():
    """argparse's parser of ``_COMMANDS``, for the argv the flat read declines:
    imported and built at the first such argv, then kept for the process."""
    import argparse

    class Parser(argparse.ArgumentParser):
        """argparse's parser, except that an int option whose text has more
        than the interpreter's default 4300 digits is refused by name and digit
        count before int() reads it (argparse's own error would echo the whole
        token), and ``--opt=--`` by a ValueError, where argparse would pass
        the option an empty list (3.10-3.12) or the string '--' (3.13)."""

        def _get_values(self, action, arg_strings):
            if action.option_strings and arg_strings == ["--"]:
                raise ValueError(f"{action.option_strings[-1]} expects one value")
            return super()._get_values(action, arg_strings)

        def _get_value(self, action, arg_string):
            if len(arg_string) > 4300 and action.type is int:
                digits = sum(map(str.isdigit, arg_string))
                if digits > 4300:
                    name = "/".join(action.option_strings)
                    self.exit(
                        2,
                        f"{self.prog}: error: argument {name}: invalid int value of "
                        f"{digits} digits, more than 4300\n",
                    )
            return super()._get_value(action, arg_string)

    top = Parser(prog="u3local", description=__doc__ and __doc__.partition("\n\nReading argv")[0])
    for name, keywords in _TOP:
        top.add_argument(name, **keywords)
    groups, commands = top.add_subparsers(dest="group", required=True, parser_class=Parser), {}
    for (group, cmd), (run, arguments) in _COMMANDS.items():
        if group not in commands:
            commands[group] = groups.add_parser(group).add_subparsers(dest="cmd", required=True)
        leaf = commands[group].add_parser(cmd)
        for name, keywords in arguments:
            leaf.add_argument(name, **keywords)
        leaf.set_defaults(run=run)
    return top


_parser = None  # (builder, reader): built by the first call to main, not at import
# the interpreter's int digit limit as the module loads (0: none, as before Python 3.10.7)
_ARGV_DIGITS = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0


def main(argv=None) -> int:
    global _parser
    # one reader per process; a replaced build_parser (a test's patch, a tracer's
    # wrapper) gets a reader of its own
    if _parser is None or _parser[0] is not build_parser:
        _parser = (build_parser, build_parser())
    # argv is read under the interpreter's digit limit; past it, --budget bounds
    # every number before it is formed, so a report prints whatever it admits
    if _ARGV_DIGITS:
        sys.set_int_max_str_digits(_ARGV_DIGITS)
    try:
        args = _parser[1].parse_args(argv)
        if _ARGV_DIGITS:
            sys.set_int_max_str_digits(0)
        t0 = time.monotonic()
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
