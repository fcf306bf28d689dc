"""Spans around the package's public functions, recorded from outside the program.

``Tracer.install`` replaces each target with a wrapper that records a span
(name, start, end, parent) in memory; ``uninstall`` puts the originals back.
Names imported by another module (``from .linalg import smith_normal_form``
in ``cosets``) are wrapped at that binding too, and ``Matrix`` methods on the
class, so every call a caller makes is seen.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict


def _rref_name(args):
    return "linalg.rref_fp" if type(args[0].field).__name__ == "PrimeField" else "linalg.rref_q"


# (module, attribute, span name).  "Class.attr" is patched on the class; the span
# name may depend on the call's arguments.
TARGETS = [
    ("cli", "main", "cli.main"),
    ("cli", "build_parser", "cli.parser_build"),
    ("cli", "Report.render", "cli.render"),
    ("cosets", "load_graph", "cosets.load_graph"),
    ("cosets", "level_matrix", "cosets.level_matrix"),
    ("cosets", "walk_operator_v0", "cosets.walk_operator"),
    ("cosets", "walk_operator_v1", "cosets.walk_operator"),
    ("cosets", "old_new_decomposition", "cosets.old_new"),
    ("cosets", "kernel_eigenvalue_check", "cosets.kernel_eig"),
    ("cosets", "det_identity_check", "cosets.det_identity"),
    ("cosets", "ihara_kernel_test", "cosets.ihara_kernel"),
    ("cosets", "level_raising_search", "cosets.level_raising_search"),
    ("cosets", "find_automorphisms", "cosets.find_automorphisms"),
    ("cosets", "AuxOperatorFamily.from_automorphisms", "cosets.aux_family"),
    ("cosets", "gamma_chain", "cosets.gamma_chain"),
    ("cosets", "congruence_module", "cosets.congruence_module"),
    ("linalg", "Matrix.rref", _rref_name),
    ("linalg", "Matrix.__matmul__", "linalg.matmul"),
    ("linalg", "Matrix.det", "linalg.det"),
    ("linalg", "Matrix.char_poly", "linalg.char_poly"),
    ("linalg", "Matrix.solve", "linalg.solve"),
]
for _module in ("linalg", "cosets"):
    TARGETS += [
        (_module, "int_matrix_det", "linalg.int_det"),
        (_module, "smith_normal_form", "linalg.snf"),
        (_module, "lattice_basis", "linalg.lattice"),
        (_module, "lattice_saturation", "linalg.lattice"),
        (_module, "lattice_quotient_invariants", "linalg.lattice"),
        (_module, "lattice_contains", "linalg.lattice"),
    ]
TARGETS += [
    ("tree", "TreeBall.__init__", "tree.ball_build"),
    ("tree", "verify_composition", "tree.verify_composition"),
    ("tree", "verify_mirror_composition", "tree.verify_mirror"),
    ("lparam", "solution_space", "lparam.solution_space"),
    ("lparam", "components_through", "lparam.components_through"),
    ("lparam", "stratum_witnesses", "lparam.stratum_witnesses"),
    ("lparam", "jordan_partition", "lparam.jordan_partition"),
    ("slope", "fredholm_series", "slope.fredholm_series"),
    ("slope", "newton_polygon", "slope.newton_polygon"),
    ("slope", "slope_factorization", "slope.slope_factorization"),
    ("slope", "slope_decomposition", "slope.slope_decomposition"),
    ("analytic", "make_model", "analytic.make_model"),
    ("analytic", "ihara_rank_test", "analytic.ihara_rank_test"),
    ("satake", "spherical_eigenvalue", "satake.spherical_eigenvalue"),
]
LAYERS = ("cli", "cosets", "linalg", "tree", "lparam", "slope", "analytic", "satake")


def _max_bits(value) -> int:
    if isinstance(value, int):
        return value.bit_length()
    return max((_max_bits(v) for v in value), default=0)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()
        self.max_snf_bits = 0
        self._patches = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx, depth = len(spans), len(stack)
            label = name(args) if callable(name) else name
            spans.append([label, time.perf_counter(), None, stack[-1] if stack else -1])
            try:
                stack.append(idx)
                result = fn(*args, **kwargs)
            finally:  # also when the command's deadline interrupts the call
                del stack[depth:]
                spans[idx][2] = time.perf_counter()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _after_hooks(self):
        def snf(args, result):
            self.max_snf_bits = max(self.max_snf_bits, _max_bits(result))

        def automorphisms(args, result):
            self.counts["cosets.automorphisms_found"] += len(result)

        def ball(args, result):
            self.counts["tree.ball_vertices"] += args[0].size

        def deltas(args, result):
            self.counts["tree.checked_deltas"] += result["checked_deltas"]

        def parser(args, result):
            result.parse_args = self._wrap("cli.parse", result.parse_args)

        return {
            "linalg.snf": snf,
            "cosets.find_automorphisms": automorphisms,
            "tree.ball_build": ball,
            "tree.verify_composition": deltas,
            "tree.verify_mirror": deltas,
            "cli.parser_build": parser,
        }

    def install(self):
        hooks = self._after_hooks()
        for module_name, attr, name in TARGETS:
            owner = importlib.import_module(f"u3local.{module_name}")
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            after = hooks.get(name) if isinstance(name, str) else None
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(name, original.__func__, after))
            else:
                wrapped = self._wrap(name, original, after)
            setattr(owner, attr, wrapped)
            self._patches.append((owner, attr, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- derived figures ---------------------------------------------------

    def self_times(self) -> dict:
        """Seconds per span name, each span's duration less its children's."""
        # a deadline that lands between a span's start and its try block leaves no end
        durations = [(end or start) - start for _, start, end, _ in self.spans]
        child = [0.0] * len(self.spans)
        for (_, _, _, parent), d in zip(self.spans, durations):
            if parent >= 0:
                child[parent] += d
        out = defaultdict(float)
        for (name, _, _, _), d, c in zip(self.spans, durations, child):
            out[name] += d - c
        return dict(out)

    def call_counts(self) -> Counter:
        return Counter(name for name, _, _, _ in self.spans)

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")
