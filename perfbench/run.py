"""u3local benchmark: drives ``u3local.cli`` in-process on generated inputs.

    python3 perfbench/run.py --workload graph --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Prints one line per metric, then, as the
last line, a JSON object with the keys correct, attempted, failed, metrics.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a traced run (see README.md).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

import harness
import workloads
from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_work"
SETUP_RUNS = 30

TIMED_MS = ("cli.parser_build", "cli.parse", "cli.render", "cosets.load_graph")
TIMED_S = (
    "cosets.level_matrix", "cosets.old_new", "cosets.kernel_eig", "cosets.det_identity",
    "cosets.ihara_kernel", "cosets.level_raising_search", "cosets.find_automorphisms",
    "cosets.aux_family", "cosets.gamma_chain", "cosets.congruence_module",
    "linalg.rref_q", "linalg.rref_fp", "linalg.matmul", "linalg.det", "linalg.int_det",
    "linalg.char_poly", "linalg.solve", "linalg.snf", "linalg.lattice",
    "tree.ball_build", "tree.verify_composition", "tree.verify_mirror",
    "lparam.solution_space", "lparam.components_through", "lparam.stratum_witnesses",
    "slope.fredholm_series", "slope.newton_polygon", "slope.slope_factorization",
    "slope.slope_decomposition", "analytic.make_model", "analytic.ihara_rank_test",
    "satake.spherical_eigenvalue",
)
CALLS = {
    "cosets.level_matrix_calls": ("cosets.level_matrix",),
    "cosets.walk_operator_calls": ("cosets.walk_operator",),
    "linalg.rref_calls": ("linalg.rref_q", "linalg.rref_fp"),
    "linalg.matmul_calls": ("linalg.matmul",),
    "linalg.snf_calls": ("linalg.snf",),
    "lparam.jordan_partition_calls": ("lparam.jordan_partition",),
}
COUNTED = ("cosets.automorphisms_found", "tree.ball_vertices", "tree.checked_deltas")


def measure_setup(meter) -> float:
    """Median time of a cold ``import u3local.cli`` over fresh interpreters, in
    reference-machine seconds.

    The first interpreter is a warm-up (byte-code and file cache) and is not timed.
    """
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import u3local.cli; print(time.perf_counter() - t)"
    )
    times = []
    for i in range(SETUP_RUNS + 1):
        before = meter.read()
        done = subprocess.run(
            [sys.executable, "-I", "-c", code, str(SRC)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        if i:
            times.append(float(done.stdout) * (before + meter.read()) / 2)
    return statistics.median(times)


def plan(wl, seconds):
    """The passes of a run that measures for about ``seconds``, and the known stalls.

    A pass runs every command that finishes at the seed commit.  The known
    stalls run once, after the passes: their outcome is a deadline overrun
    every time, and repeating them would spend the run waiting out deadlines.
    """
    finishing = tuple(a for a in wl.commands if a not in workloads.KNOWN_STALLS)
    stalls = tuple(a for a in wl.commands if a in workloads.KNOWN_STALLS)
    count = max(1, round((seconds - wl.deadline_s * len(stalls)) / workloads.PASS_S[wl.name]))
    return [finishing] * count, stalls


def by_command(results):
    runs = {}
    for r in results:
        runs.setdefault(r.argv, []).append(r)
    return runs


def tail(latencies):
    """Highest percentile with at least ten samples beyond it: (value, percentile, n)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(passes, stalls, setup_s, rss_mb):
    """Timings cover the commands that finished; overruns show in ok_ratio only."""
    finished = [[r for r in p if r.outcome.status != "deadline"] for p in passes]
    latencies = [r.ref_seconds * 1e3 for p in finished for r in p]
    runs = by_command([r for p in passes for r in p] + stalls).values()
    ok = sum(all(r.verdict not in harness.FAILED for r in rs) for rs in runs)
    tail_ms, pct, n = tail(latencies)
    print(
        f"cmd_tail_ms is p{pct:.1f} of {n} latencies "
        f"({len(by_command(r for p in finished for r in p))} distinct commands, {len(passes)} passes)"
    )
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.fmean(sum(r.ref_seconds for r in p) for p in finished), "s"),
        "cmd_p50_ms": (statistics.median(latencies), "ms"),
        "cmd_tail_ms": (tail_ms, "ms"),
        "ok_ratio": (ok / len(runs), "1"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(tracer, traced, untraced, commands):
    """Figures of the traced pass, which runs every command once.

    Self times are as measured, not scaled to the reference machine.
    """
    selfs = tracer.self_times()
    calls = tracer.call_counts()
    metrics = {}
    for span in TIMED_MS:
        metrics[span + "_ms"] = (selfs.get(span, 0.0) * 1e3, "ms")
    metrics["cli.report_bytes"] = (sum(len(r.outcome.stdout.encode()) for r in traced), "bytes")
    for span in TIMED_S:
        metrics[span + "_s"] = (selfs.get(span, 0.0), "s")
    for name, spans in CALLS.items():
        metrics[name] = (sum(calls[s] for s in spans), "count")
    for name in COUNTED:
        metrics[name] = (tracer.counts[name], "count")
    metrics["linalg.snf_max_entry_bits"] = (tracer.max_snf_bits, "bit")
    for layer in LAYERS:
        metrics[layer + ".self_s"] = (
            sum(v for k, v in selfs.items() if k.split(".")[0] == layer), "s"
        )
    metrics["cli.verdicts_failed"] = (sum(r.outcome.rc == 1 for r in traced), "count")
    # against the untraced pass just before, on the same commands, one sample each,
    # as measured: the traced pass takes no speed readings
    traced_s = {r.argv: r.outcome.seconds for r in traced}
    last = untraced[-1]
    metrics["trace.overhead_ratio"] = (
        sum(traced_s[r.argv] for r in last) / sum(r.outcome.seconds for r in last), "1"
    )
    print_call_breakdown(tracer, commands)
    return metrics


def print_call_breakdown(tracer, commands):
    """Calls per command kind, e.g. cosets.level_matrix_calls per `graph analyze`."""
    root_kind, per_kind = {}, Counter()
    roots = iter(commands)
    for idx, (_, _, _, parent) in enumerate(tracer.spans):
        if parent < 0:
            root_kind[idx] = " ".join(next(roots)[:2])
            per_kind[root_kind[idx]] += 1
            continue
        root_kind[idx] = root_kind[parent]
    counts = Counter()
    for idx, (name, _, _, _) in enumerate(tracer.spans):
        counts[name, root_kind[idx]] += 1
    for metric, spans in CALLS.items():
        parts = [
            f"{kind}={sum(counts[s, kind] for s in spans) / per_kind[kind]:g}"
            for kind in sorted(per_kind)
            if any(counts[s, kind] for s in spans)
        ]
        if parts:
            print(f"{metric} per command: " + ", ".join(parts))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "u3local" / "cli.py").is_file():
        print(f"perfbench: no u3local sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import u3local.cli as cli

    if SRC not in Path(cli.__file__).resolve().parents:
        print(f"perfbench: imported u3local from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    wl = workloads.make(args.workload, args.seed)
    paths = harness.write_inputs(wl, WORK / f"{wl.name}-{wl.seed}")
    reference = harness.load_reference()
    meter = harness.Speedometer()

    def run(commands, meter=meter):
        return harness.run_pass(cli, wl, commands, paths, reference, meter)

    passes, stalls = plan(wl, args.seconds)
    if args.trace:
        untraced = [run(commands) for commands in passes[: max(1, len(passes) - 1)]]
        tracer = Tracer()
        tracer.install()
        try:
            traced = run(wl.commands, meter=None)
        finally:
            tracer.uninstall()
        tracer.write(WORK / f"spans-{wl.name}-{wl.seed}.jsonl")
        metrics = per_layer(tracer, traced, untraced, wl.commands)
        results = [r for p in untraced for r in p] + traced
    else:
        setup_s = measure_setup(meter)
        passes = [run(commands) for commands in passes]
        # read before the stalls, whose memory grows with how far they get in their deadline
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        stalled = run(stalls)
        metrics = end_to_end(passes, stalled, setup_s, rss_mb)
        results = [r for p in passes for r in p] + stalled

    verdicts = Counter(r.verdict for r in results)
    failed = sum(verdicts[v] for v in harness.FAILED)
    runs = by_command(results).values()
    failing = sum(any(r.verdict in harness.FAILED for r in rs) for rs in runs)
    print(
        f"workload {wl.name} seed {wl.seed}: {len(runs)} commands, "
        f"deadline {wl.deadline_s:g} s; outcomes "
        + ", ".join(f"{k}={v}" for k, v in sorted(verdicts.items()))
        + f"; fail_ratio {failing}/{len(runs)} = {failing / len(runs):.4f}"
        + f"; verdicts_failed {sum(rs[0].outcome.rc == 1 for rs in runs)}"
    )
    for r in results:
        if r.verdict in ("traceback", "mismatch"):
            print(f"  {r.verdict}: {' '.join(r.argv)}: {r.outcome.error or ''}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not (verdicts["traceback"] or verdicts["mismatch"]),
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
