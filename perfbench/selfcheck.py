"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py

For every workload:

1. The same seed gives byte-identical inputs, also in a fresh interpreter
   with another hash seed.
2. reference.json covers every command any seed can produce.
3. A traced and an untraced pass of seed 1 give identical outcomes.
4. A pass of seed 2 runs clean apart from the known stalls.

Exits 1 if any check fails.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import harness
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SEED_A, SEED_B = 1, 2


def inputs_digest(name: str, seed: int) -> str:
    wl = workloads.make(name, seed)
    blob = json.dumps([sorted(wl.files.items()), wl.commands], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def fresh_digest(name: str, seed: int) -> str:
    code = "import sys, selfcheck; print(selfcheck.inputs_digest(sys.argv[1], int(sys.argv[2])))"
    env = dict(os.environ, PYTHONHASHSEED="12345")
    done = subprocess.run(
        [sys.executable, "-c", code, name, str(seed)],
        cwd=HERE, env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return done.stdout.strip()


def one_pass(cli, wl, reference, tracer=None):
    paths = harness.write_inputs(wl, HERE / "_work" / f"selfcheck-{wl.name}-{wl.seed}")
    if tracer is None:
        return harness.run_pass(cli, wl, wl.commands, paths, reference, harness.Speedometer())
    tracer.install()
    try:
        return harness.run_pass(cli, wl, wl.commands, paths, reference, None)
    finally:
        tracer.uninstall()


def main() -> int:
    sys.path.insert(0, str(SRC))
    import u3local.cli as cli

    reference = harness.load_reference()
    problems = []
    for name in workloads.NAMES:
        digest = inputs_digest(name, SEED_A)
        if digest != inputs_digest(name, SEED_A) or digest != fresh_digest(name, SEED_A):
            problems.append(f"{name}: seed {SEED_A} does not give identical inputs")
        every = workloads.every_command(name)
        missing = [a for a in every.commands if workloads.command_key(a, every.files) not in reference]
        if missing:
            problems.append(f"{name}: {len(missing)} commands have no reference, e.g. {' '.join(missing[0])}")

        wl = workloads.make(name, SEED_A)
        plain = one_pass(cli, wl, reference)
        traced = one_pass(cli, wl, reference, Tracer())
        for p, t in zip(plain, traced):
            if p.outcome.reference_entry() != t.outcome.reference_entry():
                problems.append(f"{name}: traced outcome differs: {' '.join(p.argv)}")

        for r in one_pass(cli, workloads.make(name, SEED_B), reference):
            stall = r.argv in workloads.KNOWN_STALLS
            if (r.verdict == "deadline") != stall or (not stall and r.verdict != "ok"):
                problems.append(f"{name}: seed {SEED_B}: {r.verdict}: {' '.join(r.argv)}")
        print(f"{name}: checked", flush=True)
    for problem in problems:
        print(problem)
    print("selfcheck " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
