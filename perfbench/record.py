"""Record reference.json: the outcome of every command any seed can produce.

    python3 perfbench/record.py [--workload NAME ...] [--stall-seconds S]

Run at the commit whose behaviour is the reference.  Without --workload every
workload is recorded and the file is rewritten; with it, the named workloads
are merged into the file.  Each command runs under
its workload's deadline; one that overruns is stored as a stall, or, with
--stall-seconds, run again for that long and stored with its outcome if it
finishes.  Exits 1 when a command other than a known stall overruns, or a
finishing command takes more than a third of its deadline.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import harness
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=workloads.NAMES)
    ap.add_argument("--stall-seconds", type=float, default=0.0)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(SRC))
    import u3local.cli as cli

    # recording every workload starts afresh; a selection merges into the file
    reference = harness.load_reference() if args.workload else {}
    ok = True
    for name in args.workload or workloads.NAMES:
        wl = workloads.every_command(name)
        paths = harness.write_inputs(wl, HERE / "_work" / f"record-{name}")
        slowest, slowest_argv = 0.0, None
        for argv in wl.commands:
            real = [paths[a[1:]] if a.startswith("@") else a for a in argv]
            outcome = harness.run_command(cli.main, real, wl.deadline_s)
            overran = outcome.status == "deadline"
            if overran != (argv in workloads.KNOWN_STALLS):
                print(f"{name}: unexpected {'stall' if overran else 'finish'}: {' '.join(argv)}")
                ok = False
            if overran and args.stall_seconds:
                outcome = harness.run_command(cli.main, real, args.stall_seconds)
            elif not overran and outcome.seconds > slowest:
                slowest, slowest_argv = outcome.seconds, argv
            if outcome.status == "traceback":
                print(f"{name}: traceback: {' '.join(argv)}: {outcome.error}")
            reference[workloads.command_key(argv, wl.files)] = outcome.reference_entry()
        print(
            f"{name}: {len(wl.commands)} commands; slowest finishing {slowest:.3f} s "
            f"(deadline {wl.deadline_s:g} s): {' '.join(slowest_argv or ())}"
        )
        if slowest > wl.deadline_s / 3:
            ok = False
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(reference.items())]
    harness.REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
