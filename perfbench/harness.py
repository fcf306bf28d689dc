"""Running CLI commands in-process: capture, per-command deadline, outcome check."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import random
import signal
import statistics
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"


# The speed kernel takes KERNEL_REF_S on the reference machine (a 2.1 GHz Xeon
# vCPU in its fast phases).  It is re-timed between commands once
# SPEED_MAX_AGE_S has passed, and during a command every SPEED_MAX_AGE_S of CPU time.
KERNEL_REF_S = 0.015
SPEED_MAX_AGE_S = 0.25


def speed_kernel() -> int:
    """Fixed pure-Python work in the program's style: Fraction elimination on a
    small matrix, then a dict of tuples too large for the core's own caches."""
    rng = random.Random(7)
    n = 12
    rows = [[Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        pivot = rows[i][i] or Fraction(1)
        for r in range(i + 1, n):
            f = rows[r][i] / pivot
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[i])]
    table = {}
    for v in range(15000):
        table[v * 7919 % 100003, v] = [v]
    return len(sorted(table))


class Speedometer:
    """How fast the machine runs now, as KERNEL_REF_S / (time of the speed kernel).

    The shared machine's speed drifts by up to two times over seconds to
    minutes, and process CPU time drifts with it.  Scaling each latency by the
    mean speed measured before, during and after it reports it in
    reference-machine time.
    """

    def __init__(self):
        self.at = float("-inf")
        self.speed = 1.0
        self.paused = 0.0  # seconds spent in the kernel, so far

    def _measure(self) -> float:
        t0 = time.perf_counter()
        speed_kernel()
        self.at = time.perf_counter()
        self.speed = KERNEL_REF_S / (self.at - t0)
        self.paused += self.at - t0
        return self.speed

    def read(self) -> float:
        """The latest speed, measured anew when it is older than SPEED_MAX_AGE_S."""
        if time.perf_counter() - self.at > SPEED_MAX_AGE_S:
            self._measure()
        return self.speed

    @contextlib.contextmanager
    def sampling(self, speeds: list):
        """Append a speed to ``speeds`` every SPEED_MAX_AGE_S of CPU time in the body."""

        def on_prof(signum, frame):
            speeds.append(self._measure())

        previous = signal.signal(signal.SIGPROF, on_prof)
        signal.setitimer(signal.ITIMER_PROF, SPEED_MAX_AGE_S, SPEED_MAX_AGE_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)


class DeadlineExceeded(BaseException):
    """Raised from SIGALRM when a command overruns its deadline.

    A BaseException, so that no ``except Exception`` in the program swallows it.
    """


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


@dataclass
class Outcome:
    status: str  # "done", "deadline" or "traceback"
    seconds: float  # as measured, less the time the speed kernel ran inside it
    rc: int | None = None
    stdout: str = ""
    error: str | None = None  # the "error:" line, or the traceback's last line
    speeds: tuple = ()  # Speedometer readings taken while the command ran

    def reference_entry(self) -> dict:
        """The form stored in reference.json."""
        if self.status == "deadline":
            return {"stall": True}
        if self.status == "traceback":
            return {"traceback": self.error}
        if self.rc == 2:
            return {"rc": 2, "error": self.error}
        return {"rc": self.rc, "stdout_sha256": hashlib.sha256(self.stdout.encode()).hexdigest()}


def run_command(main, argv, deadline_s: float, meter: Speedometer | None = None) -> Outcome:
    """Run ``main(argv)`` with stdout and stderr captured, stopped after deadline_s.

    With a meter, the machine's speed is sampled while the command runs.
    """
    out, err = io.StringIO(), io.StringIO()
    speeds = []
    sampling = meter.sampling(speeds) if meter else contextlib.nullcontext()
    paused = meter.paused if meter else 0.0
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
        with sampling, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(argv))
        status, error = "done", None
    except DeadlineExceeded:
        status, rc, error = "deadline", None, None
    except (Exception, SystemExit):  # a traceback is a failed command, not a benchmark crash
        status, rc = "traceback", None
        error = traceback.format_exc().strip().splitlines()[-1]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - t0
        signal.signal(signal.SIGALRM, previous)
    if meter:
        seconds -= meter.paused - paused
    if status == "done" and rc == 2:
        error = next((ln for ln in err.getvalue().splitlines() if ln.startswith("error:")), None)
    return Outcome(status, seconds, rc, out.getvalue(), error, tuple(speeds))


def judge(outcome: Outcome, expected: dict | None) -> str:
    """Classify an outcome against its reference entry.

    "ok": finished and matches.  "deadline", "traceback", "mismatch": failed.
    "unverified": finished where the reference holds no outcome (the seed
    commit stalled and was never let finish), so the verdict is unchecked; it
    counts as failed.
    """
    if outcome.status != "done":
        return outcome.status
    if expected is not None and expected.get("stall"):
        return "unverified"
    return "ok" if outcome.reference_entry() == expected else "mismatch"


FAILED = ("deadline", "traceback", "mismatch", "unverified")


@dataclass
class CommandResult:
    argv: tuple
    outcome: Outcome
    verdict: str
    speed: float  # mean Speedometer reading before, during and after the command

    @property
    def ref_seconds(self) -> float:
        """The latency in reference-machine seconds."""
        return self.outcome.seconds * self.speed


def write_inputs(workload, directory: Path) -> dict:
    """Write the workload's files; returns file name -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, text in workload.files.items():
        path = directory / name
        path.write_text(text)
        paths[name] = str(path)
    return paths


def run_pass(cli, workload, commands, paths: dict, reference: dict, meter: Speedometer | None) -> list[CommandResult]:
    """One closed-loop pass over commands: each command starts when the last returns.

    Without a meter the speed is taken as 1 and nothing else runs inside a
    command: a traced pass, whose spans would otherwise hold the kernel's time.
    ``cli.main`` is looked up per pass, so a tracer installed in between is seen.
    """
    main = cli.main
    results = []
    for argv in commands:
        real = [paths[a[1:]] if a.startswith("@") else a for a in argv]
        expected = reference.get(workloads.command_key(argv, workload.files))
        before = meter.read() if meter else 1.0
        gc.collect()  # start each command from a comparable heap, outside the timed region
        outcome = run_command(main, real, workload.deadline_s, meter)
        speed = statistics.fmean([before, *outcome.speeds, meter.read()]) if meter else 1.0
        results.append(CommandResult(argv, outcome, judge(outcome, expected), speed))
    return results


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())
