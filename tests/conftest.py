import contextlib
import signal

import pytest


@pytest.fixture
def deadline():
    """``with deadline(seconds):`` fails the test when the block runs longer
    than ``seconds`` (a whole number), so a search that regresses into a stall
    fails instead of hanging the suite.  Uses SIGALRM: POSIX, main thread."""

    @contextlib.contextmanager
    def limit(seconds: int):
        def expire(signum, frame):
            pytest.fail(f"ran past its {seconds} s deadline")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    return limit
