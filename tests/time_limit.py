"""A bound on how long a test may wait, so that a hang fails the test."""

import signal
from contextlib import contextmanager


@contextmanager
def time_limit(seconds):
    """Raise ``TimeoutError`` in place of a hang (forked children do not
    inherit the alarm)."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
