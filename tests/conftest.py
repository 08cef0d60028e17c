"""A time limit on every test, so that a looping regression fails the test
instead of hanging the whole run."""
import signal

import pytest

TIME_LIMIT_S = 60


class TimeLimitExceeded(BaseException):
    """Not an Exception, so hypothesis reports it at once instead of
    shrinking, and no ``except Exception`` in the code under test eats it."""


def _expire(signum, frame):
    raise TimeLimitExceeded(f"test ran longer than {TIME_LIMIT_S} s")


@pytest.fixture(autouse=True)
def time_limit():
    if not hasattr(signal, "SIGALRM"):      # no alarm signal on Windows
        yield
        return
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
