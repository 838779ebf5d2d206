"""One hypothesis profile and one time limit for the whole suite.

Property tests run a fixed, derandomized sequence of examples with no
deadline and no example database, so a run is reproducible and leaves
nothing behind; each test sets only its own `max_examples`.

Hypothesis measures an example only after it returns, so an elimination
that never ends would stall the suite instead of failing it.  On POSIX each
test therefore runs under a real-time alarm of `TEST_TIME_LIMIT_S` seconds,
far above the slowest test (about 3 s), and fails when it rings.
"""

import signal

import pytest
from hypothesis import settings

settings.register_profile("fibrecheck", deadline=None, derandomize=True, database=None)
settings.load_profile("fibrecheck")

TEST_TIME_LIMIT_S = 60


class TimeLimitExceeded(BaseException):
    """Raised where a test runs past `TEST_TIME_LIMIT_S`.

    Not an Exception: hypothesis would take it for a failing example and run
    that example again to shrink and replay it, which would hang once more
    with no alarm left.
    """


def _ring(signum, frame):
    code = frame.f_code
    raise TimeLimitExceeded(f"test ran past its limit of {TEST_TIME_LIMIT_S} s, "
                            f"in {code.co_name} ({code.co_filename}:{frame.f_lineno})")


@pytest.hookimpl(wrapper=True)
def pytest_pyfunc_call(pyfuncitem):
    """Run each test function under the alarm, where the platform has one.

    The alarm is reported by its message alone, which names the function it
    interrupted: that frame may stand at an instruction without a line
    number, and pytest cannot print a traceback through it.
    """
    if not hasattr(signal, "setitimer"):
        return (yield)
    previous = signal.signal(signal.SIGALRM, _ring)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        return (yield)
    except TimeLimitExceeded as exc:
        message = str(exc)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    pytest.fail(message, pytrace=False)
