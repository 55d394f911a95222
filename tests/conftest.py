import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that leaves a non-daemon thread running: every worker a
    call starts must be joined before the call returns or raises."""
    before = set(threading.enumerate())
    yield
    left = [t for t in threading.enumerate() if t not in before and not t.daemon]
    assert not left, "threads still running after the test: %s" % left
