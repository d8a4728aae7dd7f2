"""A test that runs past the per-test time limit fails instead of hanging the suite."""

import signal
import time

import pytest

from conftest import TimeLimitExceeded


def test_a_test_past_its_time_limit_fails():
    # the autouse time_limit fixture has armed SIGALRM; fire it at once
    with pytest.raises(TimeLimitExceeded):
        signal.setitimer(signal.ITIMER_REAL, 0.05)
        time.sleep(5)
