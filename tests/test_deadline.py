"""The suite's own time bound: a fixture whose setup hangs fails instead
of stalling the run, and the test's deadline resumes afterwards."""

import signal
import time
import types

import pytest

import conftest


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs setitimer")
def test_a_hanging_fixture_setup_fails_at_its_deadline(monkeypatch):
    monkeypatch.setattr(conftest, "DEADLINE_S", 0.05)
    setup = conftest.pytest_fixture_setup(types.SimpleNamespace(argname="hung"), None)
    next(setup)
    start = time.perf_counter()
    with pytest.raises(pytest.fail.Exception,
                       match="the setup of fixture hung ran past its deadline of 0.05 s"):
        time.sleep(30)
    assert time.perf_counter() - start < 5
    with pytest.raises(StopIteration):
        setup.send(None)
    # the test's own deadline, armed before, runs again
    assert signal.getitimer(signal.ITIMER_REAL)[0] > 0
