import pytest


@pytest.fixture(scope="session")
def suite_verdicts():
    """One serial ``run_suite()`` at seed offset 0, shared by the tests that only read it."""
    from bsvielab.harness.runner import run_suite

    return run_suite()
