import sys

import numpy as np
import pytest


def _numpy_normals(seed: int, shape) -> np.ndarray:
    """Standard normals from numpy's Generator on Philox key (seed, 0),
    counter 0: plain Gaussian test input, independent of eulermc's streams."""
    key = np.array([seed & (2**64 - 1), 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=0)).standard_normal(shape)


@pytest.fixture
def numpy_normals():
    return _numpy_normals


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the per-criterion pass/fail lines collected by the acceptance
    suite, past any output capture."""
    mod = sys.modules.get("tests.test_acceptance") or sys.modules.get("test_acceptance")
    lines = getattr(mod, "REPORT_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
