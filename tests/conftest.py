"""Shared reference data and fixtures for the test suite."""
import tracemalloc

import numpy as np
import pytest

from kab.evolution import PROFILES

# Reference spectrum table for the operator family: columns are the printed
# values (as strings, so each entry carries its own decimal precision).
# numeric_22: converged numerical kappa_n/2 for (alpha, beta) = (2, 2)
# wkb_22:     closed-form WKB kappa_n/2 for (2, 2)
# h_n:        harmonic numbers, the exact (1, 1) spectrum on the same scale
# wkb_11:     closed-form WKB kappa_n/2 for (1, 1)
TABLE1 = {
    "numeric_22": ["0.2332", "1.4437", "1.9409", "2.2833", "2.5317",
                   "2.7342", "2.9000", "3.0440", "3.1686", "3.2803"],
    "wkb_22": ["0.3357", "1.4343", "1.9451", "2.2816", "2.5329",
               "2.7335", "2.9006", "3.0437", "3.1689", "3.2801"],
    "h_n": ["0", "1", "1.5", "1.8333", "2.0833",
            "2.2833", "2.45", "2.5929", "2.7179", "2.8290"],
    "wkb_11": ["-0.116", "0.9827", "1.4935", "1.83", "2.0813",
               "2.282", "2.449", "2.5921", "2.7173", "2.8285"],
}


def printed_tolerance(entry: str) -> float:
    """Half a unit in the last printed decimal place."""
    if "." not in entry:
        return 0.5
    return 0.5 * 10.0 ** (-len(entry.split(".")[1]))


def traced_peak(fn, *args, **kw):
    """(fn(*args, **kw), the peak of the memory tracemalloc traced in the call,
    in bytes): tracing starts just before the call and stops after it."""
    tracemalloc.start()
    try:
        result = fn(*args, **kw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture(scope="session")
def table1():
    return TABLE1


@pytest.fixture(scope="session")
def smooth_profiles():
    return PROFILES


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260823)
