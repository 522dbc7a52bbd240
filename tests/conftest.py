import time

import pytest

from sc7core import quadforms
from sc7core.partitions import sc_count
from sc7core.qseries import SC7_ETA_QUOTIENT, eta_quotient_series, sc_series
from sc7core.ternary import DECOMPOSITION_FORMS, theta_coeffs

# Wall-clock cost of building each shared fixture, keyed by fixture name.
# The acceptance tests charge these against their runtime budgets, so the
# budgets stay honest no matter which test built the fixture first.
BUILD_TIMES: dict[str, float] = {}


@pytest.fixture(autouse=True)
def cold_class_numbers():
    """Each test starts with empty `hurwitz` and square-root memos, so
    none reads a class number or a root that an earlier test computed
    with a helper patched."""
    quadforms._hurwitz.cache_clear()
    quadforms._roots_mod_prime_power.cache_clear()


def _timed(name, builder):
    t0 = time.monotonic()
    value = builder()
    BUILD_TIMES[name] = time.monotonic() - t0
    return value


@pytest.fixture(scope="session")
def qs7():
    """Self-conjugate 7-core generating function, coefficients 0..2925."""
    return _timed("qs7", lambda: sc_series(7, 2926))


@pytest.fixture(scope="session")
def eta7():
    """The eta-quotient expansion carrying the same counts at q^(n+2)."""
    return _timed("eta7", lambda: eta_quotient_series(SC7_ETA_QUOTIENT, 2928))


@pytest.fixture(scope="session")
def theta_tables():
    """Representation numbers of the three decomposition forms, 0..501."""
    return _timed("theta_tables", lambda: [theta_coeffs(Q, 502) for Q in DECOMPOSITION_FORMS])


@pytest.fixture(scope="session")
def enum_counts():
    """Enumerated counts for n <= 300: the chain product of `sc_count`,
    the route closest to the definition (about 30 ms for all 301)."""
    return _timed("enum_counts", lambda: [sc_count(n, 7) for n in range(301)])
