from __future__ import annotations

import pytest

from singcat.exact_linalg import rational_field
from singcat.quiver_algebra import (
    Arrow,
    Quiver,
    compute_basis,
    nakayama_cyclic,
    orbit_grid_algebra,
)


# filled by the acceptance tests, printed after the run
ACCEPTANCE_RESULTS: dict[int, bool] = {}


@pytest.fixture
def record_criterion():
    def rec(n: int) -> None:
        ACCEPTANCE_RESULTS[n] = True
    return rec


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for n in range(1, 10):
        ok = ACCEPTANCE_RESULTS.get(n, False)
        terminalreporter.write_line(f"criterion {n}: {'pass' if ok else 'FAIL'}")


@pytest.fixture(scope="session")
def QQ():
    return rational_field()


@pytest.fixture(scope="session")
def orbit(QQ):
    """The period-4 grid orbit algebra with length series (3, 2, 3, 3)."""
    return orbit_grid_algebra((3, 2, 3, 3), QQ)


@pytest.fixture(scope="session")
def orbit_spec(QQ):
    """The 22-generator interval subcategory over the (3, 2, 3, 3) orbit."""
    from singcat.families import nakayama2_tilde
    _, spec = nakayama2_tilde((3, 2, 3, 3), 4, QQ)
    return spec


@pytest.fixture(scope="session")
def kx2(QQ):
    return nakayama_cyclic((2,), QQ)


@pytest.fixture(scope="session")
def kx4(QQ):
    return nakayama_cyclic((4,), QQ)


@pytest.fixture(scope="session")
def hereditary_a2(QQ):
    quiver = Quiver(["u", "v"], [Arrow("a", "u", "v")])
    alg = compute_basis(quiver, [], QQ, 3)
    alg.meta = {"kind": "hereditary-a2"}
    return alg
