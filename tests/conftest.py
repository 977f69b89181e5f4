import sys

import pytest

import support


@pytest.fixture(scope="session")
def atlas():
    """All connected graphs with up to 7 vertices, one per isomorphism class."""
    return support.atlas_connected(7)


@pytest.fixture(scope="session")
def bipartite_cat():
    """All bipartite graphs with side sizes up to 5, one per isomorphism class."""
    return support.bipartite_catalog(5)


@pytest.fixture
def default_recursion_limit():
    """Python's default recursion limit of 1,000 for one test."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(limit)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not support.ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for num, name, budget, elapsed, ok, detail in sorted(support.ACCEPTANCE):
        status = "PASS" if ok else "FAIL"
        line = f"ACCEPTANCE {num} {name}: {status} ({elapsed:.2f}s, budget {budget:g}s)"
        if detail:
            line += f" - {detail}"
        terminalreporter.write_line(line)
