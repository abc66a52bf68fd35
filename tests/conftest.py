"""Shared pytest wiring and oracles for the suite.

The acceptance tests record one verdict line per criterion; this hook
replays them in the terminal summary so they are visible even under
output capture.
"""

import itertools

from ffkakeya import diff_cover, sum_cover

acceptance_lines = []


def exhaustive_cover_exists(field, kind: str, size: int) -> bool:
    """Whether any subset of the given size covers, by plain enumeration of
    all subsets with no normalization and no pruning: the oracle for the
    certified minimum of the exact search."""
    predicate = diff_cover if kind == "radius" else sum_cover
    return any(predicate(field, combo)
               for combo in itertools.combinations(range(field.q), size))


def pytest_terminal_summary(terminalreporter):
    if not acceptance_lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in acceptance_lines:
        terminalreporter.write_line(line)
