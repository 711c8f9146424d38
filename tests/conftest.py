"""Shared pytest plumbing.

The acceptance suite registers one verdict line per criterion; replaying
them in the terminal summary keeps them visible even though passing tests
have their output captured.  ``reference_searches`` counts the reference
member searches of pencils.
"""

from functools import cached_property

import pytest

from minksub.pencil import SymPencil

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance criteria", sep="-")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


@pytest.fixture
def reference_searches(monkeypatch):
    """The pencils whose reference member is searched, one entry a search:
    ``SymPencil._reference`` wrapped in a counting cached_property."""
    search = SymPencil.__dict__["_reference"].func
    searches = []

    def spy(P):
        searches.append(P)
        return search(P)

    prop = cached_property(spy)
    prop.__set_name__(SymPencil, "_reference")
    monkeypatch.setattr(SymPencil, "_reference", prop)
    return searches
