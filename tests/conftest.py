"""Shared pytest plumbing.

The acceptance suite registers one verdict line per criterion; replaying
them in the terminal summary keeps them visible even though passing tests
have their output captured.  ``reference_searches`` counts the reference
member searches of pencils.  ``random_germ`` and ``random_randers`` are the
random inputs the test modules share.
"""

from functools import cached_property

import numpy as np
import pytest

from minksub.germ import Germ, sym3
from minksub.minkowski import NormModel
from minksub.pencil import SymPencil

ACCEPTANCE_LINES = []


def random_germ(rng, n, p, scale=1.0):
    d2 = scale * rng.standard_normal((p, n, n))
    d2 = 0.5 * (d2 + d2.swapaxes(1, 2))
    d3 = scale * sym3(rng.standard_normal((p, n, n, n)))
    return Germ.make(n, p, d2, d3)


def random_randers(rng, dim):
    """A Randers norm whose drift b has a^-1-length drawn in [0.08, 0.4]."""
    m = rng.standard_normal((dim, dim)) * 0.3
    a = np.eye(dim) + m @ m.T
    b = rng.standard_normal(dim)
    b *= 0.4 * rng.uniform(0.2, 1.0) / np.sqrt(b @ np.linalg.solve(a, b))
    return NormModel.randers(a, b)


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
