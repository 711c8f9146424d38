"""Closed-form references that tests compare the shipped routes against.

Nothing in ``minksub`` calls these; they restate the paper's formulas
independently of the routes the commands run.
"""

from math import sqrt

from minksub.example import ExampleParams
from minksub.pencil import CanonicalData


def canonical_type(C: CanonicalData) -> int:
    """Type of the canonical pencil: s + min d_j when l >= 2, else s, with
    d_j = n_j + ... + n_{j+l-2} the cyclic windows of length l-1."""
    if C.l <= 1:
        return C.s
    K = 2 * C.l - 1
    return C.s + min(sum(C.n[(j + t) % K] for t in range(C.l - 1))
                     for j in range(K))


def example_constants(params: ExampleParams) -> dict:
    """The shorthand constants a1, a2 and the curvature values T at the
    three directions where the cubic group vanishes."""
    A, B, e1, e2, e3 = (params.A, params.B, params.eps1, params.eps2,
                        params.eps3)
    a1 = 4.0 * A * B + 4.0 * A * e2 - 9.0 * e1 ** 2
    a2 = A * e2 - e1 ** 2
    f11 = f22 = 1.0
    f12 = sqrt(1.0 + e3)
    det = f11 * f22 - f12 ** 2
    T10 = (a1 * det + 72.0 * a2 * f11 ** 2) / (4.0 * A ** 2)
    T13 = (2.0 * a1 * det
           + 9.0 * a2 * (f11 + 3.0 * f22 - 2.0 * sqrt(3.0) * f12) ** 2) \
        / (2.0 * A ** 2)
    return {"a1": a1, "a2": a2, "T10": T10, "T13": T13}
