"""Truncated multivariate Taylor jets of fixed maximal order 4.

A :class:`Jet4` stores, for a scalar function of ``dim`` variables expanded
about some base point, the coefficient

    c_m = (d^m f / dy^m)(base) / m!

for every multi-index m with |m| <= 4.  Addition and multiplication act by
truncated Cauchy products, division and square root by composed power
series; all four are exact through order 4 whenever the constant term
permits them.  Every derivative used elsewhere in this package is read off
a jet coefficient array, so there is exactly one differentiation engine
and one truth about what a derivative is.

Monomials are represented as sorted multisets of variable indices
(``itertools.combinations_with_replacement``), graded by degree.  With that
encoding the product of two monomials is just multiset concatenation,
which makes the multiplication table a flat triple of index arrays; a jet
product is one gather-multiply-scatter pass over that table.  Tables are
cached per dimension.

A jet may carry a leading batch axis, coefficients (B, ncoef), for B base
points; unbatched jets and per-row (B,) scalars mix with it row by row.  A
batched product is one bincount over row-shifted indices; it sums in input
order, so each row is bit-identical to the unbatched product.

Every jet also carries a structural degree bound ``deg``: each coefficient
of a monomial of degree above ``deg`` is exactly 0.0.  A product gathers
only the table terms whose factors lie within their operands' bounds; the
dropped terms would each add an exact zero to a bincount bin, so with
finite coefficients every result is bit-identical to the full-table one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, permutations
from math import factorial

import numpy as np

MAX_ORDER = 4
MAX_DIM = 8
BATCH_BLOCK = 64  # directions per batched jet evaluation in a sweep


class OrderExceeded(ValueError):
    """A derivative of total order above 4 was requested."""


class DivisionByZeroJet(ZeroDivisionError):
    """Division by a jet whose constant term is zero."""


class NegativeSqrtJet(ValueError):
    """Square root of a jet whose constant term is not positive."""


@dataclass(frozen=True)
class _Tables:
    dim: int
    monos: tuple
    index: dict
    exponents: np.ndarray      # (ncoef, dim) int
    fact: np.ndarray           # (ncoef,) float, m! per monomial
    mul_i: np.ndarray
    mul_j: np.ndarray
    mul_k: np.ndarray
    scatter: dict              # degree -> (coef_idx, flat_idx) for dense tensors

    @property
    def ncoef(self) -> int:
        return len(self.monos)


@lru_cache(maxsize=None)
def _tables(dim: int) -> _Tables:
    if not 1 <= dim <= MAX_DIM:
        raise ValueError(f"jet dimension must be in 1..{MAX_DIM}, got {dim}")
    monos = []
    for deg in range(MAX_ORDER + 1):
        monos.extend(combinations_with_replacement(range(dim), deg))
    monos = tuple(monos)
    index = {m: i for i, m in enumerate(monos)}
    ncoef = len(monos)

    exponents = np.zeros((ncoef, dim), dtype=np.int64)
    fact = np.ones(ncoef)
    for i, m in enumerate(monos):
        for v in m:
            exponents[i, v] += 1
        fact[i] = float(np.prod([factorial(int(e)) for e in exponents[i]]))

    mul_i, mul_j, mul_k = [], [], []
    for i, a in enumerate(monos):
        for j, b in enumerate(monos):
            if len(a) + len(b) <= MAX_ORDER:
                mul_i.append(i)
                mul_j.append(j)
                mul_k.append(index[tuple(sorted(a + b))])

    scatter = {}
    for deg in range(1, MAX_ORDER + 1):
        coef_idx, flat_idx = [], []
        shape = (dim,) * deg
        for i, m in enumerate(monos):
            if len(m) != deg:
                continue
            for perm in set(permutations(m)):
                coef_idx.append(i)
                flat_idx.append(int(np.ravel_multi_index(perm, shape)))
        scatter[deg] = (np.asarray(coef_idx, dtype=np.int64),
                        np.asarray(flat_idx, dtype=np.int64))

    return _Tables(dim=dim, monos=monos, index=index, exponents=exponents,
                   fact=fact,
                   mul_i=np.asarray(mul_i, dtype=np.int64),
                   mul_j=np.asarray(mul_j, dtype=np.int64),
                   mul_k=np.asarray(mul_k, dtype=np.int64),
                   scatter=scatter)


@lru_cache(maxsize=None)
def _mul_terms(dim: int, da: int, db: int) -> tuple:
    """Product-table terms (i, j, k) with deg(i) <= da and deg(j) <= db,
    in table order."""
    t = _tables(dim)
    deg = t.exponents.sum(axis=1)
    keep = (deg[t.mul_i] <= da) & (deg[t.mul_j] <= db)
    return t.mul_i[keep], t.mul_j[keep], t.mul_k[keep]


class Jet4:
    """Order-4 Taylor jet of a scalar function of ``dim`` variables.

    ``deg`` bounds the degree of the monomials with a nonzero coefficient:
    0 for ``constant``, 1 for ``variable``/``variables``, the larger
    operand bound for ``+``, ``-`` and scalar ``*``, and the sum (capped at
    MAX_ORDER) for a jet product.  Coefficients supplied from outside
    default to MAX_ORDER, which claims nothing.
    """

    __slots__ = ("dim", "coeffs", "deg")

    def __init__(self, dim: int, coeffs: np.ndarray, deg: int = MAX_ORDER):
        t = _tables(dim)
        c = np.asarray(coeffs, dtype=np.float64)
        if c.shape != (t.ncoef,) and (c.ndim != 2 or c.shape[1] != t.ncoef):
            raise ValueError(f"expected {t.ncoef} coefficients (or a batch of "
                             f"them) for dim {dim}, got shape {c.shape}")
        self.dim = dim
        self.coeffs = c
        self.deg = deg

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, dim: int, value: float) -> "Jet4":
        c = np.zeros(_tables(dim).ncoef)
        c[0] = value
        return _jet(dim, c, 0)

    @classmethod
    def variable(cls, dim: int, index: int, value: float = 0.0) -> "Jet4":
        """Jet of the coordinate function y_index (0-based) about ``value``."""
        if not 0 <= index < dim:
            raise ValueError(f"variable index {index} out of range for dim {dim}")
        c = np.zeros(_tables(dim).ncoef)
        c[0] = value
        c[1 + index] = 1.0  # degree-1 monomials sit right after the constant
        return _jet(dim, c, 1)

    @classmethod
    def variables(cls, dim: int, base) -> list:
        """Jets of y_1 .. y_dim about ``base``, or batched about its rows."""
        base = np.asarray(base, dtype=np.float64)
        if base.ndim not in (1, 2) or base.shape[-1] != dim:
            raise ValueError(f"base {base.shape}: not ({dim},) or (B, {dim})")
        c = np.zeros((dim,) + base.shape[:-1] + (_tables(dim).ncoef,))
        c[..., 0] = base.T
        for i in range(dim):
            c[i, ..., i + 1] = 1.0
        return [_jet(dim, ci, 1) for ci in c]

    # -- inspection --------------------------------------------------------

    @property
    def value(self):
        """The constant term: a float, or a (B,) array for a batch."""
        c = self.coeffs
        return float(c[0]) if c.ndim == 1 else c[:, 0].copy()

    def derivative(self, multi_index) -> float:
        """Partial derivative d^m f / dy^m at the base point (m! * c_m)."""
        m = tuple(int(e) for e in multi_index)
        if len(m) != self.dim:
            raise ValueError(f"multi-index must have length {self.dim}")
        if any(e < 0 for e in m):
            raise ValueError("multi-index entries must be nonnegative")
        if sum(m) > MAX_ORDER:
            raise OrderExceeded(f"total order {sum(m)} exceeds {MAX_ORDER}")
        mono = tuple(v for v, e in enumerate(m) for _ in range(e))
        t = _tables(self.dim)
        i = t.index[mono]
        return float(t.fact[i] * self.coeffs[i])

    def gradient(self) -> np.ndarray:
        return self.coeffs[..., 1:1 + self.dim].copy()

    def hessian(self) -> np.ndarray:
        return self.partial_tensors(2)[2]

    def partial_tensors(self, max_order: int = MAX_ORDER) -> tuple:
        """Dense symmetric derivative tensors (value, D1, ..., D_max_order).

        Entry k of the returned tuple is the full order-k derivative tensor
        of shape (dim,)*k, with every index permutation filled in; for a
        batch, every entry gains a leading axis of B rows.
        """
        if not 0 <= max_order <= MAX_ORDER:
            raise OrderExceeded(f"order {max_order} not in 0..{MAX_ORDER}")
        t = _tables(self.dim)
        scaled = t.fact * self.coeffs
        lead = self.coeffs.shape[:-1]
        out = [self.value]
        for deg in range(1, max_order + 1):
            coef_idx, flat_idx = t.scatter[deg]
            tensor = np.zeros(lead + (self.dim ** deg,))
            if lead:
                tensor[:, flat_idx] = scaled[:, coef_idx]
            else:
                tensor[flat_idx] = scaled[coef_idx]
            out.append(tensor.reshape(lead + (self.dim,) * deg))
        return tuple(out)

    # -- ring operations ---------------------------------------------------

    def _check_same(self, other: "Jet4"):
        if other.dim != self.dim:
            raise ValueError("jet dimensions differ")

    def __add__(self, other):
        if isinstance(other, Jet4):
            self._check_same(other)
            return _jet(self.dim, self.coeffs + other.coeffs,
                        max(self.deg, other.deg))
        c = self.coeffs.copy()
        if c.ndim == 1:
            c[0] += other
        else:
            c[:, 0] += other
        return _jet(self.dim, c, self.deg)

    __radd__ = __add__

    def __neg__(self):
        return _jet(self.dim, -self.coeffs, self.deg)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet4):
            if self.coeffs.ndim == 1:
                return _jet(self.dim, self.coeffs * float(other), self.deg)
            return _jet(self.dim, self.coeffs  # other: float or one per row
                        * np.asarray(other, dtype=np.float64)[..., None],
                        self.deg)
        self._check_same(other)
        ncoef = _tables(self.dim).ncoef
        mul_i, mul_j, mul_k = _mul_terms(self.dim, self.deg, other.deg)
        deg = min(MAX_ORDER, self.deg + other.deg)
        if self.coeffs.ndim == other.coeffs.ndim == 1:
            prod = self.coeffs[mul_i] * other.coeffs[mul_j]
            return _jet(self.dim, np.bincount(mul_k, weights=prod,
                                              minlength=ncoef), deg)
        prod = self.coeffs[..., mul_i] * other.coeffs[..., mul_j]
        rows = len(prod)
        flat = (mul_k + ncoef * np.arange(rows)[:, None]).ravel()
        return _jet(self.dim, np.bincount(flat, prod.ravel(), rows * ncoef)
                    .reshape(rows, ncoef), deg)

    __rmul__ = __mul__

    def _series(self, series) -> "Jet4":
        # Horner evaluation of sum_k series[k] * q^k where q = self with the
        # constant term dropped; q^5 vanishes in the truncated ring.
        q = _jet(self.dim, self.coeffs.copy(), self.deg)
        q.coeffs[..., 0] = 0.0
        acc = Jet4.constant(self.dim, series[-1])
        for a in reversed(series[:-1]):
            acc = acc * q + a
        return acc

    def reciprocal(self) -> "Jet4":
        b0 = self.coeffs[..., 0]   # every row of a batch is checked
        if (b0 == 0.0).any():
            raise DivisionByZeroJet("divisor jet has zero constant term")
        q = self * (1.0 / b0)
        return q._series([1.0, -1.0, 1.0, -1.0, 1.0]) * (1.0 / b0)

    def __truediv__(self, other):
        if isinstance(other, Jet4):
            return self * other.reciprocal()
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def sqrt(self) -> "Jet4":
        b0 = self.coeffs[..., 0]
        if (b0 <= 0.0).any():
            raise NegativeSqrtJet("sqrt of jet with non-positive constant term")
        q = self * (1.0 / b0)
        # binomial series for (1+x)^(1/2), truncated at x^4
        s = q._series([1.0, 0.5, -0.125, 0.0625, -0.0390625])
        return s * np.sqrt(b0)

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, np.integer)):
            raise TypeError("jet exponent must be an integer")
        k = int(exponent)
        if k < 0:
            return self.reciprocal() ** (-k)
        result = Jet4.constant(self.dim, 1.0)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __repr__(self):
        return f"Jet4(dim={self.dim}, value={self.value!r})"


def _jet(dim: int, coeffs: np.ndarray, deg: int) -> Jet4:
    """Jet4 from a float64 (ncoef,) or (B, ncoef) array, without the checks."""
    jet = object.__new__(Jet4)
    jet.dim, jet.coeffs, jet.deg = dim, coeffs, deg
    return jet
