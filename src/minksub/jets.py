"""Truncated multivariate Taylor jets of order at most 4.

A :class:`Jet4` of order k (1 <= k <= 4) stores, for a scalar function of
``dim`` variables expanded about some base point, the coefficient

    c_m = (d^m f / dy^m)(base) / m!

for every multi-index m with |m| <= k.  Addition and multiplication act by
truncated Cauchy products, division and square root by composed power
series; all four are exact through order k whenever the constant term
permits them.  Every derivative used elsewhere in this package is read off
a jet coefficient array, so there is exactly one differentiation engine
and one truth about what a derivative is.

Monomials are represented as sorted multisets of variable indices
(``itertools.combinations_with_replacement``), graded by degree.  With that
encoding the product of two monomials is just multiset concatenation,
which makes the multiplication table a flat triple of index arrays (i, j,
k = i + j); a jet product is one gather-multiply-scatter pass over that
table, cached per dimension.  A jet of order k is the prefix of the
order-4 array through degree k; its products keep only the table terms of
degree <= k, each summed in the same order, so bit for bit the prefix.

A jet may carry leading axes, coefficients (..., ncoef): a jet tensor, such
as one jet per base point or a matrix of jets.  Jets and floats mix with it
entry by entry under numpy broadcasting, and ``@`` contracts leading axes
as numpy's matmul; either product is one gather (``take`` on the last
axis, so C-ordered factors), one contraction for ``@``, and one bincount
over row-shifted indices that sums in input order, so each entry of ``*``
is bit-identical to the product of single jets.

Every jet also carries a structural degree bound ``deg``: each coefficient
of a monomial of degree above ``deg`` is exactly 0.0.  A product gathers
only the table terms whose factors lie within their operands' bounds; the
dropped terms would each add an exact zero to a bincount bin, so with
finite coefficients every result is bit-identical to the full-table one.
The int ``mask`` adds two facts.  Its low MAX_DIM bits are the support,
the variables a nonzero coefficient may involve; products drop the terms
whose factors leave it, exact zeros as above.  A bit 1 << (MAX_DIM + p)
is the normal cap: products keep only the monomials of degree <= 2 in the
last p variables, a quotient by a monomial ideal, so each kept coefficient
stays exact through series; the slots it drops hold 0.0 and mean "not
computed".  Sums and products OR the masks, other ops keep them, and
plans are cached per (dims, degs, orders, masks).  The series of sqrt and
reciprocal also pass their plans lower degree bounds, 1 for their argument
q (its constant term dropped) and 2 for q^2, below which each coefficient
is an exact zero: s0 + s1 q + s2 q^2 + q^2 (s3 q + s4 q^2) takes two
products and keeps no term with such a factor, bit for bit the full table.

A polynomial P of degree <= 4 needs no ring ops and no coordinate jets:
its jet about a base is one Taylor shift, c_m = sum_r P_(m+r) C(m+r, m)
base^r, which reads the same table as (r, m, m + r), so
:class:`Polynomials` compiles the terms with P_(m+r) != 0 once and a jet,
given the base, order and cap, is one gather-multiply-bincount over them
(Griewank & Walther, *Evaluating Derivatives*, ch. 13).  Its jet has deg
P's degree and mask P's variables; order and cap drop whole bins (m above
the order, or of normal degree > 2, held at 0.0), so each kept coefficient
sums the same terms in the same order: bit for bit the order-4 prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import factorial

import numpy as np

MAX_ORDER = 4
MAX_DIM = 8
# directions per batched jet evaluation: 128 runs every grid of up to 128
# directions as one block and was no slower than 64 on any sweep shape in a
# calibrated block-size scan; 256 was slower at n = 3 and page-faulted more
BATCH_BLOCK = 128


class OrderExceeded(ValueError):
    """An order above the jet's (or above 4) was requested."""


class DivisionByZeroJet(ZeroDivisionError):
    """Division by a jet whose constant term is zero."""


class NegativeSqrtJet(ValueError):
    """Square root of a jet whose constant term is not positive."""


@dataclass(frozen=True)
class _Tables:
    dim: int
    monos: tuple
    sizes: tuple               # order k -> number of monomials of degree <= k
    exponents: np.ndarray      # (ncoef, dim) int
    degree: np.ndarray         # (ncoef,) int
    support: np.ndarray        # (ncoef,) int, bitmask of the variables
    fact: np.ndarray           # (ncoef,) float, m! per monomial
    factors: np.ndarray        # (ncoef, 4): variables, then dim as padding
    mul_i: np.ndarray
    mul_j: np.ndarray
    mul_k: np.ndarray
    dense: dict                # degree -> coefficient index per tensor entry

    @property
    def ncoef(self) -> int:
        return len(self.monos)


def check_dim(dim: int) -> None:
    """ValueError unless 1 <= dim <= MAX_DIM; call it before sizing arrays."""
    if not 1 <= dim <= MAX_DIM:
        raise ValueError(f"jet dimension must be in 1..{MAX_DIM}, got {dim}")


@lru_cache(maxsize=None)
def _tables(dim: int) -> _Tables:
    check_dim(dim)
    monos, sizes = [], []
    for deg in range(MAX_ORDER + 1):
        monos.extend(combinations_with_replacement(range(dim), deg))
        sizes.append(len(monos))
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

    dense = {deg: np.asarray([index[tuple(sorted(m))] for m in
                              product(range(dim), repeat=deg)], dtype=np.int64)
             for deg in range(1, MAX_ORDER + 1)}  # row-major tensor entries
    factors = np.asarray([m + (dim,) * (MAX_ORDER - len(m)) for m in monos])
    mul_i, mul_j, mul_k = (np.asarray(x, dtype=np.int64)
                           for x in (mul_i, mul_j, mul_k))
    return _Tables(dim=dim, monos=monos, exponents=exponents,
                   degree=exponents.sum(axis=1),
                   support=(exponents > 0) @ (1 << np.arange(dim)),
                   fact=fact, factors=factors, sizes=tuple(sizes),
                   mul_i=mul_i, mul_j=mul_j, mul_k=mul_k, dense=dense)


@lru_cache(maxsize=None)
def _plan(dim: int, dim_b: int, da: int, db: int, oa: int, ob: int, ma: int,
          mb: int, va: int = 0, vb: int = 0) -> tuple:
    """Plan of the product of jets (dim, deg da, order oa, mask ma) and
    (dim_b, db, ob, mb) whose coefficients of degree below va and vb are
    exact zeros: the table terms (i, j, k) it keeps, then the result's
    ncoef, deg, order and mask."""
    if dim_b != dim:
        raise ValueError("jet dimensions differ")
    t = _tables(dim)
    order, mask = min(oa, ob), ma | mb
    deg, sup = t.degree, t.support
    di, dj = deg[t.mul_i], deg[t.mul_j]
    keep = ((va <= di) & (di <= da) & (vb <= dj) & (dj <= db)
            & (deg[t.mul_k] <= order) & (sup[t.mul_i] | ma == ma)
            & (sup[t.mul_j] | mb == mb))
    cap = mask >> MAX_DIM           # 1 << p for jets capped at p normals
    if cap & (cap - 1):
        raise ValueError("jets capped at different normal counts")
    if cap:
        normal = t.exponents[:, dim + 1 - cap.bit_length():].sum(axis=1)
        keep &= normal[t.mul_k] <= 2
    return (t.mul_i[keep], t.mul_j[keep], t.mul_k[keep], t.sizes[order],
            min(order, da + db), order, mask)


def _size(dim: int, order: int) -> int:
    """Number of coefficients of a jet of ``order`` in ``dim`` variables."""
    if not 1 <= order <= MAX_ORDER:
        raise OrderExceeded(f"jet order {order} not in 1..{MAX_ORDER}")
    return _tables(dim).sizes[order]


def _scatter(prod: np.ndarray, mul_k: np.ndarray, ncoef: int) -> np.ndarray:
    """Sum product terms prod (..., T) into the bins mul_k of each entry of
    the leading axes: one bincount over row-shifted indices."""
    rows = math.prod(prod.shape[:-1])
    # with no bins there are no terms, and any nonzero step will do
    flat = (np.arange(0, rows * ncoef, ncoef or 1)[:, None] + mul_k).ravel()
    return np.bincount(flat, prod.ravel(), rows * ncoef).reshape(
        prod.shape[:-1] + (ncoef,))


class Jet4:
    """Taylor jet of order ``order`` <= 4 of a scalar function of ``dim``
    variables, or a tensor of such jets: coefficients (..., ncoef).

    ``deg`` bounds the degree of the monomials with a nonzero coefficient:
    0 for ``constant``, 1 for ``variables``, the larger operand bound for
    ``+``, ``-`` and scalar ``*``, and the sum (capped at the order) for a
    jet product; ``mask`` is {i} for y_i, {} for constants (module
    docstring).  Coefficients supplied from outside set the order by their
    count, default ``deg`` to it and claim all variables, uncapped.
    """

    __slots__ = ("dim", "coeffs", "deg", "order", "mask")
    __array_ufunc__ = None  # numpy operands defer to the jet's operators

    def __init__(self, dim: int, coeffs: np.ndarray, deg: int = MAX_ORDER):
        sizes = _tables(dim).sizes
        c = np.asarray(coeffs, dtype=np.float64)
        if c.ndim == 0 or c.shape[-1] not in sizes[1:]:
            raise ValueError(f"expected {sizes[-1]} coefficients (or the "
                             f"order-k prefix, one of {sizes[1:-1]}) in the "
                             f"last axis for dim {dim}, got shape {c.shape}")
        self.dim = dim
        self.coeffs = c
        self.order = sizes.index(c.shape[-1])
        self.deg = min(deg, self.order)
        self.mask = (1 << dim) - 1

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, dim: int, value, order: int = MAX_ORDER) -> "Jet4":
        """The constant ``value``, or a tensor shaped like an array of them."""
        c = np.zeros(np.shape(value) + (_size(dim, order),))
        c[..., 0] = value
        return _jet(dim, c, 0, order, 0)

    @classmethod
    def variables(cls, dim: int, base, order: int = MAX_ORDER,
                  normal: int = 0) -> list:
        """Jets of y_1 .. y_dim about ``base`` (..., dim), each shaped like
        its leading axes (a batch of base points, for example); ``normal``
        = p > 0 caps their products at normal degree 2 in the last p."""
        base = np.asarray(base, dtype=np.float64)
        if base.ndim == 0 or base.shape[-1] != dim:
            raise ValueError(f"base {base.shape}: not (..., {dim})")
        if not 0 <= normal <= dim:
            raise ValueError(f"normal count {normal} not in 0..{dim}")
        c = np.zeros((dim,) + base.shape[:-1] + (_size(dim, order),))
        c[..., 0] = base.transpose((-1,) + tuple(range(base.ndim - 1)))
        for i in range(dim):
            c[i, ..., i + 1] = 1.0  # degree 1 sits right after the constant
        cap = 1 << MAX_DIM + normal if normal else 0
        return [_jet(dim, ci, 1, order, cap | 1 << i)
                for i, ci in enumerate(c)]

    @staticmethod
    def stack(jets) -> "Jet4":
        """Jets of one dimension, order and shape as one jet tensor, along a
        new first axis."""
        mask = 0
        for jet in jets:
            mask |= jet.mask
        return _jet(jets[0].dim, np.array([jet.coeffs for jet in jets]),
                    max([jet.deg for jet in jets]), jets[0].order, mask)

    # -- inspection --------------------------------------------------------

    @property
    def shape(self) -> tuple:
        """The leading axes: () for a single jet."""
        return self.coeffs.shape[:-1]

    @property
    def value(self):
        """The constant term: a float, or an array for a jet tensor."""
        c = self.coeffs
        return float(c[0]) if c.ndim == 1 else c[..., 0].copy()

    def hessian(self) -> np.ndarray:
        return self.partial_tensors(2)[2]

    def partial_tensors(self, max_order: int = MAX_ORDER) -> tuple:
        """Dense symmetric derivative tensors (value, D1, ..., D_max_order).

        Entry k of the returned tuple is the full order-k derivative tensor
        of shape (dim,)*k, with every index permutation filled in; for a
        jet tensor, every entry gains its leading axes.  ``max_order`` may
        not exceed the jet's order.
        """
        if not 0 <= max_order <= self.order:
            raise OrderExceeded(f"order {max_order} not in 0..{self.order}")
        t = _tables(self.dim)
        lead, ncoef = self.coeffs.shape[:-1], self.coeffs.shape[-1]
        scaled = t.fact[:ncoef] * self.coeffs
        out = [self.value]
        for deg in range(1, max_order + 1):
            out.append(scaled.take(t.dense[deg], -1).reshape(
                lead + (self.dim,) * deg))
        return tuple(out)

    def __getitem__(self, key) -> "Jet4":
        """Index the leading axes as numpy does; coefficients stay whole."""
        key = key if isinstance(key, tuple) else (key,)
        return _jet(self.dim, self.coeffs[key + (slice(None),)], self.deg,
                    self.order, self.mask)

    def swapaxes(self, a: int, b: int) -> "Jet4":
        axes = range(self.coeffs.ndim - 1)   # the leading axes only
        return _jet(self.dim, self.coeffs.swapaxes(axes[a], axes[b]),
                    self.deg, self.order, self.mask)

    def __matmul__(self, other):
        return _matmul(self, other)

    def __rmatmul__(self, other):
        return _matmul(other, self)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet4):
            if other.dim != self.dim:
                raise ValueError("jet dimensions differ")
            if other.order == self.order:   # a third of max()'s cost
                deg = self.deg if self.deg >= other.deg else other.deg
                return _jet(self.dim, self.coeffs + other.coeffs, deg,
                            self.order, self.mask | other.mask)
            order = min(self.order, other.order)  # the sum has the lower one
            ncoef = _tables(self.dim).sizes[order]
            return _jet(self.dim, self.coeffs[..., :ncoef]
                        + other.coeffs[..., :ncoef],
                        min(order, max(self.deg, other.deg)), order,
                        self.mask | other.mask)
        c = self.coeffs.copy()
        if c.ndim == 1:
            c[0] += other
        else:
            c[..., 0] += other
        return _jet(self.dim, c, self.deg, self.order, self.mask)

    __radd__ = __add__

    def __neg__(self):
        return _jet(self.dim, -self.coeffs, self.deg, self.order, self.mask)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet4):
            if self.coeffs.ndim == 1:
                return _jet(self.dim, self.coeffs * float(other), self.deg,
                            self.order, self.mask)
            return _jet(self.dim, self.coeffs  # a float, or one per entry
                        * np.asarray(other, dtype=np.float64)[..., None],
                        self.deg, self.order, self.mask)
        return _product(self, other)

    __rmul__ = __mul__

    def _series(self, series) -> "Jet4":
        # sum_k series[k] q^k with q = self less its constant term, as
        # s0 + s1 q + s2 q^2 + q^2 (s3 q + s4 q^2) (Paterson & Stockmeyer,
        # SIAM J. Comput. 2(1), 1973): two products, which skip the exact
        # zeros of q's constant term and of q^2's bins below degree 2; at
        # order <= 2 the last term, of degree >= 3, has no bin
        q = _jet(self.dim, self.coeffs.copy(), self.deg, self.order, self.mask)
        q.coeffs[..., 0] = 0.0
        s0, s1, s2, s3, s4 = series
        q2 = _product(q, q, 1, 1)
        acc = q * s1 + q2 * s2 + s0
        if self.order <= 2:
            return acc
        return acc + _product(q2, q * s3 + q2 * s4, 2, 1)

    def reciprocal(self) -> "Jet4":
        b0 = self.coeffs[..., 0]   # every entry of a tensor is checked
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
        if k == 0:
            return Jet4.constant(self.dim, np.ones(self.shape), self.order)
        result, base = None, self
        while k:
            if k & 1:
                result = base if result is None else result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __repr__(self):
        return f"Jet4(dim={self.dim}, value={self.value!r})"


def _jet(dim: int, coeffs: np.ndarray, deg: int, order: int,
         mask: int) -> Jet4:
    """Jet4 from a float64 (..., ncoef) array of the order, without checks."""
    jet = object.__new__(Jet4)
    jet.dim, jet.coeffs, jet.deg, jet.order = dim, coeffs, deg, order
    jet.mask = mask
    return jet


def _product(a: Jet4, b: Jet4, va: int = 0, vb: int = 0) -> Jet4:
    """a * b, given that the coefficients of a of degree below va and of b
    below vb are exact zeros: one gather-multiply-scatter over the plan."""
    mul_i, mul_j, mul_k, ncoef, deg, order, mask = _plan(
        a.dim, b.dim, a.deg, b.deg, a.order, b.order, a.mask, b.mask, va, vb)
    x, y = a.coeffs, b.coeffs
    if x.ndim == y.ndim == 1:
        return _jet(a.dim, np.bincount(mul_k, x[mul_i] * y[mul_j], ncoef),
                    deg, order, mask)
    return _jet(a.dim, _scatter(x.take(mul_i, -1) * y.take(mul_j, -1),
                                mul_k, ncoef), deg, order, mask)


def _matmul(a, b) -> Jet4:
    """a @ b over leading axes by numpy's matmul rules, 1-D operands
    included, for jet tensors and float arrays: one einsum, between a
    gather and a row-shifted bincount when both are jets."""
    a = a if isinstance(a, Jet4) else np.asarray(a, dtype=np.float64)
    b = b if isinstance(b, Jet4) else np.asarray(b, dtype=np.float64)
    ia = "...ik" if len(a.shape) > 1 else "k"
    ib = "...kj" if len(b.shape) > 1 else "k"
    io = "..." + ia[3:4] + ib[4:]
    if not isinstance(b, Jet4):
        return _jet(a.dim, np.einsum(f"{ia}t,{ib}->{io}t", a.coeffs, b),
                    a.deg, a.order, a.mask)
    if not isinstance(a, Jet4):
        return _jet(b.dim, np.einsum(f"{ia},{ib}t->{io}t", a, b.coeffs),
                    b.deg, b.order, b.mask)
    mul_i, mul_j, mul_k, ncoef, deg, order, mask = _plan(
        a.dim, b.dim, a.deg, b.deg, a.order, b.order, a.mask, b.mask)
    prod = np.einsum(f"{ia}t,{ib}t->{io}t", a.coeffs.take(mul_i, -1),
                     b.coeffs.take(mul_j, -1))
    return _jet(a.dim, _scatter(prod, mul_k, ncoef), deg, order, mask)


def form(a, b) -> np.ndarray:
    """Coefficients of y.a.y + b.y (a (dim, dim), b (dim,)) in jet order."""
    t = _tables(len(b))
    c = np.bincount(t.dense[2], np.ravel(a), t.ncoef)
    c[1:t.dim + 1] = b
    return c


@lru_cache(maxsize=1024)
def _shift_plan(dim: int, pattern: bytes, order: int, normal: int) -> tuple:
    """Taylor-shift terms of polynomials whose nonzero coefficients are
    ``pattern`` (bools (K, ncoef)) that a jet of ``order`` and cap keeps: their
    index among all of the pattern's terms, their bins, and the factors of
    base^r.  Shared by the norms of one pattern, which keep only weights."""
    t = _tables(dim)
    nonzero = np.frombuffer(pattern, dtype=bool).reshape(-1, t.ncoef)
    piece, term = np.nonzero(nonzero[:, t.mul_k])
    r, m = t.mul_i[term], t.mul_j[term]
    keep = t.degree[m] <= order
    if normal:
        keep &= t.exponents[m, dim - normal:].sum(1) <= 2
    r = r[keep]
    return (np.flatnonzero(keep), piece[keep] * t.sizes[order] + m[keep],
            t.factors[r, :max(t.degree[r].max(initial=0), 1)].T)


class Polynomials:
    """Polynomials P_1 .. P_K of degree <= 4 in ``dim`` variables, from
    coefficients (K, ncoef) in jet order, compiled for one Taylor shift: the
    product-table terms (r, m, m + r) with P_(m+r) != 0 (module docstring)."""

    def __init__(self, dim: int, coeffs):
        t = _tables(dim)
        P = np.asarray(coeffs, dtype=np.float64).reshape(-1, t.ncoef)
        piece, term = np.nonzero(P[:, t.mul_k])
        r, m, k = t.mul_i[term], t.mul_j[term], t.mul_k[term]
        self.dim, self.count, self.pattern = dim, len(P), (P != 0).tobytes()
        self.weight = P[piece, k] * (t.fact[k] / (t.fact[r] * t.fact[m]))
        self.degs = np.where(P != 0, t.degree, 0).max(1, initial=0).tolist()
        self.masks = np.bitwise_or.reduce(np.where(P != 0, t.support, 0),
                                          1).tolist()

    def jet(self, base, order: int = MAX_ORDER, normal: int = 0) -> list:
        """The jets about base (..., dim), one per polynomial, deg its
        degree and mask its variables, capped at ``normal`` as
        Jet4.variables(dim, base, order, normal) would cap them."""
        shape, dim = np.shape(base), self.dim
        if shape[-1:] != (dim,) or not 0 <= normal <= dim:
            raise ValueError(f"base {shape}, normal count {normal}: need "
                             f"(..., {dim}) and 0..{dim}")
        ncoef, lead = _size(dim, order), shape[:-1]
        terms, bins, factors = _shift_plan(dim, self.pattern, order, normal)
        ext = np.empty(lead + (dim + 1,))       # base, then y_dim := 1.0
        ext[..., :dim] = base
        ext[..., dim] = 1.0
        v = self.weight[terms]
        for f in factors:                       # times base^r
            v = v * ext.take(f, -1)
        c = (np.bincount(bins, v, self.count * ncoef) if v.ndim == 1 else
             _scatter(v, bins, self.count * ncoef)).reshape(
                 lead + (self.count, ncoef))
        cap = 1 << MAX_DIM + normal if normal else 0
        return [_jet(dim, c[..., k, :], min(d, order), order, m | cap)
                for k, (d, m) in enumerate(zip(self.degs, self.masks))]
