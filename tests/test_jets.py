"""Jet arithmetic against hand series, sympy, exact ring laws and full-table
products."""

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from minksub import jets as jets_module
from minksub.jets import (MAX_DIM, MAX_ORDER, DivisionByZeroJet, Jet4,
                          NegativeSqrtJet, OrderExceeded, Polynomials, _plan,
                          _tables, form)
from minksub.minkowski import NormModel

NCOEF_1 = 5    # monomials of degree <= 4 in one variable
NCOEF_2 = 15
NCOEF_3 = 35


def test_coefficient_counts():
    assert Jet4.constant(1, 0.0).coeffs.shape == (NCOEF_1,)
    assert Jet4.constant(2, 0.0).coeffs.shape == (NCOEF_2,)
    assert Jet4.constant(3, 0.0).coeffs.shape == (NCOEF_3,)


def test_sqrt_series_hand_values():
    # sqrt(1 + 2y): derivatives at 0 are 1, 1, -1, 3, -15
    y, = Jet4.variables(1, np.zeros(1))
    jet = (Jet4.constant(1, 1.0) + 2.0 * y).sqrt()
    t = jet.partial_tensors(4)
    assert t[0] == pytest.approx(1.0, abs=1e-15)
    assert t[1][0] == pytest.approx(1.0, abs=1e-15)
    assert t[2][0, 0] == pytest.approx(-1.0, abs=1e-15)
    assert t[3][0, 0, 0] == pytest.approx(3.0, abs=1e-14)
    assert t[4][0, 0, 0, 0] == pytest.approx(-15.0, abs=1e-13)


def test_reciprocal_series():
    # 1/(1 - y) = 1 + y + y^2 + y^3 + y^4, coefficients all 1
    y, = Jet4.variables(1, np.zeros(1))
    jet = (Jet4.constant(1, 1.0) - y).reciprocal()
    assert np.allclose(jet.coeffs, np.ones(NCOEF_1), atol=1e-14)


@pytest.mark.parametrize("jet_builder, sym_builder, base", [
    (lambda y1, y2: (y1 * y1 + y2 * y2 + 1.0).sqrt(),
     lambda s1, s2: sp.sqrt(s1 ** 2 + s2 ** 2 + 1), (0.5, -0.3)),
    (lambda y1, y2: (y1 * y2 + 2.0).reciprocal(),
     lambda s1, s2: 1 / (s1 * s2 + 2), (1.0, 0.25)),
    (lambda y1, y2: (y1 + y2 * y2) ** 3,
     lambda s1, s2: (s1 + s2 ** 2) ** 3, (0.7, -0.2)),
    (lambda y1, y2: y1 * y1 * y2 / (y1 + 1.5),
     lambda s1, s2: s1 ** 2 * s2 / (s1 + sp.Rational(3, 2)), (0.4, 0.8)),
])
def test_partial_tensors_match_sympy(jet_builder, sym_builder, base):
    s1, s2 = sp.symbols("s1 s2")
    sym = sym_builder(s1, s2)
    j1, j2 = Jet4.variables(2, np.asarray(base))
    jet = jet_builder(j1, j2)
    at = {s1: base[0], s2: base[1]}
    tensors = jet.partial_tensors(4)
    assert tensors[0] == pytest.approx(float(sym.subs(at)), rel=1e-12)
    for i in range(2):
        want = float(sp.diff(sym, (s1, s2)[i]).subs(at))
        assert tensors[1][i] == pytest.approx(want, rel=1e-12, abs=1e-12)
    for i in range(2):
        for j in range(2):
            want = float(sp.diff(sym, (s1, s2)[i], (s1, s2)[j]).subs(at))
            assert tensors[2][i, j] == pytest.approx(want, rel=1e-11,
                                                     abs=1e-11)
    want = float(sp.diff(sym, s1, s1, s2, s2).subs(at))
    assert tensors[4][0, 0, 1, 1] == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_partial_tensor_symmetry():
    rng = np.random.default_rng(7)
    jet = Jet4(3, rng.standard_normal(NCOEF_3))
    t3 = jet.partial_tensors(3)[3]
    assert np.allclose(t3, t3.transpose(1, 0, 2))
    assert np.allclose(t3, t3.transpose(2, 1, 0))


def test_gradient_hessian_shortcuts():
    base = np.array([0.3, -0.2, 0.9])
    jets = Jet4.variables(3, base)
    h = sum((j * j for j in jets), Jet4.constant(3, 0.0)) * 0.5
    assert h.value == pytest.approx(0.5 * float(base @ base))
    assert np.allclose(h.partial_tensors(1)[1], base)
    assert np.allclose(h.hessian(), np.eye(3))


def test_variable_seeds_base_value():
    j = Jet4.variables(2, np.full(2, 2.5))[1]
    assert j.value == 2.5
    assert np.allclose(j.partial_tensors(1)[1], [0.0, 1.0])


def test_order_exceeded():
    with pytest.raises(OrderExceeded):
        Jet4.constant(2, 1.0).partial_tensors(5)
    with pytest.raises(OrderExceeded):
        Jet4.constant(2, 1.0, 3).partial_tensors(4)


def test_division_by_zero_constant_term():
    y, = Jet4.variables(1, np.zeros(1))
    with pytest.raises(DivisionByZeroJet):
        y.reciprocal()
    with pytest.raises(DivisionByZeroJet):
        Jet4.constant(1, 1.0) / y


def test_sqrt_needs_positive_constant_term():
    with pytest.raises(NegativeSqrtJet):
        Jet4.constant(1, -1.0).sqrt()
    with pytest.raises(NegativeSqrtJet):
        Jet4.variables(1, np.zeros(1))[0].sqrt()


def test_pow_against_repeated_product():
    rng = np.random.default_rng(11)
    jet = Jet4(2, rng.standard_normal(NCOEF_2))
    assert np.allclose((jet ** 3).coeffs, (jet * jet * jet).coeffs)
    assert np.allclose((jet ** 0).coeffs, Jet4.constant(2, 1.0).coeffs)


def test_negative_power_is_reciprocal_power():
    jet = Jet4(1, np.array([2.0, 0.5, -0.25, 0.0, 1.0]))
    want = (jet.reciprocal() ** 2).coeffs
    assert np.allclose((jet ** -2).coeffs, want)


small_ints = st.integers(min_value=-6, max_value=6)


def int_jets(dim, ncoef):
    return st.lists(small_ints, min_size=ncoef, max_size=ncoef).map(
        lambda c: Jet4(dim, np.asarray(c, dtype=np.float64)))


@settings(max_examples=60, deadline=None)
@given(int_jets(2, NCOEF_2), int_jets(2, NCOEF_2), int_jets(2, NCOEF_2))
def test_ring_laws_exact_on_integer_jets(a, b, c):
    # all products of small integers stay exact in float64
    assert np.array_equal(((a + b) + c).coeffs, (a + (b + c)).coeffs)
    assert np.array_equal((a * b).coeffs, (b * a).coeffs)
    assert np.array_equal(((a * b) * c).coeffs, (a * (b * c)).coeffs)
    assert np.array_equal((a * (b + c)).coeffs, (a * b + a * c).coeffs)


@settings(max_examples=40, deadline=None)
@given(int_jets(2, NCOEF_2))
def test_multiplicative_identity_and_negation(a):
    one = Jet4.constant(2, 1.0)
    assert np.array_equal((a * one).coeffs, a.coeffs)
    assert np.array_equal((a - a).coeffs, np.zeros(NCOEF_2))
    assert np.array_equal((-a).coeffs, -a.coeffs)


@settings(max_examples=30, deadline=None)
@given(int_jets(1, NCOEF_1))
def test_reciprocal_inverts(a):
    # shift the constant term away from zero so division is defined
    shifted = a + Jet4.constant(1, 7.0 - a.value)
    prod = shifted * shifted.reciprocal()
    assert np.allclose(prod.coeffs, Jet4.constant(1, 1.0).coeffs, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(int_jets(1, NCOEF_1))
def test_sqrt_squares_back(a):
    shifted = a + Jet4.constant(1, 9.0 - a.value)
    root = shifted.sqrt()
    assert np.allclose((root * root).coeffs, shifted.coeffs,
                       rtol=1e-12, atol=1e-12)


def test_scalar_mixing():
    y = Jet4.variables(2, np.full(2, 1.5))[0]
    assert np.allclose((2.0 * y).coeffs, (y * 2.0).coeffs)
    assert np.allclose((y + 1.0).coeffs, (1.0 + y).coeffs)
    assert np.allclose((1.0 - y).coeffs, (-(y - 1.0)).coeffs)
    assert np.allclose((y / 2.0).coeffs, (y * 0.5).coeffs)


# -- batched jets -------------------------------------------------------------


def _batch(dim, rows, seed):
    rng = np.random.default_rng(seed)
    return Jet4.variables(dim, rng.uniform(0.5, 2.0, (rows, dim)))


def test_batch_mixes_with_unbatched_constants_row_by_row():
    ys = _batch(3, 65, 1)
    c = Jet4.variables(3, np.array([0.5, 1.0, 2.0]))[1] * 1.5 + 0.25
    batch = [c * ys[0], ys[1] * c, c + ys[2], ys[2] - c, c / ys[0],
             ys[1] / c, 2.0 / ys[2], (ys[0] * c).sqrt(), ys[1] ** 3]
    for k in (0, 17, 64):
        row = [Jet4(3, y.coeffs[k]) for y in ys]
        single = [c * row[0], row[1] * c, c + row[2], row[2] - c,
                  c / row[0], row[1] / c, 2.0 / row[2], (row[0] * c).sqrt(),
                  row[1] ** 3]
        for b, s in zip(batch, single):
            assert b.coeffs.shape == (65, 35)
            assert np.array_equal(b.coeffs[k], s.coeffs)


def test_batch_takes_per_row_scalars():
    y0 = _batch(2, 4, 2)[0]
    scale = np.array([1.0, -2.0, 0.5, 3.0])
    assert np.array_equal((y0 * scale).coeffs, y0.coeffs * scale[:, None])
    assert np.array_equal((y0 + scale).coeffs[:, 0], y0.coeffs[:, 0] + scale)
    assert np.array_equal(y0.value, y0.coeffs[:, 0])


def test_mismatched_batch_sizes_raise():
    a = _batch(2, 4, 3)[0]
    b = _batch(2, 5, 4)[0]
    for op in (lambda: a * b, lambda: a + b, lambda: b - a,
               lambda: a * np.ones(3), lambda: a + np.ones(5)):
        with pytest.raises(ValueError):
            op()
    # a batch of one broadcasts like an unbatched jet
    one = _batch(2, 1, 5)[0]
    single = Jet4(2, one.coeffs[0])
    assert np.array_equal((a * one).coeffs, (a * single).coeffs)
    assert np.array_equal((one + a).coeffs, (single + a).coeffs)


def test_batch_series_check_every_row():
    y = _batch(1, 5, 6)[0]
    y.coeffs[3, 0] = 0.0
    with pytest.raises(DivisionByZeroJet):
        y.reciprocal()
    y.coeffs[3, 0] = 1.0
    y.coeffs[1, 0] = -1.0
    with pytest.raises(NegativeSqrtJet):
        y.sqrt()
    y.coeffs[1, 0] = 1.0
    y.sqrt().reciprocal()


# -- structural degree bounds -------------------------------------------------


def _degrees(dim):
    return _tables(dim).exponents.sum(axis=1)


def _full_mul(a, b, dim):
    # the full product table, every row scattered on its own
    t = _tables(dim)
    prod = a[..., t.mul_i] * b[..., t.mul_j]
    if prod.ndim == 1:
        return np.bincount(t.mul_k, prod, t.ncoef)
    return np.stack([np.bincount(t.mul_k, row, t.ncoef) for row in prod])


def _full_scale(c, s):
    return c * (np.asarray(s)[..., None] if c.ndim == 2 else float(s))


def _full_series(c, series, dim):
    # s0 + s1 q + s2 q^2 + q^2 (s3 q + s4 q^2) as Jet4._series sums it, with
    # every product on the full table
    q = c.copy()
    q[..., 0] = 0.0
    s0, s1, s2, s3, s4 = series
    q2 = _full_mul(q, q, dim)
    acc = q * s1 + q2 * s2
    acc[..., 0] += s0
    return acc + _full_mul(q2, q * s3 + q2 * s4, dim)


def _full_reciprocal(c, dim):
    inv = 1.0 / c[..., 0]
    return _full_scale(_full_series(_full_scale(c, inv), [1.0, -1.0, 1.0,
                                                          -1.0, 1.0], dim),
                       inv)


def _full_sqrt(c, dim):
    b0 = c[..., 0]
    s = _full_series(_full_scale(c, 1.0 / b0),
                     [1.0, 0.5, -0.125, 0.0625, -0.0390625], dim)
    return _full_scale(s, np.sqrt(b0))


def _full_pow(c, k, dim):
    if k < 0:
        return _full_pow(_full_reciprocal(c, dim), -k, dim)
    result, base = np.zeros_like(c), c    # the constant 1, shaped like c
    result[..., 0] = 1.0
    while k:
        if k & 1:
            result = _full_mul(result, base, dim)
        base = _full_mul(base, base, dim) if k > 1 else base
        k >>= 1
    return result


def _support(dim):
    """Bitmask of the variables of each monomial."""
    return (_tables(dim).exponents > 0) @ (1 << np.arange(dim))


def _computed(jet):
    """The coefficients a jet computes: under a normal cap p, those of
    normal degree <= 2 in the last p variables; otherwise all."""
    exponents = _tables(jet.dim).exponents[:jet.coeffs.shape[-1]]
    p = (jet.mask >> MAX_DIM).bit_length() - 1
    return exponents[:, jet.dim - p:].sum(axis=1) <= 2 if p > 0 else (
        np.ones(len(exponents), dtype=bool))


def _assert_within_degree(jet):
    # every coefficient above deg or outside the support is exactly 0.0
    assert 0 <= jet.deg <= jet.order <= MAX_ORDER
    ncoef = jet.coeffs.shape[-1]
    degrees = _degrees(jet.dim)[:ncoef]
    outside = _support(jet.dim)[:ncoef] & ~jet.mask != 0
    assert np.all(jet.coeffs[..., (degrees > jet.deg) | outside] == 0.0)


def _assert_computed_equal(jet, want):
    # byte for byte up to the sign of exact zeros (+ 0.0 makes -0.0 +0.0):
    # a ** 1 is a itself, the reference a product with 1 whose bincount
    # does not keep the sign
    keep = _computed(jet)
    assert ((jet.coeffs[..., keep] + 0.0).tobytes()
            == (want[..., keep] + 0.0).tobytes())


_OPS = ("add", "sub", "neg", "mul", "scalar", "rows", "reciprocal", "sqrt",
        "pow")


@settings(max_examples=80, deadline=None)
@given(dim=st.integers(1, 5), rows=st.sampled_from([None, 1, 3, 64, 65]),
       declared=st.lists(st.integers(0, MAX_ORDER), min_size=1, max_size=3),
       chain=st.lists(st.tuples(st.sampled_from(_OPS), st.integers(0, 99),
                                st.integers(0, 99), st.integers(-2, 3)),
                      min_size=1, max_size=10),
       normal=st.integers(0, 5), seed=st.integers(0, 2 ** 32 - 1))
def test_degree_bounds_keep_products_bit_identical(dim, rows, declared,
                                                   chain, normal, seed):
    # degree bounds, supports and a normal cap drop only product terms that
    # are exact zeros or land in slots the cap does not compute: every
    # computed coefficient is the full table's to the byte
    rng = np.random.default_rng(seed)
    lead = () if rows is None else (rows,)
    ncoef = _tables(dim).ncoef
    pool = Jet4.variables(dim, rng.uniform(0.5, 2.0, lead + (dim,)),
                          normal=min(normal, dim))
    pool.append(Jet4.constant(dim, rng.uniform(0.5, 2.0)))
    for k, d in enumerate(declared):
        # alternate batched and unbatched jets of declared degree d and a
        # random support
        c = rng.uniform(-1.0, 1.0, (lead if k % 2 == 0 else ()) + (ncoef,))
        c[..., 0] = rng.uniform(0.5, 2.0)
        mask = int(rng.integers(0, 1 << dim))
        c[..., (_degrees(dim) > d) | (_support(dim) & ~mask != 0)] = 0.0
        jet = Jet4(dim, c, d)
        jet.mask = mask
        pool.append(jet)
    ref = [jet.coeffs for jet in pool]
    for op, i, j, k in chain:
        a, b = pool[i % len(pool)], pool[j % len(pool)]
        ca, cb = ref[i % len(pool)], ref[j % len(pool)]
        if op in ("reciprocal", "sqrt", "pow") and np.any(a.value < 0.1):
            shift = 1.5 - a.value          # a per-row (or plain) scalar add
            a, ca = a + shift, ca.copy()
            ca[..., 0] += shift
        if op == "rows" and a.coeffs.ndim == 1:
            op = "scalar"                  # per-row scalars need a batch
        scalar = rng.uniform(-2.0, 2.0)
        per_row = rng.uniform(-2.0, 2.0, a.coeffs.shape[:1])
        got, want = {
            "add": lambda: (a + b, ca + cb),
            "sub": lambda: (a - b, ca - cb),
            "neg": lambda: (-a, -ca),
            "mul": lambda: (a * b, _full_mul(ca, cb, dim)),
            "scalar": lambda: (scalar * a, _full_scale(ca, scalar)),
            "rows": lambda: (a * per_row, _full_scale(ca, per_row)),
            "reciprocal": lambda: (a.reciprocal(), _full_reciprocal(ca, dim)),
            "sqrt": lambda: (a.sqrt(), _full_sqrt(ca, dim)),
            "pow": lambda: (a ** k, _full_pow(ca, k, dim)),
        }[op]()
        _assert_computed_equal(got, want)
        _assert_within_degree(got)
        size = np.max(np.abs(want))
        if size > 1e3:                     # keep long chains finite
            got, want = got * (1.0 / size), _full_scale(want, 1.0 / size)
        pool.append(got)
        ref.append(want)


@pytest.mark.parametrize("rows", [None, 65])
def test_norm_jets_stay_within_their_degree(rows, monkeypatch):
    rng = np.random.default_rng(9)
    a = np.eye(4) + 0.1 * np.ones((4, 4))
    models = [NormModel.euclidean(4),
              NormModel.randers(a, np.array([0.2, 0.0, -0.1, 0.1])),
              NormModel.example4(10.0, 10.0, 0.1, 0.1),
              NormModel.expression("(y1^2 + 2*y2^2 + y3^2) / 2", 3),
              NormModel.expression("(y1^2 + 2*y2^2 + y3^2) / 2 + y1^4 / "
                                   "(y1^2 + y2^2 + y3^2) / 10", 3),
              # no polynomial subtree to fold
              NormModel.expression("sqrt(y1)^4 / 2 + y2^-2 + y3^-2", 3)]
    assert models[-1].h.args[1][0] == ()
    bases = [rng.uniform(0.5, 2.0, ((rows,) if rows else ()) + (m.dim,))
             for m in models]
    jets = [model.jet(base) for model, base in zip(models, bases)]
    for jet in jets:
        _assert_within_degree(jet)
    # quadratic norms keep a bound below MAX_ORDER, so it is not vacuous
    assert models[0].jet(np.ones(4)).deg == 2
    # every family again, on coordinate jets and polynomial pieces with all
    # variables in the mask and degree bound 4, whose products keep every
    # table term
    variables, shift = Jet4.variables, Polynomials.jet
    monkeypatch.setattr(Jet4, "variables", lambda *args: [
        Jet4(y.dim, y.coeffs) for y in variables(*args)])
    monkeypatch.setattr(Polynomials, "jet", lambda *args: [
        Jet4(y.dim, y.coeffs) for y in shift(*args)])
    for model, base, jet in zip(models, bases, jets):
        assert np.array_equal(jet.coeffs, model.jet(base).coeffs)


@pytest.mark.parametrize("rows", [None, 3])
@pytest.mark.parametrize("family", ["euclidean", "randers", "example4"])
def test_polynomial_families_build_no_coordinate_jets(family, rows,
                                                      monkeypatch):
    model = {"euclidean": lambda: NormModel.euclidean(3),
             "randers": lambda: NormModel.randers(np.diag([1.0, 2.0, 1.5]),
                                                  np.array([0.2, 0.0, -0.1])),
             "example4": lambda: NormModel.example4(10.0, 10.0, 0.1, 0.1),
             }[family]()
    calls = []
    variables = Jet4.variables
    monkeypatch.setattr(Jet4, "variables", lambda *args: (
        calls.append(args) or variables(*args)))
    base = np.random.default_rng(5).uniform(
        0.5, 2.0, ((rows,) if rows else ()) + (3,))
    for order, normal in ((4, 0), (2, 0), (4, 1)):
        assert model.jet(base, order, normal=normal).order == order
    assert calls == []


def test_series_and_polynomial_pieces_take_few_product_terms(monkeypatch):
    # sqrt's series in two products that skip the exact zeros of q's
    # constant term and of q^2's low bins; example4 from its pieces, with
    # one reciprocal; 72-row jets capped as the n = 2 audits cap them
    counts, plan = [], jets_module._plan
    monkeypatch.setattr(jets_module, "_plan", lambda *args: (
        counts.append(len(plan(*args)[0])) or plan(*args)))

    def products(call, *args, **kwargs):
        counts.clear()
        call(*args, **kwargs)
        return len(counts), sum(counts)

    rng = np.random.default_rng(37)
    ys = Jet4.variables(4, rng.uniform(0.5, 2.0, 4), normal=2)
    arg = sum(y * y for y in ys) + 1.0    # degree 2, every variable
    assert products(arg.sqrt) == (2, 304)
    for dim, want in ((4, (3, 463)), (5, (3, 1070))):
        model = NormModel.randers(np.eye(dim) + 0.1, np.full(dim, 0.05))
        assert products(model.jet, rng.uniform(0.5, 2.0, (72, dim)),
                        normal=2) == want
    model = NormModel.example4(10.0, 10.0, 0.1, 0.1)
    assert products(model.jet, rng.uniform(0.5, 2.0, (72, 3)),
                    normal=1) == (10, 534)


# -- truncation orders --------------------------------------------------------


def _prefix(jet, order):
    return jet.coeffs[..., :_tables(jet.dim).sizes[order]]


def _family_models():
    a = np.eye(4) + 0.1 * np.ones((4, 4))
    return [NormModel.euclidean(4),
            NormModel.randers(a, np.array([0.2, 0.0, -0.1, 0.1])),
            NormModel.example4(10.0, 10.0, 0.1, 0.1),
            NormModel.expression(
                "(sqrt(y1^2 + 2*y2^2 + y3^2) + y3/5)^2 / 2 + y1^4 / "
                "(y1^2 + y2^2 + y3^2) / 10", 3)]


@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize("rows", [None, 65])
def test_truncated_norm_jets_are_the_order4_prefix(order, rows):
    rng = np.random.default_rng(13)
    for model in _family_models():
        base = rng.uniform(0.5, 2.0, ((rows,) if rows else ()) + (model.dim,))
        jet = model.jet(base, order)
        assert jet.order == order
        assert np.array_equal(jet.coeffs, _prefix(model.jet(base), order))


@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize("lead", [(), (7,)])
def test_truncated_series_and_mixed_products_are_the_prefix(order, lead):
    rng = np.random.default_rng(17)
    dim = 3
    ncoef = _tables(dim).ncoef
    full = []
    for _ in range(3):
        c = rng.uniform(-1.0, 1.0, lead + (ncoef,))
        c[..., 0] = rng.uniform(0.5, 2.0, lead)
        full.append(Jet4(dim, c))
    a, b, c = full
    low = [Jet4(dim, _prefix(x, order)) for x in full]
    mid = Jet4(dim, _prefix(c, 5 - order))      # the other of orders 2, 3
    cases = [
        (low[0].sqrt(), a.sqrt()), (low[0].reciprocal(), a.reciprocal()),
        (low[1] ** 3, b ** 3), (low[1] ** -2, b ** -2), (low[2] ** 0, c ** 0),
        (low[0] * b, a * b), (a * low[1], a * b), (low[0] * mid, a * c),
        (low[0] + b, a + b), (b - low[2], b - c), (low[0] / mid, a / c),
        ((low[0] * low[1]).sqrt() / low[2], (a * b).sqrt() / c),
    ]
    for k, (got, want) in enumerate(cases):
        want_order = 2 if k in (7, 10) else order
        assert got.order == want_order, k
        assert got.coeffs.shape == lead + (_tables(dim).sizes[want_order],)
        assert np.array_equal(got.coeffs, _prefix(want, want_order)), k
        _assert_within_degree(got)


def test_constants_and_powers_keep_shape_and_order():
    rng = np.random.default_rng(19)
    y = Jet4.variables(2, rng.uniform(0.5, 2.0, (2, 3, 2)), 2)[0]
    for got in (y ** 0, y ** 2, y ** -1, y.sqrt(), y.reciprocal(),
                y._series([1.0, 2.0, 3.0, 4.0, 5.0])):
        assert got.shape == (2, 3) and got.order == 2
        assert got.coeffs.shape == (2, 3, 6)
    one = y ** 0
    assert np.array_equal(one.value, np.ones((2, 3)))
    assert np.array_equal(one.coeffs[..., 1:], np.zeros((2, 3, 5)))
    assert Jet4.constant(2, 1.5, 3).coeffs.shape == (10,)
    single = Jet4.variables(3, np.ones(3), 3)[1]
    assert (single ** 0).coeffs.shape == (20,)


def test_reading_above_the_order_raises():
    jet = Jet4.variables(2, np.array([0.5, 1.0]), 2)[0] * 3.0
    assert jet.partial_tensors(2)[2].shape == (2, 2)
    assert not jet.partial_tensors(2)[2].any()
    with pytest.raises(OrderExceeded):
        jet.partial_tensors(3)
    with pytest.raises(OrderExceeded):
        Jet4.constant(2, 1.0, 5)
    with pytest.raises(OrderExceeded):
        NormModel.euclidean(2).jet(np.ones(2), 0)
    with pytest.raises(ValueError, match="coefficients"):
        Jet4(2, np.zeros(7))        # no order has 7 coefficients in dim 2


# -- jet tensors --------------------------------------------------------------


def _tensor(dim, shape, rng, order=MAX_ORDER):
    c = rng.uniform(-1.0, 1.0, shape + (_tables(dim).sizes[order],))
    return Jet4(dim, c)


def _singles(x):
    """A jet tensor as an object array of single jets; floats stay floats."""
    if not isinstance(x, Jet4):
        return np.asarray(x, dtype=np.float64)
    out = np.empty(x.shape, dtype=object)
    for idx in np.ndindex(x.shape):
        out[idx] = Jet4(x.dim, x.coeffs[idx])
    return out


def _coeffs(singles):
    return np.array([jet.coeffs for jet in singles.ravel()]).reshape(
        singles.shape + (-1,))


def _loop_matmul(a, b):
    """a @ b by numpy's matmul rules, one single-jet product at a time."""
    A, B = _singles(a), _singles(b)
    A2 = A if A.ndim > 1 else A[None]
    B2 = B if B.ndim > 1 else B[:, None]
    batch = np.broadcast_shapes(A2.shape[:-2], B2.shape[:-2])
    A2 = np.broadcast_to(A2, batch + A2.shape[-2:])
    B2 = np.broadcast_to(B2, batch + B2.shape[-2:])
    (m, inner), q = A2.shape[-2:], B2.shape[-1]
    out = np.empty(batch + (m, q), dtype=object)
    for idx in np.ndindex(batch):
        for i in range(m):
            for j in range(q):
                acc = A2[idx + (i, 0)] * B2[idx + (0, j)]
                for k in range(1, inner):
                    acc = acc + A2[idx + (i, k)] * B2[idx + (k, j)]
                out[idx + (i, j)] = acc
    if A.ndim == 1:
        out = out[..., 0, :]
    if B.ndim == 1:
        out = out[..., 0]
    return out


_MATMUL_SHAPES = [
    ((3, 4), (4, 2)), ((3, 3, 4), (3, 4, 2)), ((2, 3, 3, 4), (3, 4, 2)),
    ((2, 1, 3, 4), (3, 4, 2)), ((4,), (4, 2)), ((3, 4), (4,)),
    ((4,), (4,)), ((2, 3, 4), (4,)), ((4,), (2, 3, 4, 2))]


@pytest.mark.parametrize("shape_a, shape_b", _MATMUL_SHAPES)
@pytest.mark.parametrize("kinds", ["jet@jet", "float@jet", "jet@float"])
def test_matmul_matches_the_per_entry_loop(shape_a, shape_b, kinds):
    rng = np.random.default_rng(len(shape_a) * 10 + len(shape_b))
    dim = 3
    a = (_tensor(dim, shape_a, rng, 2) if kinds.startswith("jet")
         else rng.uniform(-1.0, 1.0, shape_a))
    b = (_tensor(dim, shape_b, rng) if kinds.endswith("jet")
         else rng.uniform(-1.0, 1.0, shape_b))
    got = a @ b
    want = _loop_matmul(a, b)
    assert isinstance(got, Jet4) and got.shape == want.shape
    assert got.order == (2 if kinds.startswith("jet") else MAX_ORDER)
    assert np.allclose(got.coeffs, _coeffs(want), rtol=1e-13, atol=1e-13)
    _assert_within_degree(got)


@pytest.mark.parametrize("shape_a, shape_b", _MATMUL_SHAPES)
@pytest.mark.parametrize("kinds", ["jet@jet", "float@jet", "jet@float"])
def test_matmul_returns_c_ordered_coefficients(shape_a, shape_b, kinds):
    # jet@jet gathers its factors with take, as * does: a gather by
    # coeffs[..., idx] comes out F-ordered, and einsum's last bits follow
    # its operands' layout
    rng = np.random.default_rng(41)
    a = (_tensor(3, shape_a, rng) if kinds.startswith("jet")
         else rng.uniform(-1.0, 1.0, shape_a))
    b = (_tensor(3, shape_b, rng) if kinds.endswith("jet")
         else rng.uniform(-1.0, 1.0, shape_b))
    assert (a @ b).coeffs.flags.c_contiguous


def test_matmul_respects_degree_bounds_bit_for_bit():
    # variables (deg 1) through a float map and back: no term is dropped
    # that is not an exact zero
    rng = np.random.default_rng(31)
    x = Jet4.stack(Jet4.variables(3, rng.uniform(0.5, 2.0, 3)))
    M = rng.uniform(-1.0, 1.0, (2, 3, 3))
    y = M @ x
    assert y.deg == 1
    z = y @ x
    full = Jet4(3, y.coeffs) @ Jet4(3, x.coeffs)      # deg bounds at 4
    assert z.deg == 2 and np.array_equal(z.coeffs, full.coeffs)


def test_mismatched_matmul_and_broadcast_raise():
    rng = np.random.default_rng(37)
    with pytest.raises(ValueError):
        _tensor(2, (3, 4), rng) @ _tensor(2, (5, 2), rng)
    with pytest.raises(ValueError):
        rng.uniform(size=(3, 4)) @ _tensor(2, (5,), rng)
    with pytest.raises(ValueError):
        _tensor(2, (2, 3, 4), rng) @ _tensor(2, (3, 4, 2), rng)
    with pytest.raises(ValueError):
        _tensor(2, (4,), rng) * _tensor(2, (5,), rng)
    with pytest.raises(ValueError):
        _tensor(2, (4, 2), rng) @ _tensor(3, (2, 2), rng)


@pytest.mark.parametrize("shape", [(), (3,), (2, 3)])
def test_elementwise_ops_broadcast_like_numpy(shape):
    rng = np.random.default_rng(41)
    a = _tensor(2, shape, rng)
    b = _tensor(2, (4, 1) + (shape[-1:] if shape else ()), rng, 3)
    s = rng.uniform(0.5, 2.0, shape)
    for got, op in ((a * b, lambda x, y: x * y), (a + b, lambda x, y: x + y),
                    (b - a, lambda x, y: y - x)):
        A, B = np.broadcast_arrays(_singles(a), _singles(b))
        want = np.empty(A.shape, dtype=object)
        for idx in np.ndindex(A.shape):
            want[idx] = op(A[idx], B[idx])
        assert got.shape == want.shape and got.order == 3
        assert np.array_equal(got.coeffs, _coeffs(want))
    scaled = a * s
    for idx in np.ndindex(shape):
        single = Jet4(2, a.coeffs[idx]) * float(np.asarray(s)[idx])
        assert np.array_equal(scaled.coeffs[idx], single.coeffs)


@pytest.mark.parametrize("key", [1, (slice(None), 2), (Ellipsis, 0), None,
                                 ([1, 0],), (Ellipsis, None, slice(1, None)),
                                 (1, slice(None, None, -1))])
def test_getitem_indexes_the_leading_axes(key):
    t = _tensor(3, (2, 3), np.random.default_rng(43), 2)
    got = t[key]
    want = _singles(t)[key]
    assert got.shape == want.shape and got.order == 2
    assert np.array_equal(got.coeffs, _coeffs(want))


@pytest.mark.parametrize("shape, axes", [((2, 3), (0, 1)), ((2, 3), (-1, -2)),
                                         ((2, 3, 4), (0, 2)),
                                         ((2, 3, 4), (1, -1))])
def test_swapaxes_swaps_the_leading_axes(shape, axes):
    t = _tensor(2, shape, np.random.default_rng(47))
    got = t.swapaxes(*axes)
    want = _singles(t).swapaxes(*axes)
    assert got.shape == want.shape
    assert np.array_equal(got.coeffs, _coeffs(want))
    with pytest.raises(IndexError):
        t.swapaxes(0, len(shape))


def test_derivative_reads_every_entry_of_a_tensor():
    t = _tensor(2, (2, 3), np.random.default_rng(53), 3)
    got = t.partial_tensors(3)
    assert [d.shape for d in got] == [(2, 3), (2, 3, 2), (2, 3, 2, 2),
                                      (2, 3, 2, 2, 2)]
    for idx in np.ndindex(2, 3):
        for d, want in zip(got, Jet4(2, t.coeffs[idx]).partial_tensors(3)):
            assert np.array_equal(d[idx], want)


def test_stack_builds_a_tensor_of_the_jets():
    jets = Jet4.variables(3, np.array([0.5, 1.0, 2.0]), 2)
    t = Jet4.stack(jets)
    assert t.shape == (3,) and t.order == 2 and t.deg == 1
    for k in range(3):
        assert np.array_equal(t[k].coeffs, jets[k].coeffs)


# -- supports and normal caps -------------------------------------------------


def test_masks_of_constructors():
    base = np.array([0.5, 1.0, 2.0])
    assert [y.mask for y in Jet4.variables(3, base)] == [1, 2, 4]
    capped = Jet4.variables(3, base, normal=2)
    cap = 1 << MAX_DIM + 2
    assert [y.mask for y in capped] == [1 | cap, 2 | cap, 4 | cap]
    assert Jet4.constant(3, 1.0).mask == 0
    # coefficients from outside claim every variable and no cap
    assert Jet4(3, np.ones(35)).mask == 0b111
    assert Jet4(3, np.ones((2, 10)), 2).mask == 0b111
    assert Jet4.stack(capped[:2]).mask == 0b011 | cap
    with pytest.raises(ValueError, match="normal count"):
        Jet4.variables(3, base, normal=4)
    with pytest.raises(ValueError, match="normal count"):
        Jet4.variables(3, base, normal=-1)


def test_mixing_normal_caps_raises():
    base = np.array([0.5, 1.0, 2.0, 1.5])
    y1 = Jet4.variables(4, base, normal=1)
    y2 = Jet4.variables(4, base, normal=2)
    full = Jet4.variables(4, base)
    assert (y1[0] * full[1]).mask >> MAX_DIM == 1 << 1   # uncapped mixes
    with pytest.raises(ValueError, match="capped"):
        y1[0] * y2[1]
    with pytest.raises(ValueError, match="capped"):
        Jet4.stack(y1) @ Jet4.stack(y2)
    with pytest.raises(ValueError, match="capped"):
        (y1[0] + y2[1]) * full[0]      # a sum carries both caps to a product


@pytest.mark.parametrize("rows", [None, 5])
@pytest.mark.parametrize("normal", [0, 1, 2])
def test_masked_and_capped_products_match_full_tables(rows, normal):
    # the same expressions on capped coordinate jets and on copies that
    # claim every variable and no cap: every computed coefficient is the
    # full table's to the byte, and a product's other slots hold 0.0
    rng = np.random.default_rng(59)
    dim = 4
    base = rng.uniform(0.5, 2.0, ((rows,) if rows else ()) + (dim,))
    M = rng.uniform(-1.0, 1.0, (3, dim))
    fulls = [Jet4(dim, y.coeffs) for y in Jet4.variables(dim, base)]

    def exprs(y):
        a = y[0] * y[0]                       # support {y1}
        b = y[2] * y[3] + y[1]                # support {y2, y3, y4}
        X = Jet4.stack(y)
        V = X if rows is None else X.swapaxes(0, 1)   # (rows, dim)
        return [a * b, (b + 3.0).sqrt(), (a + 1.0).reciprocal(),
                (a + b + 2.0) ** 3, (V @ M.T @ M)[..., None, :]
                @ V[..., :, None], X[:, None] * X,
                (y[0] * y[2]) ** -1, a * y[1] / (b + 4.0)]

    for got, want in zip(exprs(Jet4.variables(dim, base, normal=normal)),
                         exprs(fulls)):
        keep = _computed(got)
        assert got.coeffs[..., keep].tobytes() == \
            want.coeffs[..., keep].tobytes()
        assert np.all(got.coeffs[..., ~keep] == 0.0)
        _assert_within_degree(got)
    a = Jet4.variables(dim, base, normal=normal)[0] ** 2
    assert a.mask % (1 << MAX_DIM) == 1


def test_normal_cap_keeps_the_terms_of_normal_degree_two():
    # (dim, p) = (4, 2) and (5, 2): the n = 2 and n = 3 codimension-two lifts
    for dim, normal, full, capped in ((4, 2, 495, 360), (5, 2, 1001, 826)):
        m = (1 << dim) - 1
        cap = m | 1 << MAX_DIM + normal
        assert len(_plan(dim, dim, 4, 4, 4, 4, m, m)[0]) == full
        assert len(_plan(dim, dim, 4, 4, 4, 4, cap, m)[0]) == capped


# -- polynomial pieces: one Taylor shift --------------------------------------


def _ring_polynomial(P, ys):
    """sum_m P_m y^m by jet ring ops: each monomial a product of coordinate
    jets, summed in monomial order."""
    t = _tables(len(ys))
    acc = Jet4.constant(t.dim, 0.0)
    for k in np.flatnonzero(P):
        term = Jet4.constant(t.dim, P[k])
        for v in t.monos[k]:
            term = term * ys[v]
        acc = acc + term
    return acc


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 6), rows=st.sampled_from([None, 1, 3, 65, 128]),
       degrees=st.lists(st.integers(1, MAX_ORDER), min_size=1, max_size=3),
       density=st.floats(0.02, 0.5), integer=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_taylor_shift_matches_ring_ops(dim, rows, degrees, density, integer,
                                       seed):
    # random sparse polynomials of degree <= 4: each jet is the ring ops'
    # (to the byte when every operation is exact on small integers), with
    # exact deg, support and capped zeros, and every coefficient is the same
    # bytes at any order, cap and batch row
    rng = np.random.default_rng(seed)
    t = _tables(dim)
    lead = () if rows is None else (rows,)
    draw = ((lambda shape: rng.integers(-3, 4, shape).astype(float))
            if integer else (lambda shape: rng.uniform(-1.0, 1.0, shape)))
    P = draw((len(degrees), t.ncoef)) * (rng.uniform(size=(len(degrees),
                                                           t.ncoef)) < density)
    P[t.degree[None, :] > np.array(degrees)[:, None]] = 0.0
    base = draw(lead + (dim,))
    kernel = Polynomials(dim, P)
    full = kernel.jet(base)
    for k, jet in enumerate(full):
        nonzero = P[k] != 0.0
        assert jet.deg == max(t.degree[nonzero], default=0)
        assert jet.mask == np.bitwise_or.reduce(t.support[nonzero])
        _assert_within_degree(jet)
    # ring ops at the unbatched bases of the first and last rows, which are
    # the batch's rows to the byte
    for row in sorted({0, (rows or 1) - 1}):
        y = base[row] if rows else base
        for jet, whole, p in zip(kernel.jet(y), full, P):
            want = _ring_polynomial(p, Jet4.variables(dim, y)).coeffs
            if integer:
                assert (jet.coeffs + 0.0).tobytes() == (want + 0.0).tobytes()
            else:
                assert np.max(np.abs(jet.coeffs - want)) <= 1e-14 * (
                    1.0 + np.max(np.abs(want)))
            if rows:
                assert jet.coeffs.tobytes() == whole.coeffs[row].tobytes()
    # orders and caps drop whole bins: kept slots are the full jet's bytes
    for order in range(1, MAX_ORDER + 1):
        for normal in range(min(dim, 2) + 1):
            for jet, whole in zip(kernel.jet(base, order, normal), full):
                keep = _computed(jet)
                assert jet.order == order and jet.deg == min(whole.deg, order)
                assert jet.mask == whole.mask | (1 << MAX_DIM + normal
                                                 if normal else 0)
                assert jet.coeffs[..., keep].tobytes() == \
                    _prefix(whole, order)[..., keep].tobytes()
                assert np.all(jet.coeffs[..., ~keep] == 0.0)
                _assert_within_degree(jet)


def test_quadratic_forms_and_kernel_arguments():
    rng = np.random.default_rng(83)
    a, b = rng.uniform(-1.0, 1.0, (2, 3, 3)), rng.uniform(-1.0, 1.0, (2, 3))
    y = Jet4.variables(3, np.zeros(3))
    for ai, bi in zip(a, b):
        want = sum(y[i] * y[j] * ai[i, j] for i in range(3) for j in range(3))
        want = want + sum(y[i] * bi[i] for i in range(3))
        assert np.allclose(form(ai, bi), want.coeffs, rtol=0.0, atol=1e-15)
    kernel = Polynomials(3, [form(ai, bi) for ai, bi in zip(a, b)])
    with pytest.raises(ValueError, match="need"):
        kernel.jet(np.ones(4))
    with pytest.raises(ValueError, match="need"):
        kernel.jet(np.ones(3), normal=4)
    with pytest.raises(OrderExceeded):
        kernel.jet(np.ones(3), 5)
    zero = Polynomials(3, np.zeros(35)).jet(np.ones((2, 3)), normal=1)[0]
    assert zero.deg == 0 and zero.coeffs.shape == (2, 35)
    assert not zero.coeffs.any()
    empty = Polynomials(3, np.zeros((0, 35)))       # no pieces: no bins
    for lead in ((), (2,), (2, 4)):
        assert empty.jet(np.ones(lead + (3,))) == []
