"""Norm models against symbolic oracles and the sampling validator."""

import math
import pickle
import re

import numpy as np
import pytest

from minksub.curvature import ricci_expanded, ricci_expanded_batch
from minksub.germ import Germ
from minksub.invariants import sphere_grid
from minksub.jets import BATCH_BLOCK, Jet4
from minksub.minkowski import (AXIS_EXCLUSION, MAX_DRAWS_PER_SAMPLE,
                               ConeTooNarrow, NormModel, SingularDirection,
                               _near_ray_probes, _sample_directions,
                               validate_norm)

# Oracle values computed symbolically (sympy) for the Randers norm with
#     a = [[2,1,0],[1,3,0],[0,0,1]],  b = (1/10, 0, 1/5)
# at y0 = (1, 1/2, -1):  H = ((sqrt(19)/2 - 1/10)^2)/2 and the Hessian below.
RANDERS_A = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 0.0], [0.0, 0.0, 1.0]])
RANDERS_B = np.array([0.1, 0.0, 0.2])
RANDERS_Y0 = np.array([1.0, 0.5, -1.0])
RANDERS_H0 = 2.1620550528229665
RANDERS_HESS = np.array([
    [2.2080220018672216, 1.1291972817060532, 0.17938356247849555],
    [1.1291972817060532, 2.9227231212225475, 0.2052667092526079],
    [0.17938356247849555, 0.2052667092526079, 0.8202438759766197]])
RANDERS_D3_112 = -0.02770782824586286
RANDERS_D4_1122 = -0.06587800399933787


def test_euclidean_basics():
    norm = NormModel.euclidean(3)
    y = np.array([1.0, 2.0, -2.0])
    assert norm.value(y) == pytest.approx(4.5)
    jet = norm.jet(y)
    assert np.allclose(jet.gradient(), y)
    assert np.allclose(jet.hessian(), np.eye(3))
    assert np.allclose(jet.partial_tensors(4)[3], 0.0)


def test_randers_against_symbolic_oracle():
    norm = NormModel.randers(RANDERS_A, RANDERS_B)
    jet = norm.jet(RANDERS_Y0)
    t = jet.partial_tensors(4)
    assert t[0] == pytest.approx(RANDERS_H0, rel=1e-13)
    assert np.allclose(t[2], RANDERS_HESS, rtol=1e-12)
    assert t[3][0, 0, 1] == pytest.approx(RANDERS_D3_112, rel=1e-11)
    assert t[4][0, 0, 1, 1] == pytest.approx(RANDERS_D4_1122, rel=1e-10)


def test_randers_rejects_bad_data():
    with pytest.raises(ValueError):
        NormModel.randers(np.eye(2), np.array([1.0, 0.0]))  # |b|_a = 1
    with pytest.raises(ValueError):
        NormModel.randers(-np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        NormModel.randers(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2))


def test_example4_against_symbolic_oracle():
    # assembled in polar form with sympy, evaluated at (0.3, -0.7, 0.2)
    norm = NormModel.example4(10.0, 10.0, 0.1, 0.1)
    pt = np.array([0.3, -0.7, 0.2])
    t = norm.jet(pt).partial_tensors(4)
    assert t[0] == pytest.approx(6.208337939234901, rel=1e-13)
    assert t[2][2, 2] == pytest.approx(20.15137972036574, rel=1e-12)
    assert t[4][0, 1, 1, 2] == pytest.approx(-4.296175132649179, rel=1e-10)


def test_example4_closed_values_on_first_axis():
    A, B, e1, e2 = 10.0, 10.0, 0.1, 0.1
    norm = NormModel.example4(A, B, e1, e2)
    t = norm.jet(np.array([1.0, 0.0, 0.0])).partial_tensors(2)
    assert t[0] == pytest.approx(A)
    assert t[2][0, 0] == pytest.approx(2 * A)
    assert t[2][1, 1] == pytest.approx(2 * A)
    assert t[2][0, 1] == pytest.approx(0.0, abs=1e-12)
    assert t[2][2, 2] == pytest.approx(2 * (B + e2))
    assert t[2][1, 2] == pytest.approx(3 * e1)
    assert t[2][0, 2] == pytest.approx(0.0, abs=1e-12)


def test_example4_reversible_and_homogeneous():
    norm = NormModel.example4(10.0, 10.0, 0.1, 0.1)
    rng = np.random.default_rng(1)
    for _ in range(20):
        y = rng.standard_normal(3)
        if y[0] ** 2 + y[1] ** 2 < 1e-3:
            continue
        assert norm.value(-y) == pytest.approx(norm.value(y), rel=1e-12)
        assert norm.value(2.0 * y) == pytest.approx(4.0 * norm.value(y),
                                                    rel=1e-12)


def test_example4_axis_exclusion():
    norm = NormModel.example4(10.0, 10.0, 0.1, 0.1)
    with pytest.raises(SingularDirection):
        norm.value(np.array([0.0, 0.0, 1.0]))
    eps = np.sqrt(AXIS_EXCLUSION)
    norm.value(np.array([10 * eps, 0.0, 1.0]))  # just outside the cutoff


def test_zero_direction_rejected():
    with pytest.raises(SingularDirection):
        NormModel.euclidean(2).value(np.zeros(2))


def test_expression_matches_builtin():
    norm_e = NormModel.expression("(y1^2 + y2^2 + y3^2) / 2", 3)
    builtin = NormModel.euclidean(3)
    rng = np.random.default_rng(2)
    for _ in range(10):
        y = rng.standard_normal(3)
        assert norm_e.value(y) == pytest.approx(builtin.value(y), rel=1e-14)
    j1 = norm_e.jet(np.array([0.4, -1.0, 0.3]))
    j2 = builtin.jet(np.array([0.4, -1.0, 0.3]))
    assert np.allclose(j1.coeffs, j2.coeffs, atol=1e-14)


def test_config_round_trip():
    models = [
        NormModel.euclidean(4),
        NormModel.randers(RANDERS_A, RANDERS_B),
        NormModel.example4(10.0, 10.0, 0.1, 0.1),
        NormModel.expression("sqrt(y1^2 + y2^2)^2 / 2 + y1 * y2 / 10", 2),
    ]
    for m in models:
        cfg = m.to_config()
        assert cfg["kind"] == m.kind
        y = np.full(m.dim, 0.6)
        rebuilt = {
            "euclidean": lambda c: NormModel.euclidean(c["dim"]),
            "randers": lambda c: NormModel.randers(c["a"], c["b"]),
            "example4": lambda c: NormModel.example4(c["A"], c["B"],
                                                     c["eps1"], c["eps2"]),
            "expression": lambda c: NormModel.expression(c["text"], c["dim"]),
        }[cfg["kind"]](cfg)
        assert rebuilt.value(y) == pytest.approx(m.value(y), rel=1e-14)
        assert pickle.loads(pickle.dumps(m)).value(y) == m.value(y)


def test_validate_norm_accepts_good_models():
    rep = validate_norm(NormModel.euclidean(3), samples=200, seed=0)
    assert rep.valid
    assert rep.max_euler_degree_residual <= 1e-9
    assert rep.max_euler_gradient_residual <= 1e-9
    assert rep.min_hessian_eigenvalue == pytest.approx(1.0)

    rep = validate_norm(NormModel.randers(RANDERS_A, RANDERS_B),
                        samples=200, seed=0)
    assert rep.valid


def test_validate_norm_flags_the_example_near_its_axis():
    # unrestricted sampling probes the excluded ray and finds the failure
    norm = NormModel.example4(10.0, 10.0, 0.1, 0.1)
    rep = validate_norm(norm, samples=200, seed=0)
    assert not rep.valid
    assert any("probes" in note for note in rep.notes)
    # restricted to the cone y1^2+y2^2 >= 0.25 |y|^2 it passes
    rep = validate_norm(norm, samples=400, seed=0, min_axis_fraction=0.5)
    assert rep.valid
    assert rep.min_axis_fraction == 0.5


def test_validate_norm_rejects_indefinite_expression():
    # Lorentzian quadratic: 2-homogeneous, Euler identities hold, not convex
    norm = NormModel.expression("(y1^2 - y2^2) / 2", 2)
    rep = validate_norm(norm, samples=300, seed=3)
    assert not rep.valid
    assert rep.min_hessian_eigenvalue == pytest.approx(-1.0)
    assert rep.max_euler_degree_residual <= 1e-9


def _validate_loop(model, samples, seed, min_axis_fraction):
    # the per-direction residual loop that validate_norm vectorizes
    rng = np.random.default_rng(seed)
    dirs = _sample_directions(model, samples, rng, min_axis_fraction)
    if min_axis_fraction == 0.0:
        probes = _near_ray_probes(model, 200, rng)
        if len(probes):
            dirs = np.vstack([dirs, probes])
    max_deg, max_grad, min_eig, argmin = 0.0, 0.0, np.inf, dirs[0]
    for y in dirs:
        h0, d1, d2 = model.jet(y).partial_tensors(2)
        scale = 1.0 + abs(h0)
        max_deg = max(max_deg, abs(float(y @ d1) - 2.0 * h0) / scale)
        max_grad = max(max_grad, float(np.max(np.abs(d2 @ y - d1))) / scale)
        eig = float(np.linalg.eigvalsh(d2)[0])
        if eig < min_eig:
            min_eig, argmin = eig, y
    return max_deg, max_grad, min_eig, argmin


@pytest.mark.parametrize("model, fraction", [
    (NormModel.euclidean(4), 0.0),
    (NormModel.randers(RANDERS_A, RANDERS_B), 0.0),
    (NormModel.expression("(y1^2 - y2^2) / 2 + y1^4 / (y1^2 + y2^2)", 2),
     0.0),
    (NormModel.example4(10.0, 10.0, 0.1, 0.1), 0.0),
    (NormModel.example4(3.0, 2.0, 0.4, -0.3), 0.5),
], ids=lambda x: getattr(x, "kind", str(x)))
def test_validate_norm_matches_the_per_direction_loop(model, fraction):
    rep = validate_norm(model, samples=300, seed=4,
                        min_axis_fraction=fraction)
    max_deg, max_grad, min_eig, argmin = _validate_loop(model, 300, 4,
                                                        fraction)
    assert rep.max_euler_degree_residual == max_deg
    assert rep.max_euler_gradient_residual == max_grad
    assert rep.min_hessian_eigenvalue == min_eig
    assert np.array_equal(rep.argmin_direction, argmin)


@pytest.mark.parametrize("fraction", [1.0, float("nan"), -0.5, 1.5])
def test_validate_norm_rejects_fractions_outside_unit_interval(fraction):
    with pytest.raises(ValueError, match="min_axis_fraction"):
        validate_norm(NormModel.euclidean(3), samples=10,
                      min_axis_fraction=fraction)


def test_too_narrow_cone_raises_after_the_draw_cap():
    # the cone y1^2 + y2^2 >= f^2 |y|^2 covers sqrt(1 - f^2) of the sphere
    model = NormModel.example4(10.0, 10.0, 0.1, 0.1)
    rng = np.random.default_rng(0)
    with pytest.raises(ConeTooNarrow, match="0.999999999999"):
        _sample_directions(model, 5, rng, 0.999999999999)
    # each of the 5 * MAX_DRAWS_PER_SAMPLE draws took 3 normals
    ref = np.random.default_rng(0)
    ref.standard_normal((5 * MAX_DRAWS_PER_SAMPLE, 3))
    assert rng.standard_normal() == ref.standard_normal()


def _sample_loop(model, samples, rng, min_axis_fraction):
    # the one-draw-at-a-time rejection sampler that the block sampler
    # reproduces, draw for draw
    out = np.empty((samples, model.dim))
    count = draws = 0
    while count < samples:
        if draws == MAX_DRAWS_PER_SAMPLE * samples:
            raise ConeTooNarrow("draw cap")
        draws += 1
        y = rng.standard_normal(model.dim)
        norm = np.linalg.norm(y)
        if norm < 1e-8:
            continue
        y /= norm
        if (model.excluded_axis is not None and model._off_axis_sq(y)
                < max(AXIS_EXCLUSION, min_axis_fraction ** 2)):
            continue
        out[count] = y
        count += 1
    return out


@pytest.mark.parametrize("model", [
    NormModel.example4(10.0, 10.0, 0.1, 0.1),
    NormModel.example4(3.0, 2.0, 0.4, -0.3),
    NormModel.euclidean(4),
], ids=["example4", "example4-A3B2", "euclidean"])
@pytest.mark.parametrize("fraction", [0.0, 0.5, 0.9, 0.999])
def test_block_sampler_matches_the_draw_loop(model, fraction):
    for seed in range(4):
        for samples in (1, 7, 300):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _sample_directions(model, samples, rng, fraction)
            assert np.array_equal(got, _sample_loop(model, samples, ref,
                                                    fraction))
            # the generator is left where the loop leaves it
            assert np.array_equal(rng.standard_normal(5),
                                  ref.standard_normal(5))


def test_validator_determinism():
    norm = NormModel.randers(RANDERS_A, RANDERS_B)
    r1 = validate_norm(norm, samples=150, seed=5)
    r2 = validate_norm(norm, samples=150, seed=5)
    assert r1.to_dict() == r2.to_dict()


# -- batched jets -------------------------------------------------------------


def _norm_cases():
    rng = np.random.default_rng(41)
    for dim in (3, 4, 5):
        m = rng.standard_normal((dim, dim)) * 0.3
        b = rng.standard_normal(dim)
        a = np.eye(dim) + m @ m.T
        b *= 0.4 / np.sqrt(b @ np.linalg.solve(a, b))
        quad = " + ".join(f"{k + 1}*y{k + 1}^2" for k in range(dim))
        yield NormModel.euclidean(dim)
        yield NormModel.randers(a, b)
        yield NormModel.expression(f"(sqrt({quad}) + y1/4)^2 / 2", dim)
    yield NormModel.example4(10.0, 12.0, 0.1, 0.05)


@pytest.mark.parametrize("norm", list(_norm_cases()),
                         ids=lambda m: f"{m.kind}{m.dim}")
def test_batched_jet_is_bit_identical_to_the_loop(norm):
    rng = np.random.default_rng(norm.dim)
    for rows in (1, 63, 64, 65):
        Y = rng.standard_normal((rows, norm.dim))
        batch = norm.jet(Y).partial_tensors(4)
        for k, y in enumerate(Y):
            single = norm.jet(y).partial_tensors(4)
            assert batch[0][k] == single[0]
            for deg in range(1, 5):
                assert np.array_equal(batch[deg][k], single[deg])


def test_batched_jet_rejects_singular_rows():
    Y = np.ones((5, 3))
    Y[2] = 0.0
    with pytest.raises(SingularDirection, match="batch row 2"):
        NormModel.euclidean(3).jet(Y)
    Y[2] = [0.0, 0.0, -2.0]   # on example4's excluded y3-axis
    with pytest.raises(SingularDirection, match="batch row 2"):
        NormModel.example4(1.0, 1.0, 0.1, 0.1).jet(Y)


def _admissibility_loop(norm, Y):
    # the per-row check, one direction at a time: the first row that is
    # zero or lies within AXIS_EXCLUSION of an excluded axis, and its
    # message; None when every row is admissible
    for k, y in enumerate(Y):
        sq = float(y @ y)
        off = sum(y[i] * y[i] for i in range(norm.dim)
                  if i != norm.excluded_axis)
        if sq == 0.0:
            return k, f"zero direction (batch row {k})"
        if norm.excluded_axis is not None and off < AXIS_EXCLUSION * sq:
            return k, ("direction lies on the excluded y3-axis of the norm "
                       f"(batch row {k})")
    return None


def _batch_verdict(norm, Y):
    try:
        norm.check_admissible(Y, 0)
    except SingularDirection as exc:
        return int(str(exc).rsplit(" ", 1)[1][:-1]), str(exc)
    return None


def _axis_boundary():
    # the largest a for which (a, 0, 1) is still inside the excluded cone of
    # the example norm, by bisection over the floats between 1e-7 and 1e-5
    norm = NormModel.example4(10.0, 10.0, 0.1, 0.1)
    lo, hi = 1e-7, 1e-5
    while np.nextafter(lo, hi) != hi:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            mid = np.nextafter(lo, hi)
        bad = _admissibility_loop(norm, [np.array([mid, 0.0, 1.0])])
        lo, hi = (mid, hi) if bad else (lo, mid)
    return lo, hi


def test_batch_admissibility_matches_the_row_loop():
    lo, hi = _axis_boundary()
    assert np.nextafter(lo, 1.0) == hi and abs(lo - 1e-6) < 1e-15
    example4 = NormModel.example4(10.0, 10.0, 0.1, 0.1)
    rng = np.random.default_rng(5)
    cases = []
    for norm in (example4, NormModel.euclidean(3),
                 NormModel.expression("(y1^2 + 2*y2^2 + y3^2) / 2", 3)):
        for bad_rows in ([], [0], [3], [BATCH_BLOCK + 2], [2 * BATCH_BLOCK],
                         [7, BATCH_BLOCK + 1]):
            # zero, on the axis, and one ulp inside the cone at two scales
            for bad in ([0.0, 0.0, 0.0], [0.0, 0.0, -2.0], [lo, 0.0, 1.0],
                        [0.0, -3.0 * lo, -3.0]):
                Y = rng.standard_normal((2 * BATCH_BLOCK + 9, 3))
                Y[1] = [hi, 0.0, 1.0]           # one ulp outside the cone
                Y[2] = [0.0, 3.0 * hi, -3.0]
                for k in bad_rows:
                    Y[k] = bad
                cases.append((norm, Y))
    for norm, Y in cases:
        want = _admissibility_loop(norm, Y)
        assert _batch_verdict(norm, Y) == want
        # a later block of a sweep names its rows within the block
        block = Y[BATCH_BLOCK:]
        assert _batch_verdict(norm, block) == _admissibility_loop(norm, block)
        # a single direction decides as its batch row does, and names none
        for k in (0, 1, 2, BATCH_BLOCK + 2):
            bad = _admissibility_loop(norm, Y[k:k + 1]) is not None
            try:
                norm.check_admissible(Y[k])
                assert not bad
            except SingularDirection as exc:
                assert bad and "batch row" not in str(exc)
        if want is None:
            norm.jet(Y[:BATCH_BLOCK], 2)
        else:
            with pytest.raises(SingularDirection, match=re.escape(want[1])):
                norm.jet(Y[:want[0] + 1], 2)
    # some case of each kind was rejected, and the ulp rows pass alone
    assert {_admissibility_loop(*c) is None for c in cases} == {True, False}
    example4.check_admissible(np.array([hi, 0.0, 1.0]))
    with pytest.raises(SingularDirection, match="excluded y3-axis"):
        example4.check_admissible(np.array([lo, 0.0, 1.0]))


def test_sweep_names_a_bad_row_in_a_later_block():
    norm = NormModel.example4(10.0, 10.0, 0.1, 0.1)
    germ = Germ.make(2, 1, np.eye(2)[None], np.zeros((1, 2, 2, 2)))
    U = sphere_grid(2, 2 * BATCH_BLOCK + 9)
    k = 2 * BATCH_BLOCK + 5
    U[k] = 0.0
    with pytest.raises(SingularDirection, match=r"^zero direction \(batch "
                       rf"row {k - 2 * BATCH_BLOCK}\)$"):
        ricci_expanded_batch(norm, germ, U)
    with pytest.raises(SingularDirection, match=r"^zero direction$"):
        ricci_expanded(norm, germ, U[k])


# -- the randers quadratic form over the stacked coordinates ------------------


def _per_entry_randers(a, b, ys):
    """The randers family as a double loop over the entries of a and b."""
    q = 0.0
    for i in range(len(ys)):
        for j in range(len(ys)):
            if a[i, j] != 0.0:
                q = q + ys[i] * ys[j] * a[i, j]
    f = q.sqrt() if isinstance(q, Jet4) else math.sqrt(q)
    for i in range(len(ys)):
        if b[i] != 0.0:
            f = f + ys[i] * b[i]
    return f * f * 0.5


def _sparse_randers(dim, rng):
    """A randers norm whose a and b both have zero entries."""
    off = np.triu(rng.uniform(-0.15, 0.15, (dim, dim)), 1)
    off *= rng.uniform(size=(dim, dim)) < 0.5     # diagonally dominant
    a = np.diag(rng.uniform(1.0, 2.0, dim)) + off + off.T
    b = rng.uniform(-0.2, 0.2, dim) * (np.arange(dim) % 2 == 1)
    return NormModel.randers(a, b), a, b


@pytest.mark.parametrize("rows", [None, 5])
@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("dim", range(1, 7))
def test_stacked_randers_form_equals_the_per_entry_loop(dim, order, rows):
    rng = np.random.default_rng(40 + dim)
    norm, a, b = _sparse_randers(dim, rng)
    if dim > 1:
        assert (a == 0.0).any() and (b == 0.0).any()
    base = rng.uniform(-1.0, 1.0, ((rows,) if rows else ()) + (dim,))
    base[..., 0] = 0.0     # a zero coordinate: products with signed zeros
    base[..., -1] = 1.0
    got = norm.jet(base, order)
    want = _per_entry_randers(a, b, Jet4.variables(dim, base, order))
    assert np.array_equal(got.coeffs, want.coeffs)
    assert np.array_equal(np.signbit(got.coeffs), np.signbit(want.coeffs))
    assert got.deg == want.deg
    for y in base.reshape(-1, dim):
        assert norm.value(y) == _per_entry_randers(a, b, list(y))
