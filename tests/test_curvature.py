"""Curvature pipeline against the flat Gauss equation and the spray oracles.

Three independent routes to the Ricci curvature exist: the expanded
coefficient formula (ricci_expanded), jet differentiation of the spray in
doubled position-direction variables, and Richardson-extrapolated finite
differences of the spray.  The tests here pin all three to each other and
to closed-form values.
"""

import re
import warnings
from dataclasses import fields

import numpy as np
import pytest

from minksub import curvature, minkowski
from minksub.curvature import (FD_STEP, NonPDTensor, _fd_stencil,
                               _pd_inverse, _ricci_oracle_jets, reports_to_csv,
                               ricci_expanded, ricci_expanded_batch,
                               ricci_oracle, spray_field, zeta_check)
from minksub.germ import COND_LIMIT, Germ, sym3, taylor_jets
from minksub.invariants import sphere_grid
from minksub.jets import BATCH_BLOCK, Jet4
from minksub.minkowski import NormModel, validate_norm


def random_germ(rng, n, p, scale=1.0):
    d2 = scale * rng.standard_normal((p, n, n))
    d2 = 0.5 * (d2 + d2.swapaxes(1, 2))
    d3 = scale * sym3(rng.standard_normal((p, n, n, n)))
    return Germ.make(n, p, d2, d3)


def random_randers(rng, dim):
    m = rng.standard_normal((dim, dim)) * 0.3
    a = np.eye(dim) + m @ m.T
    b = rng.standard_normal(dim)
    b *= 0.4 * rng.uniform(0.2, 1.0) / np.sqrt(b @ np.linalg.solve(a, b))
    return NormModel.randers(a, b)


def euclid_gauss_ric(germ, u):
    # flat ambient: Ric(u) = sum_a (tr(A_a) kappa^a - |A_a u|^2)
    total = 0.0
    for A, k in zip(germ.d2, germ.kappa(u)):
        total += np.trace(A) * k - float((A @ u) @ (A @ u))
    return total


def test_paraboloid_values():
    # z = |x|^2 / 2 cross-sections: Ric = n - 1 at unit directions
    for n in (2, 3, 4):
        norm = NormModel.euclidean(n + 1)
        germ = Germ.make(n, 1, np.eye(n)[None], np.zeros((1, n, n, n)))
        u = np.zeros(n)
        u[0] = 1.0
        assert ricci_expanded(norm, germ, u).Ric == pytest.approx(
            n - 1.0, abs=1e-12)


def test_hyperbolic_paraboloid_value():
    norm = NormModel.euclidean(3)
    germ = Germ.make(2, 1, np.diag([2.0, -2.0])[None], np.zeros((1, 2, 2, 2)))
    assert ricci_expanded(norm, germ, [1.0, 0.0]).Ric == pytest.approx(
        -4.0, abs=1e-12)


def test_euclidean_reduction_random_germs():
    rng = np.random.default_rng(10)
    for _ in range(12):
        n = int(rng.integers(2, 5))
        p = int(rng.integers(1, 3))
        norm = NormModel.euclidean(n + p)
        germ = random_germ(rng, n, p)
        u = rng.standard_normal(n)
        got = ricci_expanded(norm, germ, u).Ric
        want = euclid_gauss_ric(germ, u)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_fundamental_tensor_is_ambient_hessian_block():
    rng = np.random.default_rng(11)
    norm = random_randers(rng, 4)
    germ = random_germ(rng, 2, 2)
    u = np.array([0.8, -0.5])
    g = ricci_expanded(norm, germ, u).g
    lift = np.concatenate([u, np.zeros(2)])
    hess = norm.jet(lift).hessian()   # uncapped, order 4
    assert np.allclose(g, hess[:2, :2], atol=1e-13)


def test_spray_origin_matches_field():
    # the spray route's G(0, u) against the expanded route's 1/2 h kappa
    rng = np.random.default_rng(12)
    norm = random_randers(rng, 3)
    germ = random_germ(rng, 2, 1)
    u = np.array([1.1, 0.4])
    G0 = spray_field(norm, germ, np.zeros(2), u)
    assert np.allclose(G0, ricci_expanded(norm, germ, u).G, atol=1e-12)


def test_spray_vanishes_without_cubic_jet():
    norm = NormModel.euclidean(3)
    germ = Germ.make(2, 1, np.eye(2)[None], np.zeros((1, 2, 2, 2)))
    assert np.allclose(spray_field(norm, germ, np.zeros(2), [0.3, 0.9]), 0.0)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_expanded_vs_jet_oracle_randers(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    p = int(rng.integers(1, 3))
    norm = random_randers(rng, n + p)
    germ = random_germ(rng, n, p, scale=0.8)
    u = rng.standard_normal(n)
    ric = ricci_expanded(norm, germ, u).Ric
    oracle = ricci_oracle(norm, germ, u, scheme="jet")
    assert abs(ric - oracle) <= 1e-9 * (1.0 + abs(ric))


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_expanded_vs_finite_difference_oracle(seed):
    rng = np.random.default_rng(seed)
    norm = random_randers(rng, 3)
    germ = random_germ(rng, 2, 1, scale=0.8)
    u = rng.standard_normal(2)
    ric = ricci_expanded(norm, germ, u).Ric
    oracle = ricci_oracle(norm, germ, u, scheme="finite_difference")
    assert abs(ric - oracle) <= 1e-5


def test_expanded_vs_finite_difference_oracle_two_normals():
    rng = np.random.default_rng(8)
    norm = random_randers(rng, 5)
    germ = random_germ(rng, 3, 2, scale=0.8)
    u = rng.standard_normal(3)
    ric = ricci_expanded(norm, germ, u).Ric
    oracle = ricci_oracle(norm, germ, u, scheme="finite_difference")
    assert abs(ric - oracle) <= 1e-5


def test_oracles_on_expression_norm():
    # quartic perturbation of the euclidean norm, outside the randers family
    text = ("(y1^2 + y2^2 + y3^2) / 2"
            " + (y1^4 - 2*y1^2*y2^2 + y3^4) / (y1^2 + y2^2 + y3^2) / 20")
    norm = NormModel.expression(text, 3)
    rng = np.random.default_rng(21)
    germ = random_germ(rng, 2, 1, scale=0.7)
    u = np.array([0.9, -0.35])
    ric = ricci_expanded(norm, germ, u).Ric
    assert abs(ric - ricci_oracle(norm, germ, u, scheme="jet")) \
        <= 1e-9 * (1.0 + abs(ric))
    assert abs(ric - ricci_oracle(norm, germ, u,
                                  scheme="finite_difference")) <= 1e-5


def test_ric_homogeneity_degree_two():
    rng = np.random.default_rng(13)
    norm = random_randers(rng, 3)
    germ = random_germ(rng, 2, 1)
    u = np.array([0.6, 0.8])
    r1 = ricci_expanded(norm, germ, u).Ric
    for lam in (2.0, 0.5, 3.7):
        r2 = ricci_expanded(norm, germ, lam * u).Ric
        assert r2 == pytest.approx(lam ** 2 * r1, rel=1e-10)


def test_ric_parts_sum_to_ric():
    rng = np.random.default_rng(14)
    norm = random_randers(rng, 4)
    germ = random_germ(rng, 2, 2)
    rep = ricci_expanded(norm, germ, np.array([1.0, -0.2]))
    assert sum(rep.ric_parts) == pytest.approx(rep.Ric, rel=1e-12)
    assert rep.Ric == pytest.approx(np.trace(rep.Rik), rel=1e-12)


def test_zeta_positive_definite_and_codim_one_identity():
    rng = np.random.default_rng(15)
    for _ in range(8):
        norm = random_randers(rng, 3)
        germ = random_germ(rng, 2, 1)
        u = rng.standard_normal(2)
        zeta, res = zeta_check(norm, germ, u)
        assert zeta.shape == (1, 1)
        assert zeta[0, 0] > 0.0
        assert res <= 1e-10


def test_zeta_codim_two_no_residual():
    rng = np.random.default_rng(16)
    norm = random_randers(rng, 4)
    germ = random_germ(rng, 2, 2)
    zeta, res = zeta_check(norm, germ, np.array([1.0, 0.5]))
    assert zeta.shape == (2, 2)
    assert np.all(np.linalg.eigvalsh(zeta) > 0.0)
    assert res is None


def test_non_positive_definite_tensor_raises():
    norm = NormModel.expression("(y1^2 - y2^2 + 4*y3^2) / 2", 3)
    germ = Germ.make(2, 1, np.eye(2)[None], np.zeros((1, 2, 2, 2)))
    # one direction: the message names no direction index
    one = r"^fundamental tensor has eigenvalue -?[\d.e+-]+$"
    with pytest.raises(NonPDTensor, match=one):
        ricci_expanded(norm, germ, [1.0, 0.0])
    with pytest.raises(NonPDTensor):
        zeta_check(norm, germ, [1.0, 0.0])


def test_pd_inverse_names_the_first_unusable_row():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((8, 3, 3))
    g = m @ m.swapaxes(1, 2) + np.eye(3)
    g[3] = np.diag([1.0, -2.0, 3.0])            # not positive definite
    g[5] = np.diag([1.0, 1.0, 1e-14])           # condition number 1e14
    eig = r"^fundamental tensor has eigenvalue -2"
    cond = "^" + re.escape("fundamental tensor condition number exceeds "
                           f"{COND_LIMIT:g}")
    with pytest.raises(NonPDTensor, match=eig + " at direction 13$"):
        _pd_inverse(g, 10)
    with pytest.raises(NonPDTensor, match=eig + "$"):
        _pd_inverse(g)
    g[3] = np.eye(3)
    with pytest.raises(NonPDTensor, match=cond + r" at direction 15$"):
        _pd_inverse(g, 10)
    with pytest.raises(NonPDTensor, match=cond + "$"):
        _pd_inverse(g)
    g[5] = np.diag([1.0, 1.0, 0.0])             # a zero eigenvalue
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonPDTensor,
                           match=r"eigenvalue -?0 at direction 15$"):
            _pd_inverse(g, 10)
    g[5] = np.eye(3)
    assert np.allclose(_pd_inverse(g) @ g, np.eye(3))


def test_jet_oracle_dimension_cap():
    # doubled variables x, v need 2n jet slots; n = 5 exceeds the table cap
    norm = NormModel.euclidean(6)
    germ = Germ.make(5, 1, np.eye(5)[None], np.zeros((1, 5, 5, 5)))
    u = np.zeros(5)
    u[0] = 1.0
    assert ricci_expanded(norm, germ, u).Ric == pytest.approx(4.0, abs=1e-12)
    with pytest.raises(ValueError):
        ricci_oracle(norm, germ, u, scheme="jet")


def test_csv_sweep_layout():
    rng = np.random.default_rng(17)
    norm = random_randers(rng, 3)
    germ = random_germ(rng, 2, 1)
    angles = np.linspace(0.0, np.pi, 5)
    reports = [ricci_expanded(norm, germ, [np.cos(t), np.sin(t)])
               for t in angles]
    text = reports_to_csv(reports)
    lines = text.strip().split("\n")
    assert len(lines) == 6
    header = lines[0].split(",")
    assert header[:4] == ["u_1", "u_2", "S", "Ric"]
    assert len(lines[1].split(",")) == len(header)
    # byte-determinism of the serialization itself
    assert text == reports_to_csv(reports)


def test_report_is_frozen():
    norm = NormModel.euclidean(3)
    germ = Germ.make(2, 1, np.eye(2)[None], np.zeros((1, 2, 2, 2)))
    rep = ricci_expanded(norm, germ, [1.0, 0.0])
    with pytest.raises(AttributeError):
        rep.Ric = 0.0


# -- batched sweeps -----------------------------------------------------------

BATCH_REL_TOL = 1e-14   # a batch row vs the same direction run alone
JET_REL_TOL = 1e-9      # C2: expanded formula vs the jet oracle
FIELD_TOL = 1e-12       # other fields vs their independent routes


def _batch_cases():
    rng = np.random.default_rng(23)
    for n, p in ((2, 1), (3, 1), (2, 2), (3, 2)):
        dim = n + p
        quad = " + ".join(f"{k + 1}*y{k + 1}^2" for k in range(dim))
        norms = [NormModel.euclidean(dim), random_randers(rng, dim),
                 NormModel.expression(f"(sqrt({quad}) + y{dim}/5)^2 / 2",
                                      dim)]
        if dim == 3:
            norms.append(NormModel.example4(10.0, 10.0, 0.1, 0.1))
        for norm in norms:
            yield norm, random_germ(rng, n, p, scale=0.8)


def _close(got, want, tol):
    # agreement relative to 1 + the reference's largest entry
    err = np.max(np.abs(np.subtract(got, want)))
    return err <= tol * (1.0 + np.max(np.abs(want)))


@pytest.mark.parametrize("norm, germ", list(_batch_cases()),
                         ids=lambda x: getattr(x, "kind", None)
                         or f"{x.n}x{x.p}")
def test_batch_matches_per_direction_reports(norm, germ):
    # ricci_expanded is the batch's one-row case, so every row is also
    # checked against routes that never see the expanded formula
    U = sphere_grid(germ.n, BATCH_BLOCK + 6)   # one full block and a tail
    batch = ricci_expanded_batch(norm, germ, U)
    refs = [ricci_expanded(norm, germ, u) for u in U]
    for f in fields(batch):
        got = np.asarray(getattr(batch, f.name))
        want = np.array([getattr(r, f.name) for r in refs])
        assert got.shape == want.shape
        err = np.max(np.abs(got - want))
        assert err <= BATCH_REL_TOL * np.max(np.abs(want)), f.name
    for k, u in enumerate(U):
        assert _close(batch.Ric[k], ricci_oracle(norm, germ, u, scheme="jet"),
                      JET_REL_TOL), k
        # every entry of R^i_k against the spray route's matrix
        rik = batch.Rik[k]
        err = np.max(np.abs(rik - _ricci_oracle_jets(norm, germ, u)))
        assert err <= JET_REL_TOL * (1.0 + np.max(np.abs(rik))), k
        # g against the uncapped order-2 jet's Hessian
        lift = np.concatenate([u, np.zeros(germ.p)])
        assert np.array_equal(batch.g[k],
                              norm.jet(lift, 2).hessian()[:germ.n, :germ.n])
        assert _close(batch.zeta[k], zeta_check(norm, germ, u)[0],
                      FIELD_TOL), k
        assert _close(batch.G[k], spray_field(norm, germ, np.zeros(germ.n),
                                              u), FIELD_TOL), k
    # the four groups of the module docstring, rebuilt from the fields
    fu = np.einsum("ajl,rl->raj", germ.d2, U)
    cub = np.einsum("aijk,ri,rj,rk->ra", germ.d3, U, U, U)
    gi = np.linalg.inv(batch.g)
    groups = np.stack([
        np.einsum("ra,ra->r", batch.xi, cub),
        np.einsum("rab,ril,bil,ra->r", batch.zeta, gi, germ.d2, batch.kappa)
        - np.einsum("rab,ril,rbl,rai->r", batch.zeta, gi, fu, fu),
        -np.einsum("rab,ra,rb->r", batch.eta, batch.kappa, batch.kappa),
        -np.einsum("riab,rb,rai->r", batch.rho, batch.kappa, fu)], axis=1)
    assert _close(groups, batch.ric_parts, FIELD_TOL)
    # a stacked report serializes with the per-direction layout
    text = reports_to_csv(batch).splitlines()
    ref_text = reports_to_csv(refs).splitlines()
    assert text[0] == ref_text[0] and len(text) == len(ref_text)


def _capped_cases():
    rng = np.random.default_rng(29)
    for n, p in ((2, 1), (3, 1), (2, 2), (3, 2)):
        dim = n + p
        quad = " + ".join(f"{k + 1}*y{k + 1}^2" for k in range(dim))
        norms = [random_randers(rng, dim), NormModel.expression(
            f"(sqrt({quad}) + y{dim}/5)^2 / 2 + y1^4 / ({quad}) / 10", dim)]
        if dim == 3:
            norms.append(NormModel.example4(10.0, 10.0, 0.1, 0.1))
        for norm in norms:
            yield norm, random_germ(rng, n, p, scale=0.8)


@pytest.mark.parametrize("norm, germ", list(_capped_cases()),
                         ids=lambda x: getattr(x, "kind", None)
                         or f"{x.n}x{x.p}")
def test_ricci_block_reads_no_entry_above_normal_degree_two(norm, germ):
    # a jet capped at p normals computes no monomial of normal degree > 2;
    # the block must not read one: NaN there leaves every output bit alone
    U = sphere_grid(germ.n, 9)
    lifts = np.hstack([U, np.zeros((len(U), germ.p))])
    full = norm.jet(lifts).partial_tensors(4)
    capped = norm.jet(lifts, normal=germ.p).partial_tensors(4)
    poisoned = [np.array(t) for t in full]
    for k in (3, 4):
        normal = (np.indices((germ.n + germ.p,) * k) >= germ.n).sum(axis=0)
        assert (normal > 2).any()
        poisoned[k][:, normal > 2] = np.nan
        # the computed entries are the full jet's
        assert np.array_equal(capped[k][:, normal <= 2],
                              full[k][:, normal <= 2])
    want = curvature._ricci_block(germ, U, full)
    for tensors in (poisoned, capped):
        got = curvature._ricci_block(germ, U, tuple(tensors))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


FD_DELTA = 2e-3     # u-step of the Richardson-extrapolated stencils
FD_REL_TOL = 1e-8   # xi, eta, rho vs their finite-difference definitions


def _fd_derivatives(norm, germ, u, delta):
    # (h, g^-1, zeta) at the lift (u, 0), their u-derivatives [k] and their
    # second u-derivatives [k, l], read from the ambient Hessian alone: each
    # derivative is the Richardson extrapolation (4 D(c/2) - D(c)) / 3 of a
    # central difference D with step c = delta
    n, p = germ.n, germ.p
    e = np.eye(n)

    def at(w):
        H = norm.jet(np.concatenate([w, np.zeros(p)]), 2).hessian()
        gi = np.linalg.inv(H[:n, :n])
        h = gi @ H[:n, n:]
        return np.concatenate([h.ravel(), gi.ravel(),
                               (H[n:, n:] - H[n:, :n] @ h).ravel()])

    def richardson(D):
        return (4.0 * D(delta / 2) - D(delta)) / 3.0

    def d1(k):
        return richardson(lambda c: (at(u + c * e[k]) - at(u - c * e[k]))
                          / (2 * c))

    def d2(k, l):    # for k == l, the second difference with step 2c
        a, b = e[k] + e[l], e[k] - e[l]
        return richardson(lambda c: (at(u + c * a) - at(u + c * b)
                                     - at(u - c * b) + at(u - c * a))
                          / (4 * c * c))

    def split(v):
        lead = v.shape[:-1]
        h, gi, zeta = np.split(v, [n * p, n * p + n * n], axis=-1)
        return (h.reshape(lead + (n, p)), gi.reshape(lead + (n, n)),
                zeta.reshape(lead + (p, p)))

    return (split(at(u)), split(np.array([d1(k) for k in range(n)])),
            split(np.array([[d2(k, l) for l in range(n)] for k in range(n)])))


@pytest.mark.parametrize("norm, germ", list(_batch_cases()),
                         ids=lambda x: getattr(x, "kind", None)
                         or f"{x.n}x{x.p}")
def test_xi_eta_rho_match_finite_differences(norm, germ):
    # every entry of xi, eta and rho against their definitions in
    # u-derivatives of h, g^-1 and zeta, which are taken here by central
    # differences of the ambient Hessian, never from the jets of order 3-4
    U = sphere_grid(germ.n, 5)
    rep = ricci_expanded_batch(norm, germ, U)
    for r, u in enumerate(U):
        (h, gi, zeta), (dh, dgi, dzeta), (_, _, ddzeta) = _fd_derivatives(
            norm, germ, u, FD_DELTA)
        xi = -0.5 * np.einsum("kka->a", dh)
        div_gi = np.einsum("kkj->j", dgi)          # d_k g^kj
        eta = (0.75 * np.einsum("kia,ikb->ab", dh, dh)
               + 0.5 * np.einsum("j,jab->ab", div_gi, dzeta)
               + 0.5 * np.einsum("kl,klab->ab", gi, ddzeta))
        rho = (3.0 * xi[None, :, None] * h[:, None, :]
               + 0.5 * div_gi[:, None, None] * zeta[None]
               + np.einsum("ij,jab->iab", gi, dzeta))
        for name, want in (("xi", xi), ("eta", eta), ("rho", rho)):
            assert _close(getattr(rep, name)[r], want, FD_REL_TOL), (name, r)


def test_batch_names_the_direction_with_an_indefinite_tensor():
    # H = |y|^2/2 - y1^4/|y|^2 has g_11 = -1 along e1, g = I along e2
    norm = NormModel.expression(
        "(y1^2 + y2^2 + y3^2) / 2 - y1^4 / (y1^2 + y2^2 + y3^2)", 3)
    germ = Germ.make(2, 1, np.eye(2)[None], np.zeros((1, 2, 2, 2)))
    t = np.linspace(-0.2, 0.2, BATCH_BLOCK + 6)
    U = np.stack([np.sin(t), np.cos(t)], axis=1)
    ricci_expanded_batch(norm, germ, U)
    k = BATCH_BLOCK + 3                 # in the tail block
    U[k] = [1.0, 0.0]
    with pytest.raises(NonPDTensor, match=f"direction {k}$"):
        ricci_expanded_batch(norm, germ, U)
    with pytest.raises(NonPDTensor):
        ricci_expanded(norm, germ, U[k])


def _block_outputs(monkeypatch, block, norm, germ, U, X, V):
    # curvature and minkowski each import the block size by name
    monkeypatch.setattr(curvature, "BATCH_BLOCK", block)
    monkeypatch.setattr(minkowski, "BATCH_BLOCK", block)
    rep = ricci_expanded_batch(norm, germ, U)
    valid = validate_norm(norm, samples=len(U), seed=3)
    return ([getattr(rep, f.name) for f in fields(rep)],
            spray_field(norm, germ, X, V),
            [getattr(valid, f.name) for f in fields(valid)])


@pytest.mark.parametrize("norm, germ", list(_batch_cases()),
                         ids=lambda x: getattr(x, "kind", None)
                         or f"{x.n}x{x.p}")
def test_outputs_do_not_depend_on_the_block_size(monkeypatch, norm, germ):
    rng = np.random.default_rng(31)
    U = sphere_grid(germ.n, 300)
    X = 0.05 * rng.standard_normal((300, germ.n))
    V = rng.standard_normal((300, germ.n))
    refs = [ricci_expanded(norm, germ, u) for u in U]
    per_direction = [[getattr(r, f.name) for r in refs]
                     for f in fields(refs[0])]
    ref = _block_outputs(monkeypatch, BATCH_BLOCK, norm, germ, U, X, V)
    for block in (1, 7, 64):
        got = _block_outputs(monkeypatch, block, norm, germ, U, X, V)
        # one-row blocks run their 2-D matmuls as BLAS gemv, not gemm, so
        # their last bits are the per-direction reports', not wider blocks'
        want = per_direction if block == 1 else ref[0]
        assert all(np.array_equal(a, b) for a, b in zip(got[0], want))
        assert np.array_equal(got[1], ref[1])
        assert all(np.array_equal(a, b) for a, b in zip(got[2], ref[2]))


@pytest.mark.parametrize("block", (1, 7, 64, BATCH_BLOCK))
def test_a_later_block_names_the_global_direction(monkeypatch, block):
    # the indefinite "norm" of the test above, bad along e1 only
    norm = NormModel.expression(
        "(y1^2 + y2^2 + y3^2) / 2 - y1^4 / (y1^2 + y2^2 + y3^2)", 3)
    germ = Germ.make(2, 1, np.eye(2)[None], np.zeros((1, 2, 2, 2)))
    monkeypatch.setattr(curvature, "BATCH_BLOCK", block)
    t = np.linspace(-0.2, 0.2, 300)
    U = np.stack([np.sin(t), np.cos(t)], axis=1)
    k = 2 * BATCH_BLOCK + 5             # past the shipped size's first block
    U[k] = [1.0, 0.0]
    with pytest.raises(NonPDTensor, match=f"direction {k}$"):
        ricci_expanded_batch(norm, germ, U)


# -- stacked spray evaluation -------------------------------------------------


@pytest.mark.parametrize("norm, germ", list(_batch_cases()),
                         ids=lambda x: getattr(x, "kind", None)
                         or f"{x.n}x{x.p}")
def test_stacked_spray_field_matches_row_by_row(norm, germ):
    rng = np.random.default_rng(29)
    K = BATCH_BLOCK + 6                 # one full block and a tail
    X = 0.05 * rng.standard_normal((K, germ.n))
    U = rng.standard_normal((K, germ.n))
    stacked = spray_field(norm, germ, X, U)
    rows = np.array([spray_field(norm, germ, x, u) for x, u in zip(X, U)])
    assert stacked.shape == (K, germ.n)
    assert np.array_equal(stacked, rows)


def _fd_reference(norm, germ, u, step):
    # the finite-difference oracle with one spray_field call per stencil
    # point, in the order and arithmetic of its definition
    n = germ.n
    step_u = step * (1.0 + float(np.linalg.norm(u)))

    def Gw(w):
        return spray_field(norm, germ, w[:n], w[n:])

    w0 = np.concatenate([np.zeros(n), u])
    steps = np.concatenate([np.full(n, step), np.full(n, step_u)])

    def partial1(idx, h):
        e = np.zeros(2 * n)
        e[idx] = h

        def d(hh):
            return (Gw(w0 + (hh / h) * e) - Gw(w0 - (hh / h) * e)) / (2 * hh)
        return (4.0 * d(h / 2) - d(h)) / 3.0

    def partial2(i, j, hi, hj):
        ei, ej = np.eye(2 * n)[i], np.eye(2 * n)[j]
        if i == j:
            def d(h):
                return (Gw(w0 + h * ei) - 2.0 * Gw(w0)
                        + Gw(w0 - h * ei)) / h ** 2
            return (4.0 * d(hi / 2) - d(hi)) / 3.0

        def d(scale):
            a, b = scale * hi, scale * hj
            return (Gw(w0 + a * ei + b * ej) - Gw(w0 + a * ei - b * ej)
                    - Gw(w0 - a * ei + b * ej)
                    + Gw(w0 - a * ei - b * ej)) / (4 * a * b)
        return (4.0 * d(0.5) - d(1.0)) / 3.0

    G0 = Gw(w0)
    Gx = np.stack([partial1(k, steps[k]) for k in range(n)], axis=1)
    Gv = np.stack([partial1(n + k, steps[n + k]) for k in range(n)], axis=1)
    Gxv, Gvv = np.zeros((n, n, n)), np.zeros((n, n, n))
    for j in range(n):
        for k in range(n):
            Gxv[:, j, k] = partial2(j, n + k, steps[j], steps[n + k])
        for k in range(j, n):
            Gvv[:, j, k] = Gvv[:, k, j] = partial2(
                n + j, n + k, steps[n + j], steps[n + k])
    R = (2.0 * Gx - np.einsum("j,ijk->ik", u, Gxv)
         + 2.0 * np.einsum("j,ijk->ik", G0, Gvv) - Gv @ Gv)
    return float(np.trace(R))


@pytest.mark.parametrize("step", [FD_STEP], ids=["default"])
def test_fd_oracle_equals_the_per_point_stencil(step):
    for k, (norm, germ) in enumerate(_batch_cases()):
        u = np.random.default_rng(k).standard_normal(germ.n)
        got = ricci_oracle(norm, germ, u, scheme="finite_difference")
        assert got == _fd_reference(norm, germ, u, step)


def test_fd_oracle_squares_its_steps_as_the_definition_does():
    # at this |u|, numpy's array square of the u-steps (half and whole)
    # differs in the last bit from the definition's scalar h ** 2
    u = np.array([0.8019849100065128, 0.0])
    step_u = FD_STEP * (1.0 + float(np.linalg.norm(u)))
    assert np.any(np.square([step_u / 2, step_u])
                  != [(step_u / 2) ** 2, step_u ** 2])
    for norm, germ in _batch_cases():
        if germ.n == 2:
            got = ricci_oracle(norm, germ, u, scheme="finite_difference")
            assert got == _fd_reference(norm, germ, u, FD_STEP)


@pytest.mark.parametrize("n, rows", [(2, 57), (3, 121)])
def test_fd_stencil_has_the_distinct_points_of_the_definition(n, rows):
    offsets, axis, mixed, i, j = _fd_stencil(n)
    assert offsets.shape == (rows, 2 * n)
    assert len(np.unique(offsets, axis=0)) == rows
    assert not offsets[0].any()
    # every row is read, by an axis or a mixed difference or as the centre
    read = np.union1d(axis.ravel(), mixed.ravel())
    assert np.array_equal(np.union1d(read, [0]), np.arange(rows))
    assert len(i) == n * n + n * (n - 1) // 2 and np.all(i < j)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p", [1, 2])
def test_written_down_germ_jets_are_the_horner_jets(monkeypatch, n, p):
    # f_i, f_kl and the u-jets the jet oracle hands to _spray, against
    # taylor_jets in coordinate jets and Jet4.variables, which they replace
    germ = random_germ(np.random.default_rng(10 * n + p), n, p)
    u = np.random.default_rng(n + p).standard_normal(n)
    seen, spray = [], curvature._spray

    def spy(H, fi, fkl, uj, solve):
        seen.extend([fi, fkl, uj])
        return spray(H, fi, fkl, uj, solve)
    monkeypatch.setattr(curvature, "_spray", spy)
    ricci_oracle(NormModel.euclidean(n + p), germ, u)
    dim = 2 * n
    xu = Jet4.stack(Jet4.variables(dim, np.zeros(dim), 2))
    want = [taylor_jets([None, germ.d2, germ.d3], xu[:n]),
            taylor_jets([germ.d2, germ.d3], xu[:n]), xu[n:] + u]
    for got, ref in zip(seen, want):
        assert np.array_equal(got.coeffs, ref.coeffs)
        assert (got.deg, got.order, got.mask) == (ref.deg, ref.order,
                                                  ref.mask)


@pytest.mark.parametrize("u, match", [
    ([1.0, 0.0, 0.0], r"shape \(2,\)"), ([[1.0, 0.0]], r"shape \(2,\)"),
    ([np.nan, 1.0], "finite"), ([np.inf, 0.0], "finite")])
def test_ricci_oracle_checks_the_direction_before_either_scheme(u, match):
    # both oracle schemes and the expanded formula share _lift's check; the
    # batch checks its rows and names the first non-finite one
    norm = NormModel.euclidean(3)
    germ = Germ.make(2, 1, np.eye(2)[None], np.zeros((1, 2, 2, 2)))
    finite = match == "finite"
    calls = [(lambda: ricci_oracle(norm, germ, u, scheme="jet"), match),
             (lambda: ricci_oracle(norm, germ, u, scheme="finite_difference"),
              match),
             (lambda: ricci_expanded(norm, germ, u), match),
             (lambda: ricci_expanded_batch(
                 norm, germ, [[1.0, 0.0], u, u] if finite else [u]),
              "^direction 1 must be finite$" if finite
              else r"shape \(N, 2\)")]
    errors = []
    for call, want in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # no RuntimeWarning escapes
            with pytest.raises(ValueError, match=want) as exc:
                call()
        errors.append(str(exc.value))
    assert errors[0] == errors[1] == errors[2]


@pytest.mark.parametrize("x_shape, u_shape", [
    ((2,), (3,)), ((4, 2), (2,)), ((4, 2), (5, 2)), ((4, 3), (4, 3)),
    ((1, 4, 2), (1, 4, 2)), ((3,), (3,))])
def test_spray_field_rejects_mismatched_shapes(x_shape, u_shape):
    norm = NormModel.euclidean(3)
    germ = Germ.make(2, 1, np.eye(2)[None], np.zeros((1, 2, 2, 2)))
    with pytest.raises(ValueError, match=r"\(K, n\)"):
        spray_field(norm, germ, np.zeros(x_shape), np.ones(u_shape))
