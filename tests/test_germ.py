"""Germ containers, adaptation, and push-forward through ambient maps."""

import numpy as np
import pytest

from conftest import random_germ
from minksub.cli import germ_from_config
from minksub.germ import (COND_LIMIT, Germ, NonInvertibleFrame, adapt_germ,
                          rank_mask, taylor_jets, transform_germ)
from minksub.invariants import RANK_TOL
from minksub.jets import Jet4
from minksub.pencil import PENCIL_COND_LIMIT


def test_make_validates_shapes():
    with pytest.raises(ValueError):
        Germ.make(2, 1, np.zeros((1, 2, 3)), np.zeros((1, 2, 2, 2)))
    with pytest.raises(ValueError):
        Germ.make(2, 1, np.zeros((1, 2, 2)), np.zeros((2, 2, 2, 2)))
    with pytest.raises(ValueError):
        Germ.make(0, 1, np.zeros((1, 0, 0)), np.zeros((1, 0, 0, 0)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_make_rejects_non_finite_jets(bad):
    d2 = np.zeros((3, 2, 2))
    d2[1, 0, 1] = d2[1, 1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        Germ.make(2, 3, d2, np.zeros((3, 2, 2, 2)))
    d3 = np.zeros((1, 2, 2, 2))
    d3[0, 1, 1, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        Germ.make(2, 1, np.zeros((1, 2, 2)), d3)


def test_make_symmetrizes_and_warns():
    d2 = np.array([[[1.0, 2.0], [0.0, 1.0]]])
    with pytest.warns(UserWarning, match="symmetrized"):
        g = Germ.make(2, 1, d2, np.zeros((1, 2, 2, 2)))
    assert g.d2[0, 0, 1] == g.d2[0, 1, 0] == 1.0


def test_jets_are_read_only():
    g = random_germ(np.random.default_rng(0), 2, 1)
    with pytest.raises(ValueError):
        g.d2[0, 0, 0] = 5.0


def test_kappa_and_cubic_contractions():
    d2 = np.array([[[1.0, 2.0], [2.0, -1.0]]])
    d3 = np.zeros((1, 2, 2, 2))
    d3[0, 0, 0, 0] = 6.0
    g = Germ.make(2, 1, d2, d3)
    u = np.array([1.0, 2.0])
    # f_ij u^i u^j = 1 + 2*2*2 - 4 = 5;  f_ijk u^i u^j u^k = 6
    assert g.kappa(u)[0] == pytest.approx(5.0)
    assert g.cubic(u)[0] == pytest.approx(6.0)


def test_dict_round_trip():
    g = random_germ(np.random.default_rng(1), 3, 2)
    h = germ_from_config(g.to_dict(), "")
    assert np.array_equal(g.d2, h.d2)
    # re-symmetrization costs an ulp on d3, nothing more
    assert np.allclose(g.d3, h.d3, rtol=1e-15, atol=0.0)


def test_adapt_germ_shears_frame_only():
    rng = np.random.default_rng(2)
    d1 = rng.standard_normal((1, 2))
    g0 = random_germ(rng, 2, 1)
    germ, basis = adapt_germ(d1, g0.d2, g0.d3)
    assert np.array_equal(germ.d2, g0.d2)
    assert np.array_equal(germ.d3, g0.d3)
    # the basis sends graph points (x, f(x)) with slope d1 to slope 0
    assert np.allclose(basis[2:, :2], d1)
    # already adapted input leaves the identity basis alone
    _, basis0 = adapt_germ(np.zeros((1, 2)), g0.d2, g0.d3)
    assert np.array_equal(basis0, np.eye(3))
    # a given basis is sheared on the right: basis @ shear
    B = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
    shear = np.eye(3)
    shear[2:, :2] = d1
    assert np.array_equal(adapt_germ(d1, g0.d2, g0.d3, B)[1], B @ shear)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_adapt_germ_rejects_a_non_finite_first_jet(bad):
    g = random_germ(np.random.default_rng(3), 2, 1)
    d1 = np.zeros((1, 2))
    d1[0, 1] = bad
    with pytest.raises(ValueError, match="raw_d1 must be finite"):
        adapt_germ(d1, g.d2, g.d3)


def test_frame_check_rejects_singular_basis():
    g = random_germ(np.random.default_rng(9), 1, 1)
    with pytest.raises(NonInvertibleFrame):
        adapt_germ(np.zeros((1, 1)), g.d2, g.d3,
                   np.array([[1.0, 1.0], [1.0, 1.0]]))
    # a basis of the wrong size is named, not left to a matmul error
    with pytest.raises(ValueError, match=r"basis must have shape \(2, 2\)"):
        adapt_germ(np.zeros((1, 1)), g.d2, g.d3, np.eye(3))


def test_transform_identity_is_noop():
    g = random_germ(np.random.default_rng(3), 2, 2)
    d1, d2, d3 = transform_germ(g, np.eye(4))
    assert np.allclose(d1, 0.0, atol=1e-14)
    assert np.allclose(d2, g.d2, atol=1e-13)
    assert np.allclose(d3, g.d3, atol=1e-13)


def test_transform_tangent_scaling():
    # scaling x -> x/2 on the graph of f doubles... check against direct jets:
    # image graph g(x') = f(2 x') so d2 scales by 4, d3 by 8
    g = random_germ(np.random.default_rng(4), 2, 1)
    T = np.diag([0.5, 0.5, 1.0])
    d1, d2, d3 = transform_germ(g, T)
    assert np.allclose(d1, 0.0, atol=1e-14)
    assert np.allclose(d2, 4.0 * g.d2, atol=1e-12)
    assert np.allclose(d3, 8.0 * g.d3, atol=1e-12)


def test_transform_normal_mixing():
    # adding a multiple of a normal coordinate to itself rescales f
    g = random_germ(np.random.default_rng(5), 2, 1)
    T = np.diag([1.0, 1.0, 3.0])
    _, d2, d3 = transform_germ(g, T)
    assert np.allclose(d2, 3.0 * g.d2, atol=1e-13)
    assert np.allclose(d3, 3.0 * g.d3, atol=1e-13)


def test_transform_composes():
    rng = np.random.default_rng(6)
    g = random_germ(rng, 2, 1, scale=0.5)
    T1 = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
    T2 = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
    # push through T1, re-adapt, push through T2; compare with T2 @ T1
    d1a, d2a, d3a = transform_germ(g, T1)
    germ_a, basis_a = adapt_germ(d1a, d2a, d3a)
    # germ_a lives in basis_a coordinates: basis_a maps them to the
    # ambient after T1, so the remaining ambient map reads T2 compose basis
    d1b, d2b, d3b = transform_germ(germ_a, T2 @ basis_a)
    d1c, d2c, d3c = transform_germ(g, T2 @ T1)
    germ_b, _ = adapt_germ(d1b, d2b, d3b)
    germ_c, _ = adapt_germ(d1c, d2c, d3c)
    assert np.allclose(germ_b.d2, germ_c.d2, atol=1e-10)
    assert np.allclose(germ_b.d3, germ_c.d3, atol=1e-10)


def test_transform_rejects_bad_maps():
    g = random_germ(np.random.default_rng(7), 2, 1)
    with pytest.raises(ValueError):
        transform_germ(g, np.eye(4))
    singular = np.zeros((3, 3))
    with pytest.raises(NonInvertibleFrame):
        transform_germ(g, singular)
    # tangent block collapses: image is not a graph over the first two axes
    swap = np.zeros((3, 3))
    swap[0, 2] = swap[2, 0] = swap[1, 1] = 1.0
    with pytest.raises(NonInvertibleFrame):
        transform_germ(g, swap)


@pytest.mark.parametrize("bad", [np.nan, np.inf, "singular"])
def test_unusable_maps_raise_non_invertible_frame(bad):
    # one exception for every unusable map, a NaN entry included (numpy's
    # SVD does not converge on one)
    g = random_germ(np.random.default_rng(8), 2, 1)
    T = np.eye(3)
    if bad == "singular":
        T[0] = T[1]
    else:
        T[0, 1] = bad
    with pytest.raises(NonInvertibleFrame):
        adapt_germ(np.zeros((1, 2)), g.d2, g.d3, T)
    with pytest.raises(NonInvertibleFrame):
        transform_germ(g, T)


def test_taylor_jets_value_and_gradient():
    rng = np.random.default_rng(4)
    g = random_germ(rng, 3, 2)
    x0 = rng.standard_normal(3)
    xjets = Jet4.stack(Jet4.variables(3, x0))
    # f^a(x) = d2 x x / 2 + d3 x x x / 6 and f^a_kl(x) = d2_kl + d3_klm x_m
    f = taylor_jets([None, None, g.d2, g.d3], xjets)
    fkl = taylor_jets([g.d2, g.d3], xjets)
    assert isinstance(f, Jet4) and f.shape == (2,)
    assert isinstance(fkl, Jet4) and fkl.shape == (2, 3, 3)
    for a in range(2):
        value = (0.5 * np.einsum("ij,i,j->", g.d2[a], x0, x0)
                 + np.einsum("ijk,i,j,k->", g.d3[a], x0, x0, x0) / 6.0)
        grad = g.d2[a] @ x0 + 0.5 * np.einsum("ijk,j,k->i", g.d3[a], x0, x0)
        assert f[a].value == pytest.approx(value, rel=1e-12)
        assert np.allclose(f[a].partial_tensors(1)[1], grad, rtol=1e-12)
        for k in range(3):
            for l in range(3):
                jet = fkl[a, k, l]
                assert jet.value == pytest.approx(
                    g.d2[a, k, l] + g.d3[a, k, l] @ x0, rel=1e-12)
                assert np.allclose(jet.partial_tensors(1)[1],
                                   g.d3[a, k, l])


# -- the numerical-rank helper at the cuts of the inline forms it replaced ----


def two_ulps_from(cut, scale):
    """Values two ulps above and two below cut * scale, with their scales."""
    t = cut * scale
    up = np.nextafter(np.nextafter(t, np.inf), np.inf)
    down = np.nextafter(np.nextafter(t, -np.inf), -np.inf)
    return np.concatenate([up, down]), np.concatenate([scale, scale])


def sigma_pairs(cut):
    """(sigma_0, sigma) with sigma two ulps either side of cut * sigma_0 for
    sigma_0 over sixteen decades."""
    sigma0 = 10.0 ** np.random.default_rng(61).uniform(-8.0, 8.0, 1000)
    sigma, sigma0 = two_ulps_from(cut, sigma0)
    return list(zip(sigma0, sigma))


def kept(sigma0, sigma, cut):
    """The helper's decision on sigma, scaled by the largest value sigma_0."""
    return bool(rank_mask(np.array([sigma0, sigma]), cut)[1])


def test_rank_mask_makes_the_nullity_decision():
    # nullity: sigma <= RANK_TOL * sigma_max lies in the kernel
    pairs = sigma_pairs(RANK_TOL)
    inline = [not (s <= RANK_TOL * s0) for s0, s in pairs]
    assert [kept(s0, s, RANK_TOL) for s0, s in pairs] == inline
    assert sum(inline) == len(pairs) // 2


def test_rank_mask_makes_the_pencil_rank_decision():
    # pencil rank and the range cut Q: sigma * limit > sigma_0 is kept
    cut = 1 / PENCIL_COND_LIMIT
    pairs = sigma_pairs(cut)
    inline = [s * PENCIL_COND_LIMIT > s0 for s0, s in pairs]
    assert [kept(s0, s, cut) for s0, s in pairs] == inline
    assert [bool(rank_mask(np.array([s]), cut, s0)[0])
            for s0, s in pairs] == inline
    assert sum(inline) == len(pairs) // 2


def test_rank_mask_makes_the_conditioning_decision():
    # frames and ambient maps: sigma_0 / sigma_min > limit is singular
    cut = 1 / COND_LIMIT
    pairs = sigma_pairs(cut) + [(1.0, 0.0), (0.0, 0.0)]
    inline = [not (s == 0.0 or s0 / s > COND_LIMIT) for s0, s in pairs]
    assert [bool(rank_mask(np.array([s0, s]), cut).all())
            for s0, s in pairs] == inline
    assert sum(inline) == (len(pairs) - 2) // 2


def test_rank_mask_makes_the_absolute_nullspace_decision():
    # eigenspaces of the spectral split: sigma <= tol, tol = cut * scale
    rng = np.random.default_rng(62)
    cut = 1e-9 * (1.0 + rng.uniform(0.0, 100.0, 500))
    sigma, scale = two_ulps_from(cut, 1.0 + rng.uniform(0.0, 100.0, 500))
    cut = np.concatenate([cut, cut])
    inline = [not (s <= c * sc) for s, c, sc in zip(sigma, cut, scale)]
    assert [bool(rank_mask(np.array([s]), c, sc)[0])
            for s, c, sc in zip(sigma, cut, scale)] == inline
    assert sum(inline) == len(sigma) // 2
