"""Pointwise invariants, direction grids, and the proposition auditors."""

import warnings

import numpy as np
import pytest

from minksub.curvature import ricci_expanded, ricci_expanded_batch
from minksub.germ import Germ, sym3
from minksub.invariants import (Interval, NotRuledDirection, audit_codim2,
                                audit_hypersurface, audit_ruled, nullity,
                                point_invariants, point_type, sphere_grid,
                                _sobol_points)
from minksub.jets import BATCH_BLOCK, MAX_DIM
from minksub.minkowski import NormModel
from minksub.pencil import (SymPencil, max_rank_inertia, spectral_split,
                            type_exact)


def flat_germ(d2_list, n=None):
    d2 = np.asarray(d2_list, dtype=np.float64)
    p, n = d2.shape[0], d2.shape[1]
    return Germ.make(n, p, d2, np.zeros((p, n, n, n)))


def test_nullity_basic():
    g = flat_germ([np.diag([1.0, 1.0, 0.0])])
    mu, basis = nullity(g)
    assert mu == 1
    assert basis.shape == (3, 1)
    assert abs(basis[2, 0]) == pytest.approx(1.0)

    g = flat_germ([np.diag([1.0, 1.0])])
    mu, basis = nullity(g)
    assert mu == 0
    assert basis.shape == (2, 0)


def test_nullity_is_common_kernel():
    # e3 kills both forms, e2 only the first: nullity sees the intersection
    g = flat_germ([np.diag([1.0, 0.0, 0.0]), np.diag([1.0, 1.0, 0.0])])
    mu, basis = nullity(g)
    assert mu == 1
    assert abs(basis[2, 0]) == pytest.approx(1.0)


def test_nullity_relative_tolerance():
    g = flat_germ([np.diag([1.0, 1e-12])])
    mu, _ = nullity(g)
    assert mu == 1
    mu, _ = nullity(g, tol=1e-15)
    assert mu == 0


def test_point_type_hypersurface():
    assert point_type(flat_germ([np.diag([1.0, 1.0])])) == 0
    assert point_type(flat_germ([np.diag([-1.0, -1.0])])) == 0
    assert point_type(flat_germ([np.diag([1.0, -1.0])])) == 1
    assert point_type(flat_germ([np.diag([1.0, 0.0])])) == 0


def test_point_type_codim_two_restricts_to_complement():
    A1 = np.diag([1.0, -1.0, 0.0])
    A2 = np.zeros((3, 3))
    A2[0, 1] = A2[1, 0] = 1.0
    g = flat_germ([A1, A2])
    # on the complement of the common kernel the pencil is hyperbolic
    assert point_type(g) == 1
    inv = point_invariants(g)
    assert inv.mu == 1
    assert inv.type_t == 1


def restricted_point_type(germ):
    """The point type through the forms restricted to the orthogonal
    complement of L(P): inertia for p = 1, the spectral split for p = 2."""
    mu, basis = nullity(germ)
    W = np.linalg.svd(basis, full_matrices=True)[0][:, mu:]
    forms = [W.T @ A @ W for A in germ.d2]
    if germ.p == 1:
        pos, neg = max_rank_inertia(forms[0][None])
        return int(min(pos[0], neg[0]))
    return type_exact(spectral_split(SymPencil.make(*forms)))


@pytest.mark.parametrize("p", [1, 2])
def test_point_type_on_planted_kernels_matches_the_restriction(p):
    rng = np.random.default_rng(40 + p)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n))
        U = np.linalg.qr(rng.standard_normal((n, n)))[0][:, k:]
        S = rng.standard_normal((p, n - k, n - k))
        g = flat_germ([U @ (M + M.T) @ U.T for M in S])
        assert nullity(g)[0] == k
        assert point_type(g) == restricted_point_type(g)
    assert point_type(flat_germ(np.zeros((p, 3, 3)))) == 0


def test_point_type_codim_three_interval():
    D = np.diag([1.0, -1.0])
    O = np.array([[0.0, 1.0], [1.0, 0.0]])
    g = flat_germ([D, O, np.zeros((2, 2))])
    t = point_type(g)
    assert isinstance(t, Interval)
    assert t.lower == t.upper == 1


def test_point_invariants_to_dict():
    g = flat_germ([np.diag([1.0, -1.0])])
    out = point_invariants(g).to_dict()
    assert out["mu"] == 0
    assert out["type"] == 1
    assert out["typeExact"] is True
    assert out["nullBasis"] == []

    g3 = flat_germ([np.diag([1.0, -1.0]), np.zeros((2, 2)),
                    np.zeros((2, 2))])
    out = point_invariants(g3).to_dict()
    assert out["typeExact"] is False
    assert out["type"] == [1, 1]


def test_sphere_grid_circle():
    grid = sphere_grid(2, 8)
    assert grid.shape == (8, 2)
    assert np.allclose(np.linalg.norm(grid, axis=1), 1.0)
    # evenly spaced, starts at angle zero
    assert np.allclose(grid[0], [1.0, 0.0])
    assert np.allclose(grid[2], [0.0, 1.0], atol=1e-12)


def test_sphere_grid_rejects_empty_counts_and_bad_dimensions():
    for n, count in ((3, 0), (2, 0), (1, -1), (0, 8), (MAX_DIM + 1, 8)):
        with pytest.raises(ValueError):
            sphere_grid(n, count)


def test_sphere_grid_matches_scipy_sobol():
    # pins the in-repo construction to the reference implementation
    qmc = pytest.importorskip("scipy.stats.qmc")
    ndtri = pytest.importorskip("scipy.special").ndtri
    for d in range(1, MAX_DIM + 1):
        ref = qmc.Sobol(d=d, scramble=False).random(1024)
        assert np.array_equal(_sobol_points(d, 1022), ref[2:])
    for n in (1, 3, 4, 5, 6, 7, 8):
        ref = ndtri(qmc.Sobol(d=n, scramble=False).random(1024)[2:])
        ref /= np.linalg.norm(ref, axis=1, keepdims=True)
        for count in (1, 7, 256, 1022):
            assert np.abs(sphere_grid(n, count) - ref[:count]).max() <= 1e-15


def test_sphere_grid_higher_dimensions():
    for n in (3, 4):
        grid = sphere_grid(n, 200)
        assert grid.shape == (200, n)
        assert np.allclose(np.linalg.norm(grid, axis=1), 1.0)
        # deterministic: same call, same bytes
        assert np.array_equal(grid, sphere_grid(n, 200))
        # roughly centered
        assert np.max(np.abs(grid.mean(axis=0))) < 0.2


def paraboloid(n):
    return flat_germ([np.eye(n)])


def test_audit_hypersurface_consistent_on_paraboloid():
    rep = audit_hypersurface(NormModel.euclidean(3), paraboloid(2), grid=60)
    assert rep.verdict == "CONSISTENT"
    assert rep.min_ric == pytest.approx(1.0, abs=1e-10)
    assert rep.type_t == 0
    assert rep.mu == 0


def test_audit_hypersurface_consistent_when_hypothesis_fails():
    # saddle: Ric < 0 somewhere, the implication holds vacuously
    g = flat_germ([np.diag([2.0, -2.0])])
    rep = audit_hypersurface(NormModel.euclidean(3), g, grid=60)
    assert rep.verdict == "CONSISTENT"
    assert rep.min_ric < 0.0
    assert rep.type_t == 1


def test_audit_hypersurface_requires_codim_one():
    g = flat_germ([np.eye(2), np.zeros((2, 2))])
    with pytest.raises(ValueError):
        audit_hypersurface(NormModel.euclidean(4), g, grid=16)


def test_audit_codim2_consistent():
    g = flat_germ([np.diag([1.0, 1.0]), np.diag([1.0, -1.0])])
    rep = audit_codim2(NormModel.euclidean(4), g, grid=60)
    assert rep.verdict == "CONSISTENT"
    rep_dict = rep.to_dict()
    assert set(rep_dict) == {"minRic", "argminDirection", "type", "mu",
                             "verdict", "notes"}


def test_audit_codim2_requires_codim_two():
    with pytest.raises(ValueError):
        audit_codim2(NormModel.euclidean(3), paraboloid(2), grid=16)


def test_audit_ruled_cylinder():
    # f = x1^2: contains the x2-axis, which also spans the kernel
    g = flat_germ([np.diag([1.0, 0.0])])
    rep = audit_ruled(NormModel.euclidean(3), g, np.array([0.0, 1.0]))
    assert rep.verdict == "CONSISTENT"
    assert rep.min_ric == pytest.approx(0.0, abs=1e-12)


def test_audit_ruled_negative_ricci_branch():
    # f = x1 x2 contains both axes; along e1 the reduced form is negative
    O = np.array([[0.0, 1.0], [1.0, 0.0]])
    g = flat_germ([O])
    rep = audit_ruled(NormModel.euclidean(3), g, np.array([1.0, 0.0]))
    assert rep.verdict == "CONSISTENT"
    assert rep.min_ric == pytest.approx(-1.0, abs=1e-10)


def test_audit_ruled_rejects_bent_directions():
    with pytest.raises(NotRuledDirection):
        audit_ruled(NormModel.euclidean(3), paraboloid(2),
                    np.array([1.0, 0.0]))
    # cubic term along the direction also breaks straightness
    d3 = np.zeros((1, 2, 2, 2))
    d3[0, 1, 1, 1] = 1.0
    g = Germ.make(2, 1, np.diag([1.0, 0.0])[None], d3)
    with pytest.raises(NotRuledDirection):
        audit_ruled(NormModel.euclidean(3), g, np.array([0.0, 1.0]))


def test_audit_ruled_on_randers_norm():
    rng = np.random.default_rng(40)
    m = 0.2 * rng.standard_normal((3, 3))
    a = np.eye(3) + m @ m.T
    b = np.array([0.1, 0.05, -0.1])
    norm = NormModel.randers(a, b)
    g = flat_germ([np.diag([1.0, 0.0])])
    rep = audit_ruled(norm, g, np.array([0.0, 1.0]))
    assert rep.verdict == "CONSISTENT"


def test_audit_reports_embed_inputs_in_notes():
    rep = audit_hypersurface(NormModel.euclidean(3), paraboloid(2), grid=24)
    assert isinstance(rep.notes, tuple)
    assert rep.to_dict()["verdict"] == "CONSISTENT"


# -- non-finite sweeps --------------------------------------------------------

# A finite germ entry whose curvature overflows: d2 = diag(1, HUGE) keeps
# kappa finite at e1 and overflows R^i_k wherever u2 is not tiny.
HUGE = 1e160


def _overflowing(p):
    d2 = np.zeros((p, 2, 2))
    d2[0] = np.diag([1.0, 1.0])
    d2[-1, 1, 1] = HUGE
    return NormModel.euclidean(2 + p), flat_germ(d2)


@pytest.mark.parametrize("audit, p", [(audit_hypersurface, 1),
                                      (audit_codim2, 2)])
def test_grid_audits_reject_a_non_finite_sweep(audit, p):
    # the 8-angle grid: direction 0 is e1, direction 1 is at 45 degrees
    norm, germ = _overflowing(p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no RuntimeWarning escapes
        with pytest.raises(ValueError,
                           match="^Rik is not finite at direction 1$"):
            audit(norm, germ, grid=8)
    report = audit(norm, flat_germ(np.diag([1.0, 1.0])[None].repeat(p, 0)),
                   grid=8)
    assert np.isfinite(report.min_ric)


def test_require_finite_names_the_global_direction():
    norm, germ = _overflowing(1)
    U = np.tile([1.0, 0.0], (300, 1))   # finite along e1
    k = 2 * BATCH_BLOCK + 5             # past the first two blocks
    U[k] = [0.6, 0.8]
    with np.errstate(all="ignore"):
        sweep = ricci_expanded_batch(norm, germ, U)
        one = ricci_expanded(norm, germ, U[k])
    with pytest.raises(ValueError, match=f"^Rik is not finite at "
                                         f"direction {k}$"):
        sweep.require_finite()
    with pytest.raises(ValueError,
                       match="^Rik is not finite at this direction$"):
        one.require_finite()
    finite = ricci_expanded_batch(norm, germ, U[:k])
    assert finite.require_finite() is finite
