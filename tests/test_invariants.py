"""Pointwise invariants, direction grids, and the proposition auditors."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minksub.curvature import (ricci_expanded, ricci_expanded_batch,
                               ricci_oracle)
from minksub.germ import Germ, adapt_germ, sym3, transform_germ
from minksub.invariants import (NORMAL_SAMPLES, NORMAL_TABLES,
                                RULED_AGREE_TOL, AuditScopeError,
                                Interval, NotRuledDirection, audit_codim2,
                                audit_hypersurface, audit_ruled, nullity,
                                point_invariants, point_type, sphere_grid,
                                _normal_table, _sobol_points)
from minksub.jets import BATCH_BLOCK, MAX_DIM
from minksub.minkowski import NormModel
from minksub.pencil import (EIG_TOL, SCREEN_MIN_MEMBERS, SymPencil,
                            _eigvalsh_counts, _inertia_counts, _max_rank_mins,
                            _rank_ceiling, pencil_type, spectral_split,
                            type_exact)
from conftest import random_germ, random_randers
from test_acceptance import _ruled_germ as ruled_germ
from test_acceptance import unit


def flat_germ(d2_list, n=None):
    d2 = np.asarray(d2_list, dtype=np.float64)
    p, n = d2.shape[0], d2.shape[1]
    return Germ.make(n, p, d2, np.zeros((p, n, n, n)))


def planted_kernel(rng, n, p, k):
    """p random forms on the complement of a random k-dimensional kernel,
    and an orthonormal basis of that complement."""
    U = np.linalg.qr(rng.standard_normal((n, n)))[0][:, k:]
    S = rng.standard_normal((p, n - k, n - k))
    return np.stack([U @ (M + M.T) @ U.T for M in S]), U


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
    # RANK_TOL (1e-9) cuts relative to the largest singular value
    mu, _ = nullity(flat_germ([np.diag([1.0, 1e-12])]))
    assert mu == 1
    mu, _ = nullity(flat_germ([np.diag([1.0, 1e-8])]))
    assert mu == 0
    mu, _ = nullity(flat_germ([np.diag([1e6, 1e-6])]))
    assert mu == 1


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
        pos, neg = _inertia_counts(forms[0][None])
        return int(min(pos[0], neg[0]))
    return type_exact(spectral_split(SymPencil.make(*forms)))


@pytest.mark.parametrize("p", [1, 2])
def test_point_type_on_planted_kernels_matches_the_restriction(p):
    rng = np.random.default_rng(40 + p)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n))
        g = flat_germ(planted_kernel(rng, n, p, k)[0])
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


def drawn_point_type(germ, seed):
    """The p >= 3 point type with the normal table drawn afresh per call."""
    normals = np.random.default_rng(seed).standard_normal(
        (NORMAL_SAMPLES, germ.p))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    forms = np.einsum("sa,aij->sij", normals, germ.d2)
    bound = _max_rank_mins(*_inertia_counts(forms))[0]
    return Interval(bound, bound)


@pytest.mark.parametrize("p", [3, 4])
def test_sampled_point_type_matches_a_fresh_draw(p):
    # at n = 2 the exact type is 0: p >= 3 generic forms span all of
    # Sym(2), the identity included, and a planted kernel (k = 1) leaves
    # multiples of one rank-one form.  The closed form certifies the first;
    # the second has Q = 0, inside its band, and still samples
    rng = np.random.default_rng(70 + p)
    for n in range(2, 6):
        for planted in (False, True):
            k = int(rng.integers(1, n)) if planted else 0
            g = flat_germ(planted_kernel(rng, n, p, k)[0])
            assert nullity(g)[0] == k
            for seed in (0, 1, 5):
                t = point_type(g, seed)
                if n == 2 and not planted:
                    assert t == 0 and not isinstance(t, Interval)
                else:
                    assert t == drawn_point_type(g, seed)
                    assert n > 2 or t == Interval(0, 0)


def test_thin_cone_surface_type_is_exact_where_sampling_misses():
    # n = 2, p = 3: xi . d2 is definite only where |xi3| EPS > |(xi1, xi2)|,
    # two caps covering about EPS^2 / 2 of the normal sphere, which the
    # sampled normals of seeds 0-5 miss; Q's top eigenvector finds them
    EPS = 0.005
    g = flat_germ([np.diag([1.0, -1.0]), [[0.0, 1.0], [1.0, 0.0]],
                   EPS * np.eye(2)])
    for seed in range(6):
        assert drawn_point_type(g, seed) == Interval(1, 1)
        assert point_type(g, seed) == 0
    assert np.linalg.eigvalsh(g.d2[2]).min() > 0.0
    out = point_invariants(g).to_dict()
    assert (out["type"], out["typeExact"]) == (0, True)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.sampled_from([(n, p) for n in range(3, 7) for p in range(3, 6)
                        if n + p <= MAX_DIM]),
       st.sampled_from(["kernel", "thin cone", "perturbed"]),
       st.one_of(st.floats(-2.0, 2.0), st.floats(-150.0, 150.0)),
       st.sampled_from([1e-12, 1e-9, 3e-9, 1e-7]),
       st.integers(0, 3), st.integers(0, 2 ** 32 - 1))
def test_early_stop_keeps_the_whole_table_point_type(shape, kind, log_scale,
                                                     eps, table, seed):
    n, p = shape
    rng = np.random.default_rng(seed)
    d2, U = planted_kernel(rng, n, p, int(rng.integers(
        0 if kind == "thin cone" else 1, n)))
    if kind == "thin cone":     # definite members only near +-e_p
        d2[-1] = 10.0 ** rng.uniform(-3, -1) * U @ U.T
    elif kind == "perturbed":   # a kernel germ moved off its kernel
        d2 += eps * planted_kernel(rng, n, p, 0)[0]
    g = flat_germ(10.0 ** log_scale * d2)
    assert point_type(g, table) == drawn_point_type(g, table)
    ceiling = _rank_ceiling(g.d2)
    if ceiling < n:
        forms = np.einsum("sa,aij->sij", _normal_table(table, p), g.d2)
        pos, neg = _eigvalsh_counts(forms)
        assert (pos + neg <= ceiling).all()


def definite_on_complement(corner):
    """n = 4, p = 3: d2[0] is -diag(corner, 1, 2, 3) and the others are
    small forms on e2..e4, so normals near -e1 give members of rank 3 that
    are positive definite on the complement of e1 (pos 3) and normals near
    +e1 members with pos 0; corner = 0 plants the kernel e1."""
    d2 = 0.1 * planted_kernel(np.random.default_rng(33), 4, 3, 0)[0]
    d2[:, 0, :] = d2[:, :, 0] = 0.0
    d2[0] = -np.diag([corner, 1.0, 2.0, 3.0])
    return flat_germ(d2)


def test_point_type_counts_only_the_members_that_decide(monkeypatch):
    # t = 0 with a witness among the first normals; t = 1 (the CLI's
    # n = 3, p = 3 germ, no sampled member definite); and sigma = EIG_TOL
    # just above the cut EIG_TOL - 2 COUNT_MARGIN R: every member still
    # counts e1 as a zero, but the ceiling stays n, so no member reaches it
    t1 = flat_germ([[[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 0.5]],
                    [[0.0, 1.0, 0.0], [1.0, 0.0, 0.5], [0.0, 0.5, 0.0]],
                    [[2.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, -1.0]]])
    germs = [definite_on_complement(0.0), t1, definite_on_complement(EIG_TOL)]
    assert [_rank_ceiling(g.d2) for g in germs] == [3, 3, 4]
    assert _rank_ceiling(definite_on_complement(EIG_TOL / 2).d2) == 3
    expected = [drawn_point_type(g, 0) for g in germs]
    assert expected == [Interval(0, 0), Interval(1, 1), Interval(0, 0)]
    counted = []

    def spy(members):
        counted.append(len(members))
        return _inertia_counts(members)

    monkeypatch.setattr("minksub.pencil._inertia_counts", spy)
    totals = []
    for g, t in zip(germs, expected):
        counted.clear()
        assert point_type(g) == t
        totals.append(sum(counted))
    assert 0 < totals[0] <= SCREEN_MIN_MEMBERS
    assert totals[1:] == [NORMAL_SAMPLES, NORMAL_SAMPLES]


@pytest.mark.parametrize("p", [3, 4, 5])
def test_table_slices_form_the_rows_of_the_full_table(p):
    d2 = planted_kernel(np.random.default_rng(p), 3, p, 1)[0]
    table = _normal_table(0, p)
    full = np.einsum("sa,aij->sij", table, d2)
    head = SCREEN_MIN_MEMBERS
    assert np.array_equal(np.einsum("sa,aij->sij", table[:head], d2),
                          full[:head])
    assert np.array_equal(np.einsum("sa,aij->sij", table[head:], d2),
                          full[head:])


def test_normal_table_is_drawn_once_per_seed_and_codimension(monkeypatch):
    draws = []
    real = np.random.default_rng

    def spy(seed):
        draws.append(seed)
        return real(seed)

    rng = np.random.default_rng(7)
    germs = {p: flat_germ([M + M.T for M in rng.standard_normal((p, 3, 3))])
             for p in (3, 4)}
    _normal_table.cache_clear()
    monkeypatch.setattr(np.random, "default_rng", spy)
    for _ in range(3):
        for p, g in germs.items():
            for seed in (0, 5):
                point_type(g, seed)
    assert sorted(draws) == [0, 0, 5, 5]
    table = _normal_table(5, 4)
    assert table.shape == (NORMAL_SAMPLES, 4)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1.0
    for seed in range(2 * NORMAL_TABLES):
        _normal_table(seed, 3)
    assert _normal_table.cache_info().currsize == NORMAL_TABLES


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
                             "verdict", "notes", "grid"}


@pytest.mark.parametrize("n, grid, expected", [
    (2, None, {"kind": "circle", "directions": 720}),
    (2, 60, {"kind": "circle", "directions": 60}),
    (3, 100, {"kind": "sobol", "directions": 100}),
])
def test_grid_audits_report_the_grid_they_sampled(n, grid, expected):
    hyper = audit_hypersurface(NormModel.euclidean(n + 1), paraboloid(n),
                               grid=grid)
    codim2 = audit_codim2(NormModel.euclidean(n + 2),
                          flat_germ([np.eye(n), np.eye(n)]), grid=grid)
    for rep in (hyper, codim2):
        assert rep.grid == expected and rep.to_dict()["grid"] == expected
    ruled = audit_ruled(NormModel.euclidean(3),
                        flat_germ([np.diag([1.0, 0.0])]), np.array([0.0, 1.0]))
    assert ruled.grid is None and "grid" not in ruled.to_dict()


def test_audit_codim2_requires_codim_two():
    with pytest.raises(ValueError):
        audit_codim2(NormModel.euclidean(3), paraboloid(2), grid=16)


@pytest.mark.parametrize("audit, d2, message", [
    (audit_hypersurface, [np.eye(2)] * 2, "p: audit hyper needs p = 1, got 2"),
    (audit_hypersurface, [np.eye(1)], "n: audit hyper needs n >= 2, got 1"),
    (audit_codim2, [np.eye(2)], "p: audit codim2 needs p = 2, got 1"),
    (audit_codim2, [np.eye(1)] * 2, "n: audit codim2 needs n >= 2, got 1"),
], ids=["hyper-p2", "hyper-n1", "codim2-p1", "codim2-n1"])
def test_grid_audits_refuse_a_germ_outside_their_case_before_sampling(
        monkeypatch, audit, d2, message):
    # the message starts with the field, so the CLI only adds its pointer
    sampled = []
    monkeypatch.setattr("minksub.invariants._grid_min_ric",
                        lambda *args: sampled.append(args))
    germ = flat_germ(d2)
    with pytest.raises(AuditScopeError, match=f"^{re.escape(message)}$"):
        audit(NormModel.euclidean(germ.n + germ.p), germ, grid=16)
    assert sampled == []


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-8],
                         ids=["nan", "inf", "negative"])
@pytest.mark.parametrize("audit, forms, extra", [
    (audit_hypersurface, [np.diag([1.0, 1.0, -1.0, -1.0])], {"grid": 256}),
    (audit_codim2, [np.eye(2), np.diag([1.0, -1.0])], {"grid": 60}),
    (audit_ruled, [np.diag([1.0, 0.0])],
     {"ruling_direction": np.array([0.0, 1.0])}),
], ids=["hyper", "codim2", "ruled"])
def test_audits_refuse_a_tolerance_outside_zero_to_infinity(audit, forms,
                                                           extra, tol):
    # accepted, tol = inf would read this hyper germ (min Ric -1) as a
    # VIOLATION, and tol = nan would drop every "Ric >= 0 fails" note
    germ = flat_germ(forms)
    with pytest.raises(ValueError, match="^" + re.escape(
            f"tol must be finite and >= 0, got {tol}") + "$"):
        audit(NormModel.euclidean(germ.n + germ.p), germ, tol=tol, **extra)


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


@pytest.mark.parametrize("u, message", [
    ([np.nan, 1.0], "^direction must be finite$"),
    ([np.inf, 0.0], "^direction must be finite$"),
    ([0.0, 1.0, 0.0], r"^direction must have shape \(2,\)$"),
    ([[0.0, 1.0]], r"^direction must have shape \(2,\)$"),
])
def test_audit_ruled_checks_its_direction_as_the_oracle_does(u, message):
    g = flat_germ([np.diag([1.0, 0.0])])
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no RuntimeWarning escapes
        with pytest.raises(ValueError, match=message):
            audit_ruled(NormModel.euclidean(3), g, u)
        with pytest.raises(ValueError, match=message):
            ricci_oracle(NormModel.euclidean(3), g, u)


def test_audit_ruled_on_randers_norm():
    rng = np.random.default_rng(40)
    m = 0.2 * rng.standard_normal((3, 3))
    a = np.eye(3) + m @ m.T
    b = np.array([0.1, 0.05, -0.1])
    norm = NormModel.randers(a, b)
    g = flat_germ([np.diag([1.0, 0.0])])
    rep = audit_ruled(norm, g, np.array([0.0, 1.0]))
    assert rep.verdict == "CONSISTENT"


def test_audit_ruled_codim_two_randers_escaping_direction():
    # n = 3, p = 2, ruled along u = +-(1, 2, 0)/sqrt(5): kappa(u) and the
    # cubic vanish, but f(u, .) does not, so u lies outside L(P); the sign
    # rule then needs Ric(u) < 0, which the reduced contraction
    # -zeta_ab g^il f^b_ul f^a_ui guarantees
    rng = np.random.default_rng(71)
    m = 0.3 * rng.standard_normal((5, 5))
    a = np.eye(5) + m @ m.T
    b = rng.standard_normal(5)
    b *= 0.4 / np.sqrt(b @ np.linalg.solve(a, b))
    norm = NormModel.randers(a, b)
    Q = np.linalg.qr(np.array([[1.0, 2.0, 0.0], [-2.0, 1.0, 0.0],
                               [0.0, 0.0, 1.0]]).T)[0]     # Q e1 = u
    d2 = rng.standard_normal((2, 3, 3))
    d2 = d2 + d2.swapaxes(1, 2)
    d2[:, 0, 0] = 0.0
    d3 = sym3(rng.standard_normal((2, 3, 3, 3)))
    d3[:, 0, 0, 0] = 0.0
    # the germ in coordinates where e1 becomes u
    d2 = np.einsum("aij,ki,lj->akl", d2, Q, Q)
    d3 = np.einsum("aijk,li,mj,nk->almn", d3, Q, Q, Q)
    germ = Germ.make(3, 2, d2, d3)
    u = Q[:, 0]
    rep = audit_ruled(norm, germ, u, seed=3)
    fu = np.einsum("ajl,l->aj", germ.d2, u)
    assert np.abs(fu).max() > 0.1
    full = ricci_expanded(norm, germ, u)
    reduced = -np.einsum("il,ab,bl,ai->", np.linalg.inv(full.g), full.zeta,
                         fu, fu)
    assert reduced < 0.0
    assert abs(full.Ric - reduced) <= RULED_AGREE_TOL * (1.0 + abs(full.Ric))
    assert rep.min_ric == full.Ric
    assert rep.verdict == "CONSISTENT"
    assert "hypothesis Ric(u) >= 0 fails at the ruling direction" in rep.notes


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
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no RuntimeWarning escapes
        with pytest.raises(ValueError, match=f"^Rik is not finite at "
                                             f"direction {k}$"):
            ricci_expanded_batch(norm, germ, U)
    with np.errstate(all="ignore"):     # ricci_expanded leaves it to callers
        one = ricci_expanded(norm, germ, U[k])
    with pytest.raises(ValueError,
                       match="^Rik is not finite at this direction$"):
        one.require_finite()
    finite = ricci_expanded_batch(norm, germ, U[:k])
    assert finite.require_finite() is finite


# -- closed-form point types against the pencil sweep -------------------------


def pencil_point_type(germ):
    """t(P) for p <= 2 through pencil_type's arc sweep, as point_type took
    it for every such germ before the closed forms."""
    A2 = germ.d2[1] if germ.p == 2 else np.zeros_like(germ.d2[0])
    return pencil_type(SymPencil.make(germ.d2[0], A2)) if germ.d2.any() else 0


def acceptance_germs():
    """The germs of p <= 2 whose point type C8 and C9 take, replayed from
    their seeds (C8: before and after each ambient change)."""
    rng = np.random.default_rng(108)
    random_randers(rng, 3), random_randers(rng, 4)
    for _ in range(25):
        n, p = (2, 1) if rng.uniform() < 0.5 else (2, 2)
        random_randers(rng, n + p), random_germ(rng, n, p, scale=0.8)
        unit(rng, n), rng.uniform(0.3, 3.0)
    for k in range(100):
        n, p = [(2, 1), (3, 1), (2, 2), (3, 2)][k % 4]
        if k % 3 == 0:
            w = np.zeros((n, n - 1))
            w[1:, :] = np.eye(n - 1)
            cores = rng.standard_normal((p, n - 1, n - 1))
            germ = flat_germ(np.einsum("iu,puv,jv->pij", w,
                                       cores + cores.swapaxes(1, 2), w))
        else:
            germ = random_germ(rng, n, p)
        T = np.eye(n + p) + 0.3 * rng.standard_normal((n + p, n + p))
        yield germ
        yield adapt_germ(*transform_germ(germ, T))[0]
    rng = np.random.default_rng(109)
    for p in (1, 2):
        for k in range(200):
            n = 2 if k % 2 else 3
            if k % 3:
                random_randers(rng, n + p)
            if p == 1 and k % 4 == 0:
                m = rng.standard_normal((n, max(1, n - 1)))
                sign = 1.0 if k % 8 else -1.0
                yield Germ.make(n, 1, (sign * m @ m.T)[None], 0.4 * sym3(
                    rng.standard_normal((1, n, n, n))))
            else:
                yield random_germ(rng, n, p)
    for k in range(200):
        n, p = [(2, 1), (3, 1), (3, 2)][k % 3]
        if k % 3:
            random_randers(rng, n + p)
        yield ruled_germ(rng, n, p, escape=k % 2 == 0)


def test_point_type_matches_pencil_type_on_the_acceptance_germs():
    germs = list(acceptance_germs())
    assert len(germs) == 800
    assert [point_type(g) for g in germs] == [pencil_point_type(g)
                                              for g in germs]


def near_cut_form(rng, n, scale):
    """A random symmetric form with one or two eigenvalues within 2x of
    the EIG_TOL cut, on either side."""
    ev = scale * rng.standard_normal(n)
    cut = EIG_TOL * (1.0 + np.abs(ev).max())
    for i in rng.choice(n, size=int(rng.integers(1, 3)), replace=False):
        ev[i] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0) * cut
    V = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return (V * ev) @ V.T


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2), st.integers(2, 5),
       st.sampled_from(["random", "cut", "proportional", "kernel"]),
       st.floats(-3.0, 3.0), st.integers(0, 2 ** 32 - 1))
def test_point_type_matches_pencil_type_near_the_cuts(p, n, kind, log_scale,
                                                      seed):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** log_scale

    def form(m):
        M = rng.standard_normal((m, m))
        return scale * (M + M.T)

    if kind == "cut":
        forms = [near_cut_form(rng, n, scale) for _ in range(p)]
    elif kind == "proportional":    # A2 = c A1 up to a tiny perturbation
        A = form(n)
        forms = [A, rng.standard_normal() * A
                 + 10.0 ** rng.uniform(-14, -6) * form(n)][:p]
    elif kind == "kernel":          # a common kernel up to a perturbation
        k = int(rng.integers(1, n))
        U = np.linalg.qr(rng.standard_normal((n, n)))[0][:, k:]
        eps = 10.0 ** rng.uniform(-14, -6)
        forms = [U @ form(n - k) @ U.T + eps * form(n) for _ in range(p)]
    else:
        forms = [form(n) for _ in range(p)]
    g = flat_germ(forms)
    assert point_type(g) == pencil_point_type(g)


@pytest.mark.parametrize("family, n, p, grid", [
    ("euclidean", 2, 1, 72), ("randers", 2, 2, 72), ("randers", 3, 1, 256),
    ("expression", 3, 2, 256)])
def test_audit_min_ric_is_the_full_contraction_minimum(family, n, p, grid):
    rng = np.random.default_rng(31 + n + p)
    norm = (NormModel.euclidean(n + p) if family == "euclidean" else
            random_randers(rng, n + p) if family == "randers" else
            NormModel.expression(" + ".join(
                f"{1 + k / 4} * y{k + 1}^2" for k in range(n + p)) + " + "
                "y1^4 / (y1^2 + y2^2) / 10", n + p))
    germ = random_germ(rng, n, p)
    audit = audit_hypersurface if p == 1 else audit_codim2
    rep = audit(norm, germ, grid=grid)
    dirs = sphere_grid(n, grid)
    full = ricci_expanded_batch(norm, germ, dirs)
    k = int(np.argmin(full.Ric))
    assert rep.min_ric == full.Ric.min() == full.Ric[k]
    assert np.array_equal(rep.argmin_direction, dirs[k])
    # the Ric-only contraction leaves eta and rho out, every other field
    # bit for bit the full one's
    short = ricci_expanded_batch(norm, germ, dirs, ric_only=True)
    for name, x in vars(short).items():
        if name in ("eta", "rho"):
            assert x is None
        else:
            assert np.array_equal(x, getattr(full, name)), name
    assert short.require_finite() is short
