"""Symmetric pencils: spectra, types, canonical forms, topology, zeros."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import minksub.pencil as pencil_module
from minksub.cli import pencil_from_config
from minksub.pencil import (EIG_TOL, CanonicalData, NotSemisimple, SingularA2,
                            SpectralData, SymPencil, TopologyLabel, ZeroPencil,
                            build_canonical, build_from_spectral,
                            canonical_from_spectral, classify_topology,
                            common_zero_search, genericity_check,
                            max_rank_inertia, pencil_type, spectral_split,
                            type_exact, type_sampled, _circle_counts,
                            _inertia_counts, _residuals)
from reference import canonical_type


def congruent(P, S):
    return SymPencil.make(S.T @ P.A1 @ S, S.T @ P.A2 @ S)


def pairs_close(got, want, tol=1e-9):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.allclose(g, w, atol=tol), (got, want)


def test_make_validates_symmetry():
    with pytest.raises(ValueError):
        SymPencil.make(np.array([[1.0, 2.0], [0.0, 1.0]]), np.eye(2))
    with pytest.raises(ValueError):
        SymPencil.make(np.eye(2), np.eye(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_make_rejects_non_finite_entries(bad):
    A1 = np.eye(3)
    A1[0, 1] = A1[1, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        SymPencil.make(A1, np.eye(3))
    with pytest.raises(ValueError, match="non-finite"):
        SymPencil.make(np.eye(3), A1)


def test_member_and_dict_round_trip():
    P = SymPencil.make(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
    assert np.allclose(P.member(2.0, -1.0), np.diag([-1.0, 0.0]))
    Q, _, _ = pencil_from_config({"A1": P.A1.tolist(), "A2": P.A2.tolist()})
    assert np.array_equal(P.A1, Q.A1)
    assert np.array_equal(P.A2, Q.A2)


def test_member_in_place_equals_the_two_products_summed():
    rng = np.random.default_rng(5)
    A1, A2 = rng.standard_normal((2, 6, 6))
    P = SymPencil.make(A1 + A1.T, A2 + A2.T)
    th = rng.uniform(0.0, np.pi, 40)[:, None, None]
    for lam1, lam2 in ((0.3, -1.7), (np.cos(th), np.sin(th))):
        got = P.member(lam1, lam2)
        assert np.array_equal(got, lam1 * P.A1 + lam2 * P.A2)
    assert got.shape == (40, 6, 6)


def test_inertia_counts():
    def counts(M):
        pos, neg = max_rank_inertia(M[None])
        return int(pos[0]), int(neg[0])

    assert counts(np.diag([1.0, -2.0, 0.0])) == (1, 1)
    assert counts(np.zeros((3, 3))) == (0, 0)
    assert counts(np.diag([5.0, 1e-15])) == (1, 0)  # relative tolerance


def test_type_sampled_basics():
    P = SymPencil.make(np.diag([2.0, 3.0]), np.eye(2))
    assert type_sampled(P) == 0  # -A1 is negative definite
    # hyperbolic pair: every nonzero member has det < 0, inertia (1, 1)
    P = SymPencil.make(np.diag([1.0, -1.0]),
                       np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert type_sampled(P) == 1
    with pytest.raises(ZeroPencil):
        type_sampled(SymPencil.make(np.zeros((2, 2)), np.zeros((2, 2))))
    with pytest.raises(ValueError):
        type_sampled(P, samples=4)


def test_spectral_split_diagonal():
    P = SymPencil.make(np.diag([2.0, 3.0]), np.eye(2))
    S = spectral_split(P)
    pairs_close(S.real_pairs, [(3.0, 1.0), (2.0, 1.0)])
    assert S.complex_pairs == ()
    assert (S.r, S.s) == (2, 0)


def test_spectral_split_complex_block():
    A1 = np.array([[1.0, 2.0], [2.0, -1.0]])
    A2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    S = spectral_split(SymPencil.make(A1, A2))
    assert S.real_pairs == ()
    pairs_close(S.complex_pairs, [(2.0, 1.0)])  # eigenvalues 2 +- i
    assert (S.r, S.s) == (0, 1)


def test_spectral_split_congruence_invariance():
    rng = np.random.default_rng(8)
    S0 = SpectralData(real_pairs=((2.0, 1.0), (-1.0, 1.0), (0.5, -1.0)),
                      complex_pairs=((0.7, 1.3),))
    P = build_from_spectral(S0)
    T = np.eye(5) + 0.3 * rng.standard_normal((5, 5))
    S1 = spectral_split(congruent(P, T))
    pairs_close(S1.real_pairs, S0.real_pairs, tol=1e-8)
    pairs_close(S1.complex_pairs, S0.complex_pairs, tol=1e-8)


def test_spectral_split_repeated_eigenvalue():
    # lam = 1 with multiplicity two and mixed signature across its block
    S0 = SpectralData(real_pairs=((1.0, 1.0), (1.0, -1.0), (3.0, 1.0)),
                      complex_pairs=())
    P = build_from_spectral(S0)
    rng = np.random.default_rng(9)
    T = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
    S1 = spectral_split(congruent(P, T))
    got = sorted(S1.real_pairs)
    want = sorted(S0.real_pairs)
    pairs_close(got, want, tol=1e-8)


def test_spectral_split_singular_a2_uses_swap():
    # A2 drops rank on an eigendirection; beta normalizes to 0, alpha to 1
    P = SymPencil.make(np.diag([1.0, 1.0]), np.diag([1.0, 0.0]))
    S = spectral_split(P)
    assert (1.0, 0.0) in S.real_pairs
    assert (1.0, 1.0) in S.real_pairs


def test_spectral_split_both_singular_uses_sum():
    P = SymPencil.make(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    S = spectral_split(P)
    got = sorted(S.real_pairs)
    pairs_close(got, [(0.0, 1.0), (1.0, 0.0)])


def test_spectral_split_degenerate_pencil_raises():
    # det(l1 A1 + l2 A2) vanishes identically; no member is invertible
    A1 = np.zeros((3, 3))
    A1[0, 1] = A1[1, 0] = 1.0
    A2 = np.zeros((3, 3))
    A2[0, 2] = A2[2, 0] = 1.0
    with pytest.raises(SingularA2):
        spectral_split(SymPencil.make(A1, A2))


def test_spectral_split_jordan_block_raises():
    A1 = np.array([[0.0, 0.0], [0.0, 1.0]])
    A2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(NotSemisimple):
        spectral_split(SymPencil.make(A1, A2))


def test_spectral_data_validation():
    with pytest.raises(ValueError):
        SpectralData(real_pairs=((0.0, 0.0),), complex_pairs=())
    with pytest.raises(ValueError):
        SpectralData(real_pairs=(), complex_pairs=((1.0, -2.0),))


def test_type_exact_matches_sampled_on_random_spectra():
    rng = np.random.default_rng(20)
    for _ in range(25):
        r = int(rng.integers(0, 5))
        s = int(rng.integers(0, 3))
        if r + 2 * s < 1:
            continue
        # well separated angles keep the sampling honest
        angles = np.sort(rng.uniform(0.0, 2 * np.pi, r))
        if r and np.min(np.diff(np.concatenate([angles, [angles[0]
                                                         + 2 * np.pi]]))) < 0.1:
            continue
        real = tuple((float(np.cos(t)), float(np.sin(t))) for t in angles)
        cplx = tuple((float(rng.uniform(-1, 1)), float(rng.uniform(0.5, 2.0)))
                     for _ in range(s))
        S = SpectralData(real_pairs=real, complex_pairs=cplx)
        P = build_from_spectral(S)
        assert type_exact(S) == type_sampled(P, samples=20000)


def test_type_exact_spec_on_known_configurations():
    # definite pencil: some member is negative definite, type 0
    S = SpectralData(real_pairs=((1.0, 0.2), (1.0, -0.2)), complex_pairs=())
    assert type_exact(S) == 0
    # complex pairs alone contribute s
    S = SpectralData(real_pairs=(), complex_pairs=((0.0, 1.0), (0.5, 2.0)))
    assert type_exact(S) == 2


def test_canonical_type_window_formula():
    C = CanonicalData(l=2, n=(1, 2, 1), s=1)
    assert canonical_type(C) == 1 + 1  # s + min n_j for l = 2
    C = CanonicalData(l=3, n=(1, 2, 1, 1, 2), s=0)
    # windows of length 2: 3, 3, 2, 3, 3 -> min 2
    assert canonical_type(C) == 2
    C = CanonicalData(l=1, n=(4,), s=2)
    assert canonical_type(C) == 2
    C = CanonicalData(l=0, n=(), s=3)
    assert canonical_type(C) == 3


@pytest.mark.parametrize("C", [
    CanonicalData(l=0, n=(), s=2),
    CanonicalData(l=1, n=(3,), s=1),
    CanonicalData(l=2, n=(1, 1, 2), s=0),
    CanonicalData(l=2, n=(2, 1, 1), s=1),
    CanonicalData(l=3, n=(1, 1, 1, 1, 1), s=0),
])
def test_canonical_round_trip_and_type(C):
    P = build_canonical(C)
    assert P.dim == C.dim
    S = spectral_split(P)
    assert canonical_from_spectral(S) == C
    assert type_exact(S) == canonical_type(C)
    assert type_sampled(P, samples=20000) == canonical_type(C)


def test_canonical_recognition_rejects_off_angle_data():
    S = SpectralData(real_pairs=((2.0, 1.0), (3.0, 1.0)), complex_pairs=())
    with pytest.raises(ValueError):
        canonical_from_spectral(S)
    # unit directions but at even count of distinct angles
    S = SpectralData(real_pairs=((1.0, 0.0), (-1.0, 0.0)), complex_pairs=())
    with pytest.raises(ValueError):
        canonical_from_spectral(S)


def canonical_angles(C):
    K = 2 * C.l - 1
    return [2 * np.pi * j / K for j, size in enumerate(C.n, start=1)
            for _ in range(size)]


def at_angles(angles, s=0, scales=None):
    scales = np.ones(len(angles)) if scales is None else scales
    return SpectralData(tuple((r * np.cos(t), r * np.sin(t))
                              for r, t in zip(scales, angles)),
                        ((0.0, 1.0),) * s)


@pytest.mark.parametrize("C", [CanonicalData(l=1, n=(3,), s=1),
                               CanonicalData(l=2, n=(1, 2, 2), s=0),
                               CanonicalData(l=3, n=(2, 1, 1, 1, 1), s=1)],
                         ids=str)
def test_canonical_recognition_accepts_angles_within_half_tol(C):
    tol = pencil_module.CANONICAL_ANGLE_TOL
    rng = np.random.default_rng(12)
    for _ in range(200):
        angles = canonical_angles(C)
        jitter = rng.uniform(-tol / 2, tol / 2, len(angles))
        S = at_angles(angles + jitter, C.s, rng.uniform(0.2, 5.0, len(angles)))
        assert canonical_from_spectral(S) == C


def test_canonical_recognition_places_each_angle():
    tol = pencil_module.CANONICAL_ANGLE_TOL
    third = 2 * np.pi / 3
    # three angles spread over 1.8 tol about one position, no gap wider
    # than tol: one direction, each angle within tol of it
    S = at_angles([third - 0.9 * tol, third, third + 0.9 * tol,
                   2 * third, 0.0])
    assert canonical_from_spectral(S) == CanonicalData(l=2, n=(3, 1, 1), s=0)
    # a lone angle 1.5 tol from its position is refused, not averaged in
    with pytest.raises(ValueError, match="not at a canonical position"):
        canonical_from_spectral(at_angles([third + 1.5 * tol, 2 * third,
                                           0.0]))
    # an angle just below 2 pi sits at position K, as 0 does
    S = at_angles([third, 2 * third, 0.0, 2 * np.pi - tol / 2])
    assert canonical_from_spectral(S) == CanonicalData(l=2, n=(1, 1, 2), s=0)


def test_canonical_validation():
    with pytest.raises(ValueError):
        CanonicalData(l=2, n=(1, 1), s=0)  # l=2 needs three block sizes
    with pytest.raises(ValueError):
        CanonicalData(l=1, n=(0,), s=1)
    with pytest.raises(ValueError):
        CanonicalData(l=0, n=(), s=0)


def test_topology_fixed_cases():
    lab = classify_topology(CanonicalData(l=0, n=(), s=3))
    assert lab.case == "UnitTangentBundleOfSphere"
    assert lab.spheres == (2,)
    assert lab.dimension() == 3

    lab = classify_topology(CanonicalData(l=1, n=(4,), s=1))
    assert lab.case == "ProductTwoSpheres"
    assert lab.spheres == (0, 3)
    assert lab.dimension() == 3

    lab = classify_topology(CanonicalData(l=2, n=(1, 2, 1), s=0))
    assert lab.case == "ProductThreeSpheres"
    assert lab.spheres == (0, 1, 0)
    assert lab.dimension() == 1
    assert "connected-sum" in lab.note

    lab = classify_topology(CanonicalData(l=2, n=(1, 1, 1), s=1))
    assert lab.case == "ConnectedSum"
    assert lab.spheres == ((1, 1), (1, 1), (1, 1))
    assert lab.dimension() == 2

    assert classify_topology(CanonicalData(l=0, n=(), s=1)).case == "Empty"
    assert classify_topology(CanonicalData(l=1, n=(2,), s=0)).case == "Empty"


def test_topology_dimension_rule():
    # every nonempty label has dimension N - 3, over all l <= 2, N <= 7
    configs = [CanonicalData(l=l, n=n, s=s) for l in range(3)
               for n in itertools.product(range(1, 8),
                                          repeat=2 * l - 1 if l else 0)
               for s in range(4) if (l or s) and sum(n) + 2 * s <= 7]
    assert len(configs) == 65
    for C in configs:
        lab = classify_topology(C)
        if lab.case == "Empty":
            assert lab.dimension() is None
        else:
            assert lab.dimension() == C.dim - 3, C


def test_genericity_on_generic_pencil():
    S = SpectralData(real_pairs=((1.0, 0.3), (-0.5, 1.0), (0.2, -1.0)),
                     complex_pairs=((0.4, 1.0),))
    rep = genericity_check(build_from_spectral(S))
    assert rep.det_not_identically_zero
    assert rep.semisimple
    assert rep.smooth_intersection
    assert rep.method == "spectral"


def test_genericity_flags_antipodal_pairs():
    S = SpectralData(real_pairs=((1.0, 1.0), (-1.0, -1.0)), complex_pairs=())
    rep = genericity_check(build_from_spectral(S))
    assert not rep.smooth_intersection


def jordan_pencil(N, seed):
    """A 2x2 Jordan block next to N - 2 real directions, mixed by a
    random congruence: no spectral split, so genericity_check samples."""
    rng = np.random.default_rng(seed)
    lam = rng.uniform(-1.0, 1.0)
    phis = np.linspace(0.4, 2.6, N - 2)
    A1 = np.zeros((N, N))
    A2 = np.zeros((N, N))
    A1[:2, :2] = [[0.0, lam], [lam, 1.0]]
    A2[:2, :2] = [[0.0, 1.0], [1.0, 0.0]]
    A1[2:, 2:] = np.diag(np.cos(phis))
    A2[2:, 2:] = np.diag(np.sin(phis))
    q, _ = np.linalg.qr(rng.standard_normal((N, N)))
    return congruent(SymPencil.make(A1, A2),
                     q @ np.diag(rng.uniform(0.8, 1.25, size=N)))


def test_genericity_sampled_report_is_frozen():
    # the sampled probe's located points and dependency minimum, pinned
    rep = genericity_check(jordan_pencil(5, 0), seed=0)
    assert (rep.method, rep.semisimple, rep.smooth_intersection) == (
        "sampled", False, True)
    assert rep.notes == (
        "spectral split failed: eigenvalue 0.273923 has multiplicity 2 but "
        "eigenspace dimension 1",
        "sampled dependency functional minimum 7.654e-02 over 32 located "
        "points")


def genericity_cases():
    rng = np.random.default_rng(23)
    for C in (CanonicalData(l=0, n=(), s=2), CanonicalData(l=1, n=(2,), s=1),
              CanonicalData(l=2, n=(1, 1, 2), s=0)):
        q, _ = np.linalg.qr(rng.standard_normal((C.dim, C.dim)))
        yield congruent(build_canonical(C), q)
    yield jordan_pencil(4, 1)
    yield jordan_pencil(6, 2)
    A1 = np.zeros((3, 3))
    A1[0, 1] = A1[1, 0] = 1.0
    A2 = np.zeros((3, 3))
    A2[0, 2] = A2[2, 0] = 1.0
    yield SymPencil.make(A1, A2)            # det vanishes identically
    yield SymPencil.make(np.diag([1.0, 0.0, 1.0]), np.diag([0.0, 1.0, -1.0]))
    yield SymPencil.make(np.diag([1.0, -1.0, 0.0]),
                         np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0],
                                   [0.0, 0.0, 0.0]]))   # a common kernel


def test_genericity_check_searches_the_probes_once(reference_searches):
    # genericity_check, spectral_split and pencil_type share one search per
    # pencil object, in either order, and a fresh equal pencil searches
    # again and reports the same
    calls = {"genericity": lambda P: genericity_check(P, seed=3),
             "split": spectral_split, "type": pencil_type}

    def reports(P, order):
        out = {}
        for name in order:
            try:
                out[name] = calls[name](P)
            except (NotSemisimple, SingularA2) as exc:
                out[name] = str(exc)
        return out

    for P in genericity_cases():
        reference_searches.clear()
        got = reports(P, ("genericity", "split", "type"))
        assert len(reference_searches) == 1 and reference_searches[0] is P
        Q = SymPencil.make(P.A1, P.A2)
        assert reports(Q, ("type", "split", "genericity")) == got
        assert len(reference_searches) == 2 and reference_searches[1] is Q


def test_type_sampled_runs_no_reference_search(reference_searches):
    # the search is lazy: a pencil that only reaches type_sampled skips it
    for P in genericity_cases():
        type_sampled(P, 64)
        assert "_reference" not in vars(P)
    assert reference_searches == []


def test_genericity_flags_degenerate_determinant():
    A1 = np.zeros((3, 3))
    A1[0, 1] = A1[1, 0] = 1.0
    A2 = np.zeros((3, 3))
    A2[0, 2] = A2[2, 0] = 1.0
    rep = genericity_check(SymPencil.make(A1, A2))
    assert rep.det_not_identically_zero is False
    assert rep.method == "sampled"
    rep = genericity_check(SymPencil.make(np.diag([2.0, 3.0]), np.eye(2)))
    assert rep.det_not_identically_zero is True


def test_reference_readers_refuse_a_zero_pencil(monkeypatch):
    # the reference search decides "zero" before any split or descent
    descents = []
    monkeypatch.setattr(pencil_module, "_single_descent",
                        lambda *a: descents.append(a))
    P = SymPencil.make(np.zeros((3, 3)), np.zeros((3, 3)))
    for routine in (spectral_split, genericity_check, pencil_type):
        with pytest.raises(ZeroPencil, match="both pencil matrices are zero"):
            routine(P)
    assert descents == []


def clifford_pencil():
    A1 = np.diag([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
    A2 = np.zeros((6, 6))
    for i in range(3):
        A2[i, i + 3] = A2[i + 3, i] = 1.0
    return A1, A2


def test_common_zero_on_quadrics_only():
    A1, A2 = clifford_pencil()
    zeros = np.zeros((6, 6, 6))
    x = common_zero_search(A1, A2, zeros, zeros, budget=8, seed=0)
    assert x is not None
    vals = _residuals(A1, A2, zeros, zeros, x)
    assert float(vals @ vals) <= 1e-16
    assert abs(np.linalg.norm(x) - 1.0) <= 1e-12


def test_common_zero_with_random_cubics():
    rng = np.random.default_rng(30)
    A1, A2 = clifford_pencil()
    T1 = 0.5 * rng.standard_normal((6, 6, 6))
    T2 = 0.5 * rng.standard_normal((6, 6, 6))
    x = common_zero_search(A1, A2, T1, T2, budget=32, seed=1)
    assert x is not None
    # the search symmetrizes the cubics; measure against the same reading
    vals = _residuals(A1, A2, T1, T2, x)
    assert float(vals @ vals) <= 1e-16


def test_common_zero_deterministic():
    A1, A2 = clifford_pencil()
    zeros = np.zeros((6, 6, 6))
    x1 = common_zero_search(A1, A2, zeros, zeros, budget=8, seed=7)
    x2 = common_zero_search(A1, A2, zeros, zeros, budget=8, seed=7)
    assert np.array_equal(x1, x2)


def test_common_zero_not_found_on_empty_intersection():
    # phi1 = |x|^2 never vanishes on the sphere
    A1 = np.eye(3)
    A2 = np.diag([1.0, 2.0, 3.0])
    zeros = np.zeros((3, 3, 3))
    assert common_zero_search(A1, A2, zeros, zeros, budget=6, seed=0) is None


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["psi1", "psi2"])
def test_common_zero_rejects_non_finite_cubics(name, bad):
    A1, A2 = clifford_pencil()
    cubics = {"psi1": np.zeros((6, 6, 6)), "psi2": np.zeros((6, 6, 6))}
    cubics[name][0, 1, 2] = bad
    with pytest.raises(ValueError, match=f"{name} has non-finite entries"):
        common_zero_search(A1, A2, cubics["psi1"], cubics["psi2"], budget=2)


@pytest.mark.parametrize("name", ["psi1", "psi2"])
def test_common_zero_rejects_cubics_of_another_dimension(name):
    A1 = np.diag([1.0, -1.0, 0.0])
    A2 = np.diag([0.0, 1.0, -1.0])
    cubics = {"psi1": np.zeros((3, 3, 3)), "psi2": np.zeros((3, 3, 3))}
    cubics[name] = np.ones((4, 4, 4))
    with pytest.raises(ValueError, match=rf"{name} must have shape \(3, 3, 3"):
        common_zero_search(A1, A2, cubics["psi1"], cubics["psi2"], budget=2)


def test_common_zero_rejects_quadrics_of_different_dimensions():
    zeros = np.zeros((3, 3, 3))
    with pytest.raises(ValueError, match="same dimension"):
        common_zero_search(np.eye(3), np.eye(4), zeros, zeros, budget=2)


@pytest.mark.parametrize("C", [CanonicalData(l=1, n=(2,), s=2),
                               CanonicalData(l=2, n=(1, 1, 1), s=1),
                               CanonicalData(l=3, n=(1, 1, 1, 1, 1), s=0)],
                         ids=str)
def test_common_zero_found_below_type_three(C):
    # C7 covers s = 3 only; these canonical pencils have type 1, 2 and 2
    pen = build_canonical(C)
    rng = np.random.default_rng(0)
    T1 = rng.uniform(-1.0, 1.0, size=(C.dim,) * 3)
    T2 = rng.uniform(-1.0, 1.0, size=(C.dim,) * 3)
    x = common_zero_search(pen.A1, pen.A2, T1, T2, seed=0)
    assert x is not None
    assert float(np.linalg.norm(_residuals(pen.A1, pen.A2, T1, T2, x))) <= 1e-8


def test_pencil_type_reports_its_method():
    # every nonzero member of this pencil has inertia (1, 1)
    hyperbolic = SymPencil.make(np.diag([1.0, -1.0]),
                                np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert pencil_type(hyperbolic) == 1
    # nilpotent B^-1 C: not semisimple, and the same sweep answers
    jordan = SymPencil.make(np.diag([1.0, 0.0]),
                            np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert pencil_type(jordan) == type_sampled(jordan) == 1
    with pytest.raises(ZeroPencil):
        pencil_type(SymPencil.make(np.zeros((2, 2)), np.zeros((2, 2))))


def narrow_arc_pencil():
    """Four real directions; two are antipodal up to 1e-4, so the only
    negative definite members sit on an arc 1e-4 wide."""
    phi = np.array([4.05, 2.33, 3.14, 4.05 + np.pi + 1e-4])
    return SymPencil.make(np.diag(np.cos(phi)), np.diag(np.sin(phi)))


def test_pencil_type_finds_a_narrow_arc():
    P = narrow_arc_pencil()
    with pytest.raises(NotSemisimple):
        spectral_split(P)
    assert type_sampled(P) == 1  # 10^4 samples step over the arc
    assert pencil_type(P) == 0 == type_sampled(P, 10**6)


def test_pencil_type_on_singular_pencils():
    # A2, A1 and A1 + A2 are all singular, det is not identically zero
    P = SymPencil.make(np.diag([1.0, 0.0, 1.0]), np.diag([0.0, 1.0, -1.0]))
    assert pencil_type(P) == 0 == type_sampled(P)
    # the split inverts a member at another angle of the half circle
    pairs_close(sorted(spectral_split(P).real_pairs),
                [(0.0, 1.0), (1.0, -1.0), (1.0, 0.0)])
    # det vanishes identically and the forms have no common kernel: every
    # nonzero member has inertia (1, 1)
    A1 = np.zeros((3, 3))
    A1[0, 1] = A1[1, 0] = 1.0
    A2 = np.zeros((3, 3))
    A2[0, 2] = A2[2, 0] = 1.0
    P = SymPencil.make(A1, A2)
    assert pencil_type(P) == 1 == type_sampled(P)
    # a common kernel next to a hyperbolic pair
    P = SymPencil.make(np.diag([1.0, -1.0, 0.0]),
                       np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0],
                                 [0.0, 0.0, 0.0]]))
    assert pencil_type(P) == 1


def test_pencil_type_on_jordan_pencils_matches_the_regular_part():
    rng = np.random.default_rng(12)
    for _ in range(20):
        N = int(rng.integers(3, 8))
        blocks = int(rng.integers(1, N // 2 + 1))
        r = N - 2 * blocks
        phis = rng.uniform(0.0, 2 * np.pi, size=r)
        A1 = np.zeros((N, N))
        A2 = np.zeros((N, N))
        for k in range(blocks):
            # 2x2 Jordan block A1 = E J, A2 = E (E the exchange matrix)
            lam = rng.uniform(-1.0, 1.0)
            j = 2 * k
            A1[j:j + 2, j:j + 2] = [[0.0, lam], [lam, 1.0]]
            A2[j:j + 2, j:j + 2] = [[0.0, 1.0], [1.0, 0.0]]
        A1[2 * blocks:, 2 * blocks:] = np.diag(np.cos(phis))
        A2[2 * blocks:, 2 * blocks:] = np.diag(np.sin(phis))
        T = np.eye(N) + 0.3 * rng.standard_normal((N, N))
        P = congruent(SymPencil.make(A1, A2), T)
        # a Jordan block has inertia (1, 1) on every member of full rank,
        # like a complex pair
        regular = SpectralData(
            tuple((np.cos(f), np.sin(f)) for f in phis),
            ((0.0, 1.0),) * blocks)
        assert pencil_type(P) == type_exact(regular)


def test_pencil_type_matches_the_spectral_route():
    rng = np.random.default_rng(21)
    for _ in range(40):
        N = int(rng.integers(2, 7))
        s = int(rng.integers(0, N // 2 + 1))
        S = SpectralData(
            tuple((np.cos(f), np.sin(f))
                  for f in rng.uniform(0.0, 2 * np.pi, N - 2 * s)),
            tuple((rng.uniform(-1, 1), rng.uniform(0.5, 2.0))
                  for _ in range(s)))
        P = congruent(build_from_spectral(S),
                      np.eye(N) + 0.3 * rng.standard_normal((N, N)))
        assert pencil_type(P) == type_exact(S)


def test_max_rank_inertia_keeps_only_maximal_rank_members():
    members = np.stack([np.diag([1.0, -1.0, 0.0]), np.diag([2.0, 0.0, 0.0]),
                        np.diag([-1.0, -1.0, 0.0])])
    pos, neg = max_rank_inertia(members)
    assert pos.tolist() == [1, 0] and neg.tolist() == [1, 2]


# -- screened inertia counts --------------------------------------------------


def eigvalsh_counts(members, tol=EIG_TOL):
    """Per-member inertia counts straight from eigvalsh and the threshold."""
    evals = np.linalg.eigvalsh(members)
    tol = tol * (1.0 + np.abs(evals).max(axis=1, keepdims=True))
    return (evals > tol).sum(axis=1), (evals < -tol).sum(axis=1)


def half_circle(A1, A2, samples=10000):
    th = np.linspace(0.0, np.pi, samples, endpoint=False)[:, None, None]
    return np.cos(th) * A1 + np.sin(th) * A2


def random_sym(rng, N):
    M = rng.standard_normal((N, N))
    return M + M.T


def near_threshold_members(rng, count, sign):
    """diag(3) next to a rotated 3x3 block with an eigenvalue at the
    threshold tol * (1 + 3), give or take a few ulps: the spectral radius
    is exactly max |d_i| = 3, so the threshold sits on the edge of the
    bracket, and the Gershgorin bound of the block often exceeds 3."""
    tau = EIG_TOL * (1.0 + 3.0)
    out = np.zeros((count, 4, 4))
    out[:, 0, 0] = 3.0
    for k in range(count):
        R = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        lam = tau * (1.0 + int(rng.integers(-4, 5)) * 2.0 ** -52)
        ev = [lam, *rng.uniform(-2.95, 2.95, 2)]
        out[k, 1:, 1:] = sign * (R @ np.diag(ev) @ R.T)
    return out


def screen_corpus():
    """(name, members, circle): circle is (A1, A2, samples) when the
    members are ``half_circle(A1, A2, samples)``, else None."""
    rng = np.random.default_rng(131)
    for N in range(1, 9):
        circle = (random_sym(rng, N), random_sym(rng, N), 10000)
        yield f"random N={N}", half_circle(*circle), circle
    # point_type's normal forms of p = 3 germs sharing the kernel e1: every
    # member has an exact zero eigenvalue
    for n in (3, 4):
        d2 = np.zeros((3, n, n))
        d2[:, 1:, 1:] = [random_sym(rng, n - 1) for _ in range(3)]
        normals = rng.standard_normal((10000, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        yield (f"kernel germ n={n}", np.einsum("sa,aij->sij", normals, d2),
               None)
    # a 2x2 Jordan block next to three real directions, congruently moved
    phis = rng.uniform(0.0, 2.0 * np.pi, 3)
    A1 = np.zeros((5, 5))
    A2 = np.zeros((5, 5))
    A1[:2, :2] = [[0.0, 0.3], [0.3, 1.0]]
    A2[:2, :2] = [[0.0, 1.0], [1.0, 0.0]]
    A1[2:, 2:] = np.diag(np.cos(phis))
    A2[2:, 2:] = np.diag(np.sin(phis))
    M = np.eye(5) + 0.3 * rng.standard_normal((5, 5))
    circle = (M.T @ A1 @ M, M.T @ A2 @ M, 10000)
    yield "jordan", half_circle(*circle), circle
    # the member at angle 0 is the singular A1 itself; the second pencil
    # has a common kernel, so every member is exactly singular; zero member
    circle = (np.diag([1.0, 0.0, -2.0, 0.5]), random_sym(rng, 4), 10000)
    yield "singular on the grid", half_circle(*circle), circle
    A1 = np.zeros((4, 4))
    A2 = np.zeros((4, 4))
    A1[:3, :3] = random_sym(rng, 3)
    A2[:3, :3] = random_sym(rng, 3)
    members = half_circle(A1, A2, 3000)
    members[1500] = 0.0
    yield "common kernel and a zero member", members, None
    for sign in (1.0, -1.0):
        yield (f"near threshold {sign:+}",
               near_threshold_members(rng, 400, sign), None)


@pytest.mark.parametrize("members", [pytest.param(members, id=name)
                                     for name, members, _ in screen_corpus()])
def test_screened_counts_equal_eigvalsh_counts(members):
    assert len(members) >= pencil_module.SCREEN_MIN_MEMBERS
    pos, neg = _inertia_counts(members)
    want_pos, want_neg = eigvalsh_counts(members)
    assert np.array_equal(pos, want_pos)
    assert np.array_equal(neg, want_neg)


def test_only_members_near_the_threshold_take_eigvalsh(monkeypatch):
    rng = np.random.default_rng(17)
    members = half_circle(random_sym(rng, 4), random_sym(rng, 4), 300)
    planted = near_threshold_members(rng, 1, 1.0)[0]
    members[123] = planted
    seen = []
    real = pencil_module._eigvalsh_counts

    def spy(stack):
        seen.append(stack.copy())
        return real(stack)

    monkeypatch.setattr(pencil_module, "_eigvalsh_counts", spy)
    pos, neg = _inertia_counts(members)
    assert len(seen) == 1 and np.array_equal(seen[0], planted[None])
    want_pos, want_neg = eigvalsh_counts(members)
    assert np.array_equal(pos, want_pos) and np.array_equal(neg, want_neg)
    # below the crossover the whole stack takes eigvalsh
    seen.clear()
    _inertia_counts(members[:pencil_module.SCREEN_MIN_MEMBERS - 1])
    assert [len(s) for s in seen] == [pencil_module.SCREEN_MIN_MEMBERS - 1]


# -- certified half-circle counts ---------------------------------------------


def assert_circle_counts(A1, A2, samples):
    """_circle_counts equals eigvalsh and the threshold member for member
    on the half circle of ``samples`` angles; returns the pencil."""
    P = SymPencil.make(A1, A2)
    th = np.linspace(0.0, np.pi, samples, endpoint=False)
    pos, neg = _circle_counts(P, th)
    # 10^5 members per reference pass keep the 10^6-sample arc's stack small
    for start in range(0, samples, 100000):
        window = slice(start, start + 100000)
        want_pos, want_neg = eigvalsh_counts(
            np.cos(th[window, None, None]) * P.A1
            + np.sin(th[window, None, None]) * P.A2)
        assert np.array_equal(pos[window], want_pos)
        assert np.array_equal(neg[window], want_neg)
    return P


@pytest.mark.parametrize("circle", [
    pytest.param(circle, id=name) for name, _, circle in screen_corpus()
    if circle is not None])
def test_circle_counts_equal_eigvalsh_counts(circle):
    assert_circle_counts(*circle)


@pytest.mark.parametrize("samples", [10000, 10**6])
def test_circle_counts_on_the_narrow_arc(samples):
    # the blocks around the 1e-4 arc open; test_pencil_type_finds_a_narrow_arc
    # checks the answers, 1 and 0
    P = narrow_arc_pencil()
    assert_circle_counts(P.A1, P.A2, samples)


@pytest.fixture
def inertia_stacks(monkeypatch):
    """The stacks that reach ``_inertia_counts``, one entry a call."""
    real = pencil_module._inertia_counts
    seen = []

    def spy(members):
        seen.append(members.copy())
        return real(members)

    monkeypatch.setattr(pencil_module, "_inertia_counts", spy)
    return seen


def test_complex_pairs_certify_every_block(inertia_stacks):
    # every nonzero member has inertia (s, s), well clear of the threshold:
    # the anchors decide the whole half circle
    rng = np.random.default_rng(41)
    S = SpectralData((), ((0.3, 1.0), (-0.5, 0.7), (0.1, 1.6)))
    P = congruent(build_from_spectral(S),
                  np.eye(6) + 0.3 * rng.standard_normal((6, 6)))
    assert type_sampled(P) == 3
    assert inertia_stacks == []
    assert_circle_counts(P.A1, P.A2, 10000)
    assert inertia_stacks == []


def test_common_kernel_opens_every_block(inertia_stacks):
    # every member is exactly singular, so no anchor clears the threshold
    rng = np.random.default_rng(43)
    A1 = np.zeros((4, 4))
    A2 = np.zeros((4, 4))
    A1[1:, 1:] = random_sym(rng, 3)
    A2[1:, 1:] = random_sym(rng, 3)
    P = assert_circle_counts(A1, A2, 3000)
    assert len(inertia_stacks) == 1
    assert np.array_equal(inertia_stacks[0], half_circle(P.A1, P.A2, 3000))


@settings(max_examples=150, deadline=None)
@given(N=st.integers(1, 8), samples=st.integers(8, 5000),
       kind=st.sampled_from(["random", "kernel", "rank one", "integer"]),
       log_scale=st.floats(-200.0, 200.0), seed=st.integers(0, 2 ** 32 - 1))
# entries near 1e154 overflowed the screen's reflector norms
@example(N=3, samples=128, kind="random", log_scale=153.5, seed=0)
def test_circle_counts_property(N, samples, kind, log_scale, seed):
    rng = np.random.default_rng(seed)
    if kind == "integer":
        A1, A2 = (np.triu(rng.integers(-3, 4, (N, N))) for _ in range(2))
        A1, A2 = (M + np.triu(M, 1).T for M in (A1, A2))
    else:
        A1, A2 = random_sym(rng, N), random_sym(rng, N)
    if kind == "kernel":
        A1[0] = A1[:, 0] = A2[0] = A2[:, 0] = 0.0
    elif kind == "rank one":
        v = rng.standard_normal(N)
        A2 = np.outer(v, v)
    scale = 10.0 ** log_scale
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert_circle_counts(scale * A1, scale * A2, samples)


def test_consecutive_splits_of_one_pencil_share_one_computation(
        monkeypatch):
    splits = []
    real = pencil_module._split

    def spy(P):
        splits.append(P)
        return real(P)

    monkeypatch.setattr(pencil_module, "_split", spy)
    P = congruent(build_canonical(CanonicalData(l=2, n=(1, 2, 1), s=1)),
                  np.eye(6) + 0.1 * np.ones((6, 6)))
    assert genericity_check(P).method == "spectral"
    assert spectral_split(P) is spectral_split(P)
    assert list(map(id, splits)) == [id(P)]
    # a failure is not kept: each call splits again and raises again
    jordan = SymPencil.make(np.diag([1.0, 0.0]),
                            np.array([[0.0, 1.0], [1.0, 0.0]]))
    for _ in range(2):
        with pytest.raises(NotSemisimple):
            spectral_split(jordan)
    assert list(map(id, splits)) == list(map(id, [P, jordan, jordan]))
    # the failures left P's split in the one slot; an equal pencil object
    # splits again and replaces it
    assert spectral_split(P) is spectral_split(P)
    Q = SymPencil.make(P.A1, P.A2)
    assert spectral_split(Q) == spectral_split(P)
    assert list(map(id, splits)) == list(map(id, [P, jordan, jordan, Q, P]))
