"""Acceptance gate: nine binding criteria, one verdict line each.

Every test registers an ``ACCEPTANCE Ck: PASS|FAIL`` line (replayed in the
terminal summary by conftest), then asserts.  Tolerances and budgets are
pinned here on purpose; loosening them is not a fix.
"""

import itertools
import time

import numpy as np

import conftest
from conftest import random_germ, random_randers
from minksub import invariants
from minksub import pencil as pc
from minksub.curvature import ricci_expanded, ricci_oracle, zeta_check
from minksub.example import find_example_params, verify_example
from minksub.germ import Germ, adapt_germ, sym3, transform_germ
from minksub.invariants import (audit_codim2, audit_hypersurface, audit_ruled,
                                point_invariants)
from minksub.minkowski import NormModel, validate_norm
from reference import canonical_type

QUARTIC = ("(y1^2 + y2^2 + y3^2) / 2"
           " + (y1^4 - 2*y1^2*y2^2 + y3^4) / (y1^2 + y2^2 + y3^2) / 20")


def verdict(k: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE C{k}: {'PASS' if ok else 'FAIL'} - {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def unit(rng, n):
    u = rng.standard_normal(n)
    return u / np.linalg.norm(u)


def test_criterion_1_euclidean_reduction():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 5))
        p = int(rng.integers(1, 3))
        norm = NormModel.euclidean(n + p)
        germ = random_germ(rng, n, p)
        u = unit(rng, n)
        got = ricci_expanded(norm, germ, u).Ric
        want = sum(np.trace(A) * k - float((A @ u) @ (A @ u))
                   for A, k in zip(germ.d2, germ.kappa(u)))
        worst = max(worst, abs(got - want) / (1.0 + abs(want)))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    verdict(1, ok, f"50 flat germs, worst rel {worst:.2e}, {elapsed:.2f}s "
                   "(tol 1e-10, cap 5s)")


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(102)
    t0 = time.monotonic()
    worst_jet = 0.0
    worst_fd = 0.0
    shapes = [(2, 1), (3, 1), (2, 2)]
    for k in range(100):
        n, p = shapes[k % 3]
        norm = random_randers(rng, n + p)
        germ = random_germ(rng, n, p, scale=0.8)
        u = unit(rng, n)
        ric = ricci_expanded(norm, germ, u).Ric
        jet = ricci_oracle(norm, germ, u, scheme="jet")
        fd = ricci_oracle(norm, germ, u, scheme="finite_difference")
        worst_jet = max(worst_jet, abs(ric - jet) / (1.0 + abs(ric)))
        worst_fd = max(worst_fd, abs(ric - fd))
    elapsed = time.monotonic() - t0
    ok = worst_jet <= 1e-9 and worst_fd <= 1e-5 and elapsed < 60.0
    verdict(2, ok, f"100 randers triples, jet {worst_jet:.2e} (tol 1e-9), "
                   f"fd {worst_fd:.2e} (tol 1e-5), {elapsed:.2f}s (cap 60s)")


def test_criterion_3_zeta_positive_and_det_ratio():
    rng = np.random.default_rng(103)
    checks = 0
    min_eig = np.inf
    worst_ratio = 0.0
    norms3 = [NormModel.euclidean(3), random_randers(rng, 3),
              NormModel.example4(10.0, 10.0, 0.1, 0.1),
              NormModel.expression(QUARTIC, 3)]
    while checks < 200:
        if checks % 5 == 4:
            norm = random_randers(rng, 4)
            germ = random_germ(rng, 2, 2, scale=0.8)
            u = unit(rng, 2)
            zeta, ratio = zeta_check(norm, germ, u)
            assert ratio is None
        else:
            norm = norms3[checks % 4]
            germ = random_germ(rng, 2, 1, scale=0.8)
            u = unit(rng, 2)
            zeta, ratio = zeta_check(norm, germ, u)
            worst_ratio = max(worst_ratio, abs(ratio))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(zeta).min()))
        checks += 1
    ok = min_eig > 0.0 and worst_ratio <= 1e-10
    verdict(3, ok, f"200 checks, min zeta eigenvalue {min_eig:.3e} > 0, "
                   f"codim-1 det-ratio residual {worst_ratio:.2e} "
                   "(tol 1e-10)")


def test_criterion_4_surface_example():
    t0 = time.monotonic()
    params = find_example_params(729)
    rep = verify_example(params, grid=720)
    elapsed = time.monotonic() - t0
    ok = (rep.verdict == "SUCCESS"
          and rep.gauss_det == -params.eps3 and rep.gauss_det < 0.0
          and rep.min_ric > 0.0
          and rep.max_rel_discrepancy <= 1e-6
          and elapsed < 300.0)
    verdict(4, ok, f"params {params.to_dict()}, det {rep.gauss_det} exact, "
                   f"min Ric {rep.min_ric:.6g} > 0 on {len(rep.angles)} "
                   f"angles, closed-vs-pipeline {rep.max_rel_discrepancy:.2e}"
                   f" (tol 1e-6), {elapsed:.1f}s (cap 300s)")


def _canonical_cases(max_block, max_s, max_l, max_dim=None):
    for l in range(max_l + 1):
        blocks = 2 * l - 1 if l else 0
        top = max_block
        if max_dim is not None:
            # the other blocks take at least 1 each
            top = min(max_block, max_dim - blocks + 1)
        for n in itertools.product(range(1, top + 1), repeat=blocks):
            for s in range(max_s + 1):
                if l == 0 and s == 0:
                    continue
                if max_dim is None or sum(n) + 2 * s <= max_dim:
                    yield pc.CanonicalData(l=l, n=n, s=s)


def test_criterion_5_pencil_type():
    t0 = time.monotonic()
    cases = 0
    for C in _canonical_cases(max_block=3, max_s=3, max_l=3):
        pen = pc.build_canonical(C)
        expected = canonical_type(C)
        assert pc.type_exact(pc.spectral_split(pen)) == expected, C
        # the route that invariants, the audits and `pencil type` run
        assert pc.pencil_type(pen) == expected, C
        cases += 1

    rng = np.random.default_rng(105)
    agree = routed = 0
    for _ in range(500):
        N = int(rng.integers(3, 9))
        s = int(rng.integers(0, N // 2 + 1))
        r = N - 2 * s
        while True:
            phis = np.sort(rng.uniform(0.0, 2 * np.pi, size=r))
            if r == 0:
                break
            # distinct generalized eigenvalues need separation mod pi
            # (antipodal rays are the degenerate case), and the split's
            # reference members go singular at 0, pi/2 and 3pi/4
            folded = np.sort(phis % np.pi)
            gaps = np.diff(np.concatenate([folded, [folded[0] + np.pi]]))
            clear = min(abs(folded - a).min()
                        for a in (0.0, np.pi / 2, 3 * np.pi / 4, np.pi))
            if gaps.min() > 0.1 and clear > 0.02:
                break
        spec = pc.SpectralData(
            real_pairs=tuple((np.cos(f), np.sin(f)) for f in phis),
            complex_pairs=tuple((rng.uniform(0.1, 0.9),
                                 rng.uniform(0.5, 2.0)) for _ in range(s)))
        pen = pc.build_from_spectral(spec)
        q, _ = np.linalg.qr(rng.standard_normal((N, N)))
        M = q @ np.diag(rng.uniform(0.8, 1.25, size=N))
        pen = pc.SymPencil.make(M.T @ pen.A1 @ M, M.T @ pen.A2 @ M)
        t_exact = pc.type_exact(pc.spectral_split(pen))
        agree += t_exact == pc.type_sampled(pen, 10000)
        routed += t_exact == pc.pencil_type(pen)
    elapsed = time.monotonic() - t0
    ok = agree == routed == 500 and elapsed < 120.0
    verdict(5, ok, f"{cases} canonical configs match s + min window sum "
                   f"(type_exact and pencil_type); exact vs sampled(1e4) "
                   f"agreement {agree}/500, vs pencil_type {routed}/500, "
                   f"{elapsed:.1f}s (cap 120s)")


def test_criterion_6_topology_labels():
    known = {
        (0, (), 3): ("UnitTangentBundleOfSphere", (2,)),
        (0, (), 1): ("Empty", ()),
        (1, (2,), 0): ("Empty", ()),
        (1, (2,), 2): ("ProductTwoSpheres", (1, 2)),
        (2, (1, 1, 1), 0): ("ProductThreeSpheres", (0, 0, 0)),
    }
    cases = 0
    for C in _canonical_cases(max_block=7, max_s=3, max_l=4, max_dim=7):
        assert C.dim <= 7, C
        label = pc.classify_topology(C)
        assert label.case in ("Empty", "UnitTangentBundleOfSphere",
                              "ProductTwoSpheres", "ProductThreeSpheres",
                              "ConnectedSum"), C
        key = (C.l, C.n, C.s)
        if key in known:
            assert (label.case, label.spheres) == known[key], C
        if label.case != "Empty":
            assert label.dimension() == C.dim - 3, (C, label)
            if label.case == "ConnectedSum":
                for piece in label.spheres:
                    assert sum(piece) == C.dim - 3, (C, label)
        cases += 1
    # l = 0: 3, l = 1: 16, l = 2: 46, l = 3: 22, l = 4: 1
    verdict(6, cases == 88,
            f"{cases}/88 configurations with N <= 7 all labeled, every "
            "nonempty label has dimension N - 3")


def test_criterion_7_common_zero_harness():
    rng = np.random.default_rng(107)
    pen = pc.build_canonical(pc.CanonicalData(l=0, n=(), s=3))
    assert pc.type_exact(pc.spectral_split(pen)) == 3
    found = 0
    worst = 0.0
    for k in range(50):
        T1 = rng.uniform(-1.0, 1.0, size=(6, 6, 6))
        T2 = rng.uniform(-1.0, 1.0, size=(6, 6, 6))
        point = pc.common_zero_search(pen.A1, pen.A2, T1, T2, seed=k)
        if point is None:
            continue
        vals = pc._residuals(pen.A1, pen.A2, T1, T2, point)
        worst = max(worst, float(np.sqrt(vals @ vals)))
        found += 1
    ok = found == 50 and worst <= 1e-8
    verdict(7, ok, f"{found}/50 type-3 instances solved, worst residual "
                   f"{worst:.2e} (tol 1e-8), 0 NotFound")


def test_criterion_8_homogeneity_and_invariance():
    rng = np.random.default_rng(108)
    euler = 0.0
    for norm, frac in ((NormModel.euclidean(3), 0.0),
                       (random_randers(rng, 3), 0.0),
                       (random_randers(rng, 4), 0.0),
                       (NormModel.example4(10.0, 10.0, 0.1, 0.1), 0.5),
                       (NormModel.expression(QUARTIC, 3), 0.0)):
        rep = validate_norm(norm, samples=200, seed=0,
                            min_axis_fraction=frac)
        assert rep.valid
        euler = max(euler, rep.max_euler_degree_residual,
                    rep.max_euler_gradient_residual)

    worst_h = 0.0
    for _ in range(25):
        n, p = (2, 1) if rng.uniform() < 0.5 else (2, 2)
        norm = random_randers(rng, n + p)
        germ = random_germ(rng, n, p, scale=0.8)
        u = unit(rng, n)
        lam = rng.uniform(0.3, 3.0)
        r1 = ricci_expanded(norm, germ, u).Ric
        r2 = ricci_expanded(norm, germ, lam * u).Ric
        worst_h = max(worst_h, abs(r2 - lam ** 2 * r1)
                      / (1.0 + abs(lam ** 2 * r1)))

    mismatches = 0
    for k in range(100):
        n, p = [(2, 1), (3, 1), (2, 2), (3, 2)][k % 4]
        if k % 3 == 0:
            # plant a common kernel direction: invariants must see mu >= 1
            w = np.zeros((n, n - 1))
            w[1:, :] = np.eye(n - 1)
            cores = rng.standard_normal((p, n - 1, n - 1))
            d2 = np.einsum("iu,puv,jv->pij", w, cores + cores.swapaxes(1, 2),
                           w)
            germ = Germ.make(n, p, d2, np.zeros((p, n, n, n)))
        else:
            germ = random_germ(rng, n, p)
        base = point_invariants(germ)
        T = np.eye(n + p) + 0.3 * rng.standard_normal((n + p, n + p))
        moved, _ = adapt_germ(*transform_germ(germ, T))
        img = point_invariants(moved)
        same = (base.mu == img.mu
                and base.type_t == img.type_t
                and base.null_basis.shape == img.null_basis.shape)
        mismatches += not same
    ok = euler <= 1e-9 and worst_h <= 1e-10 and mismatches == 0
    verdict(8, ok, f"euler residual {euler:.2e} (tol 1e-9), homogeneity "
                   f"{worst_h:.2e} (tol 1e-10), mu/type/dim-L mismatches "
                   f"{mismatches}/100 ambient changes")


def _ruled_germ(rng, n, p, escape):
    """Germ ruled along e1; ``escape`` keeps e1 out of the nullity space."""
    d2 = rng.standard_normal((p, n, n))
    d2 = 0.5 * (d2 + d2.swapaxes(1, 2))
    d3 = sym3(rng.standard_normal((p, n, n, n)))
    d2[:, 0, 0] = 0.0
    d3[:, 0, 0, 0] = 0.0
    if not escape:
        d2[:, 0, :] = 0.0
        d2[:, :, 0] = 0.0
    return Germ.make(n, p, d2, d3)


def test_criterion_9_auditors():
    rng = np.random.default_rng(109)
    bad = []

    for k in range(200):
        n = 2 if k % 2 else 3
        norm = random_randers(rng, n + 1) if k % 3 else \
            NormModel.euclidean(n + 1)
        if k % 4 == 0:
            m = rng.standard_normal((n, max(1, n - 1)))
            sign = 1.0 if k % 8 else -1.0
            d2 = (sign * m @ m.T)[None]
            germ = Germ.make(n, 1, d2,
                             0.4 * sym3(rng.standard_normal((1, n, n, n))))
        else:
            germ = random_germ(rng, n, 1)
        rep = audit_hypersurface(norm, germ, grid=72 if n == 2 else 256)
        if rep.verdict != "CONSISTENT":
            bad.append(("hyper", k, rep.notes))

    for k in range(200):
        n = 2 if k % 2 else 3
        norm = random_randers(rng, n + 2) if k % 3 else \
            NormModel.euclidean(n + 2)
        germ = random_germ(rng, n, 2)
        rep = audit_codim2(norm, germ, grid=72 if n == 2 else 256)
        if rep.verdict != "CONSISTENT":
            bad.append(("codim2", k, rep.notes))

    for k in range(200):
        n, p = [(2, 1), (3, 1), (3, 2)][k % 3]
        norm = random_randers(rng, n + p) if k % 3 else \
            NormModel.euclidean(n + p)
        germ = _ruled_germ(rng, n, p, escape=k % 2 == 0)
        u = np.zeros(n)
        u[0] = 1.0
        rep = audit_ruled(norm, germ, u)
        if rep.verdict != "CONSISTENT":
            bad.append(("ruled", k, rep.notes))

    ok = not bad
    verdict(9, ok, "hypersurface, codim-2 and ruled auditors CONSISTENT on "
                   f"200 randomized valid inputs each; violations: {bad[:3]}")


def _decisive_audit_cases():
    """Germs where the audits' verdict depends on Ric: t(P) = 2 for the
    hypersurfaces (planted signatures (2, 2) at n = 4, (2, 3) and (3, 2) at
    n = 5) and t(P) = 3 at n = 6, p = 2 (three complex pairs under a random
    orthogonal congruence), each under a euclidean and a randers norm.
    C9's dimensions n <= 3 cannot tell: there t <= 1 for p = 1 and t <= 2
    for p = 2 whatever Ric is."""
    rng = np.random.default_rng(114)
    three_pairs = pc.build_canonical(pc.CanonicalData(l=0, n=(), s=3))
    cases = []
    for (n, p), k in itertools.product(((4, 1), (5, 1), (6, 2)), range(4)):
        norm = random_randers(rng, n + p) if k % 2 else \
            NormModel.euclidean(n + p)
        V = np.linalg.qr(rng.standard_normal((n, n)))[0]
        if p == 1:
            signs = np.where(np.arange(n) < 2 + (n == 5) * (k > 1), 1.0, -1.0)
            forms = [(V * (signs * rng.uniform(0.5, 2.0, n))) @ V.T]
        else:
            forms = [V.T @ A @ V for A in (three_pairs.A1, three_pairs.A2)]
        d3 = 0.3 * sym3(rng.standard_normal((p, n, n, n)))
        cases.append((norm, Germ.make(n, p, np.array(forms), d3),
                      2 if p == 1 else 3, 512 if p == 1 else 1024))
    return cases


def test_auditors_can_fail(monkeypatch):
    cases = _decisive_audit_cases()
    for norm, germ, t, grid in cases:
        audit = audit_hypersurface if germ.p == 1 else audit_codim2
        rep = audit(norm, germ, grid=grid)
        assert rep.type_t == t
        assert rep.min_ric < -0.1
        assert rep.verdict == "CONSISTENT", rep.notes
    # the control: were Ric nonnegative on the grid, each would violate
    monkeypatch.setattr(invariants, "_grid_min_ric",
                        lambda norm, germ, grid: (1.0, np.eye(germ.n)[0],
                                                  None))
    for norm, germ, t, grid in cases:
        audit = audit_hypersurface if germ.p == 1 else audit_codim2
        assert audit(norm, germ, grid=grid).verdict == "VIOLATION"
