"""Seeded inputs, jobs and output checks of the benchmark workloads.

A workload is a fixed cycle of jobs.  Which job kind, norm family, shape
and grid size sits in each slot of a cycle never depends on the seed, so
every seed asks for the same amount of work; the seed only draws the
numbers inside each job (one generator per seed, cycle and slot).  Timed
runs execute whole cycles, so the job-size mix, and with it the latency
percentiles, is the same in every run.

A job is one or more calls into minksub and a check of what came back.
Only the calls are timed and traced; the check runs afterwards.  The
acceptance criteria of ``tests/test_acceptance.py`` set the traffic:
C4 and C9 feed ``sweep``, C2 and C8 ``crosscheck``, C5 to C7 ``classify``.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from minksub import curvature as cv
from minksub import example as ex
from minksub import germ as gm
from minksub import invariants as inv
from minksub import jets
from minksub import minkowski as mk
from minksub import pencil as pc

# C2 tolerances: jet oracle relative, finite differences absolute.
JET_REL_TOL = 1e-9
FD_ABS_TOL = 1e-5
# C1 tolerance for the flat (euclidean) closed form.
FLAT_REL_TOL = 1e-10
# C4 tolerance: closed form against pipeline.
EXAMPLE_REL_TOL = 1e-6
# C7 residual bound for a located common zero.
ZERO_RESIDUAL_TOL = 1e-8

# Cases whose check fails at this commit because of a recorded defect.  They
# stay in the corpus and count as failed; they do not make a run incorrect.
KNOWN_DEFECTS = {
    "cli.nan_germ": "a germ with a NaN entry exits 0 and prints NaN "
                    "instead of exiting 2",
}


class Checks:
    """Tally of output checks: attempted, and the failures with their case."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[tuple[str, str, str]] = []

    def expect(self, ok, case: str, what: str, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append((case, what, detail))
        return bool(ok)

    @property
    def unexpected(self) -> list:
        return [f for f in self.failures if f[0] not in KNOWN_DEFECTS]


@dataclass
class Job:
    kind: str
    case: str
    call: Callable[[], Any]
    check: Callable[[Any, Checks], None]
    props: dict = field(default_factory=dict)
    # for a call that runs in a child process: its reference-kernel samples
    samples_of: Callable[[Any], list] | None = None


def rng_for(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def strict_json(text: str):
    """json.loads that refuses NaN and Infinity."""
    def refuse(name):
        raise ValueError(f"non-finite JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


def strict_csv(text: str) -> tuple[list, np.ndarray]:
    """Header and float rows of a CSV report; refuses non-finite cells."""
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    values = np.array([[float(v) for v in row] for row in body])
    if values.size and not np.all(np.isfinite(values)):
        raise ValueError("non-finite value in CSV report")
    return header, values


# -- input generators ---------------------------------------------------------


def unit(rng, n: int) -> np.ndarray:
    u = rng.standard_normal(n)
    return u / np.linalg.norm(u)


def random_germ(rng, n: int, p: int, scale: float = 1.0) -> gm.Germ:
    d2 = scale * rng.standard_normal((p, n, n))
    d2 = 0.5 * (d2 + d2.swapaxes(1, 2))
    d3 = scale * gm.sym3(rng.standard_normal((p, n, n, n)))
    return gm.Germ.make(n, p, d2, d3)


def semidefinite_germ(rng, n: int, sign: float) -> gm.Germ:
    """Codimension-1 germ, semidefinite second jet (C9's planted case)."""
    m = rng.standard_normal((n, max(1, n - 1)))
    d3 = 0.4 * gm.sym3(rng.standard_normal((1, n, n, n)))
    return gm.Germ.make(n, 1, (sign * m @ m.T)[None], d3)


def kernel_germ(rng, n: int, p: int) -> gm.Germ:
    """Germ whose second jets share the kernel direction e1 (mu = 1)."""
    w = np.zeros((n, n - 1))
    w[1:, :] = np.eye(n - 1)
    cores = rng.standard_normal((p, n - 1, n - 1))
    d2 = np.einsum("iu,puv,jv->pij", w, cores + cores.swapaxes(1, 2), w)
    return gm.Germ.make(n, p, d2, np.zeros((p, n, n, n)))


def random_randers(rng, dim: int) -> mk.NormModel:
    m = rng.standard_normal((dim, dim)) * 0.3
    a = np.eye(dim) + m @ m.T
    b = rng.standard_normal(dim)
    b *= 0.4 * rng.uniform(0.2, 1.0) / np.sqrt(b @ np.linalg.solve(a, b))
    return mk.NormModel.randers(a, b)


def expression_text(rng, dim: int) -> str:
    """A weighted quadratic plus the acceptance suite's quartic correction."""
    w = rng.uniform(0.8, 1.25, dim)
    c = rng.uniform(0.5, 1.0)
    quad = " + ".join(f"{w[i]:.6f}*y{i + 1}^2" for i in range(dim))
    r2 = " + ".join(f"y{i + 1}^2" for i in range(dim))
    return (f"({quad}) / 2 + {c:.6f} * (y1^4 - 2*y1^2*y2^2 + y{dim}^4)"
            f" / ({r2}) / 20")


def make_norm(family: str, dim: int, rng) -> mk.NormModel:
    if family == "euclidean":
        return mk.NormModel.euclidean(dim)
    if family == "randers":
        return random_randers(rng, dim)
    if family == "example4":
        if dim != 3:
            raise ValueError("example4 lives on R^3")
        return mk.NormModel.example4(rng.uniform(5.0, 20.0),
                                     rng.uniform(5.0, 20.0),
                                     rng.uniform(0.01, 0.1),
                                     rng.uniform(0.01, 0.1))
    return mk.NormModel.expression(expression_text(rng, dim), dim)


def flat_ricci(germ: gm.Germ, u: np.ndarray) -> float:
    """C1's closed form: Ricci curvature of a germ in euclidean space."""
    return float(sum(np.trace(A) * (u @ A @ u) - (A @ u) @ (A @ u)
                     for A in germ.d2))


# -- sweep --------------------------------------------------------------------
#
# Every grid consumer calls ricci_expanded once per direction, so jets,
# minkowski and curvature do nearly all the work and pencil almost none.
# Grid size is the batch size a batched direction sweep would exploit: the
# C9 grids 72 (n = 2) and 256 (n = 3) for audits, the CLI defaults 720 and
# 4096 for report sweeps.

SHAPES_N2 = (("euclidean", 2, 1), ("randers", 2, 1), ("example4", 2, 1),
             ("expression", 2, 1), ("euclidean", 2, 2), ("randers", 2, 2),
             ("expression", 2, 2))
SHAPES_N3 = (("euclidean", 3, 1), ("randers", 3, 1), ("expression", 3, 1),
             ("euclidean", 3, 2), ("randers", 3, 2), ("expression", 3, 2))

SWEEP_SLOTS = (
    [("audit", shape, 72, k) for shape in SHAPES_N2 for k in range(5)]
    + [("audit", shape, 256, k) for shape in SHAPES_N3 for k in range(2)]
    + [("report", shape, 720, 0) for shape in SHAPES_N2]
    + [("report", ("randers", 3, 1), 4096, 0)]
    + [("example", ("example4", 2, 1), 720, 0)]
)
# C4's pipeline sweep: the refined angle grid of verify_example
EXAMPLE_DIRECTIONS = 720 + 6 * ex.REFINE_POINTS


def _audit_job(case, norm, germ, grid, props):
    def call():
        audit = inv.audit_hypersurface if germ.p == 1 else inv.audit_codim2
        return audit(norm, germ, grid=grid)

    def check(rep, chk):
        chk.expect(math.isfinite(rep.min_ric), case, "finite",
                   f"min Ric {rep.min_ric!r}")
        chk.expect(rep.verdict == "CONSISTENT", case, "verdict",
                   f"{rep.verdict}: {rep.notes}")

    return Job("audit", case, call, check, props)


def _report_job(case, norm, germ, grid, family, props):
    n = germ.n

    def call():
        return cv.reports_to_csv([cv.ricci_expanded(norm, germ, u)
                                  for u in inv.sphere_grid(n, grid)])

    def check(text, chk):
        try:
            header, rows = strict_csv(text)
        except ValueError as exc:
            chk.expect(False, case, "csv", str(exc))
            return
        chk.expect(rows.shape[0] == grid, case, "rows",
                   f"{rows.shape[0]} rows for grid {grid}")
        ric = rows[:, header.index("Ric")]
        diag = [header.index(f"Rik_{i + 1}_{i + 1}") for i in range(n)]
        trace = rows[:, diag].sum(axis=1)
        worst = float(np.max(np.abs(ric - trace) / (1.0 + np.abs(ric))))
        chk.expect(worst <= FLAT_REL_TOL, case, "oracle",
                   f"Ric vs trace Rik {worst:.2e}")
        if family == "euclidean":
            us = rows[:, :n]
            flat = np.array([flat_ricci(germ, u) for u in us])
            worst = float(np.max(np.abs(ric - flat) / (1.0 + np.abs(flat))))
            chk.expect(worst <= FLAT_REL_TOL, case, "oracle",
                       f"flat closed form {worst:.2e}")

    return Job("report", case, call, check, props)


def _example_job(case, props):
    """C4: search the parameter grid, then verify the winner."""
    def call():
        params = ex.find_example_params(729, grid=720)
        return ex.verify_example(params, grid=720)

    def check(rep, chk):
        chk.expect(rep.verdict == "SUCCESS", case, "verdict",
                   f"{rep.verdict}: {rep.notes}")
        rel = rep.max_rel_discrepancy
        chk.expect(rel is not None and rel <= EXAMPLE_REL_TOL, case,
                   "oracle", f"closed form vs pipeline {rel}")

    return Job("example", case, call, check, props)


def sweep_cycle(seed: int, cycle: int) -> list[Job]:
    jobs = []
    for slot, (kind, (family, n, p), grid, k) in enumerate(SWEEP_SLOTS):
        case = f"sweep.c{cycle}.s{slot}.{kind}.{family}.{n}x{p}.g{grid}"
        if kind == "example":
            jobs.append(_example_job(case, {
                "family": family, "shape": f"{n}x{p}", "grid": grid,
                "directions": EXAMPLE_DIRECTIONS}))
            continue
        rng = rng_for(seed, cycle, slot)
        norm = make_norm(family, n + p, rng)
        if kind == "audit" and p == 1 and k % 2 == 1:
            germ = semidefinite_germ(rng, n, 1.0 if rng.uniform() < 0.5
                                     else -1.0)
        else:
            germ = random_germ(rng, n, p)
        props = {"family": family, "shape": f"{n}x{p}", "grid": grid,
                 "directions": grid}
        if kind == "audit":
            jobs.append(_audit_job(case, norm, germ, grid, props))
        else:
            jobs.append(_report_job(case, norm, germ, grid, family, props))
    return jobs


# -- crosscheck ---------------------------------------------------------------
#
# The same Jet4 and NormModel.jet code as sweep, used differently: the jet
# oracle works in the doubled dimension 2n, the finite-difference oracle
# calls spray_field (order-4 jets, order 2 read) dozens of times per triple,
# and transform_germ inverts the tangent substitution by fixed-point
# iteration on jets.  Each shape gets one finite-difference triple and one
# batch of jet-oracle directions so that neither oracle's share of job time
# is negligible.

CROSS_SHAPES = (("euclidean", 2, 1), ("randers", 2, 1), ("example4", 2, 1),
                ("expression", 2, 1), ("euclidean", 3, 1), ("randers", 3, 1),
                ("expression", 3, 1), ("euclidean", 2, 2), ("randers", 2, 2),
                ("expression", 2, 2))
JET_BATCH = 8
AMBIENT_SHAPES = ((2, 1), (3, 1), (2, 2), (3, 2))
AMBIENT_BATCH = 8


def _fd_job(case, norm, germ, u, props):
    def call():
        return (cv.ricci_expanded(norm, germ, u).Ric,
                cv.ricci_oracle(norm, germ, u, scheme="jet"),
                cv.ricci_oracle(norm, germ, u, scheme="finite_difference"))

    def check(out, chk):
        ric, jet, fd = out
        rel = abs(ric - jet) / (1.0 + abs(ric))
        chk.expect(rel <= JET_REL_TOL, case, "oracle", f"jet rel {rel:.2e}")
        chk.expect(abs(ric - fd) <= FD_ABS_TOL, case, "oracle",
                   f"fd abs {abs(ric - fd):.2e}")

    return Job("fd_triple", case, call, check, props)


def _jet_job(case, norm, germ, dirs, props):
    def call():
        return [(cv.ricci_expanded(norm, germ, u).Ric,
                 cv.ricci_oracle(norm, germ, u, scheme="jet")) for u in dirs]

    def check(out, chk):
        for i, (ric, jet) in enumerate(out):
            rel = abs(ric - jet) / (1.0 + abs(ric))
            chk.expect(rel <= JET_REL_TOL, f"{case}.u{i}", "oracle",
                       f"jet rel {rel:.2e}")

    return Job("jet_batch", case, call, check, props)


def _ambient_job(case, pairs, props):
    def call():
        out = []
        for germ, T in pairs:
            moved, _ = gm.adapt_germ(*gm.transform_germ(germ, T))
            out.append((inv.point_invariants(germ),
                        inv.point_invariants(moved)))
        return out

    def check(out, chk):
        for i, (base, img) in enumerate(out):
            same = (base.mu == img.mu and base.type_t == img.type_t
                    and base.null_basis.shape == img.null_basis.shape)
            chk.expect(same, f"{case}.k{i}", "verdict",
                       f"mu {base.mu}->{img.mu}, type {base.type_t}->"
                       f"{img.type_t}")

    return Job("ambient", case, call, check, props)


def crosscheck_cycle(seed: int, cycle: int) -> list[Job]:
    jobs = []
    slot = 0
    for family, n, p in CROSS_SHAPES:
        rng = rng_for(seed, cycle, slot)
        norm = make_norm(family, n + p, rng)
        germ = random_germ(rng, n, p, scale=0.8)
        props = {"family": family, "shape": f"{n}x{p}"}
        jobs.append(_fd_job(f"crosscheck.c{cycle}.s{slot}.fd.{family}."
                            f"{n}x{p}", norm, germ, unit(rng, n), props))
        dirs = [unit(rng, n) for _ in range(JET_BATCH)]
        jobs.append(_jet_job(f"crosscheck.c{cycle}.s{slot}.jet.{family}."
                             f"{n}x{p}", norm, germ, dirs, props))
        slot += 1
    for n, p in AMBIENT_SHAPES:
        rng = rng_for(seed, cycle, slot)
        pairs = []
        for k in range(AMBIENT_BATCH):
            germ = kernel_germ(rng, n, p) if k % 3 == 0 \
                else random_germ(rng, n, p)
            T = np.eye(n + p) + 0.3 * rng.standard_normal((n + p, n + p))
            pairs.append((germ, T))
        jobs.append(_ambient_job(f"crosscheck.c{cycle}.s{slot}.ambient."
                                 f"{n}x{p}", pairs, {"shape": f"{n}x{p}"}))
        slot += 1
    return jobs


# -- classify -----------------------------------------------------------------
#
# Pencil and point-type work with no Ricci evaluation: the bypass workload
# for curvature and jet changes.  Non-semisimple pencils force the
# spectral -> sampled fallback in a fixed share of jobs.


def canonical_configs() -> list:
    """C6's 88 canonical configurations with N <= 7."""
    out = []
    for l in range(5):
        blocks = 2 * l - 1 if l else 0
        for n in itertools.product(range(1, 9 - blocks), repeat=blocks):
            for s in range(4):
                if (l or s) and sum(n) + 2 * s <= 7:
                    out.append(pc.CanonicalData(l=l, n=n, s=s))
    return out


CANONICAL = canonical_configs()
CANONICAL_BATCH = 15
C5_SIZES = (3, 4, 5, 6, 7, 8)
FALLBACK_SIZES = (5, 6)
ZERO_SEARCHES = 4
# The point-type jobs (sampled inertia over 10^4 normals for p = 3) are the
# slowest and least variable jobs of the cycle.  All four have the same
# make-up, so p90 (0.9 of 22 jobs) falls inside their block rather than on
# the edge between two job sizes.
POINT_JOBS = 4
POINT_BATCH = {(3, 2): 2, (3, 3): 4, (4, 2): 2, (4, 3): 4}
SAMPLES = 10000

KNOWN_LABELS = {
    (0, (), 3): ("UnitTangentBundleOfSphere", (2,)),
    (0, (), 1): ("Empty", ()),
    (1, (2,), 0): ("Empty", ()),
    (1, (2,), 2): ("ProductTwoSpheres", (1, 2)),
    (2, (1, 1, 1), 0): ("ProductThreeSpheres", (0, 0, 0)),
}


def expected_canonical_type(C) -> int:
    """s + min cyclic window sum (C5's formula), written independently."""
    if C.l <= 1:
        return C.s
    K = 2 * C.l - 1
    return C.s + min(sum(C.n[(j + t) % K] for t in range(C.l - 1))
                     for j in range(K))


def congruence(rng, N: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((N, N)))
    return q @ np.diag(rng.uniform(0.8, 1.25, size=N))


def separated_angles(rng, r: int) -> np.ndarray:
    """C5's rule: distinct eigenvalues mod pi, clear of singular members."""
    while True:
        phis = np.sort(rng.uniform(0.0, 2 * np.pi, size=r))
        if r == 0:
            return phis
        folded = np.sort(phis % np.pi)
        gaps = np.diff(np.concatenate([folded, [folded[0] + np.pi]]))
        clear = min(abs(folded - a).min()
                    for a in (0.0, np.pi / 2, 3 * np.pi / 4, np.pi))
        if gaps.min() > 0.1 and clear > 0.02:
            return phis


def _c5_job(case, pen):
    def call():
        return (pc.type_exact(pc.spectral_split(pen)),
                pc.type_sampled(pen, SAMPLES))

    def check(out, chk):
        chk.expect(out[0] == out[1], case, "verdict",
                   f"exact {out[0]} vs sampled {out[1]}")

    return Job("c5_pencil", case, call, check,
               {"N": pen.dim, "pencils": 1, "path": "spectral"})


def _classify_pencil(pen):
    """The CLI's `pencil classify` sequence, plus the point-type fallback."""
    gen = pc.genericity_check(pen)
    try:
        spec = pc.spectral_split(pen)
    except (pc.SingularA2, pc.NotSemisimple):
        return gen, None, pc.type_sampled(pen, SAMPLES), None, None
    t = pc.type_exact(spec)
    canon = pc.canonical_from_spectral(spec)
    return gen, spec, t, canon, pc.classify_topology(canon)


def _canonical_job(case, items):
    def call():
        return [_classify_pencil(pen) for _, pen in items]

    def check(out, chk):
        for (C, _), (gen, _, t, canon, label) in zip(items, out):
            sub = f"{case}.l{C.l}n{''.join(map(str, C.n))}s{C.s}"
            chk.expect(gen.method == "spectral", sub, "verdict",
                       f"genericity method {gen.method}")
            chk.expect(t == expected_canonical_type(C), sub, "verdict",
                       f"type {t}")
            if not chk.expect(canon == C, sub, "verdict",
                              f"canonical {canon}"):
                continue
            key = (C.l, C.n, C.s)
            if key in KNOWN_LABELS:
                chk.expect((label.case, label.spheres) == KNOWN_LABELS[key],
                           sub, "verdict", f"label {label}")
            if label.case != "Empty":
                chk.expect(label.dimension() == C.dim - 3, sub, "verdict",
                           f"dimension {label.dimension()}")

    return Job("c6_canonical", case, call, check,
               {"pencils": len(items), "path": "spectral"})


def _fallback_job(case, pen, expected):
    def check(out, chk):
        gen, spec, t, _, _ = out
        chk.expect(gen.method == "sampled" and not gen.semisimple, case,
                   "verdict", f"genericity {gen.method}/{gen.semisimple}")
        chk.expect(spec is None, case, "verdict", "spectral split succeeded")
        chk.expect(t == expected, case, "verdict",
                   f"sampled type {t}, expected {expected}")

    return Job("fallback_pencil", case, lambda: _classify_pencil(pen), check,
               {"N": pen.dim, "pencils": 1, "path": "sampled"})


def _zero_job(case, pen, T1, T2, seed):
    def call():
        return pc.common_zero_search(pen.A1, pen.A2, T1, T2, seed=seed)

    def check(x, chk):
        if not chk.expect(x is not None, case, "verdict", "no zero found"):
            return
        r = np.array([x @ pen.A1 @ x, x @ pen.A2 @ x,
                      np.einsum("ijk,i,j,k->", T1, x, x, x),
                      np.einsum("ijk,i,j,k->", T2, x, x, x)])
        chk.expect(float(np.linalg.norm(r)) <= ZERO_RESIDUAL_TOL, case,
                   "oracle", f"residual {np.linalg.norm(r):.2e}")

    return Job("common_zero", case, call, check)


def _points_job(case, germs):
    def call():
        return [inv.point_invariants(germ) for germ, _ in germs]

    def check(out, chk):
        for i, ((germ, mu), res) in enumerate(zip(germs, out)):
            sub = f"{case}.k{i}"
            chk.expect(res.mu == mu, sub, "verdict", f"mu {res.mu} != {mu}")
            t = res.type_t
            if germ.p >= 3:
                chk.expect(isinstance(t, inv.Interval) and t.lower == t.upper
                           and 0 <= t.lower <= germ.n - mu, sub, "verdict",
                           f"type {t}")
            else:
                vt = np.linalg.svd(germ.d2.reshape(-1, germ.n))[2]
                W = vt[:germ.n - mu].T  # orthogonal complement of the kernel
                pen = pc.SymPencil.make(W.T @ germ.d2[0] @ W,
                                        W.T @ germ.d2[1] @ W)
                sampled = pc.type_sampled(pen, SAMPLES)
                chk.expect(t == sampled, sub, "verdict",
                           f"type {t} vs sampled {sampled}")

    return Job("points", case, call, check, {"germs": len(germs)})


def classify_cycle(seed: int, cycle: int) -> list[Job]:
    jobs = []
    slot = 0
    for N in C5_SIZES:
        rng = rng_for(seed, cycle, slot)
        s = int(rng.integers(0, N // 2 + 1))
        phis = separated_angles(rng, N - 2 * s)
        spec = pc.SpectralData(
            real_pairs=tuple((np.cos(f), np.sin(f)) for f in phis),
            complex_pairs=tuple((rng.uniform(0.1, 0.9), rng.uniform(0.5, 2.0))
                                for _ in range(s)))
        pen = pc.build_from_spectral(spec)
        M = congruence(rng, N)
        pen = pc.SymPencil.make(M.T @ pen.A1 @ M, M.T @ pen.A2 @ M)
        jobs.append(_c5_job(f"classify.c{cycle}.s{slot}.c5.N{N}", pen))
        slot += 1
    for start in range(0, len(CANONICAL), CANONICAL_BATCH):
        rng = rng_for(seed, cycle, slot)
        items = []
        for C in CANONICAL[start:start + CANONICAL_BATCH]:
            pen = pc.build_canonical(C)
            M = congruence(rng, C.dim)
            items.append((C, pc.SymPencil.make(M.T @ pen.A1 @ M,
                                               M.T @ pen.A2 @ M)))
        jobs.append(_canonical_job(f"classify.c{cycle}.s{slot}.c6", items))
        slot += 1
    for N in FALLBACK_SIZES:
        rng = rng_for(seed, cycle, slot)
        # a 2x2 Jordan block (A1 = E J, A2 = E with E the exchange matrix)
        # next to N - 2 separated real directions
        lam = rng.uniform(-1.0, 1.0)
        phis = separated_angles(rng, N - 2)
        A1 = np.zeros((N, N))
        A2 = np.zeros((N, N))
        A1[:2, :2] = [[0.0, lam], [lam, 1.0]]
        A2[:2, :2] = [[0.0, 1.0], [1.0, 0.0]]
        A1[2:, 2:] = np.diag(np.cos(phis))
        A2[2:, 2:] = np.diag(np.sin(phis))
        M = congruence(rng, N)
        pen = pc.SymPencil.make(M.T @ A1 @ M, M.T @ A2 @ M)
        # the Jordan block has inertia (1, 1) on every member of full rank,
        # like a complex pair
        expected = pc.type_exact(pc.SpectralData(
            tuple((np.cos(f), np.sin(f)) for f in phis), ((0.0, 1.0),)))
        jobs.append(_fallback_job(f"classify.c{cycle}.s{slot}.fallback.N{N}",
                                  pen, expected))
        slot += 1
    zero_pen = pc.build_canonical(pc.CanonicalData(l=0, n=(), s=3))
    for k in range(ZERO_SEARCHES):
        rng = rng_for(seed, cycle, slot)
        T1 = rng.uniform(-1.0, 1.0, size=(6, 6, 6))
        T2 = rng.uniform(-1.0, 1.0, size=(6, 6, 6))
        jobs.append(_zero_job(f"classify.c{cycle}.s{slot}.zero", zero_pen,
                              T1, T2, int(rng.integers(0, 2 ** 31))))
        slot += 1
    for _ in range(POINT_JOBS):
        rng = rng_for(seed, cycle, slot)
        germs = []
        for (n, p), count in POINT_BATCH.items():
            for k in range(count):
                if k % 2 == 0:
                    germs.append((kernel_germ(rng, n, p), 1))
                else:
                    germs.append((random_germ(rng, n, p), 0))
        jobs.append(_points_job(f"classify.c{cycle}.s{slot}.points", germs))
        slot += 1
    return jobs


CYCLES = {"sweep": sweep_cycle, "crosscheck": crosscheck_cycle,
          "classify": classify_cycle}

# Jet dimensions each in-process workload touches: n + p for the norm,
# n for transform_germ, 2n for the jet oracle.
JET_DIMS = {"sweep": (3, 4, 5), "crosscheck": (2, 3, 4, 5, 6),
            "classify": (), "cli_cold": (3, 4)}


def warm_tables(workload: str) -> float:
    """Build the Jet4 multiplication tables the workload needs; seconds."""
    t0 = time.perf_counter()
    for dim in JET_DIMS[workload]:
        jets.Jet4.constant(dim, 0.0)
    return time.perf_counter() - t0
