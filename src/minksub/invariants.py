"""Pointwise invariants of a germ and auditors for curvature sign claims.

The invariants live entirely in the germ's second jet: the relative
nullity index mu(P) (dimension of the common kernel of all second
fundamental forms), its kernel L(P), and the point type t(P) (minimum
positive inertia over maximal-rank normal combinations).  The auditors
evaluate concrete hypotheses -> conclusion implications on a direction
grid and report CONSISTENT or VIOLATION; a VIOLATION on valid input
means the implementation is wrong, so the auditors double as end-to-end
checks of the curvature pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import cos, pi
from statistics import NormalDist

import numpy as np

from . import pencil as pencils
from .curvature import _lift, ricci_expanded, ricci_expanded_batch
from .germ import Germ, rank_mask
from .jets import MAX_DIM
from .minkowski import NormModel

RANK_TOL = 1e-9
RIC_NONNEG_TOL = 1e-8       # Ric >= -1e-8 counts as nonnegative
RULED_TOL = 1e-10           # kappa(u) and the cubic vanish at a ruling
RULED_AGREE_TOL = 1e-9      # full Ricci vs reduced contraction, relative
RULED_IN_L_TOL = 1e-8       # u lies in L(P): f(u, .) below this, scaled
NORMAL_SAMPLES = 10000      # normal directions sampled when p >= 3
NORMAL_TABLES = 8           # (seed, p) normal tables kept, 80 KB * p each

SOBOL_BITS = 30
# Joe & Kuo (SIAM J. Sci. Comput. 30, 2008) rows (a, m) of Sobol dimensions
# 2..MAX_DIM: inner primitive-polynomial coefficients, initial integers
_JOE_KUO = ((0, (1,)), (1, (1, 3)), (1, (1, 3, 1)), (2, (1, 1, 1)),
            (1, (1, 1, 3, 3)), (4, (1, 3, 5, 13)), (2, (1, 1, 5, 5, 17)))


class NotRuledDirection(ValueError):
    """The supplied direction does not annihilate kappa and the cubic."""


@dataclass(frozen=True)
class Interval:
    """Sampled bounds for the point type in codimension three and higher.

    Only a bound pair, never an exact value: the normal sphere is sampled,
    so the true minimum may lie below ``lower``.
    """

    lower: int
    upper: int


def _type_json(t):
    return [t.lower, t.upper] if isinstance(t, Interval) else int(t)


@dataclass(frozen=True)
class PointInvariants:
    mu: int
    type_t: object          # int, or Interval when p >= 3
    null_basis: np.ndarray  # (n, mu), orthonormal columns

    def to_dict(self) -> dict:
        t = self.type_t
        return {"mu": self.mu,
                "type": _type_json(t),
                "typeExact": not isinstance(t, Interval),
                "nullBasis": self.null_basis.T.tolist()}


def nullity(germ: Germ) -> tuple:
    """(mu, orthonormal basis of the common kernel of all d2 blocks)."""
    stacked = germ.d2.reshape(germ.p * germ.n, germ.n)
    _, sv, vt = np.linalg.svd(stacked)   # p >= 1: n singular values
    cut = ~rank_mask(sv, RANK_TOL)
    return int(cut.sum()), vt[cut].T


def point_type(germ: Germ, seed: int = 0):
    """Point type t(P): exact for p <= 2 and, outside a band around the
    cut, for n = 2; otherwise sampled Interval bounds for p >= 3.

    For p <= 2 it is the type of the pencil of the second fundamental
    forms (d2[0] and 0 when p = 1, so both orientations of the single
    normal count), and 0 when they all vanish; the common kernel L(P)
    only adds zero eigenvalues to every member.  For p = 1 that is the
    smaller inertia count of cos(pi/4) d2[0], the member pencil_type's
    sweep evaluates; for n = 2, ``_surface_type`` decides by a closed
    form; pencil_type's sweep takes the rest of p = 2.  For p >= 3 the
    normal sphere is sampled from ``seed`` and only bounds are reported.
    """
    if germ.p == 1:
        pos, neg = pencils._eigvalsh_counts(cos(pi / 4) * germ.d2)
        return int(min(pos[0], neg[0]))
    t = _surface_type(germ.d2) if germ.n == 2 else None
    if t is not None:
        return t
    if germ.p == 2:
        pen = pencils.SymPencil.make(*germ.d2)
        return pencils.pencil_type(pen) if germ.d2.any() else 0

    forms = np.einsum("sa,aij->sij", _normal_table(seed, germ.p), germ.d2)
    pos, _ = pencils.max_rank_inertia(forms)
    bound = int(pos.min())
    return Interval(bound, bound)


def _surface_type(d2: np.ndarray):
    """t(P) of n = 2 forms A_a = [[a, c], [c, b]], or None in the band.

    det(xi . A) = xi^T Q xi with Q_ab = (a_a b_b + a_b b_a)/2 - c_a c_b, so
    a definite member exists iff lambda_max(Q) > 0: t = 0 when the member
    at Q's top eigenvector counts as definite or all forms vanish, t = 1
    when lambda_max(Q) < -EIG_TOL max |d2|^2 (every member is indefinite),
    else None.  Q is formed from d2 / max |d2|, which cannot overflow."""
    scale = np.abs(d2).max()
    if not scale:
        return 0
    a, c, _, b = d2.reshape(-1, 4).T / scale
    ab = np.outer(a, b)
    lam, vec = np.linalg.eigh(0.5 * (ab + ab.T) - np.outer(c, c))
    pos, neg = pencils._eigvalsh_counts((vec[:, -1] @ d2.reshape(-1, 4))
                                        .reshape(1, 2, 2))
    if max(pos[0], neg[0]) == 2:
        return 0
    return 1 if lam[-1] < -pencils.EIG_TOL else None


@lru_cache(maxsize=NORMAL_TABLES)
def _normal_table(seed: int, p: int) -> np.ndarray:
    """The NORMAL_SAMPLES unit normals (read-only) that ``point_type``
    draws from ``seed`` for codimension p: a constant table per (seed, p)."""
    rng = np.random.default_rng(seed)
    normals = rng.standard_normal((NORMAL_SAMPLES, p))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    normals.setflags(write=False)
    return normals


def point_invariants(germ: Germ, seed: int = 0) -> PointInvariants:
    mu, basis = nullity(germ)
    return PointInvariants(mu=mu, type_t=point_type(germ, seed),
                           null_basis=basis)


def default_grid(n: int) -> int:
    """Direction count used when no grid size is given."""
    return 720 if n == 2 else 4096


def _sobol_points(n: int, count: int) -> np.ndarray:
    """Unscrambled Sobol points 2 .. count + 1 of [0, 1)^n; point k is point
    k - 1 XOR the direction numbers at the lowest set bit of k.  Points 0
    and 1 (corner, centre) go to infinity and 0 under the normal map."""
    rows = [[1] * SOBOL_BITS]  # van der Corput
    for a, m in _JOE_KUO[:n - 1]:
        s, v = len(m), list(m)
        for k in range(s, SOBOL_BITS):
            mk = v[k - s] ^ (v[k - s] << s)
            for i in range(1, s):
                mk ^= ((a >> (s - 1 - i)) & 1) * (v[k - i] << i)
            v.append(mk)
        rows.append(v)
    dirs = np.array(rows, dtype=np.int64) << (SOBOL_BITS - 1
                                              - np.arange(SOBOL_BITS))
    k = np.arange(1, count + 2)
    steps = dirs[:, np.log2(k & -k).astype(np.int64)].T
    return np.bitwise_xor.accumulate(steps, axis=0)[1:] * 2.0 ** -SOBOL_BITS


def sphere_grid(n: int, count: int) -> np.ndarray:
    """Deterministic direction grid: uniform angles for n = 2, else Sobol
    points mapped coordinatewise through the inverse normal CDF
    (``statistics.NormalDist``) and normalised."""
    if not 1 <= n <= MAX_DIM:
        raise ValueError(f"sphere dimension must be in 1..{MAX_DIM}, got {n}")
    if count < 1:
        raise ValueError(f"direction count must be positive, got {count}")
    if n == 2:
        th = np.arange(count) * (2.0 * np.pi / count)
        return np.stack([np.cos(th), np.sin(th)], axis=1)
    pts = np.vectorize(NormalDist().inv_cdf)(_sobol_points(n, count))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


@dataclass(frozen=True)
class AuditReport:
    min_ric: float
    argmin_direction: np.ndarray
    type_t: object
    mu: int
    verdict: str
    notes: tuple

    def to_dict(self) -> dict:
        return {"minRic": self.min_ric,
                "argminDirection": list(self.argmin_direction),
                "type": _type_json(self.type_t),
                "mu": self.mu,
                "verdict": self.verdict,
                "notes": list(self.notes)}


def _grid_min_ric(norm: NormModel, germ: Germ, grid: int | None):
    dirs = sphere_grid(germ.n, default_grid(germ.n) if grid is None else grid)
    rics = ricci_expanded_batch(norm, germ, dirs, ric_only=True).Ric
    k = int(np.argmin(rics))
    return float(rics[k]), dirs[k]


def audit_hypersurface(norm: NormModel, germ: Germ,
                       grid: int | None = None,
                       tol: float = RIC_NONNEG_TOL) -> AuditReport:
    """Hypersurface check: Ric >= 0 on the grid and t(P) != 1 must force a
    semidefinite second fundamental form."""
    if germ.p != 1:
        raise ValueError("hypersurface audit needs codimension 1")
    if germ.n < 2:
        raise ValueError("hypersurface audit needs n >= 2")
    min_ric, arg = _grid_min_ric(norm, germ, grid)
    mu, _ = nullity(germ)
    t = point_type(germ)
    semidefinite = t == 0  # for p = 1, t is the smaller inertia count

    notes = []
    if min_ric < -tol:
        notes.append(f"hypothesis Ric >= 0 fails: min Ric = {min_ric!r}")
    if t == 1:
        notes.append("hypothesis t != 1 fails: t(P) = 1")
    hypotheses = min_ric >= -tol and t != 1
    verdict = "CONSISTENT" if (not hypotheses or semidefinite) else "VIOLATION"
    if verdict == "VIOLATION":
        notes.append("second fundamental form is indefinite despite "
                     "nonnegative Ricci and t != 1")
    elif hypotheses:
        notes.append("second fundamental form is semidefinite as required")
    return AuditReport(min_ric, arg, t, mu, verdict, tuple(notes))


def audit_codim2(norm: NormModel, germ: Germ,
                 grid: int | None = None,
                 tol: float = RIC_NONNEG_TOL) -> AuditReport:
    """Codimension-2 check: Ric >= 0 on the grid must force t(P) <= 2."""
    if germ.p != 2:
        raise ValueError("codimension-2 audit needs p = 2")
    min_ric, arg = _grid_min_ric(norm, germ, grid)
    mu, _ = nullity(germ)
    t = point_type(germ)

    notes = []
    if min_ric < -tol:
        notes.append(f"hypothesis Ric >= 0 fails: min Ric = {min_ric!r}")
    verdict = ("CONSISTENT" if (min_ric < -tol or t <= 2) else "VIOLATION")
    if verdict == "VIOLATION":
        notes.append(f"t(P) = {t} > 2 despite nonnegative Ricci")
    elif min_ric >= -tol:
        notes.append(f"t(P) = {t} <= 2 as required")
    return AuditReport(min_ric, arg, t, mu, verdict, tuple(notes))


def audit_ruled(norm: NormModel, germ: Germ, ruling_direction,
                tol: float = RIC_NONNEG_TOL, seed: int = 0) -> AuditReport:
    """Ruled-direction check at one direction u with kappa(u) = 0 and
    vanishing cubic: the full Ricci must equal the reduced contraction
    -zeta_ab g^il f^b_jl f^a_ir u^j u^r, and Ric(u) >= 0 must place u in
    L(P).  ``seed`` feeds the sampled point type for p >= 3."""
    u = _lift(germ, ruling_direction)[:germ.n]   # _lift checks the direction
    with np.errstate(over="ignore", invalid="ignore"):   # checked below
        scale2 = 1.0 + float(np.abs(germ.d2).max(initial=0.0)) * float(u @ u)
        scale3 = (1.0 + float(np.abs(germ.d3).max(initial=0.0))
                  * abs(u @ u) ** 1.5)
    for name, scale in (("kappa(u)", scale2), ("cubic contraction", scale3)):
        if not np.isfinite(scale):
            raise ValueError(f"{name} scale is not finite: {scale}")
    if np.abs(germ.kappa(u)).max(initial=0.0) > RULED_TOL * scale2:
        raise NotRuledDirection("kappa(u) does not vanish")
    if np.abs(germ.cubic(u)).max(initial=0.0) > RULED_TOL * scale3:
        raise NotRuledDirection("cubic contraction does not vanish")

    rep = ricci_expanded(norm, germ, u)
    gi = np.linalg.inv(rep.g)
    fu = np.einsum("ajl,l->aj", germ.d2, u)
    reduced = -float(np.einsum("il,ab,bl,ai->", gi, rep.zeta, fu, fu))
    agree = abs(rep.Ric - reduced) <= RULED_AGREE_TOL * (1.0 + abs(rep.Ric))

    mu, basis = nullity(germ)
    in_L = np.abs(fu).max(initial=0.0) <= RULED_IN_L_TOL * scale2

    notes = [f"reduced contraction = {reduced!r}"]
    if not agree:
        notes.append(f"full Ricci {rep.Ric!r} disagrees with the reduced "
                     "contraction")
    if rep.Ric < -tol:
        notes.append("hypothesis Ric(u) >= 0 fails at the ruling direction")
        implication = True
    else:
        implication = in_L
        if in_L:
            notes.append("ruling direction lies in L(P) as required")
        else:
            notes.append("ruling direction escapes L(P) despite "
                         "nonnegative Ricci")
    verdict = "CONSISTENT" if (agree and implication) else "VIOLATION"
    t = point_type(germ, seed)
    return AuditReport(rep.Ric, u, t, mu, verdict, tuple(notes))
