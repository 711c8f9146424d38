"""Pencils of real symmetric quadratic forms.

A pencil is the two-parameter family lam1*A1 + lam2*A2 of symmetric N x N
matrices.  This module computes its inertia-based *type* (the minimum
positive index of inertia over members of maximal rank) exactly,
normalizes generic pencils to spectral data (real eigendirections plus
complex blocks), recognizes canonical angle configurations, classifies the
topology of {phi1 = phi2 = 0} intersected with the unit sphere, and
searches for common zeros of a quadratic pair together with two cubics.

Sampled inertia (``max_rank_inertia``) counts the eigenvalues of large
member stacks against the zero threshold without computing them:
Householder tridiagonalisation, then Sturm-sequence counts at shifts that
bracket the threshold (Golub & Van Loan, Matrix Computations, 8.3-8.4).
Members with an eigenvalue inside that bracket, and stacks smaller than
SCREEN_MIN_MEMBERS, take ``np.linalg.eigvalsh``; the counts equal the
eigvalsh-threshold counts either way.

``type_sampled`` first certifies whole runs of the half circle.  Members
M(t) = cos t A1 + sin t A2 at angles s, t differ by at most |s - t| R in
spectral norm, R = hypot(|A1|_2, |A2|_2), so by Weyl's inequality (Golub &
Van Loan, Cor. 8.1.6) no eigenvalue moves further.  One eigvalsh of each
block's middle member (the anchor) then fixes the counts of all
CIRCLE_BLOCK members of the block when every anchor eigenvalue clears the
threshold by the block's drift d = (reach + COUNT_MARGIN) R; COUNT_MARGIN
covers the eigvalsh and rounding error of both the anchor and the member.
Only the members of the other blocks are counted one by one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from math import atan2, cos, pi, sin

import numpy as np

from .germ import rank_mask, sym3, sym_matrix

EIG_TOL = 1e-9          # scaled by (1 + spectral radius)
CLUSTER_TOL = 1e-6      # eigenvalue clustering, scaled the same way
CANONICAL_ANGLE_TOL = 1e-6
ARC_MERGE_TOL = 1e-12   # type_exact: critical angles closer than this are one
SMOOTH_TOL = 1e-6       # sampled dependency functional, scaled by 1 + max |A|
ANTIPODAL_TOL = 1e-9
PENCIL_COND_LIMIT = 1e10  # reference members past this condition are singular
RESIDUAL_SQ = 1e-16     # success threshold for common_zero_search
MEMBER_SAMPLES = 10000  # members sampled by type_sampled
# Sturm-count bracket margin, relative to the Gershgorin bound: over 500
# times the backward error N * u * rho (u = 2^-53) of eigvalsh and of the
# Householder screen for N <= 8, so counts agreeing across the bracket are
# the eigvalsh counts
COUNT_MARGIN = 1e-12
# Smaller stacks take eigvalsh: the screen pays a fixed numpy-call cost
# per chunk, so on one thread it loses at 64 members (N = 3 and 8), ties
# at 128 for N = 3 and wins there for N = 8; pencil_type's stacks of at
# most 2N + 2 members stay below the cut
SCREEN_MIN_MEMBERS = 128
# matrix entries per screen pass (members x N^2): each temporary stays
# under 256 KB, so the screen's peak memory stays at eigvalsh's level;
# measured on one thread, the fastest power of two for N = 3 and 4 and
# within 20% of the fastest for N = 8
SCREEN_CHUNK_ENTRIES = 32768
# consecutive half-circle samples certified by one anchor eigvalsh: on one
# thread 64 times like 32 over classify's pencils, 16 is 40% and 128 17%
# slower
CIRCLE_BLOCK = 32
ZERO_SEARCH_BUDGET = 64


class ZeroPencil(ValueError):
    """Both matrices of the pencil vanish; the reference search raises it."""


class SingularA2(ValueError):
    """No well-conditioned member among the probes of
    ``SymPencil._reference``."""


class NotSemisimple(ValueError):
    """The pencil's eigenstructure is defective beyond tolerance."""


class UnclassifiedConfiguration(ValueError):
    """Canonical data outside every topology case in scope."""


@dataclass(frozen=True)
class SymPencil:
    A1: np.ndarray
    A2: np.ndarray

    @classmethod
    def make(cls, A1, A2) -> "SymPencil":
        A1 = sym_matrix(A1, "A1")
        A2 = sym_matrix(A2, "A2")
        if A1.shape != A2.shape:
            raise ValueError("A1 and A2 must have the same dimension")
        A1.setflags(write=False)
        A2.setflags(write=False)
        return cls(A1, A2)

    @property
    def dim(self) -> int:
        return self.A1.shape[0]

    def member(self, lam1: float, lam2: float) -> np.ndarray:
        """lam1 A1 + lam2 A2 (scalars or (K, 1, 1) stacks), summed in place."""
        out = lam1 * self.A1
        out += lam2 * self.A2
        return out

    @cached_property
    def _reference(self):
        """(b, c, singular values of B, B has full rank) for B = b . (A1,
        A2), C = c . (A1, A2): the first of full rank at condition
        PENCIL_COND_LIMIT among A2, A1, A1 + A2 (complements A1, A2, A1)
        and 2N + 1 angles t of the half circle (complement at t + pi/2),
        else the first of largest rank, which is the pencil's: rank drops
        at no more than N angles of the half circle.  ZeroPencil if A1 =
        A2 = 0.  Searched once per pencil, on first use."""
        if not (self.A1.any() or self.A2.any()):
            raise ZeroPencil("both pencil matrices are zero")
        N = self.dim
        angles = (k * pi / (2 * N + 1) for k in range(2 * N + 1))
        probes = chain([((0.0, 1.0), (1.0, 0.0)), ((1.0, 0.0), (0.0, 1.0)),
                        ((1.0, 1.0), (1.0, 0.0))],
                       (((cos(t), sin(t)), (-sin(t), cos(t))) for t in angles))
        found = []
        for b, c in probes:
            sv = np.linalg.svd(self.member(*b), compute_uv=False)
            rank = int(rank_mask(sv, 1 / PENCIL_COND_LIMIT).sum())
            found.append((b, c, sv, rank == N, rank))
            if rank == N:
                break
        return max(found, key=lambda f: f[4])[:4]


def _eigvalsh_counts(members: np.ndarray) -> tuple:
    """Per-member (pos, neg): eigenvalues beyond +-EIG_TOL * (1 + spectral
    radius), the radius and the eigenvalues taken from eigvalsh."""
    evals = np.linalg.eigvalsh(members)
    tol = EIG_TOL * (1.0 + np.abs(evals).max(axis=1, keepdims=True))
    return (evals > tol).sum(axis=1), (evals < -tol).sum(axis=1)


def _tridiagonal(A: np.ndarray) -> tuple:
    """Diagonal d (N, K) and off-diagonal e (N - 1, K) of a Householder
    tridiagonal form of each symmetric A[:, :, k]; overwrites A."""
    N, _, K = A.shape
    e = np.zeros((max(N - 1, 0), K))
    for k in range(N - 2):
        x = A[k + 1:, k]
        alpha = np.sqrt(np.einsum("ik,ik->k", x, x))
        alpha[x[0] >= 0.0] *= -1.0
        v = x.copy()
        v[0] -= alpha
        vv = np.einsum("ik,ik->k", v, v)
        beta = np.divide(2.0, vv, out=np.zeros_like(vv), where=vv > 0.0)
        beta[vv == np.inf] = np.nan     # |v|^2 overflowed: eigvalsh decides
        S = A[k + 1:, k + 1:]  # S <- H S H, H = I - beta v v^T
        p = beta * np.einsum("ijk,jk->ik", S, v)
        w = p - (0.5 * beta * np.einsum("ik,ik->k", p, v)) * v
        vw = v[:, None] * w
        S -= vw
        S -= vw.transpose(1, 0, 2)
        e[k] = alpha
    if N >= 2:
        e[N - 2] = A[N - 1, N - 2]
    return A.reshape(N * N, K)[::N + 1], e


def _below_counts(d: np.ndarray, e2: np.ndarray, shifts: np.ndarray):
    """Eigenvalues of each tridiagonal (d, e) below each shift: the
    negative pivots of T - shift = L D L^T (Sturm count), a zero pivot
    taken as -pivmin as in LAPACK's dlaneg.  ``shifts`` is (S, K)."""
    pivmin = np.finfo(np.float64).tiny
    q = d[0] - shifts
    q[q == 0.0] = -pivmin
    count = (q < 0.0).astype(np.intp)
    for i in range(1, len(d)):
        q = (d[i] - shifts) - e2[i - 1] / q
        q[q == 0.0] = -pivmin
        count += q < 0.0
    return count


def _screen_counts(members: np.ndarray) -> tuple:
    """Per-member (pos, neg, decided) by Sturm counts at +-sigma1, +-sigma2.

    With rho_lo = max |d_i| <= rho <= rho_hi (Gershgorin) bracketing the
    spectral radius, sigma1 = EIG_TOL * (1 + rho_lo) - m and sigma2 =
    EIG_TOL * (1 + rho_hi) + m with m = COUNT_MARGIN * rho_hi bracket the
    eigvalsh threshold with both methods' rounding.  Where the counts at
    sigma1 and sigma2 agree for both signs no eigenvalue is near the
    threshold, so they are the eigvalsh counts; elsewhere ``decided`` is
    False.  eigvalsh reads the lower triangle; so does the screen.
    """
    N = members.shape[-1]
    A = np.ascontiguousarray(members.transpose(1, 2, 0))
    upper = np.triu_indices(N, 1)
    A[upper] = A[upper[::-1]]
    d, e = _tridiagonal(A)
    ad, ae = np.abs(d), np.abs(e)
    rho_lo = ad.max(axis=0)
    gersh = ad.copy()
    gersh[:-1] += ae
    gersh[1:] += ae
    rho_hi = gersh.max(axis=0)
    margin = COUNT_MARGIN * rho_hi
    sigma1 = EIG_TOL * (1.0 + rho_lo) - margin
    sigma2 = EIG_TOL * (1.0 + rho_hi) + margin
    # counting on T / rho_hi keeps e^2 and the pivots clear of overflow
    scale = 1.0 / np.where(rho_hi > 0.0, rho_hi, 1.0)
    shifts = np.stack([sigma1, sigma2, -sigma2, -sigma1]) * scale
    es = e * scale
    below = _below_counts(d * scale, es * es, shifts)
    decided = ((below[0] == below[1]) & (below[2] == below[3])
               & np.isfinite(rho_hi))
    return N - below[1], below[2], decided


def _inertia_counts(members: np.ndarray) -> tuple:
    """Positive and negative inertia counts of each stacked member.

    Eigenvalues within EIG_TOL * (1 + spectral radius) of zero count as zero,
    member by member; the counts are the ones eigvalsh and that threshold
    give.  Stacks of SCREEN_MIN_MEMBERS or more are screened by Sturm
    counts (``_screen_counts``) in chunks of SCREEN_CHUNK_ENTRIES matrix
    entries, and only the members with an eigenvalue near the threshold
    take eigvalsh.
    """
    K = len(members)
    if K < SCREEN_MIN_MEMBERS:
        return _eigvalsh_counts(members)
    members = np.asarray(members, dtype=np.float64)
    step = max(1, SCREEN_CHUNK_ENTRIES // members[0].size)
    pos = np.empty(K, dtype=np.intp)
    neg = np.empty(K, dtype=np.intp)
    decided = np.empty(K, dtype=bool)
    # a pivot that overflows to -inf still counts right, and non-finite
    # members end undecided
    with np.errstate(all="ignore"):
        for start in range(0, K, step):
            chunk = slice(start, start + step)
            pos[chunk], neg[chunk], decided[chunk] = _screen_counts(
                members[chunk])
    if not decided.all():
        pos[~decided], neg[~decided] = _eigvalsh_counts(members[~decided])
    return pos, neg


def max_rank_inertia(members: np.ndarray) -> tuple:
    """Positive and negative inertia counts of the maximal-rank members.

    ``members`` stacks symmetric matrices; eigenvalues within
    EIG_TOL * (1 + spectral radius) of zero count as zero, member by member.
    The counts are the eigvalsh-threshold counts; ``_inertia_counts``
    obtains them by Sturm counts on large stacks.
    """
    return _at_max_rank(*_inertia_counts(members))


def _at_max_rank(pos: np.ndarray, neg: np.ndarray) -> tuple:
    """The counts of the members of largest rank pos + neg."""
    rank = pos + neg
    at_max = rank == rank.max()
    return pos[at_max], neg[at_max]


def _circle_counts(P: SymPencil, th: np.ndarray) -> tuple:
    """Positive and negative inertia counts of the members at angles th.

    A block of CIRCLE_BLOCK consecutive angles is clear when every
    eigenvalue lam of its middle member (the anchor, spectral radius rho)
    has |lam| > EIG_TOL * (1 + rho + d) + d, d = (reach + COUNT_MARGIN) R
    and reach the block's largest |t - t_anchor|.  By Weyl a member's
    eigvalsh eigenvalues then lie within d of lam: its spectral radius is
    at most rho + d, so its threshold is below |lam| - d, and it has the
    anchor's signs and full rank.  The other blocks' members go through
    ``_inertia_counts``.
    """
    c = np.cos(th)[:, None, None]
    s = np.sin(th)[:, None, None]
    starts = np.arange(0, len(th), CIRCLE_BLOCK)
    sizes = np.diff(starts, append=len(th))
    anchors = starts + sizes // 2
    reach = np.maximum.reduceat(np.abs(th - np.repeat(th[anchors], sizes)),
                                starts)
    R = np.hypot(*np.abs(np.linalg.eigvalsh(np.stack([P.A1, P.A2]))).max(1))
    drift = (reach + COUNT_MARGIN) * R
    evals = np.linalg.eigvalsh(P.member(c[anchors], s[anchors]))
    bound = EIG_TOL * (1.0 + np.abs(evals).max(axis=1) + drift) + drift
    clear = (np.abs(evals) > bound[:, None]).all(axis=1)
    pos = np.repeat((evals > 0.0).sum(axis=1), sizes)
    neg = P.dim - pos
    opened = ~np.repeat(clear, sizes)
    if opened.any():
        pos[opened], neg[opened] = _inertia_counts(
            P.member(c[opened], s[opened]))
    return pos, neg


def type_sampled(P: SymPencil, samples: int = MEMBER_SAMPLES) -> int:
    """Minimum positive inertia over sampled maximal-rank members.

    Samples lam on the half-circle lam2 >= 0; the antipodal member -M has
    swapped inertia, so both counts of every sample enter the minimum,
    taken over the maximal-rank members as ``max_rank_inertia`` takes it.
    The counts are the eigvalsh-threshold counts, member for member, by a
    Weyl certificate: one eigvalsh of the middle member of each block of
    CIRCLE_BLOCK samples decides the whole block when its eigenvalues
    clear the threshold by the block's drift (reach + COUNT_MARGIN) R, R =
    hypot(|A1|_2, |A2|_2); COUNT_MARGIN covers the eigvalsh and rounding
    error of both the anchor and the member.  The members of the other
    blocks are counted one by one (``_inertia_counts``).
    """
    if samples < 8:
        raise ValueError("samples must be at least 8")
    if not (P.A1.any() or P.A2.any()):
        raise ZeroPencil("both pencil matrices are zero")
    th = np.linspace(0.0, np.pi, samples, endpoint=False)
    pos, neg = _at_max_rank(*_circle_counts(P, th))
    return int(min(pos.min(), neg.min()))


@dataclass(frozen=True)
class SpectralData:
    """Simultaneous normal form of a generic pencil.

    ``real_pairs`` holds r tuples (alpha_i, beta_i): the values of the two
    forms on a common eigendirection, scaled so that beta_i = +-1 (or
    alpha_i = +-1 when the direction is annihilated by A2).
    ``complex_pairs`` holds s tuples (rho_t, nu_t) with nu_t > 0, one per
    two-dimensional complex-eigenvalue block.
    """

    real_pairs: tuple
    complex_pairs: tuple

    def __post_init__(self):
        for a, b in self.real_pairs:
            if a == 0.0 and b == 0.0:
                raise ValueError("real pair (0, 0) is not admissible")
        for rho, nu in self.complex_pairs:
            if nu <= 0.0:
                raise ValueError("complex pairs need nu > 0")

    @property
    def r(self) -> int:
        return len(self.real_pairs)

    @property
    def s(self) -> int:
        return len(self.complex_pairs)

    @property
    def dim(self) -> int:
        return self.r + 2 * self.s


def _cluster_1d(values: np.ndarray, tol: float) -> list:
    """Greedy chains of sorted scalars with gaps <= tol: [(center, count)]."""
    out = []
    start = 0
    values = np.sort(values)
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] - values[i - 1] > tol:
            chunk = values[start:i]
            out.append((float(chunk.mean()), len(chunk)))
            start = i
    return out


def _cluster_2d(points: list, tol: float) -> list:
    """Greedy clusters of 2d points within tol: [((x, y), count)]."""
    out = []
    for pt in sorted(points):
        for k, (center, count) in enumerate(out):
            if np.hypot(pt[0] - center[0], pt[1] - center[1]) <= tol:
                cx = (center[0] * count + pt[0]) / (count + 1)
                cy = (center[1] * count + pt[1]) / (count + 1)
                out[k] = ((cx, cy), count + 1)
                break
        else:
            out.append(((pt[0], pt[1]), 1))
    return out


# (pencil, split) of the last successful spectral_split: one slot rather
# than one split per pencil object, which would live as long as its pencil
_last_split = (None, None)


def spectral_split(P: SymPencil) -> SpectralData:
    """Decompose a generic pencil into real directions and complex blocks.

    Works through the eigenstructure of B^-1 C where B is the first
    well-conditioned reference member (A2, A1, A1 + A2, then equispaced
    angles) and C its complement; raises SingularA2 when none is.
    Root subspaces of that operator are the common invariant subspaces of
    the pencil, so the extracted (alpha, beta) data do not depend on
    which member was inverted.  The last pencil object split keeps its
    split, so ``genericity_check`` and a caller that asks next share one;
    a failed split is not kept and raises again on every call.
    """
    global _last_split
    last, spec = _last_split
    if last is not P:
        spec = _split(P)
        _last_split = P, spec
    return spec


def _split(P: SymPencil) -> SpectralData:
    A1, A2 = P.A1, P.A2
    N = P.dim
    b, c, _, full = P._reference
    if not full:
        raise SingularA2(f"no probe has condition below {PENCIL_COND_LIMIT:g}")
    B, C = P.member(*b), P.member(*c)
    W = np.linalg.solve(B, C)
    evals = np.linalg.eigvals(W)
    specrad = float(np.abs(evals).max(initial=0.0))
    ctol = CLUSTER_TOL * (1.0 + specrad)
    ntol = EIG_TOL * (1.0 + specrad)

    real_evals = np.array([e.real for e in evals if abs(e.imag) <= ctol])
    complex_evals = [(e.real, e.imag) for e in evals if e.imag > ctol]
    if len(real_evals) + 2 * len(complex_evals) != N:
        raise NotSemisimple("unpaired complex eigenvalues")

    real_pairs = []
    for center, mult in _cluster_1d(real_evals, ctol):
        _, sv, vt = np.linalg.svd(C - center * B)
        K = vt[~rank_mask(sv, ntol * (1.0 + abs(center)),
                          max(1.0, float(np.abs(B).max(initial=0.0))))].T
        if K.shape[1] != mult:
            raise NotSemisimple(
                f"eigenvalue {center:.6g} has multiplicity {mult} but "
                f"eigenspace dimension {K.shape[1]}")
        GB = K.T @ B @ K
        d, Q = np.linalg.eigh(GB)
        if np.abs(d).min() <= EIG_TOL * (1.0 + np.abs(d).max()):
            raise NotSemisimple("degenerate restriction on a root subspace")
        for k in range(mult):
            w = K @ Q[:, k]
            a = float(w @ A1 @ w)
            b = float(w @ A2 @ w)
            if abs(b) > EIG_TOL * (1.0 + abs(a)):
                real_pairs.append((a / abs(b), float(np.sign(b))))
            elif abs(a) > 0.0:
                # arises when A2 is singular on this direction; normalize
                # by the first form instead
                real_pairs.append((float(np.sign(a)), b / abs(a)))
            else:
                raise NotSemisimple("direction annihilated by both forms")

    complex_pairs = []
    for (re, im), mult in _cluster_2d(complex_evals, ctol):
        Wsq = W @ W - 2.0 * re * W + (re * re + im * im) * np.eye(N)
        _, sv, vt = np.linalg.svd(Wsq)
        K = vt[~rank_mask(sv, ntol, 1.0 + sv[0])].T
        if K.shape[1] != 2 * mult:
            raise NotSemisimple(
                f"complex eigenvalue {re:.6g}+{im:.6g}i has multiplicity "
                f"{mult} but invariant subspace dimension {K.shape[1]}")
        M1 = K.T @ A1 @ K
        M2 = K.T @ A2 @ K
        ev = np.linalg.eigvals(np.linalg.solve(M2, M1))
        found = sorted((float(e.real), float(e.imag)) for e in ev
                       if e.imag > 0.0)
        if len(found) != mult:
            raise NotSemisimple("complex block restriction did not split")
        complex_pairs.extend(found)

    real_pairs.sort(key=lambda p: (atan2(p[1], p[0]) % (2 * pi), p[0]))
    complex_pairs.sort()
    return SpectralData(tuple(real_pairs), tuple(complex_pairs))


def build_from_spectral(S: SpectralData) -> SymPencil:
    """Direct-sum pencil realizing the spectral data exactly."""
    N = S.dim
    A1 = np.zeros((N, N))
    A2 = np.zeros((N, N))
    idx = 0
    for a, b in S.real_pairs:
        A1[idx, idx] = a
        A2[idx, idx] = b
        idx += 1
    for rho, nu in S.complex_pairs:
        A1[idx, idx] = nu
        A1[idx + 1, idx + 1] = -nu
        A1[idx, idx + 1] = A1[idx + 1, idx] = rho
        A2[idx, idx + 1] = A2[idx + 1, idx] = 1.0
        idx += 2
    return SymPencil.make(A1, A2)


def type_exact(S: SpectralData) -> int:
    """Pencil type from spectral data by an exact circular sweep.

    Complex blocks contribute inertia (1, 1) to every nonzero member, so
    they add s to the positive count and never drop rank.  The remaining
    minimum is taken over open arcs between the angles where some
    lam . (alpha_i, beta_i) changes sign; every member inside an open arc
    has full rank.
    """
    s = S.s
    if S.r == 0:
        return s
    pts = np.asarray(S.real_pairs, dtype=np.float64)
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    crit = np.concatenate([(phi + 0.5 * np.pi) % (2 * np.pi),
                           (phi + 1.5 * np.pi) % (2 * np.pi)])
    crit = np.sort(crit)
    keep = np.concatenate([[True], np.diff(crit) > ARC_MERGE_TOL])
    crit = crit[keep]
    mids = (crit + np.diff(np.concatenate([crit, [crit[0] + 2 * np.pi]])) / 2.0)
    counts = [(np.cos(th) * pts[:, 0] + np.sin(th) * pts[:, 1] > 0.0).sum()
              for th in mids]
    return s + int(min(counts))


def pencil_type(P: SymPencil) -> int:
    """Pencil type by an exact sweep over the arcs of constant inertia.

    Maximal-rank members keep their inertia between the angles where the
    rank drops (Lancaster & Rodman, SIAM Review 47, 2005).  There Q^T A Q
    is singular, Q spanning the range of the reference B, so the member A
    is a multiple of C - mu B for an eigenvalue mu of (Q^T B Q)^-1 Q^T C Q.
    The real parts of complex mu and the reference angle (a root when B
    is singular; never an empty list) add angles, which only split arcs.
    """
    b, c, sv, _ = P._reference
    B, C = P.member(*b), P.member(*c)
    d, V = np.linalg.eigh(B)
    Q = V[:, rank_mask(np.abs(d), 1 / PENCIL_COND_LIMIT, sv[0])]  # range of B
    mu = np.linalg.eigvals(np.linalg.solve(Q.T @ B @ Q, Q.T @ C @ Q)).real
    th = np.arctan2(c[1] - mu * b[1], c[0] - mu * b[0])
    crit = np.unique(np.append(th, atan2(b[1], b[0])) % np.pi)
    mids = (crit + np.diff(crit, append=crit[0] + np.pi) / 2.0)[:, None, None]
    pos, neg = max_rank_inertia(P.member(np.cos(mids), np.sin(mids)))
    return int(min(pos.min(), neg.min()))


@dataclass(frozen=True)
class CanonicalData:
    """Angle-block configuration: 2l-1 real blocks plus s hyperbolic pairs.

    ``n`` lists the real block sizes at angles 2*pi*j/(2l-1), j = 1..2l-1
    (empty when l = 0); ``s`` counts the hyperbolic (complex) pairs.
    """

    l: int
    n: tuple
    s: int

    def __post_init__(self):
        object.__setattr__(self, "n", tuple(int(v) for v in self.n))
        if self.l < 0 or self.s < 0:
            raise ValueError("l and s must be nonnegative")
        expected = 0 if self.l == 0 else 2 * self.l - 1
        if len(self.n) != expected:
            raise ValueError(f"l={self.l} needs {expected} block sizes, "
                             f"got {len(self.n)}")
        if any(v < 1 for v in self.n):
            raise ValueError("all block sizes must be positive")
        if self.dim < 1:
            raise ValueError("empty configuration")

    @property
    def r(self) -> int:
        return sum(self.n)

    @property
    def dim(self) -> int:
        return self.r + 2 * self.s


def build_canonical(C: CanonicalData) -> SymPencil:
    """Pencil with cos/sin angle blocks and hyperbolic pairs."""
    K = 2 * C.l - 1
    # j = K closes the circle: take the angle 0 branch exactly, so the
    # l = 1 block writes sin = 0.0 rather than sin(2*pi) rounding dirt
    # (a 1x1 A2 holding only that dirt would pass the conditioning
    # gate and poison the split)
    angles = [2.0 * pi * (j % K) / K
              for j, size in enumerate(C.n, start=1) for _ in range(size)]
    return build_from_spectral(SpectralData(
        tuple((cos(th), sin(th)) for th in angles), ((0.0, 1.0),) * C.s))


def canonical_from_spectral(S: SpectralData) -> CanonicalData:
    """Recognize spectral data sitting at canonical angles.

    Positive rescaling of a real pair is a congruence (scale the
    eigenvector), so each pair counts as a ray; its angle must land at
    2*pi*j/K for odd K, each angle occupied.  Complex pairs must be the
    canonical (0, 1).  No general reduction is attempted; data away from
    canonical position is rejected.
    """
    tol = CANONICAL_ANGLE_TOL
    for rho, nu in S.complex_pairs:
        if abs(rho) > tol or abs(nu - 1.0) > tol:
            raise ValueError(f"complex pair ({rho}, {nu}) is not the "
                             "canonical (0, 1)")
    if S.r == 0:
        return CanonicalData(l=0, n=(), s=S.s)
    angles = sorted(atan2(b, a) % (2 * pi) for a, b in S.real_pairs)
    # one direction per gap wider than tol around the circle
    K = sum(t - u > tol for u, t in
            zip(angles, angles[1:] + [angles[0] + 2 * pi]))
    if K % 2 == 0:
        raise ValueError(f"{K} distinct directions: canonical configurations "
                         "have an odd count")
    counts = [0] * K
    for th in angles:
        j = round(th * K / (2 * pi))
        if abs(th - 2 * pi * j / K) > tol:
            raise ValueError(f"direction angle {th:.9f} is not at a "
                             f"canonical position for K={K}")
        counts[(j - 1) % K] += 1    # j = 1..K, with j = 0 taken as K
    if 0 in counts:
        raise ValueError("not all canonical angles are occupied")
    return CanonicalData(l=(K + 1) // 2, n=tuple(counts), s=S.s)


@dataclass(frozen=True)
class TopologyLabel:
    """Diffeomorphism type of {phi1 = 0, phi2 = 0} on the unit sphere."""

    case: str
    spheres: tuple = ()
    note: str = ""

    def dimension(self):
        if self.case == "Empty":
            return None
        if self.case == "UnitTangentBundleOfSphere":
            return 2 * self.spheres[0] - 1
        if self.case == "ConnectedSum":
            return self.spheres[0][0] + self.spheres[0][1]
        return int(sum(self.spheres))

    def to_dict(self) -> dict:
        out = {"case": self.case,
               "spheres": [list(p) if isinstance(p, tuple) else p
                           for p in self.spheres],
               "dimension": self.dimension()}
        if self.note:
            out["note"] = self.note
        return out


def classify_topology(C: CanonicalData) -> TopologyLabel:
    r, s, l = C.r, C.s, C.l
    if r == 0:
        if s <= 1:
            return TopologyLabel("Empty")
        return TopologyLabel("UnitTangentBundleOfSphere", (s - 1,))
    if l == 1:
        if s == 0:
            return TopologyLabel("Empty")
        return TopologyLabel("ProductTwoSpheres", (s - 1, r + s - 2))
    if l == 2 and s == 0:
        return TopologyLabel(
            "ProductThreeSpheres", tuple(v - 1 for v in C.n),
            note="configuration also matches the connected-sum reading; "
                 "classified as the three-sphere product")
    if l >= 2 and l + s > 2:
        # d_j = n_j + ... + n_{j+l-2}, cyclic windows of length l-1
        K = 2 * l - 1
        d = [sum(C.n[(j + t) % K] for t in range(l - 1)) for j in range(K)]
        return TopologyLabel(
            "ConnectedSum",
            tuple((dj + s - 1, r - dj + s - 2) for dj in d))
    raise UnclassifiedConfiguration(f"l={l}, n={C.n}, s={s} matches no case")


@dataclass(frozen=True)
class GenericityReport:
    det_not_identically_zero: bool
    semisimple: bool
    smooth_intersection: bool
    method: str
    notes: tuple = ()

    def to_dict(self) -> dict:
        return {"detNotIdenticallyZero": self.det_not_identically_zero,
                "semisimple": self.semisimple,
                "smoothIntersection": self.smooth_intersection,
                "method": self.method,
                "notes": list(self.notes)}


def genericity_check(P: SymPencil, seed: int = 0) -> GenericityReport:
    """The three genericity conditions, reported rather than enforced."""
    det_ok = P._reference[3]
    try:
        spectral = spectral_split(P)
    except (NotSemisimple, SingularA2) as exc:
        smooth, extra = _smooth_sampled(P, seed)
        return GenericityReport(det_ok, False, smooth, "sampled", (
            ("spectral split failed: " if isinstance(exc, NotSemisimple)
             else "semisimplicity untested: ") + str(exc), *extra))
    notes = []
    angles = [atan2(b, a) % (2 * pi) for a, b in spectral.real_pairs]
    for i in range(len(angles)):
        for j in range(i + 1, len(angles)):
            if abs(abs(angles[i] - angles[j]) - pi) <= ANTIPODAL_TOL:
                notes.append(f"real directions {i} and {j} are antipodal: "
                             "the origin lies in their convex hull")
    return GenericityReport(det_ok, True, not notes, "spectral", tuple(notes))


def _smooth_sampled(P: SymPencil, seed: int) -> tuple:
    """Fallback smoothness probe: dependency functional on located C points."""
    N = P.dim
    zeros3 = np.zeros((N, N, N))
    scale = 1.0 + max(float(np.abs(P.A1).max(initial=0.0)),
                      float(np.abs(P.A2).max(initial=0.0)))
    found = []
    for start in range(32):
        x = _single_descent(P.A1, P.A2, zeros3, zeros3, [seed, 7919, start])
        if x is not None:
            found.append(x)
    if not found:
        return True, ("no intersection points located; the common zero set "
                      "may be empty",)
    worst = min(np.linalg.svd(np.stack([P.A1 @ x, P.A2 @ x], axis=1),
                              compute_uv=False)[-1] for x in found)
    return bool(worst > SMOOTH_TOL * scale), (
        f"sampled dependency functional minimum {worst:.3e} over "
        f"{len(found)} located points",)


# -- common zero search -------------------------------------------------------


def _sym_cubic(T, name: str, N: int) -> np.ndarray:
    T = np.asarray(T, dtype=np.float64)
    if T.shape != (N, N, N):
        raise ValueError(f"{name} must have shape {(N, N, N)}, got {T.shape}")
    if not np.isfinite(T).all():
        raise ValueError(f"{name} has non-finite entries")
    return sym3(T)


def _residuals(A1, A2, T1, T2, x):
    return np.array([x @ A1 @ x, x @ A2 @ x,
                     np.einsum("ijk,i,j,k->", T1, x, x, x),
                     np.einsum("ijk,i,j,k->", T2, x, x, x)])


def _jacobian(A1, A2, T1, T2, x):
    return np.stack([2.0 * A1 @ x, 2.0 * A2 @ x,
                     3.0 * np.einsum("ijk,j,k->i", T1, x, x),
                     3.0 * np.einsum("ijk,j,k->i", T2, x, x)])


def _gauss_newton(residual, jacobian, x, iters: int, stop: float):
    """Damped Gauss-Newton: halve each least-squares step (up to 25 times)
    until the squared residual drops; stop once it is <= ``stop``, when no
    halving improves, or after ``iters`` steps.  Returns (x, residual^2)."""
    r = residual(x)
    val = float(r @ r)
    for _ in range(iters):
        if val <= stop:
            break
        step, *_ = np.linalg.lstsq(jacobian(x), -r, rcond=None)
        scale = 1.0
        for _ in range(25):
            xn = x + scale * step
            rn = residual(xn)
            vn = float(rn @ rn)
            if vn < val:
                x, r, val = xn, rn, vn
                break
            scale *= 0.5
        else:
            break
    return x, val


def _project_to_quadrics(A1, A2, x):
    """Newton least squares onto {phi1 = 0, phi2 = 0, |x| = 1}."""
    return _gauss_newton(
        lambda y: np.array([y @ A1 @ y, y @ A2 @ y, y @ y - 1.0]),
        lambda y: np.stack([2.0 * A1 @ y, 2.0 * A2 @ y, 2.0 * y]),
        x, 60, 1e-28)


def _single_descent(A1, A2, T1, T2, seed_seq):
    """One multistart arm: project a seeded random start onto the quadrics
    and the sphere, then polish all residuals by damped Gauss-Newton (which
    converges locally from there).  Returns the unit zero or None."""
    N = A1.shape[0]
    rng = np.random.default_rng(seed_seq)
    x = rng.standard_normal(N)
    x /= np.linalg.norm(x)

    x, qval = _project_to_quadrics(A1, A2, x)
    if qval > 1e-18:
        return None

    # damped Gauss-Newton polish on all residuals plus the sphere constraint
    x, _ = _gauss_newton(
        lambda y: np.concatenate([_residuals(A1, A2, T1, T2, y),
                                  [y @ y - 1.0]]),
        lambda y: np.concatenate([_jacobian(A1, A2, T1, T2, y), [2.0 * y]]),
        x, 50, 1e-30)

    x = x / np.linalg.norm(x)
    r = _residuals(A1, A2, T1, T2, x)
    if float(r @ r) <= RESIDUAL_SQ:
        return x
    return None


def common_zero_search(phi1, phi2, psi1, psi2,
                       budget: int = ZERO_SEARCH_BUDGET, seed: int = 0):
    """Unit-sphere common zero of two quadratics and two cubics, or None.

    Runs ``budget`` independent arms (quadric projection, then damped
    Gauss-Newton on all residuals), each from a deterministically seeded
    random start.  Success means phi1^2 + phi2^2 + psi1^2 + psi2^2 <= 1e-16
    at a unit vector.  Coefficients are checked as ``SymPencil.make``
    checks matrices: wrong shapes and non-finite entries raise ValueError.
    """
    A1 = sym_matrix(phi1, "phi1")
    A2 = sym_matrix(phi2, "phi2")
    N = A1.shape[0]
    if A2.shape != A1.shape:
        raise ValueError("phi1 and phi2 must have the same dimension")
    T1 = _sym_cubic(psi1, "psi1", N)
    T2 = _sym_cubic(psi2, "psi2", N)
    if budget < 1:
        raise ValueError("budget must be positive")

    e1 = np.zeros(N)
    e1[0] = 1.0
    r = _residuals(A1, A2, T1, T2, e1)
    if float(r @ r) <= RESIDUAL_SQ:
        return e1

    for start in range(budget):
        x = _single_descent(A1, A2, T1, T2, [seed, start])
        if x is not None:
            return x
    return None
