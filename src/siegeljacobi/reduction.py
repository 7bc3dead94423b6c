"""Reduction into fundamental domains with certificates.

Three layers: Minkowski reduction of positive forms (n <= 3, certified over
an enumerated vector set), Siegel reduction of half-space points (classical
scalar algorithm for n = 1, highest-point iteration with a finite candidate
scan for n in {2, 3}), and reduction of the toroidal coordinate of a
Siegel-Jacobi point by an integral Heisenberg translation.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import combinations, permutations, product
from math import gcd, isfinite

import numpy as np

from . import groups
from .errors import ConvergenceError, DimensionError, DomainError
from .groups import (HeisenbergElement, JacobiGroupElement, SymplecticElement,
                     dilation, embedded_sl2, inversion, translation)
from .linalg import _cofactor_det, close_each, real_array, require_conditioned, safe_inv
from .spaces import JacobiPoint, SiegelPoint

ENUM_BOUND = 3
DET_SLACK = 1e-12
# slack of the domain edges |Re Omega| <= 1/2, |Omega| >= 1 (n = 1) and of the
# toroidal cell's lower bound 0; the floors that move Z into the cell add it too,
# so a coefficient just below an integer, kept by the floor, passes the bound
DOMAIN_SLACK = 1e-12
CERT_TOL = 1e-9
# iterations of siegel_reduce before it raises ConvergenceError
MAX_ITER = 200


@dataclass
class ReductionCertificate:
    gamma: object
    iterations: int
    checks: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


# -- Minkowski reduction ---------------------------------------------------------

@cache
def _box(n: int, bound: int):
    """Nonzero integer vectors with |entries| <= bound in lexicographic order,
    and a mask whose column k says that the tail a_k..a_n is coprime; both
    read-only."""
    vecs = np.array(list(product(range(-bound, bound + 1), repeat=n)), dtype=int)
    vecs = vecs[vecs.any(axis=1)]
    tail_gcd = np.gcd.accumulate(np.abs(vecs[:, ::-1]), axis=1)[:, ::-1]
    coprime_tail = tail_gcd == 1
    vecs.flags.writeable = coprime_tail.flags.writeable = False
    return vecs, coprime_tail


@cache
def _primitive_vectors(n: int, bound: int):
    """Primitive integer vectors with |entries| <= bound, one per +- pair
    (first nonzero entry positive), as a read-only int array."""
    vecs, coprime_tail = _box(n, bound)
    first = vecs[np.arange(len(vecs)), np.argmax(vecs != 0, axis=1)]
    out = vecs[coprime_tail[:, 0] & (first > 0)]
    out.flags.writeable = False
    return out


def _forms(vecs, y):
    """a y ta for every row a of vecs, as a stack of 1 x n by n x 1 products
    (bitwise equal to the per-vector ``a @ y @ a``)."""
    return ((vecs @ y)[:, None, :] @ vecs[:, :, None])[:, 0, 0]


def _minors_coprime(rows) -> bool:
    """True iff the k x k minors of the stacked rows have gcd 1 (the row set
    extends to a unimodular matrix)."""
    return _coprime_minors(tuple(map(tuple, np.asarray(rows, dtype=int).tolist())))


@cache
def _coprime_minors(rows) -> bool:
    """``_minors_coprime`` on a tuple of integer rows, kept: a reduction asks
    about the same few row sets again and again. Minors (k <= 3) are exact ints."""
    g = 0
    for cols in combinations(range(len(rows[0])), len(rows)):
        g = gcd(g, _cofactor_det([[row[j] for j in cols] for row in rows], len(rows)))
        if g == 1:
            return True
    return False


def _sign_fix(y):
    """Diagonal +-1 similarity making the superdiagonal nonnegative."""
    n = y.shape[0]
    s = np.ones(n)
    for k in range(n - 1):
        s[k + 1] = 1.0 if s[k] * y[k, k + 1] >= 0 else -1.0
    return np.diag(s.astype(int))


def minkowski_reduce(y):
    """Greedy successive-minima reduction; returns (U y tU, U) unimodular U.

    Covers n <= 3 only (DimensionError otherwise); the candidate vectors fill
    the max-norm box of radius ENUM_BOUND, the certification boundary.
    """
    y = real_array(y, "y")
    if y.ndim != 2 or not 0 < y.shape[0] == y.shape[1] <= 3:
        raise DimensionError(f"y must be one n x n matrix, n <= 3, got shape {y.shape}")
    if not np.isfinite(y).all():
        raise DomainError("y has non-finite entries")
    n = y.shape[0]
    if not close_each(y, y.T):
        raise DomainError("expected a real symmetric matrix")
    # own positivity test: a reduction calls this hundreds of times on a valid
    # Im Omega, and real_symmetric + positive_each cost the reduce benchmark +10%
    # (wall_s median 0.108 -> 0.119 s, 4 alternating pairs, one BLAS thread, 2 cores)
    if np.linalg.eigvalsh(y)[0] <= 0:
        raise DomainError("matrix is not positive definite")
    cands = _primitive_vectors(n, ENUM_BOUND)
    # ascending in (a y ta, a): lexsort takes its primary key last
    order = np.lexsort((*cands.T[::-1], _forms(cands, y)))
    rows = []
    for _ in range(n):
        for idx in order:
            a = cands[idx]
            if rows and not _minors_coprime(rows + [a]):
                continue
            rows.append(a)
            break
        else:
            raise DomainError("no extendable candidate vector found")
    u = np.array(rows, dtype=int)
    d = _sign_fix(u @ y @ u.T)
    u = d @ u
    return u @ y @ u.T, u


def minkowski_violations(y):
    """Violations of the reduction conditions over the vector box of radius
    ENUM_BOUND, each beyond the relative slack CERT_TOL: for each k, vectors
    a with coprime tail a_k..a_n must satisfy a y ta >= y_kk; superdiagonal
    entries must be nonnegative."""
    y = real_array(y, "y")
    if y.ndim != 2 or y.shape[0] != y.shape[1] or not y.size:
        raise DimensionError(f"y must be one square matrix, got shape {y.shape}")
    n = y.shape[0]
    scale = float(np.max(np.abs(y)))
    if not isfinite(scale):
        raise DomainError("y has non-finite entries")
    vecs, coprime_tail = _box(n, ENUM_BOUND)
    q = _forms(vecs, y)
    short = coprime_tail & (q[:, None] < np.diag(y) - CERT_TOL * scale)
    viols = [(tuple(int(x) for x in vecs[i]), int(k), float(q[i]), float(y[k, k]))
             for i, k in zip(*np.nonzero(short))]
    for k in range(n - 1):
        if y[k, k + 1] < -CERT_TOL * scale:
            viols.append(("superdiagonal", k, float(y[k, k + 1]), 0.0))
    return viols


# -- Siegel reduction -------------------------------------------------------------

def _candidate_generators(n: int):
    gens = []
    for i, j in [(i, i) for i in range(n)] + list(combinations(range(n), 2)):
        b = np.zeros((n, n))
        b[i, j] = b[j, i] = 1.0
        gens += [translation(b), translation(-b)]
    for perm in permutations(range(n)):
        if perm != tuple(range(n)):
            gens.append(dilation(np.eye(n)[list(perm)]))
    for signs in list(product([1.0, -1.0], repeat=n))[1:]:    # all but the identity
        gens.append(dilation(np.diag(signs)))
    gens.append(inversion(n))
    s_mat = [[0.0, -1.0], [1.0, 0.0]]
    for k in range(n):
        gens.append(embedded_sl2(s_mat, n, k))
    return gens


@cache
def siegel_candidates(n: int):
    """Deterministic finite candidate set: short words in the generator list."""
    gens = _candidate_generators(n)
    max_len = 3 if n <= 2 else 2
    seen = {}
    frontier = [SymplecticElement.identity(n)]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for g in gens:
                cand = w.multiply(g)
                key = np.round(cand.mat, 9).tobytes()
                neg = np.round(-cand.mat, 9).tobytes()
                if key in seen or neg in seen:
                    continue
                seen[key] = cand
                nxt.append(cand)
        frontier = nxt
    return tuple(seen.values())


@cache
def _candidate_blocks(n: int):
    """The C blocks of ``siegel_candidates(n)`` stacked into one complex
    (K n) x n matrix, and the D blocks as a K x n x n stack; both read-only."""
    mats = np.array([g.mat for g in siegel_candidates(n)])
    c = mats[:, n:, :n].reshape(-1, n).astype(complex)
    d = mats[:, n:, n:]
    c.flags.writeable = d.flags.writeable = False
    return c, d


def candidate_det_ratios(p: SiegelPoint):
    """det Im(g Omega) / det Im(Omega) for every g in
    ``siegel_candidates(p.n)``, in order.

    Siegel's identity det Im(g Omega) = det Y / |det(C Omega + D)|^2 gives all
    of them from one stacked determinant, the one the conditioning guard of
    ``linalg.safe_solve`` returns, so an ill-conditioned candidate raises
    NumericError as its action would. It is a cofactor expansion, with no LU;
    its rounding stays inside DET_SLACK, the scan's tie rule.

    All C Omega blocks come from one (K n) x n by n x n product. Every C
    entry is -1, 0 or 1, with at most two nonzeros per row at n = 2 and one
    at n = 3, so each entry of C Omega is an exact product or one rounded sum
    of two: any summation order, and the per-candidate ``c @ Omega``, give
    the same bits.
    """
    c, d = _candidate_blocks(p.n)
    return 1.0 / np.abs(require_conditioned((c @ p.omega).reshape(d.shape) + d)) ** 2


def _reduce_degree_one(p: SiegelPoint):
    omega = complex(p.omega[0, 0])
    gamma = np.eye(2)
    for it in range(MAX_ITER):
        shift = -np.round(omega.real)
        omega += shift
        gamma = np.array([[1.0, shift], [0.0, 1.0]]) @ gamma
        # |omega| >= 1 first: the square of a far point overflows a float
        if abs(omega) < 1.0 and abs(omega) ** 2 < 1.0 - 1e-15:
            omega = -1.0 / omega
            gamma = np.array([[0.0, -1.0], [1.0, 0.0]]) @ gamma
            continue
        if abs(omega.real) <= 0.5:
            return SiegelPoint(np.array([[omega]])), SymplecticElement(gamma), it + 1
    raise ConvergenceError("degree-1 reduction did not converge",
                           partial=ReductionCertificate(SymplecticElement(gamma), MAX_ITER))


def siegel_reduce(p: SiegelPoint):
    """Highest-point reduction to the Siegel fundamental domain.

    Returns (reduced point, certificate). The reduced point satisfies the
    Minkowski condition on Im and |Re| <= 1/2 entrywise exactly; the maximal
    det Im condition is certified against the finite candidate set only. At
    n >= 2 the certificate takes two checks from the loop's last iteration,
    which ended on the reduced point: the candidate scan and the Minkowski
    verdict on Im Omega, which the closing real translation keeps. It makes
    the replay, the symplectic relation and the bound on Re afresh.
    """
    n = p.n
    ratios = None
    if n == 1:
        out, gamma, iters = _reduce_degree_one(p)
    else:
        if n > 3:
            raise DimensionError("siegel_reduce supports n <= 3")
        cands = siegel_candidates(n)
        gamma = SymplecticElement.identity(n)
        current = p
        iters = 0
        converged = False
        while iters < MAX_ITER:
            iters += 1
            _, u = minkowski_reduce(current.omega.imag)
            # u unimodular, b below symmetric: both valid by construction
            g1 = SymplecticElement(groups._dilation_matrix(u.T.astype(float)))
            current = groups.act_siegel(g1, current)
            gamma = g1.multiply(gamma)
            # one greedy pass over the box need not reduce a skewed form; the
            # next iteration passes again, within the same MAX_ITER budget
            if minkowski_violations(current.omega.imag):
                continue
            b = -np.round(current.omega.real)
            b = 0.5 * (b + b.T)
            g2 = SymplecticElement(groups._translation_matrix(b))
            current = SiegelPoint(current.omega + b)    # t(b) in closed form, bit for bit
            gamma = g2.multiply(gamma)
            ratios = candidate_det_ratios(current)
            top = ratios.max()
            if not top > 1.0 + DET_SLACK:
                converged = True
                break
            # candidates that differ by a unimodular dilation tie exactly: take
            # the first one within DET_SLACK of the top, not the one rounding favours
            best = cands[int(np.argmax(ratios >= top * (1.0 - DET_SLACK)))]
            current = groups.act_siegel(best, current)
            gamma = best.multiply(gamma)
        if not converged:
            raise ConvergenceError("highest-point iteration hit the cap",
                                   partial=ReductionCertificate(gamma, iters))
        out = current
    return out, ReductionCertificate(gamma, iters, _checks(p, out, gamma, ratios))


def certificate_checks(original: SiegelPoint, reduced: SiegelPoint,
                       gamma: SymplecticElement) -> dict:
    """The certificate's conditions, the replay and candidate scan to CERT_TOL."""
    return _checks(original, reduced, gamma, None)


def _checks(original, reduced, gamma, ratios) -> dict:
    """``certificate_checks``, with ``ratios`` the candidate scan of
    ``reduced`` when the loop has made it (None: scan here). The loop scans
    only once ``minkowski_violations`` has found none on the same Im Omega,
    so its scan stands for that verdict too."""
    replay = groups.act_siegel(gamma, original)
    checks = {
        "gamma_symplectic": gamma.is_valid(),
        "replay_matches": bool(np.max(np.abs(replay.omega - reduced.omega)) <= CERT_TOL),
        "real_part_bounded": bool(np.max(np.abs(reduced.omega.real)) <= 0.5 + DOMAIN_SLACK),
        "im_minkowski": ratios is not None or not minkowski_violations(reduced.omega.imag),
    }
    if reduced.n == 1:
        checks["modulus_at_least_one"] = bool(abs(reduced.omega[0, 0]) >= 1.0 - DOMAIN_SLACK)
    else:
        if ratios is None:
            ratios = candidate_det_ratios(reduced)
        checks["det_im_maximal_over_candidates"] = not (ratios > 1.0 + CERT_TOL).any()
    return checks


# -- Toroidal reduction ------------------------------------------------------------

def toroidal_coefficients(p: JacobiPoint):
    """Real matrices (lam, mu) with Z = lam + mu Omega entrywise."""
    y = p.omega.imag
    mu = (p.z.imag @ safe_inv(y)).real
    lam = p.z.real - mu @ p.omega.real
    return lam, mu


def jacobi_reduce(p: JacobiPoint):
    """Reduce Omega to the Siegel domain, then translate Z into the toroidal
    cell {lam + mu Omega : 0 <= lam, mu < 1} by an integral Heisenberg
    element; returns (reduced point, certificate with the full group element).
    The certificate keeps the Siegel checks, the loop's scan and Minkowski
    verdict among them, but replays the full element on p in place of the
    Siegel replay, and adds the element's validity, the integrality of the
    Heisenberg step and the cell bounds on the output.
    """
    _, cert_s = siegel_reduce(p.siegel_part())
    sp = cert_s.gamma
    moved = groups.act_jacobi(JacobiGroupElement.from_symplectic(sp, p.m), p)
    lam_c, mu_c = toroidal_coefficients(moved)
    # the Heisenberg lambda-slot shifts the Omega-coefficient and the mu-slot
    # shifts the constant coefficient (Z -> Z + lam0 Omega + mu0)
    lam0 = -np.floor(mu_c + DOMAIN_SLACK)
    mu0 = -np.floor(lam_c + DOMAIN_SLACK)
    h = HeisenbergElement(lam0, mu0, lam0 @ mu0.T)
    # h has C = 0 and D = I: act would solve Z + lam0 Omega + mu0 by I (the
    # same values; an exact zero keeps this sum's sign), and h sp needs no
    # product by the identity
    out = JacobiPoint(moved.omega, moved.z + lam0 @ moved.omega + mu0)
    gamma = JacobiGroupElement(sp, h.translate_right(sp))
    lam_f, mu_f = toroidal_coefficients(out)
    checks = dict(cert_s.checks)
    checks.update({
        "gamma_valid": gamma.is_valid(),
        "integral_heisenberg": all((a == np.round(a)).all() for a in (lam0, mu0)),
        "cell_coefficients": all(((c >= -DOMAIN_SLACK) & (c < 1.0)).all() for c in (lam_f, mu_f)),
    })
    replay = groups.act_jacobi(gamma, p)
    checks["replay_matches"] = bool(max(np.max(np.abs(replay.omega - out.omega)),
                                        np.max(np.abs(replay.z - out.z))) <= CERT_TOL)
    return out, ReductionCertificate(gamma, cert_s.iterations, checks)
