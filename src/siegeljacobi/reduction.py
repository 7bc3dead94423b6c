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
from math import gcd

import numpy as np

from . import groups
from .errors import ConvergenceError, DimensionError, DomainError
from .groups import (HeisenbergElement, JacobiGroupElement, SymplecticElement,
                     dilation, embedded_sl2, inversion, translation)
from .linalg import _cofactor_det, positive_each, real_symmetric, require_conditioned, safe_inv
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
    vecs = np.array(list(product(range(-bound, bound + 1), repeat=_degree(n))), dtype=int)
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


def _degree(n: int) -> int:
    """n, refused past 3: the vector box and candidate words are certified to n = 3."""
    if n > 3:
        raise DimensionError(f"the reduction supports n <= 3, got n = {n}")
    return n


def minkowski_reduce(y):
    """Greedy successive-minima reduction; returns (U y tU, U) unimodular U.

    y is read by ``linalg.real_symmetric`` and tested by ``positive_each``,
    n <= 3; the candidate vectors fill the max-norm box of radius ENUM_BOUND.
    """
    return _minkowski_reduce(real_symmetric(y, "y"))


def _minkowski_reduce(y):
    """``minkowski_reduce`` on a read y: the loop's one positivity test of Im Omega."""
    if not positive_each(y):
        raise DomainError("y is not positive definite")
    n = y.shape[0]
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
    entries must be nonnegative. y is read by ``linalg.real_symmetric``, n <= 3."""
    return _minkowski_violations(real_symmetric(y, "y"))


def _minkowski_violations(y):
    """``minkowski_violations`` on a y already read."""
    n = y.shape[0]
    scale = float(np.max(np.abs(y)))
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
    gens = _candidate_generators(_degree(n))
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
            return SiegelPoint(np.array([[omega]])), SymplecticElement(gamma), it + 1, None
    raise ConvergenceError("degree-1 reduction did not converge",
                           partial=ReductionCertificate(SymplecticElement(gamma), MAX_ITER))


def _reduce_loop(p: SiegelPoint):
    """Highest-point iteration: (reduced point, gamma, iterations, the
    candidate scan of the reduced point, None at n = 1). The scan is made
    only once ``minkowski_violations`` has found none on the same Im Omega,
    which the closing real translation keeps, so it stands for that verdict too."""
    n = p.n
    if n == 1:
        return _reduce_degree_one(p)
    cands = siegel_candidates(n)
    gamma = SymplecticElement.identity(n)
    current = p
    for iters in range(1, MAX_ITER + 1):
        _, u = _minkowski_reduce(current.omega.imag)
        # u unimodular, and b below symmetric as an action's Omega is: both
        # valid by construction. The D block, LAPACK's inverse of tU, rounds
        # to tU's exact integer inverse
        g1 = SymplecticElement(np.rint(groups._dilation_matrix(u.T.astype(float))))
        current = groups.act_siegel(g1, current)
        gamma = g1.multiply(gamma)
        # one greedy pass over the box need not reduce a skewed form; the
        # next iteration passes again, within the same MAX_ITER budget
        if _minkowski_violations(current.omega.imag):
            continue
        b = -np.round(current.omega.real)
        g2 = SymplecticElement(groups._translation_matrix(b))
        current = SiegelPoint(current.omega + b)    # t(b) in closed form, bit for bit
        gamma = g2.multiply(gamma)
        ratios = candidate_det_ratios(current)
        top = ratios.max()
        if not top > 1.0 + DET_SLACK:
            return current, gamma, iters, ratios
        # candidates that differ by a unimodular dilation tie exactly: take
        # the first one within DET_SLACK of the top, not the one rounding favours
        best = cands[int(np.argmax(ratios >= top * (1.0 - DET_SLACK)))]
        current = groups.act_siegel(best, current)
        gamma = best.multiply(gamma)
    raise ConvergenceError("highest-point iteration hit the cap",
                           partial=ReductionCertificate(gamma, MAX_ITER))


def siegel_reduce(p: SiegelPoint):
    """Highest-point reduction to the Siegel fundamental domain.

    Returns (reduced point, certificate). The reduced point satisfies the
    Minkowski condition on Im and |Re| <= 1/2 entrywise exactly; the maximal
    det Im condition is certified against the finite candidate set only. At
    n >= 2 the certificate takes the loop's last candidate scan, and with it
    the Minkowski verdict on Im Omega; it makes the replay, the symplectic
    relation and the bound on Re afresh.
    """
    out, gamma, iters, ratios = _reduce_loop(p)
    return out, ReductionCertificate(gamma, iters,
                                     _checks(groups.act_siegel(gamma, p), out, gamma, ratios))


def certificate_checks(original: SiegelPoint, reduced: SiegelPoint,
                       gamma: SymplecticElement) -> dict:
    """The certificate's conditions, the replay and candidate scan to CERT_TOL."""
    return _checks(groups.act_siegel(gamma, original), reduced, gamma, None)


def _checks(replay, reduced, gamma, ratios) -> dict:
    """The Siegel conditions on ``reduced`` (a Siegel or Siegel-Jacobi
    point), with ``replay`` the original point moved by the element whose
    symplectic part is ``gamma``, and ``ratios`` the loop's candidate scan of
    ``reduced`` (None: scan and check Minkowski here)."""
    checks = {
        "gamma_symplectic": _exactly_valid(gamma),
        "replay_matches": bool(max(np.max(np.abs(a - b)) for a, b in
                                   zip(replay.parts(), reduced.parts())) <= CERT_TOL),
        "real_part_bounded": bool(np.max(np.abs(reduced.omega.real)) <= 0.5 + DOMAIN_SLACK),
        "im_minkowski": ratios is not None or not _minkowski_violations(reduced.omega.imag),
    }
    if reduced.n == 1:
        checks["modulus_at_least_one"] = bool(abs(reduced.omega[0, 0]) >= 1.0 - DOMAIN_SLACK)
    else:
        if ratios is None:
            ratios = candidate_det_ratios(reduced)
        checks["det_im_maximal_over_candidates"] = not (ratios > 1.0 + CERT_TOL).any()
    return checks


def _exactly_valid(g) -> bool:
    """``g.is_valid()`` of a symplectic or Jacobi element; where that float
    test fails and every entry is an integer below 2^53, as in every element
    a reduction builds, the relations tM J M = J and kappa + mu tlam
    symmetric are decided again in Python integers: far out, an integral
    element's products round by more than GROUP_TOL."""
    if g.is_valid():
        return True
    parts = [g.mat] if isinstance(g, SymplecticElement) else [g.sp.mat, *g.h.parts()]
    parts.append(groups.symplectic_form(g.n))
    if not all(((np.abs(a) < 2.0 ** 53) & (a == np.rint(a))).all() for a in parts):
        return False
    m, *h, j = (a.astype(np.int64).astype(object) for a in parts)
    residuals = [m.T @ j @ m - j]
    if h:
        lam, mu, kappa = h
        residuals.append(kappa + mu @ lam.T - (kappa + mu @ lam.T).T)
    return not any(r.any() for r in residuals)


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
    Omega is the Siegel loop's output; Z is moved once by the loop's element.
    The certificate has the Siegel checks on the output, taking the loop's
    scan and Minkowski verdict, with the full element replayed on p, and adds
    the element's validity, the integrality of the Heisenberg step and the
    cell bounds on the output.
    """
    red, sp, iters, ratios = _reduce_loop(p.siegel_part())
    omega = red.omega
    z = groups.act_jacobi(JacobiGroupElement.from_symplectic(sp, p.m), p).z
    lam_c, mu_c = toroidal_coefficients(JacobiPoint(omega, z))
    # the Heisenberg lambda-slot shifts the Omega-coefficient and the mu-slot
    # shifts the constant coefficient (Z -> Z + lam0 Omega + mu0)
    lam0 = -np.floor(mu_c + DOMAIN_SLACK)
    mu0 = -np.floor(lam_c + DOMAIN_SLACK)
    h = HeisenbergElement(lam0, mu0, lam0 @ mu0.T)
    # h has C = 0 and D = I: act would solve Z + lam0 Omega + mu0 by I (the
    # same values; an exact zero keeps this sum's sign), and h sp needs no
    # product by the identity
    out = JacobiPoint(omega, z + lam0 @ omega + mu0)
    gamma = JacobiGroupElement(sp, h.translate_right(sp))
    lam_f, mu_f = toroidal_coefficients(out)
    checks = _checks(groups.act_jacobi(gamma, p), out, sp, ratios)
    checks.update({
        "gamma_valid": _exactly_valid(gamma),
        "integral_heisenberg": all((a == np.round(a)).all() for a in (lam0, mu0)),
        "cell_coefficients": all(((c >= -DOMAIN_SLACK) & (c < 1.0)).all() for c in (lam_f, mu_f)),
    })
    return out, ReductionCertificate(gamma, iters, checks)
