"""Geodesic distance on the Siegel upper half space via cross-ratio
eigenvalues, and the special diagonal geodesics through iI.

``siegel_distance`` and ``cross_ratio_eigenvalues`` also take two stacks of
points and give per stacked pair the bits of the single call. Neither
returns NaN or an eigenvalue outside [0, 1]: a disk-image singular value
above 1, or a computed 1 - r that is not positive, raises NumericError
naming it. A singular value that rounds to 1 is kept: the distance reads
1 - r from its own positive eigenvalues, not from 1 - sigma."""
from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, DimensionError, NumericError, ParameterError
from .linalg import cholesky, real_array, safe_solve
from .spaces import SiegelPoint


def cross_ratio(p0: SiegelPoint, p1: SiegelPoint):
    """(O0 - O1)(O0 - conj(O1))^{-1}(conj(O0) - conj(O1))(conj(O0) - O1)^{-1}."""
    o0, o1 = p0.omega, p1.omega
    o0b, o1b = np.conj(o0), np.conj(o1)
    a = safe_solve((o0 - o1b).T, (o0 - o1).T).T
    b = safe_solve((o0b - o1).T, (o0b - o1b).T).T
    return a @ b


def _disk_image(p0: SiegelPoint, p1: SiegelPoint):
    """sigma, ascending, and M = (O0 - conj(O1))^{-1} L with Im O0 = L tL:
    sigma are the singular values of the disk image L^{-1}(O0 - O1) conj(M)
    of p1 once p0 is moved to iI, and sigma^2 the cross-ratio eigenvalues.
    Points of different degrees raise DimensionError."""
    if p0.n != p1.n:
        raise DimensionError(f"points of degrees {p0.n} and {p1.n} have no distance")
    o0, o1 = p0.omega, p1.omega
    low = cholesky(o0.imag)
    m = safe_solve(o0 - o1.conj(), low)
    sigma = np.sort(np.linalg.svd(safe_solve(low, (o0 - o1) @ m.conj()), compute_uv=False))
    _require(sigma <= 1.0, sigma, "disk-image singular value {!r} exceeds 1")
    return sigma, m


def _require(ok, values, message) -> None:
    """NumericError naming the first of ``values`` where ``ok`` is False."""
    if not ok.all():
        raise NumericError(message.format(float(values[~ok][0])))


def cross_ratio_eigenvalues(p0: SiegelPoint, p1: SiegelPoint):
    """Eigenvalues r of the cross-ratio matrix, ascending, as the squares of
    the disk-image singular values: real and in [0, 1] by construction."""
    return _disk_image(p0, p1)[0] ** 2


def siegel_distance(p0: SiegelPoint, p1: SiegelPoint) -> float:
    """Geodesic length for the weight-1 invariant metric:
    rho^2 = sum_k log((1 + sqrt(r_k)) / (1 - sqrt(r_k)))^2 over the cross-ratio
    eigenvalues r_k, with sqrt(r_k) = sigma_k of ``_disk_image`` and 1 - r_k
    the eigenvalues of 4 M^H Im(O1) M: no subtraction cancels."""
    sigma, m = _disk_image(p0, p1)
    one_minus_r = np.linalg.eigvalsh(4.0 * m.conj().mT @ p1.omega.imag @ m)[..., ::-1]
    _require(one_minus_r > 0.0, one_minus_r, "1 - r = {!r} at a cross-ratio eigenvalue r "
             "is not positive")
    # log((1 + s) / (1 - s)), taken where neither side cancels; log(1 - r) is
    # libm's, entry by entry, as numpy gives it on this reversed view of one
    # point but not on every stack (its vector log can round differently)
    terms = np.where(sigma < 0.7, 2.0 * np.arctanh(np.minimum(sigma, 0.7)),
                     2.0 * np.log1p(sigma) - np.vectorize(math.log, otypes=[float])(one_minus_r))
    rho = np.sqrt(np.sum(terms**2, axis=-1))
    return rho if rho.ndim else float(rho)


def siegel_distance_series(p0: SiegelPoint, p1: SiegelPoint) -> float:
    """Same distance through the series form 4 r (sum_k r^k / (2k+1))^2,
    truncated once the tail bound falls below 1e-14 of the partial sum.
    Raises ConvergenceError, naming the eigenvalue r, when 100,000 terms do
    not reach that bound (r close to 1)."""
    vals = cross_ratio_eigenvalues(p0, p1)
    total = 0.0
    for r in vals:
        if r == 0.0:
            continue
        acc = 0.0
        power = 1.0
        k = 0
        while True:
            acc += power / (2 * k + 1)
            power *= r
            k += 1
            # remainder of sum_j r^j/(2j+1) past k is below power/((2k+1)(1-r))
            if r < 1.0 and power / ((2 * k + 1) * (1.0 - r)) < 1e-14 * max(acc, 1.0):
                break
            if k > 100_000:
                raise ConvergenceError(f"distance series not converged after {k} terms"
                                       f" at cross-ratio eigenvalue {r:.17g}")
        total += 4.0 * r * acc * acc
    return float(np.sqrt(total))


def special_geodesic(a, t: float) -> SiegelPoint:
    """Unit-speed geodesic i diag(a_1^t, ..., a_n^t) through iI at t = 0.

    Requires sum_k log(a_k)^2 = 1 within 1e-8.
    """
    a = np.atleast_1d(real_array(a, "geodesic parameters"))
    if not np.all(a > 0):    # a nan is not positive
        raise ParameterError("geodesic parameters must be positive")
    logs = np.log(a)
    if abs(float(np.sum(logs**2)) - 1.0) > 1e-8:
        raise ParameterError("parameters violate the unit-speed normalization "
                             f"sum(log a_k)^2 = 1 (got {float(np.sum(logs**2)):.3e})")
    return SiegelPoint(1j * np.diag(np.exp(t * logs)).astype(complex))
