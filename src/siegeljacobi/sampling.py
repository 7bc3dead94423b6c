"""Deterministic random points, tangents and fields for the check suites.

The points are valid by construction, so they are built without ``create``
(which would only symmetrize them); ``spaces.stack`` validates a stack of them."""
from __future__ import annotations

import numpy as np

from . import linalg
from .errors import DomainError
from .fields import batched
from .spaces import DiskPoint, JacobiDiskPoint, JacobiPoint, SiegelPoint, TangentVector


def random_siegel_point(n: int, rng, y_range=(0.5, 2.0)) -> SiegelPoint:
    """X + iY with X uniform and Y = Q diag(d) tQ, Q from the QR of a
    Gaussian. At n = 1 the Gaussian is drawn, so the rng advances as at
    every n, but its QR is skipped: LAPACK's Q of a 1 x 1 matrix is exactly
    1 (the reflector's tau is 0), so Y is diag(d) to the bit."""
    x = rng.uniform(-1.0, 1.0, (n, n))
    x = 0.5 * (x + x.T)
    gauss = rng.standard_normal((n, n))
    y = np.diag(rng.uniform(*y_range, n))
    if n > 1:
        q, _ = np.linalg.qr(gauss)
        y = q @ y @ q.T
    return SiegelPoint(linalg.symmetrize(x + 1j * y))


def random_jacobi_point(n: int, m: int, rng) -> JacobiPoint:
    base = random_siegel_point(n, rng)
    z = rng.uniform(-1.0, 1.0, (m, n)) + 1j * rng.uniform(-1.0, 1.0, (m, n))
    return JacobiPoint(base.omega, z)


def random_disk_point(n: int, rng, radius: float = 0.5) -> DiskPoint:
    w = rng.uniform(-1.0, 1.0, (n, n)) + 1j * rng.uniform(-1.0, 1.0, (n, n))
    w = 0.5 * (w + w.T)
    norm = np.linalg.norm(w, 2)
    if norm > radius:
        w *= radius / norm
    return DiskPoint(w)    # symmetric: the scaling keeps w = t(w) exactly


def random_jacobi_disk_point(n: int, m: int, rng, radius: float = 0.5) -> JacobiDiskPoint:
    base = random_disk_point(n, rng, radius)
    eta = 0.7 * (rng.uniform(-1.0, 1.0, (m, n)) + 1j * rng.uniform(-1.0, 1.0, (m, n)))
    return JacobiDiskPoint(base.w, eta)


def random_point(kind: str, n: int, m: int, rng):
    if kind == "siegel":
        return random_siegel_point(n, rng)
    if kind == "jacobi":
        return random_jacobi_point(n, m, rng)
    if kind == "disk":
        return random_disk_point(n, rng)
    if kind == "jacobi_disk":
        return random_jacobi_disk_point(n, m, rng)
    raise DomainError(f"unknown point kind {kind!r}")


def random_tangent(n: int, m: int, rng) -> TangentVector:
    a = rng.uniform(-1.0, 1.0, (n, n)) + 1j * rng.uniform(-1.0, 1.0, (n, n))
    dz = rng.uniform(-1.0, 1.0, (max(m, 0), n)) + 1j * rng.uniform(-1.0, 1.0, (max(m, 0), n))
    return TangentVector(0.5 * (a + a.T), dz)


def random_polynomial_field(kind: str, rng):
    """Smooth low-degree batched field on a half-space or disk point."""
    cs = rng.uniform(-1.0, 1.0, 8)

    def tr(a):
        return np.einsum("...ii->...", a)

    def total(a):
        return a.sum(axis=(-2, -1))

    def abs2(a):    # hypot and libm pow entrywise: the bits of abs(a) ** 2 on a scalar
        return np.float_power(np.hypot(a.real, a.imag), 2)

    if kind in ("jacobi", "siegel"):
        @batched
        def f(p):
            om = p.omega
            z = p.z if hasattr(p, "z") else np.zeros_like(om[..., :1, :])
            return (cs[0] * tr(om).real + cs[1] * tr(om @ om).imag
                    + cs[2] * total(z).real + cs[3] * abs2(total(z))
                    + cs[4] * tr(om.imag @ om.imag)
                    + cs[5] * total(z.imag * z.imag)
                    + cs[6] * tr(om).imag * total(z).real + cs[7])
        return f
    if kind in ("jacobi_disk", "disk"):
        @batched
        def f(p):
            w = p.w
            eta = p.eta if hasattr(p, "eta") else np.zeros_like(w[..., :1, :])
            te, tw = total(eta), total(w)    # Re(te tw) below is rounded as on scalars
            return (cs[0] * tw.real + cs[1] * abs2(te)
                    + cs[2] * te.imag + cs[3] * tr(w @ np.conj(w)).real
                    + cs[4] * (te.real * tw.real - te.imag * tw.imag)
                    + cs[5] * total(eta.real * eta.real) + cs[7])
        return f
    raise DomainError(f"unknown field kind {kind!r}")
