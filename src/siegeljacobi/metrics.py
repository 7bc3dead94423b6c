"""Invariant Hermitian metrics on the four spaces, the invariant volume
density, and pushforwards of tangent vectors along the group actions.

Pushforwards and the real Jacobian determinant are the exact differential
of the action's fractional-linear map; the central difference
``map_differential`` is only the tests' independent oracle.

Each metric is its sesquilinear form h(t1, t2), evaluated once: the line
element with holomorphic differentials taken from t1 and antiholomorphic ones
from conj(t2). The form is Hermitian, so h(t1, t2) = conj h(t2, t1) to
rounding and h(t, t) is the line element, with an imaginary part of rounding
size (below 1e-15 |h|). The Jacobi metrics extend the base metrics: A times
the Siegel metric of Omega plus B times a Heisenberg part on the Siegel-Jacobi
space, 4A times the disk metric of W plus 4B times one on the Siegel-Jacobi
disk.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import groups
from .errors import DomainError
from .linalg import safe_inv
from .spaces import DiskPoint, JacobiDiskPoint, JacobiPoint, SiegelPoint, TangentVector, _Chart


def require_weight(a: float) -> None:
    """DomainError unless the metric weight a is finite and positive."""
    if not 0 < a < np.inf:
        raise DomainError(f"metric weight {a} must be finite and positive")


@dataclass(frozen=True)
class MetricParams:
    """Finite positive weights of the two-parameter family of invariant metrics."""

    A: float = 1.0
    B: float = 1.0

    def __post_init__(self):
        require_weight(self.A)
        require_weight(self.B)


def _tr(x) -> complex:
    return complex(np.trace(x))


# -- Siegel upper half space ----------------------------------------------------

def siegel_metric(p: SiegelPoint, t1: TangentVector, t2: TangentVector, a: float = 1.0) -> complex:
    """A tr(Y^{-1} dOmega Y^{-1} conj(dOmega)) as a Hermitian form."""
    require_weight(a)
    yi = safe_inv(p.omega.imag)
    return a * _tr(yi @ t1.d_omega @ yi @ np.conj(t2.d_omega))


# -- Siegel-Jacobi space --------------------------------------------------------

def jacobi_metric(p: JacobiPoint, t1: TangentVector, t2: TangentVector,
                  params: MetricParams = MetricParams()) -> complex:
    """A times the Siegel metric of Omega plus B times the Heisenberg part."""
    yi = safe_inv(p.omega.imag)
    v = p.z.imag
    d_om = t1.d_omega
    d_om_bar = np.conj(t2.d_omega)
    d_z = t1.d_z
    d_z_bar = np.conj(t2.d_z)
    return siegel_metric(p.siegel_part(), t1, t2, params.A) + params.B * (
        _tr(yi @ v.T @ v @ yi @ d_om @ yi @ d_om_bar)
        + _tr(yi @ d_z.T @ d_z_bar)
        - _tr(v @ yi @ d_om @ yi @ d_z_bar.T)
        - _tr(v @ yi @ d_om_bar @ yi @ d_z.T)
    )


# -- Generalized unit disk ------------------------------------------------------

def disk_metric(p: DiskPoint, t1: TangentVector, t2: TangentVector, a: float = 1.0) -> complex:
    """4A tr((I - W conj(W))^{-1} dW (I - conj(W) W)^{-1} conj(dW))."""
    require_weight(a)
    eye = np.eye(p.n)
    wbar = np.conj(p.w)
    left = safe_inv(eye - p.w @ wbar)
    right = safe_inv(eye - wbar @ p.w)
    return 4.0 * a * _tr(left @ t1.d_omega @ right @ np.conj(t2.d_omega))


# -- Siegel-Jacobi disk ---------------------------------------------------------

def jacobi_disk_metric(p: JacobiDiskPoint, t1: TangentVector, t2: TangentVector,
                       params: MetricParams = MetricParams()) -> complex:
    """4A times the disk metric of W plus 4B times the Heisenberg part."""
    eye = np.eye(p.n)
    w = p.w
    wb = np.conj(w)
    eta = p.eta
    etab = np.conj(eta)
    lw = safe_inv(eye - w @ wb)        # (I - W conj(W))^{-1}
    rw = safe_inv(eye - wb @ w)        # (I - conj(W) W)^{-1}
    one_m_w = eye - w
    one_m_wb = eye - wb
    inv_one_m_w = safe_inv(one_m_w)
    inv_one_m_wb = np.conj(inv_one_m_w)
    dw = t1.d_omega
    dwb = np.conj(t2.d_omega)
    de = t1.d_z
    deb = np.conj(t2.d_z)

    b_terms = _tr(lw @ de.T @ deb)
    b_terms += _tr((eta @ wb - etab) @ lw @ dw @ rw @ deb.T)
    b_terms += _tr((etab @ w - eta) @ rw @ dwb @ lw @ de.T)
    b_terms -= _tr(lw @ eta.T @ eta @ rw @ wb @ dw @ rw @ dwb)
    b_terms -= _tr(w @ rw @ etab.T @ etab @ lw @ dw @ rw @ dwb)
    b_terms += _tr(lw @ eta.T @ etab @ lw @ dw @ rw @ dwb)
    b_terms += _tr(inv_one_m_wb @ etab.T @ eta @ wb @ lw @ dw @ rw @ dwb)
    b_terms += _tr(inv_one_m_wb @ one_m_w @ rw @ etab.T @ eta @ rw
                   @ one_m_wb @ inv_one_m_w @ dw @ rw @ dwb)
    b_terms -= _tr(lw @ one_m_w @ inv_one_m_wb @ etab.T @ eta @ inv_one_m_w @ dw @ rw @ dwb)
    return disk_metric(p.disk_part(), t1, t2, params.A) + 4.0 * params.B * b_terms


# -- Volume density -------------------------------------------------------------

def volume_density(p: SiegelPoint) -> float:
    """Density (det Im omega)^{-(n+1)} of the invariant volume element."""
    return float(np.linalg.det(p.omega.imag) ** (-(p.n + 1)))


# -- Pushforwards ----------------------------------------------------------------

def map_differential(fn, p, t: TangentVector) -> TangentVector:
    """Central-difference directional derivative of a holomorphic point map,
    with the step 1e-4 (1 + max |entry of p|): the independent oracle the
    tests hold the exact ``pushforward`` against."""
    h = 1e-4 * (1.0 + max(np.max(np.abs(a)) for a in p.parts()))
    moved = [fn(type(p)(*(a + c * d for a, d in zip(p.parts(), (t.d_omega, t.d_z))))).parts()
             for c in (h, -h)]
    diffs = [(a - b) / (2.0 * h) for a, b in zip(*moved)]
    return TangentVector(*diffs) if len(diffs) == 2 else TangentVector.omega_only(diffs[0])


def pushforward(g, p, t: TangentVector) -> TangentVector:
    """Differential of the group action at p applied to t: exact, and one
    path for all four actions."""
    parts = groups.act_differential(g, p, [t.d_omega, t.d_z])
    return TangentVector(*parts) if len(parts) == 2 else TangentVector.omega_only(parts[0], m=t.m)


def real_jacobian_det(g, p) -> float:
    """Determinant of the real Jacobian of the action of g at p in p's chart:
    column k is the exact differential along the k-th chart basis vector."""
    chart = _Chart(p)
    return float(np.linalg.det(chart.coord_values(groups.act_differential(g, p, chart.basis()))))
