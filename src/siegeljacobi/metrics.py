"""Invariant Hermitian metrics on the four spaces, the invariant volume
density, and pushforwards of tangent vectors along the group actions.

Pushforwards and the real Jacobian determinant are the exact differential
of the action's fractional-linear map; the central difference
``map_differential`` is only the tests' independent oracle.

Each metric is its sesquilinear form h(t1, t2), evaluated once: the line
element with holomorphic differentials taken from t1 and antiholomorphic ones
from conj(t2). The form is Hermitian, so h(t1, t2) = conj h(t2, t1) to
rounding and h(t, t) is the line element, with an imaginary part of rounding
size (below 1e-15 |h|).

The metrics take stacks of points and tangents, and ``pushforward`` stacks of
elements as well; each stacked entry gets the bits of the single call.

The Jacobi metrics add B times a square to the base metric of weight A: on
the Siegel-Jacobi space B tr(Y^{-1} t(K) conj(K)) with K = dZ - V Y^{-1} dOmega
(Y = Im Omega, V = Im Z), which in the toroidal coordinates Z = lam + mu Omega
reads K = dlam + dmu Omega, the flat metric of the torus fibre; on the
Siegel-Jacobi disk 4B tr(L t(K) conj(K)) with L = (I - W conj(W))^{-1} and
K = deta + (eta conj(W) - conj(eta)) L dW. The square keeps full accuracy far
out in the fibre, where the paper's expanded traces cancel.
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


def _tr(x):
    """The trace, or the traces of a stack as an array."""
    t = np.trace(x, axis1=-2, axis2=-1)
    return t if t.ndim else complex(t)


# -- Siegel upper half space ----------------------------------------------------

def _siegel_form(yi, t1, t2, a):
    """The Siegel metric of weight a where Y^{-1} = yi."""
    return a * _tr(yi @ t1.d_omega @ yi @ np.conj(t2.d_omega))


def siegel_metric(p: SiegelPoint, t1: TangentVector, t2: TangentVector, a: float = 1.0) -> complex:
    """A tr(Y^{-1} dOmega Y^{-1} conj(dOmega)) as a Hermitian form."""
    require_weight(a)
    return _siegel_form(safe_inv(p.omega.imag), t1, t2, a)


# -- Siegel-Jacobi space --------------------------------------------------------

def jacobi_metric(p: JacobiPoint, t1: TangentVector, t2: TangentVector,
                  params: MetricParams = MetricParams()) -> complex:
    """A times the Siegel metric of Omega plus B tr(Y^{-1} t(K1) conj(K2)),
    with K = dZ - V Y^{-1} dOmega (Y = Im Omega, V = Im Z) taken from t1, t2."""
    yi = safe_inv(p.omega.imag)
    vyi = p.z.imag @ yi
    k1, k2 = (t.d_z - vyi @ t.d_omega for t in (t1, t2))
    heisenberg = _tr(yi @ k1.mT @ np.conj(k2))
    return _siegel_form(yi, t1, t2, params.A) + params.B * heisenberg


# -- Generalized unit disk ------------------------------------------------------

def _disk_form(left, t1, t2, a):
    """The disk metric of weight a where (I - W conj(W))^{-1} = left."""
    return 4.0 * a * _tr(left @ t1.d_omega @ np.conj(left) @ np.conj(t2.d_omega))


def disk_metric(p: DiskPoint, t1: TangentVector, t2: TangentVector, a: float = 1.0) -> complex:
    """4A tr((I - W conj(W))^{-1} dW (I - conj(W) W)^{-1} conj(dW)); the right
    inverse is the conjugate of the left one."""
    require_weight(a)
    return _disk_form(safe_inv(np.eye(p.n) - p.w @ np.conj(p.w)), t1, t2, a)


# -- Siegel-Jacobi disk ---------------------------------------------------------

def jacobi_disk_metric(p: JacobiDiskPoint, t1: TangentVector, t2: TangentVector,
                       params: MetricParams = MetricParams()) -> complex:
    """The disk metric of W with weight A plus 4B tr(L t(K1) conj(K2)), with
    L = (I - W conj(W))^{-1} and K = deta + (eta conj(W) - conj(eta)) L dW
    taken from t1, t2."""
    wb = np.conj(p.w)
    lw = safe_inv(np.eye(p.n) - p.w @ wb)
    shift = (p.eta @ wb - np.conj(p.eta)) @ lw
    k1, k2 = (t.d_z + shift @ t.d_omega for t in (t1, t2))
    heisenberg = _tr(lw @ k1.mT @ np.conj(k2))
    return _disk_form(lw, t1, t2, params.A) + 4.0 * params.B * heisenberg


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
