"""Validated point types for the four homogeneous spaces and tangent vectors.

Spaces:
  * Siegel upper half space: symmetric complex n x n with positive definite
    imaginary part.
  * Siegel-Jacobi space: pairs (omega, z) with z an unconstrained complex
    m x n matrix.
  * Generalized unit disk: symmetric W with I - conj(W) W positive definite.
  * Siegel-Jacobi disk: pairs (w, eta).

Constructors symmetrize inputs whose asymmetry is below tolerance and reject
anything worse; degenerate boundary points are rejected, never clamped.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionError, DomainError
from .linalg import DEFAULT_TOL, Tolerance


def _prepare_symmetric(a, tol: Tolerance, what: str):
    a = linalg.require_square(a, what)
    if not np.all(np.isfinite(a)):
        raise DomainError(f"{what} has non-finite entries")
    if not linalg.is_symmetric(a, tol):
        raise DomainError(f"{what} is not symmetric within tolerance")
    return linalg.symmetrize(a)


@dataclass(frozen=True)
class SiegelPoint:
    """Point of the degree-n Siegel upper half space."""

    omega: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "omega", linalg.as_complex_matrix(self.omega))

    @classmethod
    def create(cls, omega, tol: Tolerance = DEFAULT_TOL):
        omega = _prepare_symmetric(omega, tol, "omega")
        p = cls(omega)
        if not p.is_valid(tol):
            raise DomainError("Im(omega) is not positive definite")
        return p

    @property
    def n(self) -> int:
        return self.omega.shape[0]

    def imag_part(self):
        return self.omega.imag.copy()

    def real_part(self):
        return self.omega.real.copy()

    def is_valid(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        if not linalg.is_symmetric(self.omega, tol):
            return False
        return linalg.is_positive_definite(self.omega.imag, tol)

    def to_json(self) -> dict:
        return {"omega": linalg.matrix_to_json(self.omega)}


@dataclass(frozen=True)
class JacobiPoint:
    """Point (omega, z) of the Siegel-Jacobi space of degree n, index m."""

    omega: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "omega", linalg.as_complex_matrix(self.omega))
        object.__setattr__(self, "z", linalg.as_complex_matrix(self.z))

    @classmethod
    def create(cls, omega, z, tol: Tolerance = DEFAULT_TOL):
        omega = _prepare_symmetric(omega, tol, "omega")
        z = linalg.as_complex_matrix(z)
        p = cls(omega, z)
        if z.shape[1] != omega.shape[0]:
            raise DimensionError(f"z has {z.shape[1]} columns, omega degree {omega.shape[0]}")
        if not p.is_valid(tol):
            raise DomainError("Im(omega) is not positive definite")
        return p

    @property
    def n(self) -> int:
        return self.omega.shape[0]

    @property
    def m(self) -> int:
        return self.z.shape[0]

    def siegel_part(self) -> SiegelPoint:
        return SiegelPoint(self.omega)

    def imag_omega(self):
        return self.omega.imag.copy()

    def imag_z(self):
        return self.z.imag.copy()

    def is_valid(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        if self.z.shape[1] != self.omega.shape[0]:
            return False
        return SiegelPoint(self.omega).is_valid(tol)

    def to_json(self) -> dict:
        return {"omega": linalg.matrix_to_json(self.omega), "z": linalg.matrix_to_json(self.z)}


@dataclass(frozen=True)
class DiskPoint:
    """Point of the generalized unit disk of degree n."""

    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w", linalg.as_complex_matrix(self.w))

    @classmethod
    def create(cls, w, tol: Tolerance = DEFAULT_TOL):
        w = _prepare_symmetric(w, tol, "w")
        p = cls(w)
        if not p.is_valid(tol):
            raise DomainError("I - conj(W) W is not positive definite")
        return p

    @property
    def n(self) -> int:
        return self.w.shape[0]

    def is_valid(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        if not linalg.is_symmetric(self.w, tol):
            return False
        n = self.w.shape[0]
        gram = np.eye(n) - self.w.conj() @ self.w
        return linalg.is_positive_definite(linalg.hermitize(gram), tol)

    def to_json(self) -> dict:
        return {"w": linalg.matrix_to_json(self.w)}


@dataclass(frozen=True)
class JacobiDiskPoint:
    """Point (w, eta) of the Siegel-Jacobi disk of degree n, index m."""

    w: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w", linalg.as_complex_matrix(self.w))
        object.__setattr__(self, "eta", linalg.as_complex_matrix(self.eta))

    @classmethod
    def create(cls, w, eta, tol: Tolerance = DEFAULT_TOL):
        w = _prepare_symmetric(w, tol, "w")
        eta = linalg.as_complex_matrix(eta)
        if eta.shape[1] != w.shape[0]:
            raise DimensionError(f"eta has {eta.shape[1]} columns, w degree {w.shape[0]}")
        p = cls(w, eta)
        if not p.is_valid(tol):
            raise DomainError("I - conj(W) W is not positive definite")
        return p

    @property
    def n(self) -> int:
        return self.w.shape[0]

    @property
    def m(self) -> int:
        return self.eta.shape[0]

    def disk_part(self) -> DiskPoint:
        return DiskPoint(self.w)

    def is_valid(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        if self.eta.shape[1] != self.w.shape[0]:
            return False
        return DiskPoint(self.w).is_valid(tol)

    def to_json(self) -> dict:
        return {"w": linalg.matrix_to_json(self.w), "eta": linalg.matrix_to_json(self.eta)}


@dataclass(frozen=True)
class TangentVector:
    """Tangent direction (d_omega, d_z) at a point of one of the four spaces.

    ``d_omega`` is symmetrized on construction; on the disk models d_omega
    plays the role of dW and d_z of d(eta).
    """

    d_omega: np.ndarray
    d_z: np.ndarray

    def __post_init__(self):
        d_omega = linalg.require_square(self.d_omega, "d_omega")
        object.__setattr__(self, "d_omega", linalg.symmetrize(d_omega))
        object.__setattr__(self, "d_z", linalg.as_complex_matrix(self.d_z))

    @classmethod
    def zero(cls, n: int, m: int = 0):
        return cls(np.zeros((n, n), dtype=complex), np.zeros((max(m, 0), n), dtype=complex))

    @classmethod
    def omega_only(cls, d_omega, m: int = 0):
        d_omega = linalg.as_complex_matrix(d_omega)
        return cls(d_omega, np.zeros((max(m, 0), d_omega.shape[0]), dtype=complex))

    @property
    def n(self) -> int:
        return self.d_omega.shape[0]

    @property
    def m(self) -> int:
        return self.d_z.shape[0]

    def __add__(self, other: "TangentVector") -> "TangentVector":
        return TangentVector(self.d_omega + other.d_omega, self.d_z + other.d_z)

    def scale(self, c) -> "TangentVector":
        return TangentVector(c * self.d_omega, c * self.d_z)


def validate(point, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff all type invariants of the point hold within tol."""
    if isinstance(point, (SiegelPoint, JacobiPoint, DiskPoint, JacobiDiskPoint)):
        return point.is_valid(tol)
    raise DomainError(f"not a point type: {type(point)!r}")


def point_from_json(obj, tol: Tolerance = DEFAULT_TOL):
    """Decode a point from its JSON object; the key set selects the space."""
    keys = set(obj)
    if {"omega", "z"} <= keys:
        return JacobiPoint.create(linalg.matrix_from_json(obj["omega"]),
                                  linalg.matrix_from_json(obj["z"]), tol)
    if "omega" in keys:
        return SiegelPoint.create(linalg.matrix_from_json(obj["omega"]), tol)
    if {"w", "eta"} <= keys:
        return JacobiDiskPoint.create(linalg.matrix_from_json(obj["w"]),
                                      linalg.matrix_from_json(obj["eta"]), tol)
    if "w" in keys:
        return DiskPoint.create(linalg.matrix_from_json(obj["w"]), tol)
    raise DomainError(f"point JSON with keys {sorted(keys)} not recognized")
