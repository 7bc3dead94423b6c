"""Cayley transform between the disk and half-space models, and its partial
extension to the Jacobi spaces.

All four maps are the fractional-linear map of ``linalg.fractional_linear``:
disk to half space at the complex matrix TO_HALF, half space to disk at
TO_DISK, which is its inverse up to the factor 2i; each is given by the
scalars of its four n x n blocks.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .linalg import fractional_linear
from .spaces import DiskPoint, JacobiDiskPoint, JacobiPoint, SiegelPoint


TO_HALF = (1j, 1j, -1.0, 1.0)    # [[iI, iI], [-I, I]]
TO_DISK = (1.0, -1j, 1.0, 1j)    # [[I, -iI], [I, iI]]


def blocks(scalars, n: int):
    return [s * np.eye(n) for s in scalars]


def cayley(p: DiskPoint) -> SiegelPoint:
    """W -> i (I + W)(I - W)^{-1}."""
    return SiegelPoint(*fractional_linear(*blocks(TO_HALF, p.n), p.w))


def cayley_inverse(p: SiegelPoint) -> DiskPoint:
    """omega -> (omega - iI)(omega + iI)^{-1}."""
    return DiskPoint(*fractional_linear(*blocks(TO_DISK, p.n), p.omega))


def partial_cayley(p: JacobiDiskPoint) -> JacobiPoint:
    """(W, eta) -> (i (I + W)(I - W)^{-1}, 2 i eta (I - W)^{-1})."""
    return JacobiPoint(*fractional_linear(*blocks(TO_HALF, p.n), p.w, 2j * p.eta))


def partial_cayley_inverse(p: JacobiPoint) -> JacobiDiskPoint:
    """(omega, z) -> ((omega - iI)(omega + iI)^{-1}, z (omega + iI)^{-1})."""
    return JacobiDiskPoint(*fractional_linear(*blocks(TO_DISK, p.n), p.omega, p.z))


def to_disk(p):
    if isinstance(p, SiegelPoint):
        return cayley_inverse(p)
    if isinstance(p, JacobiPoint):
        return partial_cayley_inverse(p)
    raise DimensionError(f"no disk model for {type(p).__name__}")


def to_half_space(p):
    if isinstance(p, DiskPoint):
        return cayley(p)
    if isinstance(p, JacobiDiskPoint):
        return partial_cayley(p)
    raise DimensionError(f"no half-space model for {type(p).__name__}")
