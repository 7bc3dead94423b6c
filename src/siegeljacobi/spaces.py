"""Validated point types for the four homogeneous spaces and tangent vectors.

Spaces:
  * Siegel upper half space: symmetric complex n x n with positive definite
    imaginary part.
  * Siegel-Jacobi space: pairs (omega, z) with z an unconstrained complex
    m x n matrix.
  * Generalized unit disk: symmetric W with I - conj(W) W positive definite.
  * Siegel-Jacobi disk: pairs (w, eta).

The four point types share one layout: ``parts()`` is the symmetric part
followed, on the Jacobi spaces, by the rectangular one, and ``_Chart`` gives
the real coordinates of a point in that layout. One validity pass decides:
``create`` runs it (asymmetry below tolerance is symmetrized away; worse,
non-finite entries, mismatched shapes and boundary points are refused, never
clamped), and ``is_valid()`` says whether ``create`` accepts a point's parts.

A point may also be a stack of points: parts with a leading batch axis, as
the finite-difference stencils of ``diffops`` and the check battery build
them. ``n`` and ``m`` read the trailing axes, so the group actions, Cayley
maps and metrics take stacks as they are. A single point is checked as a
stack of one: a stack raises the error its first invalid point raises alone,
and ``is_valid()`` is True when every point is valid. ``stack`` builds a
stack (of points, tangent vectors or group elements) and ``unstack`` splits
it into single points.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import linalg
from .errors import DimensionError, DomainError


def _finite(a):
    return np.isfinite(a).all(axis=(-2, -1))


class _Point:
    """Layout shared by the four point types: a symmetric n x n part (omega
    or w), then on the Jacobi spaces an m x n part (z or eta). Each subclass
    is a frozen dataclass whose fields are its parts, in this order, and
    supplies ``_positive``, the matrix of its symmetric part that must be
    positive definite, and the message given when it is not."""

    def __post_init__(self):
        fields = self.__dict__    # frozen: write the instance dict directly
        for name in self.__dataclass_fields__:
            fields[name] = linalg.as_complex_stack(fields[name])

    @classmethod
    def _checked(cls, parts) -> list:
        """The one validity pass, for one point (a stack with no leading
        axes) or a stack alike: the parts, the symmetric one symmetrized, or
        the error of the first failed check of the first invalid point. Each
        check runs once over every point, in the order that decides a single
        point; a part of the wrong shape fails every point."""
        names = list(cls.__dataclass_fields__)
        if len(parts) != len(names):
            raise TypeError(f"{cls.__name__}.create takes the parts {names}")
        sym, *rest = (np.asarray(a, dtype=complex) for a in parts)
        sym = linalg.as_complex_stack(sym)
        if sym.ndim > 2:
            for name, a in zip(names[1:], rest):
                if a.shape[:-2] != sym.shape[:-2]:
                    raise DimensionError(f"{name} shape {a.shape} does not stack with "
                                         f"{names[0]} shape {sym.shape}")
        else:
            rest = [a.reshape(1, 1) if a.ndim == 0 else a for a in rest]
        n = sym.shape[-1]
        if sym.shape[-2] != n:
            raise DimensionError(f"{names[0]} must be square, got shape {sym.shape[-2:]}")
        with np.errstate(all="ignore"):
            checks = [(_finite(sym), DomainError(f"{names[0]} has non-finite entries")),
                      (linalg.close_each(sym, sym.mT),
                       DomainError(f"{names[0]} is not symmetric within tolerance"))]
            for name, a in zip(names[1:], rest):
                if a.ndim != sym.ndim:    # beside one point: a stack's parts share its rank
                    checks.append((False, DimensionError(f"expected a matrix, got ndim={a.ndim}")))
                    break
                checks += [(_finite(a), DomainError(f"{name} has non-finite entries")),
                           (a.shape[-1] == n, DimensionError(
                               f"{name} has {a.shape[-1]} columns, {names[0]} degree {n}"))]
            sym = linalg.symmetrize(sym)    # overflows on entries past half the float range
            # an overflow is not positive definite
            positive = _finite(sym) & linalg.positive_each(cls._positive(sym))
            checks.append((positive, DomainError(cls._not_positive)))
        ok = reduce(np.logical_and, (mask for mask, _ in checks))
        bad = np.argwhere(~ok)
        for mask, error in checks:    # an empty stack has no point, but a wrong shape
            if (not np.broadcast_to(mask, ok.shape)[tuple(bad[0])]) if len(bad) else mask is False:
                raise error
        return [sym, *rest]

    @classmethod
    def create(cls, *parts):
        return cls(*cls._checked(parts))

    def parts(self) -> list:
        return [getattr(self, name) for name in self.__dataclass_fields__]

    def unstack(self) -> list:
        """The single points of a stack of points."""
        parts = self.parts()
        return [type(self)(*(a[k] for a in parts)) for k in range(len(parts[0]))]

    @property
    def n(self) -> int:
        return getattr(self, next(iter(self.__dataclass_fields__))).shape[-1]

    @property
    def m(self) -> int:
        parts = self.parts()
        return parts[1].shape[-2] if len(parts) > 1 else 0

    def is_valid(self) -> bool:
        """True iff ``create`` accepts this point's parts: on a stack, iff
        every point is valid."""
        try:
            self._checked(self.parts())
        except (DimensionError, DomainError):
            return False
        return True

    def to_json(self) -> dict:
        return {name: linalg.matrix_to_json(getattr(self, name))
                for name in self.__dataclass_fields__}


@dataclass(frozen=True)
class SiegelPoint(_Point):
    """Point of the degree-n Siegel upper half space."""

    omega: np.ndarray
    _not_positive = "Im(omega) is not positive definite"
    _positive = staticmethod(np.imag)


@dataclass(frozen=True)
class JacobiPoint(_Point):
    """Point (omega, z) of the Siegel-Jacobi space of degree n, index m."""

    omega: np.ndarray
    z: np.ndarray
    _not_positive = SiegelPoint._not_positive
    _positive = staticmethod(np.imag)

    def siegel_part(self) -> SiegelPoint:
        return SiegelPoint(self.omega)


def _disk_gram(w):
    return linalg.hermitize(np.eye(w.shape[-1]) - w.conj() @ w)


@dataclass(frozen=True)
class DiskPoint(_Point):
    """Point of the generalized unit disk of degree n."""

    w: np.ndarray
    _not_positive = "I - conj(W) W is not positive definite"
    _positive = staticmethod(_disk_gram)


@dataclass(frozen=True)
class JacobiDiskPoint(_Point):
    """Point (w, eta) of the Siegel-Jacobi disk of degree n, index m."""

    w: np.ndarray
    eta: np.ndarray
    _not_positive = DiskPoint._not_positive
    _positive = staticmethod(_disk_gram)


@dataclass(frozen=True)
class TangentVector:
    """Tangent direction (d_omega, d_z) at a point of one of the four spaces.

    ``d_omega`` is symmetrized on construction; on the disk models d_omega
    plays the role of dW and d_z of d(eta).
    """

    d_omega: np.ndarray
    d_z: np.ndarray

    def __post_init__(self):
        d_omega = linalg.square_stack(self.d_omega, "d_omega")
        object.__setattr__(self, "d_omega", linalg.symmetrize(d_omega))
        object.__setattr__(self, "d_z", linalg.as_complex_stack(self.d_z))

    @classmethod
    def omega_only(cls, d_omega, m: int = 0):
        d_omega = linalg.as_complex_stack(d_omega)
        return cls(d_omega, np.zeros((*d_omega.shape[:-2], max(m, 0), d_omega.shape[-1]),
                                     dtype=complex))

    @property
    def n(self) -> int:
        return self.d_omega.shape[-1]

    @property
    def m(self) -> int:
        return self.d_z.shape[-2]


def stack(items):
    """The stack of equal-shaped points, tangent vectors or group elements of
    one type: each field stacked along a new leading axis, a nested element
    field by field. A stack of points is made by ``create``: one validity
    pass for all of them."""
    first = items[0]
    if isinstance(first, np.ndarray):
        return np.stack(items)
    make = first.create if isinstance(first, _Point) else type(first)
    return make(*(stack([getattr(x, name) for x in items]) for name in first.__dataclass_fields__))


def point_from_json(obj):
    """Decode a point from its JSON object; the key set selects the space."""
    if not isinstance(obj, dict):
        raise DomainError(f"point JSON must be an object, got {type(obj).__name__}")
    for cls in (JacobiPoint, SiegelPoint, JacobiDiskPoint, DiskPoint):
        names = cls.__dataclass_fields__
        if set(names) <= set(obj):
            return cls.create(*(linalg.matrix_from_json(obj[k]) for k in names))
    raise DomainError(f"point JSON with keys {sorted(obj)} not recognized")


_WIRTINGER = {}    # (n, m) -> the read-only W of _Chart.wirtinger_basis


class _Chart:
    """Real coordinates of a point: the real and imaginary parts of the
    upper-triangle entries of its symmetric part, then of the entries of its
    rectangular part row by row, each real part followed by its imaginary
    part."""

    def __init__(self, p):
        if not isinstance(p, _Point):
            raise DomainError(f"no chart for {type(p)!r}")
        self.cls = type(p)
        self.parts = p.parts()
        self.n, self.m = n, m = p.n, p.m
        # coordinate descriptors: (part index, re/im flag, position)
        self.coords = [(0, im, (i, j)) for i in range(n) for j in range(i, n) for im in (0, 1)]
        self.coords += [(1, im, (k, l)) for k in range(m) for l in range(n) for im in (0, 1)]
        self.dim = len(self.coords)

    def coord_values(self, parts=None) -> np.ndarray:
        """The real coordinates of point or tangent parts (by default the
        chart's point); stacked parts give one column per stacked entry."""
        parts = self.parts if parts is None else parts
        return np.array([parts[b][..., i, j].imag if im else parts[b][..., i, j].real
                         for b, im, (i, j) in self.coords])

    def basis(self) -> list:
        """The tangent parts along each real coordinate, stacked in coordinate
        order: a unit entry (1 or i), mirrored on the symmetric part."""
        parts = [np.zeros((self.dim, *a.shape[-2:]), dtype=complex) for a in self.parts]
        for k, (b, im, (i, j)) in enumerate(self.coords):
            parts[b][k, i, j] = 1j if im else 1.0
            if b == 0:
                parts[b][k, j, i] = parts[b][k, i, j]
        return parts

    def wirtinger_basis(self):
        """W (dim x (n^2 + mn)): column i n + j is the weighted d/dOmega_ij,
        column n^2 + k n + l is d/dz_kl, both in the real coordinates;
        conj(W) gives the barred derivatives. W depends on (n, m) alone, so
        every chart of that degree shares one read-only copy."""
        w = _WIRTINGER.get((self.n, self.m))
        if w is None:
            weights = [np.where(np.eye(self.n, dtype=bool), 0.5, 0.25), 0.5]
            w = np.concatenate([(wt * np.conj(b)).reshape(self.dim, -1)
                                for wt, b in zip(weights, self.basis())], axis=1)
            w.flags.writeable = False
            _WIRTINGER[self.n, self.m] = w
        return w

    def shifted(self, shifts):
        """The stack of points whose real coordinates are those of the
        chart's point plus each row of ``shifts`` (shape (K, dim)); at a stack
        of N points, shifts of shape (N, K, dim) give the N K points, the K
        of the first point first."""
        x = (self.coord_values().T[..., None, :] + shifts).reshape(-1, self.dim)
        k, n = len(x), self.n
        entries = np.empty((k, self.dim // 2), dtype=complex)
        entries.real, entries.imag = x[:, 0::2], x[:, 1::2]
        rows, cols = zip(*(pos for b, _, pos in self.coords[::2] if b == 0))
        sym = np.empty((k, n, n), dtype=complex)
        sym[:, rows, cols] = sym[:, cols, rows] = entries[:, :len(rows)]
        rect = [entries[:, len(rows):].reshape(k, self.m, n)] if len(self.parts) > 1 else []
        return self.cls(sym, *rect)
