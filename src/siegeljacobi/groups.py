"""Group elements and the four transitive actions.

Covered here: the real symplectic group, the Heisenberg group of degree
(n, m), their semidirect product (the Jacobi group), the conjugated group
acting on the disk models, and the embedding of the Jacobi group into it.

An element may also be a stack of elements, its parts carrying one leading
batch axis, as a point may be a stack of points (``spaces.stack`` builds
either). ``n``, ``m`` and ``blocks()`` read the trailing axes, so products,
inverses, ``embed_star`` and the actions work on stacks as they are, and an
element's relation holds for a stack when it holds for every element.
"""
from __future__ import annotations

import typing
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import linalg
from .errors import DimensionError, DomainError
from .linalg import fractional_linear, fractional_linear_differential
from .spaces import DiskPoint, JacobiDiskPoint, JacobiPoint, SiegelPoint

GROUP_TOL = 1e-10      # max-norm residual of each group relation


def symplectic_form(n: int):
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


class _Element:
    """Layout shared by the four element types, as ``spaces._Point`` is for
    the points: each subclass is a frozen dataclass whose fields are its
    parts, in JSON order, and declares ``_kind`` (its JSON tag) and
    ``_invalid`` (the message given when ``is_valid`` fails). A real part is
    read by ``linalg.real_array``, so a nonzero imaginary entry is refused by
    name, from JSON or from a constructor alike."""

    @classmethod
    def create(cls, *parts):
        g = cls(*parts)
        if not g.is_valid():
            raise DomainError(cls._invalid)
        return g

    def parts(self) -> list:
        return [getattr(self, name) for name in self.__dataclass_fields__]

    def to_json(self) -> dict:
        return {"kind": self._kind,
                **{name: a.to_json() if isinstance(a, _Element) else linalg.matrix_to_json(a)
                   for name, a in zip(self.__dataclass_fields__, self.parts())}}


@dataclass(frozen=True)
class SymplecticElement(_Element):
    """Real 2n x 2n matrix M with  t(M) J M = J."""

    mat: np.ndarray
    _kind = "symplectic"
    _invalid = "matrix fails the symplectic relation"

    def __post_init__(self):
        mat = linalg.real_array(self.mat, "mat")
        if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2] or mat.shape[-1] % 2:
            raise DimensionError(f"symplectic matrix must be 2n x 2n, got {mat.shape}")
        object.__setattr__(self, "mat", mat)

    @classmethod
    def identity(cls, n: int):
        return cls(np.eye(2 * n))

    @property
    def n(self) -> int:
        return self.mat.shape[-1] // 2

    def blocks(self):
        n = self.n
        m = self.mat
        return m[..., :n, :n], m[..., :n, n:], m[..., n:, :n], m[..., n:, n:]

    def is_valid(self) -> bool:
        j = symplectic_form(self.n)
        return bool(np.max(np.abs(self.mat.mT @ j @ self.mat - j)) <= GROUP_TOL)

    def multiply(self, other: "SymplecticElement") -> "SymplecticElement":
        if self.n != other.n:
            raise DimensionError("degree mismatch")
        return SymplecticElement(self.mat @ other.mat)

    def inverse(self) -> "SymplecticElement":
        # t(M) J M = J gives M^{-1} = J^{-1} t(M) J without a linear solve.
        j = symplectic_form(self.n)
        return SymplecticElement(-j @ self.mat.mT @ j)


@dataclass(frozen=True)
class HeisenbergElement(_Element):
    """Heisenberg element (lam, mu; kappa) with kappa + mu t(lam) symmetric."""

    lam: np.ndarray
    mu: np.ndarray
    kappa: np.ndarray
    _kind = "heisenberg"
    _invalid = "kappa + mu t(lam) is not symmetric"

    def __post_init__(self):
        lam = np.atleast_2d(linalg.real_array(self.lam, "lam"))
        mu = np.atleast_2d(linalg.real_array(self.mu, "mu"))
        kappa = np.atleast_2d(linalg.real_array(self.kappa, "kappa"))
        if lam.shape != mu.shape:
            raise DimensionError(f"lam {lam.shape} and mu {mu.shape} differ")
        m = lam.shape[-2]
        if kappa.shape != (*lam.shape[:-2], m, m):
            raise DimensionError(f"kappa must be {m} x {m}, got {kappa.shape}")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "kappa", kappa)

    @classmethod
    def identity(cls, n: int, m: int):
        z = np.zeros((m, n))
        return cls(z, z.copy(), np.zeros((m, m)))

    @property
    def m(self) -> int:
        return self.lam.shape[-2]

    @property
    def n(self) -> int:
        return self.lam.shape[-1]

    def is_valid(self) -> bool:
        s = self.kappa + self.mu @ self.lam.mT
        return bool(np.max(np.abs(s - s.mT)) <= GROUP_TOL)

    def multiply(self, other: "HeisenbergElement") -> "HeisenbergElement":
        if (self.m, self.n) != (other.m, other.n):
            raise DimensionError("degree mismatch")
        kappa = self.kappa + other.kappa + self.lam @ other.mu.mT - self.mu @ other.lam.mT
        return HeisenbergElement(self.lam + other.lam, self.mu + other.mu, kappa)

    def inverse(self) -> "HeisenbergElement":
        kappa = -self.kappa + self.lam @ self.mu.mT - self.mu @ self.lam.mT
        return HeisenbergElement(-self.lam, -self.mu, kappa)

    def translate_right(self, sp: SymplecticElement) -> "HeisenbergElement":
        """(lam, mu) -> (lam, mu) M, kappa unchanged."""
        lm = np.concatenate([self.lam, self.mu], axis=-1) @ sp.mat
        n = self.n
        return HeisenbergElement(lm[..., :n], lm[..., n:], self.kappa)


@dataclass(frozen=True)
class JacobiGroupElement(_Element):
    """Pair of a symplectic part and a Heisenberg part."""

    sp: SymplecticElement
    h: HeisenbergElement
    _kind = "jacobi"
    _invalid = "invalid Jacobi group element"

    def __post_init__(self):
        if self.sp.n != self.h.n:
            raise DimensionError("symplectic and Heisenberg degrees differ")
        if self.sp.mat.shape[:-2] != self.h.lam.shape[:-2]:
            raise DimensionError("symplectic and Heisenberg stacks differ")

    @classmethod
    def identity(cls, n: int, m: int):
        return cls(SymplecticElement.identity(n), HeisenbergElement.identity(n, m))

    @classmethod
    def from_symplectic(cls, sp: SymplecticElement, m: int):
        """sp with the identity Heisenberg part, stacked as sp is."""
        batch = sp.mat.shape[:-2]
        z = np.zeros((*batch, m, sp.n))
        return cls(sp, HeisenbergElement(z, z, np.zeros((*batch, m, m))))

    @classmethod
    def from_heisenberg(cls, h: HeisenbergElement):
        return cls(SymplecticElement.identity(h.n), h)

    @property
    def n(self) -> int:
        return self.sp.n

    @property
    def m(self) -> int:
        return self.h.m

    def blocks(self):
        return self.sp.blocks()

    def is_valid(self) -> bool:
        return self.sp.is_valid() and self.h.is_valid()

    def multiply(self, other: "JacobiGroupElement") -> "JacobiGroupElement":
        if (self.n, self.m) != (other.n, other.m):
            raise DimensionError("degree mismatch")
        return JacobiGroupElement(self.sp.multiply(other.sp),
                                  self.h.translate_right(other.sp).multiply(other.h))

    def inverse(self) -> "JacobiGroupElement":
        sp_inv = self.sp.inverse()
        return JacobiGroupElement(sp_inv, self.h.inverse().translate_right(sp_inv))


@dataclass(frozen=True)
class StarGroupElement(_Element):
    """Element of the conjugated Jacobi group acting on the disk models.

    The symplectic part is the block matrix [[P, Q], [conj(Q), conj(P)]]; the
    Heisenberg part is stored as (xi, kappa) for the redundant complex triple
    (xi, conj(xi); i kappa).
    """

    p: np.ndarray
    q: np.ndarray
    xi: np.ndarray
    kappa: np.ndarray
    _kind = "star"
    _invalid = "invalid star group element"

    def __post_init__(self):
        kappa = np.atleast_2d(linalg.real_array(self.kappa, "kappa"))
        p = linalg.square_stack(self.p, "p")
        q = linalg.square_stack(self.q, "q")
        xi = np.atleast_2d(np.asarray(self.xi, dtype=complex))
        if p.shape != q.shape:
            raise DimensionError("p and q shapes differ")
        if xi.shape[-1] != p.shape[-1]:
            raise DimensionError("xi column count must match the degree")
        if xi.shape[:-2] != p.shape[:-2]:
            raise DimensionError(f"xi {xi.shape} and p {p.shape} stack differently")
        if kappa.shape != (*xi.shape[:-1], xi.shape[-2]):
            raise DimensionError("kappa must be m x m")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "kappa", kappa)

    @classmethod
    def identity(cls, n: int, m: int):
        return cls(np.eye(n, dtype=complex), np.zeros((n, n), dtype=complex),
                   np.zeros((m, n), dtype=complex), np.zeros((m, m)))

    @property
    def n(self) -> int:
        return self.p.shape[-1]

    @property
    def m(self) -> int:
        return self.xi.shape[-2]

    def blocks(self):
        """(P, Q, conj(Q), conj(P)), laid out as ``SymplecticElement.blocks``."""
        return self.p, self.q, self.q.conj(), self.p.conj()

    def is_valid(self) -> bool:
        n = self.n
        r1 = self.p.mT @ self.p.conj() - self.q.conj().mT @ self.q - np.eye(n)
        r2 = self.p.mT @ self.q.conj() - self.q.conj().mT @ self.p
        zeta = 1j * self.kappa + self.xi.conj() @ self.xi.mT
        r3 = zeta - zeta.mT
        return bool(max(np.max(np.abs(r)) for r in (r1, r2, r3)) <= GROUP_TOL)

    def multiply(self, other: "StarGroupElement") -> "StarGroupElement":
        if (self.n, self.m) != (other.n, other.m):
            raise DimensionError("degree mismatch")
        p3 = self.p @ other.p + self.q @ other.q.conj()
        q3 = self.p @ other.q + self.q @ other.p.conj()
        # Heisenberg part multiplies inside the complex Heisenberg group after
        # right translation by the second symplectic part.
        xi_t = self.xi @ other.p + self.xi.conj() @ other.q.conj()
        eta_t = self.xi @ other.q + self.xi.conj() @ other.p.conj()
        zeta3 = (1j * self.kappa + 1j * other.kappa
                 + xi_t @ other.xi.conj().mT - eta_t @ other.xi.mT)
        return StarGroupElement(p3, q3, xi_t + other.xi, (-1j * zeta3).real)


def embed_star(g: JacobiGroupElement) -> StarGroupElement:
    """Conjugation of a Jacobi group element into the disk-model group."""
    a, b, c, d = g.sp.blocks()
    p = 0.5 * ((a + d) + 1j * (b - c))
    q = 0.5 * ((a - d) - 1j * (b + c))
    xi = 0.5 * (g.h.lam + 1j * g.h.mu)
    return StarGroupElement(p, q, xi, -0.5 * g.h.kappa)


# -- Actions ------------------------------------------------------------------

# point type -> (element type, the (L, K) of its action on a Jacobi space)
_ACTIONS = {SiegelPoint: (SymplecticElement, None),
            JacobiPoint: (JacobiGroupElement, lambda g: (g.h.lam, g.h.mu)),
            DiskPoint: (StarGroupElement, None),
            JacobiDiskPoint: (StarGroupElement, lambda g: (g.xi, g.xi.conj()))}


def action_map(g, p) -> tuple:
    """The blocks (A, B, C, D) of the fractional-linear map by which g acts
    on p's space, and (L, K) on a Jacobi space (else None)."""
    group, shift = _ACTIONS.get(type(p), (None, None))
    if group is None or not isinstance(g, group):
        raise DomainError(f"no action of {type(g).__name__} on {type(p).__name__}")
    lk = None if shift is None else shift(g)
    if g.n != p.n or (lk is not None and g.m != p.m):
        raise DimensionError("degree mismatch")
    return g.blocks(), lk


def _numerator(lk, x, z):
    """Z + L X + K; at K = 0, its differential along (dX, dZ)."""
    l, k = lk
    return z + l @ x + k


def act(g, p):
    """The action of g on p: the fractional-linear map of ``action_map``."""
    blocks, lk = action_map(g, p)
    x, *z = p.parts()
    return type(p)(*fractional_linear(*blocks, x, *(_numerator(lk, x, r) for r in z)))


def act_differential(g, p, d_parts) -> list:
    """The differential of g's action at p along the parts [dX] or [dX, dZ],
    which may be stacks; the numerator's differential is dZ + L dX."""
    blocks, lk = action_map(g, p)
    (x, *z), (dx, *dz) = p.parts(), d_parts
    rect = [_numerator(lk, x, z[0]), _numerator((lk[0], 0.0), dx, dz[0])] if z else []
    return fractional_linear_differential(*blocks, x, dx, *rect)


def act_siegel(g: SymplecticElement, p: SiegelPoint) -> SiegelPoint:
    """Fractional-linear action (A omega + B)(C omega + D)^{-1}."""
    return act(g, p)


def act_jacobi(g: JacobiGroupElement, p: JacobiPoint) -> JacobiPoint:
    """The symplectic action on omega; z -> (z + lam omega + mu)(C omega + D)^{-1}."""
    return act(g, p)


def act_disk(g: StarGroupElement, p: DiskPoint) -> DiskPoint:
    """W -> (P W + Q)(conj(Q) W + conj(P))^{-1}."""
    return act(g, p)


def act_jacobi_disk(g: StarGroupElement, p: JacobiDiskPoint) -> JacobiDiskPoint:
    """The disk action on W; eta -> (eta + xi W + conj(xi))(conj(Q) W + conj(P))^{-1}."""
    return act(g, p)


# -- Generators and random words ----------------------------------------------

# The generators' matrices, unchecked: the public generators validate their
# block first, and random words, whose blocks are valid by construction, use
# them directly.

def _translation_matrix(b):
    n = b.shape[0]
    mat = np.eye(2 * n)
    mat[:n, n:] = b
    return mat


def _dilation_matrix(alpha):
    n = alpha.shape[0]
    mat = np.zeros((2 * n, 2 * n))
    mat[:n, :n] = alpha.T
    mat[n:, n:] = np.linalg.inv(alpha)
    return mat


@cache
def _inversion_matrix(n: int):
    mat = np.zeros((2 * n, 2 * n))
    mat[:n, n:] = -np.eye(n)
    mat[n:, :n] = np.eye(n)
    mat.flags.writeable = False    # shared by every caller through the cache
    return mat


def translation(b) -> SymplecticElement:
    """t(b): omega -> omega + b for one symmetric n x n block b."""
    return SymplecticElement(_translation_matrix(linalg.real_symmetric(b, "translation block")))


def dilation(alpha) -> SymplecticElement:
    """g(alpha): omega -> t(alpha) omega alpha for invertible alpha, read as
    one n x n block with |det alpha| >= 1e-12."""
    alpha = linalg.real_matrix(alpha, "dilation block")
    if alpha.shape[0] != alpha.shape[1] or abs(np.linalg.det(alpha)) < 1e-12:
        raise DomainError("dilation block must be invertible n x n")
    return SymplecticElement(_dilation_matrix(alpha))


def inversion(n: int) -> SymplecticElement:
    """sigma_n: omega -> -omega^{-1}; its matrix is shared and read-only."""
    return SymplecticElement(_inversion_matrix(n))


def _sl2(g) -> np.ndarray:
    """g as one real 2 x 2 float matrix, once its determinant is 1 within GROUP_TOL."""
    g = linalg.real_matrix(g, "SL(2, R) matrix")
    if g.shape != (2, 2):
        raise DimensionError(f"SL(2, R) matrix must be 2 x 2, got shape {g.shape}")
    if abs(linalg._cofactor_det(g.tolist(), 2) - 1.0) > GROUP_TOL:
        raise DomainError("SL(2, R) matrix must have determinant 1")
    return g


def embedded_sl2(m2, n: int, slot: int) -> SymplecticElement:
    """The SL(2, R) matrix m2 (see ``_sl2``) acting on diagonal coordinate slot < n."""
    if not 0 <= slot < n:
        raise DimensionError(f"slot {slot} is outside 0..{n - 1}")
    mat = np.eye(2 * n)
    mat[np.ix_([slot, n + slot], [slot, n + slot])] = _sl2(m2)
    return SymplecticElement(mat)


def random_symplectic(n: int, rng, max_word: int = 6) -> SymplecticElement:
    """Bounded random word in t(b), g(alpha), sigma_n. The word multiplies
    the generators' matrices, which are valid by construction, and makes one
    element of the product."""
    mat = np.eye(2 * n)
    length = int(rng.integers(0, max_word + 1))
    for _ in range(length):
        kind = int(rng.integers(0, 3))
        if kind == 0:
            b = rng.uniform(-1.0, 1.0, size=(n, n))
            mat = mat @ _translation_matrix(0.5 * (b + b.T))
        elif kind == 1:
            alpha = np.eye(n) + 0.25 * rng.uniform(-1.0, 1.0, size=(n, n))
            mat = mat @ _dilation_matrix(alpha)
        else:
            mat = mat @ _inversion_matrix(n)
    return SymplecticElement(mat)


def random_heisenberg(n: int, m: int, rng) -> HeisenbergElement:
    lam = rng.uniform(-1.0, 1.0, size=(m, n))
    mu = rng.uniform(-1.0, 1.0, size=(m, n))
    sym = rng.uniform(-1.0, 1.0, size=(m, m))
    # kappa + mu t(lam) equals the symmetric draw by construction
    kappa = 0.5 * (sym + sym.T) - mu @ lam.T
    return HeisenbergElement(lam, mu, kappa)


def random_jacobi(n: int, m: int, rng, max_word: int = 6) -> JacobiGroupElement:
    return JacobiGroupElement(random_symplectic(n, rng, max_word), random_heisenberg(n, m, rng))


# a word of degree n is a 2n x 2n matrix: 16,384 entries at the bound
MAX_DEGREE = 64


def parse_generator_word(word: str, n: int) -> SymplecticElement:
    """Build a symplectic element from a word like ``t(0.5);g(1.2);s``.

    ``t(x)`` translates by x * (ones symmetric), ``g(x)`` dilates by
    I + x * ones / n, and ``s`` is the inversion; terms compose left to right.
    The degree n is at least 1 and at most MAX_DEGREE.
    """
    if not 1 <= n <= MAX_DEGREE:
        raise DomainError(f"degree must be between 1 and {MAX_DEGREE}, got {n}")
    g = SymplecticElement.identity(n)
    for raw in word.split(";"):
        tok = raw.strip()
        if not tok:
            continue
        if tok == "s":
            g = g.multiply(inversion(n))
        elif tok[:2] in ("t(", "g(") and tok.endswith(")"):
            x = float(tok[2:-1])
            if not np.isfinite(x):
                raise DomainError(f"generator token {tok!r} has a non-finite parameter")
            g = g.multiply(translation(x * np.ones((n, n))) if tok[0] == "t"
                           else dilation(np.eye(n) + (x / n) * np.ones((n, n))))
        else:
            raise DomainError(f"cannot parse generator token {tok!r}")
    return g


_KINDS = {cls._kind: cls for cls in (SymplecticElement, HeisenbergElement,
                                     JacobiGroupElement, StarGroupElement)}


def element_from_json(obj):
    """Decode a group element from its JSON object by the ``kind`` tag: each
    part in field order, a nested element as the class its field declares."""
    if not isinstance(obj, dict):
        raise DomainError(f"element JSON must be an object, got {type(obj).__name__}")
    cls = _KINDS.get(obj.get("kind"))
    if cls is None:
        raise DomainError(f"unknown element kind {obj.get('kind')!r}")
    parts = []
    for name, part_cls in typing.get_type_hints(cls).items():
        if name not in obj:
            raise DomainError(f"{cls._kind} element JSON has no part {name!r}")
        if part_cls is np.ndarray:
            parts.append(linalg.matrix_from_json(obj[name]))
        else:
            part = obj[name]
            kind = part.get("kind") if isinstance(part, dict) else type(part).__name__
            if kind != part_cls._kind:
                raise DomainError(f"{name} must be a {part_cls._kind} element, got {kind}")
            parts.append(element_from_json(part))
    return cls.create(*parts)
