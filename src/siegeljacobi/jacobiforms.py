"""Scalar-weight automorphic factor and slash action, Fourier-series data
model with the singularity gate, the determinant-type differential operator
acting on series, the degree-lowering projection, and pluriharmonicity of
polynomials in the toroidal variables."""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DimensionError, DomainError
from .groups import JacobiGroupElement
from .linalg import safe_inv, safe_solve
from .spaces import JacobiPoint

TWO_PI_I = 2j * np.pi


@dataclass(frozen=True)
class JacobiFormIndex:
    """Half-integral positive semidefinite index matrix plus integer weight."""

    m_mat: np.ndarray
    weight: int = 0

    def __post_init__(self):
        m_mat = linalg.integer_matrix(self.m_mat, "index matrix", half=True) / 2.0
        if not linalg.semidefinite_each(m_mat):
            raise DomainError("index matrix must be positive semidefinite")
        object.__setattr__(self, "m_mat", m_mat)
        object.__setattr__(self, "weight", linalg.integer_matrix(self.weight, "weight").item())

    @property
    def m(self) -> int:
        return self.m_mat.shape[0]


def automorphic_factor(idx: JacobiFormIndex, g: JacobiGroupElement, p: JacobiPoint) -> complex:
    """Scalar automorphic factor with representation det^k.

    Value: exp(2 pi i tr(M (Z + lam Omega + mu)(C Omega + D)^{-1} C
    t(Z + lam Omega + mu))) * exp(-2 pi i tr(M (lam Omega t(lam) + 2 lam t(Z)
    + kappa + mu t(lam)))) * det(C Omega + D)^k.
    """
    if g.m != idx.m or p.m != idx.m or g.n != p.n:
        raise DimensionError("degree mismatch between index, element and point")
    mm = idx.m_mat
    a, b, c, d = g.sp.blocks()
    lam, mu, kappa = g.h.lam, g.h.mu, g.h.kappa
    omega, z = p.omega, p.z
    denom = c @ omega + d
    moved = z + lam @ omega + mu
    inner = moved @ safe_solve(denom, c) @ moved.T
    first = np.exp(TWO_PI_I * np.trace(mm @ inner))
    second = np.exp(-TWO_PI_I * np.trace(
        mm @ (lam @ omega @ lam.T + 2.0 * lam @ z.T + kappa + mu @ lam.T)))
    return complex(first * second * np.linalg.det(denom) ** idx.weight)


def slash(f, idx: JacobiFormIndex, g: JacobiGroupElement):
    """Field (omega, z) -> J(g, .)^{-1} f(g . (omega, z))."""
    from .groups import act_jacobi

    def slashed(p: JacobiPoint) -> complex:
        return complex(f(act_jacobi(g, p)) / automorphic_factor(idx, g, p))

    return slashed


def _gate_block(t, r, lambda_gamma, m_mat):
    """[[T/lambda, R/2], [t(R)/2, M]]: the block of the semidefiniteness gate
    and of the singularity test."""
    return np.block([[t / lambda_gamma, r / 2.0], [r.T / 2.0, m_mat]])


@dataclass(frozen=True)
class FourierSeries:
    """Finite Fourier expansion sum c(T, R) e(tr(T Omega)/lambda) e(tr(R Z)).

    Terms are keyed by the integer matrices (2T, R); every stored T is
    symmetric half-integral positive semidefinite and each term passes the
    semidefiniteness gate on [[T/lambda, R/2], [t(R)/2, M]].
    """

    n: int
    index: JacobiFormIndex
    lambda_gamma: int = 1
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        lam = linalg.integer_matrix(self.lambda_gamma, "lambda").item()
        if lam == 0:
            raise DomainError("lambda must be a nonzero integer")
        object.__setattr__(self, "lambda_gamma", lam)

    @classmethod
    def build(cls, n: int, index: JacobiFormIndex, terms, lambda_gamma: int = 1):
        """terms: iterable of (T, R, coefficient); a term off the gate raises DomainError."""
        series = cls(n, index, lambda_gamma)
        for t, r, c in terms:
            t2, r = linalg.integer_matrix(t, "T", half=True), linalg.integer_matrix(r, "R")
            if t2.shape != (n, n) or r.shape != (n, index.m):
                raise DimensionError(f"term shapes {t2.shape}, {r.shape} do not match (n, m)")
            t = t2 / 2.0
            if not linalg.semidefinite_each(t):
                raise DomainError("T must be positive semidefinite")
            if not linalg.semidefinite_each(_gate_block(t, r, series.lambda_gamma, index.m_mat)):
                raise DomainError("term fails the semidefiniteness gate")
            key = (tuple(t2.ravel()), tuple(r.ravel()))
            series.terms[key] = series.terms.get(key, 0.0) + complex(c)
        return series

    def items(self):
        for (t2_flat, r_flat), c in sorted(self.terms.items()):
            t = np.array(t2_flat, dtype=float).reshape(self.n, self.n) / 2.0
            r = np.array(r_flat, dtype=float).reshape(self.n, self.index.m)
            yield t, r, c

    def term(self, t, r, c, p: JacobiPoint) -> complex:
        """The term c e(tr(T Omega) / lambda) e(tr(R Z)) of ``items()`` at p."""
        return c * np.exp((TWO_PI_I / self.lambda_gamma) * np.trace(t @ p.omega)
                          + TWO_PI_I * np.trace(r @ p.z))

    def to_json(self) -> dict:
        return {"lambda": self.lambda_gamma, "M": linalg.matrix_to_json(self.index.m_mat),
                "k": self.index.weight,
                "terms": [{"T": linalg.matrix_to_json(t), "R": linalg.matrix_to_json(r),
                           "c": [c.real, c.imag]} for t, r, c in self.items()]}

    @classmethod
    def from_json(cls, obj) -> "FourierSeries":
        idx = JacobiFormIndex(linalg.matrix_from_json(obj["M"]), obj.get("k", 0))
        terms = [(linalg.matrix_from_json(item["T"]), linalg.matrix_from_json(item["R"]),
                  complex(item["c"][0], item["c"][1])) for item in obj.get("terms", [])]
        if not terms:
            raise DomainError("series JSON has no terms; the degree is undetermined")
        return cls.build(len(terms[-1][0]), idx, terms, obj.get("lambda", 1))


def fourier_eval(s: FourierSeries, p: JacobiPoint) -> complex:
    """Pointwise value of the finite expansion."""
    if p.n != s.n or p.m != s.index.m:
        raise DimensionError("point degrees do not match the series")
    total = 0.0 + 0.0j
    for t, r, c in s.items():
        total += s.term(t, r, c, p)
    return complex(total)


def singular_gate_determinant(s: FourierSeries, t, r) -> float:
    return float(np.linalg.det(_gate_block(t, r, s.lambda_gamma, s.index.m_mat)))


def is_singular(s: FourierSeries) -> bool:
    """True iff every stored nonzero coefficient sits on the vanishing locus
    of det [[T/lambda, R/2], [t(R)/2, M]] (|det| <= 1e-9), where each term's
    factor det(T/lambda - R M^{-1} t(R)/4) in ``apply_m_operator`` vanishes."""
    for t, r, c in s.items():
        if abs(c) == 0.0:
            continue
        if abs(singular_gate_determinant(s, t, r)) > 1e-9:
            return False
    return True


def apply_m_operator(s: FourierSeries, p: JacobiPoint) -> complex:
    """Value at p of det(Y) det(d/dY + (1/8 pi) t(d/dV) M^{-1} d/dV) applied
    to the series.

    Each exponential term is an eigenfunction of the operator matrix: the
    d/dY entry pulls down -(2 pi / lambda) T and the V-block pulls down
    (pi / 2) R M^{-1} t(R), so the term value is multiplied by
    det(Y) (-2 pi)^n det(T / lambda - R M^{-1} t(R) / 4).
    """
    if not linalg.positive_each(s.index.m_mat):
        raise DomainError("the operator needs a positive definite index matrix")
    mm_inv = safe_inv(s.index.m_mat).real
    det_y = float(np.linalg.det(p.omega.imag))
    total = 0.0 + 0.0j
    for t, r, c in s.items():
        factor = np.linalg.det(t / s.lambda_gamma - 0.25 * r @ mm_inv @ r.T)
        total += factor * s.term(t, r, c, p)
    return complex(det_y * (-2.0 * np.pi) ** s.n * total)


def siegel_jacobi_operator(s: FourierSeries, r_deg: int) -> FourierSeries:
    """Degree-lowering projection: keep terms whose T has a vanishing
    lower-right (n - r) x (n - r) block, cut T to its upper-left r x r block
    and R to its first r rows."""
    if not 1 <= r_deg < s.n:
        raise DomainError(f"target degree {r_deg} must satisfy 1 <= r < {s.n}")
    kept = []
    for t, r, c in s.items():
        if t[r_deg:, r_deg:].any():
            continue
        if t[:r_deg, r_deg:].any():
            warnings.warn("dropping a term with zero tail block but nonzero "
                          "off-diagonal block (T is not positive semidefinite)")
            continue
        kept.append((t[:r_deg, :r_deg], r[:r_deg, :], c))
    return FourierSeries.build(r_deg, s.index, kept, s.lambda_gamma)


# -- Polynomials in the toroidal variables ----------------------------------------

@dataclass(frozen=True)
class Polynomial:
    """Polynomial over the m x n matrix variables, stored as a map from
    exponent tuples (row-major over the variable grid) to coefficients."""

    m: int
    n: int
    coeffs: dict = field(default_factory=dict)

    @classmethod
    def constant(cls, m: int, n: int, c) -> "Polynomial":
        if c == 0:
            return cls(m, n, {})
        return cls(m, n, {tuple([0] * (m * n)): complex(c)})

    @classmethod
    def variable(cls, m: int, n: int, p: int, i: int) -> "Polynomial":
        """The coordinate z_{pi} (zero-based row p, column i)."""
        exps = [0] * (m * n)
        exps[p * n + i] = 1
        return cls(m, n, {tuple(exps): 1.0 + 0.0j})

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0.0) + c
        return Polynomial(self.m, self.n, {e: c for e, c in out.items() if c != 0})

    def scale(self, c) -> "Polynomial":
        return Polynomial(self.m, self.n, {e: c * v for e, v in self.coeffs.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(-1.0)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0.0) + c1 * c2
        return Polynomial(self.m, self.n, {e: c for e, c in out.items() if c != 0})

    def diff(self, p: int, i: int) -> "Polynomial":
        var = p * self.n + i
        out = {}
        for e, c in self.coeffs.items():
            k = e[var]
            if k == 0:
                continue
            e2 = list(e)
            e2[var] = k - 1
            out[tuple(e2)] = out.get(tuple(e2), 0.0) + c * k
        return Polynomial(self.m, self.n, out)

    def transform(self, a, b) -> "Polynomial":
        """P(Z) -> P(t(B) Z A) for A (n x n) and B (m x m): z_{pi} becomes
        sum_{qj} B_{qp} A_{ji} z_{qj}, whose coefficients are column p n + i
        of kron(B, A)."""
        m, n = self.m, self.n
        zero = Polynomial.constant(m, n, 0.0)
        images = [sum((Polynomial.variable(m, n, *divmod(k, n)).scale(c)
                       for k, c in enumerate(column) if c != 0), zero)
                  for column in np.kron(np.asarray(b, dtype=complex),
                                        np.asarray(a, dtype=complex)).T]
        result = zero
        for e, c in self.coeffs.items():
            term = Polynomial.constant(m, n, c)
            for image, k in zip(images, e):
                for _ in range(k):
                    term = term * image
            result = result + term
        return result

    def eval(self, z) -> complex:
        z = np.asarray(z, dtype=complex).reshape(-1)
        total = 0.0 + 0.0j
        for e, c in self.coeffs.items():
            total += c * np.prod([zv**k for zv, k in zip(z, e) if k], initial=1.0)
        return complex(total)

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)


def pluriharmonic_defects(poly: Polynomial, s_mat) -> float:
    """Largest coefficient magnitude among the n^2 polynomials
    sum_{pq} (S^{-1})_{pq} d^2 P / (dz_{pi} dz_{qj})."""
    s_mat = linalg.real_symmetric(s_mat, "quadratic form")
    if s_mat.shape != (poly.m, poly.m):
        raise DimensionError("quadratic form size must match the variable rows")
    t = safe_inv(s_mat).real
    worst = 0.0
    for i in range(poly.n):
        for j in range(poly.n):
            acc = Polynomial.constant(poly.m, poly.n, 0.0)
            for p in range(poly.m):
                for q in range(poly.m):
                    if t[p, q] != 0:
                        acc = acc + poly.diff(p, i).diff(q, j).scale(t[p, q])
            worst = max(worst, acc.max_abs_coeff())
    return worst


def is_pluriharmonic(poly: Polynomial, s_mat) -> bool:
    """True iff the defects are within 1e-12 of max(1, largest coefficient)."""
    scale = max(1.0, poly.max_abs_coeff())
    return pluriharmonic_defects(poly, s_mat) <= 1e-12 * scale
