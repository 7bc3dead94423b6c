"""Complex/real matrix primitives shared by every other module.

Conventions: matrices are numpy arrays (complex128 or float64), row-major.
The JSON wire format for a matrix is
``{"rows": n, "cols": m, "data": [[re, im], ...]}`` with ``data`` row-major.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, DomainError, NumericError

COND_LIMIT = 1e12
# every validity test compares within ABS_TOL + REL_TOL * max(|a|, |b|), and
# a positive definite matrix has its smallest eigenvalue above ABS_TOL
ABS_TOL = 1e-10
REL_TOL = 1e-10
# an integer parameter lies within INT_TOL of its integer, of size at most 2^53
INT_TOL = 1e-9
# require_conditioned clears a matrix without an SVD when the determinant
# bound on its condition number is below _DET_MARGIN * COND_LIMIT. The margin
# covers the rounding of the computed determinant. At n <= 3, the cofactor
# expansion errs by at most gamma (a few units of roundoff) times the
# permanent of |A| <= n^{n/2} (|A|_F / sqrt n)^n (Cauchy-Schwarz per row,
# then the mean step of Hadamard's inequality): relatively, about n^{n/2}
# gamma times the bound, near 2e-7 wherever the bound is under 1e8. Above,
# the LU's error grows like n rho eps cond (rho its growth factor). The
# determinant must also be a normal number, so that underflow cannot shrink
# the bound (at n = 1, where the norm can still underflow, every nonzero
# matrix has condition number 1).
_DET_MARGIN = 1e-4
_TINY = np.finfo(float).tiny


def close_each(a, b):
    """|a - b| <= ABS_TOL + REL_TOL * max(|a|, |b|) in every entry, for one
    matrix or for each matrix of a stack."""
    bound = ABS_TOL + REL_TOL * np.maximum(np.abs(a), np.abs(b))
    return (np.abs(a - b) <= bound).all(axis=(-2, -1))


def as_complex_stack(a):
    """A complex matrix, or a stack of them along leading axes; a scalar
    reads as a 1 x 1 matrix."""
    a = np.asarray(a, dtype=complex)
    if a.ndim == 0:
        return a.reshape(1, 1)
    if a.ndim == 1:
        raise DimensionError("expected a matrix, got ndim=1")
    return a


def square_stack(a, what="matrix"):
    """A complex square matrix, or a stack of them along leading axes."""
    a = as_complex_stack(a)
    if a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"{what} must be square, got shape {a.shape}")
    return a


def real_array(a, what):
    """``a`` as a float array. A non-numeric entry and an entry with a nonzero
    imaginary part are refused, naming ``what``; a complex entry with zero
    imaginary part reads as its real part, copied into the C-ordered array
    the real input would give. Real input costs two type tests and no copy."""
    a = np.asarray(a)
    if a.dtype.kind == "O":    # by complex(), as numpy reads None as nan
        try:
            a = np.array([complex(x) for x in a.flat]).reshape(a.shape)
        except (TypeError, ValueError, OverflowError):
            pass
    if a.dtype.kind not in "biufc":
        raise DomainError(f"{what} has non-numeric entries")
    if a.dtype.kind == "c":
        if np.any(a.imag != 0.0):
            raise DomainError(f"{what} has nonzero imaginary entries")
        return np.array(a.real, dtype=float, order="C")
    return np.asarray(a, dtype=float)


def real_matrix(a, what):
    """One finite real matrix by ``real_array``, a scalar read as 1 x 1; ragged
    rows, another shape and a non-finite entry are refused, naming ``what``."""
    try:
        a = np.asarray(a)
    except ValueError:    # a ragged nesting
        raise DimensionError(f"{what} must be one matrix, got ragged rows") from None
    a = real_array(a.reshape(1, 1) if a.ndim == 0 else a, what)
    if a.ndim != 2 or not a.size:
        raise DimensionError(f"{what} must be one matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DomainError(f"{what} has non-finite entries")
    return a


def real_symmetric(a, what):
    """``real_matrix``, square and symmetric by ``close_each``; asymmetry within it is averaged."""
    a = real_matrix(a, what)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"{what} must be square, got shape {a.shape}")
    with np.errstate(over="ignore"):    # a difference past the float range is asymmetry
        if not close_each(a, a.T):
            raise DomainError(f"{what} must be symmetric")
    return 0.5 * a + 0.5 * a.T    # halves first, so that no sum overflows


def integer_matrix(a, what, symmetric=False, half=False):
    """The exact int64 integers of a ``real_matrix`` (``real_symmetric`` when
    ``symmetric`` or ``half``) whose entries lie within INT_TOL of Z, or with
    ``half`` of Z/2 and of Z on the diagonal, read then as the integers 2a.
    An entry off them or past 2^53 (before any doubling) is refused by name."""
    a = real_symmetric(a, what) if symmetric or half else real_matrix(a, what)
    scale = 2.0 if half else 1.0
    if np.abs(a).max() > 2.0 ** 53 / scale:
        raise DomainError(f"{what} has entries too large to be exact integers")
    a = scale * a
    k = np.rint(a)
    if np.abs(a - k).max() > scale * INT_TOL or half and (np.diagonal(k) % 2).any():
        raise DomainError(f"{what} must be half-integral (integral diagonal, off-diagonal in Z/2)"
                          if half else f"{what} must be integral")
    return k.astype(np.int64)


def symmetrize(a):
    """(A + tA) / 2 of a square matrix or of each matrix in a stack."""
    a = square_stack(a)
    return 0.5 * (a + a.swapaxes(-1, -2))


def hermitize(a):
    """(A + A^H) / 2 of a square matrix or of each matrix in a stack."""
    a = square_stack(a)
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def positive_each(s):
    """Per matrix of a Hermitian stack (or for one matrix): finite, with its
    smallest eigenvalue above ABS_TOL. Boundary points are refused: the
    spaces here are built on open cones. The eigenvalues come from the
    complex solver whatever the input type: on a matrix of wide dynamic range
    the real one can move the smallest eigenvalue across the tolerance."""
    return _smallest_eigenvalue(s) > ABS_TOL


def semidefinite_each(s):
    """``positive_each`` with the smallest eigenvalue at or above -ABS_TOL."""
    return _smallest_eigenvalue(s) >= -ABS_TOL


def _smallest_eigenvalue(s):
    """Of each matrix of a Hermitian stack; one with a non-finite entry reads as -I."""
    s = square_stack(s)
    finite = np.isfinite(s).all(axis=(-2, -1))
    s = np.where(finite[..., None, None], s, -np.eye(s.shape[-1], dtype=complex))
    return np.linalg.eigvalsh(s)[..., 0]


def cholesky(s):
    """Cholesky factor L with L L^H = s for Hermitian positive definite s, or
    the factors of a stack of such matrices."""
    s = square_stack(s)
    try:
        return np.linalg.cholesky(hermitize(s))
    except np.linalg.LinAlgError as exc:
        raise DomainError(f"matrix is not positive definite: {exc}") from exc


def _cofactor_det(m, n):
    """Cofactor determinant of an n x n matrix, 0 < n <= 3, read with the
    matrix axes first: nested lists of Python numbers, or an array of shape
    (n, n, ...) whose trailing axes index a stack of matrices."""
    if n == 1:
        return m[0][0]
    if n == 2:
        (a, b), (c, d) = m
        return a * d - b * c
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _cleared_det(rows, n):
    """The determinant bound of ``require_conditioned`` on one n x n matrix,
    0 < n <= 3, given as nested lists, in Python floats: the cofactor
    determinant where the bound clears the matrix, else None. An overflow
    gives inf or nan, which clears nothing. (``abs`` of a complex and
    ``float ** k`` would raise OverflowError, so the modulus comes from
    ``math.hypot`` and the powers from products.)"""
    det = _cofactor_det(rows, n)
    size = math.hypot(det.real, det.imag)
    sq = 0.0
    for row in rows:
        for x in row:
            sq += x.real * x.real + x.imag * x.imag
    mean = sq / n
    bound = 2.0 * (math.sqrt(mean) if n == 1 else mean if n == 2 else mean * math.sqrt(mean))
    return det if _TINY <= size < math.inf and bound < _DET_MARGIN * COND_LIMIT * size else None


def require_conditioned(a):
    """Conditioning guard on a square matrix or a stack of them; returns the
    determinant, by ``_cofactor_det`` at n <= 3 and ``np.linalg.det`` above.
    Raises NumericError, naming the first offending condition number, when
    any 2-norm condition number is non-finite or exceeds COND_LIMIT.

    A stack passes without an SVD when every determinant is a finite normal
    number and the bound cond(A) < 2 (|A|_F / sqrt n)^n / |det A|
    (Guggenheimer, Edelman and Johnson, College Math. J. 26 (1995) 2-5) is
    below _DET_MARGIN * COND_LIMIT; any other stack is judged by
    ``np.linalg.cond``, except that a matrix with a non-finite entry is
    refused without one. A cleared matrix has cond(A) far below COND_LIMIT,
    so every accept/reject decision is that of the SVD alone.

    A single matrix of degree n <= 3 is first tried by ``_cleared_det``, the
    same bound in Python floats, which costs 1-4 us where the stacked path's
    numpy calls cost 10-20 us, and a matrix it clears returns the determinant
    it computed. That check can only clear: a matrix it does not clear goes
    down the stacked path, which makes every refusal and its message."""
    a = np.asarray(a)
    n = a.shape[-1]
    small = 0 < n <= 3
    if a.ndim == 2 and small and (det := _cleared_det(a.tolist(), n)) is not None:
        return det
    with np.errstate(all="ignore"):
        det = (_cofactor_det(a.transpose(a.ndim - 2, a.ndim - 1, *range(a.ndim - 2)), n)
               if small else np.linalg.det(a))
        size = np.abs(det)
        # |A|_F^2 over the float view of A, or of tA where that is C-ordered
        flat = a.mT if a.mT.flags.c_contiguous else np.ascontiguousarray(a)
        flat = flat.view(float).reshape(*a.shape[:-2], -1)
        bound = 2.0 * (np.einsum("...i,...i->...", flat, flat) / n) ** (n / 2)
        if ((_TINY <= size) & (size < np.inf) & (bound < _DET_MARGIN * COND_LIMIT * size)).all():
            return det
    stack = a.reshape(-1, n, n)
    # LAPACK refuses non-finite entries, so they get no SVD: such a matrix is
    # named inf, or nan when it holds a nan, as np.linalg.cond names them
    cond = np.where(np.isnan(stack).any(axis=(1, 2)), np.nan, np.inf)
    finite = np.isfinite(stack).all(axis=(1, 2))
    cond[finite] = np.linalg.cond(stack[finite])
    bad = ~(cond <= COND_LIMIT)
    if bad.any():
        worst = cond[np.argmax(bad)]
        raise NumericError(f"matrix condition estimate {worst:.3e} exceeds {COND_LIMIT:.1e}")
    return det


def safe_inv(a):
    """Inverse with a conditioning guard; raises NumericError when cond > 1e12.
    A may be a stack of square matrices, and one guard covers the stack."""
    a = square_stack(a)
    require_conditioned(a)
    return np.linalg.inv(a)


def safe_solve(a, b):
    """A^{-1} b behind the conditioning guard; A may be a stack of square
    matrices, with b stacked alike, and one guard covers the stack."""
    a = square_stack(a)
    require_conditioned(a)
    return np.linalg.solve(a, b)


def _over_denominator(c, x, d, num, rect):
    """[sym(num (C X + D)^{-1})], then rect (C X + D)^{-1} unless rect is None,
    from one ``safe_solve`` (one conditioning check, one factorization)."""
    rhs = num.mT if rect is None else np.concatenate([num.mT, rect.mT], axis=-1)
    sol = safe_solve((c @ x + d).mT, rhs).mT
    n = x.shape[-1]
    return [symmetrize(sol[..., :n, :])] + ([] if rect is None else [sol[..., n:, :]])


def fractional_linear(a, b, c, d, x, rect=None) -> list:
    """The parts [sym((A X + B)(C X + D)^{-1})] of a fractional-linear map,
    followed by R (C X + D)^{-1} when a rectangular numerator R is given.
    X, R and the blocks may carry leading batch axes (a stack of points, of
    group elements, or both), which broadcast as in ``np.matmul``."""
    return _over_denominator(c, x, d, a @ x + b, rect)


def fractional_linear_differential(a, b, c, d, x, dx, rect=None, d_rect=None) -> list:
    """Differential of ``fractional_linear`` along (dX, dR), with F and G the
    map's own parts: [sym((A - F C) dX (C X + D)^{-1})], then, when R is
    given, (dR - G C dX)(C X + D)^{-1}. X, dX, R and dR may be stacks."""
    f, *g = fractional_linear(a, b, c, d, x, rect)
    d_num = None if rect is None else d_rect - g[0] @ c @ dx
    return _over_denominator(c, x, d, (a - f @ c) @ dx, d_num)


def random_unitary(n, rng):
    """Haar-ish random unitary: QR of a complex Gaussian with phase-fixed R."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


# -- JSON wire format ---------------------------------------------------------

def matrix_to_json(a) -> dict:
    a = as_complex_stack(a)
    if a.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={a.ndim}")
    data = [[float(x.real), float(x.imag)] for x in a.reshape(-1)]
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "data": data}


def matrix_from_json(obj):
    if not isinstance(obj, dict) or not {"rows", "cols", "data"} <= set(obj):
        raise DimensionError("matrix JSON needs keys rows, cols, data")
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
    except (TypeError, ValueError):
        raise DimensionError(f"rows and cols must be integers, got {obj['rows']!r}, "
                             f"{obj['cols']!r}") from None
    if rows < 1 or cols < 1:
        raise DimensionError("rows and cols must be >= 1")
    data = obj["data"]
    if not isinstance(data, list):
        raise DimensionError(f"data must be a list of [re, im] pairs, got {type(data).__name__}")
    if len(data) != rows * cols:
        raise DimensionError(f"data length {len(data)} != rows*cols {rows * cols}")
    flat = []
    for k, pair in enumerate(data):
        try:
            re, im = pair
            flat.append(complex(float(re), float(im)))
        except (TypeError, ValueError):
            raise DimensionError(f"data entry {k} is not an [re, im] pair: {pair!r}") from None
    return np.array(flat, dtype=complex).reshape(rows, cols)
