"""Wirtinger finite-difference engine and the invariant differential operators.

The engine differentiates scalar fields (callables on points) twice in the
real coordinates of the point's chart (``spaces._Chart``), by fourth-order
central differences, then assembles the weighted Wirtinger Hessian. A
``DerivativeTable(f, p)`` holds f and its Wirtinger Hessian at p and
remembers p; every invariant operator is second order and reads the Hessian
of one table, so one table serves as many operators at its point as needed.
The points of a stencil (``_plan``, cached per chart dimension) form one
stack of points; a field marked ``fields.batched`` (also behind
``__wrapped__``) gets the stack in one call and returns one value per point,
any other gets one point at a time. p may itself be a stack of points (see
``spaces``): the stencils of all its points then form one stack, so a batched
field is still called once, and the table's value and Hessian gain a leading
axis over the points. The operators take such a table and return one value
per point, each with the bits of the table at that point alone; the nested
S3 at n >= 2 refuses it.
Matrix derivative conventions: for a symmetric complex matrix the (i, j)
entry of the derivative matrix carries the weight (1 + delta_ij)/2 applied to
the symmetric-variable partial; for rectangular z-type matrices the (k, l)
entry differentiates with respect to z_{kl}, in the m x n layout of z.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from itertools import permutations
from operator import mul

import numpy as np

from .errors import DimensionError, DomainError, NumericError, ParameterError
from .fields import is_batched
from .linalg import close_each, safe_inv
from .metrics import MetricParams, require_weight
from .spaces import JacobiDiskPoint, JacobiPoint, SiegelPoint, _Chart


@dataclass(frozen=True)
class FDConfig:
    """Relative step of the fourth-order central differences."""
    step: float = 1e-3

    def __post_init__(self):
        if not (np.isfinite(self.step) and self.step > 0):
            raise ParameterError("step must be positive and finite")


@dataclass(frozen=True)
class ScalarField:
    """Callable field with an optional declared smoothness radius; it is
    batched when ``fn`` is (``fields.is_batched`` follows ``__wrapped__``)."""

    fn: object
    radius: float = np.inf

    def __call__(self, p):
        return self.fn(p)

    @property
    def __wrapped__(self):
        return self.fn


# Fourth-order central differences along one coordinate: the weight numerators
# by offset of d/dx over C h and of d^2/dx^2 over C h^2.
_D1 = {2: -1.0, 1: 8.0, -1: -8.0, -2: 1.0}
_D2 = {2: -1.0, 1: 16.0, 0: -30.0, -1: 16.0, -2: -1.0}
_C = 12


@cache
def _plan(dim, entries=None):
    """The stencil of the entries d^2/dx_i dx_j, written (i, j), by default
    those of a derivative table, the diagonal first: the distinct points as
    offsets in units of the steps (the center first when some i == j) and,
    term by term in summation order, each entry's point slots and weight
    numerators, over C h_i^2 where i == j and over h_i h_j elsewhere."""
    if entries is None:
        entries = tuple((i, i) for i in range(dim)) + tuple(
            (i, j) for i in range(dim) for j in range(i + 1, dim))
    fo = sorted(_D1)
    keys = {(0,) * dim: 0} if any(i == j for i, j in entries) else {}

    def slot(*shifts):
        return keys.setdefault(tuple(dict(shifts).get(i, 0) for i in range(dim)), len(keys))

    terms = [[(slot((i, o)), w) for o, w in _D2.items()] if i == j else
             [(slot((i, a), (j, b)), _D1[a] / _C * (_D1[b] / _C)) for a in fo for b in fo]
             for i, j in entries]
    width = max(map(len, terms))
    slots, nums = np.array([t + [(0, 0.0)] * (width - len(t)) for t in terms]).transpose(2, 1, 0)
    plan = (np.array(list(keys)), slots.astype(int), nums, *np.array(entries).T)
    for a in plan:
        a.flags.writeable = False    # shared by every caller through the cache
    return plan


def _stencil(f, chart, steps, entries=None):
    """f at the points of ``_plan`` (one call of a batched f, else one call per
    point; a non-finite value raises), the entries summed term by term with the
    scalar stencil's arithmetic (h^2 = pow(h, 2)), and the entries' coordinates.
    ``steps`` is (dim,) at a point and (N, dim) at a stack of N points, whose
    values and entries gain that leading axis. Weights that are not finite (a
    step whose square or product underflows) raise NumericError."""
    offsets, slots, nums, ei, ej = _plan(chart.dim, entries)
    hi, hj = steps[..., ei], steps[..., ej]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        denom = np.where(ei == ej, _C * np.float_power(hi, 2), hi * hj)
        weights = nums / denom[..., None, :]
    if not np.all(np.isfinite(weights)):
        raise NumericError("finite-difference weights are not finite: the step is too small")
    points = chart.shifted(offsets * steps[..., None, :])
    if is_batched(f):
        vals = np.asarray(f(points), dtype=complex)
    else:
        vals = np.array([complex(f(q)) for q in points.unstack()])
    if not np.all(np.isfinite(vals)):
        raise DomainError("field evaluated to a non-finite value")
    vals = vals.reshape(*steps.shape[:-1], len(offsets))
    out = np.zeros((*steps.shape[:-1], len(ei)), dtype=complex)
    for w, s in zip(weights.swapaxes(0, -2), slots):
        out += w * vals[..., s]
    return vals, out, ei, ej


def _require_within_radius(f, reach: float) -> None:
    """ParameterError unless stencil points at most ``reach`` from the point in
    each chart coordinate stay inside f's declared smoothness radius."""
    if reach >= getattr(f, "radius", np.inf):
        raise ParameterError("finite-difference step exceeds the field's smoothness radius")


class DerivativeTable:
    """A field f and its Wirtinger Hessian at the point p, or at each point
    of a stack p: then ``value`` (f at the point) and ``hess`` carry a
    leading axis over the points. ``hess`` is conj(W)^T G W, with G the
    real Hessian in the chart's coordinates and W the chart's Wirtinger
    basis; the ``block_*`` methods slice it."""

    def __init__(self, f, p, cfg: FDConfig = FDConfig()):
        self.point = p
        self.chart = chart = _Chart(p)
        steps = cfg.step * (1.0 + np.abs(chart.coord_values().T))
        _require_within_radius(f, 2 * np.max(steps, initial=0.0))
        self._f = f
        vals, out, ei, ej = _stencil(f, chart, steps)
        self.value = vals[..., 0][()]    # [()]: a scalar at a point
        g2 = np.zeros((*out.shape[:-1], chart.dim, chart.dim), dtype=complex)
        g2[..., ei, ej] = g2[..., ej, ei] = out
        w = chart.wirtinger_basis()
        self.hess = np.conj(w).T @ g2 @ w

    # second derivative blocks: slices of H = conj(W)^T G W -----------------
    def block_sym_bar_sym(self):
        """T[a, b, c, d] = (d/dOmega_bar)_ab (d/dOmega)_cd, both weighted."""
        n = self.chart.n
        return self.hess[..., :n * n, :n * n].reshape(*self.value.shape, n, n, n, n)

    def block_rect_bar_rect(self):
        """T[k, e, k2, j] = d^2 / d zbar_{ke} d z_{k2 j}."""
        n, m = self.chart.n, self.chart.m
        return self.hess[..., n * n:, n * n:].reshape(*self.value.shape, m, n, m, n)

    def block_sym_bar_rect(self):
        """T[a, b, k, d] = (d/dOmega_bar)_ab d/dz_{kd}."""
        n, m = self.chart.n, self.chart.m
        return self.hess[..., :n * n, n * n:].reshape(*self.value.shape, n, n, m, n)

    def block_rect_bar_sym(self):
        """T[k, e, a, b] = d/dzbar_{ke} (d/dOmega)_ab."""
        n, m = self.chart.n, self.chart.m
        return self.hess[..., n * n:, :n * n].reshape(*self.value.shape, m, n, n, n)


# -- Laplacians on the half-space models ----------------------------------------

def _require_point(t: DerivativeTable, cls) -> None:
    """DomainError unless the table was built at a point of class ``cls``."""
    if not isinstance(t.point, cls):
        raise DomainError(f"operator needs a table at a {cls.__name__}, "
                          f"got one at a {type(t.point).__name__}")


def _contract(spec, *operands):
    """The full contraction ``np.einsum(spec, *operands)`` over each operand's
    trailing axes: a complex on a point's table, one value per point on a
    stack's. numpy's einsum groups a sum by its inner loop, which a batch
    axis changes, so a stack is contracted in one call only where each
    contraction is a single product (every trailing extent 1), and point by
    point elsewhere, so that each value keeps the bits of its point."""
    ins = spec.split("->")[0].split(",")
    batch = np.shape(operands[0])[:np.ndim(operands[0]) - len(ins[0])]
    if not batch:
        return complex(np.einsum(spec, *operands))
    if all(np.size(a) == np.prod(batch) for a in operands):
        return np.einsum(",".join("..." + s for s in ins) + "->...", *operands)
    return np.array([np.einsum(spec, *(a[k] for a in operands)) for k in range(batch[0])])


def _per_point(op, *values):
    """``op`` on complex values, or point by point on stacks of them, with
    Python's complex arithmetic: numpy's vector complex product and division
    round differently."""
    if np.ndim(values[0]) == 0:
        return op(*map(complex, values))
    return np.array([op(*v) for v in zip(*(a.tolist() for a in values))], dtype=complex)


def _maass_contraction(y, block):
    return _contract("ij,lk,kjli->", y, y, block)


def laplacian_siegel(t: DerivativeTable, a: float = 1.0) -> complex:
    """(4/A) tr(Y t(Y d/dOmega_bar) d/dOmega) applied to the table's field at
    its SiegelPoint."""
    _require_point(t, SiegelPoint)
    require_weight(a)
    return (4.0 / a) * _maass_contraction(t.point.omega.imag, t.block_sym_bar_sym())


def jacobi_laplacian_parts(t: DerivativeTable):
    """The two invariant pieces of the Laplacian on the Siegel-Jacobi space,
    from the table of a field at a JacobiPoint.

    Returns (part1, part2): part1 couples the omega-derivatives with the
    z-derivatives through V = Im z; part2 = tr(Y d/dZ t(d/dZ_bar)).
    """
    _require_point(t, JacobiPoint)
    p = t.point
    y = p.omega.imag
    v = p.z.imag
    yi = safe_inv(y)
    obo = t.block_sym_bar_sym()
    zbz = t.block_rect_bar_rect()
    obz = t.block_sym_bar_rect()
    zbo = t.block_rect_bar_sym()
    part1 = _maass_contraction(y, obo)
    # V-quadratic piece: tr(Y S(Ebar V Y^{-1}) Y S(E V Y^{-1})) expanded, the
    # unique quadratic form compatible with the Heisenberg translations
    part1 += 0.5 * _contract("ka,Kb,Kakb->", v, v, zbz)
    part1 += 0.5 * _contract("kK,ef,kfKe->", v @ yi @ v.mT, y, zbz)
    part1 += _contract("kc,de,eckd->", v, y, obz)
    part1 += _contract("kJ,je,kejJ->", v, y, zbo)
    part2 = _contract("ij,kikj->", y, zbz)
    return part1, part2


def laplacian_jacobi(t: DerivativeTable, params: MetricParams = MetricParams()) -> complex:
    """(4/A) part1 + (4/B) part2 of ``jacobi_laplacian_parts``."""
    part1, part2 = jacobi_laplacian_parts(t)
    return (4.0 / params.A) * part1 + (4.0 / params.B) * part2


# -- Disk operators ---------------------------------------------------------------

def _disk_mats(p: JacobiDiskPoint):
    w = p.w
    wb = np.conj(w)
    qp = np.eye(p.n) - w @ wb
    return w, wb, qp, np.conj(qp)  # I - conj(W) W = conj(I - W conj(W))


def disk_eta_trace(t: DerivativeTable) -> complex:
    """S1 = tr((I - conj(W) W) d/d eta t(d/d eta_bar)) at the table's
    JacobiDiskPoint."""
    _require_point(t, JacobiDiskPoint)
    _, _, _, q = _disk_mats(t.point)
    return _contract("ij,kikj->", q, t.block_rect_bar_rect())


def disk_w_part(t: DerivativeTable) -> complex:
    """S2 at the table's JacobiDiskPoint: the invariant operator pairing
    W-derivatives with eta-derivatives.

    The W-block is tr((I - W conj(W)) dW_bar (I - conj(W) W) dW); the mixed
    blocks couple eta - conj(eta) W combinations with one W- and one
    eta-derivative; the eta-quadratic block is the unique completion making
    (1/A) S2 + (1/B) S1 the image of the half-space Laplacian under the
    partial Cayley transform.
    """
    _require_point(t, JacobiDiskPoint)
    p = t.point
    w, wb, qp, q = _disk_mats(p)
    n = p.n
    eye = np.eye(n)
    eta = p.eta
    etab = np.conj(eta)
    r = safe_inv(eye - w)
    rb = np.conj(r)
    v = eta @ r + etab @ rb
    wbw = t.block_sym_bar_sym()
    ebe = t.block_rect_bar_rect()
    wbe = t.block_sym_bar_rect()
    ebw = t.block_rect_bar_sym()
    val = _maass_contraction(qp, wbw)
    val += _contract("kj,ec,kecj->", eta - etab @ w, q, ebw)
    val += _contract("kc,de,eckd->", etab - eta @ wb, qp, wbe)
    g1 = v @ (eye - wb)
    g2 = v @ (eye - w)
    kmat = g1 @ safe_inv(qp) @ g2.mT + etab @ (rb @ q @ r) @ eta.mT
    h2 = etab @ rb @ q
    h3 = q @ r @ eta.mT
    j1 = eta @ r @ qp
    val += 0.5 * _contract("ka,Kb,Kakb->", g1, g2, ebe)
    val += 0.5 * _contract("kK,ef,kfKe->", kmat, qp, ebe)
    val += 0.5 * _contract("ka,Kb,Kakb->", j1 - g1, h2, ebe)
    val -= 0.5 * _contract("kK,ef,Kekf->", v @ etab.mT + eta @ v.mT, q, ebe)
    val -= 0.5 * _contract("ka,bK,kbKa->", g2, h3, ebe)
    return val


def laplacian_disk(t: DerivativeTable, params: MetricParams = MetricParams()) -> complex:
    """(1/A) S2 + (1/B) S1: the Laplacian of the invariant disk metric."""
    return _per_point(lambda s2, s1: s2 / params.A + s1 / params.B,
                      disk_w_part(t), disk_eta_trace(t))


def disk_eta_entry(t: DerivativeTable, k: int, l: int) -> complex:
    """J_{kl} = sum_{ij} (I - conj(W) W)_{ij} d^2/(d etabar_{ki} d eta_{lj})
    at the table's JacobiDiskPoint (zero-based k, l)."""
    _require_point(t, JacobiDiskPoint)
    m = t.point.m
    if not (0 <= k < m and 0 <= l < m):
        raise DomainError(f"entry ({k}, {l}) outside index range for m={m}")
    _, _, _, q = _disk_mats(t.point)
    ebe = t.block_rect_bar_rect()
    return _contract("ij,ij->", q, ebe[..., k, :, l, :])


def eta_pair_value(f, p: JacobiDiskPoint, hol, antihol, cfg: FDConfig) -> complex:
    """d^2 f / (d eta_{hol} d etabar_{antihol}) at p via a lean cross stencil;
    p is one point, and a stack of points is refused with DimensionError."""
    if p.w.ndim > 2:
        raise DimensionError("eta_pair_value takes one point, not a stack of points")
    chart = _Chart(p)
    idx = {desc: i for i, desc in enumerate(chart.coords)}
    ur, ui = idx[(1, 0, hol)], idx[(1, 1, hol)]
    vr, vi = idx[(1, 0, antihol)], idx[(1, 1, antihol)]
    x = chart.coord_values()
    steps = np.zeros(chart.dim)
    for r, i in ((ur, ui), (vr, vi)):
        steps[[r, i]] = cfg.step * (1.0 + abs(x[r]) + abs(x[i]))
    pairs = ((ur, vr), (ur, vi), (ui, vr), (ui, vi))
    rr, ri, ir, ii = _stencil(f, chart, steps, pairs)[1].tolist()
    # (1/2)(du - i dv) on the holomorphic side, (1/2)(du + i dv) on the other
    return 0.25 * (rr + 1j * ri - 1j * ir + ii)


def disk_eta_determinant(t: DerivativeTable) -> complex:
    """S3 = det(I - conj(W) W) det(d/d eta t(d/d eta_bar)) at the table's
    JacobiDiskPoint.

    The operator determinant expands over permutations; for n = 1 it reduces
    to the eta-trace kernel and is read from the table, while for n >= 2 the
    constant-coefficient entry operators are composed by nested finite
    differences of the table's field at its point (with an enlarged step to
    keep roundoff in check), refused with ParameterError when those reach
    past the field's declared radius. A row tuple that repeats a row of eta
    cancels exactly (Cauchy-Binet), so at m < n S3 is 0 with no field call.
    At n = 1 the table may be at a stack of points; at n >= 2 it is refused.
    """
    _require_point(t, JacobiDiskPoint)
    f, p = t._f, t.point
    n, m = p.n, p.m
    _, _, _, q = _disk_mats(p)
    if n == 1:
        ebe = t.block_rect_bar_rect()
        return _per_point(mul, np.linalg.det(q),
                          sum(ebe[..., k, 0, k, 0] for k in range(m)))
    if np.ndim(t.value):
        raise DimensionError("disk_eta_determinant at n >= 2 nests stencils at one point; "
                             "it takes no table at a stack of points")
    det_q = complex(np.linalg.det(q))
    nested_cfg = FDConfig(step=8e-3)
    # level k of the nesting moves an eta coordinate by at most 2 steps, its
    # step taken at a point up to the reach of the levels before it
    reach, eta_size = 0.0, float(np.max(np.abs(p.eta.real) + np.abs(p.eta.imag)))
    for _ in range(n):
        reach += 2 * nested_cfg.step * (1.0 + eta_size + 2 * reach)
    _require_within_radius(f, reach)
    total = 0.0 + 0.0j
    for perm in permutations(range(n)):
        sign = (-1.0) ** sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        for ks in permutations(range(m), n):
            field = f
            for i in range(n - 1, 0, -1):
                field = partial(eta_pair_value, field, hol=(ks[i], i), antihol=(ks[i], perm[i]),
                                cfg=nested_cfg)
            total += sign * eta_pair_value(field, p, (ks[0], 0), (ks[0], perm[0]), nested_cfg)
    return det_q * total


def disk_operator(t: DerivativeTable, which: str) -> complex:
    """The disk operator ``which`` ('s1', 's2', 's3', or 'j:k,l' with
    zero-based entries) at the table's JacobiDiskPoint."""
    name = which.strip().lower()
    if name == "s1":
        return disk_eta_trace(t)
    if name == "s2":
        return disk_w_part(t)
    if name == "s3":
        return disk_eta_determinant(t)
    if name.startswith("j:"):
        k, l = (int(x) for x in name[2:].split(","))
        return disk_eta_entry(t, k, l)
    raise DomainError(f"unknown disk operator {which!r}")


# -- Invariant polynomial generators ---------------------------------------------

def invariant_polynomial(name: str, omega, z=None) -> complex:
    """Evaluate a generator of the unitary-invariant polynomial algebra.

    Names: ``q:j`` for tr((omega conj(omega))^j) with 1 <= j <= n;
    ``phi:2k`` for tr((w conj(w))^k) with 1 <= k <= n;
    ``psi:e,2k,e':b,a`` for the quadratic-in-z family with e, e' in {0, 1},
    0 <= k <= n-1 and one-based entry indices (b, a).
    """
    omega = np.atleast_2d(np.asarray(omega, dtype=complex))
    z = None if z is None else np.atleast_2d(np.asarray(z, dtype=complex))
    for what, a in (("omega", omega), ("z", z)):
        if a is not None and not np.isfinite(a).all():
            raise DomainError(f"{what} has non-finite entries")
    n = omega.shape[0]
    if omega.shape != (n, n) or not close_each(omega, omega.T):
        raise DomainError("omega must be a symmetric square matrix")
    ob = np.conj(omega)
    parts = name.split(":")
    if parts[0] in ("q", "phi"):
        j = int(parts[1])
        k, odd = divmod(j, 2) if parts[0] == "phi" else (j, 0)
        if odd or not 1 <= k <= n:
            raise DomainError(f"{parts[0]} index {j} outside the generator range for n = {n}")
        return complex(np.trace(np.linalg.matrix_power(omega @ ob, k)))
    if parts[0] == "psi":
        if z is None:
            raise DomainError("psi generators need the z component")
        m = z.shape[0]
        eps, two_k, eps2 = (int(x) for x in parts[1].split(","))
        b, a = (int(x) for x in parts[2].split(","))
        if eps not in (0, 1) or eps2 not in (0, 1) or two_k % 2:
            raise DomainError(f"bad psi descriptor {name!r}")
        k = two_k // 2
        if not 0 <= k <= n - 1 or not (1 <= a <= m and 1 <= b <= m):
            raise DomainError(f"psi indices outside the generator range for (n, m)=({n}, {m})")
        zb = np.conj(z)
        core = np.linalg.matrix_power(omega @ ob, k)
        left = z @ ob if eps else zb
        mid = core @ omega if eps2 else core
        right = zb.T if eps2 else z.T
        return complex((left @ mid @ right)[b - 1, a - 1])
    raise DomainError(f"unknown invariant polynomial {name!r}")
