"""Schrodinger representation kernels, the Weil representation of SL(2, R)
as one matrix kernel, the (tau, phi) coordinates of SL(2, R), the metaplectic
cocycle, Iwasawa composition, and theta sums with their transformation laws.

Test functions live on R^(m, n); the guaranteed quadrature mode covers
mn <= 2. Functions are exact closures carrying a uniform grid for quadrature
and sup-norm comparisons, so shifts and phase twists lose no accuracy. The one
Weil operator, ``weil_matrix_action``, holds the one c = 0 rule and the one
oscillatory quadrature, whose cross phase comes from two small per-coordinate
exp tables and one matrix product, never nodes x targets. The quadrature
integrates only where f lives: f is sampled on the context grid first, and
the nodes reach one grid step past the last sample above SUPPORT_FRAC of the
largest, never past the context extent.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AccuracyError, DimensionError, DomainError
from .groups import HeisenbergElement, SymplecticElement, _sl2, dilation, inversion, translation
from .linalg import integer_matrix, positive_each, real_array, real_matrix

TWO_PI = 2.0 * np.pi
# nodes of one oscillatory kernel evaluation, and points of one truncated lattice
MAX_NODES = 1 << 22
# the oscillatory kernel integrates f where |f| exceeds this fraction of its
# largest sample, which is below float64's relative rounding 2^-53
SUPPORT_FRAC = 1e-17
# entries of one exp table of the oscillatory kernel, which sets its chunk of targets
TABLE_BUDGET = 1 << 23


@dataclass(frozen=True)
class ThetaContext:
    """Index matrix, degree, lattice truncation radius, quadrature grid
    settings; the truncated lattice has at most MAX_NODES points and the grid
    step and extent are positive. It keeps the integers that ``integer_matrix``
    reads of M, n, n_cut and extent / step (as extent), and computes once, on
    first use, what depends on them alone: the read-only lattice and its
    boundary shell, det(M)^(n/2) and ||M||_2."""

    m_mat: np.ndarray
    n: int = 1
    n_cut: int = 8
    extent: float = 8.0
    step: float = 1.0 / 16.0

    def __post_init__(self):
        m_mat = integer_matrix(self.m_mat, "index matrix", symmetric=True).astype(float)
        object.__setattr__(self, "m_mat", m_mat)
        if not positive_each(m_mat):
            raise DomainError("index matrix must be positive definite")
        object.__setattr__(self, "n", integer_matrix(self.n, "degree n").item())
        if self.n < 1:
            raise DomainError("degree n must be at least 1")
        object.__setattr__(self, "n_cut", integer_matrix(self.n_cut, "n_cut").item())
        if self.n_cut < 1:
            raise DomainError("truncation radius must be at least 1")
        with np.errstate(divide="ignore", invalid="ignore"):    # x / 0 reads as non-finite
            steps = integer_matrix(np.divide(self.extent, self.step), "extent / step").item()
        if self.step <= 0:    # a zero step is refused above: extent / 0 is not finite
            raise DomainError("grid step must be positive")
        if steps < 1:
            raise DomainError("grid extent must be positive")
        object.__setattr__(self, "extent", steps * self.step)
        if (2 * self.n_cut + 1) ** self.dim > MAX_NODES:
            raise DomainError(f"truncation radius n_cut = {self.n_cut} gives more than "
                              f"{MAX_NODES} lattice points at mn = {self.dim}")

    @property
    def m(self) -> int:
        return self.m_mat.shape[0]

    @property
    def dim(self) -> int:
        return self.m * self.n

    def norm_sq(self, x):
        """(x, x)_M = tr(t(x) M x), vectorized over leading axes."""
        return np.einsum("...ab,ac,...cb->...", x, self.m_mat, x)

    @cached_property
    def det_power(self):
        """det(M)^(n/2), the Gaussian normalization of the oscillatory kernel."""
        return np.linalg.det(self.m_mat) ** (self.n / 2.0)

    @cached_property
    def m_norm(self) -> float:
        """||M||_2, the largest frequency factor of the kernel phase."""
        return float(np.linalg.norm(self.m_mat, 2))

    @cached_property
    def lattice(self):
        """The integer points of the box [-n_cut, n_cut]^(mn), shape (count, m, n)."""
        return _read_only(grid_points(self, extent=self.n_cut, step=1.0))

    @cached_property
    def shell(self):
        """The mask of the lattice points on the boundary of the box."""
        return _read_only(np.max(np.abs(self.lattice), axis=(1, 2)) >= self.n_cut)


def _read_only(a):
    a.flags.writeable = False
    return a


def grid_points(ctx: ThetaContext, extent: float | None = None, step: float | None = None):
    """All grid nodes as an array of shape (count, m, n). The spacing is step
    exactly (it is the quadrature weight), out to the first multiple of step
    at or past extent."""
    extent = ctx.extent if extent is None else extent
    step = ctx.step if step is None else step
    half = int(np.ceil(extent / step - 1e-12))
    axis = step * np.arange(-half, half + 1)
    if ctx.dim == 1:
        return axis.reshape(-1, 1, 1)
    mesh = np.meshgrid(*[axis] * ctx.dim, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, ctx.m, ctx.n)


@dataclass
class GridFunction:
    """Function on R^(m, n): an exact evaluation closure plus grid metadata."""

    ctx: ThetaContext
    eval_fn: object

    def eval(self, x):
        x = real_array(x, "x")
        single = x.ndim == 2
        pts = x[None, :, :] if single else x.reshape(-1, self.ctx.m, self.ctx.n)
        vals = np.asarray(self.eval_fn(pts), dtype=complex)
        if single:
            return complex(vals[0])
        return vals.reshape(x.shape[:-2])

    def samples(self):
        return np.asarray(self.eval_fn(grid_points(self.ctx)), dtype=complex)


def gaussian(ctx: ThetaContext) -> GridFunction:
    """The centered Gaussian exp(-pi ||x||^2_M)."""

    def fn(pts):
        return np.exp(-np.pi * ctx.norm_sq(pts)).astype(complex)

    return GridFunction(ctx, fn)


def gaussian_poly(ctx: ThetaContext, exponents) -> GridFunction:
    """Monomial-times-Gaussian: prod_flat x_i^{e_i} exp(-pi ||x||^2_M)."""
    exps = integer_matrix(exponents, "exponents").reshape(ctx.m, ctx.n)

    def fn(pts):
        mono = np.prod(pts ** exps[None, :, :], axis=(-2, -1))
        return mono * np.exp(-np.pi * ctx.norm_sq(pts))

    return GridFunction(ctx, fn)


# -- Schrodinger representation ---------------------------------------------------

def schrodinger_action(h0: HeisenbergElement, f: GridFunction,
                       ctx: ThetaContext) -> GridFunction:
    """[W(h0) f](x) = exp(pi i tr(M (kappa0 + mu0 t(lam0) + 2 x t(mu0)))) f(x + lam0)."""
    if (h0.m, h0.n) != (ctx.m, ctx.n):
        raise DimensionError("Heisenberg degrees do not match the context")
    lam0, mu0, kappa0 = h0.lam, h0.mu, h0.kappa
    if np.max(np.abs(lam0)) > ctx.extent:
        raise DomainError("shift exceeds the grid extent")
    const = np.trace(ctx.m_mat @ (kappa0 + mu0 @ lam0.T))

    def fn(pts):
        phases = np.exp(1j * np.pi * (const + 2.0 * np.einsum(
            "ab,...ac,bc->...", ctx.m_mat, pts, mu0)))
        return phases * f.eval_fn(pts + lam0[None, :, :])

    return GridFunction(ctx, fn)


# -- Weil representation: generator kernels ----------------------------------------

def _chunked_kernel_sum(fvals, nodes, pts, m_mat, c: float):
    """sum_p fvals[p] e^{-2 pi i (nodes[p], pts[q])_M / c} over the tensor grid of
    ``grid_points`` (mn <= 2). Node p splits as (j, r) with y_p = s_j + t_r: the two
    axes at mn = 2, p = B j + r with B = ceil(sqrt(N)) at mn = 1. With w = M x the
    sum is sum_j E_out[j, q] (F @ E_in)[j, q] for two small exp tables and the
    zero-padded samples F as a J x B matrix; no table exceeds TABLE_BUDGET entries.
    When the Q targets' w are symmetric bit for bit (w of target Q - 1 - q is -w
    of target q; a zero matches a zero of either sign, since exp takes +0.0 and
    -0.0 phases alike), a column of target q >= ceil(Q / 2) whose mirror target
    Q - 1 - q lies in the same chunk is the conjugate of the mirror's column:
    negation is exact and glibc's cos is even and sin odd bit for bit. The chunks
    are those of the direct path, so the contraction sees its tables: OpenBLAS's
    zgemm gives a column other low bits at another position in the product, so
    chunks regrouped by +- pairs would not keep them."""
    count, flat = nodes.shape[0], nodes.reshape(nodes.shape[0], -1)
    w = np.einsum("ac,qcb->qab", m_mat, pts).reshape(-1, flat.shape[1]) * (-TWO_PI / c)
    targets = w.shape[0]
    # + 0.0 and 0.0 - turn -0.0 into +0.0, and only there change a bit
    own = (targets + 1) // 2 if _is_mirror(w + 0.0, 0.0 - w) else targets
    if flat.shape[1] == 2:
        outer = inner = flat[::math.isqrt(count), 0]
    else:
        cols = math.isqrt(count - 1) + 1       # ceil(sqrt(count))
        # from the centre on the nodes are step * r, exact inner offsets
        outer, inner = flat[::cols, 0], flat[count // 2:count // 2 + cols, 0]
        padded = np.zeros(len(outer) * cols, dtype=complex)
        padded[:count] = fvals
        fvals = padded
    samples = fvals.reshape(len(outer), len(inner))
    out = np.empty(targets, dtype=complex)
    chunk = max(1, TABLE_BUDGET // max(samples.shape))
    for start in range(0, targets, chunk):
        stop = min(start + chunk, targets)
        # the targets in [lo, hi) are mirrors of targets in [start, lo)
        lo = min(max(own, start), stop)
        hi = max(lo, min(stop, targets - start))
        e_out = _exp_table(outer, w[:, 0], start, lo, hi, stop)
        e_in = _exp_table(inner, w[:, -1], start, lo, hi, stop)
        out[start:stop] = np.einsum("jq,jq->q", e_out, samples @ e_in)
    return out


def _exp_table(axis, w, start: int, lo: int, hi: int, stop: int):
    """The columns start, ..., stop - 1 of exp(i axis (x) w). Those of [lo, hi)
    are the conjugates of the columns of their mirror targets len(w) - 1 - q,
    which lie in [start, lo); the rest are taken by exp. The imaginary part of
    a conjugate is 0.0 - imag, as exp gives the imaginary part +0.0 at a
    phase of either sign of zero, and conjugation alone would make it -0.0."""
    if lo == hi:
        return np.exp(1j * np.multiply.outer(axis, w[start:stop]))
    table = np.empty((len(axis), stop - start), dtype=complex)
    table[:, :lo - start] = np.exp(1j * np.multiply.outer(axis, w[start:lo]))
    table[:, hi - start:] = np.exp(1j * np.multiply.outer(axis, w[hi:stop]))
    mirror = table[:, len(w) - hi - start:len(w) - lo - start][:, ::-1]
    table.real[:, lo - start:hi - start] = mirror.real
    table.imag[:, lo - start:hi - start] = 0.0 - mirror.imag
    return table


def _is_mirror(a, b) -> bool:
    """Whether a[len - 1 - i] is b[i] bit for bit (a signed zero counts) for
    every i < len / 2; the centre of an odd length is not compared. Only small
    arrays are checked: per-target coordinates and squared norms."""
    half = len(a) // 2
    return a[::-1][:half].tobytes() == b[:half].tobytes()


def _even_phase(rate, sq):
    """exp(rate sq) elementwise. Where sq is a palindrome bit for bit, as the
    squared norms of the nodes of ``grid_points`` are (their flat order reverses
    under y -> -y and negation is exact), the exponential is taken on the first
    half only and mirrored; f is never mirrored, only this phase."""
    flat = sq.ravel()
    if not _is_mirror(flat, flat):
        return np.exp(rate * sq)
    half = (len(flat) + 1) // 2
    phase = np.empty(len(flat), dtype=complex)
    phase[:half] = np.exp(rate * flat[:half])
    phase[half:] = phase[:len(flat) - half][::-1]
    return phase.reshape(sq.shape)


def weil_generator_action(gen, f: GridFunction, ctx: ThetaContext) -> GridFunction:
    """Action of a generator tagged as ('t', b, t0), ('g', alpha, t0) or
    ('sigma', t0) at n = 1: t0 times the matrix kernel at the generator's
    symplectic matrix, [[1, b], [0, 1]], [[alpha, 0], [0, 1/alpha]] or
    S = K(pi / 2). A Heisenberg element acts by ``schrodinger_action``."""
    out = weil_matrix_action(symplectic_of_generator(gen, ctx).mat, f, ctx)
    t0 = gen[-1]
    return GridFunction(ctx, lambda pts: t0 * out.eval_fn(pts))


def conjugate_heisenberg(g: SymplecticElement, h: HeisenbergElement) -> HeisenbergElement:
    """g h g^{-1} inside the Jacobi group: (lam, mu) -> (lam, mu) g^{-1}."""
    return h.translate_right(g.inverse())


def symplectic_of_generator(gen, ctx: ThetaContext) -> SymplecticElement:
    """The symplectic element of a generator of ``weil_generator_action``;
    the generators are defined at n = 1 only."""
    if ctx.n != 1:
        raise DimensionError(f"Weil generators are defined at n = 1, not n = {ctx.n}")
    tag = gen[0]
    if tag == "sigma":
        return inversion(ctx.n)
    if tag not in ("t", "g"):
        raise DomainError(f"unknown generator tag {tag!r}")
    block = real_matrix(gen[1], "generator block")
    if block.shape != (ctx.n, ctx.n):    # every 1 x 1 block is symmetric
        raise DomainError("translation block must be symmetric n x n" if tag == "t"
                          else "dilation block must be invertible n x n")
    return translation(block) if tag == "t" else dilation(block)


def stone_von_neumann_residual(gen, h: HeisenbergElement, f: GridFunction,
                               ctx: ThetaContext) -> float:
    """Sup-norm over the grid of R(g) W(h) f - W(g h g^{-1}) R(g) f."""
    g_sp = symplectic_of_generator(gen, ctx)
    lhs = weil_generator_action(gen, schrodinger_action(h, f, ctx), ctx)
    rhs = schrodinger_action(conjugate_heisenberg(g_sp, h),
                             weil_generator_action(gen, f, ctx), ctx)
    pts = grid_points(ctx)
    return float(np.max(np.abs(lhs.eval_fn(pts) - rhs.eval_fn(pts))))


# -- SL(2, R) coordinates -----------------------------------------------------------

@dataclass(frozen=True)
class SL2Coord:
    tau: complex
    phi: float

    def __post_init__(self):
        if not (np.isfinite(self.phi) and np.isfinite(self.tau) and self.tau.imag > 0):
            raise DomainError("tau must be a finite point of the upper half plane, phi finite")
        object.__setattr__(self, "phi", float(self.phi) % TWO_PI)

    @property
    def u(self) -> float:
        return self.tau.real

    @property
    def v(self) -> float:
        return self.tau.imag

    def upper(self):
        """N(u) A(v) = [[sqrt(v), u / sqrt(v)], [0, 1 / sqrt(v)]]."""
        root_v = np.sqrt(self.v)
        return np.array([[root_v, self.u / root_v], [0.0, 1.0 / root_v]])

    def rotation(self):
        """K(phi) = [[cos(phi), -sin(phi)], [sin(phi), cos(phi)]]."""
        cos_phi, sin_phi = np.cos(self.phi), np.sin(self.phi)
        return np.array([[cos_phi, -sin_phi], [sin_phi, cos_phi]])

    def matrix(self):
        return self.upper() @ self.rotation()


def iwasawa(g) -> SL2Coord:
    """Unique coordinates (tau, phi) with g = N(u) A(v) K(phi), tau = g i; the
    bottom row is scaled by a power of two so that c^2 + d^2 cannot underflow."""
    (a, b), (c, d) = _sl2(g).tolist()
    e = math.frexp(max(abs(c), abs(d)))[1]
    c2, d2 = math.ldexp(c, -e), math.ldexp(d, -e)
    den = c2 * c2 + d2 * d2
    try:    # SL2Coord refuses a tau beyond the float range
        u, v = math.ldexp((a * c2 + b * d2) / den, -e), math.ldexp(1.0 / den, -2 * e)
    except OverflowError:
        u = v = math.inf
    phi = float(np.arctan2(c, d)) % TWO_PI
    return SL2Coord(complex(u, v), phi)


def iwasawa_compose(c1: SL2Coord, c2: SL2Coord) -> SL2Coord:
    """Coordinates of the product, via the closed composition formulas; the
    angle is completed to [0, 2 pi) from the signs of the product's bottom row."""
    u1, v1, p1 = c1.u, c1.v, c1.phi
    u2, v2, p2 = c2.u, c2.v, c2.phi
    den = (u2 * np.sin(p1) + np.cos(p1)) ** 2 + (v2 * np.sin(p1)) ** 2
    a_num = (u1 * (u2 * np.sin(p1) + np.cos(p1)) ** 2
             + (u1 * v2 ** 2 - v1 * u2) * np.sin(p1) ** 2
             + v1 * u2 * np.cos(p1) ** 2
             + v1 * (u2 ** 2 + v2 ** 2 - 1.0) * np.sin(p1) * np.cos(p1))
    u3 = a_num / den
    v3 = v1 * v2 / den
    num = np.sin(p1) * (v2 * np.cos(p2) + u2 * np.sin(p2)) + np.cos(p1) * np.sin(p2)
    dnm = np.sin(p1) * (u2 * np.cos(p2) - v2 * np.sin(p2)) + np.cos(p1) * np.cos(p2)
    phi3 = float(np.arctan2(num, dnm)) % TWO_PI
    return SL2Coord(complex(u3, v3), phi3)


def cocycle(m1, m2, m: int, n: int) -> complex:
    """exp(-i pi m n sign(c1 c2 c3) / 4) for the bottom-left entries of
    m1, m2 and their product."""
    m1, m2 = _sl2(m1), _sl2(m2)
    c1, c2 = m1[1, 0], m2[1, 0]
    c3 = (m1 @ m2)[1, 0]
    return complex(np.exp(-1j * np.pi * m * n * np.sign(c1 * c2 * c3) / 4.0))


# -- The Weil operator of SL(2, R) and theta sums -------------------------------------

def weil_sl2_action(coord: SL2Coord, f: GridFunction, ctx: ThetaContext) -> GridFunction:
    """[R(tau, phi) f] = R(N(u) A(v)) g, g = R(K(phi)) f. The cocycle is 1 as N(u) A(v)
    has c = 0: it maps g to v^{mn/4} e^{pi i u ||x||^2_M} g(sqrt(v) x)."""
    return weil_matrix_action(coord.upper(), weil_matrix_action(coord.rotation(), f, ctx), ctx)


def weil_matrix_action(mat, f: GridFunction, ctx: ThetaContext) -> GridFunction:
    """The Weil operator of a matrix in SL(2, R): |a|^{mn/2} e^{pi i a b ||x||^2}
    f(a x) when c = 0, read as |c| < 1e-12 |(c, d)| (an Iwasawa angle within
    1e-12 of a multiple of pi), otherwise the oscillatory integral of f(y)
    against e^{pi i (a ||x||^2 + d ||y||^2 - 2 (x, y)) / c}, the only oscillatory
    quadrature here (sigma and R(i, phi) are its values at S and K(phi)). For Q
    targets and L nodes per axis the cross phase costs about 2 sqrt(L) Q
    exponentials at mn = 1 and 2 L Q at mn = 2, half that on targets symmetric
    about 0, plus one matrix product.

    The quadrature covers only where f lives: f is sampled once on the context
    grid, and the support extent ``ext`` is the largest |coordinate| of a
    sample above SUPPORT_FRAC of the largest |f|, plus one grid step, capped
    at the context extent (one step when f is 0 on the grid; the context
    extent when a sample is not finite). ``ext`` replaces the context extent
    in the step rule's frequency, in the guard and in the nodes, so an f that
    does not decay inside the box keeps the context's nodes. That sampling
    comes first; then the kernel raises AccuracyError, before any node is
    built, when ext / step > 2e5 or the grid would exceed MAX_NODES nodes,
    and names the nodes per axis it would need and the cap."""
    (a, b), (c, d) = _sl2(mat)
    if abs(c) < 1e-12 * math.hypot(c, d):
        return GridFunction(ctx, lambda pts: abs(a) ** (ctx.dim / 2.0) * _even_phase(
            1j * np.pi * a * b, ctx.norm_sq(pts)) * f.eval_fn(a * pts))
    if ctx.dim > 2:
        raise DomainError("guaranteed quadrature mode covers mn <= 2 only")
    pref = ctx.det_power * abs(c) ** (-ctx.dim / 2.0)

    def fn(pts):
        ext = _support_extent(f, ctx)
        x_max = float(np.max(np.abs(pts))) if pts.size else 1.0
        freq = ctx.m_norm * (abs(d) * ext + x_max) / abs(c) + 1.0
        step = min(ctx.step, 1.0 / (8.0 * freq))
        ratio = ext / step
        axis = 2 * math.ceil(ratio) + 1 if math.isfinite(ratio) else math.inf
        if ratio > 2e5:
            raise AccuracyError(f"oscillatory kernel would need too fine a grid: {axis} "
                                "nodes per axis, above the cap of 400001 per axis")
        if axis ** ctx.dim > MAX_NODES:
            raise AccuracyError(f"oscillatory kernel would need too fine a grid: {axis} "
                                f"nodes per axis, {axis ** ctx.dim} in all, above the "
                                f"cap of {MAX_NODES} nodes")
        nodes = grid_points(ctx, extent=ext, step=step)
        # the chirps in ||y||^2 and ||x||^2 factor out of the phase
        fvals = np.asarray(f.eval_fn(nodes), dtype=complex) \
            * _even_phase(1j * np.pi * d / c, ctx.norm_sq(nodes))
        return pref * (step ** ctx.dim) * _even_phase(1j * np.pi * a / c, ctx.norm_sq(pts)) \
            * _chunked_kernel_sum(fvals, nodes, pts, ctx.m_mat, c)

    return GridFunction(ctx, fn)


def _support_extent(f: GridFunction, ctx: ThetaContext) -> float:
    """The extent of the oscillatory kernel's nodes for f: the largest
    |coordinate| of a context grid sample above SUPPORT_FRAC of the largest
    |f|, plus one grid step (the support may end anywhere before the next
    sample), at most the context extent. One step when f is 0 on the grid,
    and the context extent when a sample is not finite."""
    grid = grid_points(ctx)
    sizes = np.abs(np.asarray(f.eval_fn(grid), dtype=complex))
    peak = float(np.max(sizes))
    if not math.isfinite(peak):
        return ctx.extent
    live = grid[sizes > SUPPORT_FRAC * peak]
    reach = float(np.max(np.abs(live))) if live.size else 0.0
    return min(reach + ctx.step, ctx.extent)


def lattice_points(ctx: ThetaContext):
    """The context's lattice ``ThetaContext.lattice`` (read-only)."""
    return ctx.lattice


def theta_sum(f: GridFunction, ctx: ThetaContext, coord: SL2Coord,
              h: HeisenbergElement) -> complex:
    """Sum over the integer lattice of [W(h) R(tau, phi) f](omega); raises
    AccuracyError when a term on the boundary shell of the truncated lattice
    exceeds 1e-10 of max(1, |sum|) or 1e-10 of the largest term. The first
    bound keeps a cancelling sum from loosening the budget; the second holds
    where every term, and so the sum, is far below 1."""
    transformed = schrodinger_action(h, weil_sl2_action(coord, f, ctx), ctx)
    terms = np.asarray(transformed.eval_fn(lattice_points(ctx)), dtype=complex)
    total = complex(np.sum(terms))
    sizes = np.abs(terms)
    tail = float(np.max(sizes[ctx.shell]))
    if tail > 1e-10 * min(max(1.0, abs(total)), float(np.max(sizes))):
        raise AccuracyError(f"boundary lattice terms of size {tail:.2e} violate "
                            "the truncation budget; increase n_cut")
    return total


def theta_left_translate(coord: SL2Coord, lam, mu, gamma_mat, l0, m0):
    """Theta parameters after left multiplication by the group element
    (gamma, (l0, m0)): the coordinates move to (gamma tau, phi + arg(c tau + d)),
    and (lam, mu) maps to ((lam, mu) + (l0, m0)) gamma^{-1} by
    ``conjugate_heisenberg``."""
    (a, b), (c, d) = gamma = _sl2(gamma_mat)
    j = c * coord.tau + d
    lam, mu = np.add(lam, l0), np.add(mu, m0)
    h = conjugate_heisenberg(SymplecticElement(gamma), HeisenbergElement(
        lam.reshape(-1, 1), mu.reshape(-1, 1), np.zeros((lam.size,) * 2)))
    return (SL2Coord(complex((a * coord.tau + b) / j), coord.phi + np.angle(j)),
            h.lam.reshape(lam.shape), h.mu.reshape(mu.shape))
