import math
import warnings

import mpmath
import numpy as np
import pytest

from siegeljacobi import cli, theta as th
from siegeljacobi.errors import AccuracyError, DimensionError, DomainError
from siegeljacobi.groups import HeisenbergElement


def hb(lam, mu, kap=0.0):
    return HeisenbergElement(np.atleast_2d(lam), np.atleast_2d(mu), np.atleast_2d(kap))


@pytest.fixture
def ctx():
    return th.ThetaContext(np.array([[1.0]]), n=1, n_cut=10)


def test_context_validation():
    with pytest.raises(DomainError):
        th.ThetaContext(np.array([[0.5]]))
    with pytest.raises(DomainError):
        th.ThetaContext(np.array([[-1.0]]))
    with pytest.raises(DomainError):
        th.ThetaContext(np.array([[1.0]]), n_cut=0)
    # the truncated lattice has (2 n_cut + 1)^mn points, at most MAX_NODES
    th.ThetaContext(np.eye(2), n_cut=1023)
    with pytest.raises(DomainError, match="n_cut"):
        th.ThetaContext(np.eye(2), n_cut=1024)
    # the degree n is read as an exact integer of at least 1
    for n in (0, -1):
        with pytest.raises(DomainError, match="^degree n must be at least 1$"):
            th.ThetaContext(np.eye(1), n=n)
    assert type(th.ThetaContext(np.eye(1), n=2.0).n) is int
    # the grid step and extent are positive; a zero step leaves extent / step
    # non-finite, and an extent below one step rounds to no step at all
    for kwargs, message in ((dict(extent=0.0), "grid extent must be positive"),
                            (dict(extent=-1.0), "grid extent must be positive"),
                            (dict(extent=1e-12), "grid extent must be positive"),
                            (dict(step=-1.0 / 16.0), "grid step must be positive"),
                            (dict(extent=-1.0, step=-1.0 / 16.0), "grid step must be positive"),
                            (dict(step=0.0), "extent / step has non-finite entries")):
        with pytest.raises(DomainError, match=f"^{message}$"):
            th.ThetaContext(np.eye(1), **kwargs)


def test_schrodinger_examples(ctx):
    f = th.gaussian(ctx)
    pts = th.grid_points(ctx)[::4]
    # central character: multiplication by e^{pi i tr(M kappa)}
    out = th.schrodinger_action(hb(0.0, 0.0, 0.6), f, ctx)
    assert np.max(np.abs(out.eval_fn(pts) - np.exp(0.6j * np.pi) * f.eval_fn(pts))) < 1e-14
    # pure shift
    out2 = th.schrodinger_action(hb(0.5, 0.0, 0.0), f, ctx)
    assert np.max(np.abs(out2.eval_fn(pts) - f.eval_fn(pts + 0.5))) < 1e-14
    with pytest.raises(DomainError):
        th.schrodinger_action(hb(100.0, 0.0, 0.0), f, ctx)


def test_schrodinger_composition(ctx):
    rng = np.random.default_rng(1)
    f = th.gaussian(ctx)
    pts = th.grid_points(ctx)[::4]
    for _ in range(10):
        h1 = hb(*rng.uniform(-0.8, 0.8, 3))
        h2 = hb(*rng.uniform(-0.8, 0.8, 3))
        h1 = HeisenbergElement(h1.lam, h1.mu, h1.kappa - h1.mu @ h1.lam.T
                               + (h1.mu @ h1.lam.T).T * 0)
        lhs = th.schrodinger_action(h1.multiply(h2), f, ctx)
        rhs = th.schrodinger_action(h1, th.schrodinger_action(h2, f, ctx), ctx)
        assert np.max(np.abs(lhs.eval_fn(pts) - rhs.eval_fn(pts))) < 1e-10


def test_weil_generator_examples(ctx):
    f = th.gaussian(ctx)
    pts = th.grid_points(ctx)[::4]
    # dilation: f(x) -> sqrt(2) f(2x)
    out = th.weil_generator_action(("g", np.array([[2.0]]), 1.0), f, ctx)
    assert np.max(np.abs(out.eval_fn(pts) - np.sqrt(2.0) * f.eval_fn(2 * pts))) < 1e-14
    # zero shear is the identity
    out2 = th.weil_generator_action(("t", np.array([[0.0]]), 1.0), f, ctx)
    assert np.max(np.abs(out2.eval_fn(pts) - f.eval_fn(pts))) < 1e-14
    # Fourier generator fixes the matched Gaussian
    out3 = th.weil_generator_action(("sigma", 1.0), f, ctx)
    assert np.max(np.abs(out3.eval_fn(pts) - f.eval_fn(pts))) < 1e-10


def test_weil_generator_guards(ctx):
    f = th.gaussian(ctx)
    with pytest.raises(DomainError, match="invertible"):
        th.weil_generator_action(("g", np.array([[0.0]]), 1.0), f, ctx)
    with pytest.raises(DomainError, match="symmetric"):
        th.weil_generator_action(("t", np.eye(2), 1.0), f, ctx)
    with pytest.raises(DomainError, match="unknown generator"):
        th.weil_generator_action(("h", 1.0), f, ctx)
    ctx2 = th.ThetaContext(np.array([[1.0]]), n=2, n_cut=4)
    with pytest.raises(DimensionError):
        th.weil_generator_action(("t", np.zeros((2, 2)), 1.0), th.gaussian(ctx2), ctx2)


def test_sigma_self_dual_for_general_index():
    ctx2 = th.ThetaContext(np.array([[2.0]]), n=1)
    f = th.gaussian(ctx2)
    pts = th.grid_points(ctx2)[::4]
    out = th.weil_generator_action(("sigma", 1.0), f, ctx2)
    assert np.max(np.abs(out.eval_fn(pts) - f.eval_fn(pts))) < 1e-10


def test_stone_von_neumann_every_generator():
    for m_val in (1.0, 2.0):
        ctx = th.ThetaContext(np.array([[m_val]]), n=1)
        f = th.gaussian(ctx)
        h = hb(0.4, -0.3, 0.2)
        for gen in (("t", np.array([[0.7]]), 1.0), ("g", np.array([[1.4]]), 1.0),
                    ("sigma", 1.0)):
            assert th.stone_von_neumann_residual(gen, h, f, ctx) <= 1e-6


def test_stone_von_neumann_two_dimensional():
    ctx = th.ThetaContext(np.eye(2, dtype=float), n=1, extent=5.0, step=0.25)
    f = th.gaussian(ctx)
    h = HeisenbergElement(np.array([[0.3], [0.2]]), np.array([[-0.4], [0.1]]),
                          0.05 * np.eye(2))
    for gen in (("t", np.array([[0.6]]), 1.0), ("g", np.array([[1.3]]), 1.0)):
        assert th.stone_von_neumann_residual(gen, h, f, ctx) <= 1e-6


def test_sl2_coordinate_cases(ctx):
    f = th.gaussian(ctx)
    pts = th.grid_points(ctx)[::8]
    ident = th.weil_sl2_action(th.SL2Coord(1j, 0.0), f, ctx)
    assert np.max(np.abs(ident.eval_fn(pts) - f.eval_fn(pts))) < 1e-14
    parity = th.weil_sl2_action(th.SL2Coord(1j, np.pi), f, ctx)
    assert np.max(np.abs(parity.eval_fn(pts) - f.eval_fn(-pts))) < 1e-14
    odd = th.gaussian_poly(ctx, [[1]])
    parity_odd = th.weil_sl2_action(th.SL2Coord(1j, np.pi), odd, ctx)
    assert np.max(np.abs(parity_odd.eval_fn(pts) + odd.eval_fn(pts))) < 1e-14
    # just past the 1e-12 snap band the kernel's grid guard refuses the angle
    near_zero = th.weil_sl2_action(th.SL2Coord(1j, 1e-8), f, ctx)
    with pytest.raises(AccuracyError):
        near_zero.eval_fn(pts)


def _prefactor_form(coord, f, ctx):
    """R(tau, phi) f as v^{mn/4} e^{pi i u ||x||^2} [R(K(phi)) f](sqrt(v) x)."""
    kernel = th.weil_matrix_action(_rotation(coord.phi), f, ctx)
    u, v = coord.u, coord.v
    return lambda pts: v ** (ctx.dim / 4.0) * np.exp(1j * np.pi * u * ctx.norm_sq(pts)) \
        * kernel.eval_fn(np.sqrt(v) * pts)


@pytest.mark.parametrize("m_mat", [[[1.0]], [[2.0]], [[2.0, 1.0], [1.0, 2.0]]])
def test_weil_sl2_action_is_the_split_composition(m_mat):
    """R(tau, phi) = R(N(u) A(v)) R(K(phi)) equals the prefactor form at
    mn = 1 and 2."""
    c = th.ThetaContext(np.array(m_mat), n=1, extent=3.0, step=0.25)
    f = th.gaussian_poly(c, np.eye(c.m, 1, dtype=int))
    pts = th.grid_points(c, extent=1.5, step=0.25)
    rng = np.random.default_rng(17)
    for _ in range(4):
        coord = th.SL2Coord(complex(rng.uniform(-2, 2), rng.uniform(0.5, 2)),
                            rng.choice([1, -1]) * rng.uniform(0.3, np.pi - 0.3))
        got = th.weil_sl2_action(coord, f, c).eval_fn(pts)
        ref = _prefactor_form(coord, f, c)(pts)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("v", [1e-4, 1.0, 1e6])
@pytest.mark.parametrize("phi", [0.0, np.pi])
def test_multiples_of_pi_take_the_c_zero_branch(monkeypatch, ctx, v, phi):
    """At phi in {0, pi} both R(tau, phi) and the kernel at the coordinate
    matrix are v^{1/4} e^{pi i u x^2} f(+-sqrt(v) x), with no quadrature. The
    coordinate matrix carries sin(pi) ~ 1.2e-16 times u / v into a and ab."""
    def no_quadrature(*args, **kwargs):
        raise AssertionError("the oscillatory quadrature ran at c = 0")

    monkeypatch.setattr(th, "_chunked_kernel_sum", no_quadrature)
    f = th.gaussian_poly(ctx, [[1]])
    pts = th.grid_points(ctx, extent=2.0, step=1.0 / 64) / np.sqrt(max(v, 1.0))
    coord = th.SL2Coord(complex(0.3, v), phi)
    expect = v ** 0.25 * np.exp(1j * np.pi * 0.3 * pts[:, 0, 0] ** 2) \
        * f.eval_fn(np.cos(phi) * np.sqrt(v) * pts)
    for out, tol in ((th.weil_sl2_action(coord, f, ctx), 1e-13),
                     (th.weil_matrix_action(coord.matrix(), f, ctx), 1e-13 + 1e-15 / v)):
        assert np.max(np.abs(out.eval_fn(pts) - expect)) <= tol * np.max(np.abs(expect))


def test_quarter_turn_is_fourier_transform(ctx):
    """The angular kernel at phi = pi/2 matches an independent Riemann-sum
    Fourier transform."""
    f = th.gaussian_poly(ctx, [[2]])
    targets = th.grid_points(ctx)[::16]
    out = th.weil_sl2_action(th.SL2Coord(1j, np.pi / 2), f, ctx)
    ys = np.arange(-10.0, 10.0, 1.0 / 256)[:, None, None]
    fvals = f.eval_fn(ys)
    for x, got in zip(targets, out.eval_fn(targets)):
        direct = np.sum(fvals * np.exp(-2j * np.pi * ys[:, 0, 0] * x[0, 0])) / 256
        assert abs(got - direct) < 1e-8


def _rotation(phi):
    return np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])


@pytest.mark.parametrize("m_val", [1.0, 2.0])
@pytest.mark.parametrize("k", [0, 1])
def test_hermite_gaussian_closed_form(m_val, k):
    """x^k exp(-pi M x^2) is an eigenfunction of R(i, phi) = K(phi) with
    eigenvalue exp(i (pi/4 - (k + 1/2) phi)); sigma = S multiplies it by (-i)^k."""
    c = th.ThetaContext(np.array([[m_val]]), n=1, n_cut=10)
    f = th.gaussian_poly(c, [[k]])
    pts = th.grid_points(c)[::8]
    fv = f.eval_fn(pts)
    for phi in (0.15, 0.5, 1.0, np.pi / 2, 2.0, 2.9):
        expect = np.exp(1j * (np.pi / 4 - (k + 0.5) * phi)) * fv
        for out in (th.weil_sl2_action(th.SL2Coord(1j, phi), f, c),
                    th.weil_matrix_action(_rotation(phi), f, c)):
            assert np.max(np.abs(out.eval_fn(pts) - expect)) < 1e-12
    sigma = th.weil_generator_action(("sigma", 1.0), f, c)
    assert np.max(np.abs(sigma.eval_fn(pts) - (-1j) ** k * fv)) < 1e-12


def _dense_kernel_sum(fvals, nodes, pts, m_mat, c):
    """The unfactored reference: one e^{-2 pi i (y, x)_M / c} per (node, target)."""
    pair = np.einsum("pab,ac,qcb->pq", nodes, m_mat, pts)
    return fvals @ np.exp(-2j * np.pi / c * pair)


@pytest.mark.parametrize("m_mat, n", [([[1.0]], 1), ([[2.0, 1.0], [1.0, 2.0]], 1),
                                      ([[1.0]], 2)])
@pytest.mark.parametrize("sin_phi", [0.15, 1.0])
def test_factored_kernel_sum_matches_dense_phase(monkeypatch, m_mat, n, sin_phi):
    """The two-table contraction equals the dense phase sum for both mn = 2
    layouts and for mn = 1 with a node count that is not a perfect square
    (33 nodes, so the samples are zero-padded), on 0, 1 and several targets,
    the last spread over more than one chunk by a small budget."""
    c = th.ThetaContext(np.array(m_mat), n=n, extent=2.0, step=0.125)
    nodes = th.grid_points(c)
    assert c.dim == 2 or int(np.sqrt(nodes.shape[0])) ** 2 != nodes.shape[0]
    rng = np.random.default_rng(11)
    fvals = rng.standard_normal(nodes.shape[0]) + 1j * rng.standard_normal(nodes.shape[0])
    for count, budget in ((0, 1 << 23), (1, 1 << 23), (7, 40)):
        pts = rng.uniform(-2.0, 2.0, (count, c.m, c.n))
        monkeypatch.setattr(th, "TABLE_BUDGET", budget)
        got = th._chunked_kernel_sum(fvals, nodes, pts, c.m_mat, sin_phi)
        ref = _dense_kernel_sum(fvals, nodes, pts, c.m_mat, sin_phi)
        assert got.shape == (count,)
        if count:
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def _same_bits(got, ref):
    return got.dtype == ref.dtype and got.shape == ref.shape and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("m_mat, n, exps", [([[1.0]], 1, [[1]]), ([[2.0]], 1, [[3]]),
                                            ([[2.0, 1.0], [1.0, 2.0]], 1, [[1], [0]]),
                                            ([[1.0]], 2, [[0, 1]])])
def test_node_chirp_has_the_bits_of_the_full_exponential(monkeypatch, m_mat, n, exps):
    """The kernel's samples f(y) e^{pi i d/c ||y||^2} equal, bit for bit, the
    exponential taken on every node, though it is taken on half of them and
    mirrored by y -> -y; f is odd in one coordinate, so that a mirror off by
    one node, or a mirrored f, changes them."""
    c = th.ThetaContext(np.array(m_mat), n=n, extent=1.0, step=0.125)
    f = th.gaussian_poly(c, exps)
    captured = []
    kernel_sum = th._chunked_kernel_sum

    def capture(fvals, nodes, *args, **kwargs):
        captured.append((fvals.copy(), nodes))
        return kernel_sum(fvals, nodes, *args, **kwargs)

    monkeypatch.setattr(th, "_chunked_kernel_sum", capture)
    pts = th.grid_points(c, extent=0.5, step=0.25)
    for coord in (th.SL2Coord(0.3 + 1.2j, 0.7), th.SL2Coord(-0.8 + 0.6j, 2.3)):
        mat = coord.matrix()
        th.weil_matrix_action(mat, f, c).eval_fn(pts)
        fvals, nodes = captured.pop()
        assert nodes.shape[0] % 2 == 1 and nodes.shape[0] > 9
        (_, _), (cc, d) = mat
        ref = f.eval_fn(nodes) * np.exp(1j * np.pi * d / cc * c.norm_sq(nodes))
        assert _same_bits(fvals, ref)


def _direct_exp_sum(fvals, nodes, pts, m_mat, c, groups):
    """The factored contraction of ``_chunked_kernel_sum`` with both exp tables
    taken by exp on every target: one chunk per group of targets, its columns
    in ascending target order."""
    count, flat = nodes.shape[0], nodes.reshape(nodes.shape[0], -1)
    w = np.einsum("ac,qcb->qab", m_mat, pts).reshape(-1, flat.shape[1]) * (-th.TWO_PI / c)
    if flat.shape[1] == 2:
        outer = inner = flat[::math.isqrt(count), 0]
    else:
        cols = math.isqrt(count - 1) + 1
        outer, inner = flat[::cols, 0], flat[count // 2:count // 2 + cols, 0]
        fvals = np.concatenate([fvals, np.zeros(len(outer) * cols - count, dtype=complex)])
    samples = fvals.reshape(len(outer), len(inner))
    out = np.empty(len(w), dtype=complex)
    for group in groups:
        e_out = np.exp(1j * np.multiply.outer(outer, w[group, 0]))
        e_in = np.exp(1j * np.multiply.outer(inner, w[group, -1]))
        out[group] = np.einsum("jq,jq->q", e_out, samples @ e_in)
    return out


def _mirror_spy(monkeypatch):
    """The number of conjugated columns of every exp table the kernel builds."""
    mirrored, exp_table = [], th._exp_table

    def spy(axis, w, start, lo, hi, stop):
        mirrored.append(hi - lo)
        return exp_table(axis, w, start, lo, hi, stop)

    monkeypatch.setattr(th, "_exp_table", spy)
    return mirrored


def _symmetric_targets(ctx, axis):
    """The ``ij`` mesh of one axis in every coordinate: reversing the flat
    order negates each target."""
    mesh = np.meshgrid(*[axis] * ctx.dim, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, ctx.m, ctx.n)


@pytest.mark.parametrize("m_mat, n", [([[1.0]], 1), ([[2.0, 1.0], [1.0, 2.0]], 1),
                                      ([[1.0]], 2)])
def test_kernel_tables_mirrored_over_symmetric_targets_keep_the_bits(monkeypatch, m_mat, n):
    """On targets symmetric about 0 (an odd count with a zero centre, and an
    even count) the exp tables are taken on half the targets and conjugated
    for the rest, with the bytes of the direct tables. A budget of 3 or 4
    targets per chunk splits +- pairs: each chunk keeps its targets, and a
    column is conjugated where its mirror lies in the same chunk, as in the
    chunk that straddles the centre."""
    c = th.ThetaContext(np.array(m_mat), n=n, extent=2.0, step=0.125)
    nodes = th.grid_points(c)
    rng = np.random.default_rng(5)
    fvals = rng.standard_normal(len(nodes)) + 1j * rng.standard_normal(len(nodes))
    width = math.isqrt(len(nodes)) if c.dim == 2 else math.isqrt(len(nodes) - 1) + 1
    mirrored = _mirror_spy(monkeypatch)
    for axis, size in ((0.25 * np.arange(-4, 5), 3), (0.3 * (np.arange(-3, 3) + 0.5), 4)):
        pts = _symmetric_targets(c, axis)
        count = len(pts)
        chunks = [np.arange(start, min(start + size, count)) for start in range(0, count, size)]
        # the pairs (q, count - 1 - q) with both targets in one chunk
        pairs = sum(len(set(chunk) & set(count - 1 - chunk)) // 2 for chunk in chunks)
        for budget, groups, conjugated in ((1 << 23, [np.arange(count)], count // 2),
                                           (size * width, chunks, pairs)):
            monkeypatch.setattr(th, "TABLE_BUDGET", budget)
            got = th._chunked_kernel_sum(fvals, nodes, pts, c.m_mat, 0.37)
            assert _same_bits(got, _direct_exp_sum(fvals, nodes, pts, c.m_mat, 0.37, groups))
            assert len(mirrored) == 2 * len(groups) and sum(mirrored) == 2 * conjugated > 0
            mirrored.clear()


@pytest.mark.parametrize("m_mat, n", [([[1.0]], 1), ([[2.0, 1.0], [1.0, 2.0]], 1),
                                      ([[1.0]], 2)])
def test_kernel_mirrors_exactly_the_sets_whose_phases_mirror(monkeypatch, m_mat, n):
    """A shifted lattice, and a set that is symmetric but for one value, take
    every column by exp. A zero coordinate is +0.0 on both sides of the grid
    and the lattice at mn = 2 (and M x cancels to +0.0 on both sides), yet
    its phases are exp(+-0 i) = 1 + 0.0 i alike: such sets, and a set
    symmetric but for one signed zero, are mirrored with the direct bytes."""
    c = th.ThetaContext(np.array(m_mat), n=n, n_cut=2, extent=2.0, step=0.125)
    nodes = th.grid_points(c)
    rng = np.random.default_rng(6)
    fvals = rng.standard_normal(len(nodes)) + 1j * rng.standard_normal(len(nodes))
    mirrored = _mirror_spy(monkeypatch)
    ones = np.ones((1, c.m, c.n))
    lattice, grid = th.lattice_points(c), th.grid_points(c, extent=0.5, step=0.25)
    cases = [(lattice + 0.25, False),
             (np.array([-0.5, 0.0, 0.25, 0.5])[:, None, None] * ones, False),
             (np.array([-0.5, 0.0, 0.0, 0.5])[:, None, None] * ones, True),
             (lattice, True), (grid, True)]
    for pts, mirror in cases:
        got = th._chunked_kernel_sum(fvals, nodes, pts, c.m_mat, -0.8)
        ref = _direct_exp_sum(fvals, nodes, pts, c.m_mat, -0.8, [np.arange(len(pts))])
        assert _same_bits(got, ref) and mirrored == [len(pts) // 2 if mirror else 0] * 2
        mirrored.clear()


def test_conjugated_table_columns_have_the_bytes_of_exp():
    """A conjugated column has the bytes exp gives its target, down to the
    +0.0 imaginary part of a zero phase (the axis holds 0), which conjugation
    alone would turn into -0.0; in the whole table of 9 targets and in a
    chunk [3, 6) whose target 5 mirrors target 3."""
    axis, w = 0.125 * np.arange(-3, 6), 2.5 * np.arange(-4, 5)
    for start, lo, hi, stop in ((0, 5, 9, 9), (3, 5, 6, 6)):
        got = th._exp_table(axis, w, start, lo, hi, stop)
        assert _same_bits(got, np.exp(1j * np.multiply.outer(axis, w[start:stop])))


def _phase_spy(monkeypatch):
    """Checks every phase ``_even_phase`` returns against the exponential
    taken on every point, and records whether its points were mirrored."""
    mirrored, even_phase = [], th._even_phase

    def spy(rate, sq):
        phase = even_phase(rate, sq)
        assert _same_bits(phase, np.exp(rate * sq))
        mirrored.append(th._is_mirror(sq.ravel(), sq.ravel()))
        return phase

    monkeypatch.setattr(th, "_even_phase", spy)
    return mirrored


@pytest.mark.parametrize("m_mat, exps", [([[2.0]], [[3]]),
                                         ([[2.0, 1.0], [1.0, 2.0]], [[1], [0]])])
def test_c_zero_chirp_has_the_bits_of_the_full_exponential(monkeypatch, m_mat, exps):
    """The c = 0 branch |a|^{mn/2} e^{pi i ab ||x||^2} f(a x) on the grid and
    on the lattice, whose chirp is taken on half the points, has the bytes of
    the exponential taken on every point; f is odd, so that a mirror off by
    one point, or a mirrored f, changes them."""
    c = th.ThetaContext(np.array(m_mat), n=1, n_cut=4, extent=1.0, step=0.125)
    f = th.gaussian_poly(c, exps)
    mirrored = _phase_spy(monkeypatch)
    for mat in (th.SL2Coord(0.7 + 1.3j, 0.0).upper(), np.array([[1.0, -0.45], [0.0, 1.0]])):
        (a, b), _ = th._sl2(mat)
        op = th.weil_matrix_action(mat, f, c)
        for pts in (th.grid_points(c), th.lattice_points(c)):
            ref = abs(a) ** (c.dim / 2.0) * np.exp(1j * np.pi * a * b * c.norm_sq(pts)) \
                * f.eval_fn(a * pts)
            assert _same_bits(op.eval_fn(pts), ref)
    assert mirrored == [True] * 4


def test_target_chirp_is_mirrored_on_symmetric_targets_only(monkeypatch):
    """Every phase of an oscillatory kernel evaluation (node chirp, target
    chirp and the c = 0 chirp of the t generator, on the context grid where
    the kernel samples f's support and on the nodes) has the bits of the full
    exponential; the target chirp is mirrored on the grid and the lattice, not
    on the shifted lattice."""
    c = th.ThetaContext(np.array([[2.0]]), n=1, n_cut=4, extent=1.0, step=0.125)
    f = th.weil_generator_action(("t", np.array([[0.7]]), 1.0), th.gaussian(c), c)
    mirrored = _phase_spy(monkeypatch)
    op = th.weil_matrix_action(th.SL2Coord(0.4 + 1.3j, 0.9).matrix(), f, c)
    for pts, target_mirrored in ((th.grid_points(c), True), (th.lattice_points(c), True),
                                 (th.lattice_points(c) + 0.25, False)):
        op.eval_fn(pts)
        # the chirp f takes on the context grid (its support samples), then
        # on the nodes, the node chirp, then the target chirp
        assert mirrored == [True, True, True, target_mirrored]
        mirrored.clear()


@pytest.mark.parametrize("m_val, extent, step", [(1.0, 8.0, 1.0 / 16.0), (2.0, 10, 1.0),
                                                 (1.0, 2.0, 0.0137), (2.0, 0.5, 0.5)])
def test_one_dimensional_grid_is_the_mesh_construction(m_val, extent, step):
    """At mn = 1 the grid is the scaled range itself: the same bits as the
    meshgrid and stack that build it at mn = 2."""
    c = th.ThetaContext(np.array([[m_val]]))
    half = int(np.ceil(extent / step - 1e-12))
    mesh = np.meshgrid(step * np.arange(-half, half + 1), indexing="ij")
    ref = np.stack([g.ravel() for g in mesh], axis=-1).reshape(-1, 1, 1)
    assert _same_bits(th.grid_points(c, extent=extent, step=step), ref)


def test_context_held_data_is_read_only_and_its_own():
    """Each context computes its lattice, shell, det(M)^(n/2) and ||M||_2 once;
    the arrays are read-only, no two contexts share one, and a used context
    gives the theta sums of a fresh equal one."""
    made = [th.ThetaContext(np.array([[2.0]]), n_cut=6) for _ in range(2)]
    lattice = th.lattice_points(made[0])
    assert lattice is th.lattice_points(made[0])
    for held in (lattice, made[0].shell):
        with pytest.raises(ValueError, match="read-only"):
            held[0] = 1
    arrays = [a for ctx in made for a in (ctx.m_mat, th.lattice_points(ctx), ctx.shell)]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)
    coord, h = th.SL2Coord(0.4 + 0.9j, 1.1), hb(0.3, -0.2, 0.1)

    def sums(ctx):
        return np.array([th.theta_sum(f, ctx, coord, h)
                         for f in (th.gaussian(ctx), th.gaussian_poly(ctx, [[3]]))])

    used = sums(made[0])
    assert _same_bits(sums(made[0]), used)
    assert _same_bits(sums(th.ThetaContext(np.array([[2.0]]), n_cut=6)), used)


@pytest.mark.parametrize("m_mat, n", [([[2.0, 1.0], [1.0, 2.0]], 1), ([[1.0]], 2)])
def test_two_dimensional_gaussian_eigenfunction(m_mat, n):
    """At mn = 2, exp(-pi (x, x)_M) is an eigenfunction of K(phi) with
    eigenvalue exp(i mn (pi/4 - phi/2)), through the oscillatory kernel."""
    c = th.ThetaContext(np.array(m_mat), n=n, extent=3.0, step=0.25)
    f = th.gaussian(c)
    pts = th.grid_points(c, extent=0.5, step=0.25)
    fv = f.eval_fn(pts)
    for phi in (0.4, np.pi / 2, 2.0):
        expect = np.exp(1j * c.dim * (np.pi / 4 - phi / 2)) * fv
        for out in (th.weil_matrix_action(_rotation(phi), f, c),
                    th.weil_sl2_action(th.SL2Coord(1j, phi), f, c)):
            assert np.max(np.abs(out.eval_fn(pts) - expect)) <= 1e-12


def test_oscillatory_kernel_guards(ctx):
    ctx3 = th.ThetaContext(np.eye(3), n=1)
    with pytest.raises(DomainError):
        th.weil_matrix_action(_rotation(0.5), th.gaussian(ctx3), ctx3)
    near_shear = th.weil_matrix_action(np.array([[1.0, 0.0], [1e-9, 1.0]]),
                                       th.gaussian(ctx), ctx)
    with pytest.raises(AccuracyError):
        near_shear.eval(np.array([[0.5]]))


def test_iwasawa_examples():
    c = th.iwasawa(np.diag([2.0, 0.5]))
    assert np.isclose(c.tau, 4j) and np.isclose(c.phi, 0.0)
    c2 = th.iwasawa(np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert np.isclose(c2.tau, 1j) and np.isclose(c2.phi, np.pi / 2)
    with pytest.raises(DomainError):
        th.iwasawa(np.diag([2.0, 2.0]))


def test_iwasawa_scales_the_bottom_row_and_refuses_a_tau_past_the_float_range():
    """tau = g i has v = 1 / (c^2 + d^2): where that sum is a normal number
    the coordinates keep the bits of the plain quotients, and where it would
    underflow or tau would leave the float range SL2Coord refuses tau, with
    no RuntimeWarning."""
    rng = np.random.default_rng(8)
    for scale in np.exp(rng.uniform(-300, 300, 200)):
        a, b, c = rng.standard_normal(3) * [1.0 / scale, 1.0 / scale, scale]
        g = np.array([[a, b], [c, (1.0 + b * c) / a]])
        (a, b), (c, d) = g
        den = c * c + d * d
        if not np.finfo(float).tiny <= den < np.inf \
                or abs(np.linalg.det(g) - 1.0) > 1e-10:
            continue
        assert th.iwasawa(g).tau == complex((a * c + b * d) / den, 1.0 / den)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for g in ([[1e200, 0.0], [0.0, 1e-200]], [[1e-200, 0.0], [0.0, 1e200]]):
            with pytest.raises(DomainError, match="^tau must be a finite point of the upper"):
                th.iwasawa(np.array(g))
        assert th.iwasawa(np.diag([1e154, 1e-154])).v == 1e308


def test_iwasawa_round_trip_and_composition():
    rng = np.random.default_rng(5)
    for _ in range(40):
        mats = []
        for _k in range(2):
            a = rng.standard_normal((2, 2))
            while abs(np.linalg.det(a)) < 0.2:
                a = rng.standard_normal((2, 2))
            a /= np.sqrt(abs(np.linalg.det(a)))
            if np.linalg.det(a) < 0:
                a[:, 0] *= -1
            mats.append(a)
        c1 = th.iwasawa(mats[0])
        assert np.max(np.abs(c1.matrix() - mats[0])) < 1e-12
        c3 = th.iwasawa_compose(c1, th.iwasawa(mats[1]))
        assert np.max(np.abs(c3.matrix() - mats[0] @ mats[1])) < 1e-10


def test_iwasawa_compose_special_cases():
    c1 = th.SL2Coord(0.7 + 1.3j, 0.9)
    ident = th.SL2Coord(1j, 0.0)
    c3 = th.iwasawa_compose(c1, ident)
    assert np.isclose(c3.tau, c1.tau) and np.isclose(c3.phi, c1.phi)
    # phi1 = 0 reduces to upper-triangular composition
    c1_flat = th.SL2Coord(0.4 + 2.0j, 0.0)
    c2 = th.SL2Coord(-0.3 + 0.5j, 1.1)
    c3 = th.iwasawa_compose(c1_flat, c2)
    assert np.isclose(c3.v, c1_flat.v * c2.v)
    assert np.max(np.abs(c3.matrix() - c1_flat.matrix() @ c2.matrix())) < 1e-12


def test_cocycle_values():
    s = np.array([[0.0, -1.0], [1.0, 0.0]])
    t_low = np.array([[1.0, 0.0], [1.0, 1.0]])
    t_up = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert np.isclose(th.cocycle(t_up, s, 1, 1), 1.0)
    assert np.isclose(th.cocycle(s, s, 1, 1), 1.0)
    assert np.isclose(th.cocycle(s, t_low, 1, 1), np.exp(-1j * np.pi / 4))
    assert np.isclose(th.cocycle(s, t_low, 2, 3), np.exp(-6j * np.pi / 4))
    with pytest.raises(DomainError):
        th.cocycle(np.diag([2.0, 2.0]), s, 1, 1)


def test_cocycle_matches_operator_composition(ctx):
    """R(m1 m2) = c(m1, m2) R(m1) R(m2) on the matched Gaussian."""
    rng = np.random.default_rng(9)
    f = th.gaussian(ctx)
    pts = th.grid_points(ctx)[::16]
    for _ in range(4):
        mats = []
        for _k in range(2):
            a = rng.standard_normal((2, 2))
            while abs(np.linalg.det(a)) < 0.3:
                a = rng.standard_normal((2, 2))
            a /= np.sqrt(abs(np.linalg.det(a)))
            if np.linalg.det(a) < 0:
                a[:, 0] *= -1
            mats.append(a)
        m1, m2 = mats
        if min(abs(m1[1, 0]), abs(m2[1, 0]), abs((m1 @ m2)[1, 0])) < 1e-6:
            continue
        lhs = th.weil_matrix_action(m1 @ m2, f, ctx).eval_fn(pts)
        inner = th.weil_matrix_action(m2, f, ctx)
        rhs = th.weil_matrix_action(m1, inner, ctx).eval_fn(pts)
        c = th.cocycle(m1, m2, 1, 1)
        assert np.max(np.abs(lhs - c * rhs)) < 1e-6


def test_theta_direct_lattice_sum(ctx):
    f = th.gaussian(ctx)
    val = th.theta_sum(f, ctx, th.SL2Coord(1j, 0.0), hb(0.0, 0.0))
    direct = sum(np.exp(-np.pi * w * w) for w in range(-8, 9))
    assert abs(val - direct) < 1e-10


def test_theta_kappa_shift(ctx):
    f = th.gaussian(ctx)
    coord = th.SL2Coord(0.4 + 1.1j, 0.9)
    base = th.theta_sum(f, ctx, coord, hb(0.3, -0.2, 0.0))
    shifted = th.theta_sum(f, ctx, coord, hb(0.3, -0.2, 0.7))
    assert abs(shifted - np.exp(0.7j * np.pi) * base) < 1e-10 * abs(base)


@pytest.mark.parametrize("m_mat, m", [(np.eye(1), 2), (np.eye(2), 1)])
def test_theta_sum_refuses_a_heisenberg_element_of_another_degree(m_mat, m):
    ctx = th.ThetaContext(m_mat, n=1, n_cut=4)
    h = hb(np.zeros((m, 1)), np.zeros((m, 1)), np.zeros((m, m)))
    with pytest.raises(DimensionError, match="^Heisenberg degrees do not match the context$"):
        th.theta_sum(th.gaussian(ctx), ctx, th.SL2Coord(0.2 + 1.1j, 0.3), h)


def test_jacobi_two_and_three(ctx):
    rng = np.random.default_rng(31)
    for m_val in (1.0, 2.0):
        c = th.ThetaContext(np.array([[m_val]]), n=1, n_cut=10)
        f = th.gaussian(c)
        for _ in range(4):
            tau = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.5, 2.0))
            phi = rng.uniform(0.15, np.pi - 0.15)
            lam, mu, kap = rng.uniform(-0.9, 0.9, 3)
            s = float(rng.integers(-3, 4))
            base = th.theta_sum(f, c, th.SL2Coord(tau, phi), hb(lam, mu, kap))
            moved = th.theta_sum(f, c, th.SL2Coord(tau + 2, phi),
                                 hb(lam, s - 2 * lam + mu, kap - s * lam))
            assert abs(base - moved) <= 1e-8 * abs(base)
            l0, m0, k0 = (float(x) for x in rng.integers(-3, 4, 3))
            lhs = th.theta_sum(f, c, th.SL2Coord(tau, phi),
                               hb(lam + l0, mu + m0, kap + k0 + l0 * mu - m0 * lam))
            rhs = np.exp(1j * np.pi * m_val * (k0 + m0 * l0)) * base
            assert abs(lhs - rhs) <= 1e-8 * abs(rhs)


def test_jacobi_one(ctx):
    rng = np.random.default_rng(37)
    f = th.gaussian(ctx)
    for _ in range(5):
        tau = complex(rng.uniform(-1.2, 1.2), rng.uniform(0.6, 1.8))
        phi = rng.uniform(0.2, np.pi - 0.2)
        lam, mu, kap = rng.uniform(-0.8, 0.8, 3)
        lhs = th.theta_sum(f, ctx, th.SL2Coord(-1 / tau, phi + np.angle(tau)),
                           hb(-mu, lam, kap))
        sgn = np.sign(np.sin(phi) * np.sin(phi + np.angle(tau)))
        rhs = np.exp(-1j * np.pi * sgn / 4.0) \
            * th.theta_sum(f, ctx, th.SL2Coord(tau, phi), hb(lam, mu, kap))
        assert abs(lhs - rhs) <= 1e-3 * abs(rhs)


def test_product_invariance_generators(ctx):
    rng = np.random.default_rng(41)
    f = th.gaussian(ctx)
    g = th.gaussian_poly(ctx, [[2]])
    s_mat = np.array([[0.0, -1.0], [1.0, 0.0]])
    t_star = np.array([[1.0, 2.0], [0.0, 1.0]])
    for _ in range(4):
        coord = th.SL2Coord(complex(rng.uniform(-1, 1), rng.uniform(0.7, 1.6)),
                            rng.uniform(0.3, np.pi - 0.3))
        lam, mu = rng.uniform(-0.8, 0.8, 2)
        base = abs(th.theta_sum(f, ctx, coord, hb(lam, mu))
                   * np.conj(th.theta_sum(g, ctx, coord, hb(lam, mu))))
        for gm, l0, m0, tol in ((s_mat, 0.0, 0.0, 1e-3),
                                (t_star, 0.0, 2.0, 1e-8),
                                (np.eye(2), 1.0, -2.0, 1e-8)):
            nc, nl, nm = th.theta_left_translate(coord, lam, mu, gm, l0, m0)
            moved = abs(th.theta_sum(f, ctx, nc, hb(float(nl), float(nm)))
                        * np.conj(th.theta_sum(g, ctx, nc, hb(float(nl), float(nm)))))
            assert abs(moved - base) <= tol * base


def test_left_translate_matches_the_fractional_linear_closed_form():
    """The coordinates move to (g tau, phi + arg(c tau + d)) for integral and
    random real g, with |Re tau| up to 1e7, to 1e-13 relative to |g tau|, and
    (lam, mu) to ((lam, mu) + (l0, m0)) g^{-1}."""
    rng = np.random.default_rng(23)
    gammas = [np.array([[0.0, -1.0], [1.0, 0.0]]), np.array([[1.0, 2.0], [0.0, 1.0]]),
              np.array([[2.0, 1.0], [1.0, 1.0]])]
    for _ in range(6):
        a = rng.standard_normal((2, 2))
        a[:, 0] *= np.sign(np.linalg.det(a))
        gammas.append(a / np.sqrt(np.linalg.det(a)))
    for scale in (1.0, 1e3, 1e7):
        for gm in gammas:
            tau = complex(scale * rng.uniform(-1, 1), rng.uniform(0.5, 2.0))
            phi = rng.uniform(0.0, 2.0 * np.pi)
            nc, nl, nm = th.theta_left_translate(th.SL2Coord(tau, phi), 0.2, -0.1, gm, 0.5, 1.0)
            moved = np.array([0.7, 0.9]) @ np.linalg.inv(gm)
            assert np.max(np.abs([nl, nm] - moved)) <= 1e-13 * np.max(np.abs(moved))
            (a, b), (c, d) = gm
            g_tau = (a * tau + b) / (c * tau + d)
            assert abs(nc.tau - g_tau) <= 1e-13 * abs(g_tau)
            turn = nc.phi - phi - np.angle(c * tau + d)
            assert abs(np.angle(np.exp(1j * turn))) <= 1e-13


def test_left_translate_against_mpmath():
    """g tau within 1e-14 relative and phi + arg(c tau + d) within 1e-14
    (mod 2 pi) of 40-digit values, for g = S at |Re tau| from 1 to 1e7 and for
    random real g at |Re tau| up to 40 and 1e7."""
    rng = np.random.default_rng(29)
    cases = [(np.array([[0.0, -1.0], [1.0, 0.0]]), scale) for scale in np.logspace(0, 7, 15)]
    for scale in (40.0, 1e7):
        for _ in range(10):
            a = rng.standard_normal((2, 2))
            a[:, 0] *= np.sign(np.linalg.det(a))
            cases.append((a / np.sqrt(np.linalg.det(a)), scale))
    with mpmath.workdps(40):
        for gm, scale in cases:
            tau = complex(rng.choice([-1, 1]) * scale * rng.uniform(0.5, 1.0),
                          rng.uniform(0.1, 3.0))
            coord = th.SL2Coord(tau, rng.uniform(0.0, 2.0 * np.pi))
            nc, _, _ = th.theta_left_translate(coord, 0.2, -0.1, gm, 0.0, 0.0)
            (a, b), (c, d) = (map(mpmath.mpf, row) for row in gm)
            t = mpmath.mpc(tau)
            g_tau = (a * t + b) / (c * t + d)
            assert float(abs(nc.tau - g_tau) / abs(g_tau)) <= 1e-14
            turn = mpmath.mpf(nc.phi) - coord.phi - mpmath.arg(c * t + d)
            turn -= 2 * mpmath.pi * mpmath.nint(turn / (2 * mpmath.pi))
            assert float(abs(turn)) <= 1e-14


def test_theta_tail_budget_violation():
    tiny = th.ThetaContext(np.array([[1.0]]), n=1, n_cut=2)
    f = th.gaussian(tiny)
    # very small v spreads the summand far beyond the truncation radius
    with pytest.raises(AccuracyError):
        th.theta_sum(f, tiny, th.SL2Coord(0.01j, 0.0), hb(0.0, 0.0))


@pytest.mark.parametrize("v", [1e-40, 1e-60])
def test_theta_tail_budget_holds_where_every_term_is_below_one(v):
    # each lattice term is about the centre term, so the boundary shell is a
    # fifth of the sum however small the sum is
    tiny = th.ThetaContext(np.array([[1.0]]), n=1, n_cut=2)
    with pytest.raises(AccuracyError):
        th.theta_sum(th.gaussian(tiny), tiny, th.SL2Coord(v * 1j, 0.0), hb(0.0, 0.0))


def test_theta_command_refuses_a_sum_far_below_one(capsys):
    assert cli.main(["theta", "--M", "1", "--tau", "0,1e-300", "--phi", "0.3"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("numeric error: boundary lattice terms")


def test_weil_kernel_node_count_guard():
    # at mn = 2 the per-axis guard allows (2 * 4623 + 1)^2 ~ 85 M nodes here;
    # the node-count bound raises before any grid is built
    import time
    ctx2 = th.ThetaContext(np.array([[2.0, 1.0], [1.0, 2.0]]), n=1, n_cut=6, extent=3.0)
    op = th.weil_sl2_action(th.SL2Coord(0.3 + 1.2j, 0.15), th.gaussian_poly(ctx2, [[0], [0]]),
                            ctx2)
    start = time.perf_counter()
    with pytest.raises(AccuracyError):
        op.eval_fn(th.lattice_points(ctx2))
    assert time.perf_counter() - start < 1.0
