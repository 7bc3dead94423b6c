"""The oscillatory Weil kernel integrates only where f lives: its nodes reach
one grid step past the last context grid sample of |f| above SUPPORT_FRAC of
the largest. The anchor of its accuracy is the closed form of the Weil
operator on the Gaussian family (Folland, Harmonic Analysis in Phase Space
(1989), ch. 4; Lion and Vergne 1980): R(g) f_z = kappa f_{g z}, with
f_z(x) = e^{pi i z ||x||^2_M} and g z = (a z + b) / (c z + d)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegeljacobi import cli, theta as th
from siegeljacobi.errors import AccuracyError
from siegeljacobi.groups import HeisenbergElement

S = np.array([[0.0, -1.0], [1.0, 0.0]])


def _shear(t):
    return np.array([[1.0, t], [0.0, 1.0]])


def _gaussian_at(ctx, z):
    """f_z(x) = e^{pi i z ||x||^2_M}."""
    return th.GridFunction(ctx, lambda pts: np.exp(1j * np.pi * z * ctx.norm_sq(pts)))


def _cocycle_constant(g, z, ctx):
    """(kappa, g z) with R(g) f_z = kappa f_{g z}, at c != 0, from the Fourier
    transform of a Gaussian and the cocycle alone. g = X Y with X = N(t) S and
    Y = N(c) S N(e), t = (a + 1) / c and e = t d - b, so both factors have
    bottom-left entry 1. N(s) maps f_w to f_{w + s} (the c = 0 rule), S maps
    f_w to (-i w)^{-mn/2} f_{-1/w} (principal branch, -i w in the right half
    plane), every other split has a factor with c = 0, and
    R(g) = cocycle(X, Y) R(X) R(Y)."""
    (a, b), (c, d) = g
    t = (a + 1.0) / c
    e = t * d - b
    x_fac, y_fac = _shear(t) @ S, _shear(c) @ S @ _shear(e)
    w1 = z + e
    w2 = -1.0 / w1 + c
    kappa = th.cocycle(x_fac, y_fac, ctx.m, ctx.n) \
        * (-1j * w1) ** (-ctx.dim / 2) * (-1j * w2) ** (-ctx.dim / 2)
    return kappa, -1.0 / w2 + t


def _draw(rng):
    """A random g in SL(2, R) with |c| >= 0.3, and z with Im z in [0.6, 1.6]."""
    while True:
        g = rng.standard_normal((2, 2))
        det = np.linalg.det(g)
        if abs(det) < 0.3:
            continue
        g /= np.sqrt(abs(det))
        if det < 0:
            g[:, 0] *= -1
        if abs(g[1, 0]) >= 0.3:
            return g, complex(rng.uniform(-1.0, 1.0), rng.uniform(0.6, 1.6))


@pytest.mark.parametrize("m_mat, n", [([[1.0]], 1), ([[2.0]], 1), ([[1.0, 0.0], [0.0, 1.0]], 1),
                                      ([[1.0]], 2), ([[2.0, 1.0], [1.0, 2.0]], 1)])
def test_weil_operator_on_gaussians_is_the_half_plane_action(m_mat, n):
    """At the default context, R(g) f_z = e^{i sgn(c) mn pi/4} (c z + d)^{-mn/2}
    f_{g z} to 1e-12 absolute. The constant comes from the cocycle and agrees
    with the sgn(c) rule. A draw may be refused by the grid guard, and few
    are, but none is answered wrongly."""
    ctx = th.ThetaContext(np.array(m_mat), n=n)
    rng = np.random.default_rng([31, ctx.m, ctx.n, int(ctx.m_mat.sum())])
    draws = 20 if ctx.dim == 1 else 6
    pts = th.grid_points(ctx, extent=1.0, step=0.25)
    refused = 0
    for _ in range(draws):
        g, z = _draw(rng)
        (a, b), (c, d) = g
        kappa, gz = _cocycle_constant(g, z, ctx)
        sgn_rule = np.exp(1j * np.sign(c) * ctx.dim * np.pi / 4) * (c * z + d) ** (-ctx.dim / 2)
        assert abs(kappa - sgn_rule) <= 1e-13 * abs(sgn_rule)
        assert abs(gz - (a * z + b) / (c * z + d)) <= 1e-13 * abs(gz)
        try:
            out = th.weil_matrix_action(g, _gaussian_at(ctx, z), ctx).eval_fn(pts)
        except AccuracyError:
            refused += 1
            continue
        assert np.max(np.abs(out - kappa * _gaussian_at(ctx, gz).eval_fn(pts))) <= 1e-12
    assert refused <= draws // 5


@pytest.mark.parametrize("m_mat, n", [([[1.0, 0.0], [0.0, 1.0]], 1), ([[1.0]], 2),
                                      ([[2.0, 1.0], [1.0, 2.0]], 1)])
def test_two_dimensional_theta_sums_finish_at_default_settings(m_mat, n):
    """A default context (n_cut 8, extent 8, step 1/16) gives an mn = 2 theta
    sum of the Gaussian, the eigenvalue e^{i mn (pi/4 - phi/2)} of K(phi)
    times the sum at phi = 0, to 1e-12 relative."""
    ctx = th.ThetaContext(np.array(m_mat), n=n)
    assert (ctx.n_cut, ctx.extent, ctx.step) == (8, 8.0, 1.0 / 16.0)
    h = HeisenbergElement(np.zeros((ctx.m, n)), np.zeros((ctx.m, n)), np.zeros((ctx.m, ctx.m)))
    f, tau, phi = th.gaussian(ctx), 0.3 + 1.1j, 0.9
    expect = np.exp(1j * ctx.dim * (np.pi / 4 - phi / 2)) \
        * th.theta_sum(f, ctx, th.SL2Coord(tau, 0.0), h)
    assert abs(th.theta_sum(f, ctx, th.SL2Coord(tau, phi), h) - expect) <= 1e-12 * abs(expect)


@pytest.mark.parametrize("seed", [1, 3, 6, 44, 46, 53, 96])
def test_theta_suite_passes_at_the_seeds_near_phi_pi(seed, capsys):
    """These seeds reach the kernel at K(phi) with |phi - pi| <= 0.006, where
    the context's whole box needed more than 2e5 steps per half axis."""
    assert cli.main(["check", "--suite", "theta", "--seed", str(seed)]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == "case,lhs,rhs,residual,tol,pass"
    assert len(rows) == 91 and all(row.endswith(",true") for row in rows)


@settings(max_examples=40, deadline=None)
@given(width=st.floats(1e-3, 1e3), centre=st.floats(-12.0, 12.0),
       steps=st.integers(1, 64), step=st.sampled_from([1.0 / 16.0, 0.1, 0.5]),
       m_val=st.sampled_from([1.0, 2.0]))
def test_support_extent_stays_in_the_box_and_covers_f(width, centre, steps, step, m_val):
    """ext is at most the context extent and at least one step, and reaches
    one step past every grid sample above SUPPORT_FRAC of the largest."""
    ctx = th.ThetaContext(np.array([[m_val]]), extent=steps * step, step=step)
    f = th.GridFunction(ctx, lambda pts: np.exp(-np.pi * width * (pts[:, 0, 0] - centre) ** 2)
                        .astype(complex))
    ext = th._support_extent(f, ctx)
    assert ctx.step <= ext <= ctx.extent
    grid = th.grid_points(ctx)
    sizes = np.abs(f.eval_fn(grid))
    live = np.abs(grid[sizes > th.SUPPORT_FRAC * sizes.max(), 0, 0])
    assert ext == (ctx.extent if live.max(initial=0.0) + step > ctx.extent
                   else live.max(initial=0.0) + step)


def test_support_extent_of_zero_and_of_non_finite_samples():
    ctx = th.ThetaContext(np.eye(2))
    zero = th.GridFunction(ctx, lambda pts: np.zeros(len(pts), dtype=complex))
    assert th._support_extent(zero, ctx) == ctx.step
    blowup = th.GridFunction(ctx, lambda pts: np.exp(np.pi * ctx.norm_sq(pts) ** 2)
                             .astype(complex))
    with np.errstate(over="ignore"):
        assert th._support_extent(blowup, ctx) == ctx.extent


@pytest.mark.parametrize("m_mat, n", [([[1.0]], 1), ([[2.0]], 1), ([[1.0]], 2)])
def test_f_that_does_not_decay_keeps_the_context_nodes(monkeypatch, m_mat, n):
    """|f| = 1 on the whole box: the kernel sum sees the nodes of the context
    extent, grid_points(ctx, step=step) with the step rule at that extent,
    bit for bit."""
    ctx = th.ThetaContext(np.array(m_mat), n=n, n_cut=3, extent=1.5, step=0.125)
    f = _gaussian_at(ctx, 0.7 + 0.0j)
    captured = []
    kernel_sum = th._chunked_kernel_sum

    def capture(fvals, nodes, *args, **kwargs):
        captured.append(nodes)
        return kernel_sum(fvals, nodes, *args, **kwargs)

    monkeypatch.setattr(th, "_chunked_kernel_sum", capture)
    pts = th.lattice_points(ctx)
    for coord in (th.SL2Coord(0.3 + 1.2j, 0.7), th.SL2Coord(-0.8 + 0.6j, 2.3)):
        (_, _), (c, d) = mat = coord.matrix()
        assert th._support_extent(f, ctx) == ctx.extent
        th.weil_matrix_action(mat, f, ctx).eval_fn(pts)
        freq = ctx.m_norm * (abs(d) * ctx.extent + float(np.max(np.abs(pts)))) / abs(c) + 1.0
        ref = th.grid_points(ctx, step=min(ctx.step, 1.0 / (8.0 * freq)))
        nodes = captured.pop()
        assert nodes.dtype == ref.dtype and nodes.shape == ref.shape
        assert nodes.tobytes() == ref.tobytes()
