from functools import partial

import numpy as np
import pytest

from siegeljacobi import cayley, checks, diffops, fields, groups, sampling, spaces
from siegeljacobi.diffops import DerivativeTable, FDConfig, invariant_polynomial
from siegeljacobi.errors import DimensionError, DomainError, NumericError, ParameterError
from siegeljacobi.linalg import random_unitary
from siegeljacobi.metrics import MetricParams


def test_second_derivatives_against_analytic():
    p = spaces.SiegelPoint.create(np.array([[0.4 + 0.9j]]))
    tol = 1e-9
    t = DerivativeTable(lambda q: q.omega[0, 0] ** 2, p, FDConfig())
    block = t.block_sym_bar_sym()
    # omega^2 is holomorphic: the mixed conj-plain second derivative vanishes
    assert abs(block[0, 0, 0, 0]) < tol
    t3 = DerivativeTable(lambda q: abs(q.omega[0, 0]) ** 4, p, FDConfig())
    w = p.omega[0, 0]
    # d^2 |w|^4 / dw dwbar = 4 |w|^2
    assert abs(t3.block_sym_bar_sym()[0, 0, 0, 0] - 4 * abs(w) ** 2) \
        <= tol * max(1.0, 4 * abs(w) ** 2)


@pytest.mark.parametrize("n, m", [(2, 1), (1, 2), (2, 2)])
def test_hessian_blocks_in_closed_form(n, m):
    """f = conj(alpha . zeta)(beta . zeta) over the entries zeta of Omega and
    Z: each block is conj(d(alpha . zeta)) d(beta . zeta), where the weighted
    (d/dOmega)_cd = (1 + delta_cd)/2 d/domega_cd gives the symmetrized
    coefficients and d/dz_kl the coefficient of z_kl in the m x n layout.
    Fourth-order differences are exact on f up to rounding."""
    rng = np.random.default_rng(31)
    p = sampling.random_jacobi_point(n, m, rng)
    size = n * n + m * n
    alpha, beta = rng.standard_normal((2, size)) + 1j * rng.standard_normal((2, size))
    alpha, beta = (c / np.linalg.norm(c) for c in (alpha, beta))    # unit: f is O(|zeta|^2)

    def f(q):
        zeta = np.concatenate([q.omega.ravel(), q.z.ravel()])
        return np.conj(alpha @ zeta) * (beta @ zeta)

    t = DerivativeTable(f, p)
    sym = [0.5 * (c[:n * n].reshape(n, n) + c[:n * n].reshape(n, n).T) for c in (alpha, beta)]
    rect = [c[n * n:].reshape(m, n) for c in (alpha, beta)]
    bar = [np.conj(sym[0]), np.conj(rect[0])]
    for got, left, right in ((t.block_sym_bar_sym(), bar[0], sym[1]),
                             (t.block_rect_bar_rect(), bar[1], rect[1]),
                             (t.block_sym_bar_rect(), bar[0], rect[1]),
                             (t.block_rect_bar_sym(), bar[1], sym[1])):
        assert np.max(np.abs(got - np.multiply.outer(left, right))) <= 1e-9


@pytest.mark.parametrize("dim", [2, 4, 6, 10, 12])
def test_table_stencil_points_and_entries(dim):
    """A table evaluates f at the center, 4 points along each axis and 16
    per pair of axes, and sums one entry per second derivative."""
    offsets, slots, _, ei, ej = diffops._plan(dim)
    assert len(offsets) == 1 + 4 * dim + 8 * dim * (dim - 1)
    assert slots.shape[1] == len(ei) == dim * (dim + 1) // 2
    assert sorted(zip(ei, ej)) == [(i, j) for i in range(dim) for j in range(i, dim)]


def test_laplacian_scalar_eigenfunctions():
    p = spaces.SiegelPoint.create(np.array([[0.2 + 1.4j]]))
    for s in (0.5, 1.7, 2.0):
        f = lambda q, s=s: q.omega[0, 0].imag ** s
        val = diffops.laplacian_siegel(DerivativeTable(f, p), 1.0)
        expected = s * (s - 1) * p.omega[0, 0].imag ** s
        assert abs(val - expected) <= 1e-7 * max(1.0, abs(expected))
    assert abs(diffops.laplacian_siegel(DerivativeTable(lambda q: 3.0, p), 1.0)) < 1e-8
    with pytest.raises(DomainError):
        diffops.laplacian_siegel(DerivativeTable(lambda q: 1.0, p), -2.0)


def test_laplacian_weight_scaling():
    rng = np.random.default_rng(3)
    p = sampling.random_siegel_point(2, rng)
    f = sampling.random_polynomial_field("siegel", rng)
    v1 = diffops.laplacian_siegel(DerivativeTable(f, p), 1.0)
    v2 = diffops.laplacian_siegel(DerivativeTable(f, p), 2.0)
    assert abs(v1 - 2.0 * v2) < 1e-9 * max(1.0, abs(v1))


def test_jacobi_laplacian_table_cases():
    rng = np.random.default_rng(5)
    params = MetricParams(1.0, 1.0)
    for _ in range(5):
        p = sampling.random_jacobi_point(1, 1, rng)
        s = 1.3
        f_b = lambda q: q.omega[0, 0].imag ** s * q.z[0, 0].real
        f_c = lambda q: q.omega[0, 0].imag ** s * q.z[0, 0].imag
        f_d = lambda q: q.omega[0, 0].real * q.z[0, 0].imag
        for f, lam in ((f_b, s * (s - 1)), (f_c, s * (s + 1)), (f_d, 0.0)):
            val = diffops.laplacian_jacobi(DerivativeTable(f, p), params)
            assert abs(val - lam * f(p)) <= 1e-6 * max(1.0, abs(f(p)))


def test_disk_eta_trace_example():
    p = spaces.JacobiDiskPoint.create(np.zeros((1, 1)), np.array([[0.4 + 0.2j]]))
    val = diffops.disk_eta_trace(DerivativeTable(lambda q: abs(q.eta[0, 0]) ** 2, p))
    assert abs(val - 1.0) < 1e-8
    # J_00 agrees with the trace at degree one, and S1 = sum_k J_kk
    val_j = diffops.disk_eta_entry(DerivativeTable(lambda q: abs(q.eta[0, 0]) ** 2, p), 0, 0)
    assert abs(val_j - val) < 1e-10


def test_s1_is_trace_of_entry_operators():
    rng = np.random.default_rng(8)
    p = sampling.random_jacobi_disk_point(1, 2, rng)
    f = sampling.random_polynomial_field("jacobi_disk", rng)
    table = DerivativeTable(f, p)
    s1 = diffops.disk_eta_trace(table)
    total = sum(diffops.disk_eta_entry(table, k, k) for k in range(2))
    assert abs(s1 - total) < 1e-10


def test_operator_invariance_sample():
    rng = np.random.default_rng(13)
    params = MetricParams(1.0, 1.0)
    p = sampling.random_jacobi_point(2, 1, rng)
    g = groups.random_jacobi(2, 1, rng, 3)
    f = sampling.random_polynomial_field("jacobi", rng)
    fg = lambda q: f(groups.act_jacobi(g, q))
    gp = groups.act_jacobi(g, p)
    lhs = diffops.laplacian_jacobi(DerivativeTable(fg, p), params)
    rhs = diffops.laplacian_jacobi(DerivativeTable(f, gp), params)
    assert abs(lhs - rhs) <= 1e-4 * max(1.0, abs(rhs))
    pd = sampling.random_jacobi_disk_point(2, 1, rng, radius=0.4)
    gs = groups.embed_star(groups.random_jacobi(2, 1, rng, 3))
    fd = sampling.random_polynomial_field("jacobi_disk", rng)
    fdg = lambda q: fd(groups.act_jacobi_disk(gs, q))
    gpd = groups.act_jacobi_disk(gs, pd)
    tld, trd = DerivativeTable(fdg, pd), DerivativeTable(fd, gpd)
    for op in ("s1", "s2", "j:0,0"):
        lhs = diffops.disk_operator(tld, op)
        rhs = diffops.disk_operator(trd, op)
        assert abs(lhs - rhs) <= 1e-4 * max(1.0, abs(rhs)), op


def test_disk_operator_rejects_unknown_names_and_entries():
    p = spaces.JacobiDiskPoint.create(np.array([[0.1j]]), np.array([[0.2 + 0.1j]]))
    t = DerivativeTable(lambda q: abs(q.eta[0, 0]) ** 2, p)
    assert t.point is p
    with pytest.raises(DomainError, match="unknown disk operator"):
        diffops.disk_operator(t, "s4")
    with pytest.raises(DomainError, match="outside index range"):
        diffops.disk_eta_entry(t, 1, 0)


def test_operators_reject_a_table_at_another_point_class():
    jp = spaces.JacobiPoint.create(np.array([[0.3 + 1.2j]]), np.array([[0.1 + 0.4j]]))
    table = DerivativeTable(lambda q: q.omega[0, 0].imag ** 1.7 * q.z[0, 0].real, jp)
    with pytest.raises(DomainError, match="SiegelPoint, got one at a JacobiPoint"):
        diffops.laplacian_siegel(table)
    dp = spaces.DiskPoint.create(np.array([[0.3 + 0.1j]]))
    disk_table = DerivativeTable(lambda q: abs(q.w[0, 0]) ** 2, dp)
    for op in ("s1", "s2", "s3", "j:0,0"):
        with pytest.raises(DomainError, match="JacobiDiskPoint, got one at a DiskPoint"):
            diffops.disk_operator(disk_table, op)
    with pytest.raises(DomainError, match="JacobiPoint, got one at a DiskPoint"):
        diffops.laplacian_jacobi(disk_table)


def test_s3_determinant_structure_degree_two():
    rng = np.random.default_rng(17)
    pd = sampling.random_jacobi_disk_point(2, 1, rng, radius=0.3)
    gs = groups.embed_star(groups.random_jacobi(2, 1, rng, 2))

    def fd(q, cs=rng.uniform(-1, 1, 3)):
        return (cs[0] * abs(np.sum(q.eta)) ** 2
                + cs[1] * abs(np.sum(q.eta)) ** 4
                + cs[2] * (np.sum(q.eta ** 2) * np.sum(q.w)).real)

    fdg = lambda q: fd(groups.act_jacobi_disk(gs, q))
    lhs = diffops.disk_eta_determinant(DerivativeTable(fdg, pd))
    rhs = diffops.disk_eta_determinant(DerivativeTable(fd, groups.act_jacobi_disk(gs, pd)))
    assert abs(lhs - rhs) <= 1e-3 * max(1.0, abs(rhs))


def test_s3_nested_stencil_honours_the_field_radius():
    """At n = 2 the nested S3 stencil reaches about 0.059 from p, though the
    table's own stencil reaches only 0.0034: a field declared smooth within
    0.01 is accepted by the table and refused by S3, with the table's error.
    The reach is checked before any term, so the refusal holds at m = 1 too,
    where every row tuple repeats a row and S3 is exactly 0."""
    rng = np.random.default_rng(17)
    pd = sampling.random_jacobi_disk_point(2, 1, rng, radius=0.3)
    groups.random_jacobi(2, 1, rng, 2)          # the draws of the structure test
    cs = rng.uniform(-1, 1, 3)

    def fd(q):
        return (cs[0] * abs(np.sum(q.eta)) ** 2
                + cs[1] * abs(np.sum(q.eta)) ** 4
                + cs[2] * (np.sum(q.eta ** 2) * np.sum(q.w)).real)

    table = DerivativeTable(diffops.ScalarField(fd, radius=0.01), pd)
    with pytest.raises(ParameterError, match="smoothness radius"):
        diffops.disk_eta_determinant(table)
    assert diffops.disk_eta_determinant(DerivativeTable(diffops.ScalarField(fd), pd)) == 0
    assert diffops.disk_eta_determinant(DerivativeTable(fd, pd)) == 0


def test_s3_vanishes_exactly_below_degree_rows():
    """By Cauchy-Binet det(d eta t(d eta_bar)) sums det(d eta_S) det(d eta_bar_S)
    over the n-row subsets S of eta: at m < n there is none, so S3 is exactly
    0, and it calls the field no more than the table did."""
    rng = np.random.default_rng(5)
    for n, m in ((2, 1), (3, 2)):
        calls = []

        def fd(q):
            calls.append(q)
            return abs(np.sum(q.eta)) ** 2 + (np.sum(q.eta ** 2) * np.sum(q.w)).real

        table = DerivativeTable(fd, sampling.random_jacobi_disk_point(n, m, rng, radius=0.3))
        before = len(calls)
        assert diffops.disk_eta_determinant(table) == 0
        assert len(calls) == before


@pytest.mark.parametrize("m", [2, 3])
def test_s3_closed_form_on_a_squared_minor(m):
    """Cayley's identity det(d_X) det X = n! gives S3 f = (n!)^2 det(I - conj(W) W)
    for f = |det eta_S|^2, eta_S the first n rows of eta, at n = 2."""
    n = 2
    p = sampling.random_jacobi_disk_point(n, m, np.random.default_rng(5), radius=0.3)
    value = diffops.disk_eta_determinant(
        DerivativeTable(lambda q: abs(np.linalg.det(q.eta[:n])) ** 2, p))
    exact = 4.0 * np.linalg.det(np.eye(n) - p.w.conj() @ p.w).real
    assert abs(value - exact) <= 1e-7 * exact


def test_disk_laplacian_transport_through_partial_cayley():
    rng = np.random.default_rng(21)
    params = MetricParams(1.2, 0.8)
    for n, m in ((1, 1), (2, 1)):
        pd = sampling.random_jacobi_disk_point(n, m, rng, radius=0.35)
        f = sampling.random_polynomial_field("jacobi_disk", rng)
        f_h = lambda q: f(cayley.partial_cayley_inverse(q))
        lhs = diffops.laplacian_disk(DerivativeTable(f, pd), params)
        rhs = diffops.laplacian_jacobi(DerivativeTable(f_h, cayley.partial_cayley(pd)), params)
        assert abs(lhs - rhs) <= 1e-3 * max(1.0, abs(rhs))


def test_invariant_polynomial_examples():
    n = 3
    assert np.isclose(invariant_polynomial("q:1", 1j * np.eye(n)), n)
    val = invariant_polynomial("psi:0,0,0:1,1", np.array([[1j]]), np.array([[1 + 1j]]))
    assert np.isclose(val, 2.0)
    with pytest.raises(DomainError):
        invariant_polynomial("q:4", 1j * np.eye(3))
    with pytest.raises(DomainError):
        invariant_polynomial("psi:0,0,0:1,1", np.array([[1j]]))
    # phi:2k is q:k; an odd or out-of-range exponent is refused
    om = np.array([[1.0 + 2j, 0.5], [0.5, 3j]])
    for k in (1, 2):
        assert invariant_polynomial(f"phi:{2 * k}", om) == invariant_polynomial(f"q:{k}", om)
    for name in ("phi:3", "phi:0", "phi:6", "q:0"):
        with pytest.raises(DomainError, match="outside the generator range for n = 2$"):
            invariant_polynomial(name, om)
    # a non-finite omega or z is refused by name
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        with pytest.raises(DomainError, match="^omega has non-finite entries$"):
            invariant_polynomial("q:1", [[bad]])
        with pytest.raises(DomainError, match="^z has non-finite entries$"):
            invariant_polynomial("psi:0,0,0:1,1", [[1j]], [[bad]])


def test_invariant_polynomial_relation_and_unitarity():
    rng = np.random.default_rng(30)
    for _ in range(10):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        om = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        om = 0.5 * (om + om.T)
        z = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        for k in range(n - 1):
            for a in range(1, m + 1):
                for b in range(1, m + 1):
                    lhs = invariant_polynomial(f"psi:1,{2 * k},1:{a},{b}", om, z)
                    rhs = invariant_polynomial(f"psi:0,{2 * k + 2},0:{b},{a}", om, z)
                    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))
        h = random_unitary(n, rng)
        for name in [f"q:{j}" for j in range(1, n + 1)] + ["phi:2", "psi:0,0,1:1,1"]:
            v1 = invariant_polynomial(name, om, z)
            v2 = invariant_polynomial(name, h @ om @ h.T, z @ h.T)
            assert abs(v1 - v2) <= 1e-10 * max(1.0, abs(v1))


def test_fd_config_validation():
    with pytest.raises(ParameterError):
        FDConfig(step=0.0)


def test_fd_config_refuses_a_non_finite_step():
    # a nan step used to pass the sign test and fail later as a field value
    for step in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ParameterError):
            FDConfig(step=step)


def test_a_step_whose_square_underflows_is_refused():
    # at step 1e-300 h^2 and h_i h_j underflow to 0: the stencil weights would
    # be infinite and the Laplacian nan+nanj
    p = spaces.JacobiPoint.create(np.array([[0.3 + 1.2j]]), np.array([[0.1 + 0.4j]]))
    f = fields.builtin_field("y^s*x*v", s=1.7)
    for q in (p, spaces.stack([p, p])):
        with pytest.raises(NumericError, match="weights"):
            diffops.laplacian_jacobi(DerivativeTable(f, q, FDConfig(step=1e-300)))
    assert np.isfinite(diffops.laplacian_jacobi(DerivativeTable(f, p, FDConfig(step=1e-6))))


def test_scalar_field_radius_guard():
    p = spaces.SiegelPoint.create(np.array([[1j]]))
    field = diffops.ScalarField(lambda q: q.omega[0, 0], radius=1e-9)
    with pytest.raises(ParameterError):
        DerivativeTable(field, p)


def test_scalar_field_keeps_the_batched_marker():
    p = spaces.SiegelPoint.create(np.array([[0.3 + 1.1j]]))
    calls = []
    y = fields.builtin_field("y")

    @fields.batched
    def counted(q):
        calls.append(q)
        return y(q)

    field = diffops.ScalarField(counted, radius=10.0)
    assert fields.is_batched(field)
    table = DerivativeTable(field, p)
    assert len(calls) == 1
    bare = DerivativeTable(counted, p)
    for a, b in ((table.value, bare.value), (table.hess, bare.hess)):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_non_finite_field_rejected():
    p = spaces.SiegelPoint.create(np.array([[1j]]))
    with pytest.raises(DomainError):
        DerivativeTable(lambda q: float("nan"), p)


def test_eta_pair_value_evaluates_each_point_once():
    p = spaces.JacobiDiskPoint.create(np.array([[0.1 + 0.05j]]), np.array([[0.3 - 0.2j]]))
    seen = []

    def field(q):
        seen.append((complex(q.w[0, 0]), complex(q.eta[0, 0])))
        return abs(q.eta[0, 0]) ** 2 * (1.0 + q.w[0, 0].real)

    value = diffops.eta_pair_value(field, p, (0, 0), (0, 0), FDConfig())
    assert len(seen) == len(set(seen)) == 25
    assert abs(value - 1.1) < 1e-8


def _stack(points):
    return type(points[0])(*(np.stack(a) for a in zip(*(q.parts() for q in points))))


def _bits(values):
    return np.asarray(values, dtype=complex).tobytes()


def _batched_fields(rng):
    """(stack of 5 points, batched field) for every ported field: each
    builtin name, both polynomial kinds and the four compositions of the
    laplacians suite."""
    for n, m in ((1, 1), (2, 1)):
        jac = _stack([sampling.random_jacobi_point(n, m, rng) for _ in range(5)])
        disk = _stack([sampling.random_jacobi_disk_point(n, m, rng, 0.4) for _ in range(5)])
        fj = sampling.random_polynomial_field("jacobi", rng)
        fs = sampling.random_polynomial_field("siegel", rng)
        fd = sampling.random_polynomial_field("jacobi_disk", rng)
        yield jac, fj
        yield disk, fd
        g = groups.random_jacobi(n, m, rng, 3)
        yield jac, checks._compose(fj, partial(groups.act_jacobi, g))
        yield jac.siegel_part(), checks._compose(fs, partial(groups.act_siegel,
                                                              groups.random_symplectic(n, rng, 3)))
        gs = groups.embed_star(groups.random_jacobi(n, m, rng, 3))
        yield disk, checks._compose(fd, partial(groups.act_jacobi_disk, gs))
        yield jac, checks._compose(fd, cayley.partial_cayley_inverse)
    names = [name for name, _ in fields.eigenfunction_table(1.7)] + ["const"]
    for s in (0.5, 1.7, 2.0):
        jac = _stack([sampling.random_jacobi_point(1, 1, rng) for _ in range(5)])
        for name in names:
            yield jac, fields.builtin_field(name, s=s)
        yield jac, fields.builtin_field("bessel", s=s, a=-1.0)


def test_batched_fields_give_the_bits_of_one_point_stacks():
    for stack, f in _batched_fields(np.random.default_rng(40)):
        assert fields.is_batched(f)
        singles = [_stack([q]) for q in stack.unstack()]
        assert _bits(f(stack)) == _bits(np.concatenate([f(q) for q in singles]))


def _scalar_polynomial(kind, cs, q):
    """The polynomial fields as scalar formulas on one 2-D point."""
    if kind == "jacobi":
        om, z = q.omega, q.z
        return (cs[0] * np.trace(om).real + cs[1] * np.trace(om @ om).imag
                + cs[2] * np.sum(z).real + cs[3] * abs(np.sum(z)) ** 2
                + cs[4] * np.trace(om.imag @ om.imag) + cs[5] * np.sum(z.imag * z.imag)
                + cs[6] * np.trace(om).imag * np.sum(z).real + cs[7])
    w, eta = q.w, q.eta
    return (cs[0] * np.sum(w).real + cs[1] * abs(np.sum(eta)) ** 2 + cs[2] * np.sum(eta).imag
            + cs[3] * np.trace(w @ np.conj(w)).real + cs[4] * (np.sum(eta) * np.sum(w)).real
            + cs[5] * np.sum(eta.real * eta.real) + cs[7])


def test_batched_fields_give_the_bits_of_the_scalar_formulas():
    # the check-suite CSVs depend on these bits: numpy's array power, abs and
    # complex product may round unlike the scalar calls they replace
    rng = np.random.default_rng(43)
    for kind, n, m in (("jacobi", 1, 1), ("jacobi", 2, 1), ("jacobi_disk", 1, 2),
                       ("jacobi_disk", 2, 1)):
        stack = _stack([sampling.random_point(kind, n, m, rng) for _ in range(200)])
        f = sampling.random_polynomial_field(kind, np.random.default_rng(n + m))
        cs = np.random.default_rng(n + m).uniform(-1.0, 1.0, 8)
        assert _bits(f(stack)) == _bits([_scalar_polynomial(kind, cs, q) for q in stack.unstack()])
    stack = _stack([sampling.random_jacobi_point(1, 1, rng) for _ in range(200)])
    coords = [(complex(q.omega[0, 0]), complex(q.z[0, 0])) for q in stack.unstack()]
    for s in (0.5, 1.7, 2.0):
        scalar = {"y^s*x*v": [om.imag ** s * om.real * z.imag for om, z in coords],
                  "y^s*u": [om.imag ** s * z.real for om, z in coords],
                  "bessel": [np.sqrt(om.imag) * fields.bessel_k(s - 0.5, 2.0 * np.pi * om.imag)
                             * np.exp(2j * np.pi * om.real) for om, z in coords]}
        for name, values in scalar.items():
            assert _bits(fields.builtin_field(name, s=s)(stack)) == _bits(values), (name, s)


def test_table_of_batched_field_matches_the_plain_callable():
    # a plain callable gets single 2-D points, a batched one the stack: the
    # fields here return the same bits on both, so the tables agree bitwise
    for stack, f in _batched_fields(np.random.default_rng(41)):
        p = stack.unstack()[0]
        batched, plain = DerivativeTable(f, p), DerivativeTable(lambda q: f(q), p)
        for a, b in ((batched.hess, plain.hess), (batched.value, plain.value)):
            assert _bits(a) == _bits(b)


def test_non_finite_value_at_one_stencil_point_rejected():
    p = spaces.SiegelPoint.create(np.array([[0.2 + 1.1j]]))

    @fields.batched
    def field(q):
        x, y = q.omega[:, 0, 0].real, q.omega[:, 0, 0].imag
        # only the corner point of the mixed stencil has both coordinates largest
        return np.where((x == x.max()) & (y == y.max()), np.nan, x * y)

    chart = spaces._Chart(p)
    points = chart.shifted(diffops._plan(chart.dim)[0] * 1e-3)
    assert np.count_nonzero(np.isnan(field(points))) == 1
    with pytest.raises(DomainError):
        DerivativeTable(field, p)


def test_singular_action_at_one_stencil_point_raises():
    # step 0.25 at omega = i: the offset -2 along Im omega lands on omega = 0,
    # where C omega + D = omega for the inversion is singular
    p = spaces.SiegelPoint(np.array([[1j]]))
    f = checks._compose(fields.builtin_field("y"), partial(groups.act_siegel, groups.inversion(1)))
    with pytest.raises(NumericError):
        DerivativeTable(f, p, FDConfig(step=0.25))
    DerivativeTable(f, p, FDConfig(step=0.2))


def test_act_jacobi_rejects_a_stack_of_the_wrong_degree():
    rng = np.random.default_rng(42)
    g = groups.random_jacobi(1, 1, rng)
    good = _stack([sampling.random_jacobi_point(1, 1, rng) for _ in range(3)])
    assert groups.act_jacobi(g, good).omega.shape == (3, 1, 1)
    for n, m in ((2, 1), (1, 2)):
        wrong = _stack([sampling.random_jacobi_point(n, m, rng) for _ in range(3)])
        with pytest.raises(DimensionError):
            groups.act_jacobi(g, wrong)


def test_bessel_k_on_vectors():
    z = np.array([0.05, 0.7, 1.0, 3.5, 12.0])
    for s in (0.0, 1.2, 0.5 + 0.3j):
        vals = fields.bessel_k(s, z)
        assert vals.shape == z.shape
        assert _bits(vals) == _bits([fields.bessel_k(s, float(x)) for x in z])
    assert abs(fields.bessel_k(0.5, 1.0) - np.sqrt(np.pi / 2) * np.exp(-1.0)) < 1e-12
    for bad in (np.array([1.0, 0.0]), np.array([-1.0, 2.0]), 0.0, np.nan, np.array([1.0, np.nan])):
        with pytest.raises(DomainError, match="^the integral representation needs Re z > 0$"):
            fields.bessel_k(1.0, bad)
