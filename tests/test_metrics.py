import numpy as np
import pytest

from siegeljacobi import cayley, checks, groups, linalg, metrics, sampling, spaces
from siegeljacobi.errors import DomainError
from siegeljacobi.metrics import MetricParams
from siegeljacobi.spaces import TangentVector


def _t(d_omega, d_z=None):
    d_omega = np.atleast_2d(np.asarray(d_omega, dtype=complex))
    if d_z is None:
        return TangentVector.omega_only(d_omega)
    return TangentVector(d_omega, np.atleast_2d(np.asarray(d_z, dtype=complex)))


def test_siegel_metric_scalar_cases():
    p = spaces.SiegelPoint.create(np.array([[1j]]))
    t = _t([[1.0]])
    assert np.isclose(metrics.siegel_metric(p, t, t, 1.0), 1.0)
    q = spaces.SiegelPoint.create(np.array([[0.7 + 2.0j]]))
    assert np.isclose(metrics.siegel_metric(q, t, t, 3.0), 3.0 / 4.0)
    with pytest.raises(DomainError):
        metrics.siegel_metric(p, t, t, -1.0)


def test_disk_metric_center_values():
    p = spaces.DiskPoint.create(np.zeros((1, 1)))
    t = _t([[1.0]])
    assert np.isclose(metrics.disk_metric(p, t, t, 1.0), 4.0)
    p2 = spaces.DiskPoint.create(np.zeros((2, 2)))
    dw = np.array([[0.3, 0.1j], [0.1j, -0.2 + 0.4j]])
    t2 = _t(dw)
    expected = 4.0 * np.trace(dw @ dw.conj().T).real
    assert np.isclose(metrics.disk_metric(p2, t2, t2, 1.0).real, expected)


def test_jacobi_disk_metric_origin():
    params = MetricParams(1.4, 0.6)
    p = spaces.JacobiDiskPoint.create(np.zeros((2, 2)), np.zeros((1, 2)))
    t = _t(np.array([[0.2, 0.1], [0.1, -0.3 + 0.2j]]), np.array([[0.5, -0.25j]]))
    val = metrics.jacobi_disk_metric(p, t, t, params)
    expected = (4 * params.A * np.trace(t.d_omega @ t.d_omega.conj().T).real
                + 4 * params.B * np.trace(t.d_z.T @ np.conj(t.d_z)).real)
    assert np.isclose(val.real, expected) and abs(val.imag) < 1e-14


def test_each_metric_takes_one_guarded_inverse(monkeypatch):
    # the Jacobi metrics hand their Y^-1 or (I - W conj(W))^-1 to the base form
    inverses = []
    monkeypatch.setattr(metrics, "safe_inv", lambda a: inverses.append(a) or linalg.safe_inv(a))
    rng = np.random.default_rng(8)
    p, pd = sampling.random_jacobi_point(2, 1, rng), sampling.random_jacobi_disk_point(2, 1, rng)
    t1, t2 = sampling.random_tangent(2, 1, rng), sampling.random_tangent(2, 1, rng)
    for metric, point in ((metrics.siegel_metric, p.siegel_part()), (metrics.jacobi_metric, p),
                          (metrics.disk_metric, spaces.DiskPoint(pd.w)),
                          (metrics.jacobi_disk_metric, pd)):
        inverses.clear()
        metric(point, t1, t2)
        assert len(inverses) == 1, metric.__name__


def test_hermitian_symmetry_and_positivity():
    rng = np.random.default_rng(3)
    params = MetricParams(0.8, 1.7)
    for _ in range(20):
        p = sampling.random_jacobi_point(2, 1, rng)
        t1 = sampling.random_tangent(2, 1, rng)
        t2 = sampling.random_tangent(2, 1, rng)
        h12 = metrics.jacobi_metric(p, t1, t2, params)
        h21 = metrics.jacobi_metric(p, t2, t1, params)
        assert np.isclose(h12, np.conj(h21))
        htt = metrics.jacobi_metric(p, t1, t1, params)
        assert abs(htt.imag) < 1e-12 and htt.real > 0


@pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (2, 2), (3, 2)])
def test_raw_forms_are_hermitian(n, m):
    """Each metric evaluates its form once, with no symmetrizing average, so
    h(t1, t2) = conj h(t2, t1) and a real, positive h(t, t) hold only because
    the formula is right: to rounding, not bit for bit."""
    rng = np.random.default_rng(10 * n + m)
    params = MetricParams(0.8, 1.7)
    for metric, kind, weight, m_t in ((metrics.siegel_metric, "siegel", 0.8, 0),
                                      (metrics.jacobi_metric, "jacobi", params, m),
                                      (metrics.disk_metric, "disk", 0.8, 0),
                                      (metrics.jacobi_disk_metric, "jacobi_disk", params, m)):
        for _ in range(10):
            p = sampling.random_point(kind, n, m, rng)
            t1, t2 = sampling.random_tangent(n, m_t, rng), sampling.random_tangent(n, m_t, rng)
            h12 = metric(p, t1, t2, weight)
            assert abs(h12 - np.conj(metric(p, t2, t1, weight))) <= 1e-13 * max(1.0, abs(h12))
            htt = metric(p, t1, t1, weight)
            assert htt.real > 0 and abs(htt.imag) <= 1e-13 * abs(htt)


def _tr(x):
    return complex(np.trace(x))


def _half_space_expansion(p, t1, t2):
    """The paper's Heisenberg part on the Siegel-Jacobi space, four traces."""
    yi = np.linalg.inv(p.omega.imag)
    v = p.z.imag
    d_om, d_om_bar = t1.d_omega, np.conj(t2.d_omega)
    d_z, d_z_bar = t1.d_z, np.conj(t2.d_z)
    return (_tr(yi @ v.T @ v @ yi @ d_om @ yi @ d_om_bar) + _tr(yi @ d_z.T @ d_z_bar)
            - _tr(v @ yi @ d_om @ yi @ d_z_bar.T) - _tr(v @ yi @ d_om_bar @ yi @ d_z.T))


def _disk_expansion(p, t1, t2):
    """The paper's Heisenberg part on the Siegel-Jacobi disk, nine traces
    (without the factor 4)."""
    eye = np.eye(p.n)
    w, eta = p.w, p.eta
    wb, etab = np.conj(w), np.conj(eta)
    lw, rw = np.linalg.inv(eye - w @ wb), np.linalg.inv(eye - wb @ w)
    one_m_w, one_m_wb = eye - w, eye - wb
    inv_one_m_w = np.linalg.inv(one_m_w)
    inv_one_m_wb = np.conj(inv_one_m_w)
    dw, dwb = t1.d_omega, np.conj(t2.d_omega)
    de, deb = t1.d_z, np.conj(t2.d_z)
    return (_tr(lw @ de.T @ deb)
            + _tr((eta @ wb - etab) @ lw @ dw @ rw @ deb.T)
            + _tr((etab @ w - eta) @ rw @ dwb @ lw @ de.T)
            - _tr(lw @ eta.T @ eta @ rw @ wb @ dw @ rw @ dwb)
            - _tr(w @ rw @ etab.T @ etab @ lw @ dw @ rw @ dwb)
            + _tr(lw @ eta.T @ etab @ lw @ dw @ rw @ dwb)
            + _tr(inv_one_m_wb @ etab.T @ eta @ wb @ lw @ dw @ rw @ dwb)
            + _tr(inv_one_m_wb @ one_m_w @ rw @ etab.T @ eta @ rw
                  @ one_m_wb @ inv_one_m_w @ dw @ rw @ dwb)
            - _tr(lw @ one_m_w @ inv_one_m_wb @ etab.T @ eta @ inv_one_m_w @ dw @ rw @ dwb))


@pytest.mark.parametrize("n, m", [(n, m) for n in (1, 2, 3) for m in (1, 2, 3)])
def test_heisenberg_parts_match_the_paper_expansions(n, m):
    """Each Jacobi metric's B-part, isolated as the difference of the weights
    (A, 2) and (A, 1), is the paper's expanded traces: the square of K is the
    same form, written independently."""
    rng = np.random.default_rng(100 + 10 * n + m)
    for metric, kind, factor, ref in ((metrics.jacobi_metric, "jacobi", 1.0, _half_space_expansion),
                                      (metrics.jacobi_disk_metric, "jacobi_disk", 4.0,
                                       _disk_expansion)):
        for _ in range(20):
            p = sampling.random_point(kind, n, m, rng)
            t1, t2 = sampling.random_tangent(n, m, rng), sampling.random_tangent(n, m, rng)
            part = (metric(p, t1, t2, MetricParams(0.7, 2.0))
                    - metric(p, t1, t2, MetricParams(0.7, 1.0)))
            expected = factor * ref(p, t1, t2)
            assert abs(part - expected) <= 1e-13 * max(1.0, abs(expected))


@pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (2, 3), (3, 2)])
def test_horizontal_tangents_carry_only_the_base_metric(n, m):
    """Where K = 0 (dZ = V Y^{-1} dOmega on the half space, deta =
    -(eta conj(W) - conj(eta)) (I - W conj(W))^{-1} dW on the disk) each Jacobi
    metric is its base metric with weight A, whatever B is."""
    rng = np.random.default_rng(200 + 10 * n + m)
    params = MetricParams(0.7, 1.9)
    for _ in range(10):
        t1, t2 = sampling.random_tangent(n, 0, rng), sampling.random_tangent(n, 0, rng)
        p = sampling.random_jacobi_point(n, m, rng)
        shift = p.z.imag @ np.linalg.inv(p.omega.imag)
        h1, h2 = (TangentVector(t.d_omega, shift @ t.d_omega) for t in (t1, t2))
        base = metrics.siegel_metric(p.siegel_part(), t1, t2, params.A)
        assert abs(metrics.jacobi_metric(p, h1, h2, params) - base) <= 1e-14 * max(1.0, abs(base))
        pd = sampling.random_jacobi_disk_point(n, m, rng)
        wb = np.conj(pd.w)
        shift = -(pd.eta @ wb - np.conj(pd.eta)) @ np.linalg.inv(np.eye(n) - pd.w @ wb)
        h1, h2 = (TangentVector(t.d_omega, shift @ t.d_omega) for t in (t1, t2))
        base = metrics.disk_metric(spaces.DiskPoint(pd.w), t1, t2, params.A)
        value = metrics.jacobi_disk_metric(pd, h1, h2, params)
        assert abs(value - base) <= 1e-14 * max(1.0, abs(base))


def test_closed_form_degree_one():
    rng = np.random.default_rng(6)
    params = MetricParams(1.0, 1.0)
    basis = [_t([[1.0]], [[0.0]]), _t([[1.0j]], [[0.0]]),
             _t([[0.0]], [[1.0]]), _t([[0.0]], [[1.0j]])]
    for _ in range(10):
        p = sampling.random_jacobi_point(1, 1, rng)
        y = p.omega[0, 0].imag
        v = p.z[0, 0].imag
        gram = np.array([[metrics.jacobi_metric(p, a, b, params).real for b in basis]
                         for a in basis])
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[1, 1] = (y + v * v) / y**3
        expected[2, 2] = expected[3, 3] = 1.0 / y
        expected[0, 2] = expected[2, 0] = expected[1, 3] = expected[3, 1] = -v / y**2
        assert np.max(np.abs(gram - expected)) < 1e-12


def test_base_point_metric_is_euclidean():
    p = spaces.JacobiPoint.create(np.array([[1j]]), np.array([[0j]]))
    basis = [_t([[1.0]], [[0.0]]), _t([[1.0j]], [[0.0]]),
             _t([[0.0]], [[1.0]]), _t([[0.0]], [[1.0j]])]
    gram = np.array([[metrics.jacobi_metric(p, a, b).real for b in basis] for a in basis])
    assert np.allclose(gram, np.eye(4))


def test_invariance_exact_and_fd():
    rng = np.random.default_rng(12)
    params = MetricParams(1.0, 1.0)
    for _ in range(10):
        n, m = 2, 1
        p = sampling.random_jacobi_point(n, m, rng)
        t1 = sampling.random_tangent(n, m, rng)
        t2 = sampling.random_tangent(n, m, rng)
        g = groups.random_jacobi(n, m, rng, 3)
        base = metrics.jacobi_metric(p, t1, t2, params)
        moved = metrics.jacobi_metric(groups.act_jacobi(g, p),
                                      metrics.pushforward(g, p, t1),
                                      metrics.pushforward(g, p, t2), params)
        assert abs(base - moved) <= 1e-12 * max(1.0, abs(base))
        ps = p.siegel_part()
        mat = groups.random_symplectic(n, rng, 4)
        ts = TangentVector.omega_only(t1.d_omega)
        base_s = metrics.siegel_metric(ps, ts, ts, 1.0)
        moved_s = metrics.siegel_metric(groups.act_siegel(mat, ps),
                                        metrics.pushforward(mat, ps, ts),
                                        metrics.pushforward(mat, ps, ts), 1.0)
        assert abs(base_s - moved_s) <= 1e-12 * max(1.0, abs(base_s))


def test_pushforward_modes_agree_and_linear():
    rng = np.random.default_rng(7)
    p = sampling.random_siegel_point(2, rng)
    mat = groups.random_symplectic(2, rng, 4)
    t = TangentVector.omega_only(sampling.random_tangent(2, 0, rng).d_omega)
    exact = metrics.pushforward(mat, p, t)
    fd = metrics.map_differential(lambda q: groups.act_siegel(mat, q), p, t)
    assert np.max(np.abs(exact.d_omega - fd.d_omega)) < 1e-6
    doubled = metrics.pushforward(mat, p, t.scale(2.0))
    assert np.max(np.abs(doubled.d_omega - 2.0 * exact.d_omega)) < 1e-12
    ident = groups.SymplecticElement.identity(2)
    fixed = metrics.pushforward(ident, p, t)
    assert np.max(np.abs(fixed.d_omega - t.d_omega)) < 1e-14


def test_volume_density():
    p = spaces.SiegelPoint.create(np.array([[0.3 + 2.0j]]))
    assert np.isclose(metrics.volume_density(p), 2.0 ** (-2))
    q = spaces.SiegelPoint.create(1j * np.eye(2))
    assert np.isclose(metrics.volume_density(q), 1.0)
    rng = np.random.default_rng(4)
    for _ in range(6):
        n = int(rng.integers(1, 3))
        ps = sampling.random_siegel_point(n, rng)
        mat = groups.random_symplectic(n, rng, 4)
        jac = metrics.real_jacobian_det(mat, ps)
        lhs = metrics.volume_density(groups.act_siegel(mat, ps)) * abs(jac)
        assert abs(lhs - metrics.volume_density(ps)) <= 1e-12 * metrics.volume_density(ps)


def test_real_jacobian_det_closed_form():
    # Omega -> (A Omega + B)(C Omega + D)^{-1} has real Jacobian
    # determinant |det(C Omega + D)|^{-2(n+1)} in the (x_ij, y_ij) chart
    rng = np.random.default_rng(23)
    for n in (1, 2, 3):
        for _ in range(6):
            ps = sampling.random_siegel_point(n, rng)
            mat = groups.random_symplectic(n, rng, 4)
            _, _, c, d = mat.blocks()
            expected = abs(np.linalg.det(c @ ps.omega + d)) ** (-2 * (n + 1))
            jac = metrics.real_jacobian_det(mat, ps)
            assert jac == pytest.approx(expected, rel=1e-12)


def test_cayley_isometries():
    rng = np.random.default_rng(19)
    params = MetricParams(1.0, 1.0)
    for n, m in ((1, 1), (2, 2)):
        half = cayley.blocks(cayley.TO_HALF, n)
        for _ in range(6):
            pd = sampling.random_jacobi_disk_point(n, m, rng)
            t1 = sampling.random_tangent(n, m, rng)
            t2 = sampling.random_tangent(n, m, rng)
            lhs = metrics.jacobi_disk_metric(pd, t1, t2, params)
            up1, up2 = (TangentVector(*linalg.fractional_linear_differential(
                *half, pd.w, t.d_omega, 2j * pd.eta, 2j * t.d_z)) for t in (t1, t2))
            rhs = metrics.jacobi_metric(cayley.partial_cayley(pd), up1, up2, params)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
            d = spaces.DiskPoint(pd.w)
            td = TangentVector.omega_only(t1.d_omega)
            lhs_d = metrics.disk_metric(d, td, td, 1.0)
            ud = TangentVector.omega_only(
                linalg.fractional_linear_differential(*half, d.w, td.d_omega)[0])
            rhs_d = metrics.siegel_metric(cayley.cayley(d), ud, ud, 1.0)
            assert abs(lhs_d - rhs_d) <= 1e-12 * max(1.0, abs(rhs_d))


@pytest.mark.parametrize("seed", range(5))
def test_metrics_suite_passes(seed):
    rows = checks.run_suite("metrics", seed=seed)
    assert rows and all(r.passed for r in rows)


def test_metric_params_validation():
    with pytest.raises(DomainError):
        MetricParams(0.0, 1.0)
