import numpy as np
import pytest

from siegeljacobi import groups, jacobiforms as jf, sampling, spaces
from siegeljacobi.errors import DomainError
from siegeljacobi.spaces import JacobiPoint


@pytest.fixture
def index_one():
    return jf.JacobiFormIndex(np.array([[1.0]]), weight=2)


def test_index_validation():
    jf.JacobiFormIndex(np.array([[1.0, 0.5], [0.5, 1.0]]), weight=0)
    with pytest.raises(DomainError):
        jf.JacobiFormIndex(np.array([[0.25]]))
    with pytest.raises(DomainError):
        jf.JacobiFormIndex(np.array([[-1.0]]))


def test_automorphic_factor_identity_and_translation(index_one):
    p = spaces.JacobiPoint.create(np.array([[1j]]), np.array([[0j]]))
    e = groups.JacobiGroupElement.identity(1, 1)
    assert np.isclose(jf.automorphic_factor(index_one, e, p), 1.0)
    g = groups.JacobiGroupElement.from_heisenberg(
        groups.HeisenbergElement(np.array([[1.0]]), np.array([[0.0]]), np.array([[0.0]])))
    assert np.isclose(jf.automorphic_factor(index_one, g, p), np.exp(2 * np.pi))


def test_cocycle_identity(index_one):
    rng = np.random.default_rng(3)
    for _ in range(30):
        n, m = 2, 1
        idx = jf.JacobiFormIndex(np.eye(m), weight=int(rng.integers(-3, 4)))
        g1 = groups.random_jacobi(n, m, rng, 3)
        g2 = groups.random_jacobi(n, m, rng, 3)
        p = sampling.random_jacobi_point(n, m, rng)
        lhs = jf.automorphic_factor(idx, g1.multiply(g2), p)
        rhs = (jf.automorphic_factor(idx, g1, groups.act_jacobi(g2, p))
               * jf.automorphic_factor(idx, g2, p))
        assert abs(lhs - rhs) <= 1e-9 * max(1e-12, abs(rhs))


def test_slash_identity_and_composition(index_one):
    rng = np.random.default_rng(5)
    f = sampling.random_polynomial_field("jacobi", rng)
    p = sampling.random_jacobi_point(1, 1, rng)
    e = groups.JacobiGroupElement.identity(1, 1)
    assert np.isclose(jf.slash(f, index_one, e)(p), f(p))
    for _ in range(10):
        g1 = groups.random_jacobi(1, 1, rng, 2)
        g2 = groups.random_jacobi(1, 1, rng, 2)
        lhs = jf.slash(jf.slash(f, index_one, g1), index_one, g2)(p)
        rhs = jf.slash(f, index_one, g1.multiply(g2))(p)
        assert abs(lhs - rhs) <= 1e-8 * max(1e-12, abs(rhs))


def _theta_like_series(m_val: float, cut: int = 8):
    """Lattice series sum_l e(tr(M l Omega l) + 2 tr(M l Z)); closed under the
    integral Heisenberg translations up to a tiny truncation tail."""
    idx = jf.JacobiFormIndex(np.array([[m_val]]), weight=0)
    terms = [(np.array([[m_val * l * l]]), np.array([[2.0 * m_val * l]]), 1.0)
             for l in range(-cut, cut + 1)]
    return jf.FourierSeries.build(1, idx, terms)


def test_slash_periodicity_of_theta_series():
    rng = np.random.default_rng(7)
    series = _theta_like_series(1.0)
    idx = series.index
    f = lambda q: jf.fourier_eval(series, q)
    for _ in range(8):
        p = spaces.JacobiPoint.create(
            np.array([[rng.uniform(-0.4, 0.4) + 1j * rng.uniform(0.9, 1.6)]]),
            np.array([[rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.5, 0.5)]]))
        lam0, mu0, kap0 = (float(x) for x in rng.integers(-1, 2, 3))
        g = groups.JacobiGroupElement.from_heisenberg(groups.HeisenbergElement(
            np.array([[lam0]]), np.array([[mu0]]), np.array([[kap0]])))
        lhs = jf.slash(f, idx, g)(p)
        rhs = f(p)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


def test_fourier_eval_examples(index_one):
    empty = jf.FourierSeries(1, index_one, 1, {})
    p = spaces.JacobiPoint.create(np.array([[1j]]), np.array([[0j]]))
    assert jf.fourier_eval(empty, p) == 0.0
    lam_gamma = 2
    single = jf.FourierSeries.build(1, index_one, [(np.array([[1.0]]),
                                                    np.array([[0.0]]), 0.7 + 0.1j)],
                                    lambda_gamma=lam_gamma)
    val = jf.fourier_eval(single, p)
    assert np.isclose(val, (0.7 + 0.1j) * np.exp(-2 * np.pi * 1.0 / lam_gamma))


def test_fourier_eval_against_high_precision_sum(index_one):
    import mpmath
    mpmath.mp.dps = 40
    terms = [(np.array([[float(t)]]), np.array([[float(r)]]), complex(c))
             for t, r, c in ((1, 0, 0.5), (2, 2, -0.25j), (3, -2, 1.0),
                             (1, 2, 0.125), (4, 0, 2.0))]
    series = jf.FourierSeries.build(1, index_one, terms)
    omega = 0.3 + 0.8j
    z = 0.1 - 0.2j
    p = spaces.JacobiPoint.create(np.array([[omega]]), np.array([[z]]))
    expected = mpmath.mpc(0)
    for t, r, c in terms:
        expected += (mpmath.mpc(c) * mpmath.e ** (2j * mpmath.pi * (t[0, 0] * omega))
                     * mpmath.e ** (2j * mpmath.pi * (r[0, 0] * z)))
    got = jf.fourier_eval(series, p)
    assert abs(got - complex(expected)) < 1e-13


def test_series_gate_and_validation(index_one):
    with pytest.raises(DomainError):
        jf.FourierSeries.build(1, index_one, [(np.array([[0.3]]), np.array([[0.0]]), 1.0)])
    with pytest.raises(DomainError):
        jf.FourierSeries.build(1, index_one, [(np.array([[1.0]]), np.array([[3.0]]), 1.0)])
    with pytest.raises(DomainError):
        jf.FourierSeries.build(1, index_one, [(np.array([[-1.0]]), np.array([[0.0]]), 1.0)])


def test_is_singular_examples(index_one):
    sing = jf.FourierSeries.build(1, index_one, [(np.array([[1.0]]), np.array([[2.0]]), 1.0)])
    assert jf.is_singular(sing)
    nonsing = jf.FourierSeries.build(1, index_one, [(np.array([[1.0]]), np.array([[0.0]]), 1.0)])
    assert not jf.is_singular(nonsing)
    mixed = jf.FourierSeries.build(1, index_one, [
        (np.array([[1.0]]), np.array([[2.0]]), 1.0),
        (np.array([[1.0]]), np.array([[0.0]]), 1.0)])
    assert not jf.is_singular(mixed)


def test_is_singular_reads_t_over_lambda(index_one):
    # at lambda = 2 the operator multiplies a term by det(T/2 - R M^{-1} t(R)/4)
    p = sampling.random_jacobi_point(1, 1, np.random.default_rng(24))
    sing = jf.FourierSeries.build(1, index_one, [(np.array([[2.0]]), np.array([[2.0]]), 1.0)],
                                  lambda_gamma=2)
    assert jf.is_singular(sing)
    assert jf.apply_m_operator(sing, p) == 0.0 and jf.fourier_eval(sing, p) != 0.0
    plain = jf.FourierSeries.build(1, index_one, [(np.array([[2.0]]), np.array([[0.0]]), 1.0)],
                                   lambda_gamma=2)
    assert not jf.is_singular(plain)
    assert jf.apply_m_operator(plain, p) != 0.0


def test_m_operator_examples(index_one):
    rng = np.random.default_rng(11)
    p = sampling.random_jacobi_point(1, 1, rng)
    sing = jf.FourierSeries.build(1, index_one, [(np.array([[1.0]]), np.array([[2.0]]), 1.0)])
    assert abs(jf.apply_m_operator(sing, p)) < 1e-12
    single = jf.FourierSeries.build(1, index_one, [(np.array([[1.0]]), np.array([[0.0]]), 1.0)])
    val = jf.apply_m_operator(single, p)
    y = p.omega[0, 0].imag
    term = np.exp(2j * np.pi * p.omega[0, 0])
    assert abs(val - y * (-2 * np.pi) * term) < 1e-12
    empty = jf.FourierSeries(1, index_one, 1, {})
    assert jf.apply_m_operator(empty, p) == 0.0


def test_m_operator_matches_fd_oracle(index_one):
    from siegeljacobi.checks import _fd_m_operator_degree_one
    rng = np.random.default_rng(13)
    series = jf.FourierSeries.build(1, index_one, [
        (np.array([[1.0]]), np.array([[0.0]]), 1.3 + 0.2j),
        (np.array([[2.0]]), np.array([[2.0]]), -0.7),
        (np.array([[1.0]]), np.array([[2.0]]), 0.5j)])
    for _ in range(5):
        p = sampling.random_jacobi_point(1, 1, rng)
        closed = jf.apply_m_operator(series, p)
        fd = _fd_m_operator_degree_one(series, p)
        assert abs(closed - fd) <= 1e-4 * max(1.0, abs(fd))


def test_m_operator_fd_oracle_degree_two(index_one):
    """Nested-FD application of the operator determinant at degree two."""
    idx = jf.JacobiFormIndex(np.array([[1.0]]), weight=0)
    terms = [(np.diag([1.0, 1.0]), np.array([[0.0], [0.0]]), 1.0),
             (np.array([[1.0, 0.5], [0.5, 1.0]]), np.array([[1.0], [1.0]]), 0.5)]
    series = jf.FourierSeries.build(2, idx, terms)
    rng = np.random.default_rng(17)
    p = sampling.random_jacobi_point(2, 1, rng)
    closed = jf.apply_m_operator(series, p)
    h = 1e-3

    def entry_field(base, a, b):
        weight = 1.0 if a == b else 0.5

        def op(q):
            def shift_y(qq, delta):
                dm = np.zeros((2, 2))
                dm[a, b] = dm[b, a] = delta
                return JacobiPoint(qq.omega + 1j * dm, qq.z)

            def shift_v(qq, p_idx, delta):
                dz = np.zeros((1, 2))
                dz[0, p_idx] = delta
                return JacobiPoint(qq.omega, qq.z + 1j * dz)

            d_y = (base(shift_y(q, h)) - base(shift_y(q, -h))) / (2 * h)
            acc = weight * d_y
            minv = 1.0
            # t(dV) M^{-1} dV entry (a, b) with m = 1: d^2/dv_a dv_b
            if a == b:
                dd = (base(shift_v(q, a, h)) - 2 * base(q) + base(shift_v(q, a, -h))) / h**2
            else:
                dd = (base(shift_v2(q, a, b, h, h)) - base(shift_v2(q, a, b, h, -h))
                      - base(shift_v2(q, a, b, -h, h)) + base(shift_v2(q, a, b, -h, -h))) \
                    / (4 * h * h)
            return acc + minv / (8 * np.pi) * dd

        def shift_v2(qq, i1, i2, d1, d2):
            dz = np.zeros((1, 2))
            dz[0, i1] += d1
            dz[0, i2] += d2
            return JacobiPoint(qq.omega, qq.z + 1j * dz)

        return op

    f0 = lambda q: jf.fourier_eval(series, q)
    det_val = (entry_field(entry_field(f0, 1, 1), 0, 0)(p)
               - entry_field(entry_field(f0, 1, 0), 0, 1)(p))
    fd = np.linalg.det(p.omega.imag) * det_val
    assert abs(closed - fd) <= 1e-3 * max(1.0, abs(closed))


def test_singular_gate_equals_operator_annihilation(index_one):
    from siegeljacobi.checks import _synthetic_series
    rng = np.random.default_rng(19)
    sing = _synthetic_series(True, rng)
    mixed = _synthetic_series(False, rng)
    assert jf.is_singular(sing) and not jf.is_singular(mixed)
    for _ in range(10):
        p = sampling.random_jacobi_point(1, 1, rng)
        scale = max(1.0, abs(jf.fourier_eval(sing, p)))
        assert abs(jf.apply_m_operator(sing, p)) <= 1e-8 * scale
        assert abs(jf.apply_m_operator(mixed, p)) > 1e-6


def test_siegel_jacobi_operator():
    idx = jf.JacobiFormIndex(np.array([[1.0]]), weight=0)
    terms = [(np.diag([1.0, 0.0]), np.array([[2.0], [0.0]]), 1.0),
             (np.diag([2.0, 0.0]), np.array([[1.0], [0.0]]), 0.5 - 0.1j),
             (np.array([[1.0, 0.5], [0.5, 1.0]]), np.array([[1.0], [1.0]]), 2.0)]
    s2 = jf.FourierSeries.build(2, idx, terms)
    proj = jf.siegel_jacobi_operator(s2, 1)
    assert len(list(proj.items())) == 2
    rng = np.random.default_rng(23)
    for _ in range(6):
        p1 = sampling.random_jacobi_point(1, 1, rng)
        big = JacobiPoint(np.array([[p1.omega[0, 0], 0.0], [0.0, 50.0j]]),
                          np.array([[p1.z[0, 0], 0.0]]))
        lhs = jf.fourier_eval(proj, p1)
        rhs = jf.fourier_eval(s2, big)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))
    empty = jf.FourierSeries(2, idx, 1, {})
    assert not jf.siegel_jacobi_operator(empty, 1).terms


def test_series_json_round_trip(index_one):
    series = jf.FourierSeries.build(1, index_one, [
        (np.array([[1.0]]), np.array([[2.0]]), 1.0 + 0.5j),
        (np.array([[2.0]]), np.array([[0.0]]), -0.25)])
    back = jf.FourierSeries.from_json(series.to_json())
    p = spaces.JacobiPoint.create(np.array([[0.2 + 0.9j]]), np.array([[0.1j]]))
    assert np.isclose(jf.fourier_eval(back, p), jf.fourier_eval(series, p))


def test_pluriharmonic_examples():
    P = jf.Polynomial
    z1 = P.variable(2, 1, 0, 0)
    z2 = P.variable(2, 1, 1, 0)
    assert jf.is_pluriharmonic(z1 + z2.scale(3.0), np.eye(2))
    assert jf.is_pluriharmonic(z1 * z1 - z2 * z2, np.eye(2))
    assert not jf.is_pluriharmonic(P.variable(1, 1, 0, 0) * P.variable(1, 1, 0, 0),
                                   np.eye(1))
    # the quadratic form follows the linalg symmetry rule
    with pytest.raises(DomainError, match="^quadratic form must be symmetric$"):
        jf.pluriharmonic_defects(z1 * z2, np.array([[1.0, 0.0], [1.0, 1.0]]))


def test_index_and_exponents_follow_the_linalg_rules(index_one):
    # symmetry by close_each: asymmetry within it is averaged, beyond it refused
    idx = jf.JacobiFormIndex(np.array([[1.0, 0.5], [0.5 + 1e-11, 1.0]]))
    assert idx.m_mat[0, 1] == idx.m_mat[1, 0]
    for bad in (np.array([[1.0, 0.5], [0.5 + 1e-6, 1.0]]), np.array([[1.0, 0.5], [0.0, 1.0]])):
        with pytest.raises(DomainError, match="^index matrix must be symmetric$"):
            jf.JacobiFormIndex(bad)
    with pytest.raises(DomainError, match="^T must be symmetric$"):
        jf.FourierSeries.build(2, index_one, [(np.array([[1.0, 0.5], [0.0, 1.0]]),
                                               np.zeros((2, 1)), 1.0)])
    with pytest.raises(DomainError, match=r"^T must be half-integral \(integral diagonal"):
        jf.FourierSeries.build(1, index_one, [(np.array([[0.3]]), np.array([[0.0]]), 1.0)])
    # the operator's positivity is linalg.positive_each: smallest eigenvalue above 1e-10
    p = sampling.random_jacobi_point(1, 2, np.random.default_rng(3))
    flat = jf.FourierSeries(1, jf.JacobiFormIndex(np.array([[1.0, 1.0], [1.0, 1.0]])), 1, {})
    with pytest.raises(DomainError, match="^the operator needs a positive definite index"):
        jf.apply_m_operator(flat, p)


def test_pluriharmonic_transform_invariance():
    rng = np.random.default_rng(29)
    s_mat = np.array([[2.0, 0.5], [0.5, 1.0]])
    t_mat = np.linalg.inv(s_mat)
    P = jf.Polynomial
    poly = (P.variable(2, 1, 0, 0) * P.variable(2, 1, 0, 0)).scale(t_mat[1, 1]) \
        - (P.variable(2, 1, 1, 0) * P.variable(2, 1, 1, 0)).scale(t_mat[0, 0])
    assert jf.is_pluriharmonic(poly, s_mat)
    w, q = np.linalg.eigh(s_mat)
    s_half = (q * np.sqrt(w)) @ q.T
    s_mhalf = np.linalg.inv(s_half)
    for _ in range(6):
        a = rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1))
        orth, r = np.linalg.qr(rng.standard_normal((2, 2)))
        orth = orth * np.sign(np.diagonal(r))
        b = s_half @ orth @ s_mhalf
        assert np.max(np.abs(b @ s_mat @ b.T - s_mat)) < 1e-10
        assert jf.is_pluriharmonic(poly.transform(a, b), s_mat)
    # the determinant polynomial is pluriharmonic for any quadratic form
    det_poly = (P.variable(2, 2, 0, 0) * P.variable(2, 2, 1, 1)
                - P.variable(2, 2, 0, 1) * P.variable(2, 2, 1, 0))
    assert jf.is_pluriharmonic(det_poly, s_mat)


def test_polynomial_eval_and_diff():
    P = jf.Polynomial
    poly = P.variable(1, 2, 0, 0) * P.variable(1, 2, 0, 1)
    z = np.array([[2.0, 3.0]])
    assert np.isclose(poly.eval(z), 6.0)
    assert np.isclose(poly.diff(0, 0).eval(z), 3.0)
    assert np.isclose(poly.diff(0, 0).diff(0, 1).eval(z), 1.0)


def test_lambda_and_weight_are_not_truncated(index_one):
    term = [(np.array([[1.0]]), np.array([[1.0]]), 1.0)]
    for lam, message in ((1.5, "must be integral"), (0, "must be a nonzero integer"),
                         (float("nan"), "has non-finite entries"),
                         (float("inf"), "has non-finite entries")):
        with pytest.raises(DomainError, match=f"^lambda {message}$"):
            jf.FourierSeries.build(1, index_one, term, lambda_gamma=lam)
        with pytest.raises(DomainError, match=f"^lambda {message}$"):
            jf.FourierSeries(1, index_one, lam)
    series = jf.FourierSeries.build(1, index_one, term, lambda_gamma=2.0)
    assert series.lambda_gamma == 2 and type(series.lambda_gamma) is int
    obj = series.to_json()
    for key, value, message in (("lambda", 2.7, "^lambda must be integral$"),
                                ("k", 1.5, "^weight must be integral$")):
        with pytest.raises(DomainError, match=message):
            jf.FourierSeries.from_json({**obj, key: value})
    back = jf.FourierSeries.from_json({**obj, "k": 3.0})
    assert back.index.weight == 3 and back.lambda_gamma == 2


def test_series_term_is_the_evaluated_term(index_one):
    series = jf.FourierSeries.build(1, index_one, [
        (np.array([[1.0]]), np.array([[1.0]]), 1.0 + 0.5j),
        (np.array([[2.0]]), np.array([[0.0]]), -0.25)], lambda_gamma=2)
    p = spaces.JacobiPoint.create(np.array([[0.2 + 0.9j]]), np.array([[0.3 + 0.1j]]))
    terms = [series.term(t, r, c, p) for t, r, c in series.items()]
    # e(tr(T Omega) / lambda) e(tr(R Z)): the 1/lambda is in the term
    t, r, c = next(series.items())
    assert np.isclose(terms[0], c * np.exp(2j * np.pi * (t[0, 0] * p.omega[0, 0] / 2
                                                          + r[0, 0] * p.z[0, 0])))
    assert jf.fourier_eval(series, p) == complex(sum(terms, 0.0 + 0.0j))
