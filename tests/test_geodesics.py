import mpmath
import numpy as np
import pytest

from siegeljacobi import checks, geodesics, groups, sampling, spaces
from siegeljacobi.errors import ConvergenceError, DimensionError, NumericError, ParameterError


def test_cross_ratio_same_point_is_zero():
    p = spaces.SiegelPoint.create(np.array([[0.3 + 1.5j, 0.1], [0.1, 2j]]))
    assert np.max(np.abs(geodesics.cross_ratio(p, p))) < 1e-14
    assert geodesics.siegel_distance(p, p) == 0.0


@pytest.mark.parametrize("a", [2.0, 5.0, 10.0, 0.25])
def test_scalar_cross_ratio_formula(a):
    p0 = spaces.SiegelPoint.create(np.array([[1j]]))
    p1 = spaces.SiegelPoint.create(np.array([[a * 1j]]))
    r = geodesics.cross_ratio(p0, p1)[0, 0]
    assert np.isclose(r, ((1 - a) / (1 + a)) ** 2)
    assert np.isclose(geodesics.siegel_distance(p0, p1), abs(np.log(a)), atol=1e-10)


def test_degree_one_hyperbolic_oracle():
    rng = np.random.default_rng(3)
    for _ in range(30):
        p0 = sampling.random_siegel_point(1, rng)
        p1 = sampling.random_siegel_point(1, rng)
        z0 = p0.omega[0, 0]
        z1 = p1.omega[0, 0]
        oracle = 2.0 * np.arctanh(abs((z0 - z1) / (z0 - np.conj(z1))))
        assert abs(geodesics.siegel_distance(p0, p1) - oracle) < 1e-12


def test_spectrum_invariance_and_symmetry():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        p0 = sampling.random_siegel_point(n, rng)
        p1 = sampling.random_siegel_point(n, rng)
        mat = groups.random_symplectic(n, rng, 4)
        e0 = geodesics.cross_ratio_eigenvalues(p0, p1)
        e1 = geodesics.cross_ratio_eigenvalues(groups.act_siegel(mat, p0),
                                               groups.act_siegel(mat, p1))
        assert np.max(np.abs(e0 - e1)) < 1e-9
        d = geodesics.siegel_distance(p0, p1)
        assert abs(d - geodesics.siegel_distance(p1, p0)) < 1e-10
        assert abs(d - geodesics.siegel_distance(groups.act_siegel(mat, p0),
                                                 groups.act_siegel(mat, p1))) < 1e-8


def test_series_form_matches_log_form():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        p0 = sampling.random_siegel_point(n, rng)
        p1 = sampling.random_siegel_point(n, rng)
        d_log = geodesics.siegel_distance(p0, p1)
        d_series = geodesics.siegel_distance_series(p0, p1)
        assert abs(d_log - d_series) < 1e-12


def test_series_form_refuses_eigenvalues_near_one():
    p0 = spaces.SiegelPoint(np.array([[1j]]))
    # r = 0.9999996 needs more terms than the cap; at 1e16 i r rounds to 1.0
    for y, r in ((1e7, "0\\.9999996"), (1e16, "1$")):
        with pytest.raises(ConvergenceError, match=f"eigenvalue {r}"):
            geodesics.siegel_distance_series(p0, spaces.SiegelPoint(np.array([[y * 1j]])))


def test_a_disk_image_past_the_boundary_is_refused():
    # iI against i R diag(e^25, e^-25) t(R): the computed disk image has a
    # singular value above 1, where 1 - r would be negative and its log NaN
    c, s = np.cos(0.3), np.sin(0.3)
    rot = np.array([[c, -s], [s, c]])
    p0 = spaces.SiegelPoint(1j * np.eye(2))
    p1 = spaces.SiegelPoint(1j * rot @ np.diag([np.exp(25.0), np.exp(-25.0)]) @ rot.T)
    for fn in (geodesics.siegel_distance, geodesics.cross_ratio_eigenvalues):
        with pytest.raises(NumericError, match=r"^disk-image singular value 1\.0000\d+ exceeds 1$"):
            fn(p0, p1)
    # a singular value that rounds to 1 is kept, and the distance stays finite
    far = spaces.SiegelPoint(np.array([[1e16j]]))
    assert geodesics.cross_ratio_eigenvalues(spaces.SiegelPoint(np.array([[1j]])), far)[0] == 1.0
    assert np.isclose(geodesics.siegel_distance(spaces.SiegelPoint(np.array([[1j]])), far),
                      np.log(1e16), rtol=1e-13)


def test_points_of_different_degrees_are_refused():
    p1 = spaces.SiegelPoint.create(np.array([[1j]]))
    p2 = spaces.SiegelPoint.create(1j * np.eye(2))
    for fn in (geodesics.siegel_distance, geodesics.cross_ratio_eigenvalues):
        with pytest.raises(DimensionError, match="degrees 1 and 2"):
            fn(p1, p2)
        with pytest.raises(DimensionError, match="degrees 2 and 1"):
            fn(p2, p1)


def test_triangle_inequality_sampled():
    rng = np.random.default_rng(9)
    for _ in range(100):
        n = int(rng.integers(1, 3))
        p0, p1, p2 = (sampling.random_siegel_point(n, rng) for _ in range(3))
        slack = (geodesics.siegel_distance(p0, p2) + geodesics.siegel_distance(p2, p1)
                 - geodesics.siegel_distance(p0, p1))
        assert slack >= -1e-10


def test_special_geodesic():
    assert np.allclose(geodesics.special_geodesic([np.e], 0.0).omega, np.array([[1j]]))
    p = geodesics.special_geodesic([np.e], 1.3)
    assert np.isclose(p.omega[0, 0], 1j * np.exp(1.3))
    with pytest.raises(ParameterError):
        geodesics.special_geodesic([2.0, 3.0], 0.0)
    with pytest.raises(ParameterError):
        geodesics.special_geodesic([-1.0], 0.0)
    for bad in ([np.nan], [np.e, np.nan]):
        with pytest.raises(ParameterError, match="^geodesic parameters must be positive$"):
            geodesics.special_geodesic(bad, 0.5)


def test_unit_speed_property():
    rng = np.random.default_rng(11)
    logs = np.log([2.0, 0.4, 3.0])
    for n in (1, 2, 3):
        a = np.exp(logs[:n] / np.linalg.norm(logs[:n]))
        for _ in range(8):
            s, t = rng.uniform(-2, 2, 2)
            d = geodesics.siegel_distance(geodesics.special_geodesic(a, s),
                                          geodesics.special_geodesic(a, t))
            assert abs(d - abs(s - t)) < 1e-8


def test_cross_ratio_eigenvalues_stay_in_unit_interval():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        p0 = sampling.random_siegel_point(n, rng)
        p1 = sampling.random_siegel_point(n, rng)
        vals = geodesics.cross_ratio_eigenvalues(p0, p1)
        assert np.all(vals >= 0.0) and np.all(vals < 1.0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_eigenvalues_are_the_cross_ratio_spectrum(n):
    """The squared disk-image singular values are the eigenvalues of the
    cross-ratio matrix."""
    rng = np.random.default_rng(29 + n)
    for _ in range(10):
        p0 = sampling.random_siegel_point(n, rng)
        p1 = sampling.random_siegel_point(n, rng)
        oracle = np.sort(np.linalg.eigvals(geodesics.cross_ratio(p0, p1)).real)
        got = geodesics.cross_ratio_eigenvalues(p0, p1)
        assert np.max(np.abs(got - oracle)) <= 1e-12


def _mp_distance(o0, o1):
    """The cross-ratio distance of two floating-point points, at 60 digits."""
    with mpmath.workdps(60):
        a, b = mpmath.matrix(o0.tolist()), mpmath.matrix(o1.tolist())
        abar, bbar = a.apply(mpmath.conj), b.apply(mpmath.conj)
        r = (a - b) * (a - bbar) ** -1 * (abar - bbar) * (abar - b) ** -1
        roots = [mpmath.sqrt(abs(mpmath.re(e))) for e in mpmath.eig(r)[0]]
        return float(mpmath.sqrt(sum(mpmath.log((1 + s) / (1 - s)) ** 2 for s in roots)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_distance_against_mpmath_at_every_separation(n):
    rng = np.random.default_rng(61 + n)
    for sep in 10.0 ** np.arange(-12, 16, 3):
        for _ in range(2):
            p0 = sampling.random_siegel_point(n, rng)
            if sep < 1.0:
                e = rng.uniform(-1.0, 1.0, (n, n)) + 1j * rng.uniform(-1.0, 1.0, (n, n))
                p1 = spaces.SiegelPoint.create(p0.omega + 0.5 * sep * (e + e.T))
            else:
                q = sampling.random_siegel_point(n, rng).omega
                p1 = spaces.SiegelPoint.create(q.real + 1j * sep * q.imag)
            expected = _mp_distance(p0.omega, p1.omega)
            assert abs(geodesics.siegel_distance(p0, p1) - expected) <= 1e-13 * expected


def test_axis_exact_rows_against_mpmath():
    """The distance and the closed form of the axis_exact rows, i diag(a)
    against i diag(r a), both within 1e-15 relative of the 60-digit
    |log b - log a| of the rounded entries."""
    for n in (1, 2, 3):
        a = np.array(checks._AXIS_DIAG[:n])
        for r in checks._AXIS_RATIOS:
            b = r * a
            with mpmath.workdps(60):
                expected = float(mpmath.sqrt(sum(mpmath.log(mpmath.mpf(y) / mpmath.mpf(x)) ** 2
                                                 for x, y in zip(a, b))))
            d = geodesics.siegel_distance(spaces.SiegelPoint(1j * np.diag(a)),
                                          spaces.SiegelPoint(1j * np.diag(b)))
            for got in (d, checks._axis_distance(a, b)):
                assert abs(got - expected) <= 1e-15 * expected, (n, r, got, expected)
