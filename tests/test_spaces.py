import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegeljacobi import cayley, groups, sampling, spaces
from siegeljacobi.errors import DimensionError, DomainError


def test_validate_trivial_cases():
    assert spaces.SiegelPoint.create(1j * np.eye(3)).is_valid()
    assert spaces.DiskPoint.create(np.zeros((2, 2))).is_valid()
    with pytest.raises(DomainError):
        spaces.SiegelPoint.create(np.diag([1j, -1j]))


def test_constructors_symmetrize_small_asymmetry():
    omega = np.array([[1j, 0.5 + 1e-13], [0.5, 1j]])
    p = spaces.SiegelPoint.create(omega)
    assert np.array_equal(p.omega, p.omega.T)
    with pytest.raises(DomainError):
        spaces.SiegelPoint.create(np.array([[1j, 0.5], [0.1, 1j]]))


def test_boundary_points_rejected():
    with pytest.raises(DomainError):
        spaces.SiegelPoint.create(np.array([[0j]]))
    with pytest.raises(DomainError):
        spaces.DiskPoint.create(np.array([[1.0 + 0j]]))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([spaces.SiegelPoint, spaces.JacobiPoint, spaces.DiskPoint,
                        spaces.JacobiDiskPoint]), st.integers(1, 3),
       st.integers(0, 2**32 - 1), st.floats(-2.0, 8.0), st.floats(-14.0, -6.0),
       st.sampled_from([None, np.nan, np.inf, complex(0.0, -np.inf)]))
def test_is_valid_answers_as_create_decides(cls, n, seed, log_scale, log_asym, bad):
    # a symmetric part of size up to 1e8 whose positive part is O(1), made
    # asymmetric by up to 1e-6 of its size, then on the Jacobi spaces a
    # 1 x n part, and when drawn a non-finite entry in one of the parts:
    # is_valid answers (never raises) and agrees with create, which
    # symmetrizes what it accepts
    rng = np.random.default_rng(seed)
    sym = rng.uniform(-1.0, 1.0, (n, n))
    y = rng.uniform(-1.0, 1.0, (n, n)) + rng.uniform(-0.5, 2.0) * np.eye(n)
    if cls is spaces.SiegelPoint:
        a = 10.0 ** log_scale * (sym + sym.T) + 1j * (y + y.T)
    else:
        a = (sym + sym.T + 1j * (y + y.T)) / (2.0 * n)
    noise = rng.uniform(-1.0, 1.0, (n, n)) + 1j * rng.uniform(-1.0, 1.0, (n, n))
    a = a + 10.0 ** log_asym * np.max(np.abs(a)) * noise
    parts = [a, rng.uniform(-1.0, 1.0, (1, n)) + 1j * rng.uniform(-1.0, 1.0, (1, n))]
    parts = parts[:len(cls.__dataclass_fields__)]
    if bad is not None:
        part = parts[rng.integers(len(parts))]
        part[tuple(rng.integers(0, k) for k in part.shape)] = bad
    valid = cls(*parts).is_valid()
    assert isinstance(valid, bool)
    try:
        cls.create(*parts)
    except DomainError:
        assert not valid
    else:
        assert valid


def test_shape_mismatch_rejected():
    with pytest.raises(DimensionError):
        spaces.JacobiPoint.create(1j * np.eye(2), np.zeros((1, 3)))


def test_partial_cayley_lands_in_the_half_space():
    rng = np.random.default_rng(0)
    for _ in range(25):
        p = sampling.random_jacobi_disk_point(2, 2, rng)
        assert cayley.partial_cayley(p).is_valid()


def test_actions_preserve_validity():
    rng = np.random.default_rng(1)
    for _ in range(25):
        p = sampling.random_jacobi_point(2, 1, rng)
        g = groups.random_jacobi(2, 1, rng)
        assert groups.act_jacobi(g, p).is_valid()


def test_tangent_vector_symmetrizes():
    t = spaces.TangentVector(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
                             np.zeros((1, 2), dtype=complex))
    assert np.allclose(t.d_omega, np.array([[0.0, 0.5], [0.5, 0.0]]))


def test_point_json_round_trip():
    rng = np.random.default_rng(5)
    for kind in ("siegel", "jacobi", "disk", "jacobi_disk"):
        p = sampling.random_point(kind, 2, 1, rng)
        for q in (spaces.point_from_json(p.to_json()), type(p)(*p.parts()),
                  *spaces._Chart(p).shifted(np.zeros((1, spaces._Chart(p).dim))).unstack()):
            assert type(q) is type(p)
            assert all(np.array_equal(a, b) for a, b in zip(q.parts(), p.parts()))
        assert (p.n, p.m) == (2, len(p.parts()) - 1)
    with pytest.raises(DomainError):
        spaces.point_from_json({"nonsense": 1})
    for obj in (5, [1, 2], "omega"):
        with pytest.raises(DomainError, match="^point JSON must be an object, got "):
            spaces.point_from_json(obj)


def test_wirtinger_basis_is_shared_per_degree_and_read_only():
    rng = np.random.default_rng(3)
    w = spaces._Chart(sampling.random_jacobi_point(2, 1, rng)).wirtinger_basis()
    for p in (sampling.random_jacobi_point(2, 1, rng), sampling.random_jacobi_disk_point(2, 1, rng)):
        assert spaces._Chart(p).wirtinger_basis() is w
    assert not w.flags.writeable and w.shape == (10, 6)
    assert spaces._Chart(sampling.random_siegel_point(2, rng)).wirtinger_basis().shape == (6, 4)
