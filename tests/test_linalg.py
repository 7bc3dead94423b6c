import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegeljacobi import linalg
from siegeljacobi.errors import DimensionError, DomainError, NumericError


def test_tolerance_defaults():
    assert linalg.ABS_TOL == 1e-10 and linalg.REL_TOL == 1e-10
    # |a - b| <= 1e-10 + 1e-10 max(|a|, |b|)
    assert linalg.is_symmetric(np.array([[1.0, 1.0], [1.0 + 5e-11, 1.0]]))
    assert not linalg.is_symmetric(np.array([[1.0, 1.0], [1.0 + 5e-9, 1.0]]))
    # positive definite means smallest eigenvalue above ABS_TOL
    assert linalg.is_positive_definite(np.diag([1.0, 2e-10]))
    assert not linalg.is_positive_definite(np.diag([1.0, 5e-11]))


def test_is_symmetric_examples():
    assert linalg.is_symmetric(np.eye(2))
    assert not linalg.is_symmetric(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    with pytest.raises(DimensionError):
        linalg.is_symmetric(np.ones((2, 3)))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**31 - 1))
def test_symmetrized_matrices_pass(n, seed):
    rng = np.random.default_rng(seed)
    s = rng.uniform(-5.0, 5.0, (n, n)) + 1j * rng.uniform(-5.0, 5.0, (n, n))
    assert linalg.is_symmetric(s + s.T)


def test_positive_definite_examples():
    assert linalg.is_positive_definite(np.eye(2))
    assert not linalg.is_positive_definite(np.diag([1.0, -1.0]))
    assert not linalg.is_positive_definite(np.diag([1.0, 1e-14]))
    with pytest.raises(DomainError):
        linalg.is_positive_definite(np.array([[0.0, 1.0], [-1.0, 0.0]]))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**31 - 1))
def test_cholesky_reconstruction(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    s = a @ a.T + n * np.eye(n)
    assert linalg.is_positive_definite(s)
    factor = linalg.cholesky(s)
    resid = np.max(np.abs(factor @ factor.conj().T - s))
    assert resid <= 1e-12 * np.max(np.abs(s))


def test_safe_inv_condition_guard():
    with pytest.raises(NumericError):
        linalg.safe_inv(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]]))


def test_conditioning_guard_on_stacks():
    good = np.stack([np.eye(2), np.diag([1.0, 1e-6])])
    linalg.require_conditioned(good)
    for bad in (np.diag([1.0, 1e-13]), np.zeros((2, 2))):
        with pytest.raises(NumericError, match="exceeds 1.0e\\+12"):
            linalg.require_conditioned(np.stack([np.eye(2), bad, np.eye(2)]))


def test_matrix_json_round_trip():
    a = np.array([[1.0 + 2.0j, -0.5], [0.25j, 3.0]])
    obj = linalg.matrix_to_json(a)
    assert obj["rows"] == 2 and obj["cols"] == 2
    back = linalg.matrix_from_json(obj)
    assert np.array_equal(back, a)
    with pytest.raises(DimensionError):
        linalg.matrix_from_json({"rows": 2, "cols": 2, "data": [[1, 0]]})


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(3)
    for n in (1, 2, 4):
        u = linalg.random_unitary(n, rng)
        assert np.max(np.abs(u.conj().T @ u - np.eye(n))) < 1e-12
