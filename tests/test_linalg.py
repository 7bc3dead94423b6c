import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegeljacobi import linalg, reduction, sampling
from siegeljacobi.errors import DimensionError, DomainError, NumericError


def _symmetric(a):
    """The one symmetry rule: ``close_each`` of A and tA, for every matrix."""
    return bool(linalg.close_each(a, a.mT).all())


def test_tolerance_defaults():
    assert linalg.ABS_TOL == 1e-10 and linalg.REL_TOL == 1e-10
    # |a - b| <= 1e-10 + 1e-10 max(|a|, |b|)
    assert _symmetric(np.array([[1.0, 1.0], [1.0 + 5e-11, 1.0]]))
    assert not _symmetric(np.array([[1.0, 1.0], [1.0 + 5e-9, 1.0]]))
    # positive definite means smallest eigenvalue above ABS_TOL
    assert linalg.positive_each(np.diag([1.0, 2e-10]))
    assert not linalg.positive_each(np.diag([1.0, 5e-11]))


def test_is_symmetric_examples():
    assert _symmetric(np.eye(2))
    assert not _symmetric(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    with pytest.raises(DimensionError):
        linalg.square_stack(np.ones((2, 3)))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**31 - 1))
def test_symmetrized_matrices_pass(n, seed):
    rng = np.random.default_rng(seed)
    s = rng.uniform(-5.0, 5.0, (n, n)) + 1j * rng.uniform(-5.0, 5.0, (n, n))
    assert _symmetric(s + s.T)


def test_positive_definite_examples():
    assert linalg.positive_each(np.eye(2))
    assert not linalg.positive_each(np.diag([1.0, -1.0]))
    assert not linalg.positive_each(np.diag([1.0, 1e-14]))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**31 - 1))
def test_cholesky_reconstruction(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    s = a @ a.T + n * np.eye(n)
    assert linalg.positive_each(s)
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


def test_conditioning_guard_refuses_nan_entries():
    # np.linalg.cond raises LinAlgError on these; the guard names them nan
    nan = np.full((2, 2), np.nan)
    message = "^matrix condition estimate nan exceeds 1.0e\\+12$"
    with pytest.raises(NumericError, match=message):
        linalg.safe_inv(nan)
    with pytest.raises(NumericError, match=message):
        linalg.safe_solve(nan, np.ones(2))
    one_nan = np.stack([np.eye(2), np.eye(2), np.diag([1.0, 1e-13])])
    one_nan[1, 1, 0] = np.nan
    with pytest.raises(NumericError, match=message):
        linalg.safe_solve(one_nan, np.ones((3, 2, 1)))
    # the first offending matrix in stack order is named
    with pytest.raises(NumericError, match="estimate 1.000e\\+13 exceeds"):
        linalg.safe_solve(one_nan[::-1], np.ones((3, 2, 1)))


def _svd_stack(n, count, seed, lo, kinds):
    """count matrices scale U diag(sigma) V with sigma log-uniform in
    [10^lo, 1], lo >= -16, and the overall scale in [1e-150, 1e150]; a slot
    whose kind is zero, inf or singular is replaced by such a matrix."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-150.0, 150.0)
    a = np.empty((count, n, n), dtype=complex)
    for k, kind in enumerate(kinds[:count]):
        sigma = 10.0 ** rng.uniform(lo, 0.0, n)
        u, v = linalg.random_unitary(n, rng), linalg.random_unitary(n, rng)
        a[k] = scale * (u * sigma) @ v
        if kind == "zero" or (kind == "singular" and n == 1):
            a[k] = 0.0
        elif kind == "inf":
            a[k, rng.integers(n), rng.integers(n)] = np.inf
        elif kind == "singular":
            a[k, -1] = a[k, 0]          # a repeated row: the LU pivot is exactly 0
    return a


def _guard_det(stack, n):
    """The determinant the guard returns: the cofactor rule at n <= 3, in
    Python floats on a single matrix that the Python check clears and
    elementwise over the stack otherwise, and ``np.linalg.det`` above."""
    if n > 3:
        return np.linalg.det(stack)
    if stack.ndim == 2 and (det := linalg._cleared_det(stack.tolist(), n)) is not None:
        return det
    return linalg._cofactor_det(np.moveaxis(stack, (-2, -1), (0, 1)), n)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=8),
       st.integers(min_value=0, max_value=2**32 - 1), st.floats(min_value=-16.0, max_value=0.0),
       st.lists(st.sampled_from(["svd", "svd", "svd", "zero", "inf", "singular"]),
                min_size=8, max_size=8))
def test_conditioning_guard_matches_svd(n, count, seed, lo, kinds):
    a = _svd_stack(n, count, seed, lo, kinds)
    for stack in (a, a[0]):
        cond = np.atleast_1d(np.linalg.cond(stack))
        bad = ~(cond <= linalg.COND_LIMIT)
        if bad.any():
            with pytest.raises(NumericError) as info:
                linalg.require_conditioned(stack)
            assert str(info.value) == (f"matrix condition estimate {cond[np.argmax(bad)]:.3e}"
                                       " exceeds 1.0e+12")
        else:
            with np.errstate(all="ignore"):    # a det past 1e308 is inf on both sides
                det = np.asarray(_guard_det(stack, n))
            got = np.asarray(linalg.require_conditioned(stack))
            assert got.dtype == det.dtype and got.tobytes() == det.tobytes()
    # the determinant bound holds wherever the computed numbers can show it:
    # at n = 2 it is cond + 1/cond, so beyond cond ~ 1e8 rounding hides the gap
    keep = np.isfinite(a).all(axis=(1, 2))
    keep[keep] = np.linalg.slogdet(a[keep])[0] != 0
    a = a[keep]
    cond = np.linalg.cond(a)
    top = np.abs(a).max(axis=(1, 2))
    unit_norm = np.linalg.norm(a / top[:, None, None], axis=(1, 2))
    log_bound = (np.log(2.0) + n * (np.log(top) + np.log(unit_norm / np.sqrt(n)))
                 - np.linalg.slogdet(a)[1])
    shown = cond <= 1e8
    assert np.all(log_bound[shown] > np.log(cond[shown]) - 1e-6)
    # the cofactor determinant agrees with the LU one within the error model
    # of linalg._DET_MARGIN: n^{n/2} gamma bound / 2 with gamma = 8 eps, plus
    # the LU's own 4 n^2 eps cond; both sides are rescaled by a power of two,
    # which is exact, so that neither overflows
    if n <= 3 and shown.any():
        a, cond, log_bound = a[shown], cond[shown], log_bound[shown]
        a = a * 2.0 ** -np.frexp(top[shown])[1][:, None, None]
        lu = np.linalg.det(a)
        cofactor = linalg._cofactor_det(np.moveaxis(a, (-2, -1), (0, 1)), n)
        eps = np.finfo(float).eps
        model = n ** (n / 2) * 8 * eps * np.exp(log_bound) / 2 + 4 * n * n * eps * cond
        assert np.all(np.abs(cofactor - lu) <= model * np.abs(lu))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=2**32 - 1),
       st.floats(min_value=-16.0, max_value=0.0),
       st.sampled_from(["svd", "svd", "svd", "zero", "inf", "nan", "singular"]))
def test_scalar_check_clears_only_conditioned_matrices(n, seed, lo, kind):
    # the Python-float bound that require_conditioned tries first on one
    # small matrix: it never raises, and it clears no matrix whose condition
    # number is past the bound's own limit of 1e8, so none past COND_LIMIT
    a = _svd_stack(n, 1, seed, lo, ["svd" if kind == "nan" else kind])[0]
    if kind == "nan":
        a[seed % n, seed // n % n] = np.nan
    for m in (a, a.real):
        if linalg._cleared_det(m.tolist(), n) is not None:
            cond = np.linalg.cond(m)
            assert cond <= linalg._DET_MARGIN * linalg.COND_LIMIT * (1 + 1e-6)


def test_conditioning_guard_runs_svd_only_past_the_bound(monkeypatch):
    calls = []
    cond = np.linalg.cond

    def counted(a):
        calls.append(a.shape)
        return cond(a)

    monkeypatch.setattr(np.linalg, "cond", counted)
    rng = np.random.default_rng(11)
    for n in (2, 3):
        reduction.siegel_reduce(sampling.random_siegel_point(n, rng))
    assert calls == []
    with pytest.raises(NumericError):
        linalg.require_conditioned(np.stack([np.eye(2), np.diag([1.0, 1e-13]), np.eye(2)]))
    assert len(calls) == 1


def test_matrix_json_round_trip():
    a = np.array([[1.0 + 2.0j, -0.5], [0.25j, 3.0]])
    obj = linalg.matrix_to_json(a)
    assert obj["rows"] == 2 and obj["cols"] == 2
    back = linalg.matrix_from_json(obj)
    assert np.array_equal(back, a)
    with pytest.raises(DimensionError):
        linalg.matrix_from_json({"rows": 2, "cols": 2, "data": [[1, 0]]})
    for bad, message in (({"rows": None, "cols": 1, "data": [[1, 0]]}, "rows and cols must be"),
                         ({"rows": "x", "cols": 1, "data": [[1, 0]]}, "rows and cols must be"),
                         ({"rows": 1, "cols": 1, "data": None}, "data must be a list"),
                         ({"rows": 1, "cols": 1, "data": {"a": [1, 0]}}, "data must be a list")):
        with pytest.raises(DimensionError, match=f"^{message}"):
            linalg.matrix_from_json(bad)
    # an entry that is not an [re, im] pair of numbers is named
    for entry in ([1.0], [1.0, 2.0, 3.0], 5, None, ["a", 0.0], [None, 0.0]):
        with pytest.raises(DimensionError, match=r"^data entry 1 is not an \[re, im\] pair"):
            linalg.matrix_from_json({"rows": 1, "cols": 2, "data": [[1.0, 0.0], entry]})


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(3)
    for n in (1, 2, 4):
        u = linalg.random_unitary(n, rng)
        assert np.max(np.abs(u.conj().T @ u - np.eye(n))) < 1e-12


def test_shape_helpers_read_a_scalar_and_refuse_a_vector():
    assert linalg.as_complex_stack(2.0).shape == (1, 1)
    assert linalg.square_stack(np.zeros((3, 2, 2))).dtype == complex
    with pytest.raises(DimensionError, match="^expected a matrix, got ndim=1$"):
        linalg.as_complex_stack(np.zeros(2))
    with pytest.raises(DimensionError, match=r"^p must be square, got shape \(3, 2, 1\)$"):
        linalg.square_stack(np.zeros((3, 2, 1)), "p")
    with pytest.raises(DimensionError, match="^expected a matrix, got ndim=3$"):
        linalg.matrix_to_json(np.zeros((2, 1, 1)))


def test_real_array_refuses_imaginary_entries_by_name():
    x = np.eye(2)
    assert linalg.real_array(x, "x") is x    # real input: no copy
    z = linalg.real_array(x + 0j, "x")
    assert z.dtype == float and z.flags.c_contiguous and np.array_equal(z, x)
    assert linalg.real_array(1 + 0j, "z").shape == ()
    for bad in (1j, [[1.0, 2j]], np.array([np.nan * 1j])):
        with pytest.raises(DomainError, match="^z has nonzero imaginary entries$"):
            linalg.real_array(bad, "z")


def test_symmetry_and_positivity_answer_for_a_stack():
    good = np.stack([np.eye(2), np.diag([1.0, 2.0])])
    bad = np.stack([np.eye(2), np.diag([1.0, -1.0])])
    assert _symmetric(good) and linalg.positive_each(good).all()
    assert _symmetric(bad) and not linalg.positive_each(bad).all()
    assert list(linalg.positive_each(bad)) == [True, False]
    assert not _symmetric(np.stack([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]]))
    # a non-finite matrix is not positive definite, and gets no eigenvalue solve
    assert list(linalg.positive_each(np.stack([np.eye(2), np.full((2, 2), np.inf)]))) \
        == [True, False]
