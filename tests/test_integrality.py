"""One integrality rule for every integer parameter: ``linalg.integer_matrix``
reads an entry within INT_TOL of an integer (of Z/2 off the diagonal, for a
half-integral matrix) as that exact integer, and refuses by name an entry
beyond INT_TOL, past 2^53 or non-finite, with no warning escaping; and one
semidefiniteness rule, ``linalg.semidefinite_each``, for the index matrix,
each T and each term's gate."""
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from siegeljacobi import linalg, theta as th
from siegeljacobi import jacobiforms as jf
from siegeljacobi.errors import DomainError
from siegeljacobi.linalg import INT_TOL

INDEX = jf.JacobiFormIndex(np.array([[1.0]]))


def _dominant(k, diagonal_step=1):
    """A symmetric integer matrix from k with a dominant positive diagonal,
    each diagonal entry a multiple of diagonal_step."""
    s = np.triu(k, 1) + np.triu(k, 1).T
    extra = np.sum(np.abs(s), axis=1) + 1
    return s + np.diag(diagonal_step * np.ceil(extra / diagonal_step))


def _key(series, part):
    return np.array(next(iter(series.terms))[part])


# (name in the refusal, shape, half-integral, valid integers from drawn ones,
#  reader of the value given as it is passed (the integers over 2 when half),
#  returning the integers it keeps (2a when half))
READERS = [
    ("index matrix", (2, 2), False, _dominant,
     lambda x: th.ThetaContext(x, n=1, n_cut=2).m_mat),
    ("degree n", (1, 1), False, lambda k: np.abs(k) + 1,
     lambda x: th.ThetaContext(np.eye(1), n=x[0, 0], n_cut=2).n),
    ("n_cut", (1, 1), False, lambda k: np.abs(k) + 1,
     lambda x: th.ThetaContext(np.eye(1), n_cut=x[0, 0]).n_cut),
    ("extent / step", (1, 1), False, lambda k: np.abs(k) + 1,
     lambda x: (lambda c: c.extent / c.step)(
         th.ThetaContext(np.eye(1), n_cut=2, extent=0.25 * x[0, 0], step=0.25))),
    ("index matrix", (2, 2), True, lambda k: _dominant(k, 2),
     lambda x: 2 * jf.JacobiFormIndex(x).m_mat),
    ("weight", (1, 1), False, lambda k: k,
     lambda x: jf.JacobiFormIndex(np.eye(1), weight=x[0, 0]).weight),
    ("T", (2, 2), True, lambda k: _dominant(k, 2),
     lambda x: _key(jf.FourierSeries.build(2, INDEX, [(x, np.zeros((2, 1)), 1.0)]), 0)),
    ("R", (2, 1), False, lambda k: k,
     lambda x: _key(jf.FourierSeries.build(2, INDEX, [(10 * np.eye(2), x, 1.0)]), 1)),
    ("lambda", (1, 1), False, lambda k: np.abs(k) + 1,
     lambda x: jf.FourierSeries(1, INDEX, x[0, 0]).lambda_gamma),
]

integers = st.integers(-4, 4)


def _draw(data, reader):
    """The valid integers k of a reader and their value as passed (k / 2 when half)."""
    what, shape, half, prep, read = reader
    k = prep(data.draw(hnp.arrays(np.int64, shape, elements=integers))).astype(float)
    return k, k / 2.0 if half else k


def _at(data, x, change):
    """x with one drawn entry a replaced by change(a), and its mirror too when
    x is square (every square reader here is symmetric)."""
    x = x.copy()
    i, j = (data.draw(st.integers(0, n - 1)) for n in x.shape)
    x[i, j] = change(x[i, j])
    if x.shape[0] == x.shape[1]:
        x[j, i] = x[i, j]
    return x


def _sym(d, shape):
    return np.triu(d) + np.triu(d, 1).T if shape[0] == shape[1] else d


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(READERS), st.data())
def test_an_entry_within_int_tol_is_kept_as_its_exact_integer(reader, data):
    what, shape, half, prep, read = reader
    k, x = _draw(data, reader)
    d = data.draw(hnp.arrays(float, shape, elements=st.floats(-0.9 * INT_TOL, 0.9 * INT_TOL)))
    kept = read(x + _sym(d, shape))
    assert np.array_equal(np.reshape(kept, shape), k), (what, kept, k)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(READERS), st.data(), st.floats(1.1 * INT_TOL, 0.2), st.booleans())
def test_an_entry_beyond_int_tol_is_refused_by_name(reader, data, off, negative):
    what, shape, half, prep, read = reader
    k, x = _draw(data, reader)
    bad = _at(data, x, lambda a: a - off if negative else a + off)
    kind = "half-integral" if half else "integral"
    with pytest.raises(DomainError, match=f"^{re.escape(what)} must be {kind}"):
        read(bad)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(READERS), st.data(),
       st.sampled_from([1e20, -1e20, 1e308, np.nan, np.inf, -np.inf]))
def test_a_huge_or_non_finite_entry_is_refused_by_name_without_a_warning(reader, data, v):
    what, shape, half, prep, read = reader
    k, x = _draw(data, reader)
    message = "has non-finite entries" if not np.isfinite(v) else \
        "has entries too large to be exact integers"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"^{re.escape(what)} {message}$"):
            read(_at(data, x, lambda a: v))


def test_the_defects_of_the_parent_readers():
    # one index, one object: within INT_TOL it is the integer, in both readers
    assert th.ThetaContext(np.array([[1 + 1e-11]])).m_mat.tolist() == [[1.0]]
    assert jf.JacobiFormIndex(np.array([[1 + 4e-10]])).m_mat.tolist() == [[1.0]]
    assert jf.JacobiFormIndex(np.array([[1 + 9e-10]])).m_mat.tolist() == [[1.0]]
    series = jf.FourierSeries.build(1, INDEX, [(np.array([[1 + 4e-10]]),
                                                np.array([[1 + 9e-10]]), 1.0)])
    assert [(t.tolist(), r.tolist()) for t, r, _ in series.items()] == [([[1.0]], [[1.0]])]
    assert jf.FourierSeries(1, INDEX, 2 + 1e-10).lambda_gamma == 2
    ctx = th.ThetaContext(np.eye(1), n_cut=2)
    x = np.array([[0.7]])
    assert th.gaussian_poly(ctx, [[2 + 1e-10]]).eval(x) == th.gaussian_poly(ctx, [[2]]).eval(x)
    refusals = [
        (lambda: jf.FourierSeries.build(1, INDEX, [([[1e20]], [[0]], 1)]),
         "T has entries too large to be exact integers"),
        (lambda: jf.JacobiFormIndex([[1e308]]),
         "index matrix has entries too large to be exact integers"),
        (lambda: jf.JacobiFormIndex([[1]], weight=np.inf), "weight has non-finite entries"),
        (lambda: jf.JacobiFormIndex([[1]], weight=np.nan), "weight has non-finite entries"),
        (lambda: th.ThetaContext(np.eye(1), n_cut=np.nan), "n_cut has non-finite entries"),
        (lambda: th.ThetaContext(np.eye(1), n_cut=2.5), "n_cut must be integral"),
        (lambda: th.ThetaContext(np.eye(1), extent=np.nan), "extent / step has non-finite entries"),
        (lambda: th.ThetaContext(np.eye(1), step=0), "extent / step has non-finite entries"),
        (lambda: th.ThetaContext(np.eye(1), extent=3.0, step=0.4),
         "extent / step must be integral"),
        (lambda: th.gaussian_poly(th.ThetaContext(np.eye(1)), [[1.5]]),
         "exponents must be integral"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for make, message in refusals:
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                make()


def test_a_context_grid_has_the_integer_number_of_steps():
    # extent / step within INT_TOL of 12 gives 2 * 12 + 1 nodes per axis
    ctx = th.ThetaContext(np.eye(1), extent=3.0 + 1e-10, step=0.25)
    assert ctx.extent == 3.0 and len(th.grid_points(ctx)) == 25


def test_semidefinite_is_one_rule_at_minus_abs_tol():
    low = linalg.ABS_TOL
    assert linalg.semidefinite_each(np.diag([1.0, -0.5 * low]))
    assert not linalg.semidefinite_each(np.diag([1.0, -2.0 * low]))
    assert not linalg.semidefinite_each(np.array([[np.nan]]))
    assert linalg.semidefinite_each(np.stack([np.eye(2), -np.eye(2)])).tolist() == [True, False]


def _accepted(make):
    try:
        make()
    except DomainError as exc:
        assert "semidefinite" in str(exc)
        return False
    return True


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.int64, (2, 2), elements=st.integers(-3, 3)), st.integers(0, 4),
       st.integers(-4, 4), st.integers(1, 3))
def test_index_t_and_gate_decide_semidefiniteness_by_the_rule(k, t, r, lam):
    m2 = np.triu(k) + np.triu(k, 1).T
    m2[np.diag_indices(2)] *= 2
    m = m2 / 2.0
    expected = bool(linalg.semidefinite_each(m))
    assert _accepted(lambda: jf.JacobiFormIndex(m)) == expected
    assert _accepted(lambda: jf.FourierSeries.build(
        2, INDEX, [(m, np.zeros((2, 1)), 1.0)])) == expected
    # the gate [[T / lambda, R / 2], [t(R) / 2, M]] at M = 1
    gate = np.array([[t / lam, r / 2.0], [r / 2.0, 1.0]])
    assert _accepted(lambda: jf.FourierSeries.build(
        1, INDEX, [([[t]], [[r]], 1.0)], lam)) == bool(linalg.semidefinite_each(gate))
