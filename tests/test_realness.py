"""One realness rule for every reader of a real matrix: a non-numeric entry
and an entry with a nonzero imaginary part are refused by name, and a zero
imaginary part reads as the real input, bit for bit; one finiteness rule for
every reader of a parameter matrix; and one positivity rule for a point and
for a matrix, ``linalg.positive_each``."""
import dataclasses
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from siegeljacobi import fields, geodesics, groups, linalg, reduction, spaces, theta as th
from siegeljacobi import jacobiforms as jf
from siegeljacobi.errors import DimensionError, DomainError

from test_cli import run_cli
from test_groups import SAMPLERS


def _sym(a):
    return np.triu(a) + np.triu(a, 1).T


def _positive(a):
    return _sym(a @ a.T) + np.eye(len(a))


def _index(a):
    return np.diag(np.abs(np.round(np.diagonal(a))) + 1.0)


def _sl2(a):
    """N(b) K(phi) from two entries: determinant 1 within rounding."""
    c, s = np.cos(a[1, 0]), np.sin(a[1, 0])
    return np.array([[1.0, a[0, 1]], [0.0, 1.0]]) @ np.array([[c, -s], [s, c]])


def _unit_speed(a):
    if not np.any(a):
        return np.array([np.e, 1.0])
    a = a / np.max(np.abs(a))    # the norm of [0, 1e-295] underflows to 0
    return np.exp(a / np.linalg.norm(a))


LAM, MU, KAPPA = np.zeros((1, 2)), np.zeros((1, 2)), np.zeros((1, 1))
STAR = groups.StarGroupElement.identity(2, 1)
INDEX = jf.JacobiFormIndex(np.array([[1.0]]))
CTX = th.ThetaContext(np.array([[1.0]]), n=1, n_cut=2)
POLY = jf.Polynomial.variable(2, 1, 0, 0) * jf.Polynomial.variable(2, 1, 1, 0)

# (name in the refusal, shape of the real input, what makes it likely valid, reader)
READERS = [
    ("mat", (4, 4), None, groups.SymplecticElement),
    ("lam", (1, 2), None, lambda x: groups.HeisenbergElement(x, MU, KAPPA)),
    ("mu", (1, 2), None, lambda x: groups.HeisenbergElement(LAM, x, KAPPA)),
    ("kappa", (1, 1), None, lambda x: groups.HeisenbergElement(LAM, MU, x)),
    ("kappa", (1, 1), None, lambda x: groups.StarGroupElement(STAR.p, STAR.q, STAR.xi, x)),
    ("translation block", (2, 2), _sym, groups.translation),
    ("dilation block", (2, 2), lambda a: np.eye(2) + 0.25 * a, groups.dilation),
    ("index matrix", (2, 2), _index, jf.JacobiFormIndex),
    ("T", (1, 1), lambda a: np.abs(np.round(a)),
     lambda x: jf.FourierSeries.build(1, INDEX, [(x, np.zeros((1, 1)), 1.0)])),
    ("R", (1, 1), np.round, lambda x: jf.FourierSeries.build(1, INDEX, [(np.eye(1), x, 1.0)])),
    ("index matrix", (1, 1), _index, lambda x: th.ThetaContext(x, n=1, n_cut=2)),
    ("SL(2, R) matrix", (2, 2), _sl2, th.iwasawa),
    ("SL(2, R) matrix", (2, 2), None, lambda x: groups.embedded_sl2(x, 2, 1)),
    ("generator block", (1, 1), None, lambda x: th.symplectic_of_generator(("t", x), CTX)),
    ("x", (3, 1, 1), None, th.gaussian(CTX).eval),
    ("y", (2, 2), _positive, reduction.minkowski_reduce),
    ("y", (2, 2), _positive, reduction.minkowski_violations),
    ("quadratic form", (2, 2), _positive, lambda x: jf.pluriharmonic_defects(POLY, x)),
    ("z", (3,), lambda a: np.abs(a) + 0.1, lambda x: fields.bessel_k(0.5, x)),
    ("geodesic parameters", (2,), _unit_speed, lambda x: geodesics.special_geodesic(x, 0.5)),
]

entries = st.one_of(st.integers(-4, 4).map(lambda k: k / 2.0),
                    st.floats(-3.0, 3.0, allow_subnormal=False))
nonzero = st.floats(allow_subnormal=True).filter(lambda v: v != 0.0)


def _bits(obj):
    """Everything a result holds, down to the bits of each float."""
    if isinstance(obj, np.ndarray):
        return obj.dtype.str, obj.shape, obj.tobytes()
    if dataclasses.is_dataclass(obj):
        return type(obj).__name__, tuple(_bits(getattr(obj, f.name))
                                         for f in dataclasses.fields(obj))
    if isinstance(obj, dict):
        return tuple(sorted((repr(k), _bits(v)) for k, v in obj.items()))
    if isinstance(obj, (list, tuple)):
        return tuple(map(_bits, obj))
    if isinstance(obj, complex):
        return complex(obj).real.hex(), complex(obj).imag.hex()
    if isinstance(obj, float):
        return float(obj).hex()
    return obj


def _outcome(read, x):
    """The bits of read(x), or the type and message of what it raises."""
    try:
        with np.errstate(all="ignore"):
            return _bits(read(x))
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(READERS), st.data(), nonzero, st.booleans())
def test_every_reader_refuses_an_imaginary_entry_and_reads_zero_as_real(reader, data, v,
                                                                        negative):
    what, shape, prep, read = reader
    x = data.draw(hnp.arrays(float, shape, elements=entries))
    x = prep(x) if prep else x
    z = x.astype(complex)
    z.imag = -0.0 if negative else 0.0
    assert _outcome(read, z) == _outcome(read, x)
    k = data.draw(st.integers(0, x.size - 1))
    z.flat[k] += 1j * v
    with pytest.raises(DomainError, match=f"^{re.escape(what)} has nonzero imaginary entries$"):
        read(z)


# the rows of READERS that read a parameter matrix through linalg.real_matrix
# (or, for Minkowski's Y, the same rule by hand)
PARAMETER_READERS = [row for row in READERS if row[0] in {
    "translation block", "dilation block", "index matrix", "T", "R", "SL(2, R) matrix",
    "generator block", "y", "quadratic form"}]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(PARAMETER_READERS), st.data(),
       st.sampled_from([np.nan, np.inf, -np.inf, None, "x"]), st.booleans())
def test_every_parameter_reader_refuses_a_non_finite_entry(reader, data, bad, whole):
    """... and None or a string, as one entry or as the whole input, is
    refused as non-numeric (numpy alone would read None as nan)."""
    what, shape, prep, read = reader
    x = data.draw(hnp.arrays(float, shape, elements=entries))
    x = prep(x) if prep else x
    numeric = isinstance(bad, float)
    if numeric or not whole:
        x = x if numeric else x.astype(object)
        x.flat[data.draw(st.integers(0, x.size - 1))] = bad
    else:
        x = bad
    message = "has non-finite entries" if numeric else "has non-numeric entries"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"^{re.escape(what)} {message}$"):
            read(x)


def test_readers_read_one_matrix():
    assert linalg.real_matrix(2, "b").shape == (1, 1)
    assert linalg.real_matrix([[1, 2, 3]], "b").dtype == float
    for bad, shape in (([1.0, 2.0], r"shape \(2,\)"), (np.ones((2, 1, 1)), r"shape \(2, 1, 1\)"),
                       (np.ones((0, 0)), r"shape \(0, 0\)"),
                       ([[1.0, 2.0], [3.0]], "ragged rows")):
        with pytest.raises(DimensionError, match=f"^b must be one matrix, got {shape}$"):
            linalg.real_matrix(bad, "b")
    with pytest.raises(DimensionError, match=r"^b must be square, got shape \(1, 2\)$"):
        linalg.real_symmetric([[1.0, 2.0]], "b")
    # asymmetry within close_each is averaged away, beyond it refused
    s = linalg.real_symmetric([[1.0, 2.0], [2.0 + 1e-10, 1.0]], "b")
    assert s[0, 1] == s[1, 0] == 0.5 * (4.0 + 1e-10)
    assert linalg.real_symmetric(np.eye(2), "b").tolist() == np.eye(2).tolist()
    with warnings.catch_warnings():
        warnings.simplefilter("error")    # a difference past the float range is asymmetry
        for bad in ([[1.0, 2.0], [2.1, 1.0]], [[0.0, 1e308], [-1e308, 0.0]]):
            with pytest.raises(DomainError, match="^b must be symmetric$"):
                linalg.real_symmetric(bad, "b")
        # halves first: a symmetric block near the float range stays finite
        assert linalg.real_symmetric([[1e308, 1e308], [1e308, 1e308]], "b").max() == 1e308


# (element kind, path to a real part)
REAL_PARTS = [("symplectic", ["mat"]), ("heisenberg", ["lam"]), ("heisenberg", ["mu"]),
              ("heisenberg", ["kappa"]), ("star", ["kappa"]), ("jacobi", ["sp", "mat"]),
              ("jacobi", ["h", "lam"]), ("jacobi", ["h", "kappa"])]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(REAL_PARTS), st.integers(0, 2**31 - 1), st.integers(1, 2),
       st.data(), nonzero)
def test_element_json_refuses_every_imaginary_entry_of_a_real_part(where, seed, n, data, v):
    kind, path = where
    g = SAMPLERS[kind](n, 2, np.random.default_rng(seed))
    obj = g.to_json()
    assert groups.element_from_json(obj).to_json() == obj    # zero imaginary parts
    part = obj
    for key in path:
        part = part[key]
    part["data"][data.draw(st.integers(0, len(part["data"]) - 1))][1] = v
    with pytest.raises(DomainError, match=f"^{path[-1]} has nonzero imaginary entries$"):
        groups.element_from_json(obj)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([("M", "index matrix"), ("T", "T"), ("R", "R")]), nonzero)
def test_series_json_refuses_an_imaginary_entry(where, v):
    key, what = where
    series = jf.FourierSeries.build(1, jf.JacobiFormIndex(np.array([[2.0]]), weight=1), [
        (np.array([[1.0]]), np.array([[1.0]]), 1.0 - 0.5j),
        (np.array([[2.0]]), np.array([[-2.0]]), 0.25)])
    obj = json.loads(json.dumps(series.to_json()))
    back = jf.FourierSeries.from_json(obj)
    assert _bits(back) == _bits(series)
    target = obj if key == "M" else obj["terms"][-1]
    target[key]["data"][0][1] = v
    with pytest.raises(DomainError, match=f"^{what} has nonzero imaginary entries$"):
        jf.FourierSeries.from_json(obj)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), nonzero)
def test_cli_theta_refuses_a_complex_index(m, v):
    base = ["--tau", "0.1,1.2", "--phi", "0.4", "--n-cut", "4"]
    real = run_cli(["theta", "--M", str(m), *base])
    assert real[0] == 0
    for text in (f"{m},0", json.dumps({"rows": 1, "cols": 1, "data": [[m, 0.0]]})):
        assert run_cli(["theta", "--M", text, *base]) == real
    text = json.dumps({"rows": 1, "cols": 1, "data": [[m, v]]})
    assert run_cli(["theta", "--M", text, *base]) == (
        2, "", "input error: index matrix has nonzero imaginary entries\n")


wide = st.one_of(st.floats(-1e300, 1e300), st.floats(-1e-150, 1e-150),
                 st.integers(-3, 3).map(float))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: hnp.arrays(float, (n, n), elements=wide)))
def test_positivity_is_the_rule_of_a_siegel_point(a):
    s = _sym(a)
    try:
        spaces.SiegelPoint.create(1j * s)
        accepted = True
    except DomainError:
        accepted = False
    assert bool(linalg.positive_each(s)) == accepted
