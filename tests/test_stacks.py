"""Stacks of points, tangents and group elements give, entry by entry, the
bits of the single calls, and a stack of points is validated in one pass
that raises the error of its first invalid point."""
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegeljacobi import cayley, diffops, fields, geodesics, groups, metrics, sampling, spaces
from siegeljacobi.diffops import DerivativeTable
from siegeljacobi.errors import DimensionError, DomainError, ParameterError
from siegeljacobi.metrics import MetricParams
from siegeljacobi.spaces import TangentVector, stack

K = 20
M = 2
PARAMS = MetricParams(1.5, 0.7)


def _star(n, m, rng):
    return groups.embed_star(groups.random_jacobi(n, m, rng))


# kind -> (action, element sampler, metric, Cayley map to the other model)
KINDS = {
    "siegel": (groups.act_siegel, lambda n, m, rng: groups.random_symplectic(n, rng),
               lambda p, t1, t2: metrics.siegel_metric(p, t1, t2, 1.5), cayley.to_disk),
    "jacobi": (groups.act_jacobi, groups.random_jacobi,
               lambda p, t1, t2: metrics.jacobi_metric(p, t1, t2, PARAMS), cayley.to_disk),
    "disk": (groups.act_disk, _star,
             lambda p, t1, t2: metrics.disk_metric(p, t1, t2, 1.5), cayley.to_half_space),
    "jacobi_disk": (groups.act_jacobi_disk, _star,
                    lambda p, t1, t2: metrics.jacobi_disk_metric(p, t1, t2, PARAMS),
                    cayley.to_half_space),
}


def _arrays(x) -> list:
    """The arrays of a point, a tangent vector or a value."""
    if isinstance(x, spaces._Point):
        return x.parts()
    if isinstance(x, TangentVector):
        return [x.d_omega, x.d_z]
    return [np.asarray(x)]


def _same_bits(stacked, singles) -> None:
    for got, want in zip(_arrays(stacked), zip(*map(_arrays, singles)), strict=True):
        assert np.array_equal(got, np.stack(want)), (got, want)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", KINDS)
def test_a_stack_gives_the_bits_of_the_single_calls(kind, n):
    act, element, metric, to_other = KINDS[kind]
    rng = np.random.default_rng(300 + n)
    m = M if "jacobi" in kind else 0
    gs = [element(n, M, rng) for _ in range(K)]
    ps = [sampling.random_point(kind, n, M, rng) for _ in range(K)]
    t1s, t2s = ([sampling.random_tangent(n, m, rng) for _ in range(K)] for _ in range(2))
    g, p, t1, t2 = map(stack, (gs, ps, t1s, t2s))
    _same_bits(act(g, p), [act(*a) for a in zip(gs, ps)])
    _same_bits(metrics.pushforward(g, p, t1),
               [metrics.pushforward(*a) for a in zip(gs, ps, t1s)])
    _same_bits(metric(p, t1, t2), [metric(*a) for a in zip(ps, t1s, t2s)])
    _same_bits(to_other(p), [to_other(q) for q in ps])
    # create symmetrizes: entries asymmetric below tolerance are averaged alike
    nudged = [[a + 1e-13 * rng.standard_normal(a.shape) for a in q.parts()] for q in ps]
    _same_bits(type(p).create(*map(np.stack, zip(*nudged))),
               [type(p).create(*parts) for parts in nudged])


@pytest.mark.parametrize("n, far", [(1, 2000), (2, 200), (3, 200)])
def test_siegel_distance_of_stacks_gives_the_bits_of_the_single_calls(n, far):
    # near pairs, and far pairs where the distance reads log(1 - r): numpy's
    # vector log rounds differently from libm's on about 0.3% of inputs, so
    # 2,000 degree-1 pairs (whose stack numpy would hand to it) find a change
    rng = np.random.default_rng(310 + n)
    p0s, p1s = ([sampling.random_siegel_point(n, rng) for _ in range(K + far)] for _ in range(2))
    p1s[K:] = [spaces.SiegelPoint(q.omega * 10.0 ** rng.uniform(0.5, 6.0)) for q in p1s[K:]]
    p0, p1 = stack(p0s), stack(p1s)
    for fn in (geodesics.siegel_distance, geodesics.cross_ratio_eigenvalues):
        _same_bits(fn(p0, p1), [fn(*pair) for pair in zip(p0s, p1s)])


def _bad_omegas():
    """(name, omega) pairs that SiegelPoint.create refuses at n = 2."""
    return [("asymmetric", np.array([[1j, 0.5], [0.1, 1j]])),
            ("indefinite", np.diag([1j, -1j])),
            ("non-finite", np.array([[np.nan, 0.0], [0.0, 1j]])),
            ("overflowing", np.array([[1j, 1e308], [1e308, 1j]]))]


def test_create_on_a_stack_raises_its_first_invalid_points_own_error():
    rng = np.random.default_rng(320)
    good = [sampling.random_siegel_point(2, rng).omega for _ in range(6)]
    bad = _bad_omegas()
    for (_, first), (_, second) in zip(bad, bad[1:] + bad[:1]):
        omegas = list(good)
        omegas[2], omegas[4] = first, second
        # symmetrizing the overflowing point warns, as on a single point
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DomainError) as single:
                spaces.SiegelPoint.create(first)
            with pytest.raises(DomainError) as stacked:
                spaces.SiegelPoint.create(np.stack(omegas))
        assert str(stacked.value) == str(single.value)
    # on the Jacobi spaces the rectangular part is checked point by point too
    pj = [sampling.random_jacobi_point(2, 1, rng) for _ in range(4)]
    zs = [q.z for q in pj]
    zs[1] = np.array([[np.inf, 0.0]])
    with pytest.raises(DomainError, match="^z has non-finite entries$"):
        spaces.JacobiPoint.create(np.stack([q.omega for q in pj]), np.stack(zs))
    pd = [sampling.random_disk_point(2, rng) for _ in range(4)]
    ws = [q.w for q in pd]
    ws[3] = 1.5 * np.eye(2)
    with pytest.raises(DomainError, match=r"^I - conj\(W\) W is not positive definite$"):
        spaces.DiskPoint.create(np.stack(ws))


def _spoiled(kind, parts, fault):
    """The parts of a point with ``fault`` put in; "none" leaves them valid."""
    sym, *rest = (a.copy() for a in parts)
    disk = kind in ("disk", "jacobi_disk")
    if fault == "non-finite":
        sym[-1, 0] = np.nan
    elif fault == "non-finite rectangular" and rest:
        rest[0][0, -1] = np.inf
    elif fault == "asymmetric" and len(sym) > 1:
        sym[0, 1] += 1e-3
    elif fault == "non-positive":
        sym = 1.5 * np.eye(len(sym)) if disk else sym.real - 0.5j * np.eye(len(sym))
    elif fault == "overflowing":
        # a finite W whose I - conj(W) W overflows; an Omega whose symmetrization does
        sym[0, 0] = 1e200 if disk else 1.5e308 + 1j
    return [sym, *rest]


_CLASSES = {"siegel": spaces.SiegelPoint, "jacobi": spaces.JacobiPoint,
            "disk": spaces.DiskPoint, "jacobi_disk": spaces.JacobiDiskPoint}
_FAULTS = ["none", "non-finite", "non-finite rectangular", "asymmetric", "non-positive",
           "overflowing"]


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(sorted(_CLASSES)),
       n=st.integers(1, 2), m=st.integers(1, 2),
       faults=st.lists(st.sampled_from(_FAULTS), min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_create_on_a_stack_is_create_on_its_first_invalid_point(kind, n, m, faults, seed):
    rng = np.random.default_rng(seed)
    points = [_spoiled(kind, sampling.random_point(kind, n, m, rng).parts(), fault)
              for fault in faults]
    cls = _CLASSES[kind]
    stacked = [np.stack(parts) for parts in zip(*points)]
    singles = []
    for parts in points:
        try:
            singles.append(cls.create(*parts))
        except (DimensionError, DomainError) as exc:
            with pytest.raises(type(exc)) as raised:
                cls.create(*stacked)
            assert str(raised.value) == str(exc)
            assert not cls(*stacked).is_valid()
            return
    checked = cls.create(*stacked)
    for a, b in zip(checked.parts(), map(np.stack, zip(*(q.parts() for q in singles)))):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert cls(*stacked).is_valid()


def test_a_wrong_shape_fails_every_point_in_the_order_of_a_single_point():
    omega, nan, inf = 1j * np.eye(1), np.array([[np.nan]]), np.array([[np.inf, 0.0]])
    for parts, message in [((nan, np.zeros(1)), "omega has non-finite entries"),
                           ((omega, np.zeros(1)), "expected a matrix, got ndim=1"),
                           ((omega, inf), "z has non-finite entries"),
                           ((omega, np.zeros((1, 2))), "z has 2 columns, omega degree 1")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            spaces.JacobiPoint.create(*parts)
    # in a stack whose z has 2 columns, the first point fails first on what it fails alone
    omegas, zs = np.stack([omega] * 3), np.zeros((3, 1, 2))
    zs[1, 0, 0] = np.inf
    with pytest.raises(DimensionError, match="^z has 2 columns, omega degree 1$"):
        spaces.JacobiPoint.create(omegas, zs)
    zs[0, 0, 0] = np.inf
    with pytest.raises(DomainError, match="^z has non-finite entries$"):
        spaces.JacobiPoint.create(omegas, zs)
    # an empty stack has no invalid point, but its shapes must still fit
    with pytest.raises(DimensionError, match="^z has 2 columns, omega degree 1$"):
        spaces.JacobiPoint.create(omegas[:0], zs[:0])
    assert spaces.JacobiPoint.create(omegas[:0], zs[:0, :, :1]).is_valid()


def test_is_valid_on_a_stack_is_false_exactly_when_a_point_is_invalid():
    rng = np.random.default_rng(321)
    bad = [omega for _, omega in _bad_omegas()]
    for _ in range(40):
        omegas = [sampling.random_siegel_point(2, rng).omega for _ in range(5)]
        for k in np.flatnonzero(rng.uniform(size=5) < 0.15):
            omegas[k] = bad[rng.integers(len(bad))]
        points = [spaces.SiegelPoint(omega) for omega in omegas]
        with np.errstate(over="ignore", invalid="ignore"):
            assert spaces.SiegelPoint(np.stack(omegas)).is_valid() == all(
                q.is_valid() for q in points)


def test_stacks_of_the_wrong_shape_are_refused():
    rng = np.random.default_rng(322)
    pj = [sampling.random_jacobi_point(2, 1, rng) for _ in range(4)]
    with pytest.raises(DimensionError, match="does not stack"):
        spaces.JacobiPoint.create(np.stack([q.omega for q in pj]),
                                  np.stack([q.z for q in pj[:3]]))
    with pytest.raises(DimensionError, match="columns"):
        spaces.JacobiPoint.create(np.stack([q.omega for q in pj]), np.zeros((4, 1, 3)))
    z = np.zeros
    for make in (lambda: groups.SymplecticElement(z((5, 4, 3))),
                 lambda: groups.SymplecticElement(z((5, 3, 3))),
                 lambda: groups.HeisenbergElement(z((5, 1, 2)), z((5, 1, 2)), z((5, 2, 2))),
                 lambda: groups.HeisenbergElement(z((5, 1, 2)), z((5, 1, 2)), z((4, 1, 1))),
                 lambda: groups.StarGroupElement(z((5, 2, 2)), z((5, 2, 2)), z((5, 1, 3)),
                                                 z((5, 1, 1))),
                 lambda: groups.StarGroupElement(z((5, 2, 2)), z((5, 2, 2)), z((4, 1, 2)),
                                                 z((4, 1, 1))),
                 lambda: groups.StarGroupElement(z((5, 2, 2)), z((5, 2, 2)), z((5, 1, 2)),
                                                 z((5, 2, 2))),
                 lambda: groups.JacobiGroupElement(
                     stack([groups.random_symplectic(2, rng) for _ in range(5)]),
                     stack([groups.random_heisenberg(2, 1, rng) for _ in range(4)]))):
        with pytest.raises(DimensionError):
            make()


# -- derivative tables at a stack of points --------------------------------------

# setup -> (point kind, n, m, operators on a table with their names)
_DISK_OPS = [("s1", diffops.disk_eta_trace), ("s2", diffops.disk_w_part),
             ("s3", diffops.disk_eta_determinant),
             ("laplacian", lambda t: diffops.laplacian_disk(t, PARAMS))]
TABLE_SETUPS = {
    "siegel_1": ("siegel", 1, 0, [("laplacian", lambda t: diffops.laplacian_siegel(t, 1.5))]),
    "siegel_2": ("siegel", 2, 0, [("laplacian", lambda t: diffops.laplacian_siegel(t, 1.5))]),
    **{f"jacobi_{n}{m}": ("jacobi", n, m, [
        ("parts", lambda t: np.stack(diffops.jacobi_laplacian_parts(t), axis=-1)),
        ("laplacian", lambda t: diffops.laplacian_jacobi(t, PARAMS))])
       for n, m in ((1, 1), (2, 1), (1, 2))},
    **{f"disk_1{m}": ("jacobi_disk", 1, m, _DISK_OPS + [
        (f"j:{k},{l}", partial(diffops.disk_eta_entry, k=k, l=l))
        for k in range(m) for l in range(m)]) for m in (1, 2)},
}


def _table_setup(name, seed):
    kind, n, m, ops = TABLE_SETUPS[name]
    rng = np.random.default_rng(seed)
    points = [sampling.random_point(kind, n, m, rng) for _ in range(10)]
    field = sampling.random_polynomial_field(kind, rng)
    return points, field, ops


@pytest.mark.parametrize("plain", [False, True], ids=["batched", "plain"])
@pytest.mark.parametrize("name", TABLE_SETUPS)
def test_a_table_at_a_stack_gives_the_bits_of_the_tables_at_its_points(name, plain):
    points, field, ops = _table_setup(name, 330)
    calls = []

    def counted(q):
        calls.append(q)
        return complex(field(q)) if plain else field(q)

    f = counted if plain else fields.batched(counted)
    table = DerivativeTable(f, stack(points))
    # a batched field is called once, a plain one once per stencil point
    assert len(calls) == (len(points) * len(diffops._plan(table.chart.dim)[0]) if plain else 1)
    singles = [DerivativeTable(f, q) for q in points]
    for attr in ("value", "hess"):
        assert np.array_equal(getattr(table, attr), np.stack([getattr(t, attr) for t in singles]))
    for op_name, op in ops:
        got = op(table)
        assert got.shape[0] == len(points), op_name
        assert np.array_equal(got, np.stack([op(t) for t in singles])), op_name


def test_the_eigenfunction_values_of_a_stacked_table_are_the_fields_values():
    # the laplacians suite's right-hand sides read table.value: f at each point
    rng = np.random.default_rng(340)
    p = stack([sampling.random_jacobi_point(1, 1, rng) for _ in range(20)])
    for s in (0.5, 1.7, 2.0):
        for name, _ in fields.eigenfunction_table(s):
            f = fields.builtin_field(name, s=s)
            values = DerivativeTable(f, p).value
            assert np.array_equal(values, [complex(f(q)) for q in p.unstack()]), (name, s)


@pytest.mark.parametrize("k", [0, 4, 9])
def test_a_non_finite_value_at_one_point_of_a_stack_raises_the_single_point_error(k):
    points = [spaces.JacobiPoint(np.array([[0.1 * j + 1.0j]]), np.array([[0.2 - 0.1j]]))
              for j in range(10)]
    x_bad = points[k].omega[0, 0].real

    @fields.batched
    def f(q):
        x = q.omega[..., 0, 0].real
        return np.where(np.abs(x - x_bad) < 0.02, np.nan, x * q.z[..., 0, 0].imag)

    with pytest.raises(DomainError) as single:
        DerivativeTable(f, points[k])
    for j in set(range(10)) - {k}:
        DerivativeTable(f, points[j])
    with pytest.raises(DomainError) as stacked:
        DerivativeTable(f, stack(points))
    assert str(stacked.value) == str(single.value)


def test_a_table_at_one_point_keeps_scalar_values():
    for name in TABLE_SETUPS:
        points, field, ops = _table_setup(name, 350)
        table = DerivativeTable(field, points[0])
        assert isinstance(table.value, complex)
        for op_name, op in ops:
            values = diffops.jacobi_laplacian_parts(table) if op_name == "parts" else [op(table)]
            assert all(type(v) is complex for v in values), (name, op_name)


def test_what_cannot_be_stacked_is_refused():
    rng = np.random.default_rng(360)
    points = [sampling.random_jacobi_disk_point(2, 1, rng, radius=0.4) for _ in range(3)]
    table = DerivativeTable(sampling.random_polynomial_field("jacobi_disk", rng), stack(points))
    for op in (diffops.disk_eta_determinant, partial(diffops.disk_operator, which="s3")):
        with pytest.raises(DimensionError, match="disk_eta_determinant"):
            op(table)
    with pytest.raises(DimensionError, match="eta_pair_value"):
        diffops.eta_pair_value(table._f, stack(points), (0, 0), (0, 1), diffops.FDConfig())


def test_the_radius_guard_reads_the_largest_step_of_the_stack():
    # steps grow with the coordinates: only the far point's reaches the radius
    near = [spaces.SiegelPoint(np.array([[0.1 * j + 1.0j]])) for j in range(4)]
    far = spaces.SiegelPoint(np.array([[40.0 + 1.0j]]))
    field = diffops.ScalarField(fields.builtin_field("y"), radius=0.02)
    DerivativeTable(field, stack(near))
    with pytest.raises(ParameterError):
        DerivativeTable(field, far)
    with pytest.raises(ParameterError):
        DerivativeTable(field, stack(near + [far]))
