"""Stacks of points, tangents and group elements give, entry by entry, the
bits of the single calls, and a stack of points is validated in one pass
that raises the error of its first invalid point."""
import numpy as np
import pytest

from siegeljacobi import cayley, geodesics, groups, metrics, sampling, spaces
from siegeljacobi.errors import DimensionError, DomainError
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
