"""The four group actions and the four Cayley maps are one fractional-linear
map, ``linalg.fractional_linear``. Each is checked against its textbook
formula with a separate ``np.linalg.solve`` per part, and each must make one
conditioning check."""
import numpy as np
import pytest

from siegeljacobi import cayley, groups, linalg, metrics, sampling
from siegeljacobi.spaces import TangentVector

DEGREES = ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2))


def _right_solve(denom, num):
    """num denom^{-1}, from its own solve."""
    return np.linalg.solve(denom.T, num.T).T


def _sym(a):
    return 0.5 * (a + a.T)


def _act_siegel(n, m, rng):
    g = groups.random_symplectic(n, rng)
    p = sampling.random_siegel_point(n, rng)
    a, b, c, d = g.blocks()
    denom = c @ p.omega + d
    return groups.act_siegel(g, p), [_sym(_right_solve(denom, a @ p.omega + b))]


def _act_jacobi(n, m, rng):
    g = groups.random_jacobi(n, m, rng)
    p = sampling.random_jacobi_point(n, m, rng)
    a, b, c, d = g.sp.blocks()
    denom = c @ p.omega + d
    return groups.act_jacobi(g, p), [_sym(_right_solve(denom, a @ p.omega + b)),
                                     _right_solve(denom, p.z + g.h.lam @ p.omega + g.h.mu)]


def _act_disk(n, m, rng):
    g = groups.embed_star(groups.random_jacobi(n, m, rng))
    p = sampling.random_disk_point(n, rng)
    denom = g.q.conj() @ p.w + g.p.conj()
    return groups.act_disk(g, p), [_sym(_right_solve(denom, g.p @ p.w + g.q))]


def _act_jacobi_disk(n, m, rng):
    g = groups.embed_star(groups.random_jacobi(n, m, rng))
    p = sampling.random_jacobi_disk_point(n, m, rng)
    denom = g.q.conj() @ p.w + g.p.conj()
    return groups.act_jacobi_disk(g, p), [_sym(_right_solve(denom, g.p @ p.w + g.q)),
                                          _right_solve(denom, p.eta + g.xi @ p.w + g.xi.conj())]


def _cayley(n, m, rng):
    p = sampling.random_disk_point(n, rng)
    eye = np.eye(n)
    return cayley.cayley(p), [_sym(1j * _right_solve(eye - p.w, eye + p.w))]


def _cayley_inverse(n, m, rng):
    p = sampling.random_siegel_point(n, rng)
    eye = np.eye(n)
    return cayley.cayley_inverse(p), [_sym(_right_solve(p.omega + 1j * eye, p.omega - 1j * eye))]


def _partial_cayley(n, m, rng):
    p = sampling.random_jacobi_disk_point(n, m, rng)
    eye = np.eye(n)
    return cayley.partial_cayley(p), [_sym(1j * _right_solve(eye - p.w, eye + p.w)),
                                      2j * _right_solve(eye - p.w, p.eta)]


def _partial_cayley_inverse(n, m, rng):
    p = sampling.random_jacobi_point(n, m, rng)
    eye = np.eye(n)
    return cayley.partial_cayley_inverse(p), [
        _sym(_right_solve(p.omega + 1j * eye, p.omega - 1j * eye)),
        _right_solve(p.omega + 1j * eye, p.z)]


ACTIONS = [_act_siegel, _act_jacobi, _act_disk, _act_jacobi_disk]
CAYLEY_MAPS = [_cayley, _cayley_inverse, _partial_cayley, _partial_cayley_inverse]


def _cases(case, seed, count=20):
    rng = np.random.default_rng(seed)
    for n, m in DEGREES:
        for _ in range(count):
            yield case(n, m, rng)


@pytest.mark.parametrize("case", ACTIONS, ids=lambda f: f.__name__[1:])
def test_actions_match_separate_solves_bitwise(case):
    for out, expected in _cases(case, 41):
        assert len(out.parts()) == len(expected)
        for got, want in zip(out.parts(), expected):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("case", CAYLEY_MAPS, ids=lambda f: f.__name__[1:])
def test_cayley_maps_match_separate_solves(case):
    for out, expected in _cases(case, 43):
        assert len(out.parts()) == len(expected)
        for got, want in zip(out.parts(), expected):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("case", ACTIONS + CAYLEY_MAPS, ids=lambda f: f.__name__[1:])
def test_each_map_checks_conditioning_once(case, monkeypatch):
    calls = []
    guard = linalg.require_conditioned

    def counted(a):
        calls.append(a.shape)
        return guard(a)

    monkeypatch.setattr(linalg, "require_conditioned", counted)
    for n, m in DEGREES:
        calls.clear()
        case(n, m, np.random.default_rng(7))
        assert calls == [(n, n)]


# -- the differential ------------------------------------------------------------

def _star(n, m, rng):
    return groups.embed_star(groups.random_jacobi(n, m, rng))


ACTION_PAIRS = {    # name -> (element, point), each drawn from (n, m, rng)
    "siegel": (lambda n, m, rng: groups.random_symplectic(n, rng),
               lambda n, m, rng: sampling.random_siegel_point(n, rng)),
    "jacobi": (groups.random_jacobi, sampling.random_jacobi_point),
    "disk": (_star, lambda n, m, rng: sampling.random_disk_point(n, rng)),
    "jacobi_disk": (_star, sampling.random_jacobi_disk_point),
}


def _action_differential(name):
    element, sample = ACTION_PAIRS[name]

    def case(n, m, rng):
        g = element(n, m, rng)
        p = sample(n, m, rng)
        t = sampling.random_tangent(n, p.m, rng)
        exact = metrics.pushforward(g, p, t)
        return exact, metrics.map_differential(lambda q: groups.act(g, q), p, t)
    return case


def _cayley_differential(n, m, rng):
    p = sampling.random_disk_point(n, rng)
    t = TangentVector.omega_only(sampling.random_tangent(n, 0, rng).d_omega)
    (d_w,) = linalg.fractional_linear_differential(*cayley.blocks(cayley.TO_HALF, n), p.w, t.d_omega)
    return TangentVector.omega_only(d_w), metrics.map_differential(cayley.cayley, p, t)


def _partial_cayley_differential(n, m, rng):
    p = sampling.random_jacobi_disk_point(n, m, rng)
    t = sampling.random_tangent(n, m, rng)
    parts = linalg.fractional_linear_differential(*cayley.blocks(cayley.TO_HALF, n), p.w,
                                                  t.d_omega, 2j * p.eta, 2j * t.d_z)
    return TangentVector(*parts), metrics.map_differential(cayley.partial_cayley, p, t)


DIFFERENTIALS = [_action_differential(name) for name in ACTION_PAIRS]
DIFFERENTIALS += [_cayley_differential, _partial_cayley_differential]
DIFFERENTIAL_IDS = list(ACTION_PAIRS) + ["cayley", "partial_cayley"]


@pytest.mark.parametrize("case", DIFFERENTIALS, ids=DIFFERENTIAL_IDS)
def test_differential_matches_central_differences(case):
    for exact, fd in _cases(case, 47, count=10):
        assert exact.m == fd.m
        scale = max(np.max(np.abs(exact.d_omega)), np.max(np.abs(exact.d_z), initial=0.0))
        resid = max(np.max(np.abs(exact.d_omega - fd.d_omega)),
                    np.max(np.abs(exact.d_z - fd.d_z), initial=0.0))
        assert resid <= 1e-6 * scale


@pytest.mark.parametrize("name", ACTION_PAIRS)
def test_differential_matches_siegel_closed_form(name):
    # every action lies in Sp(2n, C), where the symmetric part moves as
    # dX -> t((C X + D)^{-1}) dX (C X + D)^{-1}
    element, sample = ACTION_PAIRS[name]
    rng = np.random.default_rng(53)
    for n, m in DEGREES:
        for _ in range(10):
            g = element(n, m, rng)
            p = sample(n, m, rng)
            t = sampling.random_tangent(n, p.m, rng)
            blocks, _ = groups.action_map(g, p)
            x = p.parts()[0]
            inv = np.linalg.inv(blocks[2] @ x + blocks[3])
            expected = inv.T @ t.d_omega @ inv
            got = metrics.pushforward(g, p, t).d_omega
            assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_differential_of_a_stack_matches_single_points():
    rng = np.random.default_rng(59)
    for n, m in DEGREES:
        g = groups.random_jacobi(n, m, rng)
        pts = [sampling.random_jacobi_point(n, m, rng) for _ in range(5)]
        tangents = [sampling.random_tangent(n, m, rng) for _ in range(5)]
        a, b, c, d = g.sp.blocks()

        def args(x, z, dx, dz):
            return x, dx, z + g.h.lam @ x + g.h.mu, dz + g.h.lam @ dx

        stacked = linalg.fractional_linear_differential(a, b, c, d, *args(
            np.stack([p.omega for p in pts]), np.stack([p.z for p in pts]),
            np.stack([t.d_omega for t in tangents]), np.stack([t.d_z for t in tangents])))
        for k, (p, t) in enumerate(zip(pts, tangents)):
            single = linalg.fractional_linear_differential(
                a, b, c, d, *args(p.omega, p.z, t.d_omega, t.d_z))
            for got, want in zip(stacked, single):
                assert np.array_equal(got[k], want)
