"""The four group actions and the four Cayley maps are one fractional-linear
map, ``linalg.fractional_linear``. Each is checked against its textbook
formula with a separate ``np.linalg.solve`` per part, and each must make one
conditioning check."""
import numpy as np
import pytest

from siegeljacobi import cayley, groups, linalg, sampling

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
