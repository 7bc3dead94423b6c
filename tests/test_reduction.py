import hashlib
from itertools import combinations, permutations, product
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from siegeljacobi import groups, reduction, sampling, spaces
from siegeljacobi.errors import ConvergenceError, DimensionError, DomainError, NumericError


def sl2z_reduce_oracle(omega: complex) -> complex:
    """Independent classical reduction on scalars."""
    for _ in range(500):
        omega = omega - round(omega.real)
        if abs(omega) < 1.0 - 1e-15:
            omega = -1.0 / omega
        else:
            break
    return omega


def test_minkowski_identity_unchanged():
    y_red, u = reduction.minkowski_reduce(np.eye(3))
    assert np.allclose(y_red, np.eye(3))
    assert abs(round(np.linalg.det(u))) == 1


def test_minkowski_two_by_two_brute_force():
    y = np.array([[1.0, 0.9], [0.9, 1.0]])
    y_red, u = reduction.minkowski_reduce(y)
    assert abs(round(np.linalg.det(u))) == 1
    assert not reduction.minkowski_violations(y_red)
    best = None
    for entries in product(range(-3, 4), repeat=4):
        cand = np.array(entries).reshape(2, 2)
        if abs(round(np.linalg.det(cand))) != 1:
            continue
        z = cand @ y @ cand.T
        key = (round(z[0, 0], 12), round(z[1, 1], 12))
        best = key if best is None else min(best, key)
    assert np.isclose(y_red[0, 0], best[0]) and np.isclose(y_red[1, 1], best[1])


def test_minkowski_random_certified():
    rng = np.random.default_rng(4)
    for n in (1, 2, 3):
        for _ in range(8):
            a = rng.standard_normal((n, n))
            y = a @ a.T + 0.3 * np.eye(n)
            y_red, u = reduction.minkowski_reduce(y)
            assert not reduction.minkowski_violations(y_red), (n, y)
            assert np.isclose(np.linalg.det(y_red), np.linalg.det(y))
            assert np.allclose(u @ y @ u.T, y_red)
            for k in range(n - 1):
                assert y_red[k, k + 1] >= -1e-12


def _gcd(entries):
    g = 0
    for x in entries:
        g = gcd(g, abs(int(x)))
    return g


def test_minkowski_vector_sets_match_loops():
    for n in (1, 2, 3):
        box = [a for a in product(range(-3, 4), repeat=n) if any(a)]
        prim = [a for a in box if _gcd(a) == 1 and next(x for x in a if x) > 0]
        assert [tuple(a) for a in reduction._primitive_vectors(n, 3)] == prim
        assert not reduction._primitive_vectors(n, 3).flags.writeable


def test_minkowski_violations_match_loop():
    rng = np.random.default_rng(5)
    for n in (2, 3):
        box = [a for a in product(range(-3, 4), repeat=n) if any(a)]
        for _ in range(6):
            a = rng.standard_normal((n, n))
            y = a @ a.T + 0.05 * np.eye(n)
            scale = float(np.max(np.abs(y)))
            expect = [(v, k, float(np.array(v) @ y @ np.array(v)), float(y[k, k]))
                      for v in box for k in range(n)
                      if _gcd(v[k:]) == 1
                      and np.array(v) @ y @ np.array(v) < y[k, k] - 1e-9 * scale]
            expect += [("superdiagonal", k, float(y[k, k + 1]), 0.0)
                       for k in range(n - 1) if y[k, k + 1] < -1e-9 * scale]
            got = reduction.minkowski_violations(y)
            assert expect and got == expect
            vecs = np.array(box)
            assert reduction._forms(vecs, y).tolist() == [a @ y @ a for a in vecs]


def test_minkowski_input_validation():
    """Both Minkowski entries read y by ``linalg.real_symmetric``: a scalar is
    1 x 1, asymmetry within ``close_each`` is averaged, and another shape, a
    non-finite entry or asymmetry past it is refused by name, by both."""
    with pytest.raises(DimensionError):
        reduction.minkowski_reduce(np.eye(4))
    with pytest.raises(DomainError):
        reduction.minkowski_reduce(np.diag([1.0, -1.0]))
    assert reduction.minkowski_reduce(2.0)[1].tolist() == [[1]]
    assert reduction.minkowski_violations(2.0) == []
    y = np.array([[2.0, -0.5], [-0.5 - 1e-12, 1.0]])
    mean = 0.5 * y + 0.5 * y.T
    assert reduction.minkowski_violations(y) == reduction.minkowski_violations(mean)
    assert [a.tolist() for a in reduction.minkowski_reduce(y)] == \
        [a.tolist() for a in reduction.minkowski_reduce(mean)]
    for read in (reduction.minkowski_reduce, reduction.minkowski_violations):
        for bad, refusal in ((np.ones(2), r"one matrix, got shape \(2,\)"),
                             (np.ones((2, 2, 2)), r"one matrix, got shape \(2, 2, 2\)"),
                             (np.ones((0, 0)), r"one matrix, got shape \(0, 0\)"),
                             (np.ones((2, 3)), r"square, got shape \(2, 3\)")):
            with pytest.raises(DimensionError, match=f"^y must be {refusal}$"):
                read(bad)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(DomainError, match="^y has non-finite entries$"):
                read(np.array([[2.0, 0.5], [0.5, bad]]))
        with pytest.raises(DomainError, match="^y must be symmetric$"):
            read(np.array([[2.0, 0.5], [0.4, 1.0]]))


def test_minkowski_positivity_is_that_of_siegel_points():
    """A Y that ``SiegelPoint.create`` refuses, ``minkowski_reduce`` refuses too:
    one test, ``linalg.positive_each``, at ABS_TOL."""
    y = np.diag([1.0, 5e-11])
    with pytest.raises(DomainError, match="^Im\\(omega\\) is not positive definite$"):
        spaces.SiegelPoint.create(1j * y)
    with pytest.raises(DomainError, match="^y is not positive definite$"):
        reduction.minkowski_reduce(y)
    reduction.minkowski_reduce(np.diag([1.0, 2e-10]))
    # a point that skips create is refused by the loop, not reduced
    with pytest.raises(DomainError, match="^y is not positive definite$"):
        reduction.siegel_reduce(spaces.SiegelPoint(0.3 + 1j * y))


def test_every_entry_refuses_degree_four_before_it_enumerates(monkeypatch):
    def enumerate_nothing(*args, **kwargs):
        raise AssertionError("a candidate list was built")

    monkeypatch.setattr(reduction, "product", enumerate_nothing)
    monkeypatch.setattr(reduction, "_candidate_generators", enumerate_nothing)
    p = spaces.SiegelPoint.create(1j * np.eye(4))
    entries = [(reduction.minkowski_reduce, np.eye(4)), (reduction.minkowski_violations, np.eye(4)),
               (reduction.siegel_candidates, 4), (reduction.candidate_det_ratios, p),
               (reduction.certificate_checks, p, p, groups.SymplecticElement.identity(4)),
               (reduction.siegel_reduce, p),
               (reduction.jacobi_reduce, spaces.JacobiPoint.create(p.omega, np.zeros((1, 4))))]
    for entry, *args in entries:
        with pytest.raises(DimensionError, match="^the reduction supports n <= 3, got n = 4$"):
            entry(*args)


def test_degree_one_reduction_matches_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        omega = complex(rng.uniform(-3, 3), rng.uniform(0.05, 3.0))
        p = spaces.SiegelPoint.create(np.array([[omega]]))
        red, cert = reduction.siegel_reduce(p)
        r = complex(red.omega[0, 0])
        assert abs(r - sl2z_reduce_oracle(omega)) < 1e-9
        assert abs(r.real) <= 0.5 + 1e-12 and abs(r) >= 1.0 - 1e-12
        assert cert.passed
        replay = groups.act_siegel(cert.gamma, p)
        assert np.max(np.abs(replay.omega - red.omega)) <= 1e-9


def test_already_reduced_point_unchanged():
    p = spaces.SiegelPoint.create(np.array([[0.2 + 1.5j]]))
    red, cert = reduction.siegel_reduce(p)
    assert np.allclose(red.omega, p.omega)
    assert np.allclose(cert.gamma.mat, np.eye(2))


def test_degree_two_reduction():
    rng = np.random.default_rng(9)
    for _ in range(10):
        p = sampling.random_siegel_point(2, rng, y_range=(0.3, 2.0))
        red, cert = reduction.siegel_reduce(p)
        assert cert.passed, cert.checks
        assert np.max(np.abs(red.omega.real)) <= 0.5 + 1e-12
        assert not reduction.minkowski_violations(red.omega.imag)
        # det Im maximal over the candidate set
        base = np.linalg.det(red.omega.imag)
        for cand in reduction.siegel_candidates(2)[:200]:
            moved = groups.act_siegel(cand, red)
            assert np.linalg.det(moved.omega.imag) <= base * (1 + 1e-9)


def test_small_eigenvalue_points_pass_their_certificates():
    # Im(omega) eigenvalues near 0.1; a single greedy Minkowski pass over
    # the box left im_minkowski = False at the first point
    failed_once = np.array([[0.09218223571927764 + 0.13745439090574685j,
                             0.5163875273822462 + 0.08372041100677632j],
                            [0.5163875273822462 + 0.08372041100677632j,
                             -1.041416726164722 + 0.3264639057188089j]])
    # after a highest-point move this Im(omega) needs a second pass
    two_passes = np.array([[-1.0596244604030858 + 0.2446506087618528j,
                            0.5380360881655404 + 0.021750762221390593j],
                           [0.5380360881655404 + 0.021750762221390593j,
                            1.4866171935389736 + 0.2178315228070309j]])
    for omega in (failed_once, two_passes):
        red, cert = reduction.siegel_reduce(spaces.SiegelPoint.create(omega))
        assert cert.passed, cert.checks
        assert not reduction.minkowski_violations(red.omega.imag)


def test_skewed_form_reduces_within_max_iter(monkeypatch):
    # det Y = 1, but each greedy pass over the +-3 box moves the off-diagonal
    # entry by at most 3, so reduction takes dozens of passes
    p = spaces.SiegelPoint.create(1j * np.array([[1.0, 100.0], [100.0, 10001.0]]))
    red, cert = reduction.siegel_reduce(p)
    assert cert.passed, cert.checks
    assert cert.iterations > 8
    assert np.allclose(red.omega, 1j * np.eye(2), atol=1e-9)
    monkeypatch.setattr(reduction, "MAX_ITER", 8)
    with pytest.raises(ConvergenceError) as info:
        reduction.siegel_reduce(p)
    assert info.value.partial.gamma.is_valid() and info.value.partial.iterations == 8


def _exactly_symplectic(mat) -> bool:
    """mat has integer entries, and tM J M = J holds in Python integers."""
    k = mat.astype(np.int64)
    if not np.array_equal(k, mat):
        return False
    j = groups.symplectic_form(len(mat) // 2).astype(np.int64).astype(object)
    k = k.astype(object)
    return bool((k.T @ j @ k == j).all())


# i A diag(1/2, 1, 2) tA with A = [[3, -3, 2], [-2, 2, -1], [-2, 3, -1]] unimodular
SKEWED = 1j * np.array([[21.5, -13.0, -16.0], [-13.0, 8.0, 10.0], [-16.0, 10.0, 13.0]])


def test_skewed_form_reduces_by_an_integral_element():
    """The Minkowski move's D block is the exact integer inverse of tU, so
    gamma is an exact integral symplectic matrix and moves Omega to i diag(1,
    2, 2) exactly, on Siegel and Siegel-Jacobi points alike."""
    red, cert = reduction.siegel_reduce(spaces.SiegelPoint.create(SKEWED))
    assert cert.passed and _exactly_symplectic(cert.gamma.mat)
    assert red.omega.tolist() == (1j * np.diag([1.0, 2.0, 2.0])).tolist()
    p = spaces.JacobiPoint.create(SKEWED, [[0.4 + 0.3j, -1.2 + 0.5j, 2.1 - 0.7j]])
    out, cert = reduction.jacobi_reduce(p)
    assert cert.passed and _exactly_symplectic(cert.gamma.sp.mat)
    assert out.omega.tolist() == red.omega.tolist()
    assert all(np.array_equal(a, np.rint(a)) for a in cert.gamma.h.parts())


@pytest.mark.parametrize("n", [2, 3])
def test_skewed_forms_reduce_by_integral_elements(n):
    """Im Omega = A D tA with A unimodular, entries in [-3, 3], and D diagonal
    in [1/2, 2]: every gamma is integral and exactly symplectic, and so is a
    Jacobi gamma's Heisenberg part."""
    rng = np.random.default_rng(1)
    done = 0
    while done < 40:
        a = rng.integers(-3, 4, (n, n))
        if abs(round(np.linalg.det(a))) != 1:
            continue
        x = rng.uniform(-2.0, 2.0, (n, n))
        omega = 0.5 * (x + x.T) + 1j * (a * rng.uniform(0.5, 2.0, n) @ a.T)
        if done % 2:
            p = spaces.JacobiPoint.create(omega, rng.uniform(-2.0, 2.0, (1, n)))
            _, cert = reduction.jacobi_reduce(p)
            sp, h = cert.gamma.sp, cert.gamma.h.parts()
        else:
            _, cert = reduction.siegel_reduce(spaces.SiegelPoint.create(omega))
            sp, h = cert.gamma, []
        assert cert.passed, (a, cert.checks)
        assert _exactly_symplectic(sp.mat), a
        assert all(np.array_equal(b, np.rint(b)) for b in h), a
        done += 1


def test_group_checks_are_exact_on_integral_elements():
    """Where the float relation of an integral element rounds past GROUP_TOL,
    gamma_symplectic and gamma_valid are decided in Python integers."""
    p = spaces.SiegelPoint.create([[0.3 + 1.1j]])
    # det = 1e16 - (1e16 - 1) = 1, but the float product bc rounds to 1e16
    far = groups.SymplecticElement(np.array([[1e8, 100000001.0], [99999999.0, 1e8]]))
    assert not far.is_valid()
    assert reduction.certificate_checks(p, p, far)["gamma_symplectic"]
    for mat in ([[1e8, 100000001.0], [99999999.0, 1e8 + 1.0]], [[2.0, 0.0], [0.0, 1.0]],
                [[1e8, 100000001.0], [99999999.0, 1e8 + 0.5]]):
        g = groups.SymplecticElement(np.array(mat))
        assert not reduction.certificate_checks(p, p, g)["gamma_symplectic"], mat
    # kappa + mu tlam symmetric: its (0, 1) entry (2^26 + 1)(2^27 + 1) - 2^53 + 2
    # = 2^27 + 2^26 + 3 is its (1, 0) entry, but the float product rounds by 1
    lam = np.array([[2.0 ** 27 + 2.0 ** 26 + 3], [2.0 ** 27 + 1]])
    mu = np.array([[2.0 ** 26 + 1], [1.0]])
    for k01, k10, valid in ((2.0 - 2.0 ** 53, 0.0, True), (4.0 - 2.0 ** 53, 0.0, False),
                            (2.0 - 2.0 ** 53, 0.5, False)):
        h = groups.HeisenbergElement(lam, mu, np.array([[0.0, k01], [k10, 0.0]]))
        g = groups.JacobiGroupElement(groups.SymplecticElement.identity(1), h)
        assert not g.is_valid()
        assert reduction._exactly_valid(g) == valid, (k01, k10)
        assert reduction._exactly_valid(groups.JacobiGroupElement(far, h)) == valid, (k01, k10)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 3), jacobi=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
       re=hnp.arrays(float, (3, 3), elements=st.floats(-1e12, 1e12)))
def test_far_real_parts_keep_their_group_checks(n, jacobi, seed, re):
    """With Re Omega entries up to 1e12 every gamma is integral, and neither
    gamma_symplectic nor gamma_valid is ever false."""
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    y = q * rng.uniform(0.1, 2.0, n) @ q.T
    x = re[:n, :n]
    omega = 0.5 * x + 0.5 * x.T + 0.5j * (y + y.T)
    if jacobi:
        p = spaces.JacobiPoint.create(omega, rng.uniform(-2.0, 2.0, (1, n)))
        _, cert = reduction.jacobi_reduce(p)
        assert cert.checks["gamma_valid"], cert.checks
        sp = cert.gamma.sp
    else:
        _, cert = reduction.siegel_reduce(spaces.SiegelPoint.create(omega))
        sp = cert.gamma
    assert cert.checks["gamma_symplectic"], cert.checks
    assert _exactly_symplectic(sp.mat)


def test_batched_scan_matches_candidate_actions():
    rng = np.random.default_rng(12)
    for n in (2, 3):
        cands = reduction.siegel_candidates(n)
        for _ in range(3):
            p = sampling.random_siegel_point(n, rng, y_range=(0.3, 2.0))
            expect = [np.linalg.det(groups.act_siegel(g, p).omega.imag) for g in cands]
            got = reduction.candidate_det_ratios(p) * np.linalg.det(p.omega.imag)
            assert got.shape == (len(cands),)
            assert np.allclose(got, expect, rtol=1e-9, atol=0.0)


def test_scan_takes_no_lu_and_no_svd(monkeypatch):
    # at n <= 3 the guard's determinants are cofactor expansions, and a scan
    # the determinant bound clears needs no condition number
    rng = np.random.default_rng(16)
    points = [sampling.random_siegel_point(n, rng) for n in (2, 3)]
    sizes = [len(reduction.siegel_candidates(p.n)) for p in points]    # built with dets
    calls = []
    for name in ("det", "cond"):
        monkeypatch.setattr(np.linalg, name, lambda *args, name=name: calls.append(name))
    assert [reduction.candidate_det_ratios(p).shape for p in points] == [(k,) for k in sizes]
    assert calls == []


def test_batched_scan_conditioning_guard():
    # the inversion candidate has C omega + D = omega, here with cond 1e13
    p = spaces.SiegelPoint.create(np.diag([1e13j, 1j]))
    with pytest.raises(NumericError, match="condition estimate"):
        reduction.candidate_det_ratios(p)
    with pytest.raises(NumericError):
        reduction.siegel_reduce(p)


def test_scan_ties_do_not_follow_rounding():
    # candidates that differ by a unimodular dilation tie exactly in det Im;
    # a uniform rescaling of Omega keeps every tie and must keep gamma
    rng = np.random.default_rng(5)
    for i in range(60):
        p = sampling.random_siegel_point(2 + i % 2, rng, y_range=(0.1, 2.0))
        scaled = spaces.SiegelPoint(p.omega * (1 + 2.0 ** -40))
        _, cert = reduction.siegel_reduce(p)
        _, cert_scaled = reduction.siegel_reduce(scaled)
        assert cert.passed and cert_scaled.passed
        assert np.array_equal(cert.gamma.mat, cert_scaled.gamma.mat), i


def test_candidate_blocks_form_exactly(monkeypatch):
    # every C entry is -1, 0 or 1, with at most two nonzeros per row at n = 2
    # and one at n = 3: each entry of C Omega is an exact product or one
    # rounded sum of two, so the scan's one 2-D product has the bits of the
    # per-candidate products
    formed = []
    monkeypatch.setattr(reduction, "require_conditioned",
                        lambda a: formed.append(a) or np.ones(a.shape[0]))
    rng = np.random.default_rng(14)
    for n, per_row in ((2, 2), (3, 1)):
        c, _ = reduction._candidate_blocks(n)
        assert set(np.unique(c)) <= {-1, 0, 1}
        assert np.count_nonzero(c, axis=1).max() == per_row
        mats = np.array([g.mat for g in reduction.siegel_candidates(n)])
        c_ref, d_ref = mats[:, n:, :n], mats[:, n:, n:]
        for _ in range(1000):
            x, y = rng.standard_normal((2, n, n)) * 10.0 ** rng.uniform(-8, 8, (2, n, n))
            omega = (x + x.T) + 1j * (y + y.T)
            formed.clear()
            reduction.candidate_det_ratios(spaces.SiegelPoint(omega))
            assert formed[0].tobytes() == (c_ref @ omega + d_ref).tobytes()


def _count_scans(monkeypatch):
    """Record the point of every candidate scan and the verdict of every
    Minkowski-violation check made inside ``reduction`` (by the body that
    the loop and the certificate call on an Im Omega they have read)."""
    scans, verdicts = [], []
    scan, violations = reduction.candidate_det_ratios, reduction._minkowski_violations

    def counted_scan(p):
        scans.append(p)
        return scan(p)

    def counted_violations(y):
        found = violations(y)
        verdicts.append(bool(found))
        return found

    monkeypatch.setattr(reduction, "candidate_det_ratios", counted_scan)
    monkeypatch.setattr(reduction, "_minkowski_violations", counted_violations)
    return scans, verdicts


def test_certificate_reuses_the_converged_scan(monkeypatch):
    scans, verdicts = _count_scans(monkeypatch)
    rng = np.random.default_rng(8)
    for i in range(60):
        p = sampling.random_siegel_point(2 + i % 2, rng, y_range=(0.1, 2.0))
        scans.clear()
        verdicts.clear()
        red, cert = reduction.siegel_reduce(p)
        # one scan in each iteration whose Minkowski pass held, none for the
        # certificate, and the last one on the reduced point itself
        assert len(scans) == cert.iterations - sum(verdicts), i
        assert scans[-1] is red
        scans.clear()
        assert cert.checks == reduction.certificate_checks(p, red, cert.gamma), i
        assert len(scans) == 1 and scans[0] is red
        assert cert.passed, cert.checks


def test_jacobi_certificate_reuses_the_converged_scan(monkeypatch):
    """The last scan is of the returned Omega, and the Siegel checks are those
    of a fresh certificate of Omega against the Siegel part of the input."""
    scans, verdicts = _count_scans(monkeypatch)
    rng = np.random.default_rng(9)
    for i in range(60):
        n = 2 + i % 2
        base = sampling.random_siegel_point(n, rng, y_range=(0.1, 2.0))
        z = rng.uniform(-2.0, 2.0, (1, n)) + 1j * rng.uniform(-2.0, 2.0, (1, n))
        p = spaces.JacobiPoint.create(base.omega, z)
        scans.clear()
        verdicts.clear()
        out, cert = reduction.jacobi_reduce(p)
        assert len(scans) == cert.iterations - sum(verdicts), i
        assert scans[-1].omega.tobytes() == out.omega.tobytes(), i
        scans.clear()
        expect = reduction.certificate_checks(p.siegel_part(), spaces.SiegelPoint(out.omega),
                                              cert.gamma.sp)
        assert len(scans) == 1
        # the replay is of the whole element, on Omega and Z
        assert {k: cert.checks[k] for k in expect if k != "replay_matches"} == \
            {k: v for k, v in expect.items() if k != "replay_matches"}, i
        assert cert.passed, cert.checks


def test_jacobi_reduce_returns_the_omega_of_the_siegel_reduction():
    rng = np.random.default_rng(1)
    for i in range(300):
        p = sampling.random_jacobi_point(1 + i % 3, 1 + i % 2, rng)
        out, _ = reduction.jacobi_reduce(p)
        red, _ = reduction.siegel_reduce(p.siegel_part())
        assert out.omega.tobytes() == red.omega.tobytes(), i


@pytest.mark.parametrize("n", [1, 2, 3])
def test_jacobi_reduce_replays_its_element_once(monkeypatch, n):
    """A Jacobi reduction makes the Siegel loop's actions and no Siegel
    replay: one act_siegel fewer than the Siegel reduction of its Siegel part."""
    calls = []
    act_siegel = groups.act_siegel

    def counted(g, p):
        calls.append(p)
        return act_siegel(g, p)

    monkeypatch.setattr(groups, "act_siegel", counted)
    rng = np.random.default_rng(20 + n)
    for i in range(20):
        p = sampling.random_jacobi_point(n, 1, rng)
        calls.clear()
        reduction.jacobi_reduce(p)
        jacobi_calls = len(calls)
        calls.clear()
        reduction.siegel_reduce(p.siegel_part())
        assert jacobi_calls == len(calls) - 1, i


@pytest.mark.parametrize("n", [1, 2, 3])
def test_certificate_takes_the_loops_minkowski_verdict(monkeypatch, n):
    """At n >= 2 each iteration checks Minkowski once and the certificate
    reads the last verdict; the degree-one loop has no Minkowski step, so
    there the certificate checks once itself. Either way the verdict is that
    of a fresh check on the output, on Siegel and Siegel-Jacobi points."""
    _, verdicts = _count_scans(monkeypatch)
    rng = np.random.default_rng(70 + n)
    for i in range(40):
        p = sampling.random_siegel_point(n, rng, y_range=(0.1, 2.0))
        if i % 2:
            z = rng.uniform(-3.0, 3.0, (1 + i % 4 // 2, n, 2)) @ [1.0, 1j]
            p = spaces.JacobiPoint.create(p.omega, z)
        verdicts.clear()
        red, cert = (reduction.jacobi_reduce if i % 2 else reduction.siegel_reduce)(p)
        assert len(verdicts) == (cert.iterations if n > 1 else 1), i
        assert verdicts[-1] is False, i
        assert cert.checks["im_minkowski"] == (not reduction.minkowski_violations(red.omega.imag))
        assert cert.passed, (i, cert.checks)


def _heisenberg_step(p, sp):
    """The toroidal step of ``jacobi_reduce`` after its Siegel part sp, by the
    general action: the point with the Siegel reduction's Omega and the Z sp
    moves p's to, h, and h sp as a product."""
    g_sp = groups.JacobiGroupElement.from_symplectic(sp, p.m)
    moved = spaces.JacobiPoint(reduction.siegel_reduce(p.siegel_part())[0].omega,
                               groups.act_jacobi(g_sp, p).z)
    lam_c, mu_c = reduction.toroidal_coefficients(moved)
    lam0 = -np.floor(mu_c + reduction.DOMAIN_SLACK)
    mu0 = -np.floor(lam_c + reduction.DOMAIN_SLACK)
    g_h = groups.JacobiGroupElement.from_heisenberg(groups.HeisenbergElement(lam0, mu0, lam0 @ mu0.T))
    return groups.act_jacobi(g_h, moved), g_h.multiply(g_sp)


def _gamma_parts(g):
    return [g.sp.mat, g.h.lam, g.h.mu, g.h.kappa]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_jacobi_step_in_closed_form_has_the_bits_of_the_action(n):
    rng = np.random.default_rng(80 + n)
    for i in range(40):
        p = sampling.random_jacobi_point(n, 1 + i % 2, rng)
        p = spaces.JacobiPoint(p.omega, 4.0 * p.z)
        out, cert = reduction.jacobi_reduce(p)
        ref, gamma = _heisenberg_step(p, cert.gamma.sp)
        assert [a.tobytes() for a in out.parts()] == [a.tobytes() for a in ref.parts()], i
        assert [a.tobytes() for a in _gamma_parts(cert.gamma)] == \
            [a.tobytes() for a in _gamma_parts(gamma)], i


def test_jacobi_step_on_lattice_points_has_the_values_of_the_action():
    """Z on the lattice can reduce to an entry that is exactly 0. The solve
    by I inside the general action may flip the sign of such a zero (LAPACK's
    triangular solves subtract 0 times the other entries); the closed form
    keeps the sign of Z + lam Omega + mu. Every value and gamma's bits agree."""
    rng = np.random.default_rng(5)
    zeros = 0
    for i in range(120):
        n = 2 + i % 2
        x = np.round(rng.uniform(-2.0, 2.0, (n, n)), 1)
        y = np.round(rng.uniform(-0.3, 0.3, (n, n)), 1)
        omega = 0.5 * (x + x.T) + 1j * (np.eye(n) + 0.5 * (y + y.T))
        lam, mu = np.round(rng.uniform(-3.0, 3.0, (2, 1, n)))
        p = spaces.JacobiPoint.create(omega, lam + mu @ omega)
        out, cert = reduction.jacobi_reduce(p)
        ref, gamma = _heisenberg_step(p, cert.gamma.sp)
        assert all(np.array_equal(a, b) for a, b in zip(out.parts(), ref.parts())), i
        assert [a.tobytes() for a in _gamma_parts(cert.gamma)] == \
            [a.tobytes() for a in _gamma_parts(gamma)], i
        assert cert.passed, (i, cert.checks)
        zeros += int(np.count_nonzero(out.z.real == 0.0) + np.count_nonzero(out.z.imag == 0.0))
    assert zeros > 0


def _reference_generators(n):
    """The generator list in its documented order, written out by hand."""
    mats = []
    for i, j in [(i, i) for i in range(n)] + [(i, j) for i in range(n) for j in range(i + 1, n)]:
        b = np.zeros((n, n))
        b[i, j] = b[j, i] = 1.0
        for sign in (1.0, -1.0):
            t = np.eye(2 * n)
            t[:n, n:] = sign * b
            mats.append(t)
    for perm in list(permutations(range(n)))[1:]:
        a = np.eye(n)[list(perm)]
        mats.append(np.block([[a.T, np.zeros((n, n))], [np.zeros((n, n)), np.linalg.inv(a)]]))
    for signs in list(product([1.0, -1.0], repeat=n))[1:]:
        mats.append(np.diag(signs + signs))
    mats.append(np.block([[np.zeros((n, n)), -np.eye(n)], [np.eye(n), np.zeros((n, n))]]))
    for k in range(n):
        s = np.eye(2 * n)
        s[np.ix_([k, n + k], [k, n + k])] = [[0.0, -1.0], [1.0, 0.0]]
        mats.append(s)
    return mats


# sha256 of the candidate matrices, signed zeros read as +0.0, in order
_CANDIDATE_DIGESTS = {
    1: (31, "e38dcda1928bc1ee33fc5928c70cd891a4e51a0ae03569aa77c49bf97e113d42"),
    2: (566, "ca9eac58a380174f139edb8d99e23b931caf340413230972691257f9ea7c2a26"),
    3: (412, "3f073bc0e4b3f69d7152f70719ffe368352268d74e64efc3c51c812b07b9934a"),
}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_candidate_set_keeps_its_matrices_and_order(n):
    gens = [g.mat for g in reduction._candidate_generators(n)]
    ref = _reference_generators(n)
    assert len(gens) == len(ref) and all(np.array_equal(a, b) for a, b in zip(gens, ref))
    mats = np.array([g.mat for g in reduction.siegel_candidates(n)]) + 0.0
    assert (len(mats), hashlib.sha256(mats.tobytes()).hexdigest()) == _CANDIDATE_DIGESTS[n]


def test_exact_minors_match_float_determinants():
    rng = np.random.default_rng(4)
    assert not reduction._minors_coprime([[2, 0], [0, 1]])
    assert reduction._minors_coprime([[1, 1], [1, 2]])
    for n in (2, 3):
        vecs, _ = reduction._box(n, reduction.ENUM_BOUND)
        for _ in range(300):
            k = int(rng.integers(1, n + 1))
            rows = vecs[rng.choice(len(vecs), k, replace=False)]
            g = 0
            for cols in combinations(range(n), k):
                g = gcd(g, abs(int(round(np.linalg.det(rows[:, cols].astype(float))))))
            assert reduction._minors_coprime(list(rows)) == (g == 1)


def test_degree_two_orbit_round_trip():
    rng = np.random.default_rng(15)
    cands = reduction.siegel_candidates(2)
    for _ in range(8):
        p = sampling.random_siegel_point(2, rng, y_range=(0.4, 1.6))
        red, _ = reduction.siegel_reduce(p)
        gamma0 = cands[int(rng.integers(0, len(cands)))]
        red2, _ = reduction.siegel_reduce(groups.act_siegel(gamma0, red))
        d1 = np.linalg.det(red.omega.imag)
        d2 = np.linalg.det(red2.omega.imag)
        assert abs(d1 - d2) <= 1e-9 * max(1.0, d1)


def test_jacobi_reduce_worked_example():
    p = spaces.JacobiPoint.create(np.array([[1j]]), np.array([[1.5 + 2.5j]]))
    out, cert = reduction.jacobi_reduce(p)
    assert np.isclose(out.z[0, 0], 0.5 + 0.5j)
    assert cert.passed


def test_jacobi_reduce_identity_heisenberg_when_in_cell():
    p = spaces.JacobiPoint.create(np.array([[0.1 + 1.4j]]), np.array([[0.3 + 0.4 * 1.4j]]))
    out, cert = reduction.jacobi_reduce(p)
    assert np.max(np.abs(cert.gamma.h.lam)) < 1e-12
    assert np.max(np.abs(cert.gamma.h.mu)) < 1e-12
    assert np.allclose(out.z, p.z)


def test_jacobi_reduce_random_cells():
    rng = np.random.default_rng(21)
    for i in range(12):
        n, m = (1, 1) if i % 2 == 0 else (2, 2)
        p = sampling.random_jacobi_point(n, m, rng)
        p = spaces.JacobiPoint(p.omega, 4.0 * p.z)
        out, cert = reduction.jacobi_reduce(p)
        lam, mu = reduction.toroidal_coefficients(out)
        assert np.all(lam >= -1e-12) and np.all(lam < 1.0)
        assert np.all(mu >= -1e-12) and np.all(mu < 1.0)
        assert cert.gamma.is_valid()
        replay = groups.act_jacobi(cert.gamma, p)
        assert np.max(np.abs(replay.omega - out.omega)) <= 1e-9
        assert np.max(np.abs(replay.z - out.z)) <= 1e-9


# integers plus offsets across the cell's lower bound -DOMAIN_SLACK
_EDGE_COEFFS = st.builds(lambda k, e: k + e, st.integers(-3, 3),
                         st.sampled_from([0.0, 1e-13, -1e-13, 5e-13, -5e-13,
                                          2e-12, -2e-12, 1e-11, -1e-11]))


@pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (1, 2), (2, 2)])
@settings(max_examples=40, deadline=None)
@given(coeffs=hnp.arrays(float, (2, 2, 2), elements=_EDGE_COEFFS))
def test_toroidal_cell_edges(n, m, coeffs):
    """Omega is already reduced, so Z = lam + mu Omega reaches the toroidal
    step unchanged: the floors that move it and the cell's bound share one
    slack, and a coefficient just below an integer lands inside the cell."""
    omega = 1j * np.diag([1.0, 1.2][:n])
    lam, mu = coeffs[:, :m, :n]
    out, cert = reduction.jacobi_reduce(spaces.JacobiPoint.create(omega, lam + mu @ omega))
    assert cert.passed
    assert np.array_equal(cert.gamma.sp.mat, np.eye(2 * n))
    for c in reduction.toroidal_coefficients(out):
        assert np.all(c >= -reduction.DOMAIN_SLACK) and np.all(c < 1.0)


# Re(Omega) entries on the domain's edges |Re| = 1/2, and just either side
_HALF_EDGES = st.builds(lambda k, e: k + 0.5 + e, st.integers(-3, 2),
                        st.sampled_from([0.0, 1e-13, -1e-13, 2e-12, -2e-12]))
# Minkowski-reduced Im(Omega) near and below the unit matrix
_EDGE_Y = {2: [np.eye(2), [[1.0, 0.3], [0.3, 1.2]], [[0.6, 0.2], [0.2, 0.7]]],
           3: [np.eye(3), [[1.0, 0.3, 0.1], [0.3, 1.1, 0.4], [0.1, 0.4, 1.3]],
               [[0.6, 0.2, -0.1], [0.2, 0.7, 0.25], [-0.1, 0.25, 0.8]]]}


@pytest.mark.parametrize("n", [2, 3])
@settings(max_examples=40, deadline=None)
@given(re=hnp.arrays(float, (3, 3), elements=_HALF_EDGES), pick=st.integers(0, 2))
def test_real_part_edges(n, re, pick):
    x = np.triu(re[:n, :n])
    omega = x + np.triu(x, 1).T + 1j * np.array(_EDGE_Y[n][pick])
    p = spaces.SiegelPoint.create(omega)
    red, cert = reduction.siegel_reduce(p)
    assert cert.passed, cert.checks
    assert np.max(np.abs(red.omega.real)) <= 0.5 + reduction.DOMAIN_SLACK
    replay = groups.act_siegel(cert.gamma, p)
    assert np.max(np.abs(replay.omega - red.omega)) <= reduction.CERT_TOL


def test_det_im_monotonicity_via_certificate():
    rng = np.random.default_rng(33)
    for _ in range(5):
        p = sampling.random_siegel_point(2, rng, y_range=(0.2, 0.9))
        red, _ = reduction.siegel_reduce(p)
        assert np.linalg.det(red.omega.imag) >= np.linalg.det(p.omega.imag) - 1e-12


def test_translation_in_closed_form_is_the_general_action():
    # siegel_reduce moves by t(b) as Omega + b: the bits of act_siegel(t(b), Omega)
    rng = np.random.default_rng(61)
    for n in (2, 3) * 150:
        p = sampling.random_siegel_point(n, rng)
        b = np.round(rng.uniform(-3.0, 3.0, (n, n)))
        b = 0.5 * (b + b.T)
        moved = groups.act_siegel(groups.translation(b), p)
        assert np.array_equal(moved.omega, p.omega + b)


def test_far_reduced_points_do_not_overflow():
    # |omega|^2 of a point past 1e154 i overflows a float; the point is reduced
    for y in (1e155, 1e300):
        p = spaces.SiegelPoint.create(np.array([[1j * y]]))
        red, cert = reduction.siegel_reduce(p)
        assert np.array_equal(red.omega, p.omega) and cert.passed
        assert np.array_equal(cert.gamma.mat, np.eye(2))
    p = spaces.JacobiPoint.create(np.array([[1e300j]]), np.array([[0.5]]))
    red, cert = reduction.jacobi_reduce(p)
    assert np.array_equal(red.omega, p.omega) and np.array_equal(red.z, p.z) and cert.passed
