"""Reproducible invariant batteries behind the CLI ``check`` command and the
acceptance suite. Every case compares two independently computed quantities
and records (case, lhs, rhs, residual, tol, pass)."""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import cayley, diffops, fields, geodesics, groups, jacobiforms, metrics
from . import linalg, reduction, sampling, theta
from .diffops import DerivativeTable
from .groups import HeisenbergElement
from .metrics import MetricParams
from .spaces import JacobiDiskPoint, JacobiPoint, SiegelPoint, TangentVector, _Chart, stack


@dataclass
class CheckRow:
    case: str
    lhs: float
    rhs: float
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol

    def csv(self) -> str:
        return (f"{self.case},{float(self.lhs)!r},{float(self.rhs)!r},"
                f"{float(self.residual)!r},{float(self.tol)!r},{str(self.passed).lower()}")


def _row(rows, case, lhs, rhs, tol, scale=1.0):
    lhs_v, rhs_v = complex(lhs), complex(rhs)
    rows.append(CheckRow(case, abs(lhs_v), abs(rhs_v), abs(lhs_v - rhs_v) / scale, tol))


def _gap(p, q):
    """Largest |entry| of p - q over the parts of two points of one space, or
    of two group elements of one kind whose parts are matrices; one per
    stacked entry on stacks."""
    return np.max([np.max(np.abs(a - b), axis=(-2, -1)) for a, b in zip(p.parts(), q.parts())],
                  axis=0)


def _stacked(keys, draws, fn) -> list:
    """Per row, the values of ``fn``, called once per distinct key on the rows
    with that key: each argument is the stack of the rows' draws, and each
    value has one entry per row."""
    out = [None] * len(draws)
    for key in dict.fromkeys(keys):
        idx = [i for i, k in enumerate(keys) if k == key]
        values = fn(*map(stack, zip(*(draws[i] for i in idx))))
        for k, i in enumerate(idx):
            out[i] = [v[k] for v in values]
    return out


# -- actions ------------------------------------------------------------------------

def suite_actions(seed: int = 0):
    rng = np.random.default_rng(seed)
    rows = []
    tol = 1e-10
    degrees = [(1, 1), (2, 1), (2, 2), (3, 1)] * 25
    draws = [(sampling.random_siegel_point(n, rng),
              *(groups.random_symplectic(n, rng, 4) for _ in range(2)),
              sampling.random_jacobi_point(n, m, rng),
              *(groups.random_jacobi(n, m, rng, 4) for _ in range(2)),
              sampling.random_disk_point(n, rng),
              *(groups.random_jacobi(n, m, rng, 4) for _ in range(2)),
              sampling.random_jacobi_disk_point(n, m, rng)) for n, m in degrees]

    def stacked(p, g1, g2, pj, j1, j2, pd, s1, s2, pjd):
        s1, s2 = groups.embed_star(s1), groups.embed_star(s2)
        gaps, valid = [], np.full(len(p.omega), True)
        for act, a, b, q in ((groups.act_siegel, g1, g2, p), (groups.act_jacobi, j1, j2, pj),
                             (groups.act_disk, s1, s2, pd), (groups.act_jacobi_disk, s1, s2, pjd)):
            lhs = act(a.multiply(b), q)
            gaps.append(_gap(lhs, act(a, act(b, q))))
            # a stack that is not valid is asked point by point
            valid &= lhs.is_valid() or np.array([x.is_valid() for x in lhs.unstack()])
        # embedding homomorphism on the very elements used above
        hom = groups.embed_star(j1.multiply(j2))
        return gaps + [valid, _gap(hom, groups.embed_star(j1).multiply(groups.embed_star(j2)))]

    for i, (*gaps, valid, hom) in enumerate(_stacked(degrees, draws, stacked)):
        for name, gap in zip(("siegel", "jacobi", "disk", "jacobi_disk"), gaps):
            rows.append(CheckRow(f"{name}_axiom_{i:03d}", 0.0, 0.0, gap, tol))
        if not valid:
            rows.append(CheckRow(f"validity_{i:03d}", 0.0, 0.0, 1.0, tol))
        rows.append(CheckRow(f"embedding_hom_{i:03d}", 0.0, 0.0, hom, tol))
    return rows


# -- cayley --------------------------------------------------------------------------

def suite_cayley(seed: int = 0):
    rng = np.random.default_rng(seed)
    rows = []
    tols = {"compat_disk": 1e-9, "compat_jacobi": 1e-9, "roundtrip": 1e-12, "roundtrip_disk": 1e-12}
    degrees = ([(1, 1), (2, 1), (2, 2), (3, 2)] * 13)[:50]
    draws = [(sampling.random_disk_point(n, rng), groups.random_symplectic(n, rng, 4),
              sampling.random_jacobi_disk_point(n, m, rng), groups.random_jacobi(n, m, rng, 4),
              sampling.random_jacobi_point(n, m, rng)) for n, m in degrees]

    def stacked(w, mat, pjd, g0, pj):
        star = groups.embed_star(groups.JacobiGroupElement.from_symplectic(mat, pj.m))
        lhs = groups.act_siegel(mat, cayley.cayley(w))
        compat_disk = _gap(lhs, cayley.cayley(groups.act_disk(star, w)))
        lhs = groups.act_jacobi(g0, cayley.partial_cayley(pjd))
        rhs = cayley.partial_cayley(groups.act_jacobi_disk(groups.embed_star(g0), pjd))
        back = cayley.partial_cayley(cayley.partial_cayley_inverse(pj))
        fwd = cayley.partial_cayley_inverse(cayley.partial_cayley(pjd))
        return compat_disk, _gap(lhs, rhs), _gap(back, pj), _gap(fwd, pjd)

    for i, gaps in enumerate(_stacked(degrees, draws, stacked)):
        for (name, tol), gap in zip(tols.items(), gaps):
            rows.append(CheckRow(f"{name}_{i:03d}", 0.0, 0.0, gap, tol))
    return rows


# -- metrics -------------------------------------------------------------------------

def suite_metrics(seed: int = 0):
    rng = np.random.default_rng(seed)
    rows = []
    params = MetricParams(1.0, 1.0)
    degrees = ([(1, 1), (2, 1), (2, 2)] * 17)[:50]
    draws = [(sampling.random_jacobi_point(n, m, rng), sampling.random_tangent(n, m, rng),
              sampling.random_tangent(n, m, rng), groups.random_jacobi(n, m, rng, 3),
              groups.random_symplectic(n, rng, 4), sampling.random_jacobi_disk_point(n, m, rng))
             for n, m in degrees]

    def stacked(p, t1, t2, g, mat, pd):
        """(lhs, rhs, scale) per row family, then the moved Siegel points."""
        base = metrics.jacobi_metric(p, t1, t2, params)
        moved = metrics.jacobi_metric(groups.act_jacobi(g, p), metrics.pushforward(g, p, t1),
                                      metrics.pushforward(g, p, t2), params)
        ps = p.siegel_part()
        ts1, ts2 = (TangentVector.omega_only(t.d_omega) for t in (t1, t2))
        mps = groups.act_siegel(mat, ps)
        base_s = metrics.siegel_metric(ps, ts1, ts2, 1.0)
        moved_s = metrics.siegel_metric(mps, metrics.pushforward(mat, ps, ts1),
                                        metrics.pushforward(mat, ps, ts2), 1.0)
        half = cayley.blocks(cayley.TO_HALF, pd.n)
        t1p, t2p = (TangentVector(*linalg.fractional_linear_differential(
            *half, pd.w, t.d_omega, 2j * pd.eta, 2j * t.d_z)) for t in (t1, t2))
        rhs = metrics.jacobi_metric(cayley.partial_cayley(pd), t1p, t2p, params)
        return (base, moved, base, base_s, moved_s, base_s,
                metrics.jacobi_disk_metric(pd, t1, t2, params), rhs, rhs, mps.unstack())

    names = ("jacobi_invariance", "siegel_invariance", "partial_cayley_isometry")
    for i, (*values, mps) in enumerate(_stacked(degrees, draws, stacked)):
        for name, lhs, rhs, scale in zip(names, values[::3], values[1::3], values[2::3]):
            _row(rows, f"{name}_{i:03d}", lhs, rhs, 1e-12, scale=max(1.0, abs(scale)))
        if i % 5 == 0:    # the power in volume_density is libm's only on a single point
            ps, mat = draws[i][0].siegel_part(), draws[i][4]
            dens = metrics.volume_density(ps)
            dens_m = metrics.volume_density(mps) * abs(metrics.real_jacobian_det(mat, ps))
            _row(rows, f"volume_invariance_{i:03d}", dens, dens_m, 1e-12, scale=max(1.0, abs(dens)))
    # closed form at degree (1, 1), entrywise
    for i in range(10):
        p = sampling.random_jacobi_point(1, 1, rng)
        pairs = (TangentVector(*(b[k] for b in _Chart(p).basis()))
                 for k in np.divmod(np.arange(16), 4))
        gram = metrics.jacobi_metric(p, *pairs, params).real.reshape(4, 4)
        y, v = p.omega[0, 0].imag, p.z[0, 0].imag
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[1, 1] = (y + v * v) / y**3
        expected[2, 2] = expected[3, 3] = 1.0 / y
        expected[0, 2] = expected[2, 0] = expected[1, 3] = expected[3, 1] = -v / y**2
        rows.append(CheckRow(f"closed_form_11_{i:03d}", 0.0, 0.0,
                             float(np.max(np.abs(gram - expected))), 1e-12))
    # the Cayley transform is an isometry of D_n onto H_n
    draws = [(sampling.random_disk_point(n, rng), sampling.random_tangent(n, 0, rng),
              sampling.random_tangent(n, 0, rng)) for n in [1, 2, 3] * 10]

    def isometry(w, t1, t2):
        t1c, t2c = (TangentVector.omega_only(*linalg.fractional_linear_differential(
            *cayley.blocks(cayley.TO_HALF, w.n), w.w, t.d_omega)) for t in (t1, t2))
        return (metrics.disk_metric(w, t1, t2, 1.0),
                metrics.siegel_metric(cayley.cayley(w), t1c, t2c, 1.0))

    for i, (lhs, rhs) in enumerate(_stacked([1, 2, 3] * 10, draws, isometry)):
        _row(rows, f"cayley_isometry_{i:03d}", lhs, rhs, 1e-12, scale=max(1.0, abs(rhs)))
    # Heisenberg translations far out in the fibre, drawing nothing from rng:
    # (lam, mu) = (10^e, 0) at (i, 0), and xi = 10^e (1 - i) at (0, 0) on the
    # disk, carry t = (1, 1) to tangents of squared length exactly 2 and 8
    one, zero = np.ones((1, 1)), np.zeros((1, 1))
    t = TangentVector(one + 0j, one + 0j)
    for space, metric, act, embed, p0, (lam, mu) in (
            ("", metrics.jacobi_metric, groups.act_jacobi, lambda g: g,
             JacobiPoint(1j * one, 0j * one), (1.0, 0.0)),
            ("_disk", metrics.jacobi_disk_metric, groups.act_jacobi_disk, groups.embed_star,
             JacobiDiskPoint(0j * one, 0j * one), (2.0, -2.0))):
        rhs = metric(p0, t, t, params)
        for e in (3, 6, 9, 12):
            h = HeisenbergElement(lam * 10.0**e * one, mu * 10.0**e * one, zero)
            g = embed(groups.JacobiGroupElement.from_heisenberg(h))
            moved = metrics.pushforward(g, p0, t)
            _row(rows, f"heisenberg_far{space}_e{e}", metric(act(g, p0), moved, moved, params),
                 rhs, 1e-12, scale=max(1.0, abs(rhs)))
    return rows


# -- laplacians ----------------------------------------------------------------------

def _compose(f, move):
    """The field q -> f(move(q)), batched when f is: the maps move stacks."""
    def moved(q):
        return f(move(q))

    return fields.batched(moved) if fields.is_batched(f) else moved


def _tables(f, act, g, p):
    """The derivative tables of q -> f(g q) at p and of f at g p, on which an
    operator that commutes with g takes equal values."""
    return DerivativeTable(_compose(f, partial(act, g)), p), DerivativeTable(f, act(g, p))


def suite_laplacians(seed: int = 0):
    rng = np.random.default_rng(seed)
    rows = []
    params = MetricParams(1.0, 1.0)
    # eigenfunction table at degree (1, 1): one table per field at the stack
    # of the 20 points; the Bessel rows keep one table per point, as a stack
    # would multiply the quadrature's temporaries
    points = [sampling.random_jacobi_point(1, 1, rng) for _ in range(20)]
    at_all = stack(points)
    table = {}    # (s, name) -> per point: Laplacian, eigenvalue times f, |f|
    for s in (0.5, 1.7, 2.0):
        for name, lam in fields.eigenfunction_table(s):
            t = DerivativeTable(fields.builtin_field(name, s=s), at_all)
            table[s, name] = diffops.laplacian_jacobi(t, params), lam * t.value, np.abs(t.value)
    for i, p in enumerate(points):
        for s in (0.5, 1.7, 2.0):
            for name, _ in fields.eigenfunction_table(s):
                val, rhs, size = (v[i] for v in table[s, name])
                _row(rows, f"table_{name}_s{s}_{i:02d}", val, rhs, 1e-4, scale=max(1.0, size))
            if i < 5:
                a = (1.0, -1.0, 2.0)[i % 3]
                t = DerivativeTable(fields.builtin_field("bessel", s=s, a=a), p)
                _row(rows, f"table_bessel_s{s}_{i:02d}", diffops.laplacian_jacobi(t, params),
                     s * (s - 1) * t.value, 1e-3, scale=max(1e-6, abs(t.value)))
    # operator invariance on random fields
    for i in range(20):
        n, m = (1, 1) if i % 2 == 0 else (2, 1)
        p = sampling.random_jacobi_point(n, m, rng)
        g = groups.random_jacobi(n, m, rng, 3)
        f = sampling.random_polynomial_field("jacobi", rng)
        tl, tr_ = _tables(f, groups.act_jacobi, g, p)
        lhs_parts = diffops.jacobi_laplacian_parts(tl)
        rhs_parts = diffops.jacobi_laplacian_parts(tr_)
        for name, lhs, rhs in (("part_omega", lhs_parts[0], rhs_parts[0]),
                               ("part_z", lhs_parts[1], rhs_parts[1])):
            _row(rows, f"invariance_{name}_{i:02d}", lhs, rhs, 1e-4, scale=max(1.0, abs(rhs)))
        _row(rows, f"invariance_laplacian_{i:02d}",
             diffops.laplacian_jacobi(tl, params),
             diffops.laplacian_jacobi(tr_, params), 1e-4, scale=max(1.0, abs(rhs_parts[0])))
        ps = p.siegel_part()
        fs = sampling.random_polynomial_field("siegel", rng)
        mat = groups.random_symplectic(n, rng, 3)
        lhs, rhs = map(diffops.laplacian_siegel, _tables(fs, groups.act_siegel, mat, ps))
        _row(rows, f"invariance_siegel_{i:02d}", lhs, rhs, 1e-4, scale=max(1.0, abs(rhs)))
        # disk operators
        nd, md = (1, 1) if i % 3 == 0 else ((1, 2) if i % 3 == 1 else (2, 1))
        pd = sampling.random_jacobi_disk_point(nd, md, rng, radius=0.4)
        gs = groups.embed_star(groups.random_jacobi(nd, md, rng, 3))
        fd = sampling.random_polynomial_field("jacobi_disk", rng)
        tld, trd = _tables(fd, groups.act_jacobi_disk, gs, pd)
        ops = ["s1", "s2"] + [f"j:{k},{l}" for k in range(md) for l in range(md)]
        if nd == 1:
            ops.append("s3")
        for op in ops:
            lhs = diffops.disk_operator(tld, op)
            rhs = diffops.disk_operator(trd, op)
            op_id = op.replace(":", "").replace(",", "")
            _row(rows, f"invariance_{op_id}_{i:02d}", lhs, rhs, 1e-4, scale=max(1.0, abs(rhs)))
        if i % 4 == 0:
            lhs = diffops.laplacian_disk(DerivativeTable(fd, pd), params)
            f_h = _compose(fd, cayley.partial_cayley_inverse)
            rhs = diffops.laplacian_jacobi(DerivativeTable(f_h, cayley.partial_cayley(pd)), params)
            _row(rows, f"transport_disk_laplacian_{i:02d}", lhs, rhs, 1e-3,
                 scale=max(1.0, abs(rhs)))
    # unitary invariance of the polynomial generators
    for i in range(10):
        n, m = (2, 1) if i % 2 == 0 else (3, 2)
        om = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        om = 0.5 * (om + om.T)
        z = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        h = linalg.random_unitary(n, rng)
        names = [f"q:{j}" for j in range(1, n + 1)]
        names += [f"psi:0,{2 * k},0:1,1" for k in range(n)]
        names += [f"psi:1,{2 * k},0:1,1" for k in range(n)]
        for nm in names:
            v1 = diffops.invariant_polynomial(nm, om, z)
            v2 = diffops.invariant_polynomial(nm, h @ om @ h.T, z @ h.T)
            _row(rows, f"poly_unitary_{nm.replace(':', '_').replace(',', '')}_{i:02d}",
                 v1, v2, 1e-10, scale=max(1.0, abs(v1)))
    return rows


# -- distance ------------------------------------------------------------------------

# the axis_exact rows: i diag(a) against i diag(r a), every entry moved by r
_AXIS_DIAG = (1.0, 2.5, 0.4)
_AXIS_RATIOS = (1 - 1e-12, 1 + 1e-12, 1 + 1e-9, 1 + 1e-6, 1 + 1e-3, 0.5, 2.0,
                1e3, 1e6, 1e9, 1e12, 1e15, 1e-15)


def _axis_distance(a, b) -> float:
    """The norm of log b - log a for positive vectors, per entry log1p((b - a) / a)
    where b / a is in [1/2, 2] (there b - a is exact), else log b - log a."""
    near = (0.5 <= b / a) & (b / a <= 2.0)
    return float(np.linalg.norm(np.where(near, np.log1p((b - a) / a), np.log(b) - np.log(a))))


def suite_distance(seed: int = 0):
    rng = np.random.default_rng(seed)
    rows = []
    base = SiegelPoint(np.array([[1j]]))
    for a in (2.0, 5.0, 10.0):
        d = geodesics.siegel_distance(base, SiegelPoint(np.array([[a * 1j]])))
        _row(rows, f"axis_log_{a}", d, np.log(a), 1e-10)
    draws = [(sampling.random_siegel_point(n, rng), sampling.random_siegel_point(n, rng),
              groups.random_symplectic(n, rng, 4)) for n in [1, 2, 3] * 20]

    def isometry(p0, p1, mat):
        q0, q1 = groups.act_siegel(mat, p0), groups.act_siegel(mat, p1)
        eig0, eig1 = (geodesics.cross_ratio_eigenvalues(*pair) for pair in ((p0, p1), (q0, q1)))
        return (geodesics.siegel_distance(p0, p1), geodesics.siegel_distance(q0, q1),
                geodesics.siegel_distance(p1, p0), np.max(np.abs(eig0 - eig1), axis=-1))

    for i, (d, moved, swapped, spectrum) in enumerate(_stacked([1, 2, 3] * 20, draws, isometry)):
        _row(rows, f"isometry_{i:03d}", d, moved, 1e-8)
        _row(rows, f"symmetry_{i:03d}", d, swapped, 1e-10)
        _row(rows, f"series_{i:03d}", d, geodesics.siegel_distance_series(*draws[i][:2]), 1e-12)
        rows.append(CheckRow(f"cross_ratio_spectrum_{i:03d}", 0.0, 0.0, spectrum, 1e-9))
    draws = [tuple(sampling.random_siegel_point(n, rng) for _ in range(3)) for n in [1, 2] * 100]

    def slack(p0, p1, p2):
        return [geodesics.siegel_distance(p0, p2) + geodesics.siegel_distance(p2, p1)
                - geodesics.siegel_distance(p0, p1)]

    worst = 0.0
    for (s,) in _stacked([1, 2] * 100, draws, slack):
        worst = max(worst, -s)
    rows.append(CheckRow("triangle_inequality", 0.0, 0.0, worst, 1e-10))
    logs = np.log(np.array([2.0, 0.4, 3.0]))
    for n in (1, 2, 3):
        a = np.exp(logs[:n] / np.linalg.norm(logs[:n]))
        st = [rng.uniform(-2.0, 2.0, 2) for _ in range(6)]
        d = geodesics.siegel_distance(*(stack([geodesics.special_geodesic(a, x) for x in col])
                                        for col in zip(*st)))
        for j, (s, t) in enumerate(st):
            _row(rows, f"unit_speed_n{n}_{j}", d[j], abs(s - t), 1e-8)
    for n in (1, 2, 3):
        a = np.array(_AXIS_DIAG[:n])
        d = geodesics.siegel_distance(*(SiegelPoint(np.stack([1j * np.diag(r * a) for r in ratios]))
                                        for ratios in ([1.0] * len(_AXIS_RATIOS), _AXIS_RATIOS)))
        for j, r in enumerate(_AXIS_RATIOS):
            exact = _axis_distance(a, r * a)
            _row(rows, f"axis_exact_n{n}_{j:02d}", d[j], exact, 1e-13, scale=exact)
    return rows


# -- reduction -----------------------------------------------------------------------

def _oracle_degree_one(omega: complex) -> complex:
    for _ in range(500):
        omega = omega - round(omega.real)
        if abs(omega) < 1.0 - 1e-15:
            omega = -1.0 / omega
        else:
            break
    return omega


def suite_reduction(seed: int = 0):
    rng = np.random.default_rng(seed)
    rows = []
    worst = 0.0
    domain_ok = True
    cert_ok = True
    for _ in range(200):
        omega = complex(rng.uniform(-3.0, 3.0), rng.uniform(0.05, 3.0))
        p = SiegelPoint(np.array([[omega]]))
        red, cert = reduction.siegel_reduce(p)
        r = complex(red.omega[0, 0])
        worst = max(worst, abs(r - _oracle_degree_one(omega)))
        domain_ok &= abs(r.real) <= 0.5 + 1e-12 and abs(r) >= 1.0 - 1e-12
        cert_ok &= _gap(groups.act_siegel(cert.gamma, p), red) <= 1e-9
    rows.append(CheckRow("n1_oracle_match", 0.0, 0.0, worst, 1e-9))
    rows.append(CheckRow("n1_domain_conditions", 0.0, 0.0, 0.0 if domain_ok else 1.0, 0.5))
    rows.append(CheckRow("n1_certificates", 0.0, 0.0, 0.0 if cert_ok else 1.0, 0.5))
    viol_count = 0
    for i in range(25):
        p = sampling.random_siegel_point(2, rng, y_range=(0.3, 2.0))
        red, cert = reduction.siegel_reduce(p)
        viol_count += sum([not cert.passed, np.max(np.abs(red.omega.real)) > 0.5 + 1e-12,
                           bool(reduction.minkowski_violations(red.omega.imag))])
        g0 = reduction.siegel_candidates(2)[int(rng.integers(0, 80))]
        red2, _ = reduction.siegel_reduce(groups.act_siegel(g0, red))
        d1, d2 = (float(np.linalg.det(r.omega.imag)) for r in (red, red2))
        _row(rows, f"n2_orbit_det_im_{i:02d}", d1, d2, 1e-9, scale=max(1.0, abs(d1)))
    rows.append(CheckRow("n2_zero_violations", 0.0, 0.0, float(viol_count), 0.5))
    for i in range(12):
        n, m = (1, 1) if i % 2 == 0 else (2, 2)
        p = sampling.random_jacobi_point(n, m, rng)
        p = JacobiPoint(p.omega, 3.0 * p.z)
        out, cert = reduction.jacobi_reduce(p)
        lam, mu = reduction.toroidal_coefficients(out)
        in_cell = (np.all(lam >= -1e-12) and np.all(lam < 1.0)
                   and np.all(mu >= -1e-12) and np.all(mu < 1.0))
        rows.append(CheckRow(f"jacobi_cell_{i:02d}", 0.0, 0.0,
                             0.0 if (in_cell and cert.passed) else 1.0, 0.5))
        rows.append(CheckRow(f"jacobi_replay_{i:02d}", 0.0, 0.0,
                             _gap(groups.act_jacobi(cert.gamma, p), out), 1e-9))
    return rows


# -- jacobiforms ---------------------------------------------------------------------

def _fd_m_operator_degree_one(series, p: JacobiPoint) -> complex:
    """Independent oracle: apply det(Y) (d/dY + M^{-1}/(8 pi) d^2/dV^2) by
    central differences of step 1e-4 to the series evaluation (degree n = 1)."""
    h = 1e-4
    y = p.omega[0, 0].imag
    minv = 1.0 / series.index.m_mat[0, 0]

    def at(dy, dv):
        return jacobiforms.fourier_eval(
            series, JacobiPoint(p.omega + 1j * dy, p.z + 1j * dv))

    d_y = (at(h, 0) - at(-h, 0)) / (2 * h)
    d_vv = (at(0, h) - 2 * at(0, 0) + at(0, -h)) / h**2
    return y * (d_y + minv / (8 * np.pi) * d_vv)


def _synthetic_series(singular: bool, rng):
    """Twenty random index-1 terms, all on the singular locus or all off it."""
    idx = jacobiforms.JacobiFormIndex(np.array([[1.0]]), weight=0)
    terms = []
    for _ in range(20):
        if singular:
            k = int(rng.integers(0, 4))
            t, r = float(k * k), float(2 * k * (1 if rng.uniform() < 0.5 else -1))
        else:
            t = float(rng.integers(1, 5))
            r = float(rng.integers(-1, 2))
            if abs(t - r * r / 4.0) < 1e-9:
                t += 1.0
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        terms.append((np.array([[t]]), np.array([[r]]), c))
    return jacobiforms.FourierSeries.build(1, idx, terms)


def suite_jacobiforms(seed: int = 0):
    rng = np.random.default_rng(seed)
    rows = []
    degrees = [(1, 1), (2, 1), (2, 2)]
    for i in range(60):
        n, m = degrees[i % 3]
        idx = jacobiforms.JacobiFormIndex(np.eye(m) * (1 + i % 2), weight=int(rng.integers(-3, 4)))
        g1 = groups.random_jacobi(n, m, rng, 3)
        g2 = groups.random_jacobi(n, m, rng, 3)
        p = sampling.random_jacobi_point(n, m, rng)
        lhs = jacobiforms.automorphic_factor(idx, g1.multiply(g2), p)
        rhs = (jacobiforms.automorphic_factor(idx, g1, groups.act_jacobi(g2, p))
               * jacobiforms.automorphic_factor(idx, g2, p))
        _row(rows, f"cocycle_{i:03d}", lhs, rhs, 1e-8, scale=max(1e-12, abs(rhs)))
    for i in range(40):
        n, m = degrees[i % 2]
        idx = jacobiforms.JacobiFormIndex(np.eye(m), weight=1)
        g1 = groups.random_jacobi(n, m, rng, 2)
        g2 = groups.random_jacobi(n, m, rng, 2)
        f = sampling.random_polynomial_field("jacobi", rng)
        p = sampling.random_jacobi_point(n, m, rng)
        lhs = jacobiforms.slash(jacobiforms.slash(f, idx, g1), idx, g2)(p)
        rhs = jacobiforms.slash(f, idx, g1.multiply(g2))(p)
        _row(rows, f"slash_composition_{i:03d}", lhs, rhs, 1e-8,
             scale=max(1e-12, abs(rhs)))
    # singular gate vs operator annihilation (with the FD oracle riding along)
    sing = _synthetic_series(True, rng)
    mixed = _synthetic_series(False, rng)
    rows.append(CheckRow("gate_singular_series", 1.0, 1.0,
                         0.0 if jacobiforms.is_singular(sing) else 1.0, 0.5))
    rows.append(CheckRow("gate_mixed_series", 0.0, 0.0,
                         0.0 if not jacobiforms.is_singular(mixed) else 1.0, 0.5))
    for i in range(10):
        p = sampling.random_jacobi_point(1, 1, rng)
        val_sing = jacobiforms.apply_m_operator(sing, p)
        scale = max(1.0, abs(jacobiforms.fourier_eval(sing, p)))
        _row(rows, f"annihilation_{i:02d}", val_sing, 0.0, 1e-8, scale=scale)
        val_mixed = jacobiforms.apply_m_operator(mixed, p)
        fd = _fd_m_operator_degree_one(mixed, p)
        _row(rows, f"m_operator_fd_{i:02d}", val_mixed, fd, 1e-4,
             scale=max(1.0, abs(fd)))
        # relative to the series' own size, the sum of its terms' moduli
        size = sum(abs(mixed.term(t, r, c, p)) for t, r, c in mixed.items())
        rows.append(CheckRow(f"nonannihilation_{i:02d}", abs(val_mixed), 0.0,
                             0.0 if abs(val_mixed) > 1e-6 * size else 1.0, 0.5))
    # degree-lowering projection vs large-parameter evaluation
    idx2 = jacobiforms.JacobiFormIndex(np.array([[1.0]]), weight=0)
    terms = [(np.diag([1.0, 0.0]), np.array([[2.0], [0.0]]), 1.0),
             (np.diag([2.0, 0.0]), np.array([[1.0], [0.0]]), 0.5 - 0.1j),
             (np.diag([0.0, 0.0]), np.array([[0.0], [0.0]]), 0.3),
             (np.array([[1.0, 0.5], [0.5, 1.0]]), np.array([[1.0], [1.0]]), 2.0)]
    s2 = jacobiforms.FourierSeries.build(2, idx2, terms)
    proj = jacobiforms.siegel_jacobi_operator(s2, 1)
    for i in range(6):
        p1 = sampling.random_jacobi_point(1, 1, rng)
        big = JacobiPoint(np.array([[p1.omega[0, 0], 0.0], [0.0, 50.0j]]),
                          np.array([[p1.z[0, 0], 0.0]]))
        _row(rows, f"projection_limit_{i:02d}", jacobiforms.fourier_eval(proj, p1),
             jacobiforms.fourier_eval(s2, big), 1e-8)
    # pluriharmonic invariance
    P = jacobiforms.Polynomial
    s_mat = np.array([[2.0, 0.5], [0.5, 1.0]])
    t_mat = np.linalg.inv(s_mat)
    w, q = np.linalg.eigh(s_mat)
    s_half = (q * np.sqrt(w)) @ q.T
    s_mhalf = np.linalg.inv(s_half)
    base_polys = {
        "quadratic": (P.variable(2, 1, 0, 0) * P.variable(2, 1, 0, 0)).scale(t_mat[1, 1])
                     - (P.variable(2, 1, 1, 0) * P.variable(2, 1, 1, 0)).scale(t_mat[0, 0]),
        "linear": P.variable(2, 1, 0, 0) + P.variable(2, 1, 1, 0).scale(2.0),
    }
    for name, poly in base_polys.items():
        rows.append(CheckRow(f"pluriharmonic_{name}", 1.0, 1.0,
                             0.0 if jacobiforms.is_pluriharmonic(poly, s_mat) else 1.0, 0.5))
        for i in range(5):
            a = rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1))
            # orthogonal for the row pairing: b s_mat t(b) = s_mat
            b = s_half @ _random_orthogonal(2, rng) @ s_mhalf
            moved = poly.transform(a, b)
            rows.append(CheckRow(f"pluriharmonic_moved_{name}_{i}", 1.0, 1.0,
                                 0.0 if jacobiforms.is_pluriharmonic(moved, s_mat) else 1.0,
                                 0.5))
    rows.append(CheckRow("pluriharmonic_negative", 0.0, 0.0,
                         0.0 if not jacobiforms.is_pluriharmonic(
                             P.variable(1, 1, 0, 0) * P.variable(1, 1, 0, 0), np.eye(1))
                         else 1.0, 0.5))
    return rows


def _random_orthogonal(n: int, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diagonal(r))


# -- theta ---------------------------------------------------------------------------

def suite_theta(seed: int = 0):
    rng = np.random.default_rng(seed)
    rows = []

    def hb(lam, mu, kap=0.0):
        return HeisenbergElement(np.array([[lam]]), np.array([[mu]]), np.array([[kap]]))

    ctx1 = theta.ThetaContext(np.array([[1.0]]), n=1, n_cut=10)
    f1 = theta.gaussian(ctx1)
    direct = sum(np.exp(-np.pi * w * w) for w in range(-8, 9))
    _row(rows, "lattice_sum_origin", theta.theta_sum(f1, ctx1, theta.SL2Coord(1j, 0.0),
                                                     hb(0, 0)), direct, 1e-10)
    for i in range(20):
        m_val = 1.0 if i % 2 == 0 else 2.0
        ctx = theta.ThetaContext(np.array([[m_val]]), n=1, n_cut=10)
        f = theta.gaussian(ctx) if i % 3 else theta.gaussian_poly(ctx, [[2]])
        tau = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.5, 2.0))
        phi = rng.uniform(0.15, np.pi - 0.15)
        lam, mu, kap = rng.uniform(-0.9, 0.9, 3)
        s = float(rng.integers(-3, 4))
        base = theta.theta_sum(f, ctx, theta.SL2Coord(tau, phi), hb(lam, mu, kap))
        moved = theta.theta_sum(f, ctx, theta.SL2Coord(tau + 2, phi),
                                hb(lam, s - 2 * lam + mu, kap - s * lam))
        _row(rows, f"jacobi2_{i:02d}", moved, base, 1e-8, scale=max(1e-12, abs(base)))
        l0, m0, k0 = (float(x) for x in rng.integers(-3, 4, 3))
        lhs = theta.theta_sum(f, ctx, theta.SL2Coord(tau, phi),
                              hb(lam + l0, mu + m0, kap + k0 + l0 * mu - m0 * lam))
        rhs = np.exp(1j * np.pi * m_val * (k0 + m0 * l0)) * base
        _row(rows, f"jacobi3_{i:02d}", lhs, rhs, 1e-8, scale=max(1e-12, abs(rhs)))
        if m_val == 1.0:
            lhs1 = theta.theta_sum(f, ctx, theta.SL2Coord(-1 / tau, phi + np.angle(tau)),
                                   hb(-mu, lam, kap))
            sgn = np.sign(np.sin(phi) * np.sin(phi + np.angle(tau)))
            rhs1 = np.exp(-1j * np.pi * sgn / 4.0) * base
            _row(rows, f"jacobi1_{i:02d}", lhs1, rhs1, 1e-3, scale=max(1e-12, abs(rhs1)))
    # product invariance under the three generator families
    s_mat = np.array([[0.0, -1.0], [1.0, 0.0]])
    t_star = np.array([[1.0, 2.0], [0.0, 1.0]])
    g1 = theta.gaussian(ctx1)
    g2 = theta.gaussian_poly(ctx1, [[2]])
    for i in range(8):
        tau = complex(rng.uniform(-1.2, 1.2), rng.uniform(0.6, 1.8))
        phi = rng.uniform(0.25, np.pi - 0.25)
        coord = theta.SL2Coord(tau, phi)
        lam, mu = rng.uniform(-0.8, 0.8, 2)
        base = abs(theta.theta_sum(g1, ctx1, coord, hb(lam, mu))
                   * np.conj(theta.theta_sum(g2, ctx1, coord, hb(lam, mu))))
        for name, gm, l0, m0, tol in (
                ("S", s_mat, 0.0, 0.0, 1e-3),
                ("Tstar", t_star, 0.0, float(rng.integers(-2, 3)), 1e-8),
                ("transl", np.eye(2), float(rng.integers(-2, 3)),
                 float(rng.integers(-2, 3)), 1e-8)):
            nc, nl, nm_ = theta.theta_left_translate(coord, lam, mu, gm, l0, m0)
            moved = abs(theta.theta_sum(g1, ctx1, nc, hb(float(nl), float(nm_)))
                        * np.conj(theta.theta_sum(g2, ctx1, nc, hb(float(nl), float(nm_)))))
            _row(rows, f"gamma2_{name}_{i:02d}", moved, base, tol, scale=max(1e-12, base))
    # Stone-von Neumann residual per generator
    for m_val in (1.0, 2.0):
        ctx = theta.ThetaContext(np.array([[m_val]]), n=1)
        f = theta.gaussian(ctx)
        h = hb(0.4, -0.3, 0.2)
        for gen in (("t", np.array([[0.7]]), 1.0), ("g", np.array([[1.4]]), 1.0),
                    ("sigma", 1.0)):
            r = theta.stone_von_neumann_residual(gen, h, f, ctx)
            rows.append(CheckRow(f"svn_{gen[0]}_M{int(m_val)}", 0.0, 0.0, r, 1e-6))
    # Iwasawa round trips and composition
    worst_rt = worst_cp = 0.0
    for _ in range(40):
        mats = []
        for _k in range(2):
            a = rng.standard_normal((2, 2))
            while abs(np.linalg.det(a)) < 0.2:
                a = rng.standard_normal((2, 2))
            a /= np.sqrt(abs(np.linalg.det(a)))
            if np.linalg.det(a) < 0:
                a[:, 0] *= -1
            mats.append(a)
        c1, c2 = theta.iwasawa(mats[0]), theta.iwasawa(mats[1])
        worst_rt = max(worst_rt, float(np.max(np.abs(c1.matrix() - mats[0]))))
        c3 = theta.iwasawa_compose(c1, c2)
        worst_cp = max(worst_cp, float(np.max(np.abs(c3.matrix() - mats[0] @ mats[1]))))
    rows.append(CheckRow("iwasawa_roundtrip", 0.0, 0.0, worst_rt, 1e-10))
    rows.append(CheckRow("iwasawa_composition", 0.0, 0.0, worst_cp, 1e-10))
    # cocycle table (frozen sign evaluations)
    s = np.array([[0.0, -1.0], [1.0, 0.0]])
    t_low = np.array([[1.0, 0.0], [1.0, 1.0]])
    t_up = np.array([[1.0, 1.0], [0.0, 1.0]])
    table = [("S_S", s, s, 1.0 + 0j),
             ("S_Tlow", s, t_low, np.exp(-1j * np.pi / 4)),
             ("Tlow_S", t_low, s, np.exp(-1j * np.pi / 4)),
             ("Tup_S", t_up, s, 1.0 + 0j),
             ("S_Tup", s, t_up, 1.0 + 0j),
             ("Tlow_Tlow", t_low, t_low, np.exp(-1j * np.pi / 4)),
             ("Sneg_S", -s, s, 1.0 + 0j),
             ("S_TlowInv", s, np.array([[1.0, 0.0], [-1.0, 1.0]]), np.exp(1j * np.pi / 4))]
    for name, m1, m2, expected in table:
        _row(rows, f"cocycle_{name}", theta.cocycle(m1, m2, 1, 1), expected, 1e-14)
    return rows


SUITES = {
    "actions": suite_actions,
    "cayley": suite_cayley,
    "metrics": suite_metrics,
    "laplacians": suite_laplacians,
    "distance": suite_distance,
    "reduction": suite_reduction,
    "jacobiforms": suite_jacobiforms,
    "theta": suite_theta,
}


def run_suite(name: str, seed: int = 0):
    return SUITES[name](seed=seed)
