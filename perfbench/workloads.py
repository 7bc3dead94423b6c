"""The three workloads: inputs made from a seed, one operation per input
through the public API, and verification that does not trust the library.

Every workload has ``labels`` (one per operation), ``setup()`` (the library's
lazy set-up plus one untimed warm-up operation per operation class),
``run(i)`` (the timed operation), ``verify(i, out)`` (an error message or
None) and ``digest(i, out)`` (a string that identifies the output exactly).
"""
from __future__ import annotations

import hashlib
import os

import numpy as np

import siegeljacobi as sj
from siegeljacobi import cli, reduction, theta

SUITES = ("actions", "cayley", "metrics", "laplacians", "distance", "reduction",
          "jacobiforms", "theta")
CSV_HEADER = "case,lhs,rhs,residual,tol,pass"


def _csv_float(text: str) -> float:
    """A CSV number; under numpy 2 some are written as ``np.float64(x)``."""
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


class Battery:
    """The eight ``check`` suites through ``cli.main``, in order, at ROADMAP's
    seed; one operation is one suite. The CSVs go to ``workdir``.

    The benchmark seed is not used: ROADMAP defines the end-to-end run as
    the suites at seed 2026. At some other seeds ``check --suite theta`` ends
    in an uncaught AccuracyError (ROADMAP open item 5); a strict xfail
    self-test reproduces that crash."""

    name = "battery"
    seed = 2026
    latency_of_pass = True      # eight unlike suites: one latency is the whole list

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.labels = list(SUITES)

    def setup(self):
        reduction.siegel_candidates(2)
        reduction.siegel_candidates(3)

    def _path(self, i):
        return os.path.join(self.workdir, f"{SUITES[i]}.csv")

    def run(self, i):
        return cli.main(["check", "--suite", SUITES[i], "--seed", str(self.seed),
                         "--out", self._path(i)])

    def verify(self, i, rc):
        if rc != 0:
            return f"check --suite {SUITES[i]} exited with {rc}"
        with open(self._path(i)) as handle:
            lines = handle.read().splitlines()
        if not lines or lines[0] != CSV_HEADER or len(lines) < 2:
            return f"{SUITES[i]}: malformed CSV"
        for line in lines[1:]:
            case, _, _, resid, tol, passed = line.rsplit(",", 5)
            resid, tol = _csv_float(resid), _csv_float(tol)
            if passed != "true" or not np.isfinite(resid) or resid > tol:
                return f"{SUITES[i]}: row {case} fails ({resid!r} > {tol!r})"
        return None

    def digest(self, i, rc):
        if rc != 0:
            return f"exit {rc}"
        with open(self._path(i), "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()


def _stratified(rng, count, lo, hi):
    """The midpoints of ``count`` equal slices of [lo, hi], shuffled: every
    seed gets the same values in another order, so the slow tail of a
    workload does not change from seed to seed."""
    return lo + (hi - lo) * (rng.permutation(count) + 0.5) / count


# -- reduce ---------------------------------------------------------------------

REDUCE_OPS = 120
# Spectrum of Im(Omega), log-uniform. Points with eigenvalues down to 0.1
# are held out until the library's Minkowski step is fixed: there a
# highest-point move can leave Im(Omega) too skewed for one Minkowski pass
# over the box ENUM_BOUND = 3, and about one n >= 2 reduction in 400 ends
# with im_minkowski = False. test_known_reduction_certificate_failure
# keeps that case in view.
EIG_RANGE = (0.5, 2.0)
REPLAY_TOL = 1e-9


def _fractional_linear(mat, omega):
    """(A omega + B)(C omega + D)^{-1} and the denominator C omega + D."""
    n = omega.shape[0]
    a, b, c, d = mat[:n, :n], mat[:n, n:], mat[n:, :n], mat[n:, n:]
    den = c @ omega + d
    return np.linalg.solve(den.T, (a @ omega + b).T).T, den


def classical_reduce(w: complex) -> complex:
    """Gauss reduction of one point of the upper half plane: translate the
    real part into [-1/2, 1/2], invert while |w| < 1."""
    for _ in range(10_000):
        w -= round(w.real)
        if abs(w) >= 1.0:
            return w
        w = -1.0 / w
    raise ArithmeticError("classical reduction did not terminate")


class Reduce:
    """Siegel reductions at n = 1, 2, 3 in equal shares; in each degree one
    point in three is a Siegel-Jacobi point with |Z| = 3 (m = 1 or 2) that
    goes through ``jacobi_reduce``."""

    name = "reduce"
    latency_of_pass = False

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng([seed, 1])
        # each eigenvalue of Im(Omega) is stratified over its group of alike
        # operations (same n and kind), so that every seed meets the points
        # that need the most reduction steps equally often
        log_eig = {}
        groups: dict = {}
        for k in range(REDUCE_OPS):
            groups.setdefault((self._degree(k), self._kind(k)), []).append(k)
        for (n, _), members in sorted(groups.items()):
            cols = [_stratified(rng, len(members), *np.log(EIG_RANGE)) for _ in range(n)]
            log_eig.update(zip(members, np.column_stack(cols)))
        self.inputs = [self._point(rng, k, np.exp(log_eig[k])) for k in range(REDUCE_OPS)]
        self.labels = [f"{kind}_n{p.n}" for kind, p in self.inputs]

    @staticmethod
    def _degree(k):
        return 1 + k % 3

    @staticmethod
    def _kind(k):
        return "jacobi" if (k // 3) % 3 == 2 else "siegel"

    @classmethod
    def _point(cls, rng, k, eig):
        n = cls._degree(k)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        y = q @ np.diag(eig) @ q.T
        x = rng.uniform(-2.0, 2.0, (n, n))
        omega = 0.5 * (x + x.T) + 0.5j * (y + y.T)
        if cls._kind(k) == "siegel":
            return "siegel", sj.SiegelPoint.create(omega)
        m = 1 + (k // 9) % 2
        z = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        return "jacobi", sj.JacobiPoint.create(omega, 3.0 * z / np.linalg.norm(z))

    def setup(self):
        reduction.siegel_candidates(2)
        reduction.siegel_candidates(3)
        rng = np.random.default_rng([self.seed, 2])
        for k in (0, 1, 2, 6):      # siegel n = 1, 2, 3 and jacobi
            eig = np.exp(rng.uniform(*np.log(EIG_RANGE), self._degree(k)))
            kind, p = self._point(rng, k, eig)
            (reduction.jacobi_reduce if kind == "jacobi" else reduction.siegel_reduce)(p)

    def run(self, i):
        kind, p = self.inputs[i]
        if kind == "jacobi":
            return reduction.jacobi_reduce(p)
        return reduction.siegel_reduce(p)

    def verify(self, i, out):
        kind, p = self.inputs[i]
        red, cert = out
        if not cert.passed:
            failed = sorted(k for k, v in cert.checks.items() if not v)
            return f"certificate checks failed: {failed}"
        gamma = cert.gamma.sp if kind == "jacobi" else cert.gamma
        omega, den = _fractional_linear(gamma.mat, p.omega)
        err = float(np.max(np.abs(omega - red.omega)))
        if kind == "jacobi":
            h = cert.gamma.h
            z = np.linalg.solve(den.T, (p.z + h.lam @ p.omega + h.mu).T).T
            err = max(err, float(np.max(np.abs(z - red.z))))
            # toroidal cell: Z = lam + mu Omega with 0 <= lam, mu < 1
            mu = red.z.imag @ np.linalg.inv(red.omega.imag)
            lam = red.z.real - mu @ red.omega.real
            if np.any(lam < -1e-12) or np.any(lam >= 1) or np.any(mu < -1e-12) or np.any(mu >= 1):
                return "reduced Z outside the toroidal cell"
        if err > REPLAY_TOL:
            return f"replay of gamma misses the reduced point by {err:.3e}"
        if np.max(np.abs(red.omega.real)) > 0.5 + 1e-12:
            return "reduced Re(Omega) exceeds 1/2"
        if p.n == 1:
            expect = classical_reduce(complex(p.omega[0, 0]))
            err = abs(expect - complex(red.omega[0, 0]))
            if err > REPLAY_TOL:
                return f"degree-1 result differs from the classical algorithm by {err:.3e}"
        return None

    def digest(self, i, out):
        red, _ = out
        parts = [red.omega.tobytes(), getattr(red, "z", np.empty(0)).tobytes()]
        return hashlib.sha256(b"".join(parts)).hexdigest()


# -- theta_weil -------------------------------------------------------------------

THETA_CYCLES = 24           # of 15 operations each
CLASSES = ("gaussian", "gaussian_poly", "width", "chirp")
PHI_RANGE = (0.15, np.pi - 0.15)
V_RANGE = (0.5, 2.0)        # Im(tau); the matrices use the same v
U_RANGE = (-1.5, 1.5)       # Re(tau) and the shear of the matrices
LAW_TOL = 1e-8              # the theta suite's tolerance on the Jacobi-3 law
CLOSED_FORM_TOL = 1e-9


def _heis(lam, mu, kap):
    return sj.HeisenbergElement(np.array([[lam]]), np.array([[mu]]), np.array([[kap]]))


def _width_gaussian(ctx, a):
    """exp(-pi a ||x||^2_M) as a plain closure, outside any fast path."""
    def fn(pts):
        return np.exp(-np.pi * a * ctx.norm_sq(pts)).astype(complex)
    return theta.GridFunction(ctx, fn)


class ThetaWeil:
    """Oscillatory Weil kernels at mn = 1; M is 1 and 2 in alternate cycles
    of 15 operations: 12 ``theta_sum`` (three per input class), two
    ``weil_matrix_action`` evaluated on the lattice, one ``sigma`` generator
    evaluated on the quadrature grid."""

    name = "theta_weil"
    latency_of_pass = False

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng([seed, 3])
        specs = []
        for c in range(THETA_CYCLES):
            for j in range(15):
                kind = "theta_sum" if j < 12 else ("matrix" if j < 14 else "sigma")
                cls = CLASSES[j % 4] if j < 12 else CLASSES[(c + j) % 4]
                specs.append((kind, cls, 1.0 + c % 2))
        # phi, v, u and the input class's own parameter x are stratified
        # within each group of alike operations, so that every seed meets the
        # slow kernels near phi = 0, pi and the costlier inputs equally often
        params = {}
        groups: dict = {}
        for k, (kind, cls, m_val) in enumerate(specs):
            groups.setdefault((kind, cls if kind == "theta_sum" else "", m_val), []).append(k)
        for members in groups.values():
            cols = [_stratified(rng, len(members), *span)
                    for span in (PHI_RANGE, V_RANGE, (0.0, 1.0), U_RANGE)]
            params.update(zip(members, zip(*cols)))
        self.ops = [self._op(rng, kind, cls, m_val, *params[k])
                    for k, (kind, cls, m_val) in enumerate(specs)]
        self.labels = [f"{op['kind']}:{op['cls']}" for op in self.ops]
        warm_rng = np.random.default_rng([seed, 4])
        self._warm = [self._op(warm_rng, "theta_sum", cls, 1.0, 1.0, 1.0, 0.5, 0.0)
                      for cls in CLASSES]
        self._warm += [self._op(warm_rng, kind, "gaussian", 1.0, 1.0, 1.0, 0.5, 0.0)
                       for kind in ("matrix", "sigma")]

    @staticmethod
    def _op(rng, kind, cls, m_val, phi, v, x, u):
        ctx = theta.ThetaContext(np.array([[m_val]]), n=1, n_cut=10)
        op = {"kind": kind, "cls": cls, "M": m_val, "ctx": ctx}
        if cls == "gaussian":
            op["f"] = theta.gaussian(ctx)
        elif cls == "gaussian_poly":
            op["f"] = theta.gaussian_poly(ctx, [[1 + int(2 * x)]])
        elif cls == "width":
            op["a"] = 0.6 + x
            op["f"] = _width_gaussian(ctx, op["a"])
        else:
            op["f"] = theta.weil_generator_action(
                ("t", np.array([[2 * x - 1]]), 1.0), theta.gaussian(ctx), ctx)
        if kind == "theta_sum":
            op["coord"] = theta.SL2Coord(complex(u, v), phi)
            op["h"] = tuple(rng.uniform(-0.9, 0.9, 3))
            op["shift"] = tuple(float(x) for x in rng.integers(-3, 4, 3))
        elif kind == "matrix":
            rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
            op["mat"] = (np.array([[1.0, u], [0.0, 1.0]])
                         @ np.diag([np.sqrt(v), 1 / np.sqrt(v)]) @ rot)
            op["pts"] = np.arange(-10.0, 11.0).reshape(-1, 1, 1)
        else:
            op["pts"] = theta.grid_points(ctx)
        return op

    def setup(self):
        for op in self._warm:
            self._run(op)

    @staticmethod
    def _run(op):
        f, ctx = op["f"], op["ctx"]
        if op["kind"] == "theta_sum":
            return theta.theta_sum(f, ctx, op["coord"], _heis(*op["h"]))
        if op["kind"] == "matrix":
            return theta.weil_matrix_action(op["mat"], f, ctx).eval(op["pts"])
        return theta.weil_generator_action(("sigma", 1.0), f, ctx).eval(op["pts"])

    def run(self, i):
        return self._run(self.ops[i])

    @staticmethod
    def checks_law(i) -> bool:
        """Every fourth group of four theta_sum operations (one per input
        class) is checked: a fixed quarter of them."""
        cycle, j = divmod(i, 15)
        return j < 12 and (3 * cycle + j // 4) % 4 == 0

    def verify(self, i, out):
        op = self.ops[i]
        vals = np.atleast_1d(np.asarray(out, dtype=complex))
        if not np.all(np.isfinite(vals)):
            return "non-finite value"
        if op["kind"] == "theta_sum" and self.checks_law(i):
            lam, mu, kap = op["h"]
            l0, m0, k0 = op["shift"]
            lhs = theta.theta_sum(op["f"], op["ctx"], op["coord"],
                                  _heis(lam + l0, mu + m0, kap + k0 + l0 * mu - m0 * lam))
            rhs = np.exp(1j * np.pi * op["M"] * (k0 + m0 * l0)) * complex(out)
            resid = abs(lhs - rhs) / max(1e-12, abs(rhs))
            if resid > LAW_TOL:
                return f"Jacobi-3 law residual {resid:.3e} > {LAW_TOL}"
        if op["kind"] == "sigma" and op["cls"] in ("gaussian", "width"):
            # sigma maps exp(-pi a M x^2) to a^{-1/2} exp(-pi M x^2 / a)
            a = op.get("a", 1.0)
            x = op["pts"].ravel()
            expect = np.exp(-np.pi * op["M"] * x * x / a) / np.sqrt(a)
            err = float(np.max(np.abs(vals - expect)))
            if err > CLOSED_FORM_TOL:
                return f"sigma misses the closed form by {err:.3e}"
        return None

    def digest(self, i, out):
        return hashlib.sha256(np.asarray(out, dtype=complex).tobytes()).hexdigest()


def make(name: str, seed: int, workdir: str):
    if name == "battery":
        return Battery(workdir)
    if name == "reduce":
        return Reduce(seed)
    if name == "theta_weil":
        return ThetaWeil(seed)
    raise KeyError(name)
