"""Spans around the library's public functions, installed from outside.

``instrument(tracer)`` replaces each listed function by a wrapper that
records a span (name, start, end, parent, op id) while ``tracer.on`` is set,
in the defining module and in every module that holds a from-imported copy.
``DerivativeTable.__init__`` is patched in place, so ``isinstance`` still
holds, and the field it is given is wrapped so that every in-table field
evaluation is a span of its own. ``layer_metrics`` turns the spans and counts
into the per-layer metrics of ``BENCHMARK.json``.
"""
from __future__ import annotations

import importlib
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from workloads import SUITES

# module -> public functions wrapped as spans named "<module>.<function>"
SPANNED = {
    "groups": ["act_siegel", "act_jacobi", "act_disk", "act_jacobi_disk",
               "random_symplectic", "random_jacobi", "embed_star"],
    "linalg": ["safe_solve", "safe_inv"],
    "diffops": ["laplacian_siegel", "jacobi_laplacian_parts", "laplacian_jacobi",
                "disk_eta_trace", "disk_w_part", "laplacian_disk", "disk_eta_entry",
                "eta_pair_value", "disk_eta_determinant", "disk_operator",
                "invariant_polynomial"],
    "reduction": ["siegel_reduce", "jacobi_reduce", "certificate_checks",
                  "minkowski_reduce", "minkowski_violations", "toroidal_coefficients",
                  "siegel_candidates"],
    "theta": ["theta_sum", "weil_generator_action", "weil_matrix_action",
              "weil_sl2_action", "schrodinger_action", "stone_von_neumann_residual",
              "iwasawa", "iwasawa_compose", "cocycle", "theta_left_translate",
              "gaussian", "gaussian_poly", "lattice_points", "grid_points",
              "_chunked_kernel_sum"],
    "metrics": ["siegel_metric", "jacobi_metric", "disk_metric", "jacobi_disk_metric",
                "volume_density", "map_differential", "pushforward", "real_jacobian_det"],
    "cayley": ["cayley", "cayley_inverse", "partial_cayley", "partial_cayley_inverse",
               "to_disk", "to_half_space"],
    "geodesics": ["cross_ratio", "cross_ratio_eigenvalues", "siegel_distance",
                  "siegel_distance_series", "special_geodesic"],
    "jacobiforms": ["automorphic_factor", "slash", "fourier_eval", "is_singular",
                    "apply_m_operator", "siegel_jacobi_operator", "is_pluriharmonic",
                    "pluriharmonic_defects", "singular_gate_determinant"],
    "fields": ["bessel_k", "builtin_field", "eigenfunction_table"],
    "sampling": ["random_siegel_point", "random_jacobi_point", "random_disk_point",
                 "random_jacobi_disk_point", "random_point", "random_tangent",
                 "random_polynomial_field"],
    "cli": ["main"],
}
GRID_METHODS = ["eval", "samples"]   # theta.GridFunction: where closures run
TABLE = "diffops.DerivativeTable"
FIELD = "diffops.field"


class Tracer:
    """Spans kept in flat arrays; ``counts`` holds counters set at the same
    boundaries. ``op`` is the id of the operation the workload is running."""

    def __init__(self):
        self.on = False
        self.op = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.worst_ratio = 0.0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None, errors=()):
        """Wrapper recording one span per call while tracing is on.
        ``after(args, result)`` updates counts; exceptions of the ``errors``
        types are counted under ``name + ".errors"`` and re-raised."""
        nid = self.name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            tracer.name.append(nid)
            tracer.parent.append(tracer.stack[-1])
            tracer.op_id.append(tracer.op)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer.stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except errors as exc:
                # count each exception once, at the innermost span it leaves
                if not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True
                    tracer.counts[name + ".errors"] += 1
                raise
            finally:
                t1 = perf_counter()
                tracer.stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def arrays(self):
        """(names, name, parent, op, start, end) as numpy arrays."""
        return (list(self.names), np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.op_id, dtype=np.int32),
                np.frombuffer(self.start), np.frombuffer(self.end))

    def save(self, path: str) -> None:
        names, name, parent, op, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(names), name=name, parent=parent,
                            op=op, start=start, end=end)


def _replace_everywhere(orig, new, patches) -> None:
    """Point every siegeljacobi module attribute holding ``orig`` at ``new``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "siegeljacobi" or mod_name.startswith("siegeljacobi.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                patches.append((mod, attr, orig))
                setattr(mod, attr, new)


@contextmanager
def instrument(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore."""
    from siegeljacobi import checks, diffops, errors, theta

    patches: list = []
    counts = tracer.counts

    def rows_after(args, rows):
        counts["checks.rows"] += len(rows)
        for r in rows:
            if r.tol > 0:
                tracer.worst_ratio = max(tracer.worst_ratio, r.residual / r.tol)

    def reduce_after(args, result):
        counts["reduction.iterations"] += result[1].iterations

    def grid_after(args, result):
        counts["theta.quad_nodes"] += result.shape[0]

    def kernel_after(args, result):
        counts["theta.phase_entries"] += args[1].shape[0] * args[2].shape[0]

    hooks = {
        "reduction.siegel_reduce": (reduce_after, ()),
        "theta.grid_points": (grid_after, ()),
        "theta._chunked_kernel_sum": (kernel_after, ()),
        "linalg.safe_solve": (None, (errors.NumericError,)),
        "linalg.safe_inv": (None, (errors.NumericError,)),
        "theta.theta_sum": (None, (errors.AccuracyError, errors.NumericError)),
    }
    table_init = diffops.DerivativeTable.__init__

    def init(self, f, *args, **kwargs):
        counted = tracer.wrap(FIELD, f)
        counted.radius = getattr(f, "radius", np.inf)
        table_init(self, counted, *args, **kwargs)
        self._f = f

    try:
        for mod_name, funcs in SPANNED.items():
            mod = importlib.import_module(f"siegeljacobi.{mod_name}")
            for fname in funcs:
                orig = getattr(mod, fname)
                span = f"{mod_name}.{fname}"
                after, errs = hooks.get(span, (None, ()))
                if span == "reduction.certificate_checks":
                    wrapped = _by_degree(tracer, orig)
                else:
                    wrapped = tracer.wrap(span, orig, after, errs)
                _replace_everywhere(orig, wrapped, patches)
        # theta kernels are closures that run inside GridFunction methods
        for meth in GRID_METHODS:
            orig = getattr(theta.GridFunction, meth)
            patches.append((theta.GridFunction, meth, orig))
            setattr(theta.GridFunction, meth,
                    tracer.wrap(f"theta.GridFunction.{meth}", orig, None,
                                (errors.AccuracyError, errors.NumericError)))
        for suite in SUITES:
            orig = checks.SUITES[suite]
            wrapped = tracer.wrap(f"checks.{suite}", orig, rows_after)
            patches.append((checks.SUITES, suite, orig))
            checks.SUITES[suite] = wrapped
            _replace_everywhere(orig, wrapped, patches)
        patches.append((diffops.DerivativeTable, "__init__", table_init))
        diffops.DerivativeTable.__init__ = tracer.wrap(TABLE, init)
        yield tracer
    finally:
        for owner, attr, orig in reversed(patches):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)


def _by_degree(tracer: Tracer, orig):
    """certificate_checks spans carry the degree: one name per n."""
    wrappers = {}

    def dispatch(original, reduced, *args, **kwargs):
        n = reduced.n
        if n not in wrappers:
            wrappers[n] = tracer.wrap(f"reduction.certificate_checks.n{n}", orig)
        return wrappers[n](original, reduced, *args, **kwargs)

    return dispatch


def span_stats(tracer: Tracer):
    """Per span name: (count, inclusive seconds, self seconds), plus the
    parent name of every span. Self time is a span's duration minus the
    durations of its direct children, which nest inside it."""
    names, name, parent, _, start, end = tracer.arrays()
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_t = dur - child
    stats = {}
    for nid, nm in enumerate(names):
        sel = name == nid
        stats[nm] = (int(np.count_nonzero(sel)), float(dur[sel].sum()), float(self_t[sel].sum()))
    parent_name = np.full(len(dur), -1, dtype=np.int32)
    parent_name[has_parent] = name[parent[has_parent]]
    return stats, parent_name, self_t


def layer_metrics(tracer: Tracer, untraced_s: float, traced_s: float) -> dict:
    """The per-layer metrics (name -> (value, unit)) of one traced pass."""
    stats, parent_name, _ = span_stats(tracer)
    name = tracer.arrays()[1]
    counts = tracer.counts

    def tot(prefixes, field):
        col = {"count": 0, "incl": 1, "self": 2}[field]
        return sum(v[col] for k, v in stats.items()
                   if any(k == p or k.startswith(p + ".") for p in prefixes))

    def mean(prefixes, scale):
        c = tot(prefixes, "count")
        return tot(prefixes, "incl") / c * scale if c else 0.0

    def ids(names_):
        return [tracer._ids[n] for n in names_ if n in tracer._ids]

    acts = [f"groups.{f}" for f in SPANNED["groups"][:4]]
    randoms = [f"groups.{f}" for f in SPANNED["groups"][4:]]
    solves = ["linalg.safe_solve", "linalg.safe_inv"]
    operators = [f"diffops.{f}" for f in SPANNED["diffops"]]
    reduces = ["reduction.siegel_reduce", "reduction.jacobi_reduce"]
    scan_parents = ids(["reduction.siegel_reduce", "reduction.certificate_checks.n2",
                        "reduction.certificate_checks.n3"])
    act_siegel = ids(["groups.act_siegel"])
    scan_acts = int(np.count_nonzero(np.isin(name, act_siegel)
                                     & np.isin(parent_name, scan_parents)))
    nested = ids(["reduction.jacobi_reduce"])
    siegel_top = int(np.count_nonzero(np.isin(name, ids(["reduction.siegel_reduce"]))
                                      & ~np.isin(parent_name, nested)))
    reduce_calls = siegel_top + tot(["reduction.jacobi_reduce"], "count")
    tables = tot([TABLE], "count")
    evals = tot([FIELD], "count")

    m = {
        "groups.act_calls": (tot(acts, "count"), "count"),
        "groups.act_self_s": (tot(acts, "self"), "s"),
        "groups.act_us": (mean(acts, 1e6), "us"),
        "groups.random_self_s": (tot(randoms, "self"), "s"),
        "linalg.solve_calls": (tot(solves, "count"), "count"),
        "linalg.solve_self_s": (tot(solves, "self"), "s"),
        "linalg.cond_rejections": (sum(counts[s + ".errors"] for s in solves), "count"),
        "diffops.tables": (tables, "count"),
        "diffops.table_ms": (mean([TABLE], 1e3), "ms"),
        "diffops.table_self_s": (tot([TABLE], "self"), "s"),
        "diffops.field_evals": (evals, "count"),
        "diffops.evals_per_table": (evals / tables if tables else 0.0, "count"),
        "diffops.field_s": (tot([FIELD], "incl"), "s"),
        "diffops.operator_self_s": (tot(operators, "self"), "s"),
        "reduction.reduce_calls": (reduce_calls, "count"),
        "reduction.iterations": (counts["reduction.iterations"], "count"),
        "reduction.reduce_self_s": (tot(reduces, "self"), "s"),
        "reduction.cert_check_ms.n2": (mean(["reduction.certificate_checks.n2"], 1e3), "ms"),
        "reduction.cert_check_ms.n3": (mean(["reduction.certificate_checks.n3"], 1e3), "ms"),
        "reduction.scan_acts": (scan_acts, "count"),
        "reduction.acts_per_reduce": (scan_acts / reduce_calls if reduce_calls else 0.0,
                                      "count"),
        "reduction.minkowski_self_s": (tot(["reduction.minkowski_reduce",
                                            "reduction.minkowski_violations"], "self"), "s"),
        "theta.theta_sum_calls": (tot(["theta.theta_sum"], "count"), "count"),
        "theta.theta_sum_ms": (mean(["theta.theta_sum"], 1e3), "ms"),
        "theta.self_s": (tot(["theta"], "self"), "s"),
        "theta.quad_nodes": (counts["theta.quad_nodes"], "count"),
        "theta.phase_entries": (counts["theta.phase_entries"], "count"),
        "theta.accuracy_errors": (sum(v for k, v in counts.items()
                                      if k.startswith("theta.") and k.endswith(".errors")),
                                  "count"),
    }
    for mod in ("metrics", "cayley", "geodesics", "jacobiforms", "fields", "sampling", "cli"):
        m[f"{mod}.self_s"] = (tot([mod], "self"), "s")
    for suite in SUITES:
        m[f"checks.{suite}_s"] = (tot([f"checks.{suite}"], "incl"), "s")
    m["checks.rows"] = (counts["checks.rows"], "count")
    m["checks.worst_resid_ratio"] = (tracer.worst_ratio, "ratio")
    m["bench.trace_overhead_frac"] = ((traced_s - untraced_s) / untraced_s, "ratio")
    return m
