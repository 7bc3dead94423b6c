"""Benchmark of the siegeljacobi library, run from the root of a checkout:

    python3 perfbench/run.py --workload battery|reduce|theta_weil \
        --seed 2026 --seconds 35 --trace 0|1

One client in one process runs the workload's fixed list of operations in a
closed loop, pass after pass, for about ``--seconds`` seconds. With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` a verifying pass, an untraced pass
and a traced pass give the per-layer metrics instead. See README.md in this directory.
"""
from __future__ import annotations

import os

# one BLAS thread, set before anything imports numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, ".out")
WORKLOADS = ("battery", "reduce", "theta_weil")
SETUP_PROBES = 5
REF_NOMINAL_S = 0.008   # the reference kernel's time at nominal host speed
REF_EVERY_S = 0.25      # period of the reference samples


def load_library():
    """Import siegeljacobi from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "siegeljacobi", "__init__.py")):
        raise SystemExit(f"error: no library source under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import siegeljacobi
    if not os.path.abspath(siegeljacobi.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: siegeljacobi imported from {siegeljacobi.__file__}")
    return siegeljacobi


class HostSpeed:
    """A fixed numpy kernel that shares no code with the library: small
    complex solves and condition numbers, then one vectorized exp. The host,
    shared with other tenants, changes speed by tens of percent within
    seconds. While a pass runs, a timer signal runs the kernel every
    ``REF_EVERY_S`` seconds, inside the operations as well, and the time it
    takes is taken off the operation it interrupted. ``REF_NOMINAL_S`` over
    the kernel's mean time is the factor that brings the pass to nominal
    host speed."""

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(20260)
        self._np = np
        self._mats = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                      + 3.0 * np.eye(3) for _ in range(32)]
        # the exp writes into a buffer made here, so the kernel's time does
        # not depend on how the workload has left the heap
        self._phase = 1j * rng.standard_normal(50_000)
        self._out = np.empty_like(self._phase)
        self.kernel()                       # the first LAPACK calls pay their set-up
        self.samples: list[float] = []
        self.stolen = 0.0                   # seconds the kernel took from the workload

    def kernel(self) -> float:
        np = self._np
        t0 = time.perf_counter()
        for k in range(200):
            a = self._mats[k % 32]
            np.linalg.solve(a, a.T)
            np.linalg.cond(a)
        np.exp(self._phase, out=self._out)
        return time.perf_counter() - t0

    def sample(self, *_) -> None:
        t0 = time.perf_counter()
        self.samples.append(self.kernel())
        self.stolen += time.perf_counter() - t0

    @contextmanager
    def sampling(self, periodic: bool = True):
        """Sample at the start, every ``REF_EVERY_S`` seconds if ``periodic``,
        and at the end."""
        self.sample()
        if periodic:
            previous = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        try:
            yield
        finally:
            if periodic:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            self.sample()

    def take_scale(self) -> float:
        """Nominal-speed factor over the samples since the last call."""
        scale = REF_NOMINAL_S / statistics.fmean(self.samples)
        self.samples = []
        return scale


def setup_probe(workload: str, seed: int) -> None:
    """Fresh-process set-up time: import plus the workload's lazy set-up,
    then the reference kernel for this process's host speed."""
    t0 = time.perf_counter()
    load_library()
    t1 = time.perf_counter()
    import workloads
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        wl = workloads.make(workload, seed, tmp)
        t2 = time.perf_counter()
        wl.setup()
        t3 = time.perf_counter()
    speed = HostSpeed()
    for _ in range(8):
        speed.sample()
    print(json.dumps({"setup_s": (t1 - t0) + (t3 - t2), "scale": speed.take_scale()}))


def measure_setup(workload: str, seed: int) -> list[dict]:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


class Pass:
    """One pass over the workload's operations: latencies, digests, errors,
    and ``scale``, the host-speed factor measured during the pass. A traced
    pass samples the host only before and after, so no span holds the
    reference kernel; so does the untraced pass it is compared with."""

    def __init__(self, wl, speed: HostSpeed, verify: bool, tracer=None,
                 periodic: bool = True):
        self.lat = []
        self.digests = []
        self.errors = {}
        with speed.sampling(periodic=periodic and tracer is None):
            for i in range(len(wl.labels)):
                self._run(wl, i, speed, verify, tracer)
        self.scale = speed.take_scale()
        self.wall = sum(self.lat)

    def _run(self, wl, i, speed, verify, tracer):
        if tracer is not None:
            tracer.op = i
            tracer.on = True
        stolen = speed.stolen
        t0 = time.perf_counter()
        try:
            out = wl.run(i)
        except Exception as exc:  # a failed operation is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        else:
            err = None
        dt = time.perf_counter() - t0 - (speed.stolen - stolen)
        if tracer is not None:
            tracer.on = False
        self.lat.append(dt)
        if err is None and verify:
            err = wl.verify(i, out)
        self.digests.append(None if out is None else wl.digest(i, out))
        if err is not None:
            self.errors[i] = err

    def mismatches(self, ref: "Pass") -> dict:
        return {i: "output differs from the first pass"
                for i, (a, b) in enumerate(zip(self.digests, ref.digests)) if a != b}


def source_digest() -> str:
    """sha256 of the library's sources and of the workload definitions: the
    outputs of one seed are compared only between runs of the same code."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "siegeljacobi")
    files = [os.path.join(pkg, f) for f in sorted(os.listdir(pkg)) if f.endswith(".py")]
    for path in files + [os.path.join(HERE, "workloads.py")]:
        with open(path, "rb") as handle:
            h.update(os.path.basename(path).encode() + b"\0" + handle.read())
    return h.hexdigest()[:16]


def check_digests(path: str, digests: list) -> dict:
    """Outputs must be identical across runs of one seed, not only within a
    run: the first run's digests are kept at ``path``, and every later run
    is compared with them. Returns {op: error} for each mismatch."""
    if not os.path.exists(path):
        with open(path + ".tmp", "w") as handle:
            json.dump(digests, handle)
        os.replace(path + ".tmp", path)
        return {}
    with open(path) as handle:
        ref = json.load(handle)
    return {i: "output differs from an earlier run of this seed"
            for i, (a, b) in enumerate(zip(digests, ref)) if a != b}


def percentile(values, q):
    """Linear interpolation between order statistics; unlike
    ``statistics.quantiles`` on Python 3.11 it accepts a single value."""
    values = sorted(values)
    pos = (len(values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def environment(args, wl) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops_per_pass": len(wl.labels),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "nproc": os.cpu_count(),
    }


def run_untraced(wl, speed: HostSpeed, seconds: float):
    """Passes until about ``seconds`` have gone: another pass starts only if
    half of it would still fit. The first pass verifies every output and
    warms the process up; it is not measured unless it is the only one.
    Later passes must reproduce its outputs exactly."""
    start = time.perf_counter()
    passes = [Pass(wl, speed, verify=True)]
    while True:
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(passes) > seconds:
            return passes
        p = Pass(wl, speed, verify=False)
        p.errors.update(p.mismatches(passes[0]))
        passes.append(p)


def end_to_end(wl, passes, setup, scaled: bool) -> dict:
    """Times at nominal host speed (``scaled``) or as read. Passes are
    averaged: within a run the host's speed wanders, and the mean tracks it
    more steadily than the median of a few passes. A latency sample is one
    operation's mean over the passes, or one pass where the workload's unit
    of work is the whole list (battery)."""
    k = [p.scale if scaled else 1.0 for p in passes]
    walls = [p.wall * f for p, f in zip(passes, k)]
    if wl.latency_of_pass:
        samples = walls
    else:
        samples = [statistics.fmean(p.lat[i] * f for p, f in zip(passes, k))
                   for i in range(len(wl.labels))]
    return {
        "wall_s": (statistics.fmean(walls), "s"),
        "p50_ms": (1e3 * percentile(samples, 0.5), "ms"),
        "p90_ms": (1e3 * percentile(samples, 0.9), "ms"),
        "setup_s": (statistics.median(s["setup_s"] * (s["scale"] if scaled else 1.0)
                                      for s in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    os.makedirs(OUT, exist_ok=True)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    load_library()
    import tracing
    import workloads
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        wl = workloads.make(args.workload, args.seed, tmp)
        wl.setup()
        speed = HostSpeed()
        record = environment(args, wl)
        if args.trace:
            warm = Pass(wl, speed, verify=True)
            base = Pass(wl, speed, verify=False, periodic=False)
            base.errors.update(base.mismatches(warm))
            tracer = tracing.Tracer()
            with tracing.instrument(tracer):
                traced = Pass(wl, speed, verify=False, tracer=tracer)
            traced.errors.update({i: "traced output differs from untraced"
                                  for i in traced.mismatches(warm)})
            passes = [warm, base, traced]
            metrics = tracing.layer_metrics(tracer, base.wall, traced.wall)
            _, _, self_t = tracing.span_stats(tracer)
            record.update(spans=len(self_t), span_self_s=float(self_t.sum()),
                          traced_wall_s=traced.wall)
            tracer.save(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.npz"))
            shown = dict(metrics)
        else:
            setup = measure_setup(args.workload, args.seed)
            passes = run_untraced(wl, speed, args.seconds)
            measured = passes[1:] or passes
            metrics = end_to_end(wl, measured, setup, scaled=True)
            record["setup_probes"] = setup
            shown = dict(metrics)
            as_read = end_to_end(wl, measured, setup, scaled=False)
            for name in ("wall_s", "p50_ms", "p90_ms", "setup_s"):
                shown[name + ".as_read"] = as_read[name]
        record["digests"] = passes[0].digests if args.workload == "battery" else None
        passes[0].errors.update(check_digests(
            os.path.join(OUT, f"digests-{args.workload}-{wl.seed}-{source_digest()}.json"),
            passes[0].digests))
    attempted = sum(len(p.lat) for p in passes)
    errors = [(k, i, e) for k, p in enumerate(passes) for i, e in sorted(p.errors.items())]
    failed = len(errors)
    # failed_frac is reported, not gated: it is 0 when all is well
    record.update({"passes": len(passes), "attempted": attempted, "failed": failed,
                   "failed_frac": failed / attempted,
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                   "host_scale": [p.scale for p in passes]})
    for k, i, e in errors[:20]:
        print(f"FAIL pass {k} op {i} ({wl.labels[i]}): {e}", file=sys.stderr)
    print("# " + json.dumps(record, sort_keys=True))
    shown.update(failed_frac=(record["failed_frac"], "1"))
    for name, (value, unit) in shown.items():
        print(f"# {args.workload:10s} {name:28s} {value:14.6g} {unit}")
    record["pass_walls_s"] = [p.wall for p in passes]
    record["op_latencies_s"] = [p.lat for p in passes]
    with open(os.path.join(OUT, f"record-{args.workload}-{args.seed}-{args.trace}.json"),
              "w") as handle:
        json.dump(record, handle, sort_keys=True, indent=1)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
