"""Digest the CLI output of every check suite, or of a fixed corpus of other
commands, for one source tree.

    python scripts/battery_digests.py SRC_DIR [SEEDS]
    python scripts/battery_digests.py SRC_DIR --cli
    python scripts/battery_digests.py SRC_DIR --kernels

Imports ``siegeljacobi`` from SRC_DIR, runs ``siegeljacobi check --suite S
--seed N`` in-process through ``cli.main`` for every suite S and seed N, and
prints one line per (suite, seed): the exit code, the sha256 of stdout and the
stderr lines. SEEDS is a comma-separated list of seeds and inclusive ranges,
such as ``0-99,2026`` (default ``2026``); an empty, reversed or non-integer
item prints this text on stderr and exits 2. With ``--cli`` it prints the
same digest, after the arguments as JSON, for each invocation of CORPUS: a
success and a refusal of every command but ``check``, then edge cases whose
messages a refactor may change. With ``--kernels`` it prints, for each entry
of a fixed corpus of Weil kernel evaluations (``kernel_lines``), its label and
the sha256 of the output's bytes, or the error it raised. Two trees give the
same output where their lines agree, so diffing the output for the two is the
check. The first line names the BLAS thread count. Run as a script, it pins
the count to 1 before numpy is imported: OpenBLAS splits a matrix product over
threads by its shape, so the kernel's bits can follow the thread count.
"""
from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":
    # one BLAS thread, set before anything imports numpy
    for _var in THREAD_VARS:
        os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    """'0-2,2026' -> [0, 1, 2, 2026]; ValueError on an empty, reversed or
    non-integer item."""
    seeds = []
    for item in text.split(","):
        lo, dash, hi = item.partition("-")
        lo, hi = int(lo), int(hi if dash else lo)
        if hi < lo:
            raise ValueError(f"reversed seed range {item!r}")
        seeds.extend(range(lo, hi + 1))
    return seeds


# a success and a refusal per command, then edge cases: far reduced points,
# a complex index matrix, a non-finite one, one within the integer tolerance
# of 2, one too large to be an exact integer, two texts that are no scalar, and
# a 2 x 2 index against the default 1 x 1 lambda
CORPUS = [
    ["distance", "--p0", "i", "--p1", "2i"],
    ["distance", "--p0", "i", "--p1", "0,-1"],
    ["cayley", "--dir", "fwd", "--point", "0.3"],
    ["cayley", "--dir", "fwd", "--point", "1e200"],
    ["reduce", "--space", "hn", "--point", "0.3+0.5i"],
    ["reduce", "--space", "hn", "--point", "0,-1"],
    ["reduce", "--space", "hnm", "--point", '{"omega": "3.7+0.2i", "z": "1.3-0.4i"}'],
    ["metric", "--space", "hnm", "--point", '{"omega": "i", "z": "0.2"}',
     "--t1", '{"domega": "1", "dz": "0.5"}', "--t2", "1"],
    ["metric", "--space", "dn", "--point", "i", "--t1", "1", "--t2", "1"],
    ["laplacian", "--space", "hn", "--field", "y^s", "--s", "1.5", "--point", "2i"],
    ["laplacian", "--space", "hn", "--field", "nope", "--point", "i"],
    ["theta", "--M", "1", "--tau", "0.2,1.1", "--phi", "0.3", "--lam", "[[0.25]]"],
    ["theta", "--M", "0", "--tau", "0,1", "--phi", "0.3"],
    ["element", "--word", "t(0.5);g(0.2);s", "--n", "2"],
    ["element", "--word", "g(-1)", "--n", "1"],
    ["reduce", "--space", "hn", "--point", "1e155i"],
    ["reduce", "--space", "hn", "--point", "1e300i"],
    ["reduce", "--space", "hnm", "--point", '{"omega": "1e300i", "z": "0.5"}'],
    ["theta", "--M", "1,1", "--tau", "0,1", "--phi", "0.3"],
    ["theta", "--M", '{"rows": 1, "cols": 1, "data": [[2, 0]]}', "--tau", "0,1", "--phi", "1"],
    ["theta", "--M", "nan", "--tau", "0,1", "--phi", "0.3"],
    ["theta", "--M", "inf", "--tau", "0,1", "--phi", "0.3"],
    ["theta", "--M", "2.0000000005", "--tau", "0,1", "--phi", "0.3"],
    ["theta", "--M", "1e300", "--tau", "0,1", "--phi", "0.3"],
    ["theta", "--M", "1,2,3", "--tau", "0,1", "--phi", "0.3"],
    ["theta", "--M", "[[1]]", "--tau", "0,1", "--phi", "0.3"],
    ["theta", "--M", '{"rows": 2, "cols": 2, "data": [[1, 0], [0, 0], [0, 0], [1, 0]]}',
     "--tau", "0,1", "--phi", "0.3"],
]


def kernel_lines(theta, errors):
    """One line per entry of the kernel corpus: every operator, test function
    and target set below at M = 1, 2 and [[2, 1], [1, 2]] (mn = 1, 1, 2),
    through ``weil_matrix_action``. The operators are K(phi) near both ends
    of (0, pi) and at pi/2, S = [[0, -1], [1, 0]] and one N(u) A(v) K(phi); the
    targets are the context grid, the lattice, the lattice shifted by lambda
    and a symmetric set of even count, on which the kernel's tables, its node
    and target chirps and the c = 0 chirp of the t generator can be mirrored."""
    def rotation(phi):
        return np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])

    ops = [("K(0.15)", rotation(0.15)), ("K(pi/2)", rotation(np.pi / 2)),
           ("K(pi-0.15)", rotation(np.pi - 0.15)), ("S", np.array([[0.0, -1.0], [1.0, 0.0]])),
           ("N(0.4)A(1.3)K(0.9)", theta.SL2Coord(0.4 + 1.3j, 0.9).matrix())]
    lines = []
    # mn = 2 takes a smaller box, as its node count grows as the square
    for label, m_mat, exps, n_cut, extent in (
            ("1", [[1.0]], [[3]], 4, 1.5), ("2", [[2.0]], [[2]], 4, 1.5),
            ("[[2,1],[1,2]]", [[2.0, 1.0], [1.0, 2.0]], [[1], [2]], 1, 0.5)):
        ctx = theta.ThetaContext(np.array(m_mat), n=1, n_cut=n_cut, extent=extent, step=0.125)
        fns = [("gaussian", theta.gaussian(ctx)),
               ("gaussian_poly", theta.gaussian_poly(ctx, exps)),
               ("t_chirp", theta.weil_generator_action(("t", np.array([[0.7]]), 1.0),
                                                       theta.gaussian(ctx), ctx))]
        lattice = theta.lattice_points(ctx)
        axis = 0.3 * (np.arange(-3, 3) + 0.5)
        even = np.stack(np.meshgrid(*[axis] * ctx.dim, indexing="ij"), axis=-1)
        pts = [("grid", theta.grid_points(ctx)), ("lattice", lattice),
               ("lattice+lam", lattice + 0.25), ("even", even.reshape(-1, ctx.m, ctx.n))]
        for op, mat in ops:
            for fn, f in fns:
                for where, x in pts:
                    try:
                        out = theta.weil_matrix_action(mat, f, ctx).eval_fn(x)
                        result = hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest()
                    except (errors.AccuracyError, errors.DomainError) as exc:
                        result = f"{type(exc).__name__}: {exc}"
                    lines.append(f"M={label} {op} {fn} {where} {result}")
    return lines


def run(cli, argv: list[str]) -> str:
    """The exit code, the sha256 of stdout and the stderr lines of cli.main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    sha = hashlib.sha256(out.getvalue().encode()).hexdigest()
    stderr = json.dumps(err.getvalue().splitlines())
    return f"exit={code} stdout={sha} stderr={stderr}"


def digest(cli, suite: str, seed: int) -> str:
    """One line for ``check --suite suite --seed seed`` run through cli.main."""
    return f"{suite} {seed} " + run(cli, ["check", "--suite", suite, "--seed", str(seed)])


def main(argv: list[str]) -> int:
    try:
        if len(argv) not in (1, 2):
            raise ValueError("expected SRC_DIR [SEEDS | --cli | --kernels]")
        corpus, kernels = argv[1:] == ["--cli"], argv[1:] == ["--kernels"]
        seeds = [] if corpus or kernels else parse_seeds(argv[1] if len(argv) == 2 else "2026")
    except ValueError:
        print(__doc__, file=sys.stderr)
        return 2
    print("# " + " ".join(f"{var}={os.environ.get(var)}" for var in THREAD_VARS), flush=True)
    sys.path.insert(0, argv[0])
    from siegeljacobi import checks, cli, errors, theta
    for line in kernel_lines(theta, errors) if kernels else []:
        print(line, flush=True)
    for args in CORPUS if corpus else []:
        print(json.dumps(args), run(cli, args), flush=True)
    for suite in checks.SUITES:
        for seed in seeds:
            print(digest(cli, suite, seed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
