import contextlib
import hashlib
import importlib.util
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np

from siegeljacobi import cli, theta

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _script():
    spec = importlib.util.spec_from_file_location("battery_digests",
                                                  ROOT / "scripts" / "battery_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _threads_line(digests):
    """The first line in this process, which the script's import leaves unpinned."""
    return "# " + " ".join(f"{var}={os.environ.get(var)}" for var in digests.THREAD_VARS)


def test_digest_is_the_hash_of_the_cli_output():
    digests = _script()
    assert digests.parse_seeds("0-2,11,2026") == [0, 1, 2, 11, 2026]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["check", "--suite", "cayley", "--seed", "2026"])
    sha = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digests.digest(cli, "cayley", 2026) == f"cayley 2026 exit={code} stdout={sha} stderr=[]"


def test_bad_seeds_print_the_usage_and_exit_2():
    """An empty, reversed or non-integer SEEDS item is refused before any suite
    runs, so a listing that says nothing cannot agree with another."""
    digests = _script()
    for seeds in ("99-0", "2026,x", "", "0,,2", "1.5", "0-", "-3"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = digests.main([str(ROOT / "src"), seeds])
        assert (code, out.getvalue(), err.getvalue()) == (2, "", digests.__doc__ + "\n"), seeds


def test_cli_corpus_digests_each_invocation():
    digests = _script()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = digests.main([str(ROOT / "src"), "--cli"])
    pinned, *lines = out.getvalue().splitlines()
    assert (code, err.getvalue(), pinned, len(lines)) == \
        (0, "", _threads_line(digests), len(digests.CORPUS))
    # every command but check, each with a success and a refusal
    commands = {args[0] for args in digests.CORPUS}
    assert commands == {"distance", "cayley", "reduce", "metric", "laplacian", "theta", "element"}
    for args, line in zip(digests.CORPUS, lines):
        assert line == f"{json.dumps(args)} {digests.run(cli, args)}"
    exits = {(args[0], line.split(" exit=")[1][0]) for args, line in zip(digests.CORPUS, lines)}
    assert exits >= {(c, e) for c in commands for e in "02"}
    assert lines[digests.CORPUS.index(["theta", "--M", "1,1", "--tau", "0,1", "--phi", "0.3"])] \
        .endswith('stderr=["input error: index matrix has nonzero imaginary entries"]')


def test_kernel_corpus_digests_each_evaluation():
    """--kernels prints one line per operator, test function, index and target
    set: its label and the sha256 of the kernel's output bytes."""
    digests = _script()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = digests.main([str(ROOT / "src"), "--kernels"])
    pinned, *lines = out.getvalue().splitlines()
    assert (code, err.getvalue(), pinned, len(lines)) == \
        (0, "", _threads_line(digests), 5 * 3 * 3 * 4)
    labels = [line.rsplit(" ", 1)[0] for line in lines]
    assert len(set(labels)) == len(lines)
    assert all(len(line.rsplit(" ", 1)[1]) == 64 for line in lines)
    ctx = theta.ThetaContext(np.array([[1.0]]), n=1, n_cut=4, extent=1.5, step=0.125)
    f = theta.gaussian_poly(ctx, [[3]])
    value = theta.weil_matrix_action(np.array([[0.0, -1.0], [1.0, 0.0]]), f, ctx) \
        .eval_fn(theta.lattice_points(ctx))
    sha = hashlib.sha256(value.tobytes()).hexdigest()
    assert f"M=1 S gaussian_poly lattice {sha}" in lines


def test_cli_flag_takes_no_seeds():
    digests = _script()
    for argv in (["--cli", "2026"], ["2026", "--cli"], ["--kernels", "2026"],
                 ["--cli", "--kernels"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = digests.main([str(ROOT / "src"), *argv])
        assert (code, out.getvalue(), err.getvalue()) == (2, "", digests.__doc__ + "\n"), argv


def test_digests_do_not_follow_the_callers_blas_thread_count():
    """The script pins one BLAS thread whatever its environment says: the
    theta digest at seed 2026 and the kernel corpus, some of whose products
    OpenBLAS splits by shape over two threads, read the same under 1 and 2."""
    def digests(threads, *args):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        return subprocess.run([sys.executable, str(ROOT / "scripts" / "battery_digests.py"),
                               str(ROOT / "src"), *args], env=env, capture_output=True,
                              text=True, check=True).stdout.splitlines()

    seeds, kernels = digests("1", "2026"), digests("1", "--kernels")
    assert seeds[0] == kernels[0] == "# OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1"
    assert any(line.startswith("theta 2026 exit=0 ") for line in seeds)
    assert (digests("2", "2026"), digests("2", "--kernels")) == (seeds, kernels)
