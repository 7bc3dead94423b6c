"""Digest the CLI output of every check suite for one source tree.

    python scripts/battery_digests.py SRC_DIR [SEEDS]

Imports ``siegeljacobi`` from SRC_DIR, runs ``siegeljacobi check --suite S
--seed N`` in-process through ``cli.main`` for every suite S and seed N, and
prints one line per (suite, seed): the exit code, the sha256 of stdout and the
stderr lines. SEEDS is a comma-separated list of seeds and inclusive ranges,
such as ``0-99,2026`` (default ``2026``); an empty, reversed or non-integer
item prints this text on stderr and exits 2. Two trees give the same CLI output
where their lines agree, so diffing the output for the two is the check.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys


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


def digest(cli, suite: str, seed: int) -> str:
    """One line for ``check --suite suite --seed seed`` run through cli.main."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["check", "--suite", suite, "--seed", str(seed)])
    sha = hashlib.sha256(out.getvalue().encode()).hexdigest()
    stderr = json.dumps(err.getvalue().splitlines())
    return f"{suite} {seed} exit={code} stdout={sha} stderr={stderr}"


def main(argv: list[str]) -> int:
    try:
        if len(argv) not in (1, 2):
            raise ValueError("expected SRC_DIR [SEEDS]")
        seeds = parse_seeds(argv[1] if len(argv) == 2 else "2026")
    except ValueError:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, argv[0])
    from siegeljacobi import checks, cli
    for suite in checks.SUITES:
        for seed in seeds:
            print(digest(cli, suite, seed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
