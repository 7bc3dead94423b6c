"""Battery power: a bug seeded by monkeypatching one library name must fail
at least one row of the suite that is meant to catch it, at seed 2026.

Each mutant wraps a public function; nothing in the source is edited."""
import math

import numpy as np
import pytest

from siegeljacobi import checks, geodesics, jacobiforms, metrics, theta


def _scaled(fn, factor):
    def mutant(*args):
        return fn(*args) * factor
    return mutant


def _chirp_frequency(fn, factor):
    """weil_matrix_action with the b entry of every c = 0 matrix scaled: the
    frequency of the chirp e^{pi i a b ||x||^2} of the c = 0 rule."""
    def mutant(mat, f, ctx):
        mat = np.array(mat, dtype=float)
        if abs(mat[1, 0]) < 1e-12 * math.hypot(mat[1, 0], mat[1, 1]):
            mat[0, 1] *= factor
        return fn(mat, f, ctx)
    return mutant


MUTANTS = [
    ("distance", geodesics, "siegel_distance", _scaled, 1 + 1e-9),
    ("jacobiforms", jacobiforms, "automorphic_factor", _scaled, 1 + 1e-7),
    ("theta", theta, "weil_matrix_action", _chirp_frequency, 1 + 1e-6),
    ("metrics", metrics, "siegel_metric", _scaled, 1 + 1e-9),
    ("metrics", metrics, "jacobi_metric", _scaled, 1 + 1e-9),
    ("metrics", metrics, "disk_metric", _scaled, 1 + 1e-9),
    ("metrics", metrics, "jacobi_disk_metric", _scaled, 1 + 1e-9),
]


@pytest.mark.parametrize("suite, module, name, make, factor", MUTANTS,
                         ids=[f"{m[0]}-{m[2]}" for m in MUTANTS])
def test_seeded_bug_fails_a_row(monkeypatch, suite, module, name, make, factor):
    assert all(row.passed for row in checks.run_suite(suite, seed=2026))
    monkeypatch.setattr(module, name, make(getattr(module, name), factor))
    failing = [row.case for row in checks.run_suite(suite, seed=2026) if not row.passed]
    assert failing, f"{suite} misses {name} mutated by {factor!r}"
