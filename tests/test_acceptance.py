"""Acceptance battery: every criterion runs at its stated tolerance and
prints one pass/fail line. Run with ``pytest tests/test_acceptance.py -s``
to see the per-criterion lines."""
import pytest

from siegeljacobi import checks

SEED = 2026


@pytest.fixture(scope="module")
def suite_rows():
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = checks.run_suite(name, seed=SEED)
        return cache[name]

    return get


def _report(number, label, rows):
    failures = [r for r in rows if not r.passed]
    status = "PASS" if not failures else "FAIL"
    print(f"{status} criterion {number}: {label} "
          f"({len(rows) - len(failures)}/{len(rows)} cases)")
    for r in failures[:10]:
        print(f"    {r.case}: residual {r.residual:.3e} > tol {r.tol:.3e}")
    assert not failures, f"criterion {number} failed on {len(failures)} cases"


def test_criterion_1_action_axioms(suite_rows):
    rows = [r for r in suite_rows("actions") if "axiom" in r.case]
    for label in ("siegel", "jacobi_axiom", "disk", "jacobi_disk"):
        assert sum(label in r.case for r in rows) >= 100
    _report(1, "group action axioms at 1e-10 on 100 samples per action", rows)


def test_criterion_2_cayley_compatibility(suite_rows):
    rows = suite_rows("cayley")
    assert sum("compat" in r.case for r in rows) >= 100
    assert sum("roundtrip" in r.case for r in rows) >= 50
    _report(2, "Cayley compatibility at 1e-9 and round trips at 1e-12", rows)


def test_criterion_3_metric_invariance(suite_rows):
    rows = suite_rows("metrics")
    assert sum("jacobi_invariance" in r.case for r in rows) >= 50
    assert any("closed_form_11" in r.case for r in rows)
    _report(3, "metric invariance, partial Cayley isometry and volume invariance "
               "from the exact differential, and the degree-(1,1) closed form, "
               "all at 1e-12", rows)


def test_criterion_4_eigenfunction_table(suite_rows):
    rows = [r for r in suite_rows("laplacians") if r.case.startswith("table_")]
    assert sum("bessel" not in r.case for r in rows) >= 20 * 12 * 3
    assert any("bessel" in r.case for r in rows)
    _report(4, "Laplacian eigenfunction table at 1e-4 (Bessel case 1e-3)", rows)


def test_criterion_5_operator_invariance(suite_rows):
    rows = [r for r in suite_rows("laplacians")
            if r.case.startswith(("invariance_", "transport_"))]
    for op in ("part_omega", "part_z", "laplacian", "siegel", "s1", "s2", "s3", "j00"):
        assert any(op in r.case for r in rows), op
    _report(5, "invariant operators commute with their actions at 1e-4", rows)


def test_criterion_6_distance(suite_rows):
    rows = suite_rows("distance")
    assert sum(r.case.startswith("axis_log") for r in rows) == 3
    assert any(r.case.startswith("series") for r in rows)
    assert any(r.case.startswith("unit_speed") for r in rows)
    _report(6, "distance: |log a| axis values 1e-10, isometry 1e-8, "
               "series form 1e-12, unit speed 1e-8", rows)


def test_criterion_7_reduction(suite_rows):
    rows = suite_rows("reduction")
    assert any(r.case == "n1_oracle_match" for r in rows)
    assert any(r.case == "n2_zero_violations" for r in rows)
    _report(7, "reduction: 200 scalar points match the classical oracle, "
               "degree-2 conditions hold with zero violations, certificates "
               "replay at 1e-9", rows)


def test_criterion_8_jacobi_forms(suite_rows):
    rows = suite_rows("jacobiforms")
    assert sum(r.case.startswith(("cocycle_", "slash_")) for r in rows) >= 100
    assert any(r.case.startswith("annihilation") for r in rows)
    assert any(r.case.startswith("m_operator_fd") for r in rows)
    assert any(r.case.startswith("projection_limit") for r in rows)
    _report(8, "automorphic cocycle and slash composition at 1e-8 on 100 "
               "cases; singular gate = operator annihilation with FD "
               "cross-check at 1e-4; degree-lowering matches the t=50 limit "
               "at 1e-8", rows)


def test_criterion_9_theta_laws(suite_rows):
    rows = [r for r in suite_rows("theta")
            if r.case.startswith(("jacobi", "gamma2", "lattice_sum"))]
    assert sum(r.case.startswith("jacobi2") for r in rows) >= 20
    assert sum(r.case.startswith("jacobi3") for r in rows) >= 20
    assert sum(r.case.startswith("jacobi1") for r in rows) >= 10
    for gen in ("S", "Tstar", "transl"):
        assert any(r.case.startswith(f"gamma2_{gen}") for r in rows)
    _report(9, "theta transformation laws (Jacobi 2/3 at 1e-8, Jacobi 1 at "
               "1e-3, product invariance, direct lattice sum at 1e-10)", rows)


def test_criterion_10_weil_kernels(suite_rows):
    rows = [r for r in suite_rows("theta")
            if r.case.startswith(("svn_", "iwasawa", "cocycle_"))]
    for gen in ("svn_t", "svn_g", "svn_sigma"):
        assert any(r.case.startswith(gen) for r in rows)
    _report(10, "Weil kernels: Stone-von Neumann at 1e-6 per generator, "
                "Iwasawa composition at 1e-10, cocycle table exact", rows)
