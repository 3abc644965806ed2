"""Acceptance criteria, one test per criterion, each a view of ``chgeo verify``.

Every criterion asserts the ``verification`` suites that implement it,
at the default seed, so the checks and their tolerances live in one
place.  Run with ``pytest -v -s tests/test_acceptance.py`` to see one
pass line per criterion.
"""

from chgeo import verification


def _accept(num, *names, budget=None):
    results = [verification.run_suite(name) for name in names]
    for result in results:
        assert result.passed, result
        assert budget is None or result.seconds < budget, result
    print(f"ACCEPTANCE {num}: PASS - " + "; ".join(
        f"{r.name} max {r.max_residual:.2e} (tol {r.tolerance:.0e}) in {r.seconds:.2f}s"
        for r in results
    ))


def test_criterion_1_cross_model_curvature():
    _accept(1, "cross-model-curvature", budget=1.0)


def test_criterion_2_ruled_second_fundamental_form():
    _accept(2, "ruled-second-fundamental", budget=1.0)


def test_criterion_3_jacobi_oracle():
    _accept(3, "jacobi-oracle", "jacobi-field-equation")


def test_criterion_4_repeated_carrier_collapse():
    _accept(4, "focal-collapse")


def test_criterion_5_carrier_block_identities():
    _accept(5, "equidistant-identities", budget=1.0)


def test_criterion_6_classifier():
    _accept(6, "classifier-branches")


def test_criterion_7_structural_residuals():
    _accept(7, "structural-residuals")


def test_criterion_8_catalog_counts():
    _accept(8, "catalog-counts")


def test_criterion_9_cross_consistency():
    _accept(9, "cross-consistency")
