"""Acceptance suite: every committed claim at its full stated bound.

Each test prints one summary line (visible with -s or in captured output)
and fails if its criterion fails.  The bounds here are the package's
contract; the same checks back the `wittcoh verify` command.
"""

from wittcoh import verify
from wittcoh.cochains import corrupted_generator


def _run(result):
    print(result.summary())
    for line in result.failures[:10]:
        print("   ", line)
    assert result.passed, result.failures


def test_criterion_01_degree12_worked_example():
    _run(verify.criterion_worked_example())


def test_criterion_02_dimension_formula_index1_to_40():
    _run(verify.criterion_dims_min_index_1(40))


def test_criterion_03_dimension_formula_index_2_to_4():
    _run(verify.criterion_dims_min_index_k(30, k_bound=4))


def test_criterion_04_basis_matrix_and_triangularity_to_30():
    _run(verify.criterion_wedge_basis(30))


def test_criterion_05_quadratic_identities_to_60():
    _run(verify.criterion_pair_identities(60))


def test_criterion_06_corrected_coboundary_to_24():
    _run(verify.criterion_corrected_coboundary(24))


def test_criterion_06b_cocycle_family_bases_to_24():
    _run(verify.criterion_cocycle_families(24))


def test_criterion_07_product_relations_to_8():
    _run(verify.criterion_product_relations(8))


def test_criterion_08_low_minimal_indices():
    _run(verify.criterion_low_min_index())


def test_criterion_09_special_partition_counts():
    _run(verify.criterion_special_counts())


def test_criterion_10_structural_properties():
    _run(verify.criterion_structural(30, seed=0))


def test_criterion_10b_tensor_blocks_to_20():
    _run(verify.criterion_tensor_blocks(20))


def test_criterion_11_conjecture_evidence_to_24():
    res = verify.criterion_conjecture(24)
    print(res.summary())
    for line in res.notes:
        print("    finding:", line)
    # evidence findings are reported, not fatal; reduction disagreement is
    assert res.passed, res.failures


COMMITTED_CHECK_COUNTS = {
    "worked example, degree 12": 2,
    "dimension formula, minimal index 1": 40,
    "dimension formula, minimal indices 2..4": 84,
    "marked-wedge basis and triangularity": 5155,
    "quadratic cochain identities": 147,
    "corrected-wedge coboundary closed form": 761,
    "cocycle family bases": 269,
    "product relations, i <= 8": 49,
    "minimal indices 0 and -1": 771,
    "special partition counts": 40,
    "structural properties": 1843,
    "tensor blocks": 196,
    "conjecture evidence": 610,
}


def test_run_suites_check_counts_at_committed_bounds():
    # a check lost or doubled inside a suite still passes that suite
    assert {r.name: r.checked for r in verify.run_suites()} == COMMITTED_CHECK_COUNTS


def test_an_aborted_suite_reports_under_its_own_name():
    clean = [r.name for r in verify.run_suites(12, k_bound=2)]
    with corrupted_generator(9):
        corrupted = verify.run_suites(12, k_bound=2)
    assert any(f.startswith("aborted:") for r in corrupted for f in r.failures)
    assert [r.name for r in corrupted] == clean
