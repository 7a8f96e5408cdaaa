"""The verify suites' own machinery: the index-mask boundary matrix against
the tuple boundary, a negative control for the whole run, and the check
counts that the benchmark's verify workload expects."""

import json
import pathlib

from wittcoh import verify
from wittcoh.cochains import Cochain, boundary, corrupted_generator, graded_slice, max_length
from wittcoh.gf2 import BitMatrix

REFS = pathlib.Path(__file__).parents[1] / "perfbench" / "refs.json"


def tuple_boundary_matrix(k, n, q):
    target = graded_slice(k, n, q - 1)
    cols = [
        target.coords(boundary(Cochain(frozenset({mono})), k))
        for mono in graded_slice(k, n, q).basis
    ]
    return BitMatrix.from_columns(cols, target.dim)


def test_mask_boundary_matrix_matches_tuple_boundary():
    blocks = 0
    for k in range(-1, 5):
        for n in range(k, 15):
            for q in range(2, max_length(k, n) + 1):
                assert verify._boundary_matrix(k, n, q) == tuple_boundary_matrix(k, n, q), (k, n, q)
                blocks += 1
    assert blocks > 100


def test_a_corrupted_generator_fails_every_suite_but_the_special_counts():
    with corrupted_generator(9):
        results = verify.run_suites(16, k_bound=2)
    assert len(results) == 13
    assert [r.name for r in results if r.passed] == ["special partition counts"]


def test_check_counts_match_the_benchmark_reference():
    # the verify workload fails on any count drift at n_max=24; fail here first
    want = json.loads(REFS.read_text())["verify"]["24"]["checked"]
    results = verify.run_suites(n_max=24)
    assert all(r.passed for r in results), [r.summary() for r in results if not r.passed]
    assert {r.name: r.checked for r in results} == want


def test_wedge_basis_suite_skips_a_singular_block_and_runs_on():
    # a singular block is reported and its shapes are skipped, so the
    # suite returns and goes on to report the later degrees
    with corrupted_generator(7):
        res = verify.criterion_wedge_basis(14)
    assert not res.passed
    assert not any(f.startswith("aborted:") for f in res.failures)
    assert any(f.startswith("(n=7, q=2): ") for f in res.failures)
    assert any(f.startswith("(n=8, ") for f in res.failures)
