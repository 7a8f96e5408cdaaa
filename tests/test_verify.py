"""The verify suites' own machinery: the index-mask boundary matrix against
the tuple boundary, a negative control for the whole run, and the check
counts that the benchmark's verify workload expects."""

import json
import pathlib
import random

from wittcoh import verify
from wittcoh.cochains import Cochain, boundary, corrupted_generator, graded_slice, max_length
from wittcoh.gf2 import BitMatrix
from wittcoh.monomials import markable_parts, marked_vec, regular_basis
from wittcoh.partitions import (
    Order,
    compare,
    is_regular_marked,
    markings,
    regular_partitions,
    strict_partitions,
)

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
                ref = tuple_boundary_matrix(k, n, q)
                # the contraction is laid out as the coboundary: the reference's rows are its columns
                assert verify._boundary_matrix(k, n, q) == BitMatrix.from_columns(ref.rows(), ref.ncols), (k, n, q)
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


def test_first_not_below_matches_compare_on_random_tags():
    # a clean complex decomposes every singular wedge strictly below its
    # shape, so the step is checked on random coordinate vectors instead
    rng = random.Random(26)
    found = {"none": 0, "equal": 0, "longer": 0}
    for n in range(1, 17):
        for base in (p for q in range(1, n + 1) for p in strict_partitions(n, q)):
            for mp in markings(base, markable_parts(base)):
                if not marked_vec(mp) or is_regular_marked(mp, 1):
                    continue
                labels = regular_basis(n, mp.length).labels
                masks = verify._length_masks(labels, base.length)
                for _ in range(20):
                    x = rng.getrandbits(len(labels))
                    want = next(
                        (t for j, t in enumerate(labels) if x >> j & 1 and compare(t, mp) is not Order.LESS),
                        None,
                    )
                    assert verify._first_not_below(labels, x, mp, *masks) is want, (mp, x)
                    if want is None:
                        found["none"] += 1
                    else:
                        found["equal" if want.base.length == base.length else "longer"] += 1
    assert min(found.values()) > 100, found


def test_tensor_blocks_total_each_regular_base_once(monkeypatch):
    calls = []
    block_total = verify._block_total_homology

    def counted(base):
        calls.append(base)
        return block_total(base)

    monkeypatch.setattr(verify, "_block_total_homology", counted)
    assert verify.criterion_tensor_blocks(12).passed
    bases = [b for n in range(1, 13) for q in range(1, n + 1) for b in regular_partitions(n, q, 1)]
    assert sorted(calls, key=lambda b: b.parts) == sorted(bases, key=lambda b: b.parts)
    assert len(set(calls)) == len(calls)
