"""The verify suites' own machinery: the index-mask boundary matrix against
the tuple boundary, a negative control for the whole run, the check counts
that the benchmark's verify workload expects, and the degree loop: what it
drops after each degree, and that interleaving mixes no suites."""

import inspect
import json
import pathlib
import random

from wittcoh import caching, cochains, verify
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
        results = verify.run_suites(16)
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


# the memos that later degrees read; every other memo holds one degree
KEPT = {
    "cohomology_dim", "_bidegree_words", "relation_table", "_component_masks",
    "_pair_masks", "_factor", "max_length", "_partitions",
}


def test_run_suites_drops_each_degree_and_builds_each_slice_once(monkeypatch):
    steps = []  # one entry per call of the helper
    builds = []  # (helper calls before the build, k, n, q)
    clear_degree = caching.clear_degree

    def spy_clear():
        clear_degree()
        steps.append({fn.__wrapped__.__name__: fn.cache_info().currsize for fn in caching._CACHED})

    class SpySlice(cochains.GradedSlice):
        __slots__ = ()

        def __init__(self, k, n, q, *rest):
            builds.append((len(steps), k, n, q))
            super().__init__(k, n, q, *rest)

    monkeypatch.setattr(caching, "clear_degree", spy_clear)
    monkeypatch.setattr(cochains, "GradedSlice", SpySlice)
    results = verify.run_suites(n_max=16)
    assert all(r.passed for r in results), [r.summary() for r in results if not r.passed]
    # degrees -1..17: the low-index suite checks degree 16 at step 17
    degrees = range(-1, 18)
    assert len(steps) == len(degrees)
    assert set(steps[0]) >= KEPT
    for sizes in steps:
        assert {name for name, size in sizes.items() if size} <= KEPT
    # the once-parts run before step -1; from then on the slices of degree n
    # are built in step n only, so none is built twice in the loop
    in_loop = [(k, n, q) for step, k, n, q in builds if step > 0 or n == -1]
    assert all(n == degrees[step] for step, k, n, q in builds if step > 0)
    assert len(in_loop) == len(set(in_loop)) > 300
    assert {n for _, n, _ in in_loop} == set(degrees)


def test_interleaved_suites_match_each_suite_alone():
    alone = (
        lambda: verify.criterion_worked_example(16),
        lambda: verify.criterion_dims_min_index_1(16),
        lambda: verify.criterion_dims_min_index_k(16),
        lambda: verify.criterion_wedge_basis(16),
        lambda: verify.criterion_pair_identities(16),
        lambda: verify.criterion_corrected_coboundary(16),
        lambda: verify.criterion_cocycle_families(16),
        lambda: verify.criterion_product_relations(16),
        lambda: verify.criterion_low_min_index(16),
        lambda: verify.criterion_special_counts(16),
        lambda: verify.criterion_structural(16, seed=0),
        lambda: verify.criterion_tensor_blocks(16),
        lambda: verify.criterion_conjecture(16),
    )
    with corrupted_generator(9):
        together = verify.run_suites(16)
        apart = [run() for run in alone]

    def outcome(r):
        return r.name, r.checked, r.failures

    assert [outcome(r) for r in together] == [outcome(r) for r in apart]
    # an aborted suite reports its abort alone, and the suites after it run on
    aborted = [j for j, r in enumerate(together) if r.failures[:1] and r.failures[0].startswith("aborted:")]
    assert aborted and all(len(together[j].failures) == 1 for j in aborted)
    assert any(together[j].checked for j in range(aborted[0] + 1, len(together)))


SUITES = (
    "worked_example", "dims_min_index_1", "dims_min_index_k", "wedge_basis",
    "pair_identities", "corrected_coboundary", "cocycle_families", "product_relations",
    "low_min_index", "special_counts", "structural", "tensor_blocks", "conjecture",
)


def test_each_runner_is_built_from_its_suite():
    for name in SUITES:
        run, suite = getattr(verify, f"criterion_{name}"), getattr(verify, f"_{name}")
        assert run.__name__ == run.__qualname__ == f"criterion_{name}"
        assert run.__doc__ and run.__doc__ == suite.__doc__, name
        params = inspect.signature(run).parameters.values()
        assert [p.name for p in params][0] == "n_max", name
        assert all(p.default is not p.empty for p in params), name


# (name, checks) of the product relations at each i_max, as run through the
# old i_max parameter: 7 + 6 (i_max - 1) checks, none below 1
PRODUCT_RELATIONS_BY_I_MAX = {0: 0, 1: 7, 2: 13, 3: 19, 4: 25, 5: 31, 6: 37, 7: 43, 8: 49}


def test_product_relations_check_i_up_to_a_quarter_of_n_max():
    for n_max in (*range(41), None):
        i_max = 8 if n_max is None else min(8, n_max // 4)
        res = verify.criterion_product_relations(n_max)
        assert res.passed, (n_max, res.failures)
        assert (res.name, res.checked) == (
            f"product relations, i <= {i_max}", PRODUCT_RELATIONS_BY_I_MAX[i_max]
        ), n_max
