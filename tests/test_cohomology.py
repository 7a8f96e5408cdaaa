import random

import pytest

from conftest import P
from wittcoh.caching import clear_all
from wittcoh.cochains import (
    Cochain,
    coboundary,
    corrupted_generator,
    generator,
    graded_slice,
    max_length,
    wedge,
)
from wittcoh.cohomology import (
    CohomologyClass,
    NotACocycleError,
    central_extension_basis,
    class_of,
    cohomology_basis,
    cohomology_dim,
    cup,
    poincare_computed,
    poincare_predicted,
    poly_str,
    predicted_low_index_dim,
    representative,
)
from wittcoh.gf2 import Gf2Span
from wittcoh.monomials import decompose, decompose_corrected, x_cocycle, y_cocycle, z_cocycle
from wittcoh.verify import (
    _block_total_homology,
    criterion_cocycle_families,
    criterion_low_min_index,
    criterion_tensor_blocks,
)


def c(*monos):
    return Cochain.from_terms(monos)


# --- dimensions -----------------------------------------------------------------


def test_worked_example_dims():
    assert cohomology_dim(1, 12, 1) == 1
    assert cohomology_dim(1, 12, 2) == 3
    assert cohomology_dim(1, 12, 3) == 3
    assert cohomology_dim(1, 3, 1) == 0


def test_poincare_worked_example():
    assert poincare_computed(12, 1) == {1: 1, 2: 3, 3: 3}
    assert poincare_predicted(12, 1) == {1: 1, 2: 3, 3: 3}
    assert poly_str(poincare_predicted(12, 1)) == "t + 3*t^2 + 3*t^3"


def test_poincare_small_cases():
    assert poincare_predicted(4, 1) == {1: 1, 2: 1}
    assert poincare_predicted(2, 2) == {1: 1}
    assert poincare_computed(4, 1) == {1: 1, 2: 1}


def test_prediction_matches_brute_force_index1():
    for n in range(1, 26):
        assert poincare_predicted(n, 1) == poincare_computed(n, 1), f"n={n}"


@pytest.mark.parametrize("k", [2, 3])
def test_prediction_matches_brute_force_higher_index(k):
    for n in range(k, 19):
        assert poincare_predicted(n, k) == poincare_computed(n, k), f"k={k} n={n}"


def test_representatives_deterministic():
    basis = cohomology_basis(1, 12, 1)
    assert [str(r) for r in basis.representatives] == ["e12"]
    basis = cohomology_basis(1, 4, 1)
    assert [str(r) for r in basis.representatives] == ["e4"]


def test_representatives_are_cocycles_independent_mod_image():
    for n in range(1, 18):
        for q in range(1, max_length(1, n) + 1):
            basis = cohomology_basis(1, n, q)
            for rep in basis.representatives:
                assert not coboundary(rep, 1)
                assert not class_of(rep, 1).is_zero


def two_pass_reference(k, n, q):
    """Image and representatives by a second, independent elimination: the
    columns of slice q-1 that enlarge a fresh span, then the kernel vectors of
    slice q taken greedily modulo that span."""
    image = []
    if q > 1:
        span = Gf2Span()
        image = [col for col in graded_slice(k, n, q - 1).delta.columns() if span.add(col)]
    span = Gf2Span(image)
    reps = [v for v in graded_slice(k, n, q).delta.kernel_basis() if span.add(v)]
    return image, reps


@pytest.mark.parametrize("ascending", [True, False], ids=["q-ascending", "q-descending"])
def test_single_pass_matches_two_pass_reference(ascending):
    # descending q eliminates each slice q-1 for its image before its own kernel
    clear_all()
    for k in (-1, 0, 1, 2):
        for n in range(k, 31):
            lengths = range(1, max_length(k, n) + 1)
            for q in lengths if ascending else reversed(lengths):
                basis = cohomology_basis(k, n, q)
                assert (basis.image_vecs, basis.rep_vecs) == two_pass_reference(k, n, q), (k, n, q)


def test_image_in_kernel_check_catches_corruption():
    clean = cohomology_dim(1, 9, 2)
    cohomology_dim(1, 9, 3)  # the clean slices now carry their pivot masks
    with corrupted_generator(9):
        with pytest.raises(ValueError, match="image not contained in kernel"):
            cohomology_dim(1, 9, 2)
        failing = []
        for n in range(1, 25):
            for q in range(1, max_length(1, n) + 1):
                try:
                    cohomology_dim(1, n, q)
                except ValueError as exc:
                    assert "image not contained in kernel" in str(exc)
                    failing.append((n, q))
        assert len(failing) == 34 and failing[0] == (9, 2)
    assert cohomology_dim(1, 9, 2) == clean


@pytest.mark.parametrize("dim_first", [True, False], ids=["dim-first", "basis-first"])
def test_rank_path_matches_basis_path(dim_first):
    clear_all()
    cells = [
        (k, n, q) for k in (-1, 0, 1, 2) for n in range(k, 31) for q in range(1, max_length(k, n) + 1)
    ]
    def basis_dim(k, n, q):
        return cohomology_basis(k, n, q).dim

    first, second = (cohomology_dim, basis_dim) if dim_first else (basis_dim, cohomology_dim)
    dims = {cell: first(*cell) for cell in cells}
    for cell in cells:
        assert second(*cell) == dims[cell], cell


def test_basis_path_catches_corruption_on_the_same_cells():
    cells = [(n, q) for n in range(1, 25) for q in range(1, max_length(1, n) + 1)]
    with corrupted_generator(9):
        failing = {}
        for build in (cohomology_dim, cohomology_basis):
            clear_all()
            failing[build] = []
            for n, q in cells:
                try:
                    build(1, n, q)
                except ValueError as exc:
                    assert "image not contained in kernel" in str(exc)
                    failing[build].append((n, q))
        assert len(failing[cohomology_dim]) == 34
        assert failing[cohomology_basis] == failing[cohomology_dim]


def top_bit_in(mask, v):
    return (mask >> (v.bit_length() - 1)) & 1


@pytest.mark.parametrize("dim_first", [True, False], ids=["dim-first", "basis-first"])
def test_clearing_is_exact(dim_first):
    # each slice skips the leading rows of the slice before it; its pivot
    # mask and its kernel vectors must be the uncleared pass's, less only
    # the cleared columns' own kernel vectors
    clear_all()
    cells = [
        (k, n, q)
        for k, n_top in ((-1, 30), (0, 30), (1, 50), (2, 30))
        for n in range(k, n_top + 1)
        for q in range(1, max_length(k, n) + 1)
    ]
    for cell in cells:
        (cohomology_dim if dim_first else cohomology_basis)(*cell)
    for k, n, q in cells:
        sl = graded_slice(k, n, q)
        assert sl.closed and sl.pivots == sl.delta.echelon()[0], (k, n, q)
        cleared = sl.cleared  # one column per leading row of slice q-1
        assert cleared.bit_count() == (graded_slice(k, n, q - 1).rank if q > 1 else 0)
        kernel = sl.delta.kernel_basis(cleared)
        assert kernel == [v for v in sl.delta.kernel_basis() if not top_bit_in(cleared, v)], (k, n, q)
        assert not any(top_bit_in(cleared, v) for v in cohomology_basis(k, n, q).rep_vecs)


def test_pivot_masks_stay_exact_on_a_corrupted_complex():
    # a slice that fails the d∘d check must not clear: its pivot mask is
    # still the uncleared pass's, and the check fails on the same 34 cells
    with corrupted_generator(9):
        unclosed = []
        for n in range(1, 25):
            for q in range(1, max_length(1, n) + 1):
                sl = graded_slice(1, n, q)
                assert sl.pivots == sl.delta.echelon()[0], (n, q)
                if not sl.closed:
                    unclosed.append((n, q))
        assert len(unclosed) == 34 and unclosed[0] == (9, 2)


# --- classes and products ----------------------------------------------------------


def test_class_of_reads_the_tagged_span():
    # representative j plus any coboundary has class e_j, and classes add
    rng = random.Random(5)
    for k in (-1, 0, 1, 2):
        for n in range(k, 23):
            for q in range(1, max_length(k, n) + 1):
                basis = cohomology_basis(k, n, q)
                unit = [tuple(int(i == j) for i in range(basis.dim)) for j in range(basis.dim)]
                for j, rep in enumerate(basis.rep_vecs):
                    vec = rep
                    for col in basis.image_vecs:
                        if rng.random() < 0.5:
                            vec ^= col
                    assert class_of(basis.slice.cochain(vec), k).coords == unit[j], (k, n, q, j)
                for i in range(basis.dim):
                    for j in range(i + 1, basis.dim):
                        vec = basis.rep_vecs[i] ^ basis.rep_vecs[j]
                        want = tuple(a ^ b for a, b in zip(unit[i], unit[j]))
                        assert class_of(basis.slice.cochain(vec), k).coords == want, (k, n, q, i, j)


def test_class_of_coboundary_is_zero():
    assert class_of(coboundary(generator(5), 1), 1).is_zero
    assert class_of(c((1, 2)), 1).is_zero  # equals the coboundary of e3


def test_class_of_nonzero():
    assert not class_of(y_cocycle(1), 1).is_zero


def test_class_of_rejects_non_cocycle():
    with pytest.raises(NotACocycleError):
        class_of(generator(3), 1)


def test_non_homogeneous_cochain_rejected():
    # two degrees of one length, and two lengths of one degree
    for mixed in (generator(2) + generator(4), generator(5) + c((1, 4))):
        for read in (lambda x: class_of(x, 1), decompose, decompose_corrected):
            with pytest.raises(ValueError, match="not homogeneous"):
                read(mixed)


def test_class_zero_cochain_needs_block():
    with pytest.raises(ValueError):
        class_of(Cochain.zero(), 1)
    assert class_of(Cochain.zero(), 1, n=12, q=2).is_zero


def test_inconsistent_class_input_rejected():
    y2 = y_cocycle(2)  # lives at (n=8, q=2)
    assert class_of(y2, 1, n=8, q=2) == class_of(y2, 1)
    for n, q in ((99, 7), (99, None), (None, 7), (8, 3)):
        with pytest.raises(ValueError, match="passed with"):
            class_of(y2, 1, n=n, q=q)
    cls = class_of(y2, 1)
    assert cls.coords and not cls.is_zero
    for coords in (cls.coords[:-1], cls.coords + (0,)):
        bad = CohomologyClass(1, 8, 2, coords)
        with pytest.raises(ValueError, match="coordinates for a block"):
            representative(bad)
        with pytest.raises(ValueError, match="coordinate lengths differ"):
            cls + bad


def test_cup_examples():
    e_cls = class_of(generator(1), 1)
    assert cup(e_cls, class_of(x_cocycle(1), 1)).is_zero
    x2 = class_of(x_cocycle(2), 1)
    assert cup(x2, x2).is_zero
    assert cup(x2, class_of(y_cocycle(1), 1)) == class_of(z_cocycle(2), 1)


def test_cup_respects_block_addition():
    a = class_of(x_cocycle(1), 1)
    b = class_of(x_cocycle(2), 1)
    with pytest.raises(ValueError):
        a + b  # different blocks


def test_cup_representative_independent():
    rng = random.Random(42)
    cells = [
        (n, q)
        for n in range(1, 13)
        for q in range(1, max_length(1, n) + 1)
        if cohomology_dim(1, n, q) > 0
    ]
    for _ in range(60):
        (n1, q1), (n2, q2) = rng.choice(cells), rng.choice(cells)
        b1, b2 = cohomology_basis(1, n1, q1), cohomology_basis(1, n2, q2)
        cls1 = class_of(b1.slice.cochain(rng.choice(b1.rep_vecs)), 1)
        cls2 = class_of(b2.slice.cochain(rng.choice(b2.rep_vecs)), 1)
        vec = b1.slice.coords(representative(cls1))
        for col in b1.image_vecs:
            if rng.random() < 0.5:
                vec ^= col
        moved = wedge(b1.slice.cochain(vec), representative(cls2))
        assert class_of(moved, 1, n=n1 + n2, q=q1 + q2) == cup(cls1, cls2)


# --- the cocycle families as a basis ------------------------------------------------


def test_family_basis_check_small():
    res = criterion_cocycle_families(16)
    assert res.passed, res.failures


def test_family_basis_count_at_12():
    # 7 classes total: 1 + 3 + 3
    assert sum(poincare_computed(12, 1).values()) == 7


# --- low minimal indices -------------------------------------------------------------


def test_low_index_odd_degree_vanishes():
    for n in (1, 3, 5, 7, 9, 11):
        for q in range(1, max_length(0, n) + 1):
            assert cohomology_dim(0, n, q) == 0
        for q in range(1, max_length(-1, n) + 1):
            assert cohomology_dim(-1, n, q) == 0


def test_low_index_worked_values():
    assert cohomology_dim(0, 12, 2) == 4  # 1 + 3 from the index-1 table
    assert cohomology_dim(0, 0, 1) == 1
    assert cohomology_dim(-1, 4, 2) == 2
    assert cohomology_dim(-1, 2, 2) == 1
    assert predicted_low_index_dim(12, 2, 0) == 4


def test_low_index_checks_pass():
    res = criterion_low_min_index(16)
    assert res.passed, res.failures


def test_central_extension_basis_values():
    four = central_extension_basis(4)
    assert [label for label, _ in four] == ["u(0,2)", "v"]
    assert four[0][1] == c((0, 4))
    assert four[1][1] == c((1, 3), (-1, 5))
    two = central_extension_basis(2)
    assert len(two) == 1 and two[0][1] == c((0, 2))
    assert len(central_extension_basis(8)) == 3
    with pytest.raises(ValueError):
        central_extension_basis(5)


def test_central_extension_checks():
    res = criterion_low_min_index(24)
    assert res.passed, res.failures


def test_second_cohomology_dim_formula():
    for n in range(2, 33, 2):
        assert cohomology_dim(-1, n, 2) == n // 4 + 1


def test_action_identity_checks():
    res = criterion_low_min_index(7)
    assert res.passed, res.failures


def test_displayed_short_potential_fails_beyond_a3():
    # the one-term potential works only for a <= 3; pin the first failure
    from wittcoh.cochains import generator_action
    from wittcoh.monomials import pair_cocycle

    lhs = generator_action(-1, pair_cocycle(5, marked=True))
    short = coboundary(wedge(generator(5), generator(8)), 1)
    assert lhs != short
    assert lhs == short + coboundary(wedge(generator(3), generator(10)), 1)


# --- tensor blocks ---------------------------------------------------------------------


def test_tensor_block_checks():
    res = criterion_tensor_blocks(14)
    assert res.passed, res.failures


def test_tensor_block_worked_example():
    # <5,7> is one odd non-special block of even length: homology dim 2
    total, problems = _block_total_homology(P(5, 7))
    assert total == 2 and not problems
    total, problems = _block_total_homology(P(9,))
    assert total == 0 and not problems
    total, problems = _block_total_homology(P(2, 4, 6))
    assert total == 1 and not problems
