import gc
import json
import pathlib
import random

import pytest

from conftest import M, P
import wittcoh
from wittcoh import caching, cohomology, conjecture, verify
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


# brute-force dims rows, (k, n) -> {q: dim}, written by tests/make_frontier_rows.py
FRONTIER_ROWS = pathlib.Path(__file__).with_name("frontier_rows.json")


def test_prediction_matches_the_recorded_frontier_rows():
    rows = json.loads(FRONTIER_ROWS.read_text())["rows"]
    keys = [(row["k"], row["n"]) for row in rows]
    assert keys == [(1, n) for n in range(1, 81)] + [(k, n) for k in (2, 3, 4) for n in range(k, 61)]
    wrong = []
    for row in rows:
        k, n = row["k"], row["n"]
        recorded = {int(q): dim for q, dim in row["dims"].items()}
        predicted = poincare_predicted(n, k)
        caching.clear_degree()
        wrong += [
            f"k={k} n={n} q={q}: predicted {predicted.get(q, 0)}, recorded {recorded.get(q, 0)}"
            for q in sorted(set(recorded) | set(predicted))
            if predicted.get(q, 0) != recorded.get(q, 0)
        ]
    assert not wrong, wrong[:10]


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
                assert (basis.image_vecs, basis.vecs) == two_pass_reference(k, n, q), (k, n, q)


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
        assert not any(top_bit_in(cleared, v) for v in cohomology_basis(k, n, q).vecs)


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
    # representative j plus any coboundary has class e_j, e_j's representative
    # is representative j, and classes add
    rng = random.Random(5)
    for k in (-1, 0, 1, 2):
        for n in range(k, 23):
            for q in range(1, max_length(k, n) + 1):
                basis = cohomology_basis(k, n, q)
                unit = [tuple(int(i == j) for i in range(basis.dim)) for j in range(basis.dim)]
                for col in basis.image_vecs[:1]:  # a coboundary, in blocks of any dimension
                    assert class_of(basis.slice.cochain(col), k).coords == (0,) * basis.dim
                for j, rep in enumerate(basis.vecs):
                    assert representative(CohomologyClass(k, n, q, unit[j])) == basis.slice.cochain(rep)
                    vec = rep
                    for col in basis.image_vecs:
                        if rng.random() < 0.5:
                            vec ^= col
                    assert class_of(basis.slice.cochain(vec), k).coords == unit[j], (k, n, q, j)
                for i in range(basis.dim):
                    for j in range(i + 1, basis.dim):
                        vec = basis.vecs[i] ^ basis.vecs[j]
                        want = tuple(a ^ b for a, b in zip(unit[i], unit[j]))
                        assert class_of(basis.slice.cochain(vec), k).coords == want, (k, n, q, i, j)


def test_an_empty_block_is_a_leaf():
    # q = 3000 lies far above max_length(1, 5) = 2: nothing below is read,
    # so no chain of 3000 empty slices is descended
    sl = graded_slice(1, 5, 3000)
    assert sl.dim == 0 and sl.closed and not sl.cleared and not sl.pivots
    assert cohomology_basis(1, 5, 3000).dim == 0
    assert representative(CohomologyClass(1, 5, 3000, ())) == Cochain.zero()


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
    for q in (0, -1):
        with pytest.raises(ValueError, match="lengths >= 1"):
            class_of(Cochain.zero(), 1, n=5, q=q)


def test_class_of_the_unit_cochain_needs_length_one():
    # the length check comes before any slice is read, so the empty wedge
    # raises the cohomology message, not the slice's "length must be >= 1"
    with pytest.raises(ValueError, match="lengths >= 1"):
        class_of(Cochain.unit(), 1)


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


# --- the CohomologyClass value type ------------------------------------------


def test_class_sum_adds_coordinates():
    a = CohomologyClass(1, 8, 2, (1, 0, 1))
    b = CohomologyClass(1, 8, 2, (1, 1, 0))
    assert a + b == CohomologyClass(1, 8, 2, (0, 1, 1))
    assert (a + a).is_zero and not a.is_zero
    for k, n, q in ((2, 8, 2), (1, 9, 2), (1, 8, 3)):
        other = CohomologyClass(k, n, q, (1, 1, 0))
        with pytest.raises(ValueError, match="different blocks"):
            a + other
    with pytest.raises(ValueError, match="coordinate lengths differ: 3 and 2"):
        a + CohomologyClass(1, 8, 2, (1, 1))


def test_class_fields_are_read_only():
    a = CohomologyClass(1, 8, 2, (1,))
    for name in ("k", "n", "q", "coords"):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)


def test_class_repr_and_hash():
    a = CohomologyClass(1, 8, 2, (1, 0))
    assert repr(a) == "CohomologyClass(k=1, n=8, q=2, coords=(1, 0))"
    b = class_of(x_cocycle(2), 1)
    assert repr(b) == f"CohomologyClass(k=1, n=4, q=1, coords={b.coords})"
    same = CohomologyClass(b.k, b.n, b.q, tuple(b.coords))
    assert same == b and hash(same) == hash(b)
    assert len({b, same, b + CohomologyClass(1, 4, 1, (0,) * len(b.coords))}) == 1


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
        cls1 = class_of(b1.slice.cochain(rng.choice(b1.vecs)), 1)
        cls2 = class_of(b2.slice.cochain(rng.choice(b2.vecs)), 1)
        vec = b1.slice.coords(representative(cls1))
        for col in b1.image_vecs:
            if rng.random() < 0.5:
                vec ^= col
        moved = wedge(b1.slice.cochain(vec), representative(cls2))
        assert class_of(moved, 1, n=n1 + n2, q=q1 + q2) == cup(cls1, cls2)



def tuple_cup(a, b):
    """The product through index tuples: the path ``cup`` skips."""
    w = wedge(representative(a), representative(b))
    return class_of(w, a.k, n=a.n + b.n, q=a.q + b.q)


def unit_class(k, n, q, j):
    dim = cohomology_dim(k, n, q)
    return CohomologyClass(k, n, q, tuple(int(i == j) for i in range(dim)))


@pytest.mark.parametrize("k", [-1, 0, 1])
def test_cup_agrees_with_the_tuple_path(k):
    # every pair of basis classes and a few seeded sums, in both orders
    rng = random.Random(15 + k)
    cells = [
        (n, q)
        for n in range(k, 15 - k)
        for q in range(1, max_length(k, n) + 1)
        if cohomology_dim(k, n, q)
    ]
    above = 0
    for n1, q1 in cells:
        for n2, q2 in cells:
            if n1 + n2 > 14:
                continue
            above += q1 + q2 > max_length(k, n1 + n2)
            d1, d2 = cohomology_dim(k, n1, q1), cohomology_dim(k, n2, q2)
            pairs = [
                (unit_class(k, n1, q1, i), unit_class(k, n2, q2, j))
                for i in range(d1)
                for j in range(d2)
            ]
            for _ in range(3):
                va, vb = rng.getrandbits(d1) or 1, rng.getrandbits(d2) or 1
                pairs.append((
                    CohomologyClass(k, n1, q1, tuple((va >> i) & 1 for i in range(d1))),
                    CohomologyClass(k, n2, q2, tuple((vb >> j) & 1 for j in range(d2))),
                ))
            for a, b in pairs:
                want = cup(a, b)
                assert want == tuple_cup(a, b), (a, b)
                assert cup(a, b) == want, (a, b)  # from the warm class memo
    assert above > 0  # products in empty blocks are covered


def test_vanishing_cup_builds_no_product_basis():
    clear_all()
    e1, e1e6 = unit_class(1, 1, 1, 0), unit_class(1, 7, 2, 0)
    cohomology_basis(1, 1, 1), cohomology_basis(1, 7, 2)
    built = cohomology_basis.cache_info().currsize
    # e1 times e1^e6 vanishes as a cochain in the nonempty (8, 3) block
    assert cup(e1, e1e6) == CohomologyClass(1, 8, 3, (0,))
    # e1 ^ e1 would live at (2, 2), where the block is empty
    assert cup(e1, e1) == CohomologyClass(1, 2, 2, ())
    assert cohomology_basis.cache_info().currsize == built
    assert not wedge(representative(e1), representative(e1e6))
    assert max_length(1, 2) == 1 and cohomology_dim(1, 8, 3) == 1


def test_the_class_memo_is_dropped_with_the_bases():
    # cup and representative read each class's record from a memo, which
    # clear_caches and corrupted_generator drop together with the bases
    memo = cohomology._class_record
    a, b = unit_class(1, 1, 1, 0), unit_class(1, 10, 2, 1)
    clean = cup(a, b)
    representative(b)
    assert memo.cache_info().currsize
    wittcoh.clear_caches()
    assert memo.cache_info().currsize == 0
    cup(a, b)
    # (13, 3) has dimension 2, and dimension 1 while e9 is corrupted
    short = CohomologyClass(1, 13, 3, (1,))
    with corrupted_generator(9):
        assert memo.cache_info().currsize == 0
        assert cup(a, b) == CohomologyClass(1, 11, 3, ()) != clean
        representative(short)
    assert memo.cache_info().currsize == 0
    assert cup(a, b) == clean and not clean.is_zero
    with pytest.raises(ValueError, match="1 coordinates for a block of dimension 2"):
        representative(short)


def test_cup_rejects_what_the_tuple_path_rejects():
    y2 = class_of(y_cocycle(2), 1)
    for coords in (y2.coords[:-1], y2.coords + (0,)):
        bad = CohomologyClass(1, 8, 2, coords)
        for a, b in ((bad, y2), (y2, bad)):
            with pytest.raises(ValueError, match="coordinates for a block"):
                cup(a, b)
    with pytest.raises(ValueError, match="different minimal indices"):
        cup(y2, unit_class(0, 2, 1, 0))


def outcome(product, a, b):
    """The product, or what it raised: the message of a plain ValueError (the
    corrupted block or the wrong coordinate count), else the exception type."""
    try:
        return product(a, b)
    except ValueError as exc:
        return str(exc) if type(exc) is ValueError else type(exc)


def test_cup_raises_where_the_tuple_path_raises_on_a_corrupted_complex():
    cells = [
        (n, q) for n in range(1, 20) for q in range(1, max_length(1, n) + 1) if cohomology_dim(1, n, q)
    ]
    classes = [unit_class(1, n, q, j) for n, q in cells for j in range(cohomology_dim(1, n, q))]
    pairs = [(a, b) for a in classes for b in classes if a.n + b.n <= 20]
    with corrupted_generator(9):
        got = [outcome(cup, a, b) for a, b in pairs]
        clear_all()
        want = [outcome(tuple_cup, a, b) for a, b in pairs]
    assert got == want
    assert any(isinstance(g, str) for g in got)
    assert any(isinstance(g, CohomologyClass) and not g.is_zero for g in got)


# --- the cocycle families as a basis ------------------------------------------------


def test_family_basis_check_small():
    res = criterion_cocycle_families(16)
    assert res.passed, res.failures


def test_family_basis_check_works_modulo_coboundaries(monkeypatch):
    # <1,4> is the one length-2 family member of degree 5, and the image of
    # slice 1 there is spanned by d(e5): the member moved by it is still a
    # basis, and d(e5) alone is not
    shape = M((1, 4))
    corrected_vec = verify.corrected_vec

    def replaced(keep):
        def vec(mp):
            if mp != shape:
                return corrected_vec(mp)
            (image,) = graded_slice(1, 5, 1).image_basis()
            return (corrected_vec(mp) if keep else 0) ^ image

        return vec

    monkeypatch.setattr(verify, "corrected_vec", replaced(keep=True))
    res = criterion_cocycle_families(16)
    assert res.passed, res.failures
    monkeypatch.setattr(verify, "corrected_vec", replaced(keep=False))
    res = criterion_cocycle_families(16)
    assert res.failures == ["n=5 q=2: family dependent modulo coboundaries"]


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


def test_central_extension_check_catches_a_repeated_cocycle(monkeypatch):
    # the image of d_1 at minimal index -1 is zero in even degree, so this
    # is plain dependence: the last member replaced by the first
    def repeated(n):
        family = central_extension_basis(n)
        return family[:-1] + [(family[-1][0], family[0][1])]

    monkeypatch.setattr(verify, "central_extension_basis", repeated)
    res = criterion_low_min_index(8)
    assert all(graded_slice(-1, n, 1).rank == 0 for n in (4, 6, 8))
    assert res.failures == [
        f"n={n} {central_extension_basis(n)[-1][0]}: dependent modulo coboundaries" for n in (4, 6, 8)
    ]


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


def test_sweeps_leave_no_reference_cycles():
    # the enumerators recurse at module level, so a cleared memo frees its
    # lists by reference counting alone: nothing is left for the collector
    clear_all()
    gc.collect()
    gc.disable()
    try:
        for n in range(1, 31):
            for q in range(1, max_length(1, n) + 1):
                cohomology_dim(1, n, q)
        clear_all()
        assert gc.collect() == 0
        conjecture.scan(16)
        clear_all()
        assert gc.collect() == 0
    finally:
        gc.enable()
