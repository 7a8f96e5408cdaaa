import random
from itertools import combinations

import pytest

from wittcoh import caching
from wittcoh.cochains import (
    Cochain,
    _at_bits,
    _index_mask,
    _monomials,
    _pair_masks,
    boundary,
    coboundary,
    corrupted_generator,
    generator,
    generator_action,
    graded_slice,
    max_length,
    wedge,
    wedge_coords,
)
from wittcoh.partitions import max_regular_length


def c(*monos):
    return Cochain.from_terms(monos)


def random_homogeneous(rng, n, q, k=1):
    basis = graded_slice(k, n, q).basis
    if not basis:
        return Cochain.zero()
    picks = rng.sample(basis, rng.randint(1, min(4, len(basis))))
    return Cochain.from_terms(picks)


# --- wedge -------------------------------------------------------------------


def test_wedge_merges_sorted():
    assert wedge(generator(1), generator(2)) == c((1, 2))
    assert wedge(generator(2), generator(1)) == c((1, 2))


def test_wedge_repeated_index_vanishes():
    assert not wedge(generator(1), generator(1))


def test_char2_square_of_one_cochain():
    v = generator(1) + generator(2)
    assert not wedge(v, v)


def test_char2_square_of_two_cochain():
    w = c((1, 4), (2, 3))
    assert not wedge(w, w)


def test_wedge_associative_commutative():
    rng = random.Random(3)
    for _ in range(50):
        a = random_homogeneous(rng, rng.randint(2, 9), rng.randint(1, 2))
        b = random_homogeneous(rng, rng.randint(2, 9), rng.randint(1, 2))
        d = random_homogeneous(rng, rng.randint(2, 9), 1)
        assert wedge(a, b) == wedge(b, a)
        assert wedge(wedge(a, b), d) == wedge(a, wedge(b, d))
        assert wedge(a, b, d) == wedge(wedge(a, b), d)
        assert wedge(a) == a
    assert wedge() == Cochain.unit()


# --- coboundary ----------------------------------------------------------------


def test_coboundary_of_odd_generator():
    assert coboundary(generator(5), 1) == c((1, 4), (2, 3))


def test_coboundary_of_even_generator_vanishes():
    assert not coboundary(generator(4), 1)


def test_coboundary_of_pair():
    assert not coboundary(c((1, 2)), 1)
    assert coboundary(c((3,)), 1) == c((1, 2))


def test_coboundary_minimal_index_variants():
    assert coboundary(generator(3), 0) == c((0, 3), (1, 2))
    assert coboundary(generator(3), -1) == c((-1, 4), (0, 3), (1, 2))
    assert coboundary(generator(-1), -1) == c((-1, 0))


def test_coboundary_rejects_low_index():
    with pytest.raises(ValueError):
        coboundary(c((0, 3)), 1)


def test_coboundary_is_derivation():
    rng = random.Random(9)
    for _ in range(40):
        a = random_homogeneous(rng, rng.randint(2, 10), rng.randint(1, 2))
        b = random_homogeneous(rng, rng.randint(2, 10), rng.randint(1, 2))
        lhs = coboundary(wedge(a, b), 1)
        rhs = wedge(coboundary(a, 1), b) + wedge(a, coboundary(b, 1))
        assert lhs == rhs
        # e_{-1} acts by a derivation of the same walk
        lhs = generator_action(-1, wedge(a, b))
        rhs = wedge(generator_action(-1, a), b) + wedge(a, generator_action(-1, b))
        assert lhs == rhs


# --- boundary -----------------------------------------------------------------


def test_boundary_examples():
    assert boundary(c((1, 2)), 1) == c((3,))
    assert not boundary(c((2, 4)), 1)


def test_boundary_rejects_low_index():
    with pytest.raises(ValueError):
        boundary(c((-1, 2)), 0)


def test_boundary_squares_to_zero():
    for n in range(2, 16):
        for q in range(1, max_length(1, n) + 1):
            for mono in graded_slice(1, n, q).basis:
                assert not boundary(boundary(Cochain.from_terms([mono]), 1), 1)


def test_boundary_duality_with_coboundary():
    for k in (-1, 0, 1):
        for n in range(k, 17):
            for q in range(2, max_length(k, n) + 1):
                src = graded_slice(k, n, q)
                dst = graded_slice(k, n, q - 1)
                for x in src.basis:
                    dx = boundary(Cochain.from_terms([x]), k)
                    for y in dst.basis:
                        dy = coboundary(Cochain.from_terms([y]), k)
                        # monomials are orthonormal: <dx, y> == <x, dy>
                        assert (y in dx.terms) == (x in dy.terms)


# --- generator action ----------------------------------------------------------


def test_action_examples():
    assert not generator_action(-1, generator(2))
    assert generator_action(-1, generator(3)) == c((4,))


def test_action_raising_identity():
    eps = c((3, 5), (1, 7))
    assert generator_action(-1, eps) == coboundary(generator(9), 1)


def test_action_below_minimum_rejected():
    with pytest.raises(ValueError):
        generator_action(2, generator(1))  # 1 - 2 = -1 < 1


def test_action_commutes_with_coboundary():
    for n in range(1, 15):
        for q in range(1, max_length(1, n) + 1):
            for mono in graded_slice(1, n, q).basis:
                v = Cochain.from_terms([mono])
                assert generator_action(-1, coboundary(v, 1)) == coboundary(
                    generator_action(-1, v), 1
                )


# --- slices ---------------------------------------------------------------------


def test_slice_basis_and_empty_target():
    sl = graded_slice(1, 5, 2)
    assert sl.basis == ((1, 4), (2, 3))
    assert sl.delta.nrows == 0 and sl.delta.ncols == 2


def test_slice_degree3():
    sl = graded_slice(1, 3, 1)
    assert sl.basis == ((3,),)
    target = graded_slice(1, 3, 2)
    assert target.basis == ((1, 2),)
    assert sl.delta.columns()[0] == 1  # e3 -> e1^e2


def test_slice_empty():
    assert graded_slice(2, 4, 2).dim == 0


def test_corrupted_generator_is_scoped_to_its_block():
    clean = graded_slice(1, 9, 1).delta.rows()
    clean_q2 = graded_slice(1, 9, 2).delta.columns()
    assert coboundary(generator(9), 1) == c((1, 8), (2, 7), (3, 6), (4, 5))
    with corrupted_generator(9):
        # the cached clean slice was dropped on entry
        assert graded_slice(1, 9, 1).delta.rows() != clean
        assert coboundary(generator(9), 1) == c((1, 8), (2, 7), (3, 6))
        # slice (1, 9, 2) reads the pair masks of e_9 that (1, 9, 1) memoized
        _assert_columns_match_coboundary((1,), 9)
    # and the corrupted one on exit
    assert graded_slice(1, 9, 1).delta.rows() == clean
    assert graded_slice(1, 9, 2).delta.columns() == clean_q2
    assert coboundary(generator(9), 1) == c((1, 8), (2, 7), (3, 6), (4, 5))


def test_pair_masks_are_the_generator_coboundary():
    # an index below k has no coboundary at minimal index k
    for k in range(-1, 5):
        for i in range(1, 31):
            terms = coboundary(generator(i), k).terms if i >= k else ()
            assert set(_pair_masks(k, i)) == {_index_mask(m, k) for m in terms}, (k, i)
    assert _pair_masks(1, 8) == () and _pair_masks(3, 5) == ()


def test_pair_masks_hold_one_entry_per_generator():
    # a sweep of degrees 1..30 memoizes each generator's pairs once, not a
    # table per degree
    caching.clear_all()
    for n in range(1, 31):
        for q in range(1, max_length(1, n) + 1):
            graded_slice(1, n, q)
    assert _pair_masks.cache_info().currsize <= 31


def test_monomials_match_index_combinations():
    # one pass for tuples and masks, against a brute force over the indices
    # (a q-monomial's largest index is at most n - (q-1)k - (q-1)(q-2)/2) and
    # _index_mask; q = max_length + 1 gives the empty blocks, k = -1 the
    # index n + 1
    for k in (-1, 0, 1, 2, 3, 4):
        for n in range(k - 1, 23):
            for q in range(1, max_length(k, n) + 2):
                top = n - (q - 1) * k - (q - 1) * (q - 2) // 2
                want = tuple(t for t in combinations(range(k, top + 1), q) if sum(t) == n)
                basis, masks, pos = _monomials(k, n, q)
                assert basis == want, (k, n, q)
                assert masks == tuple(_index_mask(m, k) for m in basis), (k, n, q)
                assert pos == {m: i for i, m in enumerate(masks)}, (k, n, q)
    assert _monomials(-1, 5, 2)[0][0] == (-1, 6)


def test_first_monomial_holds_the_largest_index():
    # graded_slice reads its pair-mask list up to basis[0][-1] only
    for k in (-1, 0, 1, 2, 3, 4):
        for n in range(k - 1, 31):
            for q in range(1, max_length(k, n) + 2):
                basis = _monomials(k, n, q)[0]
                if basis:
                    assert basis[0][-1] == max(i for mono in basis for i in mono), (k, n, q)


def _assert_columns_match_coboundary(ks, n_max):
    for k in ks:
        for n in range(k, n_max + 1):
            for q in range(1, max_length(k, n) + 1):
                sl = graded_slice(k, n, q)
                nxt = graded_slice(k, n, q + 1)
                for col, mono in zip(sl.delta.columns(), sl.basis, strict=True):
                    want = nxt.coords(coboundary(Cochain(frozenset({mono})), k))
                    assert col == want, (k, n, q, mono)


def test_slice_columns_match_cochain_coboundary():
    # the mask-keyed build against the tuple-level coboundary
    _assert_columns_match_coboundary((-1, 0, 1, 2), 30)
    with corrupted_generator(9):
        _assert_columns_match_coboundary((1,), 20)
        assert graded_slice(1, 9, 1).delta.columns()[0] == graded_slice(1, 9, 2).coords(
            c((1, 8), (2, 7), (3, 6))
        )


def test_slice_coords_roundtrip():
    sl = graded_slice(1, 12, 2)
    v = sl.coords(c((1, 11), (5, 7)))
    assert sl.cochain(v) == c((1, 11), (5, 7))
    with pytest.raises(ValueError):
        sl.coords(c((2, 3)))


def _nonempty_slices(k, n_max):
    return [
        graded_slice(k, n, q)
        for n in range(k, n_max + 1)
        for q in range(1, max_length(k, n) + 1)
    ]


def test_wedge_coords_matches_the_tuple_wedge():
    # random vectors, closed or not, over every pair of blocks of degree <= 12
    rng = random.Random(5)
    for k in (-1, 0, 1):
        slices = _nonempty_slices(k, 12)
        nonzero = 0
        for a in slices:
            for b in slices:
                product = graded_slice(k, a.n + b.n, a.q + b.q)
                va, vb = rng.getrandbits(a.dim), rng.getrandbits(b.dim)
                want = product.coords(wedge(a.cochain(va), b.cochain(vb)))
                assert wedge_coords(a, va, b, vb) == want, (k, a, va, b, vb)
                nonzero += want != 0
        assert nonzero > len(slices)


def test_wedge_coords_squares_vanish():
    # no signs over GF(2): the two orders of a disjoint pair cancel
    rng = random.Random(5)
    for k in (-1, 0, 1):
        for sl in _nonempty_slices(k, 12):
            if sl.dim <= 8:
                vecs = range(1 << sl.dim)  # every vector of the block
            else:
                vecs = [rng.getrandbits(sl.dim) for _ in range(64)]
            for v in vecs:
                assert wedge_coords(sl, v, sl, v) == 0, (k, sl, v)


def test_coboundary_squares_to_zero_matrixwise():
    for k in (-1, 0, 1, 2):
        for n in range(k, 21):
            for q in range(1, max_length(k, n) + 1):
                sl = graded_slice(k, n, q)
                nxt = graded_slice(k, n, q + 1)
                assert (nxt.delta @ sl.delta).is_zero()


def test_coboundary_squares_to_zero_deep():
    for n in range(1, 51):
        for q in range(1, max_length(1, n) + 1):
            sl = graded_slice(1, n, q)
            nxt = graded_slice(1, n, q + 1)
            assert (nxt.delta @ sl.delta).is_zero()


def test_max_length():
    assert max_length(1, 5) == 2
    assert max_length(1, 6) == 3
    assert max_length(0, 0) == 1
    assert max_length(-1, -1) == 2
    assert max_length(2, 1) == 0
    # the (n, q) slice is nonempty exactly when the least sum of q distinct
    # indices >= k is at most n; max_length is the largest such q, or 0
    for k in (-1, 0, 1, 2, 3):
        least = [q * k + q * (q - 1) // 2 for q in range(40)]
        for n in range(-4, 80):
            want = max([0] + [q for q in range(1, 40) if least[q] <= n])
            assert max_length(k, n) == want, (k, n)
    # and for regular partitions, whose parts >= m are at least 2 apart
    for m in (1, 2, 3):
        least = [q * m + q * (q - 1) for q in range(40)]
        for n in range(-4, 80):
            want = max([0] + [q for q in range(1, 40) if least[q] <= n])
            assert max_regular_length(n, m) == want, (m, n)


def test_at_bits_reads_lowest_bit_first():
    rng = random.Random(25)
    items = tuple(range(300))
    for width in (1, 2, 7, 64, 65, 300):
        for _ in range(50):
            vec = rng.getrandbits(width)
            want = [j for j in range(width) if vec >> j & 1]
            assert _at_bits(items, vec) == want, vec
    assert _at_bits(items, 0) == []


# --- the Cochain value type ---------------------------------------------------


def test_zero_cochain_is_falsy_and_others_are_not():
    assert not Cochain.zero() and not Cochain()
    assert Cochain.unit() and generator(3)


def test_cochain_sum_is_symmetric_difference():
    a, b = c((1, 4), (2, 3)), c((2, 3), (1, 2))
    assert a + b == c((1, 4), (1, 2))
    assert (a + b).terms == a.terms ^ b.terms
    assert a + a == Cochain.zero()
    assert a + Cochain.zero() == a


def test_cochain_fields_are_read_only():
    a = generator(1)
    with pytest.raises(AttributeError):
        a.terms = frozenset()
    with pytest.raises(AttributeError):
        a.other = 1


def test_cochain_repr_and_str():
    assert repr(Cochain.zero()) == "Cochain(terms=frozenset())"
    assert repr(generator(5)) == "Cochain(terms=frozenset({(5,)}))"
    assert repr(Cochain.unit()) == "Cochain(terms=frozenset({()}))"
    assert str(c((2, 3), (1, 4))) == "e1^e4 + e2^e3"
    assert str(Cochain.zero()) == "0" and str(Cochain.unit()) == "1"


def test_equal_cochains_hash_equal():
    a = c((1, 4), (2, 3))
    b = c((2, 3), (1, 4))
    assert a == b and hash(a) == hash(b)
    assert len({a, b, a + Cochain.zero()}) == 1
    assert a != c((1, 4))


def test_homogeneity_bookkeeping():
    v = c((1, 4), (2, 3))
    assert v.grading == (5, 2)
    mixed = c((1,), (1, 2))
    with pytest.raises(ValueError):
        _ = mixed.grading
    with pytest.raises(ValueError):
        _ = Cochain.zero().grading
