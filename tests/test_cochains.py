import random

import pytest

from wittcoh.cochains import (
    Cochain,
    boundary,
    coboundary,
    corrupted_generator,
    generator,
    generator_action,
    graded_slice,
    max_length,
    wedge,
)


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
    assert coboundary(generator(9), 1) == c((1, 8), (2, 7), (3, 6), (4, 5))
    with corrupted_generator(9):
        # the cached clean slice was dropped on entry
        assert graded_slice(1, 9, 1).delta.rows() != clean
        assert coboundary(generator(9), 1) == c((1, 8), (2, 7), (3, 6))
    # and the corrupted one on exit
    assert graded_slice(1, 9, 1).delta.rows() == clean
    assert coboundary(generator(9), 1) == c((1, 8), (2, 7), (3, 6), (4, 5))


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


def test_homogeneity_bookkeeping():
    v = c((1, 4), (2, 3))
    assert v.grading == (5, 2)
    mixed = c((1,), (1, 2))
    with pytest.raises(ValueError):
        _ = mixed.grading
    with pytest.raises(ValueError):
        _ = Cochain.zero().grading
