import random
import re
from itertools import combinations

import pytest

import wittcoh
from conftest import M, P
from wittcoh import cochains, conjecture, monomials, partitions
from wittcoh.cochains import (
    Cochain,
    SliceBasis,
    coboundary,
    corrupted_generator,
    generator,
    graded_slice,
    max_length,
    wedge,
)
from wittcoh.cohomology import cohomology_basis
from wittcoh.monomials import (
    corrected_basis,
    corrected_vec,
    corrected_wedge,
    decompose,
    decompose_corrected,
    e_cocycle,
    markable_parts,
    marked_variants,
    marked_vec,
    marked_wedge,
    pair_cocycle,
    predicted_coboundary,
    regular_basis,
    simple_corrected,
    x_cocycle,
    y_cocycle,
    z_cocycle,
)
from wittcoh.partitions import (
    Order,
    compare,
    is_regular_marked,
    marked_regular_partitions,
    strict_partitions,
)


def c(*monos):
    return Cochain.from_terms(monos)


# --- marked wedges -------------------------------------------------------------


def test_marked_wedge_plain():
    assert marked_wedge(M((1, 4))) == c((1, 4))


def test_marked_wedge_single_mark():
    assert marked_wedge(M((5,), (5,))) == c((1, 4), (2, 3))


def test_marked_wedge_collapses():
    assert marked_wedge(M((4,), (4,))) is None
    assert marked_wedge(M((2, 2, 3))) is None
    assert marked_wedge(M((1,), (1,))) is None


def test_marked_wedges_of_the_empty_partition_raise():
    for wedge_of in (marked_wedge, marked_vec):
        with pytest.raises(ValueError, match="empty partition has no wedge monomial"):
            wedge_of(M(()))


def reference_marked_wedge(mp):
    """The product over the parts from the unit, each factor built afresh."""
    out = Cochain.unit()
    for i in mp.base.parts:
        factor = coboundary(generator(i), 1) if i in mp.marks else generator(i)
        out = wedge(out, factor)
        if not out:
            return None
    return out


def test_marked_wedge_matches_unit_loop_reference():
    collapsed = 0
    for n in range(1, 19):
        for q in range(1, max_length(1, n) + 1):
            for base in strict_partitions(n, q):
                for r in range(q + 1):
                    for marks in combinations(base.parts, r):
                        mp = M(base.parts, marks)
                        want = reference_marked_wedge(mp)
                        assert marked_wedge(mp) == want, mp
                        collapsed += want is None
    assert collapsed > 0


def test_clear_caches_empties_the_wedge_and_tuple_memos():
    wittcoh.clear_caches()
    marked_wedge(M((3, 5), (5,)))
    corrected_wedge(M((5, 7)))
    marked_vec(M((3, 5), (5,)))
    corrected_vec(M((5, 7)))
    conjecture.monomials_in_bidegree(3, 12)
    graded_slice(1, 9, 2)
    memos = (
        cochains._monomials,
        cochains._pair_masks,
        monomials._component_masks,
        monomials.corrected_vec,
        partitions._partitions,
    )
    assert all(memo.cache_info().currsize for memo in memos)
    wittcoh.clear_caches()
    assert not any(memo.cache_info().currsize for memo in memos)


def test_wedge_memos_follow_corrupted_generator():
    # both shapes read the coboundary of e_9: the marked wedge as a factor,
    # the corrected wedge through the marked pair cocycle at 9
    shape, pair = M((2, 9), (9,)), M((9, 11), (9,))

    def reference_corrected():
        out = Cochain.zero()
        for r in range(5):
            out = out + wedge(coboundary(generator(9 - 2 * r), 1), generator(11 + 2 * r))
        return out

    def vectors():
        return marked_vec(shape), corrected_vec(pair)

    def reference_vectors():
        return (
            graded_slice(1, 11, 3).coords(reference_marked_wedge(shape)),
            graded_slice(1, 20, 3).coords(reference_corrected()),
        )

    vector_memos = (cochains._pair_masks, monomials._component_masks, monomials.corrected_vec)
    clean = marked_wedge(shape), corrected_wedge(pair)
    clean_vecs = vectors()
    assert clean == (reference_marked_wedge(shape), reference_corrected())
    assert clean_vecs == reference_vectors()
    with corrupted_generator(9):
        assert not any(memo.cache_info().currsize for memo in vector_memos)
        inside = marked_wedge(shape), corrected_wedge(pair)
        assert inside == (reference_marked_wedge(shape), reference_corrected())
        assert inside[0] != clean[0] and inside[1] != clean[1]
        inside_vecs = vectors()
        assert inside_vecs == reference_vectors()
        assert inside_vecs[0] != clean_vecs[0] and inside_vecs[1] != clean_vecs[1]
    assert not any(memo.cache_info().currsize for memo in vector_memos)
    assert (marked_wedge(shape), corrected_wedge(pair)) == clean
    assert vectors() == clean_vecs


def test_marked_vec_matches_marked_wedge():
    # every marked shape of the wedge-basis sweep, and the marks on even
    # parts and on 1 that it skips
    collapsed = 0
    for n in range(1, 17):
        for q in range(1, max_length(1, n) + 1):
            for base in strict_partitions(n, q):
                for r in range(q + 1):
                    for marks in combinations(base.parts, r):
                        mp = M(base.parts, marks)
                        value = marked_wedge(mp)
                        want = 0 if value is None else graded_slice(1, n, mp.length).coords(value)
                        assert marked_vec(mp) == want, mp
                        collapsed += not want
    assert collapsed > 0


def test_single_part_factors_are_the_generator_coboundary_table():
    # a marked part is the one-part component (i,): its corrected factor is
    # d e_i (none for an even i and for 1), its unmarked factor e_i
    for i in range(1, 61):
        assert set(monomials._component_masks((i,), True)) == set(cochains._pair_masks(1, i)), i
        assert monomials._component_masks((i,), False) == (1 << (i - 1),), i
        assert markable_parts(P(i)) == ((i,) if cochains._pair_masks(1, i) else ()), i


def test_marked_vec_cancels_a_union_reached_twice():
    # e1^...^e6, the one monomial of its block, arises twice in
    # d e5 ^ d e7 ^ d e9, from {1,4}{2,5}{3,6} and from {2,3}{1,6}{4,5}
    mp = M((5, 7, 9), (5, 7, 9))
    assert graded_slice(1, 21, 6).basis == ((1, 2, 3, 4, 5, 6),)
    assert marked_wedge(mp) is None
    assert marked_vec(mp) == 0
    # with e10 as the last factor, the union {1..6} cancels inside the fold
    # of the first three, before the last factor is read
    mp = M((5, 7, 9, 10), (5, 7, 9))
    assert (1, 2, 3, 4, 5, 6, 10) in graded_slice(1, 31, 7).basis
    assert marked_wedge(mp) is None
    assert marked_vec(mp) == 0


def test_corrected_vec_and_variants_match_the_tuple_wedges():
    for n in range(1, 17):
        for q in range(1, max_length(1, n) + 1):
            sl, next_sl = graded_slice(1, n, q), graded_slice(1, n, q + 1)
            for mp in marked_regular_partitions(n, q, 1):
                assert corrected_vec(mp) == sl.coords(corrected_wedge(mp)), mp
                predicted = 0
                for variant in marked_variants(mp):
                    predicted ^= corrected_vec(variant)
                assert predicted == next_sl.coords(predicted_coboundary(mp)), mp


def test_regular_basis_shapes():
    for build, vec_of in ((regular_basis, marked_vec), (corrected_basis, corrected_vec)):
        for n, q, size in ((5, 2, 2), (4, 2, 1), (12, 3, 7)):
            rb = build(n, q)
            assert len(rb.labels) == rb.slice.dim == size
            for mp in rb.labels:
                assert rb.terms(vec_of(mp)) == [mp]


def test_wedge_basis_rejects_a_dependent_wedge():
    first, second = marked_regular_partitions(5, 2, 1)
    with pytest.raises(ValueError, match=re.escape(f"vector {second} depends")):
        monomials._wedge_basis(5, 2, lambda mp: marked_vec(first))
    # a vector in the span of the image is rejected under its own label
    sl, image = graded_slice(1, 9, 3), graded_slice(1, 9, 2).image_basis()
    kernel = sl.delta.kernel_basis(sl.cleared)
    with pytest.raises(ValueError, match=re.escape("vector boundary depends") + ".*k=1, n=9, q=3"):
        SliceBasis(sl, ("cocycle", "boundary"), [kernel[0], image[0] ^ image[-1]], image)


def test_slice_basis_coords_reject_a_vector_outside_the_span():
    # a cohomology basis spans the cocycles only: a monomial with a nonzero
    # coboundary has no coordinates
    rejected = 0
    for n in range(1, 13):
        for q in range(1, max_length(1, n) + 1):
            basis = cohomology_basis(1, n, q)
            for j in range(basis.slice.dim):
                if basis.slice.delta.mul_vec(1 << j):
                    with pytest.raises(ValueError, match="outside the span"):
                        basis.coords(1 << j)
                    rejected += 1
    assert rejected > 20


def test_wedge_basis_rejects_a_collapsed_wedge():
    zero = marked_regular_partitions(12, 3, 1)[3]
    with pytest.raises(ValueError, match=re.escape(f"wedge of {zero} collapsed")):
        monomials._wedge_basis(12, 3, lambda mp: 0 if mp == zero else marked_vec(mp))


def test_wedge_bases_round_trip_block_vectors():
    rng = random.Random(21)
    for build, vec_of in ((regular_basis, marked_vec), (corrected_basis, corrected_vec)):
        for n in range(1, 17):
            for q in range(1, max_length(1, n) + 1):
                rb = build(n, q)
                for _ in range(4):
                    v = rng.getrandbits(rb.slice.dim)
                    total = 0
                    for mp in rb.terms(v):
                        total ^= vec_of(mp)
                    assert total == v, (n, q, v)
    # a cohomology basis reads the chosen representatives through any
    # coboundary added to their sum
    for k in (-1, 0, 1, 2):
        for n in range(k, 17):
            for q in range(1, max_length(k, n) + 1):
                basis = cohomology_basis(k, n, q)
                for _ in range(4):
                    chosen = [j for j in range(basis.dim) if rng.random() < 0.5]
                    v = 0
                    for j in chosen:
                        v ^= basis.vecs[j]
                    for w in basis.image_vecs:
                        if rng.random() < 0.5:
                            v ^= w
                    assert basis.terms(v) == chosen, (k, n, q, chosen)
    # a vector that is not closed has no coordinates
    sl = graded_slice(1, 9, 2)
    unclosed = next(1 << j for j, col in enumerate(sl.delta.columns()) if col)
    with pytest.raises(ValueError, match="outside the span"):
        cohomology_basis(1, 9, 2).terms(unclosed)


def test_decompose_gap_one_pair():
    terms = decompose(marked_wedge(M((2, 3))))
    assert terms == {M((1, 4)): 1, M((5,), (5,)): 1}
    for shape in terms:
        assert compare(shape, M((2, 3))) is Order.LESS


def test_decompose_basis_element_is_itself():
    for mp in marked_regular_partitions(9, 2, 1):
        assert decompose(marked_wedge(mp)) == {mp: 1}


def test_decompose_zero():
    assert decompose(Cochain.zero()) == {}


def test_decompose_rejects_mixed():
    with pytest.raises(ValueError):
        decompose(c((1,), (1, 2)))


def test_triangularity_small_degrees():
    for n in range(1, 19):
        for q in range(1, max_length(1, n) + 1):
            for base in strict_partitions(n, q):
                for r in range(len(base.parts) + 1):
                    for marks in combinations(base.parts, r):
                        mp = M(base.parts, marks)
                        value = marked_wedge(mp)
                        if value is None:
                            continue
                        terms = decompose(value)
                        if is_regular_marked(mp, 1):
                            assert set(terms) == {mp}
                        else:
                            assert all(compare(t, mp) is Order.LESS for t in terms)


# --- corrected wedges ------------------------------------------------------------


def test_simple_corrected_examples():
    assert simple_corrected(P(3, 5)) == c((3, 5), (1, 7))
    assert simple_corrected(P(3, 5), marked=True) == c((1, 2, 5))
    assert simple_corrected(P(1, 3)) == c((1, 3))
    assert simple_corrected(P(1, 3), marked=True) is None
    with pytest.raises(ValueError):
        simple_corrected(P(4, 8))


def test_corrected_wedge_examples():
    assert corrected_wedge(M((5, 7))) == c((5, 7), (3, 9), (1, 11))
    assert corrected_wedge(M((2, 10))) == c((2, 10))
    assert corrected_wedge(M((1, 3, 8))) == c((1, 3, 8))


def test_corrected_wedge_rejects_singular():
    for build in (corrected_wedge, corrected_vec, marked_variants):
        with pytest.raises(ValueError):
            build(M((2, 3)))
        with pytest.raises(ValueError):
            build(M((5, 7), (7,)))


def test_a_collapsed_corrected_wedge_raises_value_error():
    # with d e3 corrupted to zero the marked component (3*) collapses; the
    # check is a raise, not an assert, so it also holds under ``python -O``
    with corrupted_generator(3):
        for build in (corrected_wedge, corrected_vec):
            with pytest.raises(ValueError, match=re.escape("corrected wedge of <3*> collapsed")):
                build(M((3,), (3,)))


def test_predicted_coboundary_simple():
    assert predicted_coboundary(M((9,))) == coboundary(generator(9), 1)
    assert not predicted_coboundary(M((5, 7)))
    assert not predicted_coboundary(M((2,)))


def test_predicted_coboundary_composite():
    # one markable odd component of odd length, one inert even component
    mp = M((2, 7))
    assert predicted_coboundary(mp) == corrected_wedge(M((2, 7), (7,)))


def test_closed_form_matches_actual_coboundary():
    for n in range(1, 17):
        for q in range(1, max_length(1, n) + 1):
            for mp in marked_regular_partitions(n, q, 1):
                assert coboundary(corrected_wedge(mp), 1) == predicted_coboundary(mp)


def test_corrected_to_marked_change_of_basis_is_unitriangular():
    for n in range(1, 15):
        for q in range(1, max_length(1, n) + 1):
            for mp in marked_regular_partitions(n, q, 1):
                terms = decompose(corrected_wedge(mp))
                assert terms.pop(mp) == 1
                assert all(compare(t, mp) is Order.LESS for t in terms)


def test_corrected_decomposition_roundtrip():
    for mp in marked_regular_partitions(14, 3, 1):
        assert decompose_corrected(corrected_wedge(mp)) == {mp: 1}


# --- generator cocycles -----------------------------------------------------------


def test_generator_cocycle_values():
    assert e_cocycle() == c((1,))
    assert x_cocycle(2) == c((4,))
    assert y_cocycle(1) == c((1, 3))
    assert y_cocycle(2) == c((3, 5), (1, 7))
    assert z_cocycle(2) == c((1, 2, 5))


def test_generator_cocycles_are_closed():
    for i in range(1, 7):
        assert not coboundary(e_cocycle(), 1)
        assert not coboundary(x_cocycle(i), 1)
        assert not coboundary(y_cocycle(i), 1)
        if i >= 2:
            assert not coboundary(z_cocycle(i), 1)


def test_pair_cocycle_degenerate_marked():
    assert not pair_cocycle(1, marked=True)  # the lone term has a vanishing factor


def test_generator_cocycle_bounds():
    with pytest.raises(ValueError):
        x_cocycle(0)
    with pytest.raises(ValueError):
        z_cocycle(1)


# --- the quadratic identity family, including the pinned counterexample -----------


def test_double_coboundary_identity_true_domain():
    for n in range(2, 31):
        total = Cochain.zero()
        for a in range(1, n // 2 + 1):
            total = total + wedge(coboundary(generator(a), 1), coboundary(generator(n - a), 1))
        if n % 4 != 2 or n < 10:
            assert not total, f"identity fails at n={n}"
        else:
            assert total, f"expected counterexample at n={n}"


def test_double_coboundary_counterexample_pinned():
    # at n=10 the only surviving term is the regular wedge of <3*,7*>
    total = wedge(coboundary(generator(3), 1), coboundary(generator(7), 1))
    assert total == c((1, 2, 3, 4))
    assert total == marked_wedge(M((3, 7), (3, 7)))
    assert is_regular_marked(M((3, 7), (3, 7)), 1)
