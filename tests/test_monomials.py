from itertools import combinations

import pytest

import wittcoh
from conftest import M, P
from wittcoh import conjecture, monomials
from wittcoh.cochains import Cochain, coboundary, corrupted_generator, generator, max_length, wedge
from wittcoh.gf2 import BitMatrix
from wittcoh.monomials import (
    corrected_basis,
    corrected_wedge,
    decompose,
    decompose_corrected,
    e_cocycle,
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
    conjecture.monomials_in_bidegree(3, 12)
    memos = (monomials._factor, monomials.corrected_wedge, conjecture._strict_tuples)
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

    clean = marked_wedge(shape), corrected_wedge(pair)
    assert clean == (reference_marked_wedge(shape), reference_corrected())
    with corrupted_generator(9):
        inside = marked_wedge(shape), corrected_wedge(pair)
        assert inside == (reference_marked_wedge(shape), reference_corrected())
        assert inside[0] != clean[0] and inside[1] != clean[1]
    assert (marked_wedge(shape), corrected_wedge(pair)) == clean


def test_regular_basis_shapes():
    for build in (regular_basis, corrected_basis):
        for n, q, size in ((5, 2, 2), (4, 2, 1), (12, 3, 7)):
            rb = build(n, q)
            assert rb.matrix.nrows == rb.matrix.ncols == size
            identity = BitMatrix.from_columns([1 << i for i in range(size)], size)
            assert rb.matrix @ rb.inverse == identity


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
    with pytest.raises(ValueError):
        corrected_wedge(M((2, 3)))
    with pytest.raises(ValueError):
        corrected_wedge(M((5, 7), (7,)))


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
