"""Mutation checks: each mutant changes one line of the package in a
temporary copy of the repository, and at least one of its listed tests
must fail there.

Run from anywhere, with the test requirements installed:

    python tests/mutants.py

It first runs every listed test on an unmutated copy, since a kill means
nothing if they fail already (or name no test).  Then it prints "killed" or
"SURVIVED" per mutant and exits 1 if any survived: a survivor's tests do
not pin its line down.  An equivalent mutant, one that no input can tell
apart from the code, is listed with the reason and not run.  pytest does not
collect this file, as its name does not start with ``test_``.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the root of the repository
    snippet: str  # occurs exactly once in the file
    replacement: str
    tests: tuple[str, ...]  # pytest node ids
    equivalent: str = ""  # why no input tells it apart; such a mutant is not run


FIRST_NOT_BELOW = "tests/test_verify.py::test_first_not_below_matches_compare_on_random_tags"
DEGREE_LOOP = "tests/test_verify.py::test_run_suites_drops_each_degree_and_builds_each_slice_once"
CORRUPTED_PIVOTS = "tests/test_cohomology.py::test_pivot_masks_stay_exact_on_a_corrupted_complex"
CLEARING = "tests/test_cohomology.py::test_clearing_is_exact"
SLICE_COLUMNS = "tests/test_cochains.py::test_slice_columns_match_cochain_coboundary"
SPLIT = "tests/test_partitions.py::test_split_matches_the_definitions_on_every_partition"
COMPARE = "tests/test_partitions.py::test_compare_examples"
WORDS = "tests/test_conjecture.py::test_bidegree_words_match_ascending_tuples_reference"
COUNTING = "tests/test_partitions.py::test_counting_enumerators_match_unmemoized_references"
NO_EMPTY_KEYS = "tests/test_conjecture.py::test_scan_enumerates_no_empty_part_tuples"
SPECIAL_COUNTS = "tests/test_partitions.py::test_special_counts_match_binomial"
MARKINGS = "tests/test_partitions.py::test_markings_are_the_checked_subsets_in_order"
WALKER = "tests/test_partitions.py::test_ascending_tuples_match_brute_force"
MONOMIALS = "tests/test_cochains.py::test_monomials_match_index_combinations"
FAMILY_SPAN = "tests/test_cohomology.py::test_family_basis_check_works_modulo_coboundaries"
FRONTIER = "tests/test_cohomology.py::test_prediction_matches_the_recorded_frontier_rows"
WEDGE_LAWS = "tests/test_cochains.py::test_wedge_associative_commutative"
DERIVATION = "tests/test_cochains.py::test_coboundary_is_derivation"
TUPLE_PATH = "tests/test_cohomology.py::test_cup_agrees_with_the_tuple_path"
TAGGED_SPAN = "tests/test_cohomology.py::test_class_of_reads_the_tagged_span"

MUTANTS = (
    Mutant(
        "equal-length bases counted as longer",
        "src/wittcoh/verify.py",
        "if t.base.length > length:",
        "if t.base.length >= length:",
        (FIRST_NOT_BELOW,),
    ),
    Mutant(
        "equal-length terms not compared",
        "src/wittcoh/verify.py",
        "_at_bits(labels, x & equal & (stop - 1))",
        "_at_bits(labels, 0)",
        (FIRST_NOT_BELOW,),
    ),
    Mutant(
        "memoized marked partitions handed out",
        "src/wittcoh/partitions.py",
        "return list(_marked_regular(n, q, k))",
        "return _marked_regular(n, q, k)",
        ("tests/test_partitions.py::test_marked_regular_partitions_returns_a_fresh_list",),
    ),
    Mutant(
        "block totals recomputed per component",
        "src/wittcoh/verify.py",
        "math.prod(totals[comp] for comp",
        "math.prod(_block_total_homology(comp)[0] for comp",
        ("tests/test_verify.py::test_tensor_blocks_total_each_regular_base_once",),
    ),
    Mutant(
        "boundary scatter ORs instead of toggling",
        "src/wittcoh/verify.py",
        "cols[tpos[rest | 1 << (s - k)]] ^= bit",
        "cols[tpos[rest | 1 << (s - k)]] |= bit",
        ("tests/test_verify.py::test_mask_boundary_matrix_matches_tuple_boundary",),
    ),
    Mutant(
        "degree memos not dropped",
        "src/wittcoh/verify.py",
        "        caching.clear_degree()\n",
        "        pass\n",
        (DEGREE_LOOP,),
    ),
    Mutant(
        "slices kept across degrees",
        "src/wittcoh/cochains.py",
        "@cached\ndef graded_slice(",
        "@kept\ndef graded_slice(",
        (DEGREE_LOOP,),
    ),
    Mutant(
        "an abort stops every suite",
        "src/wittcoh/verify.py",
        "            waiting.pop(i, None)\n            results[i] = CheckResult(results[i].name)",
        "            waiting.clear()\n            results[i] = CheckResult(results[i].name)",
        ("tests/test_verify.py::test_interleaved_suites_match_each_suite_alone",),
    ),
    Mutant(
        "an untagged vector of bit 0 alone is no pivot",
        "src/wittcoh/gf2.py",
        "if v >= limit:",
        "if v > limit:",
        ("tests/test_gf2.py::test_rank_matches_naive_oracle", "tests/test_gf2.py::test_kernel_matches_rref_oracle"),
    ),
    Mutant(
        "tag bits alone count as a pivot",
        "src/wittcoh/gf2.py",
        "if v >= limit:",
        "if v:",
        ("tests/test_gf2.py::test_kernel_matches_rref_oracle",),
    ),
    Mutant(
        "every slice counted as closed",
        "src/wittcoh/cochains.py",
        "self.closed = not any(delta.mul_vec(w) for w in prev.image_basis())",
        "self.closed = True",
        (CORRUPTED_PIVOTS,),
    ),
    Mutant(
        "an unclosed slice clears",
        "src/wittcoh/cochains.py",
        "self.cleared = prev.leads if self.closed else 0",
        "self.cleared = prev.leads",
        (CORRUPTED_PIVOTS,),
    ),
    Mutant(
        "nothing cleared",
        "src/wittcoh/cochains.py",
        "self.cleared = prev.leads if self.closed else 0",
        "self.cleared = 0",
        (CLEARING,),
    ),
    Mutant(
        "the pivot columns below cleared instead of its leading rows",
        "src/wittcoh/cochains.py",
        "self.cleared = prev.leads if self.closed else 0",
        "self.cleared = prev.pivots if self.closed else 0",
        (CLEARING,),
    ),
    Mutant(
        "generator pairs shifted by 1 instead of the minimal index",
        "src/wittcoh/cochains.py",
        "tuple(1 << (a - k) | 1 << (b - k) for",
        "tuple(1 << (a - 1) | 1 << (b - 1) for",
        ("tests/test_cochains.py::test_pair_masks_are_the_generator_coboundary", SLICE_COLUMNS),
    ),
    Mutant(
        "slice coboundary terms at reversed positions",
        "src/wittcoh/cochains.py",
        "col ^= 1 << tpos[rest | ab]",
        "col ^= 1 << (len(target) - 1 - tpos[rest | ab])",
        (SLICE_COLUMNS,),
    ),
    Mutant(
        "slice coboundary term looked up by xor",
        "src/wittcoh/cochains.py",
        "col ^= 1 << tpos[rest | ab]",
        "col ^= 1 << tpos[rest ^ ab]",
        (),
        "the line above skips any ab that meets rest, so rest ^ ab == rest | ab",
    ),
    Mutant(
        "wedge terms at reversed positions",
        "src/wittcoh/cochains.py",
        "vec ^= 1 << tpos[x | y]",
        "vec ^= 1 << (len(tpos) - 1 - tpos[x | y])",
        ("tests/test_cochains.py::test_wedge_coords_matches_the_tuple_wedge",),
    ),
    Mutant(
        "wedge term looked up by xor",
        "src/wittcoh/cochains.py",
        "vec ^= 1 << tpos[x | y]",
        "vec ^= 1 << tpos[x ^ y]",
        (),
        "only disjoint masks reach the lookup, so x ^ y == x | y",
    ),
    Mutant(
        "a gap of 2 cuts a component too",
        "src/wittcoh/partitions.py",
        "if parts[i] - parts[i - 1] != 2 and parts[i] > _special_top(i - start + 1, k):",
        "if parts[i] > _special_top(i - start + 1, k):",
        (SPLIT,),
    ),
    Mutant(
        "gaps below 2 cut no component",
        "src/wittcoh/partitions.py",
        "if parts[i] - parts[i - 1] != 2 and",
        "if parts[i] - parts[i - 1] > 2 and",
        (),
        "only regular tuples are split, and their gaps are all at least 2",
    ),
    Mutant(
        "a part just past the special top stays in its component",
        "src/wittcoh/partitions.py",
        "parts[i] > _special_top(i - start + 1, k):",
        "parts[i] > _special_top(i - start + 1, k) + 1:",
        (SPLIT,),
    ),
    Mutant(
        "a part at the special top cuts a component",
        "src/wittcoh/partitions.py",
        "parts[i] > _special_top(i - start + 1, k):",
        "parts[i] >= _special_top(i - start + 1, k):",
        (SPLIT,),
    ),
    Mutant(
        "the special bound one higher",
        "src/wittcoh/partitions.py",
        "    return 2 * (k + q - 1) - 1\n",
        "    return 2 * (k + q - 1)\n",
        (SPLIT,),
    ),
    Mutant(
        "special components lead",
        "src/wittcoh/partitions.py",
        "if not _special_parts(c, k) and all(x % 2 for x in c)",
        "if all(x % 2 for x in c)",
        (SPLIT,),
    ),
    Mutant(
        "a cohomology shape needs components both special and even",
        "src/wittcoh/partitions.py",
        "_special_parts(c, k) or sum(c) % 2 == 0",
        "_special_parts(c, k) and sum(c) % 2 == 0",
        (SPLIT,),
    ),
    Mutant(
        "equal prefix sums break dominance",
        "src/wittcoh/partitions.py",
        "        if sa > sb:\n",
        "        if sa >= sb:\n",
        (COMPARE,),
    ),
    Mutant(
        "a longer base compares below",
        "src/wittcoh/partitions.py",
        "return Order.LESS if len(pa) < len(pb) else Order.GREATER",
        "return Order.LESS if len(pa) > len(pb) else Order.GREATER",
        (COMPARE, FIRST_NOT_BELOW),
    ),
    Mutant(
        "marks compare in reverse",
        "src/wittcoh/partitions.py",
        "return Order.LESS if a.marks < b.marks else Order.GREATER",
        "return Order.LESS if a.marks > b.marks else Order.GREATER",
        (COMPARE,),
    ),
    Mutant(
        "class coordinates read without the marker bit",
        "src/wittcoh/cohomology.py",
        "bin(x | 1 << basis.dim)[:2:-1]",
        "bin(x)[:2:-1]",
        (TAGGED_SPAN,),
    ),
    Mutant(
        "the class memo outlives each degree",
        "src/wittcoh/cohomology.py",
        "@cached\ndef _class_record",
        "@kept\ndef _class_record",
        (DEGREE_LOOP,),
    ),
    Mutant(
        "the class record's masks drop one monomial",
        "src/wittcoh/cohomology.py",
        "tuple(_at_bits(sl.masks, vec))",
        "tuple(_at_bits(sl.masks, vec))[1:]",
        (TUPLE_PATH,),
    ),
    Mutant(
        "the class record ignores the last coordinate",
        "src/wittcoh/cohomology.py",
        "for j, bit in enumerate(coords):",
        "for j, bit in enumerate(coords[:-1]):",
        (TAGGED_SPAN,),
    ),
    Mutant(
        "a vector outside the span gets coordinates",
        "src/wittcoh/cochains.py",
        "        if x >> self.dim:\n",
        "        if False:\n",
        ("tests/test_monomials.py::test_slice_basis_coords_reject_a_vector_outside_the_span",),
    ),
    Mutant(
        "the last special part's range counted one short",
        "src/wittcoh/partitions.py",
        "        return hi - lo + 1\n",
        "        return hi - lo\n",
        (SPECIAL_COUNTS,),
    ),
    Mutant(
        "the special reference drops the top part",
        "src/wittcoh/partitions.py",
        "if p.parts[-1] <= top)",
        "if p.parts[-1] < top)",
        (SPECIAL_COUNTS,),
    ),
    Mutant(
        "product relations checked to half of n_max",
        "src/wittcoh/verify.py",
        "i_max = _bound(32, n_max) // 4",
        "i_max = _bound(32, n_max) // 2",
        ("tests/test_verify.py::test_product_relations_check_i_up_to_a_quarter_of_n_max",),
    ),
    Mutant(
        "set bits read highest first",
        "src/wittcoh/cochains.py",
        "    out.reverse()\n",
        "",
        ("tests/test_cochains.py::test_at_bits_reads_lowest_bit_first",),
    ),
    Mutant(
        "markings listed from the most marks down",
        "src/wittcoh/partitions.py",
        "for r in range(len(parts) + 1)",
        "for r in reversed(range(len(parts) + 1))",
        (MARKINGS,),
    ),
    Mutant(
        "markings not checked",
        "src/wittcoh/partitions.py",
        "    MarkedPartition(base, parts)  # raises unless every subset is a valid mark tuple\n",
        "",
        (MARKINGS,),
    ),
    Mutant(
        "a zero cochain is truthy",
        "src/wittcoh/cochains.py",
        "    def __bool__(self) -> bool:\n        return bool(self.terms)\n",
        "",
        ("tests/test_cochains.py::test_zero_cochain_is_falsy_and_others_are_not",),
    ),
    Mutant(
        "a cochain sum concatenates",
        "src/wittcoh/cochains.py",
        "    def __add__(self, other: \"Cochain\") -> \"Cochain\":\n        return Cochain(self.terms ^ other.terms)\n",
        "",
        ("tests/test_cochains.py::test_cochain_sum_is_symmetric_difference",),
    ),
    Mutant(
        "classes of different lengths add",
        "src/wittcoh/cohomology.py",
        "if (self.k, self.n, self.q) != (other.k, other.n, other.q):",
        "if (self.k, self.n) != (other.k, other.n):",
        ("tests/test_cohomology.py::test_class_sum_adds_coordinates",),
    ),
    Mutant(
        "the tuple wedge keeps a repeated index",
        "src/wittcoh/cochains.py",
        "if s1.isdisjoint(m2))",
        "if True)",
        ("tests/test_cochains.py::test_wedge_repeated_index_vanishes",),
    ),
    Mutant(
        "the GF(2) sum never cancels",
        "src/wittcoh/cochains.py",
        "acc ^= {tuple(sorted(mono))}",
        "acc |= {tuple(sorted(mono))}",
        ("tests/test_cochains.py::test_char2_square_of_one_cochain",),
    ),
    Mutant(
        "the n-ary wedge skips its first factor",
        "src/wittcoh/cochains.py",
        "    out = factors[0]\n",
        "    out = Cochain.unit()\n",
        (WEDGE_LAWS,),
    ),
    Mutant(
        "the derivation walk drops its clash test",
        "src/wittcoh/cochains.py",
        "if set(rest).isdisjoint(t)",
        "if True",
        (DERIVATION,),
    ),
    Mutant(
        "the action keeps even indices",
        "src/wittcoh/cochains.py",
        "for i in mono if i % 2}",
        "for i in mono}",
        ("tests/test_cochains.py::test_action_examples",),
    ),
    Mutant(
        "irregular tuples split into the memo",
        "src/wittcoh/partitions.py",
        "    prev = parts[0]\n",
        "    _split(parts, k)\n    prev = parts[0]\n",
        ("tests/test_partitions.py::test_split_memo_holds_only_regular_tuples",),
    ),
    Mutant(
        "an unchecked marked partition stores its base's length",
        "src/wittcoh/partitions.py",
        'object.__setattr__(mp, "length", base.length + len(marks))',
        'object.__setattr__(mp, "length", base.length)',
        ("tests/test_partitions.py::test_enumerated_partitions_equal_checked_ones",),
    ),
    Mutant(
        "any marks of a regular base count as regular",
        "src/wittcoh/partitions.py",
        "return split is not None and all(m in split[1] for m in mp.marks)",
        "return split is not None",
        (SPLIT,),
    ),
    Mutant(
        "a low part reported as irregular",
        "src/wittcoh/partitions.py",
        'raise ValueError(f"{p} has a part below the minimal part {k}")',
        'raise ValueError(f"{p} is not regular")',
        (SPLIT,),
    ),
    Mutant(
        "the empty tuple has one empty component",
        "src/wittcoh/partitions.py",
        "    if parts:\n        comps.append(parts[start:])\n",
        "    comps.append(parts[start:])\n",
        ("tests/test_partitions.py::test_degree_zero_has_the_empty_marked_partition",),
    ),
    Mutant(
        "a variant marks a component of even length",
        "src/wittcoh/monomials.py",
        "if len(comp) % 2 == 1 and comp[0] in leads",
        "if comp[0] in leads",
        ("tests/test_monomials.py::test_predicted_coboundary_simple",
         "tests/test_acceptance.py::test_criterion_06_corrected_coboundary_to_24"),
    ),
    Mutant(
        "wedge vectors ignore the marks",
        "src/wittcoh/monomials.py",
        "_component_masks(comp, comp[0] in mp.marks)",
        "_component_masks(comp, False)",
        ("tests/test_monomials.py::test_marked_vec_matches_marked_wedge",
         "tests/test_monomials.py::test_corrected_vec_and_variants_match_the_tuple_wedges"),
    ),
    Mutant(
        "a disallowed mark gets the plain masks",
        "src/wittcoh/monomials.py",
        "if factor else ()",
        "if factor else _component_masks(comp, False)",
        ("tests/test_monomials.py::test_single_part_factors_are_the_generator_coboundary_table",),
    ),
    Mutant(
        "the X sum bound tightened",
        "src/wittcoh/partitions.py",
        "    top = (total - a * (a + 1)) // 4\n",
        "    top = (total - a * (a + 1)) // 4 - 1\n",
        (WORDS, COUNTING),
    ),
    Mutant(
        "the X sum bound loosened",
        "src/wittcoh/partitions.py",
        "    top = (total - a * (a + 1)) // 4\n",
        "    top = (total - a * (a + 1)) // 4 + 1\n",
        (NO_EMPTY_KEYS,),
    ),
    Mutant(
        "a degree without X parts not pinned",
        "src/wittcoh/partitions.py",
        "low = least if a else max(least, top)",
        "low = least",
        (NO_EMPTY_KEYS,),
    ),
    Mutant(
        "a degree without Y parts not pinned",
        "src/wittcoh/partitions.py",
        "    if not b:\n        top = min(top, 0)\n",
        "",
        (NO_EMPTY_KEYS,),
    ),
    Mutant(
        "the least Y/L sum raised",
        "src/wittcoh/partitions.py",
        "least = b + gap * b * (b - 1) // 2",
        "least = b + gap * b * (b - 1) // 2 + 1",
        (WORDS, COUNTING),
    ),
    Mutant(
        "the least Y/L sum lowered",
        "src/wittcoh/partitions.py",
        "least = b + gap * b * (b - 1) // 2",
        "least = b + gap * b * (b - 1) // 2 - 1",
        (NO_EMPTY_KEYS,),
    ),
    Mutant(
        "the pairs' L parts spaced as the Y indices",
        "src/wittcoh/partitions.py",
        "_factor_lists(n, q, 2)",
        "_factor_lists(n, q, 1)",
        (COUNTING,),
    ),
    Mutant(
        "base lengths stop one short",
        "src/wittcoh/partitions.py",
        "min(q, max_regular_length(n, k)) + 1",
        "min(q, max_regular_length(n, k))",
        (COUNTING,),
    ),
    Mutant(
        "base lengths run one past the longest regular base",
        "src/wittcoh/partitions.py",
        "min(q, max_regular_length(n, k)) + 1",
        "min(q, max_regular_length(n, k) + 1) + 1",
        (NO_EMPTY_KEYS,),
    ),
    Mutant(
        "the two-slot leaf without its gap",
        "src/wittcoh/partitions.py",
        "range(lo, (remaining - gap) // 2 + 1)",
        "range(lo, remaining // 2 + 1)",
        (WALKER,),
    ),
    Mutant(
        "the walker's inner bound one lower",
        "src/wittcoh/partitions.py",
        "hi = (remaining - gap * slots * (slots - 1) // 2) // slots",
        "hi = (remaining - gap * slots * (slots - 1) // 2) // slots - 1",
        (WALKER,),
    ),
    Mutant(
        "the walker's inner bound one higher",
        "src/wittcoh/partitions.py",
        "hi = (remaining - gap * slots * (slots - 1) // 2) // slots",
        "hi = (remaining - gap * slots * (slots - 1) // 2) // slots + 1",
        (),
        "past the bound the least completion's sum exceeds remaining, so the extra calls yield nothing",
    ),
    Mutant(
        "a mask bit taken from the current lowest entry",
        "src/wittcoh/partitions.py",
        "pmask | 1 << (a - lowest), remaining - a",
        "pmask | 1 << (a - lo), remaining - a",
        (MONOMIALS,),
    ),
    Mutant(
        "the count-0 leaf accepts a nonzero remainder",
        "src/wittcoh/partitions.py",
        "elif slots == 0 and remaining == 0:",
        "elif slots == 0:",
        (WALKER,),
    ),
    Mutant(
        "the longest length stops before a tuple that fits exactly",
        "src/wittcoh/partitions.py",
        "gap * q * (q + 1) // 2 <= total:",
        "gap * q * (q + 1) // 2 < total:",
        ("tests/test_cochains.py::test_max_length",),
    ),
    Mutant(
        "an empty bidegree has ideal rank 1",
        "src/wittcoh/conjecture.py",
        "    if not pos:\n        return 0\n",
        "    if not pos:\n        return 1\n",
        ("tests/test_conjecture.py::test_ideal_rank_bounded_by_ambient",),
    ),
    Mutant(
        "the family span read from slice q",
        "src/wittcoh/verify.py",
        "Gf2Span(graded_slice(1, n, q - 1).image_basis() if q > 1 else ())",
        "Gf2Span(graded_slice(1, n, q).image_basis())",
        (FAMILY_SPAN,),
    ),
    Mutant(
        "an empty family span",
        "src/wittcoh/verify.py",
        "Gf2Span(graded_slice(1, n, q - 1).image_basis() if q > 1 else ())",
        "Gf2Span()",
        (FAMILY_SPAN,),
    ),
    Mutant(
        "the H^2 dimension read at length 1",
        "src/wittcoh/verify.py",
        "dim = cohomology_dim(-1, n, 2)",
        "dim = cohomology_dim(-1, n, 1)",
        ("tests/test_cohomology.py::test_central_extension_checks",),
    ),
    Mutant(
        "the marked potential without its first pair",
        "src/wittcoh/verify.py",
        "for s in range((a - 1) // 2 + 1))",
        "for s in range(1, (a - 1) // 2 + 1))",
        ("tests/test_cohomology.py::test_action_identity_checks",),
    ),
    Mutant(
        "the marked potential without its last pair",
        "src/wittcoh/verify.py",
        "for s in range((a - 1) // 2 + 1))",
        "for s in range((a - 1) // 2))",
        (),
        "the last pair is e1 ^ e(2a+2), which is closed (e1 and even generators have zero coboundary), "
        "so the potential's coboundary, all the check reads, is unchanged",
    ),
    Mutant(
        "the central extension v one pair short",
        "src/wittcoh/cohomology.py",
        "for r in range(n // 4 + 1)",
        "for r in range(n // 4)",
        ("tests/test_cohomology.py::test_central_extension_basis_values",),
    ),
    Mutant(
        "the z witness one pair short",
        "src/wittcoh/verify.py",
        "for m in range((i - 2) // 2 + 1)",
        "for m in range((i - 2) // 2)",
        ("tests/test_verify.py::test_product_relations_check_i_up_to_a_quarter_of_n_max",),
    ),
    Mutant(
        "the odd-x witness one pair short",
        "src/wittcoh/verify.py",
        "for m in range(1, (i + 1) // 2 + 1)",
        "for m in range(1, (i + 1) // 2)",
        ("tests/test_verify.py::test_product_relations_check_i_up_to_a_quarter_of_n_max",),
    ),
    Mutant(
        "a dense component's plain wedge missing its first part",
        "src/wittcoh/monomials.py",
        "plain = Cochain(frozenset({p.parts}))",
        "plain = Cochain(frozenset({p.parts[1:]}))",
        ("tests/test_monomials.py::test_simple_corrected_examples",),
    ),
    Mutant(
        "the cut's special bound one length too long",
        "src/wittcoh/partitions.py",
        "parts[i] > _special_top(i - start + 1, k)",
        "parts[i] > _special_top(i - start + 2, k)",
        (FRONTIER,),
    ),
)


def run_tests(mutant: Mutant | None, tests: list[str]) -> bool:
    """Whether the tests pass in a fresh copy of the repository with the
    mutant applied (none: unmutated)."""
    with tempfile.TemporaryDirectory(prefix="wittcoh-mutant-") as tmp:
        copy = pathlib.Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, copy / name)
        if mutant is not None:
            target = copy / mutant.path
            target.write_text(target.read_text().replace(mutant.snippet, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=copy, env=env, capture_output=True, text=True,
        )
        return proc.returncode == 0


def main() -> int:
    for mutant in MUTANTS:
        if (ROOT / mutant.path).read_text().count(mutant.snippet) != 1:
            raise SystemExit(f"{mutant.name}: snippet does not occur exactly once in {mutant.path}")
        if not mutant.tests and not mutant.equivalent:
            raise SystemExit(f"{mutant.name}: lists no test")
    every_test = sorted({t for m in MUTANTS for t in m.tests})
    if not run_tests(None, every_test):
        print("the listed tests fail on the unmutated code; no mutant was run")
        return 2
    survivors = 0
    for mutant in MUTANTS:
        if mutant.equivalent:
            print(f"equivalent  {mutant.name}: {mutant.equivalent}")
            continue
        survived = run_tests(mutant, list(mutant.tests))
        survivors += survived
        print(f"{'SURVIVED' if survived else 'killed  '}  {mutant.name}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
