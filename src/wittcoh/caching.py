"""Registry for the library's memoized constructions.

Graded slices, monomial lists, each generator's coboundary on index masks,
each degree's largest nonempty length, dimensions, cohomology bases, each
class's representative and its index masks, the partition lists (strict,
regular, all and regular marked partitions per key, and each regular base
with its leading parts), each regular shape's split into simple
components, and the conjecture's words, generators, standard counts and
per-degree certificates are deterministic functions of small keys,
re-read constantly by the verifiers and the conjecture scan, so they
are cached without bound.  Every memo of the package goes through
``cached``, so ``clear_all`` and ``corrupted_generator`` reach all of them.

Most memos hold one degree's objects, which no later degree reads.
``dims``, ``verify`` and the conjecture scan call ``clear_degree`` after
each degree, which keeps the memos registered through ``kept``: results
that later degrees read (dimensions, relations, the index masks of each
wedge factor, each generator's coboundary on index masks, largest lengths
and the plain partition lists, which the scan re-reads for every lower
degree); ``dims`` calls ``clear_all`` once after its last degree.
``poincare`` and ``basis`` call ``clear_all`` after each degree.
"""

from __future__ import annotations

import functools

_CACHED: list = []
_KEPT: list = []


def cached(fn):
    wrapper = functools.lru_cache(maxsize=None)(fn)
    _CACHED.append(wrapper)
    return wrapper


def kept(fn):
    """``cached``, and kept by ``clear_degree``."""
    wrapper = cached(fn)
    _KEPT.append(wrapper)
    return wrapper


def clear_all() -> None:
    for fn in _CACHED:
        fn.cache_clear()


def clear_degree() -> None:
    """Drop every memo but the kept ones: one degree's slices, monomial
    lists, bases, class records, corrected wedge vectors, regular and marked
    partition lists and splits, words, standard counts and certificate."""
    for fn in _CACHED:
        if fn not in _KEPT:
            fn.cache_clear()
