"""Registry for the library's memoized constructions.

Graded slices, monomial lists, each generator's coboundary on index masks,
each degree's largest nonempty length, dimensions, cohomology bases, the
partition lists (strict, regular, all and regular marked partitions per
key, and each regular base with its leading parts) and each regular
shape's split into simple components are deterministic functions of small
keys, re-read constantly by the verifiers and the conjecture scan, so they
are cached without bound.  ``dims``, ``poincare`` and ``basis`` call
``clear_all`` after each degree.  Every memo of the package goes through
``cached``, so ``clear_all`` and ``corrupted_generator`` reach all of them.
"""

from __future__ import annotations

import functools

_CACHED: list = []


def cached(fn):
    wrapper = functools.lru_cache(maxsize=None)(fn)
    _CACHED.append(wrapper)
    return wrapper


def clear_all() -> None:
    for fn in _CACHED:
        fn.cache_clear()
