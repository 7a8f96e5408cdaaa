"""Registry for the library's memoized constructions.

Graded slices, basis matrices, and cohomology bases are all deterministic
functions of small integer keys and are re-read constantly by the verifiers,
so they are cached without bound.  ``dims`` and ``poincare`` call
``clear_all`` after each degree.
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
