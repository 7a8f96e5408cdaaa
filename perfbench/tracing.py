"""Span tracing of the calls into each ``wittcoh`` module, from outside the package.

The package imports with ``from .x import y``, so a function is reached
through every module that imported it, and through the package's own
namespace.  ``install`` rebinds the name in each of those (and, for methods,
on the class) to a wrapper that records a span: name, start, end and parent.  Spans stay in memory and are written out
by ``Tracer.dump`` when the run ends.

A span's self time is its duration minus the time covered by the traced
spans it caused.  Every ``*_s`` metric below is a self time, except
``verify.suite_s.*`` and ``conjecture.counting_s``, which are inclusive.

Some boundaries are traced only where another module calls in (``EXTERNAL``):
the coboundary and partition helpers are also called hundreds of thousands of
times inside their own module, and that work belongs to the caller's self time
(for example a slice build expanding its coboundary columns).  For the same
reason ``partitions.ascending_tuples`` is not traced: ``monomials_in_bidegree``
calls it about half a million times per conjecture scan for tiny tuples, and
that time stays in ``conjecture.bidegree_s``.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array

MODULES = ("gf2", "partitions", "cochains", "monomials", "cohomology", "conjecture", "verify", "cli")

# The 13 suites of verify.run_suites, by the function that runs each.
SUITES = (
    "worked_example", "dims_min_index_1", "dims_min_index_k", "wedge_basis",
    "pair_identities", "corrected_coboundary", "cocycle_families", "product_relations",
    "low_min_index", "special_counts", "structural", "tensor_blocks", "conjecture",
)

CACHED = ("graded_slice", "cohomology_basis", "regular_basis", "corrected_basis")

ALL = "all"            # rebind in the defining module too
EXTERNAL = "external"  # rebind only in the modules that import the name

# (stat key, module, function, scope, counter)
FUNCTIONS = (
    ("cochains.slice", "cochains", "graded_slice", EXTERNAL, "dim"),
    ("cochains.coboundary", "cochains", "coboundary", EXTERNAL, None),
    ("cochains.wedge", "cochains", "wedge", EXTERNAL, None),
    ("cohomology.basis", "cohomology", "cohomology_basis", ALL, "dim"),
    ("cohomology.class_of", "cohomology", "class_of", ALL, None),
    ("cohomology.cup", "cohomology", "cup", ALL, None),
    ("partitions.enum", "partitions", "strict_index_tuples", EXTERNAL, "items"),
    ("partitions.enum", "partitions", "strict_partitions", EXTERNAL, "items"),
    ("partitions.enum", "partitions", "regular_partitions", EXTERNAL, "items"),
    ("partitions.enum", "partitions", "marked_regular_partitions", EXTERNAL, "items"),
    ("partitions.enum", "partitions", "cohomology_partitions", EXTERNAL, "items"),
    ("partitions.enum", "partitions", "strict_regular_pairs", EXTERNAL, "items"),
    ("partitions.enum", "partitions", "even_component_marked", EXTERNAL, "items"),
    ("partitions.enum", "partitions", "count_special", EXTERNAL, "items"),
    ("partitions.decomp", "partitions", "canonical_decomposition", EXTERNAL, None),
    ("partitions.decomp", "partitions", "leading_parts", EXTERNAL, None),
    ("partitions.compare", "partitions", "compare", EXTERNAL, None),
    ("conjecture.ideal_rank", "conjecture", "ideal_rank", ALL, None),
    ("conjecture.bidegree", "conjecture", "monomials_in_bidegree", ALL, "items"),
    ("conjecture.counting", "conjecture", "counting_cell", ALL, None),
    ("monomials.basis", "monomials", "regular_basis", ALL, None),
    ("monomials.basis", "monomials", "corrected_basis", ALL, None),
    ("monomials.wedge", "monomials", "marked_wedge", ALL, None),
    ("monomials.wedge", "monomials", "corrected_wedge", ALL, None),
    ("monomials.decompose", "monomials", "decompose", ALL, None),
    ("monomials.decompose", "monomials", "decompose_corrected", ALL, None),
    ("cli.main", "cli", "main", ALL, None),
) + tuple((f"verify.suite.{s}", "verify", f"criterion_{s}", ALL, None) for s in SUITES)

# (stat key, class, method, counter)
METHODS = (
    ("gf2.kernel", "BitMatrix", "kernel_basis", "bits"),
    ("gf2.solve", "BitMatrix", "solve", "bits"),
    ("gf2.inverse", "BitMatrix", "inverse", None),
    ("gf2.span_add", "Gf2Span", "add", "useful"),
)

# Hot leaves: timed and counted, but no span is kept for each call.
UNRECORDED = {"gf2.span_add"}


class Stat:
    __slots__ = ("calls", "total", "self", "builds", "build_self", "items")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.builds = 0  # cache misses of a memoized function
        self.build_self = 0.0
        self.items = 0  # dims built, bits eliminated, items enumerated, or adds that grew a span


class Tracer:
    """In-memory span store plus per-key call statistics."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.names: list[str] = []  # span name by id
        # one entry per recorded span
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # open frames: [time covered by traced children, span index]
        self._stack: list[list] = []

    def stat(self, key: str) -> Stat:
        return self.stats.setdefault(key, Stat())

    def wrap(self, key: str, fn, counter: str | None = None, cache=None):
        stat = self.stat(key)
        record = key not in UNRECORDED
        name_id = len(self.names)
        self.names.append(f"{key}:{fn.__name__}")
        stack = self._stack
        clock = time.perf_counter
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end

        def traced(*args, **kwargs):
            misses = cache.cache_info().misses if cache is not None else 0
            idx = -1
            if record:
                idx = len(starts)
                names.append(name_id)
                parents.append(stack[-1][1] if stack else -1)
                starts.append(0.0)
                ends.append(0.0)
            frame = [0.0, idx]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                own = duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if record:
                    starts[idx] = t0
                    ends[idx] = t1
                stat.calls += 1
                stat.total += duration
                stat.self += own
            if cache is not None and cache.cache_info().misses > misses:
                stat.builds += 1
                stat.build_self += own
                if counter == "dim":
                    stat.items += result.dim
            elif counter == "bits":
                stat.items += args[0].nrows * args[0].ncols
            elif counter == "items":
                stat.items += result if isinstance(result, int) else len(result)
            elif counter == "useful":
                stat.items += bool(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def span_count(self) -> int:
        return len(self.span_start)

    def dump(self, path) -> None:
        """Write every recorded span as [name, parent index, start, end]."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "fields": ["name", "parent", "start_s", "end_s"]}, fh)
            fh.write("\n")
            for row in zip(self.span_name, self.span_parent, self.span_start, self.span_end):
                fh.write(json.dumps(row))
                fh.write("\n")


def install(tracer: Tracer) -> None:
    """Rebind every traced name in the package; call before the workload runs."""
    mods = {m: importlib.import_module(f"wittcoh.{m}") for m in MODULES}
    mods["wittcoh"] = importlib.import_module("wittcoh")
    for key, home, name, scope, counter in FUNCTIONS:
        original = getattr(mods[home], name)
        cache = original if hasattr(original, "cache_info") else None
        wrapper = tracer.wrap(key, original, counter, cache)
        for mod_name, mod in mods.items():
            if scope == EXTERNAL and mod_name == home:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
    for key, cls_name, method, counter in METHODS:
        cls = getattr(mods["gf2"], cls_name)
        setattr(cls, method, tracer.wrap(key, getattr(cls, method), counter))


def cache_stats() -> dict[str, float]:
    """Hit ratio and entry count of each memoized construction."""
    from wittcoh import caching

    by_name = {fn.__wrapped__.__name__: fn for fn in caching._CACHED}
    out = {}
    for name in CACHED:
        info = by_name[name].cache_info()
        calls = info.hits + info.misses
        out[f"caching.hit_ratio.{name}"] = info.hits / calls if calls else 0.0
        out[f"caching.entries.{name}"] = info.currsize
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced operation, by name."""
    s = tracer.stat
    adds = s("gf2.span_add")
    out = {
        "gf2.kernel_calls": s("gf2.kernel").calls,
        "gf2.kernel_s": s("gf2.kernel").self,
        "gf2.kernel_bits": s("gf2.kernel").items,
        "gf2.solve_calls": s("gf2.solve").calls,
        "gf2.solve_s": s("gf2.solve").self,
        "gf2.solve_bits": s("gf2.solve").items,
        "gf2.inverse_calls": s("gf2.inverse").calls,
        "gf2.inverse_s": s("gf2.inverse").self,
        "gf2.span_adds": adds.calls,
        "gf2.span_add_s": adds.self,
        "gf2.span_useful_ratio": adds.items / adds.calls if adds.calls else 0.0,
        "cochains.slice_calls": s("cochains.slice").calls,
        "cochains.slice_builds": s("cochains.slice").builds,
        "cochains.slice_build_s": s("cochains.slice").build_self,
        "cochains.slice_monomials": s("cochains.slice").items,
        "cochains.coboundary_calls": s("cochains.coboundary").calls,
        "cochains.coboundary_s": s("cochains.coboundary").self,
        "cochains.wedge_calls": s("cochains.wedge").calls,
        "cochains.wedge_s": s("cochains.wedge").self,
        "cohomology.basis_builds": s("cohomology.basis").builds,
        "cohomology.basis_self_s": s("cohomology.basis").build_self,
        "cohomology.dim_total": s("cohomology.basis").items,
        "cohomology.class_of_calls": s("cohomology.class_of").calls,
        "cohomology.class_of_s": s("cohomology.class_of").self,
        "cohomology.cup_calls": s("cohomology.cup").calls,
        "cohomology.cup_s": s("cohomology.cup").self,
        "partitions.enum_calls": s("partitions.enum").calls,
        "partitions.enum_items": s("partitions.enum").items,
        "partitions.enum_s": s("partitions.enum").self,
        "partitions.decomp_calls": s("partitions.decomp").calls,
        "partitions.decomp_s": s("partitions.decomp").self,
        "partitions.compare_calls": s("partitions.compare").calls,
        "partitions.compare_s": s("partitions.compare").self,
        "conjecture.ideal_rank_calls": s("conjecture.ideal_rank").calls,
        "conjecture.ideal_rank_s": s("conjecture.ideal_rank").self,
        "conjecture.bidegree_monomials": s("conjecture.bidegree").items,
        "conjecture.bidegree_s": s("conjecture.bidegree").self,
        "conjecture.counting_s": s("conjecture.counting").total,
        "monomials.basis_builds": s("monomials.basis").builds,
        "monomials.basis_s": s("monomials.basis").build_self,
        "monomials.wedge_calls": s("monomials.wedge").calls,
        "monomials.wedge_s": s("monomials.wedge").self,
        "monomials.decompose_calls": s("monomials.decompose").calls,
        "monomials.decompose_s": s("monomials.decompose").self,
        "cli.self_s": s("cli.main").self,
    }
    for suite in SUITES:
        out[f"verify.suite_s.{suite}"] = s(f"verify.suite.{suite}").total
    out.update(cache_stats())
    return out
