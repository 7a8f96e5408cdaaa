"""One cold operation of one workload, in a fresh interpreter.

Started by ``run.py``; prints one JSON object on its last stdout line.
Set-up time runs from ``--t0`` (``time.monotonic()`` in the parent just
before it started this process) to the end of ``import wittcoh``.
"""

import os
import sys
import time

T0 = float(sys.argv[sys.argv.index("--t0") + 1])
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
import wittcoh  # noqa: E402,F401

SETUP_S = time.monotonic() - T0

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def flip_one_coboundary_bit() -> None:
    """Fault for the self-test: every importer of ``graded_slice`` gets a
    version whose (n=6, q=2) slice has one coboundary entry flipped."""
    from wittcoh import cli, cochains, cohomology, gf2, monomials, verify

    original = cochains.graded_slice

    def faulty(k, n, q):
        sl = original(k, n, q)
        if (n, q) != (6, 2):
            return sl
        rows = sl.delta.rows()
        rows[0] ^= 1
        bad = gf2.BitMatrix(sl.delta.nrows, sl.delta.ncols, rows)
        return cochains.GradedSlice(sl.k, sl.n, sl.q, sl.basis, bad)

    for mod in (cli, cohomology, monomials, verify):
        mod.graded_slice = faulty


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "smoke"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--fault", choices=("none", "flip-bit", "bad-ref"), default="none")
    parser.add_argument("--spans", default=None, help="file for the recorded spans")
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if args.setup_only:
        print(json.dumps({"setup_s": SETUP_S}))
        return 0

    import reference
    import tracing
    import workloads

    size = workloads.SIZES[args.workload][args.size]
    with open(os.path.join(HERE, "refs.json")) as fh:
        ref = json.load(fh)[args.workload][str(size)]
    if args.fault == "bad-ref":
        ref = {key: ("0" * 32 if key == "md5" else value) for key, value in ref.items()}
        if args.workload == "verify":
            ref["checked"] = {**ref["checked"], "special partition counts": -1}
        if args.workload == "ring":
            ref["products"] = [[v ^ 1 for v in units] for units in ref["products"]]
    if args.fault == "flip-bit":
        flip_one_coboundary_bit()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    run = workloads.RUNNERS[args.workload]
    ref_before = reference.timed()
    start = time.perf_counter()
    try:
        outcome = run(size, args.seed, ref)
    except Exception:  # an operation that raises is a failed operation
        outcome = workloads.Outcome(failures=["exception: " + traceback.format_exc(limit=5)])
    wall_s = time.perf_counter() - start
    ref_s = (ref_before + reference.timed()) / 2

    result = {
        "setup_s": SETUP_S,
        "wall_s": wall_s,
        "ref_s": ref_s,
        "wall_rel": wall_s / ref_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "size": size,
        "failed": bool(outcome.failures),
        "failures": outcome.failures[:10],
        "failure_count": len(outcome.failures),
        "digest": outcome.digest,
        "items": outcome.items,
        "latencies": outcome.latencies,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        result["spans"] = tracer.span_count()
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
