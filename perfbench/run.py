"""Benchmark of the ``wittcoh`` package: cold workloads, timed end to end and per module.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {dims,ring,conjecture,verify} \\
        --seed N --seconds S --trace {0,1}

Load model: a closed loop with one client.  Each operation runs cold in a
fresh single-threaded interpreter (``worker.py``) and starts after the
previous one has ended; operations keep starting until ``--seconds`` is
used up, with at least ``MIN_OPS``.  A lock file stops two runs from
overlapping.

``--trace 0`` prints the end-to-end metrics, medians over the operations:

* ``wall_rel``: the operation's wall time, from the first library call to
  the checked result, divided by the time of a fixed reference kernel
  (``reference.py``) run in the same interpreter just before and after it;
* ``setup_s``: interpreter start plus ``import wittcoh``, sampled in every
  operation and in extra interpreters that stop after the import;
* ``peak_rss_mb``: peak resident memory of the operation's interpreter.

Why a ratio: on the shared 2-core virtual machine the benchmark was tuned
on, the same operation's time varied by about 15% from one operation to
the next, and the whole machine ran up to twice as slow for minutes at a
time.  A 30-second run holds 14 to 30 operations, so its median absorbs
the first, but the second moved the median wall time of ten runs by up to
35% (IQR over median), and CPU time moved with it.  The reference kernel
slows down with the machine: over the same ten runs the spread of
``wall_rel`` was 3-6% on every workload.  The raw seconds are still
reported, as the per-layer ``e2e.wall_s`` and ``e2e.ref_s``.

``--trace 1`` alternates untraced and traced operations.  It prints the
per-layer metrics of ``tracing.layer_metrics`` from the traced operation
with the median ``wall_s``, the ring's per-cup latency over the untraced
ones, and the tracing overhead: the difference of the two medians.

Every operation's output is checked (``workloads.py``).  The last stdout
line is ``{"correct", "attempted", "failed", "metrics"}``; an operation
whose check fails or that raises counts in ``failed``, and the exit code
is then 1.  Provenance and every sample go to ``.perfbench_out/``, with the
spans of the last traced operation in ``spans-<workload>.jsonl``.

``selftest.py`` checks this script and its fault detection;
``make_refs.py`` records the reference outputs in ``refs.json``.
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from statistics import median, quantiles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("dims", "ring", "conjecture", "verify")
MIN_OPS = 3
RUN_LIMIT_S = 170  # a run, hung operations included, ends within this
SETUP_PROBES = 4  # set-up samples before the first operation
PROBES_PER_OP = 1  # and after each operation, so they span the whole run
STARTED = time.monotonic()


def spawn(args: list[str]) -> dict | None:
    """Run one worker to completion; its result, or None if it crashed or timed out."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), *args, "--t0", repr(t0)],
            capture_output=True, text=True, timeout=max(1.0, STARTED + RUN_LIMIT_S - t0), cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest() -> str:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "wittcoh")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def percentile_ms(samples: list[float], p: int) -> float:
    if len(samples) < 2:
        return samples[0] * 1e3 if samples else 0.0
    return quantiles(samples, n=100)[p - 1] * 1e3


def unit_of(name: str) -> str:
    if name.endswith("_s") or name.startswith("verify.suite_s."):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio") or name.startswith("caching.hit_ratio."):
        return "ratio"
    return "count"


def bench(workload: str, seed: int, seconds: float, trace: int,
          size: str = "full", fault: str = "none") -> dict:
    """Run the closed loop; returns the result line plus the raw record."""
    common = ["--workload", workload, "--seed", str(seed), "--size", size, "--fault", fault]
    setup: list[float] = []

    def probe_setup(count: int) -> None:
        for _ in range(count):
            probe = spawn(["--setup-only"] + common + ["--trace", "0"])
            if probe is not None:
                setup.append(probe["setup_s"])

    spawn(["--setup-only"] + common + ["--trace", "0"])  # warms caches, writes bytecode where allowed; not counted
    probe_setup(SETUP_PROBES)
    ops = []
    attempted = failed = 0
    start = time.monotonic()
    while True:
        traced = trace == 1 and attempted % 2 == 1
        args = common + ["--trace", str(int(traced))]
        if traced:
            args += ["--spans", os.path.join(OUT, f"spans-{workload}.jsonl")]
        res = spawn(args)
        attempted += 1
        if res is None:  # the worker itself broke: no later operation can do better
            failed += 1
            break
        failed += res["failed"]
        res["traced"] = traced
        ops.append(res)
        setup.append(res["setup_s"])
        probe_setup(PROBES_PER_OP)
        elapsed = time.monotonic() - start
        per_op = elapsed / attempted
        done = attempted >= MIN_OPS and (trace == 0 or attempted % 2 == 0)
        if done and elapsed + per_op * (1 + trace) > seconds:
            break
    plain = [r for r in ops if not r["traced"]]
    traced_ops = [r for r in ops if r["traced"]]
    metrics: dict[str, dict] = {}
    if plain and trace == 0:
        metrics = {
            "wall_rel": {"value": median(r["wall_rel"] for r in plain), "unit": "ratio"},
            "setup_s": {"value": median(setup), "unit": "s"},
            "peak_rss_mb": {"value": median(r["rss_mb"] for r in plain), "unit": "MB"},
        }
    if plain and traced_ops and trace == 1:
        middle = sorted(traced_ops, key=lambda r: r["wall_s"])[(len(traced_ops) - 1) // 2]
        layers = dict(middle["layers"])
        latencies = [x for r in plain for x in r["latencies"]]
        layers["cohomology.cup_p50_ms"] = percentile_ms(latencies, 50)
        layers["cohomology.cup_p99_ms"] = percentile_ms(latencies, 99)
        layers["cohomology.cup_samples"] = len(latencies)
        layers["verify.checks"] = middle["items"] if workload == "verify" else 0
        layers["e2e.wall_s"] = median(r["wall_s"] for r in plain)
        layers["e2e.ref_s"] = median(r["ref_s"] for r in plain)
        layers["trace.wall_s"] = median(r["wall_s"] for r in traced_ops)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - median(r["wall_s"] for r in plain)
        layers["trace.spans"] = middle["spans"]
        for name, value in sorted(layers.items()):
            metrics[name] = {"value": value, "unit": unit_of(name)}
    if not metrics:
        failed = attempted  # nothing completed: no metric can be reported
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": size,
        "fault": fault,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "fail_frac": failed / attempted,
        "setup_samples": setup,
        "ops": [{k: v for k, v in r.items() if k not in ("latencies", "layers")} for r in ops],
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return {"result": result, "record": record}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full", help="smoke: the self-test's tiny sizes")
    parser.add_argument("--fault", choices=("none", "flip-bit", "bad-ref"), default="none",
                        help="inject a fault (self-test only)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "wittcoh", "__init__.py")):
        print(f"error: no wittcoh sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "lock"), "w") as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            print("error: another benchmark run holds the lock", file=sys.stderr)
            return 3
        out = bench(args.workload, args.seed, args.seconds, args.trace, args.size, args.fault)
    result = out["result"]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump({**out["record"], "result": result}, fh, indent=1)
    for op in out["record"]["ops"]:
        for line in op["failures"]:
            print(f"FAIL {args.workload}: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
