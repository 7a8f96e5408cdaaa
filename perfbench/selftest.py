"""Self-test of the benchmark: it runs, it reports what BENCHMARK.json names,
and its correctness gate catches injected faults.

    python3 perfbench/selftest.py

Runs every workload at its smoke size, traced and untraced; then injects a
fault from outside the package (a flipped coboundary bit, or a wrong
reference) into each workload and requires a nonzero exit with
``failed / attempted > 0``; then checks that a directory without the
package sources and a held lock are both refused without a result line.
Exits 1 if any check fails.
"""

import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("dims", "ring", "conjecture", "verify")

problems: list[str] = []


def bench(*args: str, cwd: str = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        problems.append(what)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "BENCHMARK.json names the four workloads")

    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                                 "--trace", str(trace), "--size", "smoke")
            expect(code == 0 and result is not None and result["correct"] and result["failed"] == 0,
                   f"{workload} smoke, trace {trace}: passes ({code}, {result and result['failed']})")
            got = set(result["metrics"]) if result else set()
            expect(got == names[trace], f"{workload} smoke, trace {trace}: reports exactly the "
                   f"BENCHMARK.json metrics (missing {sorted(names[trace] - got)}, extra {sorted(got - names[trace])})")

    for fault in ("flip-bit", "bad-ref"):
        for workload in WORKLOADS:
            code, result = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                                 "--trace", "0", "--size", "smoke", "--fault", fault)
            frac = result["failed"] / result["attempted"] if result else 0.0
            expect(code != 0 and frac > 0 and not result["correct"],
                   f"{workload} with {fault}: fail_frac {frac:.2f} > 0, exit {code} != 0")

    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, result = bench("--workload", "dims", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    expect(code != 0 and result is None, f"without the package sources: exit {code}, no result line")

    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        code, result = bench("--workload", "dims", "--seed", "1", "--seconds", "1", "--trace", "0")
    expect(code != 0 and result is None, f"while another run holds the lock: exit {code}, no result line")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
