"""Write ``tests/frontier_rows.json``: the brute-force dimension rows that
``test_cohomology.py`` compares the combinatorial prediction with.

Each row comes from one cold ``wittcoh dims --k K --n-max N --format json``
run, read back as (k, n) -> {q: dim}; no row is typed by hand.  The md5 of
each run's JSON stdout is printed and stored with the rows.  Run from
anywhere:

    python tests/make_frontier_rows.py

k = 1 to n = 80 takes about 7 s and 120 MB; k = 2, 3, 4 to n = 60 under
a second each.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import subprocess
import sys
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parents[1]
OUT = ROOT / "tests" / "frontier_rows.json"
RUNS = ((1, 80), (2, 60), (3, 60), (4, 60))  # (k, n_max)


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    runs, lines = [], []
    for k, n_max in RUNS:
        args = ["dims", "--k", str(k), "--n-max", str(n_max), "--format", "json"]
        out = subprocess.run(
            [sys.executable, "-m", "wittcoh", *args], env=env, capture_output=True, check=True
        ).stdout
        md5 = hashlib.md5(out).hexdigest()
        print(f"wittcoh {' '.join(args)}  md5 {md5}")
        runs.append({"k": k, "n_max": n_max, "md5": md5})
        rows: dict[int, dict[str, int]] = defaultdict(dict)
        for cell in json.loads(out)["cells"]:
            rows[cell["n"]][str(cell["q"])] = cell["dim"]
        lines += [json.dumps({"k": k, "n": n, "dims": dims}) for n, dims in rows.items()]
    OUT.write_text(
        '{"runs": ' + json.dumps(runs) + ',\n "rows": [\n  ' + ",\n  ".join(lines) + "\n ]}\n"
    )
    print(f"{len(lines)} rows written to {OUT.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
