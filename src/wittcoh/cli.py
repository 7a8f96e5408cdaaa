"""Command-line front end.

Subcommands: dims, poincare, basis, verify, conjecture, extensions.
Data goes to stdout; usage errors and the conjecture-inconsistency message to
stderr.  Exit codes: 0 success (conjecture evidence either way), 1 theorem
violation or disagreeing conjecture reductions, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .caching import clear_all, clear_degree
from .cochains import max_length
from .cohomology import (
    central_extension_basis,
    cohomology_basis,
    cohomology_dim,
    poincare_computed,
    poincare_predicted,
    poly_str,
)
from .conjecture import scan
from .verify import run_suites


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wittcoh",
        description="Graded GF(2) cohomology of the Lie algebras of polynomial "
        "vector fields on the line: dimension tables, bases, and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "k": dict(type=int, help="minimal generator index (>= -1)"),
        "n_max": dict(type=int, help="largest degree"),
        "q_max": dict(type=int, help="largest cochain length"),
        "format": dict(choices=("table", "json", "csv")),
        "seed": dict(type=int, help="seed for randomized checks"),
    }
    # Each subcommand runs its handler and takes only the flags it reads,
    # with these defaults.
    for name, run, help_text, defaults in (
        ("dims", cmd_dims, "brute-force dimension table of the graded cohomology",
         {"k": 1, "n_max": 20, "q_max": None, "format": "table"}),
        ("poincare", cmd_poincare,
         "per-degree dimension polynomials (with the combinatorial prediction for k >= 1)",
         {"k": 1, "n_max": 20, "format": "table"}),
        ("basis", cmd_basis, "cohomology representatives per degree and length",
         {"k": 1, "n_max": 20, "q_max": None, "format": "table"}),
        ("verify", cmd_verify, "run every verification suite", {"n_max": None, "seed": 0}),
        ("conjecture", cmd_conjecture, "evidence scan for the presentation of the index-1 ring",
         {"n_max": 24, "format": "table"}),
        ("extensions", cmd_extensions, "closed 2-cochains classifying the central extensions (k = -1)",
         {"n_max": 20, "format": "table"}),
    ):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        for dest, default in defaults.items():
            p.add_argument("--" + dest.replace("_", "-"), default=default, **flags[dest])
    return parser


# The least value of each bound; a subcommand without the flag skips its check.
_MINIMA = {"k": -1, "n_max": 0, "q_max": 1}


def _validate(args: argparse.Namespace) -> str | None:
    for dest, least in _MINIMA.items():
        value = getattr(args, dest, None)
        if value is not None and value < least:
            return f"--{dest.replace('_', '-')} must be >= {least}"
    return None


def _degree_range(args: argparse.Namespace) -> range:
    return range(min(args.k, 0), args.n_max + 1)


def _lengths(args: argparse.Namespace, n: int) -> range:
    """The lengths of degree n, up to --q-max; every one has a nonempty slice."""
    top = max_length(args.k, n)
    if args.q_max is not None:
        top = min(top, args.q_max)
    return range(1, top + 1)


def _emit_rows(
    args: argparse.Namespace, stdout, header: list[str], rows: list[list], json_payload
) -> None:
    if args.format == "json":
        print(json.dumps(json_payload), file=stdout)
    elif args.format == "csv":
        writer = csv.writer(stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    else:
        widths = [
            max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
            for i, h in enumerate(header)
        ]
        print("  ".join(h.rjust(w) for h, w in zip(header, widths)), file=stdout)
        for r in rows:
            print("  ".join(str(v).rjust(w) for v, w in zip(r, widths)), file=stdout)


def cmd_dims(args: argparse.Namespace, stdout, stderr) -> int:
    rows = []
    for n in _degree_range(args):
        rows += [[n, q, cohomology_dim(args.k, n, q)] for q in _lengths(args, n)]
        clear_degree()  # no later degree reads this one's slices; it re-reads the kept pair masks
    clear_all()
    payload = {"k": args.k, "cells": [{"n": n, "q": q, "dim": d} for n, q, d in rows]}
    _emit_rows(args, stdout, ["n", "q", "dim"], rows, payload)
    return 0


def cmd_poincare(args: argparse.Namespace, stdout, stderr) -> int:
    rows = []
    entries = []
    for n in _degree_range(args):
        comp = poincare_computed(n, args.k)
        pred = poincare_predicted(n, args.k) if args.k >= 1 else None
        clear_all()  # no later degree reads this one's slices or partitions
        rows.append([n, poly_str(comp), poly_str(pred) if pred is not None else "-"])
        entries.append({
            "n": n,
            "computed": [[q, c] for q, c in sorted(comp.items())],
            "predicted": [[q, c] for q, c in sorted(pred.items())] if pred is not None else None,
        })
    payload = {"k": args.k, "rows": entries}
    _emit_rows(args, stdout, ["n", "computed", "predicted"], rows, payload)
    return 0


def cmd_basis(args: argparse.Namespace, stdout, stderr) -> int:
    rows = []
    entries = []
    for n in _degree_range(args):
        for q in _lengths(args, n):
            basis = cohomology_basis(args.k, n, q)
            if basis.dim == 0:
                continue
            # each format prints only one of the two renderings
            if args.format == "json":
                reps = [[list(mono) for mono in rep.support()] for rep in basis.representatives]
                entries.append({"n": n, "q": q, "dim": basis.dim, "representatives": reps})
            else:
                pretty = "; ".join(str(rep) for rep in basis.representatives)
                rows.append([n, q, basis.dim, pretty])
        clear_all()  # no later degree reads this one's slices
    payload = {"k": args.k, "cells": entries}
    _emit_rows(args, stdout, ["n", "q", "dim", "representatives"], rows, payload)
    return 0


def cmd_verify(args: argparse.Namespace, stdout, stderr) -> int:
    results = run_suites(n_max=args.n_max, seed=args.seed)
    for res in results:
        print(res.summary(), file=stdout)
        for line in res.failures[:10]:
            print(f"    {line}", file=stdout)
        for line in res.notes[:10]:
            print(f"    note: {line}", file=stdout)
    return 0 if all(r.passed for r in results) else 1


def cmd_conjecture(args: argparse.Namespace, stdout, stderr) -> int:
    report = scan(args.n_max)
    findings = report.findings()
    hilbert = sum(1 for c in report.hilbert_cells if not c.equal)
    counting = sum(1 for c in report.counting_cells if not c.equal)
    consistent = report.hilbert_ok and report.counting_ok
    rows = [
        ["hilbert", len(report.hilbert_cells), hilbert],
        ["counting", len(report.counting_cells), counting],
    ]
    payload = {
        "n_max": args.n_max,
        "hilbert": {"cells": len(report.hilbert_cells), "mismatches": hilbert},
        "counting": {"cells": len(report.counting_cells), "mismatches": counting},
        "findings": findings,
        "consistent": consistent,
    }
    _emit_rows(args, stdout, ["reduction", "cells", "mismatches"], rows, payload)
    if args.format == "table":
        for line in findings:
            print(line, file=stdout)
        if consistent:
            print(f"conjecture-consistent (n <= {args.n_max})", file=stdout)
        else:
            print("counterexample found", file=stdout)
    if not report.internally_consistent:
        print("internal inconsistency: the two reductions disagree", file=stderr)
        return 1
    return 0


def cmd_extensions(args: argparse.Namespace, stdout, stderr) -> int:
    entries = []
    rows = []
    for n in range(2, args.n_max + 1, 2):
        for label, c in central_extension_basis(n):
            support = [list(mono) for mono in c.support()]
            entries.append({"n": n, "label": label, "support": support})
            rows.append([n, label, " ".join(f"[{a},{b}]" for a, b in support)])
    payload = {"cocycles": entries}
    _emit_rows(args, stdout, ["n", "label", "support"], rows, payload)
    return 0


def main(argv: list[str] | None = None, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    problem = _validate(args)
    if problem is not None:
        print(f"error: {problem}", file=stderr)
        return 2
    return args.run(args, stdout, stderr)


if __name__ == "__main__":
    raise SystemExit(main())
