import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys

import pytest

from wittcoh import caching, cli
from wittcoh import cochains
from wittcoh.caching import clear_all


def run(args):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(args, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_dims_json_worked_example():
    code, out, _ = run(["dims", "--k", "1", "--n-max", "12", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 1
    cells = {(c["n"], c["q"]): c["dim"] for c in payload["cells"]}
    assert cells[12, 2] == 3
    assert cells[12, 1] == 1
    assert (0, 1) not in cells  # no degree-0 cells at minimal index 1


def test_dims_json_roundtrip():
    code, out, _ = run(["dims", "--n-max", "10", "--format", "json"])
    payload = json.loads(out)
    assert json.loads(json.dumps(payload)) == payload


def test_dims_csv_roundtrip():
    code, out, _ = run(["dims", "--n-max", "10", "--format", "csv"])
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "q", "dim"]
    parsed = [(int(n), int(q), int(d)) for n, q, d in rows[1:]]
    code2, out2, _ = run(["dims", "--n-max", "10", "--format", "json"])
    cells = [(c["n"], c["q"], c["dim"]) for c in json.loads(out2)["cells"]]
    assert parsed == cells


def test_dims_zero_degree_no_cells():
    code, out, _ = run(["dims", "--k", "1", "--n-max", "0", "--format", "json"])
    assert code == 0
    assert json.loads(out)["cells"] == []


def test_dims_odd_rows_vanish_at_k0():
    code, out, _ = run(["dims", "--k", "0", "--n-max", "9", "--format", "json"])
    for cell in json.loads(out)["cells"]:
        if cell["n"] % 2:
            assert cell["dim"] == 0


def test_dims_include_negative_degree_for_km1():
    code, out, _ = run(["dims", "--k", "-1", "--n-max", "2", "--format", "json"])
    cells = {(c["n"], c["q"]): c["dim"] for c in json.loads(out)["cells"]}
    assert cells[-1, 1] == 0  # the degree -1 block exists and vanishes


def test_determinism():
    base = run(["dims", "--n-max", "14", "--format", "json"])
    again = run(["dims", "--n-max", "14", "--format", "json"])
    assert base == again


def test_poincare_table():
    code, out, _ = run(["poincare", "--n-max", "12"])
    assert code == 0
    line = next(l for l in out.splitlines() if l.strip().startswith("12"))
    assert "t + 3*t^2 + 3*t^3" in line


def test_poincare_json_prediction_for_low_index_absent():
    code, out, _ = run(["poincare", "--k", "0", "--n-max", "6", "--format", "json"])
    payload = json.loads(out)
    assert all(row["predicted"] is None for row in payload["rows"])


def test_basis_json():
    code, out, _ = run(["basis", "--n-max", "12", "--format", "json"])
    payload = json.loads(out)
    cell = next(c for c in payload["cells"] if c["n"] == 12 and c["q"] == 2)
    assert cell["dim"] == 3
    assert [[2, 10]] in cell["representatives"]


def test_extensions_json():
    code, out, _ = run(["extensions", "--n-max", "4", "--format", "json"])
    payload = json.loads(out)
    entries = {(e["n"], e["label"]): e["support"] for e in payload["cocycles"]}
    assert entries[2, "u(0,1)"] == [[0, 2]]
    assert entries[4, "v"] == [[-1, 5], [1, 3]]
    assert len([e for e in payload["cocycles"] if e["n"] == 4]) == 2


def test_conjecture_consistent_run():
    code, out, _ = run(["conjecture", "--n-max", "8"])
    assert code == 0
    assert "conjecture-consistent" in out


def test_conjecture_csv_is_only_the_table():
    code, out, _ = run(["conjecture", "--n-max", "8", "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["reduction", "cells", "mismatches"]
    assert [len(r) for r in rows[1:]] == [3, 3]


def test_verify_tiny_bound_passes():
    code, out, _ = run(["verify", "--n-max", "0"])
    assert code == 0
    assert all(line.startswith(("PASS", " ")) for line in out.splitlines() if line.strip())


def test_verify_small_bound_passes():
    code, out, _ = run(["verify", "--n-max", "10"])
    assert code == 0


@pytest.mark.parametrize("command", ["dims", "poincare", "basis"])
def test_per_degree_commands_leave_the_caches_empty(command):
    clear_all()
    code, _, _ = run([command, "--k", "1", "--n-max", "14", "--format", "json"])
    assert code == 0
    assert all(fn.cache_info().currsize == 0 for fn in caching._CACHED)


def test_verify_detects_corrupted_coboundary():
    with cochains.corrupted_generator(9):
        code, out, _ = run(["verify", "--n-max", "12"])
    assert code == 1
    assert "FAIL" in out
    # the block cleared the caches on exit: no corrupted slice is reused
    code, out, _ = run(["verify", "--n-max", "12"])
    assert code == 0
    assert "FAIL" not in out


def test_usage_errors_exit_2(capsys):
    assert run(["dims", "--format", "yaml"])[0] == 2
    assert run(["nonsense"])[0] == 2
    code, _, err = run(["dims", "--k", "-3", "--n-max", "4"])
    assert code == 2
    assert "error" in err
    # conjecture scans minimal index 1 only and extensions minimal index -1
    # only, so neither takes --k; argparse rejects a flag on the process's stderr
    capsys.readouterr()
    for args in (
        ["conjecture", "--k", "2"], ["conjecture", "--k", "1"],
        ["extensions", "--k", "1"], ["extensions", "--k", "-1"],
    ):
        code, out, _ = run(args + ["--n-max", "4"])
        captured = capsys.readouterr()
        assert code == 2 and out == "" and captured.out == ""
        assert "--k" in captured.err
    assert run(["conjecture", "--n-max", "4"])[0] == 0
    assert run(["extensions", "--n-max", "4"])[0] == 0


# The flags each subcommand reads; any other flag is a usage error.
READ_FLAGS = {
    "dims": {"--k", "--n-max", "--q-max", "--format"},
    "basis": {"--k", "--n-max", "--q-max", "--format"},
    "poincare": {"--k", "--n-max", "--format"},
    "verify": {"--n-max", "--seed"},
    "conjecture": {"--n-max", "--format"},
    "extensions": {"--n-max", "--format"},
}
FLAG_VALUES = {"--k": "1", "--n-max": "2", "--q-max": "1", "--format": "json", "--seed": "0"}


@pytest.mark.parametrize("command", sorted(READ_FLAGS))
def test_each_command_takes_only_the_flags_it_reads(command, capsys):
    assert run([command, "--help"])[0] == 0
    listed = set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) - {"--help"}
    assert listed == READ_FLAGS[command]
    for flag in sorted(set(FLAG_VALUES) - READ_FLAGS[command]):
        code, out, _ = run([command, flag, FLAG_VALUES[flag], "--n-max", "2"])
        captured = capsys.readouterr()
        assert code == 2 and out == "" and captured.out == ""
        assert flag in captured.err


def test_validation_rejects_bad_bounds():
    assert run(["dims", "--n-max", "-2"])[0] == 2
    assert run(["dims", "--n-max", "4", "--q-max", "0"])[0] == 2


# The JSON stdout of a cold run, pinned by md5: any speedup must leave these
# bytes unchanged.
GOLDEN_JSON = [
    (["dims", "--k", "1", "--n-max", "44"], "26a030287246f4c07d4228565676864a"),
    (["dims", "--k", "1", "--n-max", "58"], "d03ef236e187800ab9a6500b4b497472"),
    (["basis", "--n-max", "30"], "0397b9547552bc2c80f5f9ce77174501"),
    (["basis", "--k", "-1", "--n-max", "22"], "d64e6438e9f114d987c0048b0ac13242"),
    (["basis", "--k", "2", "--n-max", "30"], "5b8796d92d7e9c9f96bcb2713c385e52"),
    (["dims", "--k", "0", "--n-max", "30"], "251758ee36dcd59aea0b85fb60752354"),
    (["poincare", "--n-max", "30"], "0ca879134a619873a17678f36ede7965"),
    (["extensions", "--n-max", "60"], "4313f61f005301a89a7e4e203370a01f"),
]


@pytest.mark.parametrize("args, md5", GOLDEN_JSON, ids=[" ".join(a) for a, _ in GOLDEN_JSON])
def test_json_stdout_bytes_are_pinned(args, md5):
    clear_all()
    code, out, _ = run(args + ["--format", "json"])
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == md5


def test_verify_stdout_bytes_are_pinned():
    # every suite at its committed bound: the suite lines, counts and notes
    clear_all()
    code, out, _ = run(["verify"])
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == "07bc9023e541c595a405dbcf9b7b704c"


def test_python_m_wittcoh_runs_the_cli_from_a_checkout():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(root, "src"), env.get("PYTHONPATH")]))
    args = ["dims", "--k", "1", "--n-max", "6", "--format", "json"]
    proc = subprocess.run(
        [sys.executable, "-m", "wittcoh", *args], capture_output=True, env=env, cwd=root, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    code, out, _ = run(args)
    assert code == 0 and proc.stdout == out.encode()
