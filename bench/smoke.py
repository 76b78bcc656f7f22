"""Smoke test of the benchmark itself: tiny campaigns of every workload.

    python3 bench/smoke.py

Runs each workload untraced and traced with one drop per campaign and
checks the result schema against BENCHMARK.json, then exercises the output
check on a reference CSV and the refusal to run outside a checkout.  Takes
about a minute on two cores.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import BENCH, KEY_WIDTH, OUT, ROOT, WORKLOADS, _records, check_output, reference_path

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace), "--drops", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_schema() -> None:
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(workload, trace)
            assert proc.returncode == 0, (workload, trace, proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, (workload, trace, proc.stdout)
            assert result["attempted"] >= 1
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, (workload, trace, set(got) ^ set(expected))
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (name, m)
            print(f"ok  {workload} trace={trace} attempted={result['attempted']}")


def check_output_check() -> None:
    text = reference_path("se_desk", 0).read_text()
    rows = text.splitlines()
    keys = [tuple(r[:KEY_WIDTH]) for r in _records(text)]

    def with_field(row: int, col: int, value: str) -> str:
        cells = rows[row].split(",")
        cells[col] = value
        return "\n".join(rows[:row] + [",".join(cells)] + rows[row + 1:]) + "\n"

    mean, err = (float(v) for v in rows[1].split(",")[8:10])
    n = int(rows[1].split(",")[10])
    assert check_output(text, keys, n, reference=text) == []
    assert check_output(with_field(1, 8, repr(mean + err)), keys, n, reference=text) == []
    assert check_output(with_field(1, 8, repr(mean + 10 * err)), keys, n, reference=text)
    assert check_output(with_field(1, 8, "-1.0"), keys, n)
    assert check_output(with_field(1, 8, "nan"), keys, n)
    assert check_output(with_field(1, 10, str(n + 1)), keys, n)
    assert check_output("\n".join(rows[:-1]) + "\n", keys, n)
    assert check_output("a,b\n", keys, n)
    print("ok  output check")


def check_refuses_without_sources() -> None:
    OUT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=OUT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("se_desk", 0, cwd=bare)
        assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare)
    print("ok  refuses to run without sources")


if __name__ == "__main__":
    check_output_check()
    check_refuses_without_sources()
    check_schema()
