"""Tiny-size self-test of the pipeline benchmark.

Run from the root of a repository checkout::

    python3 perfbench/selftest.py

It runs every workload at tiny sizes, untraced and traced, and checks:

* ``BENCHMARK.json`` agrees with the catalogue in :mod:`ledger`;
* every end-to-end metric (untraced) and per-layer metric (traced) is
  printed with its unit and sample count, and reaches the final JSON
  line under the unit ``BENCHMARK.json`` names; end-to-end values are
  never 0;
* a deliberately corrupted output is counted as a failure and not as a
  fast run: the run reports ``correct: false``, exits 1, and the
  corrupted studies and replies add no latency samples;
* in a directory holding only ``BENCHMARK.json`` and the benchmark, the
  command exits non-zero without printing a result.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent


def check(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {message}")


def _benchmark_matches_ledger() -> Dict[str, Any]:
    from ledger import benchmark_document

    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(document == benchmark_document(),
          "BENCHMARK.json differs from ledger.benchmark_document()")
    return document


def _printed(lines: List[str], metrics: List[Dict[str, Any]]) -> None:
    fields = {line.split()[0]: line.split() for line in lines if line.split()}
    for metric in metrics:
        row = fields.get(metric["name"])
        check(row is not None, f"{metric['name']} is not printed")
        check(row[2] == metric["unit"] and row[3].startswith("n="),
              f"{metric['name']} is printed without unit "
              f"{metric['unit']!r} and sample count: {' '.join(row)}")


def _result_matches(result: Dict[str, Any],
                    metrics: List[Dict[str, Any]]) -> None:
    expected = {m["name"]: m["unit"] for m in metrics}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    check(got == expected, f"result metrics {got} != {expected}")


def _corrupt(kind: str, value: Any, seen: Dict[str, int]) -> Any:
    """Corrupt every second output of each kind."""
    seen[kind] = seen.get(kind, 0) + 1
    if seen[kind] % 2:
        return value
    if kind == "analyze":
        return {**value, "uav": None}
    if isinstance(value, str):
        return " " + value
    return dataclasses.replace(
        value, selected_indices=value.selected_indices[::-1]
    )


def _bare_directory_fails() -> None:
    bare = ROOT / ".perfbench-out" / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "explore",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(done.returncode != 0, "a bare directory exited 0")
    check('"correct"' not in done.stdout,
          "a bare directory printed a result")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import run
    from harness import TINY

    document = _benchmark_matches_ledger()
    for workload in (w["name"] for w in document["workloads"]):
        for trace, metrics in ((False, document["end_to_end"]),
                               (True, document["per_layer"])):
            result, lines = run.measure(workload, 1, 1.5, trace, ROOT,
                                        sizes=TINY)
            check(run.exit_code(result) == 0 and result["failed"] == 0,
                  f"{workload} trace={trace} failed: {lines}")
            _printed(lines, metrics)
            _result_matches(result, metrics)
            if not trace:
                zero = [k for k, v in result["metrics"].items()
                        if not v["value"]]
                check(not zero, f"{workload}: metrics read 0: {zero}")
        seen: Dict[str, int] = {}
        result, lines = run.measure(
            workload, 2, 1.5, False, ROOT, sizes=TINY,
            tamper=lambda kind, value: _corrupt(kind, value, seen),
        )
        record = json.loads(
            (ROOT / run.OUT_DIR / f"{workload}-seed2-trace0.json").read_text()
        )
        corrupted = sum(n // 2 for n in seen.values())
        sent = len(record["analyze"])
        ok_replies = sum(1 for r in record["analyze"] if r["ok"])
        check(corrupted >= 2 and result["failed"] == corrupted,
              f"{workload}: {corrupted} corrupted outputs but "
              f"{result['failed']} failures")
        check(not result["correct"] and run.exit_code(result) == 1,
              f"{workload}: a corrupted run reads correct")
        check(len(record["studies"]) == seen["study"] - seen["study"] // 2,
              f"{workload}: a corrupted study was kept as a sample")
        check(ok_replies == sent - seen["analyze"] // 2,
              f"{workload}: a corrupted reply was kept as a sample")
        print(f"selftest {workload}: ok ({corrupted} corrupted outputs "
              "counted as failures)")
    _bare_directory_fails()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
