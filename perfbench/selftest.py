"""Checks of the benchmark itself (about three minutes on 2 CPUs).

    python3 perfbench/selftest.py

1. A short configuration of every workload, untraced and traced, prints
   exactly the metrics ``BENCHMARK.json`` names, each with its unit.
2. A deliberately corrupted expected answer in each phase is counted as a
   failure (``failed`` > 0, ``success_rate`` < 1) instead of crashing.
3. In a directory holding only ``BENCHMARK.json`` and ``perfbench/``, the
   command exits non-zero without printing a result.
4. A run leaves ``git status`` unchanged (when git is available).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402

# Short companions: the sweep's one grid dominates each run.
run.COMPANION_S = {"serve": 1.0, "bulk": 0.5, "sweep": 0.0}


def short_run(workload: str, trace: bool, corrupt=()) -> dict:
    return run.run_benchmark(workload, seed=7, seconds=1.0, trace=trace, corrupt=corrupt)


def check_metrics(spec: dict) -> None:
    for key, trace in (("end_to_end", False), ("per_layer", True)):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for workload in run.WORKLOADS:
            line = json.loads(run.result_line(short_run(workload, trace)))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}, line
            got = {name: v["unit"] for name, v in line["metrics"].items()}
            assert got == expected, (workload, key, set(got) ^ set(expected))
            assert line["correct"] and line["failed"] == 0, (workload, line)
            assert all(isinstance(v["value"], float) for v in line["metrics"].values())
            print(f"ok   {workload:13s} {key}: {len(got)} metrics", flush=True)


def check_corruption() -> None:
    record = short_run("serve_online", False, corrupt=("serve", "bulk", "sweep"))
    for phase, failed in record["failed_by_phase"].items():
        assert failed > 0, (phase, record["failed_by_phase"])
    assert record["end_to_end"]["success_rate"] < 1.0
    print(f"ok   corrupted answers counted: {record['failed_by_phase']}", flush=True)


def check_bare_directory() -> None:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "serve_online",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0 and not done.stdout.strip(), done
    print(f"ok   bare directory exits {done.returncode} with no result", flush=True)


def git_status() -> str:
    try:
        return subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return ""


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    before = git_status()
    check_metrics(spec)
    check_corruption()
    check_bare_directory()
    assert git_status() == before, "the benchmark changed the working tree"
    print("ok   git status unchanged", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
