"""Self-test of the benchmark at toy size.

Usage (from the repository root)::

    python3 perfbench/selftest.py

Runs every workload named in ``BENCHMARK.json`` at toy input sizes, in
both passes, and checks that:

* every printed metric name and unit matches ``BENCHMARK.json``;
* the serving latency tail is not below the median of the same samples;
* ratios, and every other end-to-end value, are positive;
* the correctness gate fails when every engine result is perturbed;
* without the engine sources beside it, the benchmark exits non-zero
  and prints no result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
TIMEOUT_S = 170


def run(workload: str, trace: int, *extra: str, cwd: Path = ROOT, script: Path = RUN):
    """``(returncode, result object or None, detail or None)`` of one toy run."""
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--toy", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    detail = json.loads(lines[-2])["detail"] if len(lines) > 1 else None
    return proc.returncode, result, detail


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, detail = run(workload, trace)
            label = f"{workload} --trace {trace}"
            expect(code == 0 and result is not None, f"{label}: exits 0 with a result")
            if result is None:
                continue
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{label}: correct")
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(printed == wanted, f"{label}: names and units match BENCHMARK.json")
            values = {name: m["value"] for name, m in result["metrics"].items()}
            if trace == 0:
                expect(all(v > 0 for v in values.values()), f"{label}: every value positive")
            elif detail["samples"].get("serving.latency_tail_ms"):
                expect(
                    values["serving.latency_tail_ms"] >= values["serving.latency_median_ms"] > 0,
                    f"{label}: latency tail >= median",
                )
        for trace in (0, 1):
            code, result, _ = run(workload, trace, "--perturb")
            expect(
                code == 0 and result is not None and not result["correct"] and result["failed"] > 0,
                f"{workload} --trace {trace} --perturb: gate reports failed ops",
            )

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(Path(__file__).resolve().parent, bare / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, result, _ = run(spec["workloads"][0]["name"], 0, cwd=bare, script=bare / "perfbench" / "run.py")
    expect(code != 0 and result is None, "without the engine sources: non-zero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
