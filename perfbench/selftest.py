"""Seconds-long self-test of the benchmark.

    python3 perfbench/selftest.py

Runs the smoke workload untraced and traced, and checks that each result line
carries exactly the metrics BENCHMARK.json declares, with their units.  Then
runs it against a reference with one wrong table digest and checks that the
correctness gate fails the run.  Exit code 0 when every check holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"


def run(*extra):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "smoke", "--seed", "3",
         "--seconds", "1", *extra],
        capture_output=True, text=True, timeout=170)
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


def expect(cond, what, failures):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def main():
    spec = json.loads(BENCHMARK.read_text())
    failures = []
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        code, result = run("--trace", trace)
        expect(code == 0 and result["correct"] and result["failed"] == 0,
               f"--trace {trace}: exit 0, correct, nothing failed", failures)
        expect(set(result) == {"correct", "attempted", "failed", "metrics"},
               f"--trace {trace}: result has exactly the contract's keys", failures)
        expect({k: m["unit"] for k, m in result["metrics"].items()} ==
               {m["name"]: m["unit"] for m in spec[kind]},
               f"--trace {trace}: every {kind} metric, with its unit", failures)

    reference = json.loads((HERE / "reference.json").read_text())
    reference["structure-constants --model c2 --n 3"]["out_sha256"] = "0" * 64
    wrong = HERE / "out" / "wrong-reference.json"
    wrong.parent.mkdir(exist_ok=True)
    wrong.write_text(json.dumps(reference))
    code, result = run("--trace", "0", "--reference", str(wrong))
    expect(code == 1 and not result["correct"] and result["failed"] > 0,
           "a wrong reference digest fails the run", failures)
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
