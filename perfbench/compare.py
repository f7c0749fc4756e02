"""Compare two sets of untraced benchmark results.

    python3 perfbench/compare.py perfbench/baseline/seed.jsonl perfbench/out/results.jsonl

Each file holds one JSON record per run, as run.py appends them to
perfbench/out/results.jsonl.  For every workload and end-to-end metric it
prints each side's run count, median and quartiles, and the change of the
median, judged against the metric's bound in BENCHMARK.json.  A change is
"unresolved" when the base's own quartile spread is wider than the bound.
Sets measured with different scalar backends are not compared.  Exit code 1
when some metric is worse by more than its bound or some run failed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    with open(path, encoding="utf-8") as fh:
        runs = [json.loads(line) for line in fh if line.strip()]
    return [r for r in runs if not r["meta"]["trace"]]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    backends = {r["meta"]["backend"] for r in base + new}
    if len(backends) != 1:
        print(f"refusing to compare results from different scalar backends: "
              f"{sorted(backends)}", file=sys.stderr)
        return 2
    for key in ("python", "nproc"):
        seen = {r["meta"][key] for r in base + new}
        if len(seen) > 1:
            print(f"warning: runs differ in {key}: {sorted(seen, key=str)}",
                  file=sys.stderr)
    failed = sum(r["failed"] for r in base + new)
    worse = 0
    print(f"{'workload':14} {'metric':12} {'runs':>5}  {'base median [q1, q3]':28}  "
          f"{'new median [q1, q3]':28} {'change':>7}  verdict")
    spec = json.loads(BENCHMARK.read_text())
    for workload in sorted({r["meta"]["workload"] for r in base} &
                           {r["meta"]["workload"] for r in new}):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r["metrics"][name]["value"] for r in base if r["meta"]["workload"] == workload]
            b = [r["metrics"][name]["value"] for r in new if r["meta"]["workload"] == workload]
            (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
            change = (bm - am) / am
            if metric["better"] == "higher":
                change = -change
            if (a3 - a1) / am > bound:
                verdict = "unresolved"
            elif change > bound:
                verdict = "WORSE"
                worse += 1
            else:
                verdict = "ok"
            base_q = f"{am:.4g} [{a1:.4g}, {a3:.4g}]"
            new_q = f"{bm:.4g} [{b1:.4g}, {b3:.4g}]"
            print(f"{workload:14} {name:12} {len(a):>2}/{len(b):<2}  {base_q:28}  "
                  f"{new_q:28} {change:>+7.1%}  {verdict}")
    if failed:
        print(f"{failed} failed invocations in the compared runs")
    return 1 if worse or failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
