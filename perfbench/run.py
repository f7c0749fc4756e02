"""hilbfock benchmark runner.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0

A single-process, closed-loop benchmark with one client: it calls the user-facing
entry point hilbfock.cli.main in-process, one invocation after another, on
the workload's fixed invocations (order permuted by --seed), repeating the
whole set until --seconds is used up.  hilbfock is imported from the
checkout's src/ tree.  Every output is checked against reference.json,
recorded at the seed commit.  The last line of stdout is one JSON object
{correct, attempted, failed, metrics}; the lines before it name every metric
with its unit.  See NOTES.md for the workloads and the metrics.

--trace 0 reports the end-to-end metrics.  --trace 1 runs the workload once
untraced, once under the span tracer and once under cProfile, whatever
--seconds says, and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
BENCHMARK = ROOT / "BENCHMARK.json"
SETUP_PROBES = 5


def _table(model, n, *extra, command="structure-constants"):
    return {"argv": [command, "--model", model, "--n", str(n), *extra],
            "out": True, "count": "entries"}


def _verify(vid, model, *extra, count):
    return {"argv": ["verify", vid, "--model", model, *extra],
            "out": False, "count": count}


WORKLOADS = {
    "tables": [
        _table("c2", 6),
        _table("ale_2", 4),
        _table("toy_b2_1", 4),
        _table("cotangent_g1", 3),
        _table("ale_2", 4, "--s", "2", command="orb-structure-constants"),
    ],
    "oracle": [
        _verify("lemma-ks", "toy_b2_1", "--max-weight", "4", count="instances_checked"),
        _verify("lemma-ks", "cotangent_g1", "--max-weight", "2", count="instances_checked"),
    ],
    "polynomiality": [
        _verify("polynomiality", "k3_like", "--n", "3..6", count="triples_fitted"),
    ],
    # seconds-long inputs for selftest.py
    "smoke": [
        _table("c2", 3),
        _verify("lemma-ks", "toy_b2_1", "--max-weight", "2", count="instances_checked"),
        _verify("polynomiality", "toy_b2_1", "--n", "3..5", count="triples_fitted"),
    ],
}


def inv_id(inv):
    return " ".join(inv["argv"])


def workload_models(invs):
    return sorted({inv["argv"][inv["argv"].index("--model") + 1] for inv in invs})


# -- set-up ---------------------------------------------------------------------------


def setup(models):
    """Import hilbfock from src/ and load and validate the workload's models."""
    sys.path.insert(0, str(SRC))
    import hilbfock
    import hilbfock.cli
    path = Path(hilbfock.__file__).resolve()
    if SRC.resolve() not in path.parents:
        raise SystemExit(f"hilbfock was imported from {path}, not from {SRC}")
    for name in models:
        errors = [d for d in hilbfock.validate_model(hilbfock.load_model(name))
                  if not d.startswith("warning:")]
        if errors:
            raise SystemExit(f"model {name} fails validation: {errors}")
    return hilbfock


def setup_seconds(workload):
    """Median, over fresh interpreters, of the time from process start until
    hilbfock is imported and the workload's models are loaded and validated."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic_ns()
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload],
            capture_output=True, text=True, check=True, timeout=60)
        samples.append((int(proc.stdout.split()[-1]) - t0) / 1e9)
    return statistics.median(samples)


# -- invocations ----------------------------------------------------------------------


def cpu_seconds():
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def invoke(cli, inv, workdir):
    """One timed, in-process CLI call, with its exit code, stdout and --out
    bytes."""
    argv = list(inv["argv"])
    out_path = workdir / "out.json"
    if inv["out"]:
        argv += ["--out", str(out_path)]
    stdout, stderr = io.StringIO(), io.StringIO()
    w0, c0 = time.perf_counter(), cpu_seconds()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a traceback is a failed invocation, not a crashed run
        code = "traceback"
        traceback.print_exc()
    wall, cpu = time.perf_counter() - w0, cpu_seconds() - c0
    out = b""
    if inv["out"] and out_path.exists():
        out = out_path.read_bytes()
        out_path.unlink()
    if stderr.getvalue():
        sys.stderr.write(stderr.getvalue())
    return {"wall": wall, "cpu": cpu, "code": code,
            "stdout": stdout.getvalue(), "out": out}


def observe(inv, res):
    """What the correctness gate compares with the reference."""
    seen = {"exit": res["code"]}
    try:
        report = json.loads(res["stdout"].strip().splitlines()[-1])
        seen["status"] = report["status"]
        seen["count"] = report["details"][inv["count"]]
    except (IndexError, KeyError, TypeError, ValueError):
        seen["status"] = "unreadable report"
    if inv["out"]:
        seen["out_sha256"] = hashlib.sha256(res["out"]).hexdigest()
    return seen


def check(inv, res, reference):
    want = dict(reference[inv_id(inv)], exit=0, status="pass")
    seen = observe(inv, res)
    bad = {k: (seen.get(k), v) for k, v in want.items() if seen.get(k) != v}
    if bad:
        print(f"MISMATCH {inv_id(inv)}: " + ", ".join(
            f"{k}={got!r} (reference {ref!r})" for k, (got, ref) in bad.items()),
            file=sys.stderr)
    return not bad


def run_set(cli, invs, order, workdir, reference):
    """The workload's invocations once, in the given order.  Keeps, per
    invocation, a digest and the size of what it printed and wrote."""
    results = {}
    for i in order:
        res = invoke(cli, invs[i], workdir)
        output = res["stdout"].encode() + res["out"]
        results[i] = {"wall": res["wall"], "cpu": res["cpu"],
                      "ok": check(invs[i], res, reference), "size": len(output),
                      "digest": hashlib.sha256(output).hexdigest()}
    return {
        "wall": sum(r["wall"] for r in results.values()),
        "cpu": sum(r["cpu"] for r in results.values()),
        "failed": sum(not r["ok"] for r in results.values()),
        "outputs": {i: r["digest"] for i, r in results.items()},
        "out_bytes": sum(r["size"] for r in results.values()),
    }


# -- the two kinds of run -------------------------------------------------------------


def measure(hilbfock, invs, rng, seconds, workdir, reference):
    """End-to-end metrics: repeat the whole set while another one fits in
    --seconds, and report medians over the repetitions."""
    start = time.perf_counter()
    walls, cpus, failed = [], [], 0
    while True:
        t = time.perf_counter()
        rep = run_set(hilbfock.cli, invs, rng.sample(range(len(invs)), len(invs)),
                      workdir, reference)
        walls.append(rep["wall"])
        cpus.append(rep["cpu"])
        failed += rep["failed"]
        if time.perf_counter() - start + (time.perf_counter() - t) > seconds:
            break
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, len(walls) * len(invs), failed, {"wall_s": walls, "cpu_s": cpus}


def measure_layers(hilbfock, invs, rng, workdir, reference, workload):
    """Per-layer metrics: one untraced, one traced and one profiled pass over
    the same invocation order; all three must produce identical outputs."""
    from tracer import Tracer, module_profile

    order = rng.sample(range(len(invs)), len(invs))
    cli = hilbfock.cli
    plain = run_set(cli, invs, order, workdir, reference)

    tracer = Tracer()
    with tracer.installed():
        traced = run_set(cli, invs, order, workdir, reference)
    with cProfile.Profile() as prof:
        profile = run_set(cli, invs, order, workdir, reference)

    failed = plain["failed"] + traced["failed"] + profile["failed"]
    for label, other in (("traced", traced), ("profiled", profile)):
        for i, out in other["outputs"].items():
            if out != plain["outputs"][i]:
                failed += 1
                print(f"MISMATCH {inv_id(invs[i])}: {label} output differs "
                      f"from the untraced one", file=sys.stderr)
    if tracer.missing:
        print(f"warning: trace targets not found: {tracer.missing}", file=sys.stderr)

    metrics = tracer.summarize()
    modules = module_profile(prof)
    backend = hilbfock.Q.__module__
    total = sum(s for s, _ in modules.values())
    self_s, calls = modules.get(backend, (0.0, 0))
    metrics["rational.self_share"] = self_s / total if total else 0.0
    metrics["rational.calls"] = calls
    metrics["cli.out_bytes"] = traced["out_bytes"]
    metrics["trace.overhead_ratio"] = traced["wall"] / plain["wall"]

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload}.json.gz")
    for mname, (s, c) in sorted(modules.items(), key=lambda t: -t[1][0])[:8]:
        print(f"profile {mname}: self {s / total:.1%}, {c} calls")
    return metrics, 3 * len(invs), failed


# -- reference ------------------------------------------------------------------------


def record_reference(hilbfock, path):
    """Write the reference outputs of every workload's invocations.  Run this at
    the seed commit only: later commits are checked against it."""
    workdir = OUT / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    ref = {}
    for invs in WORKLOADS.values():
        for inv in invs:
            seen = observe(inv, invoke(hilbfock.cli, inv, workdir))
            if seen.pop("exit") != 0 or seen.pop("status") != "pass":
                raise SystemExit(f"cannot record a failing invocation: {inv_id(inv)}")
            ref[inv_id(inv)] = seen
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


# -- main -----------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reference", type=Path, default=REFERENCE,
                   help="reference outputs to check against")
    p.add_argument("--record", action="store_true",
                   help="write --reference from this commit's outputs")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (args.workload or args.record):
        p.error("--workload is required")
    return args


def main(argv=None):
    args = parse_args(argv)
    # the on-disk table cache would turn a timed table into a JSON load
    os.environ.pop("HILBFOCK_CACHE_DIR", None)
    if not (SRC / "hilbfock" / "__init__.py").is_file():
        print(f"error: no hilbfock source tree under {SRC}", file=sys.stderr)
        return 2
    if args.record:
        setup([])
        record_reference(sys.modules["hilbfock"], args.reference)
        return 0
    invs = WORKLOADS[args.workload]
    hilbfock = setup(workload_models(invs))
    if args.setup_probe:
        print(time.monotonic_ns())
        return 0
    reference = json.loads(args.reference.read_text())
    spec = json.loads(BENCHMARK.read_text())
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "backend": hilbfock.Q.__module__,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "hilbfock": str(Path(hilbfock.__file__).resolve().relative_to(ROOT.resolve())),
    }
    rng = random.Random(args.seed)
    workdir = OUT / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        metrics, attempted, failed = measure_layers(
            hilbfock, invs, rng, workdir, reference, args.workload)
        declared = spec["per_layer"]
    else:
        metrics, attempted, failed, meta["samples"] = measure(
            hilbfock, invs, rng, args.seconds, workdir, reference)
        metrics["setup_s"] = setup_seconds(args.workload)
        declared = spec["end_to_end"]

    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(dict(result, meta=meta), sort_keys=True) + "\n")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(f"error_rate = {failed / attempted:.6g} (failed {failed} of {attempted})")
    for k, m in result["metrics"].items():
        print(f"{k} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
