#!/usr/bin/env python3
"""Build and run perf_e2e, the end-to-end VQE benchmark.

From the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      Builds perf_e2e under .bench_build/ when needed (the first build takes
      about a minute), runs one workload in a child process and prints its
      result JSON as the last line of stdout.

  python3 perfbench/run.py --collect OUT.json --runs N [--seconds S]
                           [--trace 0|1] [--workloads a,b]
      Runs every workload (or the listed ones) with seeds 1..N and writes
      the results, with the machine they ran on, to OUT.json.

  python3 perfbench/run.py --compare A.json B.json
      Per (workload, metric): median and quartiles of A and B, and for each
      end-to-end metric a verdict against its BENCHMARK.json bound. Count
      metrics of the deterministic workloads must be equal seed by seed.
      Exits 1 on a regression or a count mismatch.

  python3 perfbench/run.py --selftest
      Checks the statistics and verdict rules used by --compare.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perf_e2e"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
# Counts on this workload follow cache and queue timing, so they differ
# between runs of one seed; every other workload's counts repeat exactly.
TIMING_DEPENDENT_COUNTS = {"serve_zipf"}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures on first use, then brings perf_e2e up to date."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perf_e2e",
                  "-j", "4"])
    for cmd in steps:
        # The build log goes to stderr: stdout is reserved for the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            log("run.py: build step failed:", " ".join(cmd))
            return False
    return True


def run_workload(workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines, result dict)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ, VQSIM_BENCH_DIR=str(BUILD))
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                             cwd=ROOT)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        log(f"run.py: {workload} did not finish in {RUN_TIMEOUT_S} s")
        return 1, [], None
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise ValueError("unexpected keys")
    except (IndexError, ValueError):
        log(f"run.py: {workload} printed no result")
        return child.returncode or 1, lines, None
    return child.returncode, lines, result


def bench_rows(lines, row):
    for line in lines:
        if line.startswith("BENCH "):
            data = json.loads(line[len("BENCH "):])
            if data.get("row") == row:
                yield data


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, change, better, bound):
    """'ok' or 'worse': is the change's median worse than the base's by
    more than `bound` (a share of the base median)?"""
    shift = (change - base) / abs(base) if base else 0.0
    worse = shift > bound if better == "lower" else -shift > bound
    return "worse" if worse else "ok"


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def collect(args, seconds):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
    data = {"seconds": seconds, "trace": args.trace, "machine": None,
            "results": {}}
    for name in names:
        runs = []
        for seed in range(1, args.runs + 1):
            code, lines, result = run_workload(name, seed, seconds, args.trace)
            if result is None or code != 0:
                log(f"run.py: {name} seed {seed} failed")
                return 1
            data["machine"] = data["machine"] or next(
                bench_rows(lines, "machine"), None)
            runs.append({"seed": seed, "result": result,
                         "summary": next(bench_rows(lines, "end_to_end"))})
            log(f"{name} seed {seed} done")
        data["results"][name] = runs
        summarize(name, runs, spec)
    Path(args.collect).write_text(json.dumps(data, indent=1) + "\n")
    return 0


def summarize(name, runs, spec):
    for m in spec["end_to_end"]:
        values = [r["result"]["metrics"][m["name"]]["value"] for r in runs
                  if m["name"] in r["result"]["metrics"]]
        if not values:
            continue
        q1, med, q3 = quartiles(values)
        log(f"  {name:15s} {m['name']:12s} median {med:.6g} {m['unit']}  "
            f"IQR/median {(q3 - q1) / med:.4f} (bound {m['bound']})")


def compare(args):
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    a = json.loads(Path(args.compare[0]).read_text())
    b = json.loads(Path(args.compare[1]).read_text())
    failures = 0
    print(f"{'workload':15s} {'metric':28s} {'A q1/med/q3':>36s} "
          f"{'B q1/med/q3':>36s}  verdict")
    for workload in sorted(set(a["results"]) & set(b["results"])):
        runs_a, runs_b = a["results"][workload], b["results"][workload]
        metrics = runs_a[0]["result"]["metrics"]
        for name, first in metrics.items():
            va = [r["result"]["metrics"][name]["value"] for r in runs_a]
            vb = [r["result"]["metrics"][name]["value"] for r in runs_b]
            qa, qb = quartiles(va), quartiles(vb)
            if name in bounds:
                v = verdict(qa[1], qb[1], bounds[name]["better"],
                            bounds[name]["bound"])
            elif first["unit"] == "count" and \
                    workload not in TIMING_DEPENDENT_COUNTS:
                by_seed = {r["seed"]: r["result"]["metrics"][name]["value"]
                           for r in runs_a}
                same = all(by_seed.get(r["seed"], x) == x
                           for r, x in zip(runs_b, vb))
                v = "equal" if same else "count differs"
            else:
                v = ""
            failures += v in ("worse", "count differs")
            fmt = "{:.5g}/{:.5g}/{:.5g}"
            print(f"{workload:15s} {name:28s} {fmt.format(*qa):>36s} "
                  f"{fmt.format(*qb):>36s}  {v}")
    return 1 if failures else 0


def selftest():
    assert quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == (2.75, 5.5, 8.25)
    assert verdict(100.0, 109.0, "lower", 0.1) == "ok"
    assert verdict(100.0, 111.0, "lower", 0.1) == "worse"
    assert verdict(100.0, 50.0, "lower", 0.1) == "ok"
    assert verdict(100.0, 89.0, "higher", 0.1) == "worse"
    assert verdict(100.0, 120.0, "higher", 0.1) == "ok"
    print("selftest ok")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--collect")
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--workloads")
    p.add_argument("--compare", nargs=2)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()

    if args.selftest:
        return selftest()
    if args.compare:
        return compare(args)
    if not args.collect and not args.workload:
        p.error("--workload is required")
    seconds = args.seconds
    if seconds is None:
        seconds = load_spec()["run_seconds"]
    if not build():
        return 1
    if args.collect:
        return collect(args, seconds)
    code, lines, result = run_workload(args.workload, args.seed, seconds,
                                       args.trace)
    if result is None:
        return code or 1
    print("\n".join(lines), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
