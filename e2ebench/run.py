#!/usr/bin/env python3
"""End-to-end Engine-over-TCP benchmark (see NOTES.md).

Run one workload (builds the harness from source first):

    python3 e2ebench/run.py --workload sync_tiny --seed 1 --seconds 20 --trace 0

The last stdout line is {"correct", "attempted", "failed", "metrics"}; each
run is also saved, host-stamped, under .bench_out/results/ (or --results DIR).

Compare two result sets, e.g. a parent commit's and a change's (advisory:
exits 0 whenever both sets load; runs pair up by seed):

    python3 e2ebench/run.py compare PARENT_DIR CHANGE_DIR
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
OUT = os.path.join(ROOT, ".bench_out")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170  # one run must end within 180 s


def log(msg):
    print(f"e2ebench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the harness; build output goes to stderr."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def run(args):
    if not build():
        return 2
    out_dir = os.path.join(OUT, "work")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(BUILD, "e2ebench"), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was killed")
        return 3
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"harness exited {proc.returncode} without a result")
        return proc.returncode or 4
    host = {}
    for line in lines[:-1]:
        if line.startswith("# host "):
            host = json.loads(line[len("# host "):])
            host["git_commit"] = git_commit()
            line = "# host " + json.dumps(host)
        print(line)

    results = args.results or os.path.join(OUT, "results")
    os.makedirs(results, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host, **result}
    name = f"{args.workload}-trace{args.trace}-seed{args.seed}-{time.time_ns()}.json"
    with open(os.path.join(results, name), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(result), flush=True)
    return proc.returncode


# --- compare ------------------------------------------------------------------

def load_results(directory):
    """{workload: {metric: {seed: value}}} over the end-to-end runs in a directory."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name)) as f:
            r = json.load(f)
        if r.get("trace") != 0:
            continue
        for metric, v in r["metrics"].items():
            out.setdefault(r["workload"], {}).setdefault(metric, {})[r["seed"]] = v["value"]
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, spec):
    """improved / unchanged / worse / unresolved for one workload and metric.

    `parent` and `change` map seed -> value; runs pair up by seed. Improved:
    the change wins at least 90% of the pairs and the medians differ by more
    than the parent's IQR. Worse: the change's median is worse by more than
    the metric's bound. Unresolved: the parent's spread exceeds the bound,
    unless every change run beats every parent run."""
    lower = spec["better"] == "lower"
    bound = spec["bound"]
    p, c = list(parent.values()), list(change.values())
    p1, pm, p3 = quartiles(p)
    _, cm, _ = quartiles(c)
    better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
    seeds = sorted(set(parent) & set(change))
    # Ties count for neither side.
    wins = sum(1 for s in seeds if better(change[s], parent[s]))
    win_share = wins / len(seeds) if seeds else 0.0
    worse_by = ((cm - pm) if lower else (pm - cm)) / abs(pm) if pm else 0.0
    spread = (p3 - p1) / abs(pm) if pm else 0.0
    if seeds and win_share >= 0.9 and abs(cm - pm) > (p3 - p1) and better(cm, pm):
        v = "improved"
    elif worse_by > bound:
        v = "worse"
    elif spread > bound and not all(better(x, y) for y in p for x in c):
        v = "unresolved"
    else:
        v = "unchanged"
    return v, win_share, len(seeds)


def compare(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        specs = {m["name"]: m for m in json.load(f)["end_to_end"]}
    try:
        parent, change = load_results(args.parent), load_results(args.change)
    except (OSError, ValueError, KeyError) as e:
        log(f"cannot load result sets: {e}")
        return 2
    print("advisory comparison (parent -> change); quartiles are q1/median/q3")
    print(f"{'workload':14} {'metric':22} {'parent q1/med/q3':>32} {'change q1/med/q3':>32}"
          f" {'won':>9} verdict")
    for workload in sorted(set(parent) & set(change)):
        for metric, spec in specs.items():
            if metric not in parent[workload] or metric not in change[workload]:
                continue
            p, c = parent[workload][metric], change[workload][metric]
            v, won, pairs = verdict(p, c, spec)
            fmt = lambda q: "/".join(f"{x:.4g}" for x in quartiles(list(q.values())))
            print(f"{workload:14} {metric:22} {fmt(p):>32} {fmt(c):>32} "
                  f"{won:4.0%} of {pairs:<2} {v}")
    return 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        ap = argparse.ArgumentParser(prog="run.py compare")
        ap.add_argument("parent")
        ap.add_argument("change")
        return compare(ap.parse_args(sys.argv[2:]))
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--results", help="directory for the saved result (default "
                                      ".bench_out/results)")
    return run(ap.parse_args())


if __name__ == "__main__":
    sys.exit(main())
