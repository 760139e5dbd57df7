#!/usr/bin/env python3
"""Entry point of the benchmark, as named in BENCHMARK.json.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout: builds perfbench/perf.exe with
dune, runs one workload, and prints as the last line of standard output
one JSON object

    {"correct": true, "attempted": 1000, "failed": 0,
     "metrics": {"ops_per_s": {"value": 38.9, "unit": "1/s"}, ...}}

holding every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1).  Build output and the benchmark's own
output go to standard error.  Everything the run writes stays inside
the checkout: dune's _build/ and .bench_build/ (temporary files).

    python3 perfbench/run.py --smoke --exe PATH --bench PATH

is the smoke check that `dune runtest` runs: every workload once on
tiny inputs, traced, then every metric BENCHMARK.json names must be
present for every workload with its unit, every end-to-end metric
nonzero, and no operation failed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PERF_TIMEOUT_S = 170


def metric_list(bench, trace):
    return bench["per_layer"] if trace else bench["end_to_end"]


def run_perf(exe, args, env, cwd, out=sys.stderr):
    """Run perf.exe in its own process group, so that on a timeout the
    server children it forked go down with it."""
    proc = subprocess.Popen([exe] + args, cwd=cwd, env=env, stdout=out, stderr=out,
                            start_new_session=True)
    try:
        return proc.wait(timeout=PERF_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("run.py: perf.exe timed out", file=sys.stderr)
        return None


def collect(rows, workload, metrics):
    """The named metrics of one workload, and the names that are missing
    or carry another unit."""
    by_name = {r["metric"]: r for r in rows if r["experiment"] == workload}
    found, bad = {}, []
    for m in metrics:
        row = by_name.get(m["name"])
        if row is None or row["unit"] != m["unit"] or row["value"] is None:
            bad.append(m["name"])
        else:
            found[m["name"]] = {"value": row["value"], "unit": row["unit"]}
    counts = {k: int(by_name[k]["value"]) if k in by_name else None
              for k in ("attempted", "failed")}
    return found, bad, counts


def run_one(args):
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        print("run.py: no dune-project next to perfbench/: not a source checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        print(f"run.py: unknown workload {args.workload}", file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".bench_build")
    os.makedirs(os.path.join(work, "tmp"), exist_ok=True)
    env = dict(os.environ,
               DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.join(work, "xdg-cache"),
               # relative: keeps Unix socket paths short
               TMPDIR=os.path.join(".bench_build", "tmp"))
    built = subprocess.run(["dune", "build", "--root", ROOT, "perfbench/perf.exe"],
                           cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "perf.exe")
    out = os.path.join(work, f"result-{os.getpid()}.json")
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    perf_args = ["--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(seconds), "--json", out]
    if args.trace:
        perf_args.append("--trace")
    code = run_perf(exe, perf_args, env, ROOT)
    try:
        with open(out) as f:
            rows = json.load(f)
        os.remove(out)
    except (OSError, ValueError):
        print("run.py: perf.exe wrote no results", file=sys.stderr)
        return 1
    metrics, bad, counts = collect(rows, args.workload, metric_list(bench, args.trace))
    if bad or counts["attempted"] is None or counts["failed"] is None:
        print(f"run.py: missing metrics: {', '.join(bad) or 'attempted/failed'}",
              file=sys.stderr)
        return 1
    correct = code == 0 and counts["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": max(1, counts["attempted"]),
                      "failed": counts["failed"], "metrics": metrics}))
    return 0 if correct else 1


def smoke(args):
    with open(args.bench) as f:
        bench = json.load(f)
    with tempfile.TemporaryDirectory() as tmp, tempfile.TemporaryFile("w+") as log:
        out = os.path.join(tmp, "smoke.json")
        code = run_perf(os.path.abspath(args.exe), ["--smoke", "--trace", "--json", out],
                        None, tmp, out=log)
        try:
            with open(out) as f:
                rows = json.load(f)
        except (OSError, ValueError):
            rows = []
        log.seek(0)
        output = log.read()
    problems = [] if code == 0 else [f"perf.exe exited with {code}"]
    for w in bench["workloads"]:
        name = w["name"]
        found, bad, counts = collect(rows, name, bench["end_to_end"] + bench["per_layer"])
        problems += [f"{name}: {m} missing or wrong unit" for m in bad]
        problems += [f"{name}: {m['name']} is 0" for m in bench["end_to_end"]
                     if m["name"] in found and found[m["name"]]["value"] == 0]
        if counts["failed"] != 0:
            problems.append(f"{name}: {counts['failed']} failed operations")
    if problems:
        print(output, file=sys.stderr)
    for p in problems:
        print("smoke:", p, file=sys.stderr)
    print(f"smoke: {len(bench['workloads'])} workloads, "
          f"{len(bench['end_to_end']) + len(bench['per_layer'])} metrics each, "
          f"{len(problems)} problems")
    return 1 if problems else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int,
                   help="measuring time (default: run_seconds in BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--exe")
    p.add_argument("--bench")
    args = p.parse_args()
    if args.smoke:
        if not (args.exe and args.bench):
            p.error("--smoke needs --exe and --bench")
        return smoke(args)
    if not args.workload:
        p.error("--workload is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
