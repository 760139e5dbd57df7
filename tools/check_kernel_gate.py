#!/usr/bin/env python3
"""Micro-bench regression gate for the flat field kernels.

Usage: check_kernel_gate.py RESULTS.json [RESULTS.json ...] BASELINE.json
       check_kernel_gate.py --validate-shard RESULTS.json
       check_kernel_gate.py --validate-agg RESULTS.json

Each RESULTS.json is the output of one
`bench/main.exe --json RESULTS.json kernel` run; BASELINE.json is the
committed bench/kernel_baseline.json.  The gate compares each op's
MEDIAN kernel-vs-reference speedup ratio over the runs
(machine-independent, and one noisy run cannot fail it alone) within a
tolerance band, plus a hard floor, and requires the bench's own
bit-identical-results assertion to have passed in every run.  The hard
floor is the baseline's global "hard_floor" unless an op names its own (an op
whose whole-path ratio is inherently smaller, such as share
regeneration, where the reference already shares the ChaCha20 core).

With --validate-shard, RESULTS.json is the output of
`bench/main.exe --json RESULTS.json shard`: the gate checks the shard
ablation's schema — a 1-shard baseline row plus multi-shard rows, each
with sane threshold geometry, a positive throughput, and the bench's
golden-equality assertion recorded as passed.

With --validate-agg, RESULTS.json is the output of
`bench/main.exe --json RESULTS.json aggregation`: the gate checks the
aggregation ablation's schema — at least two selectivity rows, each
with matches equal to the planted selectivity, positive byte and time
measurements, and (the oblivious-reply claim) an aggregate reply size
that is identical across every selectivity.
"""

import json
import statistics
import sys


def fail(msg: str) -> None:
    print(f"kernel gate: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def validate_shard(path: str) -> None:
    with open(path) as f:
        rows = json.load(f)
    shard_rows = [row for row in rows if row.get("experiment") == "shard"]
    if not shard_rows:
        fail("no shard rows in results (did the shard experiment run?)")

    ok = True
    seen_baseline = False
    for i, row in enumerate(shard_rows):
        problems = []
        shards = row.get("shards")
        threshold = row.get("threshold")
        if not isinstance(shards, int) or shards < 1:
            problems.append(f"shards={shards!r}")
        if not isinstance(threshold, int) or not (
            isinstance(shards, int) and 1 <= threshold <= shards
        ):
            problems.append(f"threshold={threshold!r}")
        qps = row.get("queries_per_second")
        if not isinstance(qps, (int, float)) or qps <= 0:
            problems.append(f"queries_per_second={qps!r}")
        if row.get("golden_identical") != 1:
            problems.append(f"golden_identical={row.get('golden_identical')!r}")
        if shards == 1:
            seen_baseline = True
        status = "ok" if not problems else "FAIL (" + ", ".join(problems) + ")"
        print(
            f"shard gate: row {i}: {shards}-shard t={threshold} "
            f"qps={qps if isinstance(qps, (int, float)) else '?'} {status}"
        )
        if problems:
            ok = False

    if not seen_baseline:
        print("shard gate: no shards=1 baseline row", file=sys.stderr)
        ok = False
    if not ok:
        fail("shard ablation rows malformed (see rows above)")
    print("shard gate: PASS")


def validate_agg(path: str) -> None:
    with open(path) as f:
        rows = json.load(f)
    agg_rows = [row for row in rows if row.get("experiment") == "aggregation"]
    if len(agg_rows) < 2:
        fail(
            "need at least 2 aggregation rows to check reply-size constancy "
            f"(got {len(agg_rows)})"
        )

    ok = True
    reply_sizes = set()
    for i, row in enumerate(agg_rows):
        problems = []
        selectivity = row.get("selectivity")
        matches = row.get("matches")
        if not isinstance(selectivity, int) or selectivity < 1:
            problems.append(f"selectivity={selectivity!r}")
        if not isinstance(matches, int) or matches != selectivity:
            problems.append(f"matches={matches!r} (expected {selectivity!r})")
        for field in ("fetch_bytes", "agg_bytes", "agg_reply_bytes"):
            v = row.get(field)
            if not isinstance(v, int) or v < 1:
                problems.append(f"{field}={v!r}")
        for field in ("fetch_seconds", "agg_seconds"):
            v = row.get(field)
            if not isinstance(v, (int, float)) or v < 0:
                problems.append(f"{field}={v!r}")
        reply = row.get("agg_reply_bytes")
        if isinstance(reply, int):
            reply_sizes.add(reply)
        status = "ok" if not problems else "FAIL (" + ", ".join(problems) + ")"
        print(
            f"agg gate: row {i}: selectivity={selectivity} "
            f"agg_bytes={row.get('agg_bytes')!r} "
            f"reply={row.get('agg_reply_bytes')!r} {status}"
        )
        if problems:
            ok = False

    if len(reply_sizes) != 1:
        print(
            "agg gate: aggregate reply size varies with selectivity: "
            f"{sorted(reply_sizes)} (leaks the matched-set size)",
            file=sys.stderr,
        )
        ok = False
    if not ok:
        fail("aggregation ablation rows malformed (see rows above)")
    print(
        "agg gate: PASS "
        f"(constant {reply_sizes.pop()}-byte reply over {len(agg_rows)} selectivities)"
    )


def main() -> None:
    if len(sys.argv) == 3 and sys.argv[1] == "--validate-shard":
        validate_shard(sys.argv[2])
        return
    if len(sys.argv) == 3 and sys.argv[1] == "--validate-agg":
        validate_agg(sys.argv[2])
        return
    if len(sys.argv) < 3 or sys.argv[1].startswith("--"):
        print(__doc__, file=sys.stderr)
        sys.exit(2)

    runs = []
    for path in sys.argv[1:-1]:
        with open(path) as f:
            rows = json.load(f)
        kernel_rows = {
            row["op"]: row for row in rows if row.get("experiment") == "kernel"
        }
        if not kernel_rows:
            fail(f"no kernel rows in {path} (did the kernel experiment run?)")
        runs.append((path, kernel_rows))
    with open(sys.argv[-1]) as f:
        baseline = json.load(f)

    tolerance = float(baseline["tolerance"])
    hard_floor = float(baseline["hard_floor"])

    ok = True
    for op, spec in baseline["ops"].items():
        speedups = []
        identical = True
        for path, kernel_rows in runs:
            row = kernel_rows.get(op)
            if row is None:
                fail(f"op {op!r} missing from {path}")
            speedups.append(float(row["speedup"]))
            if int(row.get("identical", 0)) != 1:
                print(
                    f"kernel gate: {op}: results were not bit-identical in {path}",
                    file=sys.stderr,
                )
                identical = False
        speedup = statistics.median(speedups)
        op_floor = float(spec.get("hard_floor", hard_floor))
        floor = max(op_floor, float(spec["baseline_speedup"]) * (1.0 - tolerance))
        status = "ok" if speedup >= floor and identical else "FAIL"
        runs_text = ", ".join(f"{s:.2f}" for s in speedups)
        print(
            f"kernel gate: {op}: median speedup {speedup:.2f}x over {len(speedups)} "
            f"run(s) [{runs_text}] (floor {floor:.2f}x, "
            f"identical={int(identical)}) {status}"
        )
        if not identical or speedup < floor:
            ok = False

    if not ok:
        fail("speedup regression or result mismatch (see rows above)")
    print("kernel gate: PASS")


if __name__ == "__main__":
    main()
