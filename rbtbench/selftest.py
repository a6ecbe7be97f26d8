#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the repository root:

    python3 rbtbench/selftest.py

It runs every workload of BENCHMARK.json at a short length, untraced and
traced, and checks that each run succeeds and prints exactly the metrics
BENCHMARK.json names, each with its unit. It then feeds the checker one
corrupted reply and checks that the run fails, and runs the benchmark in
a directory holding only BENCHMARK.json and the benchmark's own files,
where it must fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

# A short run in which serve-bulk and library-release still collect the
# 1000 latency samples a p99 needs (ten beyond it), with margin for a
# loaded host.
SECONDS = "10"

bench = json.load(open("BENCHMARK.json"))
problems = []


def run(workload, trace, *extra, cwd="."):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", "1", "--seconds", SECONDS,
        "--trace", str(trace), *extra,
    ]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        for line in p.stderr.splitlines():
            if "FAILED" in line:
                print("     " + line.strip())
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return p.returncode, result


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        problems.append(what)


for workload in [w["name"] for w in bench["workloads"]]:
    for trace, kind in [(0, "end_to_end"), (1, "per_layer")]:
        label = f"{workload} --trace {trace}"
        rc, result = run(workload, trace)
        expect(rc == 0, f"{label}: exit code 0 (got {rc})")
        if result is None:
            expect(False, f"{label}: last line is a JSON result")
            continue
        expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
               f"{label}: result has exactly correct/attempted/failed/metrics")
        expect(result.get("correct") is True and result.get("failed") == 0
               and result.get("attempted", 0) >= 1,
               f"{label}: correct, no failed operation")
        want = {m["name"]: m["unit"] for m in bench[kind]}
        got = result.get("metrics", {})
        expect(set(got) == set(want), f"{label}: exactly the {kind} metrics "
               f"(missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))})")
        for name, unit in want.items():
            m = got.get(name, {})
            ok = m.get("unit") == unit and isinstance(m.get("value"), (int, float))
            if kind == "end_to_end":
                ok = ok and m.get("value") != 0
            expect(ok, f"{label}: {name} = {m.get('value')} {m.get('unit')} (want a value in {unit})")

rc, result = run("serve-bulk", 0, "--corrupt-reply")
expect(rc != 0 and result is not None and result.get("correct") is False
       and result.get("failed", 0) >= 1,
       "one corrupted reply makes the run incorrect and exit non-zero")

bare = os.path.join(".bench_run", "selftest-bare")
shutil.rmtree(bare, ignore_errors=True)
os.makedirs(bare)
shutil.copy("BENCHMARK.json", bare)
for path in bench["paths"]:
    shutil.copytree(path, os.path.join(bare, path), ignore=shutil.ignore_patterns("target"))
rc, result = run("serve-bulk", 0, cwd=bare)
expect(rc != 0 and result is None,
       "with only BENCHMARK.json and the benchmark's files, it fails without a result")
shutil.rmtree(bare, ignore_errors=True)

print(f"{len(problems)} problem(s)")
sys.exit(1 if problems else 0)
