#!/usr/bin/env bash
# Exact-counter guard: runs the workloads named in ci/exact-counters.json
# through the command of BENCHMARK.json at the arguments recorded there and
# fails unless every listed counter equals its committed value — equality,
# not a tolerance: these are ratios of integer counts and bytes on disk.
# Prints both values on a mismatch. Timings are not looked at.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

python3 - <<'PY'
import json, subprocess, sys

spec = json.load(open("BENCHMARK.json"))
guard = json.load(open("ci/exact-counters.json"))
failures = 0
for workload, expected in guard["workloads"].items():
    cmd = spec["command"] + ["--workload", workload] + guard["args"]
    run = subprocess.run(cmd, capture_output=True, text=True)
    if run.returncode != 0:
        print(f"FAIL {workload}: exit code {run.returncode}\n{run.stdout[-2000:]}{run.stderr[-2000:]}")
        failures += 1
        continue
    # Every metric is printed as `name value unit ...`, end-to-end ones too.
    measured = {}
    for line in run.stdout.splitlines():
        fields = line.split()
        if len(fields) >= 3 and fields[0] in expected and fields[0] not in measured:
            measured[fields[0]] = float(fields[1])
    moved = [n for n, want in expected.items() if measured.get(n) != float(want)]
    for name in moved:
        print(f"FAIL {workload}: {name} measured {measured.get(name)!r}, committed {float(expected[name])!r}")
    if not moved:
        print(f"ok   {workload}: {len(expected)} counters equal")
    failures += len(moved)
sys.exit(1 if failures else 0)
PY
