#!/usr/bin/env bash
# Smoke test of the benchmark: builds the package offline, then runs every
# workload of BENCHMARK.json through the command of BENCHMARK.json with
# `--seconds 2` (the minimum number of passes), untraced and traced.
# Fails on a non-zero exit, on `"correct": false`, on a missing or
# non-finite metric, and on a metric name BENCHMARK.json does not declare.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

python3 - <<'EOF'
import json, math, subprocess, sys

spec = json.load(open("BENCHMARK.json"))
declared = {
    "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
    "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
}
failures = 0
for workload in (w["name"] for w in spec["workloads"]):
    for trace in ("0", "1"):
        cmd = spec["command"] + ["--workload", workload, "--seed", "1",
                                 "--seconds", "2", "--trace", trace]
        run = subprocess.run(cmd, capture_output=True, text=True)
        label = f"{workload} --trace {trace}"
        if run.returncode != 0:
            print(f"FAIL {label}: exit code {run.returncode}\n{run.stdout[-2000:]}{run.stderr[-2000:]}")
            failures += 1
            continue
        result = json.loads(run.stdout.strip().splitlines()[-1])
        problems = []
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"keys {sorted(result)}")
        if result.get("correct") is not True or result.get("failed") != 0:
            problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
        metrics = result.get("metrics", {})
        want = declared[trace]
        for name in want.keys() - metrics.keys():
            problems.append(f"metric {name} missing")
        for name, m in metrics.items():
            if name not in want:
                problems.append(f"metric {name} not in BENCHMARK.json")
            elif m.get("unit") != want[name]:
                problems.append(f"metric {name} has unit {m.get('unit')}, declared {want[name]}")
            value = m.get("value")
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                problems.append(f"metric {name} is {value!r}")
            elif trace == "0" and value == 0:
                problems.append(f"end-to-end metric {name} is 0")
        if problems:
            print(f"FAIL {label}: " + "; ".join(problems))
            failures += 1
        else:
            print(f"ok   {label}: {len(metrics)} metrics, {result['attempted']} gated ops")
sys.exit(1 if failures else 0)
EOF
