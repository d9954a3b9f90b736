#!/usr/bin/env bash
# Exact-counter guard: runs the workloads named in ci/exact-counters.json
# through the command of BENCHMARK.json at the arguments recorded there and
# fails unless every listed counter equals its committed value — equality,
# not a tolerance: these are ratios of integer counts and bytes on disk.
# Prints both values on a mismatch. Timings are not looked at.
#
#   ci/check-counters.sh                    check every workload
#   ci/check-counters.sh --update WORKLOAD  rewrite WORKLOAD's committed
#                                           values from one run
#
# A change that moves counters on purpose regenerates them with --update
# instead of copying 17-digit floats by hand: it runs WORKLOAD once and
# writes each of its listed counters back as the run printed it (full
# precision, integers as integers), leaving every other byte of the file —
# key order, the other workloads, the comment — as it was. It prints the
# values it changed; check the rest with a plain run afterwards.
set -euo pipefail
cd "$(dirname "$0")/.."

update=""
case "${1:-}" in
"") ;;
--update)
    update="${2:?usage: ci/check-counters.sh [--update WORKLOAD]}"
    ;;
*)
    echo "usage: ci/check-counters.sh [--update WORKLOAD]" >&2
    exit 2
    ;;
esac

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

UPDATE="$update" python3 - <<'PY'
import json, os, re, subprocess, sys

GUARD = "ci/exact-counters.json"
spec = json.load(open("BENCHMARK.json"))
guard = json.load(open(GUARD))
update = os.environ["UPDATE"]
if update and update not in guard["workloads"]:
    print(f"unknown workload {update!r}: {', '.join(guard['workloads'])}")
    sys.exit(2)


def run(workload, expected):
    """The listed counters as one run prints them: name -> value text."""
    cmd = spec["command"] + ["--workload", workload] + guard["args"]
    run = subprocess.run(cmd, capture_output=True, text=True)
    if run.returncode != 0:
        print(f"FAIL {workload}: exit code {run.returncode}\n{run.stdout[-2000:]}{run.stderr[-2000:]}")
        return None
    # Every metric is printed as `name value unit ...`, end-to-end ones too.
    measured = {}
    for line in run.stdout.splitlines():
        fields = line.split()
        if len(fields) >= 3 and fields[0] in expected and fields[0] not in measured:
            measured[fields[0]] = fields[1]
    return measured


if update:
    expected = guard["workloads"][update]
    measured = run(update, expected)
    missing = [n for n in expected if measured is not None and n not in measured]
    if measured is None or missing:
        print(f"FAIL {update}: not printed: {missing}")
        sys.exit(1)
    lines = open(GUARD).read().split("\n")
    start = lines.index(f'    "{update}": {{')
    for i in range(start + 1, len(lines)):
        m = re.fullmatch(r'(      "([^"]+)": )([^,]+)(,?)', lines[i])
        if not m:
            break
        name, old = m.group(2), m.group(3)
        new = json.dumps(json.loads(measured[name]))
        if float(new) != float(old):
            print(f"{update}: {name} {old} -> {new}")
        lines[i] = m.group(1) + new + m.group(4)
    open(GUARD, "w").write("\n".join(lines))
    json.load(open(GUARD))  # still one JSON document
    sys.exit(0)

failures = 0
for workload, expected in guard["workloads"].items():
    measured = run(workload, expected)
    if measured is None:
        failures += 1
        continue
    moved = [n for n, want in expected.items() if n not in measured or float(measured[n]) != float(want)]
    for name in moved:
        got = float(measured[name]) if name in measured else None
        print(f"FAIL {workload}: {name} measured {got!r}, committed {float(expected[name])!r}")
    if not moved:
        print(f"ok   {workload}: {len(expected)} counters equal")
    failures += len(moved)
sys.exit(1 if failures else 0)
PY
