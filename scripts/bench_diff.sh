#!/usr/bin/env bash
# Reruns every bench that has a committed JSON baseline in
# bench/baselines/ and compares the fresh record with it field by field.
# The commit a record was built from (git_sha) is not compared. Every
# field that moved is printed as `field: baseline -> fresh (delta)`, and
# any difference fails the run: the simulated numbers are deterministic,
# so a moved field is a model or behaviour change that the commit must
# explain and re-baseline.
#
# Usage (from anywhere):
#   scripts/bench_diff.sh [build-dir]           # compare (default: build)
#   scripts/bench_diff.sh --update [build-dir]  # rewrite the baselines
#
# The fresh records stay in <build-dir>/bench_diff/<name>.json, so later
# checks can compare other runs against them without rerunning.
set -euo pipefail

cd "$(dirname "$0")/.."

update=0
if [ "${1:-}" = "--update" ]; then
  update=1
  shift
fi
build="${1:-build}"
fresh_dir="$build/bench_diff"
mkdir -p "$fresh_dir"

# <baseline name>|<bench binary and arguments; --json <path> is appended>
runs=(
  "table1|bench_table1"
  "fig2|bench_fig2"
  "scaling|bench_scaling"
  "openloop|bench_openloop --conns 1000 --seconds 1"
  "openloop_get|bench_openloop --conns 1000 --seconds 1 --get-ratio 0.5 --zipf 0.99"
  "slicer|bench_slicer --quick"
  "repl|bench_repl --quick"
  "flightrec|bench_recovery --flightrec"
)

failed=0
for run in "${runs[@]}"; do
  name="${run%%|*}"
  read -r -a cmd <<< "${run#*|}"
  fresh="$fresh_dir/$name.json"
  baseline="bench/baselines/BENCH_$name.json"
  "$build/bench/${cmd[0]}" "${cmd[@]:1}" --json "$fresh" >/dev/null
  if [ "$update" = 1 ]; then
    cp "$fresh" "$baseline"
    echo "bench_diff: $baseline updated"
    continue
  fi
  if ! python3 - "$baseline" "$fresh" <<'EOF'; then
import json
import sys


def flatten(value, path, out):
    if isinstance(value, dict):
        for key, item in value.items():
            flatten(item, f"{path}.{key}" if path else key, out)
    elif isinstance(value, list):
        out[f"{path}.len"] = len(value)
        for i, item in enumerate(value):
            flatten(item, f"{path}[{i}]", out)
    else:
        out[path] = value


def load(path):
    with open(path) as f:
        record = json.load(f)
    record.pop("git_sha", None)
    out = {}
    flatten(record, "", out)
    return out


base, fresh = load(sys.argv[1]), load(sys.argv[2])
moved = 0
for field in sorted(base.keys() | fresh.keys()):
    old, new = base.get(field), fresh.get(field)
    if old == new:
        continue
    moved += 1
    delta = ""
    if isinstance(old, (int, float)) and isinstance(new, (int, float)):
        delta = f" ({new - old:+g}"
        if old != 0:
            delta += f", {100.0 * (new - old) / abs(old):+.2f} %"
        delta += ")"
    print(f"  {field}: {old} -> {new}{delta}")
print(f"bench_diff: {sys.argv[1]}: "
      + ("identical" if moved == 0 else f"{moved} field(s) moved"))
sys.exit(1 if moved else 0)
EOF
    failed=1
  fi
done
exit "$failed"
