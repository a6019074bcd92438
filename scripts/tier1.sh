#!/usr/bin/env bash
# Tier-1 verification: the plain build + test pass from ROADMAP.md,
# a second ctest pass under ASan+UBSan (-DPAPM_SANITIZE=ON), a third
# pass re-running the crash-point sweep suite under the sanitizers with
# the exhaustive (scaled-up) workloads, a fourth build+test pass with
# observability compiled out (-DPAPM_OBS=OFF) proving the kill switch
# leaves the tree buildable and the tests green. Group commit, the NIC
# slicer and replication have no compile-time switch: each is turned off
# at run time (no FlushBatcher, payload_slicing = false, no Replicator)
# and both sides are tested in the default build. Also lints the docs
# (every bench binary must have an EXPERIMENTS.md section; every
# registered metric an entry in docs/OBSERVABILITY.md and every
# documented metric a registration; README's test count and Table 1 RTT
# cells match the default build), runs every example to a zero exit,
# checks every bench with a committed baseline (bench/baselines/) against
# it field for field (scripts/bench_diff.sh), and verifies the telemetry
# plane:
# an armed-but-unscraped admin plane is byte-identical to the baseline,
# a scraped one stays under the 1%-of-p99 overhead budget, the
# flight-recorder crash sweep loses no acked record and recovers no
# phantom, and the PAPM_OBS=OFF build compiles the whole plane out
# bit-identically even with every plane flag raised.
# Run from the repository root.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== tier-1: docs lint =="
scripts/check_docs.sh

echo "== tier-1: default build =="
cmake --preset default >/dev/null
cmake --build build -j
ctest --test-dir build --output-on-failure -j

echo "== tier-1: README test count matches the default build =="
# Suites are the ctest registrations; tests are the gtest cases of every
# suite binary, in the tests/CMakeLists.txt order.
suites="$(ctest --test-dir build -N | sed -n 's/^Total Tests: //p')"
tests=0
for t in $(sed -n '/^set(PAPM_TESTS/,/^)/s/^  \(test_[a-z_]*\)$/\1/p' tests/CMakeLists.txt); do
  tests=$((tests + $(build/tests/"$t" --gtest_list_tests | grep -c '^  ')))
done
if ! grep -qF "# $tests tests across $suites suites" README.md; then
  echo "README.md: test count drifted (default build: $tests tests across $suites suites)" >&2
  exit 1
fi
echo "README: $tests tests across $suites suites"

echo "== tier-1: README Table 1 RTT cells match bench_table1 =="
# The "ours" column of bench_table1's Networking and Total rows must be
# the figure README's headline table quotes.
table1="$(build/bench/bench_table1)"
check_rtt() {  # <README row label> <bench_table1 row label>
  local readme bench
  readme="$(sed -n "s/^| $1 |[^|]*| \([0-9.]*\) µs |\$/\1/p" README.md)"
  bench="$(printf '%s\n' "$table1" | awk -v row="$2" '$1 == row { print $NF; exit }')"
  if [ -z "$bench" ] || [ "$readme" != "$bench" ]; then
    echo "README.md: '$1' reads '$readme' µs, bench_table1 gives '$bench' µs" >&2
    exit 1
  fi
  echo "README: $1 = $bench µs"
}
check_rtt "Networking-only RTT (1 KB write)" Networking
check_rtt "Full-baseline RTT" Total

echo "== tier-1: examples run to a zero exit =="
for ex in build/examples/*; do
  [ -f "$ex" ] && [ -x "$ex" ] || continue
  if ! "$ex" >/dev/null; then
    echo "$ex: nonzero exit" >&2
    exit 1
  fi
  echo "$ex: ok"
done

echo "== tier-1: bench records match the committed baselines =="
# The simulated numbers are deterministic, so table1, fig2, the scaling
# sweep, open-loop (PUT and GET-heavy), slicer, repl and the
# flight-recorder crash sweep must each reproduce bench/baselines/
# field for field (git_sha aside). A bench that fails its own check
# (an acked write lost, a phantom record) exits nonzero and fails here
# too. The fresh records stay in build/bench_diff/ for the checks below.
scripts/bench_diff.sh build

echo "== tier-1: admin plane armed-but-unscraped is free (byte-identity) =="
# An --admin run must be bit-identical to the baseline: the endpoint
# branch only runs for admin targets, so arming the plane costs zero
# simulated time. Only the recorded flag itself may differ.
build/bench/bench_openloop --conns 1000 --seconds 1 --admin --json build/openloop_admin.json
sed 's/"admin": 1/"admin": 0/' build/openloop_admin.json | cmp - build/bench_diff/openloop.json
echo "bench_openloop: --admin run bit-identical to baseline"

echo "== tier-1: admin overhead budget (<1% of p99, scraped at 500 Hz) =="
build/bench/bench_openloop --admin-overhead --seconds 0.1
echo "bench_openloop: admin overhead within budget"

echo "== tier-1: ASan+UBSan build =="
cmake --preset asan >/dev/null
cmake --build build-asan -j
ctest --test-dir build-asan --output-on-failure -j

echo "== tier-1: exhaustive crash-point sweep (ASan+UBSan) =="
PAPM_CRASH_EXHAUSTIVE=1 \
  ctest --test-dir build-asan -R test_crash_recovery --output-on-failure

echo "== tier-1: PAPM_OBS=OFF build (kill switch) =="
cmake --preset noobs >/dev/null
cmake --build build-noobs -j
ctest --test-dir build-noobs --output-on-failure -j
# The whole telemetry plane compiles out: an OBS=OFF run with every
# plane flag raised must be bit-identical to the default baseline —
# modulo the metadata fields that record the build and the flags.
build-noobs/bench/bench_openloop --conns 1000 --seconds 1 --admin --flightrec \
  --json build/openloop_noobs.json
sed -e 's/"obs": "off"/"obs": "on"/' \
    -e 's/"admin": 1/"admin": 0/' \
    -e 's/"flightrec": 1/"flightrec": 0/' build/openloop_noobs.json \
  | cmp - build/bench_diff/openloop.json
echo "bench_openloop: PAPM_OBS=OFF telemetry plane compiled out bit-identically"

echo "== tier-1: OK =="
