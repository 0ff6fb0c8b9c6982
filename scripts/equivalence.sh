#!/usr/bin/env bash
# Output-equivalence oracle for the proto runtime port.
#
# Seeded `hbh_sim` runs are pinned against goldens captured before the
# refactors they guard:
#   * `hbh_sim faults --seed 42` is bit-identical (full output).
#   * `hbh_sim verify --depth 4 --seed 42` for every protocol, plus the
#     HPIM-DM seed-2 run that prints its violation lines, is
#     bit-identical: explored-state counts, counterexamples and
#     oscillations pin which states the digests tell apart.
#   * `hbh_sim verify --depth 4 --states 100 --no-shrink` for explorer
#     seeds 0..34 and every protocol is bit-identical: the sweep keeps
#     the HPIM-DM counterexamples at seeds 2, 3, 24 and 33 and the
#     REUNITE oscillation at seed 8.
#   * `hbh_sim churn` on a 1000-router power-law graph with 64 channels
#     for HBH, REUNITE and PIM-SSM, and on 200 routers with 8 channels
#     for HPIM-DM, is bit-identical: the churn outcome table and the
#     control-hop totals pin the handlers and the soft-state tables.
#   * `hbh_sim soak --seed 42` is bit-identical, stdout and its
#     `--timeline-ndjson` file alike: churn, the hostile plan, the
#     monitors and the probe stream's counts.
#   * `hbh_sim report --seed 42` is bit-identical: instrumented faults,
#     repair spans, join latency, timelines and monitor summaries.
#   * `hbh_sim validate --seed 42` and `hbh_sim overhead --seed 42` are
#     bit-identical, stdout and their `--metrics-json` files alike: the
#     event-driven runs each registered protocol's paper regime drives.
#   * `hbh_sim fig7a --runs 5 --seed 42 --metrics --trace=30` (the
#     instrumented companion run) is bit-identical with its `--metrics-json`
#     file, and on stdout apart from the engine profiles' wall-clock
#     readings (the `wall=` seconds), which differ between identical
#     runs; each profile's events_fired, pending and runs stay pinned.
#   * `hbh_sim state --runs 20 --seed 42` and `hbh_sim stability --runs 20
#     --seed 42` are bit-identical.
#   * `hbh_sim all --runs 50 --seed 42 --csv` is bit-identical: the four
#     figure sweeps (Fig. 7(a)/(b), 8(a)/(b)), every protocol's tree cost
#     and receiver delay per group size.
#
# Prints one `output-equivalence: <run> OK|MISMATCH` line per run and
# exits nonzero on any mismatch.  CI greps for the OK lines.
#
# Usage: scripts/equivalence.sh [RUN...]   (all runs by default; RUN is
# one of the names below, as printed in the output lines)
set -u
cd "$(dirname "$0")/.."

selected=("$@")
runs="faults verify verify-sweep churn soak report validate overhead companion state stability all"
for name in "$@"; do
  case " $runs " in
    *" $name "*) ;;
    *) echo "equivalence: unknown run '$name' (runs: $runs)" >&2; exit 2 ;;
  esac
done

run() { dune exec bin/hbh_sim.exe -- "$@" 2>/dev/null; }

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# One function per run: exit 0 when its output matches the goldens.
faults() { run faults --seed 42 | diff -u test/golden/faults-seed42.golden -; }

verify() {
  {
    for p in hbh reunite pim-ssm hpim-dm; do
      run verify --protocol "$p" --depth 4 --seed 42
    done
    run verify --protocol hpim-dm --seed 2 --states 100 --no-shrink
  } | diff -u test/golden/verify-seed42.golden -
}

verify_sweep() {
  for s in $(seq 0 34); do
    for p in hbh reunite pim-ssm hpim-dm; do
      run verify --protocol "$p" --depth 4 --seed "$s" --states 100 --no-shrink
    done
  done | diff -u test/golden/verify-sweep.golden -
}

churn() {
  local c="churn --gen power-law --horizon 1000 --sample-every 500 --seed 42"
  {
    for p in hbh reunite pim-ssm; do
      run $c --routers 1000 --channels 64 --protocol "$p"
    done
    run $c --routers 200 --channels 8 --protocol hpim-dm
  } | diff -u test/golden/churn-seed42.golden -
}

soak() {
  run soak --seed 42 --timeline-ndjson "$tmp/soak-timeline.ndjson" \
    | diff -u test/golden/soak-seed42.golden - \
    && diff -u test/golden/soak-seed42-timeline.ndjson "$tmp/soak-timeline.ndjson"
}

report() { run report --seed 42 | diff -u test/golden/report-seed42.golden -; }

# validate, overhead: stdout and the --metrics-json file.
with_json() {
  run "$1" --seed 42 --metrics-json "$tmp/$1.json" \
    | diff -u "test/golden/$1-seed42.golden" - \
    && diff -u "test/golden/$1-seed42.json" "$tmp/$1.json"
}

companion() {
  run fig7a --runs 5 --seed 42 --metrics --trace=30 \
      --metrics-json "$tmp/fig7a.json" \
    | sed 's/ wall=[0-9.]*s//' \
    | diff -u test/golden/fig7a-metrics-seed42.golden - \
    && diff -u test/golden/fig7a-metrics-seed42.json "$tmp/fig7a.json"
}

# state, stability.
twenty_runs() {
  run "$1" --runs 20 --seed 42 | diff -u "test/golden/$1-seed42.golden" -
}

all() { run all --runs 50 --seed 42 --csv | diff -u test/golden/all-seed42.csv -; }

status=0

# check RUN COMMAND...: when RUN was named (or none was), run COMMAND
# and print RUN's OK or MISMATCH line.
check() {
  local name=$1
  shift
  if [ ${#selected[@]} -gt 0 ] && [[ " ${selected[*]} " != *" $name "* ]]; then
    return 0
  fi
  if "$@"; then
    echo "output-equivalence: $name OK"
  else
    status=1
    echo "output-equivalence: $name MISMATCH"
  fi
}

check faults faults
check verify verify
check verify-sweep verify_sweep
check churn churn
check soak soak
check report report
check validate with_json validate
check overhead with_json overhead
check companion companion
check state twenty_runs state
check stability twenty_runs stability
check all all

exit $status
