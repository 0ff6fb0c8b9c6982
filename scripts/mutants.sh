#!/usr/bin/env bash
# Mutation check: every reconstruction choice has a test that fails
# without it.
#
# Each test/mutants/NAME.patch reverts one choice DESIGN.md §6b makes
# beyond the paper's Appendix A, or plants a known bug (mark-decay:
# HBH fusion marks never lapse).  test/mutants/kills.txt says what must
# happen on each mutant, one check per line, `NAME KIND ARGUMENT`:
#   test         EXE GROUP: NAME   the Alcotest case of test/EXE.ml
#                                  fails under `dune runtest`, or EXE
#                                  dies before it reports (memory cap)
#   equivalence  RUN               `output-equivalence: RUN MISMATCH`
#   passes       COMMAND           COMMAND exits 0 in the patched tree
#                                  (what the planted bug must still let
#                                  a test demonstrate, e.g. that the
#                                  explorer finds and minimizes it)
# A mutant is killed when every one of its checks holds.
#
# For each mutant the working tree (tracked and unignored files, so no
# _build) is copied to a fresh temporary directory, the patch is
# applied with `git apply`, and the copy is built; then `dune runtest`
# and scripts/equivalence.sh (only the runs the mutant's equivalence
# checks name; skipped for a mutant without one) run there, each under
# a 2 GB address-space cap (`ulimit -v 2000000`) and a time limit.  A
# mutant that loops or exhausts memory is stopped without touching the
# host: its test reports Out_of_memory or its executable aborts, and a
# run cut by its time limit counts as failing every check of its kind.  The logs of a
# mutant that is not killed are kept and their directory printed.
#
# Prints one `mutant NAME: killed|SURVIVED|BROKEN ...` line per mutant
# and exits 1 if any mutant survived or failed to apply or build.  About
# 4 min for all thirteen on a 2 vCPU host.
#
# Usage: scripts/mutants.sh [NAME...]   (all mutants by default)
set -u
cd "$(dirname "$0")/.."
root=$(pwd)
table=test/mutants/kills.txt
if ! git rev-parse --git-dir > /dev/null 2>&1; then
  echo "mutants: $root is not a git checkout (the tree is copied with git ls-files)"
  exit 2
fi
cap_kb=2000000
limit_s=900

checks_of() { awk -v m="$1" '$1 == m { $1 = ""; sub(/^ +/, ""); print }' "$table"; }

# Every patch has checks and every checked mutant has a patch.
status=0
for p in test/mutants/*.patch; do
  name=$(basename "$p" .patch)
  if [ -z "$(checks_of "$name")" ]; then
    echo "mutant $name: BROKEN (no check in $table)"
    status=1
  fi
done
for name in $(awk '!/^#/ && NF { print $1 }' "$table" | sort -u); do
  if [ ! -f "test/mutants/$name.patch" ]; then
    echo "mutant $name: BROKEN (no test/mutants/$name.patch)"
    status=1
  fi
done

if [ $# -gt 0 ]; then
  names=("$@")
else
  names=()
  for p in test/mutants/*.patch; do names+=("$(basename "$p" .patch)"); done
fi

# Run "$@" in the current directory under the memory cap and a time
# limit of $1 seconds; output to $2.  Returns the command's status (124
# when the time limit cut it).
capped() {
  local secs=$1 out=$2
  shift 2
  (ulimit -v "$cap_kb"; timeout "$secs" "$@") > "$out" 2>&1
}

regex() { printf '%s' "$1" | sed 's/[][\.*^$+?(){}|/]/\\&/g'; }

# The test executables whose run `dune runtest` reports as failed (a
# `File "test/dune"` header naming the executable) without the Alcotest
# summary line: the ones that died, killed by the memory cap, say.
died() {
  awk '
    function close_section() { if (cur != "" && !done) print cur; cur = ""; done = 0 }
    /^File "test\/dune", line [0-9]+/ { close_section(); header = 1; next }
    header && /^ *[0-9]+ \| / { pending = $NF; gsub(/[()]/, "", pending); header = 0; next }
    /^Testing `/ { close_section(); cur = pending; pending = ""; next }
    /^Test Successful in |^[0-9]+ failures?! in / { done = 1 }
    END { close_section() }
  ' "$1"
}

for name in "${names[@]}"; do
  work=$(mktemp -d)
  log=$(mktemp -d)
  (cd "$root" && git ls-files -z --cached --others --exclude-standard \
    | tar --null -T - --ignore-failed-read -cf - 2>/dev/null) | tar -xf - -C "$work"
  if ! (cd "$work" && git apply "test/mutants/$name.patch") > "$log/apply" 2>&1; then
    echo "mutant $name: BROKEN (patch does not apply: $(head -1 "$log/apply"); logs in $log)"
    status=1
    rm -rf "$work"
    continue
  fi
  cd "$work"
  if ! capped "$limit_s" "$log/build" dune build --root . @default; then
    echo "mutant $name: BROKEN (does not build: $(grep -m1 -E 'Error' "$log/build"); logs in $log)"
    status=1
    cd "$root"
    rm -rf "$work"
    continue
  fi
  ALCOTEST_COLUMNS=300 capped "$limit_s" "$log/runtest" dune runtest --root .
  runtest_rc=$?
  # Only the runs the mutant's equivalence checks name.
  runs=$(checks_of "$name" | awk '$1 == "equivalence" { print $2 }')
  if [ -n "$runs" ]; then
    capped "$limit_s" "$log/equivalence" ./scripts/equivalence.sh $runs
    equivalence_rc=$?
  else
    : > "$log/equivalence"
    equivalence_rc=0
  fi
  dead=" $(died "$log/runtest" | tr '\n' ' ')"
  met=()
  unmet=()
  while IFS= read -r check; do
    kind=${check%% *}
    arg=${check#* }
    arg=${arg#"${arg%%[! ]*}"}
    case $kind in
      test)
        exe=${arg%% *}
        arg=${arg#"$exe "}
        group=${arg%%: *}
        case_name=${arg#*: }
        if [ "$runtest_rc" = 124 ] || [[ $dead == *" $exe "* ]] \
          || grep -qE "\[FAIL\] +$(regex "$group") +[0-9]+ +$(regex "$case_name")\.\$" "$log/runtest"
        then met+=("$check"); else unmet+=("$check"); fi ;;
      equivalence)
        if [ "$equivalence_rc" = 124 ] \
          || grep -qFx "output-equivalence: $arg MISMATCH" "$log/equivalence"
        then met+=("$check"); else unmet+=("$check"); fi ;;
      passes)
        if capped "$limit_s" "$log/passes" bash -c "$arg"
        then met+=("$check"); else unmet+=("$check"); fi ;;
      *)
        unmet+=("$check (unknown kind)") ;;
    esac
  done < <(checks_of "$name")
  caps=""
  [ "$runtest_rc" = 124 ] && caps="$caps, runtest hit its ${limit_s} s limit"
  [ "$equivalence_rc" = 124 ] && caps="$caps, equivalence hit its ${limit_s} s limit"
  [ "$dead" != " " ] && caps="$caps, died:${dead% }"
  failed=$(sed -nE 's/^output-equivalence: ([^ ]+) MISMATCH$/\1/p' "$log/equivalence" | tr '\n' ' ')
  failed=${failed% }
  if [ ${#unmet[@]} -eq 0 ]; then
    echo "mutant $name: killed (${#met[@]} check(s) hold; equivalence mismatches: ${failed:-none}$caps)"
    rm -rf "$log"
  else
    echo "mutant $name: SURVIVED (${#unmet[@]} of $(( ${#met[@]} + ${#unmet[@]} )) check(s) fail$caps; logs in $log)"
    for c in "${unmet[@]}"; do echo "  unmet: $c"; done
    status=1
  fi
  cd "$root"
  rm -rf "$work"
done

exit $status
