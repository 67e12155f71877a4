#!/usr/bin/env bash
# Runs a fixed list of mptool invocations over the bundled examples and
# records each run's stdout, stderr and exit code, so two builds can be
# compared with `diff -r`:
#
#   tools/cli_snapshot.sh BUILD_DIR OUT_DIR
#
# BUILD_DIR is a CMake build directory holding examples/mptool. The list
# runs once with --jobs 1 and once with --jobs 4; for every run NAME the
# script writes OUT_DIR/jobs<J>/NAME.out, NAME.err and NAME.code. Two
# builds agree when `diff -r` of their OUT_DIRs is empty, and one build is
# --jobs-invariant when `diff -r OUT_DIR/jobs1 OUT_DIR/jobs4` is.
# The script exits 0 when every run was recorded, whatever the exit codes
# of the runs were; compare the snapshots to judge them.
set -u

if [ $# -ne 2 ]; then
  echo "usage: $0 BUILD_DIR OUT_DIR" >&2
  exit 2
fi

build=$(cd "$1" && pwd) || exit 2
mptool="$build/examples/mptool"
if [ ! -x "$mptool" ]; then
  echo "$0: no mptool at $mptool" >&2
  exit 2
fi
mkdir -p "$2" || exit 2
out=$(cd "$2" && pwd) || exit 2

# Paths inside the examples directory stay relative, so that the text of
# every run is independent of where the checkout lives.
cd "$(dirname "$0")/../examples/data" || exit 2

run() {
  local name=$1
  shift
  "$mptool" "$@" > "$dir/$name.out" 2> "$dir/$name.err"
  echo $? > "$dir/$name.code"
}

for jobs in 1 4; do
  dir="$out/jobs$jobs"
  mkdir -p "$dir" || exit 2
  j="--jobs $jobs"
  for ex in testt coupled; do
    p="$ex.f"
    s="$ex.spec"
    # check and deps take no --jobs; they run in both lists all the same.
    run "${ex}_check" check "$p" "$s"
    run "${ex}_deps" deps "$p" "$s"
    run "${ex}_place" place "$p" "$s" $j
    run "${ex}_place_json" place "$p" "$s" --json $j
    run "${ex}_place_k0_json" place "$p" "$s" --k-best 0 --json $j
    run "${ex}_place_k4_json" place "$p" "$s" --k-best 4 --json $j
    run "${ex}_place_k0" place "$p" "$s" --k-best 0 $j
    run "${ex}_place_k4" place "$p" "$s" --k-best 4 $j
    run "${ex}_lint" lint "$p" "$s" $j
    run "${ex}_lint_json" lint "$p" "$s" --json $j
    run "${ex}_verify" verify "$p" "$s" $j
    run "${ex}_verify_dynamic" verify "$p" "$s" --dynamic $j
    run "${ex}_opt" opt "$p" "$s" $j
    run "${ex}_opt_json" opt "$p" "$s" --json $j
    run "${ex}_soak_recover" soak "$p" "$s" --recover $j
    run "${ex}_profile" profile "$p" "$s" $j
  done
  run "batch" batch batch_manifest.json --jobs "$jobs"
  run "batch_json" batch batch_manifest.json --json --jobs "$jobs"
done
exit 0
