#!/usr/bin/env bash
# Checks that a change leaves every bench and example byte-identical.
#
# Builds <base-ref> and the working tree as Release builds, runs every
# binary in build/bench/ and build/examples/ of both, and compares
# stdout, stderr, the exit code and every file each run writes. Each
# run gets its own working directory and its own REFLEX_OBS_DIR.
#
# It also builds perfbench from both trees (RelWithDebInfo, as
# perfbench/run.py does) and runs every workload of BENCHMARK.json once
# with --seed 1 --trace. Everything in the result line except the
# metrics whose kind is not "sim" (host timings) must match: the
# simulated metrics, checks, notes and attempted/failed counts.
#
# Usage: tools/bench_identical.sh <base-ref>
#   JOBS=<n>      build and run parallelism (default 2)
#   WORK_DIR=<d>  scratch directory (default: a fresh mktemp -d); kept
#                 afterwards so differing runs can be inspected
#
# Prints one line per binary and perfbench workload and exits 0 only if
# all are identical.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <base-ref>" >&2
  exit 2
fi
base_ref=$1
jobs=${JOBS:-2}
repo=$(git rev-parse --show-toplevel)
base_sha=$(git -C "$repo" rev-parse --verify "$base_ref^{commit}")
work=${WORK_DIR:-$(mktemp -d)}
mkdir -p "$work"
echo "base $base_ref ($base_sha) vs working tree; scratch in $work"

# The base tree is exported with git archive, so nothing is added to
# the repository's worktree list.
rm -rf "$work/base-src"
mkdir -p "$work/base-src"
git -C "$repo" archive "$base_sha" | tar -x -C "$work/base-src"

build() {  # <source dir> <build dir>
  cmake -S "$1" -B "$2" -G "Unix Makefiles" -DCMAKE_BUILD_TYPE=Release \
    > "$2.configure.log" 2>&1 || { cat "$2.configure.log" >&2; return 1; }
  for dir in bench examples; do
    make -C "$2/$dir" -j"$jobs" > "$2.$dir.log" 2>&1 ||
      { tail -50 "$2.$dir.log" >&2; return 1; }
  done
}
build_perfbench() {  # <source dir> <build dir>
  cmake -S "$1/perfbench" -B "$2" -G "Unix Makefiles" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo > "$2.configure.log" 2>&1 ||
    { cat "$2.configure.log" >&2; return 1; }
  make -C "$2" -j"$jobs" perfbench > "$2.log" 2>&1 ||
    { tail -50 "$2.log" >&2; return 1; }
}
mkdir -p "$work/build-base" "$work/build-head" \
  "$work/perfbench-base" "$work/perfbench-head"
build "$work/base-src" "$work/build-base"
build "$repo" "$work/build-head"
build_perfbench "$work/base-src" "$work/perfbench-base"
build_perfbench "$repo" "$work/perfbench-head"
workloads=$(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
  "$repo/BENCHMARK.json")

binaries() {  # <build dir>: relative paths of the binaries to run
  for dir in bench examples; do
    find "$1/$dir" -maxdepth 1 -type f -perm -u+x -printf "$dir/%f\n"
  done | sort
}
names=$(sort -u <(binaries "$work/build-base") <(binaries "$work/build-head"))

# run_one <side> <relative binary path>: one run in a private directory.
run_one() {
  local side=$1 bin=$2
  local out="$work/runs/$side/${bin//\//_}"
  rm -rf "$out"
  mkdir -p "$out/cwd" "$out/obs"
  local exe="$work/build-$side/$bin"
  if [[ ! -x "$exe" ]]; then
    echo missing > "$out/exit"
    return
  fi
  local status=0
  (cd "$out/cwd" && REFLEX_OBS_DIR="$out/obs" "$exe" \
    > "$out/stdout" 2> "$out/stderr") || status=$?
  echo "$status" > "$out/exit"
}
# run_perfbench <side> <workload>: one traced run; keeps its exit code,
# stderr and the result line without host-kind metrics.
run_perfbench() {
  local side=$1 workload=$2
  local out="$work/runs/$side/perfbench_$workload"
  rm -rf "$out"
  mkdir -p "$out"
  local status=0
  "$work/perfbench-$side/perfbench" "$workload" --seed 1 --trace \
    > "$out/stdout" 2> "$out/stderr" || status=$?
  echo "$status" > "$out/exit"
  tail -n 1 "$out/stdout" | python3 -c 'import json, sys
r = json.loads(sys.stdin.read())
r["metrics"] = {n: m for n, m in r["metrics"].items() if m["kind"] == "sim"}
print(json.dumps(r, indent=1, sort_keys=True))' > "$out/sim.json" 2>&1 || true
  rm "$out/stdout"
}
export -f run_one run_perfbench
export work

for side in base head; do
  printf '%s\n' $names | xargs -P "$jobs" -I{} bash -c "run_one $side {}"
  printf '%s\n' $workloads |
    xargs -P "$jobs" -I{} bash -c "run_perfbench $side {}"
done
names="$names $(printf 'perfbench/%s\n' $workloads)"

different=0
for bin in $names; do
  key=${bin//\//_}
  if diff -r "$work/runs/base/$key" "$work/runs/head/$key" \
      > "$work/runs/$key.diff" 2>&1; then
    printf 'identical  %-32s exit %s\n' "$bin" "$(cat "$work/runs/head/$key/exit")"
  else
    printf 'DIFFERENT  %-32s see %s\n' "$bin" "$work/runs/$key.diff"
    different=$((different + 1))
  fi
done

if [[ $different -ne 0 ]]; then
  echo "$different runs differ"
  exit 1
fi
echo "all $(wc -w <<< "$names") runs identical"
