#!/usr/bin/env bash
# Profile one perfbench workload with the SIGPROF sampler and print self and
# inclusive shares for the samples under the engine's entry points.
#
# Usage: scripts/profile.sh <workload> [seed] [seconds] [symbolize.py args...]
#   e.g. scripts/profile.sh static-query 1 20 \
#          --group 'sets=KeySet|std::set|_Rb_tree' --group 'heap=TopKCollector'
#
# perfbench is built with -g -fno-omit-frame-pointer in .profile_build/
# (its own build tree; .bench_build/ and the perfbench sources are left as
# they are) and run untraced under LD_PRELOAD=libsigprof.so, which samples
# every millisecond of CPU time. Samples land in .profile_out/; the report
# is tools/profile/symbolize.py's (--entry picks other entry points).
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT=$(pwd)
WORKLOAD=${1:?usage: scripts/profile.sh <workload> [seed] [seconds] [args...]}
SEED=${2:-1}
SECONDS_TO_RUN=${3:-20}
shift $(( $# < 3 ? $# : 3 ))

BUILD="$ROOT/.profile_build"
OUT="$ROOT/.profile_out"
mkdir -p "$BUILD" "$OUT"

FLAGS="-g -fno-omit-frame-pointer -mno-omit-leaf-frame-pointer"
echo "==> Building perfbench ($FLAGS) in $BUILD" >&2
cmake -S perfbench -B "$BUILD/perfbench" -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS="$FLAGS" > "$BUILD/build.log"
cmake --build "$BUILD/perfbench" -j "$(nproc)" >> "$BUILD/build.log"
"${CXX:-c++}" -O2 -fPIC -shared -o "$BUILD/libsigprof.so" \
  tools/profile/sigprof.cc -ldl -lpthread

DATA=$(mktemp -d "$OUT/data.XXXXXX")
trap 'rm -rf "$DATA"' EXIT
echo "==> Running $WORKLOAD seed $SEED for ${SECONDS_TO_RUN}s" >&2
# The run's result lines go to stderr, so stdout carries only the report.
(cd "$OUT" && exec env LD_PRELOAD="$BUILD/libsigprof.so" \
  "$BUILD/perfbench/perfbench" --workload "$WORKLOAD" --seed "$SEED" \
  --seconds "$SECONDS_TO_RUN" --trace 0 --dir "$DATA/store") >&2 &
PID=$!
wait "$PID"
python3 tools/profile/symbolize.py "$OUT/sigprof.$PID.samples" "$@"
