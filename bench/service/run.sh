#!/usr/bin/env bash
# Builds bench_service from this checkout's sources (into .bench_build/ at
# the repository root, or $BENCH_SERVICE_BUILD) and runs it with the given
# arguments.  Build output goes to standard error, so the benchmark's last
# line of standard output stays its JSON result.
#
#   bash bench/service/run.sh --workload kv_uniform_udp --seed 1 --seconds 10 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="${BENCH_SERVICE_BUILD:-$root/.bench_build}"

generator=()
if command -v ninja >/dev/null 2>&1 && [ ! -f "$build/CMakeCache.txt" ]; then
  generator=(-G Ninja)
fi
cmake -S "$here" -B "$build" ${generator[@]+"${generator[@]}"} \
  -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --parallel 4 >&2

cd "$root"
exec "$build/bench_service" "$@"
