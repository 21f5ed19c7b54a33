#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository root
# (configuring on first use) and runs declust_bench with the given arguments,
# e.g.
#
#   bash bench_e2e/run.sh --workload paper_fig08 --seed 7 --seconds 30 --trace 0
#
# Build output goes to stderr; stdout is declust_bench's alone.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${root}/.bench_build"

if [[ ! -f "${build}/CMakeCache.txt" ]]; then
  generator=()
  if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
  cmake -S "${root}/bench_e2e" -B "${build}" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
cmake --build "${build}" --target declust_bench -j 4 >&2
exec "${build}/declust_bench" "$@"
