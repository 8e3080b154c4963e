#!/usr/bin/env bash
# Line coverage of the library: builds build-cov at -O0 with --coverage,
# runs the test suite once, and prints for each module of src/awr, and
# in total, the share of the executable lines of its .cc files that the
# run reached (headers are not counted).  A report, not a gate: test
# failures are noted (ctest's log stays in build-cov/ctest.log) and the
# script still exits 0; only a failed build fails it.
#
# Usage: scripts/coverage.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-O0 --coverage" -DCMAKE_EXE_LINKER_FLAGS="--coverage"
cmake --build build-cov -j"$(nproc)"
find build-cov -name '*.gcda' -delete
if ! (cd build-cov && ctest -j"$(nproc)" > ctest.log 2>&1); then
  echo "coverage: some tests failed; see build-cov/ctest.log"
fi

# gcov -n prints, per source file an object file includes, the file and
# "Lines executed:P% of N"; each .cc under src/awr is counted once.
find build-cov/src -name '*.gcda' | sort | while read -r data; do
  gcov -n -o "$(dirname "$data")" "$data" 2>/dev/null
done | awk -v root="$PWD/src/awr/" '
  /^File / { file = $2; gsub(/\x27/, "", file); next }
  /^Lines executed:/ {
    if (index(file, root) == 1 && file ~ /\.cc$/ && !(file in seen)) {
      seen[file] = 1
      pct = $2; sub(/^executed:/, "", pct); sub(/%$/, "", pct)
      split(substr(file, length(root) + 1), parts, "/")
      hit = int(pct * $4 / 100 + 0.5)
      lines[parts[1]] += $4; reached[parts[1]] += hit
      all_lines += $4; all_reached += hit
    }
    file = ""
  }
  END {
    printf "%-12s %8s %8s %8s\n", "module", "lines", "reached", "percent"
    for (m in lines) {
      printf "%-12s %8d %8d %7.1f%%\n", m, lines[m], reached[m],
             100 * reached[m] / lines[m] | "sort"
    }
    close("sort")
    printf "%-12s %8d %8d %7.1f%%\n", "total", all_lines, all_reached,
           all_lines ? 100 * all_reached / all_lines : 0
  }'
