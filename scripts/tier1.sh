#!/usr/bin/env bash
# Tier-1 verification: full build, then the test suite once.  There is
# one evaluation path: no environment variable or option selects
# another.  Every engine is checked against the naive reference
# evaluator (tests/reference_eval.h) by ReferenceEvaluatorDifferential
# and the four seed sweeps after it in tests/property_test.cc, on
# flat-fact programs that run on the VM's word cursors and on
# nested-value programs that run on its row cursors.
# Then the interruption tests again under AddressSanitizer/UBSan
# (injected-fault unwinding is checked for leaks and UB) and the
# concurrency suite under ThreadSanitizer (concurrent evaluations
# sharing the sharded interners and the VM counters, the way awrd
# sessions do).
#
# The snapshot-format suite (corruption fuzz: truncation, bit flips,
# checksum-patched mutations) and the crash-point recovery sweep also
# run under ASan/UBSan — memory bugs in the defensive parser or in
# interrupt-capture unwinding are exactly what those sanitizers catch.  AWR_CRASH_SWEEP_STRIDE thins the
# exhaustive sweep (every k-th crash charge, endpoints always included)
# to keep the sanitizer pass inside the time budget; the default
# (unset = 1) sweep runs in the un-sanitized ctest pass above it.
#
# The query service (DESIGN.md §11) gets three layers here:
#   * its unit/integration suite and the seeded chaos harness run in
#     the plain ctest pass (100 traces, the acceptance floor);
#   * both run again under ASan/UBSan and TSan with AWR_CHAOS_TRACES
#     thinned to keep the sanitizer passes inside the time budget;
#   * scripts/service_smoke.sh drives the real awrd binary through
#     serve / SIGTERM-drain / warm-restart / SIGKILL-mid-fixpoint
#     against the plain, ASan and TSan builds, diffing models and
#     charge totals against a local oracle.
# The crash-consistent storage seam (DESIGN.md §13) adds two suites:
# the storage unit tests (PosixFs durability discipline, FaultFs
# injection, startup scrub/quarantine) and the power-cut recovery
# oracle, which reruns its trace once per filesystem op with a
# simulated power cut at that op.  The plain ctest pass runs the full
# stride-1 sweep (it is fast un-sanitized); the ASan pass reruns it
# with AWR_POWER_CUT_STRIDE=3 to stay inside the budget.
# Finally bench_service writes build/BENCH_service.json (QPS, p50/p99
# latency, shed rate under an undersized admission budget, restart-to-
# first-result time) and bench_store_durability writes
# build/BENCH_store_durability.json (the E21 fsync-cost table).  Both
# go to the build tree, so a tier-1 run leaves the committed BENCH
# files untouched.
# Last, scripts/coverage.sh prints per-module gcov line coverage of the
# library's .cc files from one ctest pass over a -O0 --coverage build
# (build-cov).  It is a report, not a gate.
#
# Every filtered ctest call (-R) passes --no-tests=error, so a renamed
# suite fails the run instead of silently dropping out of its pass.
#
# Usage: scripts/tier1.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j"$(nproc)"
(cd build && ctest --output-on-failure -j"$(nproc)")

# Service smoke against the plain build: real awrd process lifecycle
# (SIGTERM drain, warm restart, SIGKILL mid-fixpoint + recovery).
scripts/service_smoke.sh build/src/awr/service/awrd plain

cmake -B build-asan -S . -DAWR_SANITIZE=address,undefined
cmake --build build-asan -j"$(nproc)" \
  --target awr_interruption_test --target awr_snapshot_test \
  --target awr_property_test --target awr_value_test \
  --target awr_eval_core_test --target awr_round_range_test \
  --target awr_service_test \
  --target awr_service_chaos_test --target awr_storage_test \
  --target awr_powercut_test --target awr_vm_test \
  --target awr_algebra_test --target awr_algebra_valid_test \
  --target awr_term_test --target awr_datalog_core_test \
  --target awr_datalog_eval_test --target awr_parser_test \
  --target awr_spec_test --target awrd
(cd build-asan && ctest --output-on-failure --no-tests=error -R Interruption)
# The value layer under ASan/UBSan: a composite's record is one block
# whose items are placement-constructed after the header and destroyed
# by hand.  The value and render suites, the term tests and the
# known-fact filter build, compare and free flat (refcounted) and
# nested (interned) composites on every path.
(cd build-asan && ctest --output-on-failure --no-tests=error \
  -R 'ValueTest|ValueSet|ValueRender|Term|FireRuleFacts')
# The snapshot corruption fuzz: the decoder re-interns through the
# value factories, which must survive every mutated byte stream.
(cd build-asan && ctest --output-on-failure --no-tests=error \
  -R 'Snapshot|ValueCodec')
(cd build-asan && AWR_CRASH_SWEEP_STRIDE=7 \
  ctest --output-on-failure --no-tests=error -R CrashPointRecovery)
# Word tables + VM word cursors under ASan/UBSan: the word table's
# dedup index, its lazily materialized Value view, demotion to rows,
# and the word-level scan/probe/emit loops are pointer-heavy by design.
# A round fires into the relations its cursors read (DESIGN.md §12),
# so the words, the view and the Probe buckets grow under open cursors:
# the RoundRange suite drives every cursor kind over a relation it
# appends to.
(cd build-asan && ctest --output-on-failure --no-tests=error \
  -R 'WordTable|RoundRange')
# Every engine against the naive reference evaluator under ASan/UBSan:
# word cursors, word emission and grounding's per-match head callback
# on flat-fact programs, and row scans, row buckets and Value emission
# on nested-value ones, 2,000 random programs in all.
(cd build-asan && ctest --output-on-failure --no-tests=error \
  -R '(ReferenceEvaluator|BytecodeVsInterpreter|ColumnarVsRow|ScanVsIndex|InternVsLegacy)Differential')
# Service + thinned chaos under ASan/UBSan: socket lifecycle, executor
# unwinding and the durable store under injected faults.
(cd build-asan && AWR_CHAOS_TRACES=12 \
  ctest --output-on-failure --no-tests=error -R 'Service|SocketServer')
# The storage seam under ASan/UBSan: PosixFs error-path unwinding,
# FaultFs tear injection, and the scrub/quarantine paths.
(cd build-asan && \
  ctest --output-on-failure --no-tests=error \
  -R 'PosixFs|Storage|FaultFs|StoreScrub')
# The power-cut oracle, thinned to every 3rd filesystem op (the plain
# passes above already ran the exhaustive stride-1 sweep).
(cd build-asan && AWR_POWER_CUT_STRIDE=3 \
  ctest --output-on-failure --no-tests=error -R 'PowerCutOracle')
# The bytecode VM under ASan/UBSan: the verifier — the sole safety
# boundary before the bounds-check-free dispatch loop — rejects every
# malformed mutation of a lowered program, and the execution suites
# drive the loop over handcrafted programs on word tables and row
# extents, a 301-atom rule and grounding.
(cd build-asan && ctest --output-on-failure --no-tests=error -R 'Vm')
# The algebra evaluator under ASan/UBSan: the hash equi-join indexes
# one side by pointers into its set and probes with the other, and a
# valid-model pass reads each constant's bounds through borrowed
# pointers while it iterates one of them.  The oracle suites drive the
# alternating, lockstep-IFP and query paths.
(cd build-asan && ctest --output-on-failure --no-tests=error \
  -R 'AlgebraEval|ValidEval|AlgebraJoin|AlgebraValidOracle|AlgebraValidMatchesGlobalAlternation')
scripts/service_smoke.sh build-asan/src/awr/service/awrd asan

cmake -B build-tsan -S . -DAWR_SANITIZE=thread
cmake --build build-tsan -j"$(nproc)" \
  --target awr_concurrency_test --target awr_service_test \
  --target awr_service_chaos_test --target awrd
# Concurrent evaluations under TSan: four threads run every fixpoint
# engine at once on private contexts and databases, sharing the atom
# and value interners and the atomic VM counters; each evaluation
# lowers and runs its own programs.
(cd build-tsan && ctest --output-on-failure --no-tests=error -R 'Concurrent')
# Service + thinned chaos under TSan: concurrent sessions, the
# in-flight dedup table, drain-vs-execute and deadline-vs-cancel races.
(cd build-tsan && AWR_CHAOS_TRACES=12 \
  ctest --output-on-failure --no-tests=error -R 'Service|SocketServer')
scripts/service_smoke.sh build-tsan/src/awr/service/awrd tsan

# The service benchmark writes build/BENCH_service.json (QPS, p50/p99,
# shed rate under an undersized budget, restart-to-first-result).
cmake --build build -j"$(nproc)" --target bench_service
./build/bench/bench_service build/BENCH_service.json

# The durability benchmark writes build/BENCH_store_durability.json
# (E21: fsync-discipline cost per write and on a checkpointing request).
cmake --build build -j"$(nproc)" --target bench_store_durability
./build/bench/bench_store_durability build/BENCH_store_durability.json

# Line coverage per module: a report, not a gate.
scripts/coverage.sh
