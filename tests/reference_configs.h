// Runs a check under each reference evaluation path, in-process.
//
// Two fast paths keep the path they replaced alive as a test
// reference, selected per call: EvalOptions::use_join_index (scan
// joins) and SetStructuralInterningForTesting (the legacy per-instance
// value and term representation).  The differential suites compare
// each pair directly, and every engine against the naive reference
// evaluator (reference_eval.h); these helpers rerun whole checks —
// crash resume, golden snapshot bytes, the corruption fuzz, the term
// and rewrite tests — under every reference.
#ifndef AWR_TESTS_REFERENCE_CONFIGS_H_
#define AWR_TESTS_REFERENCE_CONFIGS_H_

#include <gtest/gtest.h>

#include <vector>

#include "awr/common/intern.h"
#include "awr/datalog/leastmodel.h"

namespace awr {

/// Switches the value representation for its scope, restoring the
/// previous one on exit (including via assertion failure).
class ScopedInterning {
 public:
  explicit ScopedInterning(bool enabled)
      : previous_(StructuralInterningEnabled()) {
    SetStructuralInterningForTesting(enabled);
  }
  ~ScopedInterning() { SetStructuralInterningForTesting(previous_); }
  ScopedInterning(const ScopedInterning&) = delete;
  ScopedInterning& operator=(const ScopedInterning&) = delete;

 private:
  bool previous_;
};

/// One evaluation configuration: production, or production with one
/// alternative path swapped for its reference.
struct ReferenceConfig {
  const char* name;
  bool use_join_index = true;
  bool structural_interning = true;

  datalog::EvalOptions Apply(datalog::EvalOptions opts) const {
    opts.use_join_index = use_join_index;
    return opts;
  }
};

/// Production first, then one reference per alternative path.
inline std::vector<ReferenceConfig> ReferenceConfigs() {
  return {
      {"production"},
      {"scan joins", /*use_join_index=*/false},
      {"legacy representation", true, /*structural_interning=*/false},
  };
}

/// Runs `body` under the interned representation, then the legacy one,
/// stopping after a fatal failure.
template <typename Fn>
void ForEachRepresentation(const Fn& body) {
  for (bool interning : {true, false}) {
    SCOPED_TRACE(interning ? "interned representation"
                           : "legacy representation");
    ScopedInterning repr(interning);
    body();
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace awr

/// Defines TEST(suite, name) whose body runs once per value
/// representation (ForEachRepresentation).
#define AWR_TEST_BOTH_REPRS(suite, name)                  \
  void suite##_##name##_Body();                           \
  TEST(suite, name) {                                     \
    ::awr::ForEachRepresentation(&suite##_##name##_Body); \
  }                                                       \
  void suite##_##name##_Body()

#endif  // AWR_TESTS_REFERENCE_CONFIGS_H_
