// Experiment E18: inline tagged values + structural interning.
//
// Micro-benches the Value hot paths — construction, equality, hash,
// Compare — on a corpus of nested tuples, which the adaptive policy
// hash-conses (DESIGN.md §10), and reports the interner's occupancy.
// Writes BENCH_value_repr.json (override with argv[1]).
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "awr/value/value.h"

using namespace awr;  // NOLINT

namespace {

double MillisSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

struct MicroRow {
  std::string name;
  size_t ops = 0;
  double ms = 0;
  double NsPerOp() const { return ops > 0 ? ms * 1e6 / ops : 0; }
};

// A corpus of nested tuples <<a, i>, <i, i+1>> with heavy structural
// repetition (kDistinct distinct shapes cycled kRepeat times) — the
// shape of facts flowing through joins, where the same tuple is built
// and compared against over and over.
constexpr size_t kDistinct = 512;
constexpr size_t kRepeat = 64;

std::vector<Value> BuildCorpus() {
  std::vector<Value> corpus;
  corpus.reserve(kDistinct * kRepeat);
  for (size_t r = 0; r < kRepeat; ++r) {
    for (size_t d = 0; d < kDistinct; ++d) {
      const int64_t i = static_cast<int64_t>(d);
      corpus.push_back(Value::Tuple(
          {Value::Tuple({Value::Atom("n"), Value::Int(i)}),
           Value::Tuple({Value::Int(i), Value::Int(i + 1)})}));
    }
  }
  return corpus;
}

template <typename Fn>
MicroRow Measure(const std::string& name, size_t ops, const Fn& body) {
  MicroRow row;
  row.name = name;
  row.ops = ops;
  const auto t0 = std::chrono::steady_clock::now();
  body();
  row.ms = MillisSince(t0);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_value_repr.json";
  std::vector<MicroRow> micro;

  // ----- construction ----------------------------------------------
  micro.push_back(Measure("construct_nested_tuples", kDistinct * kRepeat, [] {
    volatile size_t sink = BuildCorpus().size();
    (void)sink;
  }));

  const std::vector<Value> a = BuildCorpus();
  const std::vector<Value> b = BuildCorpus();
  constexpr size_t kPasses = 32;
  const size_t ops = a.size() * kPasses;

  // ----- equality (equal pairs, the join-probe hit case) -----------
  micro.push_back(Measure("equality_equal_pairs", ops, [&] {
    size_t eq = 0;
    for (size_t p = 0; p < kPasses; ++p) {
      for (size_t i = 0; i < a.size(); ++i) eq += a[i] == b[i];
    }
    volatile size_t sink = eq;
    (void)sink;
  }));

  // ----- hash ------------------------------------------------------
  micro.push_back(Measure("hash_corpus", ops, [&] {
    size_t h = 0;
    for (size_t p = 0; p < kPasses; ++p) {
      for (const Value& v : a) h ^= v.hash();
    }
    volatile size_t sink = h;
    (void)sink;
  }));

  // ----- Compare (equal pairs — the set-canonicalization and
  // index-probe case) -----------------------------------------------
  micro.push_back(Measure("compare_equal_pairs", ops, [&] {
    int acc = 0;
    for (size_t p = 0; p < kPasses; ++p) {
      for (size_t i = 0; i < a.size(); ++i) acc += Value::Compare(a[i], b[i]);
    }
    volatile int sink = acc;
    (void)sink;
  }));

  std::printf("E18: value representation (hash-consed nested tuples)\n");
  std::printf("%-28s %11s %10s %8s\n", "micro", "ops", "ms", "ns/op");
  for (const MicroRow& r : micro) {
    std::printf("%-28s %11zu %10.2f %8.2f\n", r.name.c_str(), r.ops, r.ms,
                r.NsPerOp());
  }
  const Value::InternerStats stats = Value::interner_stats();
  std::printf(
      "interner: %zu entries, %zu hits / %zu misses (%.1f%% hit rate), "
      "~%zu bytes\n",
      stats.entries, stats.hits, stats.misses, 100.0 * stats.HitRate(),
      stats.bytes);

  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"experiment\": \"value_repr\",\n");
  std::fprintf(out, "  \"micro\": [\n");
  for (size_t i = 0; i < micro.size(); ++i) {
    const MicroRow& r = micro[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"ops\": %zu, \"ms\": %.3f, "
                 "\"ns_per_op\": %.2f}%s\n",
                 r.name.c_str(), r.ops, r.ms, r.NsPerOp(),
                 i + 1 < micro.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n  \"interner\": {\"entries\": %zu, \"hits\": %zu, "
               "\"misses\": %zu, \"bytes\": %zu}\n}\n",
               stats.entries, stats.hits, stats.misses, stats.bytes);
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
