// Experiment E18: inline tagged values + structural interning.
//
// Micro-benches the Value hot paths — construction, equality, hash,
// Compare — on the hash-consed representation vs the legacy
// per-instance representation (toggled in-process via
// SetStructuralInterningForTesting), then measures the
// end-to-end effect on semi-naive transitive closure, WIN/MOVE
// well-founded evaluation, and the term-rewriting engine (where the
// adaptive interning policy actually engages — terms are nested),
// verifying results are identical both ways.  Writes
// BENCH_value_repr.json (override with argv[1]).
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "awr/common/intern.h"
#include "awr/datalog/leastmodel.h"
#include "awr/datalog/wellfounded.h"
#include "awr/spec/builtin_specs.h"
#include "awr/spec/rewrite.h"
#include "workloads.h"

using namespace awr;         // NOLINT
using namespace awr::bench;  // NOLINT
using awr::spec::Term;

namespace {

double MillisSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

struct MicroRow {
  std::string name;
  size_t ops = 0;
  double legacy_ms = 0;
  double interned_ms = 0;
  double Speedup() const {
    return interned_ms > 0 ? legacy_ms / interned_ms : 0;
  }
};

struct EndToEndRow {
  std::string name;
  size_t facts_out = 0;
  double legacy_ms = 0;
  double interned_ms = 0;
  bool models_equal = false;
  double Speedup() const {
    return interned_ms > 0 ? legacy_ms / interned_ms : 0;
  }
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

// Runs `body` once with interning disabled and once enabled, restoring
// the default afterwards.
template <typename Fn>
MicroRow MeasureMicro(const std::string& name, size_t ops, const Fn& body) {
  MicroRow row;
  row.name = name;
  row.ops = ops;

  SetStructuralInterningForTesting(false);
  auto t0 = std::chrono::steady_clock::now();
  body();
  row.legacy_ms = MillisSince(t0);

  SetStructuralInterningForTesting(true);
  t0 = std::chrono::steady_clock::now();
  body();
  row.interned_ms = MillisSince(t0);
  return row;
}

size_t TotalFacts(const datalog::Interpretation& m) { return m.TotalFacts(); }
size_t TotalFacts(const datalog::ThreeValuedInterp& m) {
  return m.possible.TotalFacts();
}
size_t TotalFacts(const Term&) { return 1; }

template <typename EvalFn, typename EqualFn>
EndToEndRow MeasureEndToEnd(const std::string& name, const EvalFn& eval,
                            const EqualFn& equal) {
  EndToEndRow row;
  row.name = name;

  // One untimed warmup per mode keeps the comparison fair: both timed
  // runs then see a comparably warmed allocator and caches, instead of
  // the first mode getting a fresh heap and the second the churn the
  // first left behind.
  SetStructuralInterningForTesting(false);
  (void)eval();
  auto t0 = std::chrono::steady_clock::now();
  auto legacy = eval();
  row.legacy_ms = MillisSince(t0);

  SetStructuralInterningForTesting(true);
  (void)eval();
  t0 = std::chrono::steady_clock::now();
  auto interned = eval();
  row.interned_ms = MillisSince(t0);

  if (!legacy.ok() || !interned.ok()) {
    std::fprintf(stderr, "%s failed: legacy=%s interned=%s\n", name.c_str(),
                 legacy.status().ToString().c_str(),
                 interned.status().ToString().c_str());
    return row;
  }
  row.models_equal = equal(*legacy, *interned);
  row.facts_out = TotalFacts(*interned);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_value_repr.json";
  std::vector<MicroRow> micro;
  std::vector<EndToEndRow> end_to_end;

  // ----- micro: construction ---------------------------------------
  micro.push_back(MeasureMicro("construct_nested_tuples",
                               kDistinct * kRepeat, [] {
                                 volatile size_t sink = 0;
                                 auto corpus = BuildCorpus();
                                 sink = corpus.size();
                                 (void)sink;
                               }));

  // ----- micro: equality (equal pairs, the join-probe hit case) ----
  {
    SetStructuralInterningForTesting(false);
    auto legacy_a = BuildCorpus();
    auto legacy_b = BuildCorpus();
    SetStructuralInterningForTesting(true);
    auto interned_a = BuildCorpus();
    auto interned_b = BuildCorpus();
    constexpr size_t kPasses = 32;
    MicroRow row;
    row.name = "equality_equal_pairs";
    row.ops = legacy_a.size() * kPasses;

    auto run = [&](const std::vector<Value>& xs, const std::vector<Value>& ys) {
      size_t eq = 0;
      for (size_t p = 0; p < kPasses; ++p) {
        for (size_t i = 0; i < xs.size(); ++i) eq += xs[i] == ys[i];
      }
      return eq;
    };
    auto t0 = std::chrono::steady_clock::now();
    volatile size_t sink = run(legacy_a, legacy_b);
    row.legacy_ms = MillisSince(t0);
    t0 = std::chrono::steady_clock::now();
    sink = run(interned_a, interned_b);
    row.interned_ms = MillisSince(t0);
    (void)sink;
    micro.push_back(row);

    // ----- micro: hash ---------------------------------------------
    MicroRow hrow;
    hrow.name = "hash_corpus";
    hrow.ops = legacy_a.size() * kPasses;
    auto hash_all = [&](const std::vector<Value>& xs) {
      size_t h = 0;
      for (size_t p = 0; p < kPasses; ++p) {
        for (const Value& v : xs) h ^= v.hash();
      }
      return h;
    };
    t0 = std::chrono::steady_clock::now();
    sink = hash_all(legacy_a);
    hrow.legacy_ms = MillisSince(t0);
    t0 = std::chrono::steady_clock::now();
    sink = hash_all(interned_a);
    hrow.interned_ms = MillisSince(t0);
    (void)sink;
    micro.push_back(hrow);

    // ----- micro: Compare (equal pairs — the set-canonicalization
    // and index-probe case) -----------------------------------------
    MicroRow crow;
    crow.name = "compare_equal_pairs";
    crow.ops = legacy_a.size() * kPasses;
    auto cmp_all = [&](const std::vector<Value>& xs,
                       const std::vector<Value>& ys) {
      int acc = 0;
      for (size_t p = 0; p < kPasses; ++p) {
        for (size_t i = 0; i < xs.size(); ++i) {
          acc += Value::Compare(xs[i], ys[i]);
        }
      }
      return acc;
    };
    t0 = std::chrono::steady_clock::now();
    volatile int csink = cmp_all(legacy_a, legacy_b);
    crow.legacy_ms = MillisSince(t0);
    t0 = std::chrono::steady_clock::now();
    csink = cmp_all(interned_a, interned_b);
    crow.interned_ms = MillisSince(t0);
    (void)csink;
    micro.push_back(crow);
  }

  // ----- end-to-end -------------------------------------------------
  {
    datalog::Database edb = RandomEdges(250, 2200, /*seed=*/42);
    datalog::EvalOptions opts;
    opts.limits = EvalLimits::Large();
    end_to_end.push_back(MeasureEndToEnd(
        "tc_seminaive_random_2000",
        [&] { return datalog::EvalMinimalModel(TcProgram(), edb, opts); },
        [](const datalog::Interpretation& a, const datalog::Interpretation& b) {
          return a == b;
        }));
  }
  {
    datalog::Database edb = RandomGame(2000, 64, /*seed=*/7);
    datalog::EvalOptions opts;
    opts.limits = EvalLimits::Large();
    end_to_end.push_back(MeasureEndToEnd(
        "winmove_wfs_random_2000",
        [&] { return datalog::EvalWellFounded(WinMoveProgram(), edb, opts); },
        [](const datalog::ThreeValuedInterp& a,
           const datalog::ThreeValuedInterp& b) {
          return a.certain == b.certain && a.possible == b.possible;
        }));
  }
  // ----- end-to-end: the rewrite engine (nested terms — where the
  // adaptive policy actually interns) -------------------------------
  {
    auto rs = spec::RewriteSystem::FromSpec(spec::SetNatSpec());
    auto term_eq = [](const Term& a, const Term& b) { return a == b; };
    end_to_end.push_back(MeasureEndToEnd(
        "nat_equality_rewrite_128x200",
        [&]() -> Result<Term> {
          Term probe =
              Term::Op("EQ", {spec::NatTerm(128), spec::NatTerm(128)});
          Result<Term> nf = Status::Internal("unreached");
          for (int i = 0; i < 200; ++i) {
            nf = rs->Normalize(probe);
            if (!nf.ok()) return nf;
          }
          return nf;
        },
        term_eq));
    end_to_end.push_back(MeasureEndToEnd(
        "set_normalize_rewrite_16x200",
        [&]() -> Result<Term> {
          std::vector<uint64_t> scrambled;
          for (int i = 0; i < 16; ++i) scrambled.push_back((i * 7 + 3) % 16);
          Term probe = spec::SetTerm(scrambled);
          Result<Term> nf = Status::Internal("unreached");
          for (int i = 0; i < 200; ++i) {
            nf = rs->Normalize(probe);
            if (!nf.ok()) return nf;
          }
          return nf;
        },
        term_eq));
  }
  SetStructuralInterningForTesting(true);

  std::printf("E18: value representation (legacy vs hash-consed)\n");
  std::printf("%-28s %11s %12s %14s %8s\n", "micro", "ops",
              "legacy (ms)", "interned (ms)", "speedup");
  for (const MicroRow& r : micro) {
    std::printf("%-28s %11zu %12.2f %14.2f %7.2fx\n", r.name.c_str(), r.ops,
                r.legacy_ms, r.interned_ms, r.Speedup());
  }
  std::printf("%-28s %11s %12s %14s %8s %7s\n", "end_to_end", "facts_out",
              "legacy (ms)", "interned (ms)", "speedup", "equal?");
  bool all_equal = true;
  for (const EndToEndRow& r : end_to_end) {
    all_equal &= r.models_equal;
    std::printf("%-28s %11zu %12.2f %14.2f %7.2fx %7s\n", r.name.c_str(),
                r.facts_out, r.legacy_ms, r.interned_ms, r.Speedup(),
                r.models_equal ? "yes" : "NO");
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
                 "    {\"name\": \"%s\", \"ops\": %zu, \"legacy_ms\": %.3f, "
                 "\"interned_ms\": %.3f, \"speedup\": %.2f}%s\n",
                 r.name.c_str(), r.ops, r.legacy_ms, r.interned_ms,
                 r.Speedup(), i + 1 < micro.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"end_to_end\": [\n");
  for (size_t i = 0; i < end_to_end.size(); ++i) {
    const EndToEndRow& r = end_to_end[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"facts_out\": %zu, "
                 "\"legacy_ms\": %.3f, \"interned_ms\": %.3f, "
                 "\"speedup\": %.2f, \"models_equal\": %s}%s\n",
                 r.name.c_str(), r.facts_out, r.legacy_ms, r.interned_ms,
                 r.Speedup(), r.models_equal ? "true" : "false",
                 i + 1 < end_to_end.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n  \"interner\": {\"entries\": %zu, \"hits\": %zu, "
               "\"misses\": %zu, \"bytes\": %zu}\n}\n",
               stats.entries, stats.hits, stats.misses, stats.bytes);
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return all_equal ? 0 : 1;
}
