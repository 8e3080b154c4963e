// Experiment E20: columnar flat-tuple storage + word-level joins.
//
// Measures the bytecode VM's word-level cursors over column stores
// (EvalOptions::use_columnar = true, the default) against its row
// cursors (use_columnar = false: extent iteration and Probe buckets),
// with the hash join indexes enabled on both sides — so the delta is
// purely the storage layout and the word-level probe/scan loops, not
// the join algorithm:
//   * a single-join micro workload isolating per-tuple vs word-level
//     probes (out(X, Z) :- e(X, Y), t(Y, Z)) fired once per storage
//     mode through FireRuleFacts;
//   * semi-naive transitive closure on a dense random graph (the E15
//     headline workload, >= 2000 edges over 250 nodes), end to end.
//
// Writes the measurements to a JSON file (default BENCH_columnar.json
// in the current directory; override with argv[1]) so the claimed
// speedup is recorded with the revision.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "awr/datalog/eval_core.h"
#include "awr/datalog/leastmodel.h"
#include "awr/datalog/parser.h"
#include "awr/datalog/vm/vm.h"
#include "workloads.h"

using namespace awr;         // NOLINT
using namespace awr::bench;  // NOLINT

namespace {

double MillisSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

struct Row {
  std::string name;
  size_t facts_in = 0;
  size_t facts_out = 0;
  double row_ms = 0;
  double columnar_ms = 0;
  bool models_equal = false;
  double Speedup() const { return columnar_ms > 0 ? row_ms / columnar_ms : 0; }
};

datalog::EvalOptions Opts(bool use_columnar) {
  datalog::EvalOptions o;
  o.limits = EvalLimits::Large();
  o.use_columnar = use_columnar;
  return o;
}

// Best-of-`reps` wall time for `fn` (the usual anti-noise discipline
// for sub-second workloads).
template <typename Fn>
double BestMillis(int reps, const Fn& fn) {
  double best = 0;
  for (int i = 0; i < reps; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    fn();
    const double ms = MillisSince(t0);
    if (i == 0 || ms < best) best = ms;
  }
  return best;
}

// The single-join micro: fire out(X, Z) :- e(X, Y), t(Y, Z) once per
// storage mode.  Both modes probe a hash index keyed on position 0 of
// `t`; the columnar side gathers the key words, hashes them and walks
// the index chain over contiguous word columns.
Row MicroProbe(int n_left, int n_right) {
  Row row;
  row.name = "probe_micro_" + std::to_string(n_left) + "x" +
             std::to_string(n_right);

  auto program = datalog::ParseProgram("out(X, Z) :- e(X, Y), t(Y, Z).");
  auto planned = datalog::PlanProgram(*program, /*lower=*/true);
  datalog::Interpretation interp;
  for (int i = 0; i < n_left; ++i) {
    interp.AddFact("e", {Value::Int(i % 512), Value::Int(i)});
  }
  for (int i = 0; i < n_right; ++i) {
    interp.AddFact("t", {Value::Int(i), Value::Int(i + 1)});
  }
  row.facts_in = static_cast<size_t>(n_left + n_right);
  datalog::FunctionRegistry fns = datalog::FunctionRegistry::Default();

  size_t counts[2] = {0, 0};
  double times[2] = {0, 0};
  int slot = 0;
  for (bool columnar : {false, true}) {
    datalog::BodyContext ctx{
        &fns,
        [&interp](const std::string& p, size_t) -> const ValueSet& {
          return interp.Extent(p);
        },
        [](const std::string&, const Value&) { return true; },
        nullptr, /*use_join_index=*/true};
    ctx.use_columnar = columnar;
    size_t count = 0;
    times[slot] = BestMillis(5, [&] {
      count = 0;
      Status st = datalog::FireRuleFacts(
          planned->front(), ctx, [&](Value) -> Status {
            ++count;
            return Status::OK();
          });
      if (!st.ok()) std::fprintf(stderr, "%s\n", st.ToString().c_str());
    });
    counts[slot++] = count;
  }
  row.row_ms = times[0];
  row.columnar_ms = times[1];
  row.facts_out = counts[1];
  row.models_equal = counts[0] == counts[1];
  return row;
}

Row EndToEndTc(const std::string& name, const datalog::Database& edb) {
  Row row;
  row.name = name;
  row.facts_in = edb.Extent("edge").size();

  datalog::Program tc = TcProgram();
  auto row_model = datalog::EvalMinimalModel(tc, edb, Opts(false));
  auto col_model = datalog::EvalMinimalModel(tc, edb, Opts(true));
  if (!row_model.ok() || !col_model.ok()) {
    std::fprintf(stderr, "%s failed: row=%s columnar=%s\n", name.c_str(),
                 row_model.status().ToString().c_str(),
                 col_model.status().ToString().c_str());
    return row;
  }
  row.models_equal = *row_model == *col_model;
  row.facts_out = col_model->TotalFacts();
  row.row_ms = BestMillis(3, [&] {
    (void)datalog::EvalMinimalModel(tc, edb, Opts(false));
  });
  row.columnar_ms = BestMillis(3, [&] {
    (void)datalog::EvalMinimalModel(tc, edb, Opts(true));
  });
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_columnar.json";
  std::vector<Row> rows;

  rows.push_back(MicroProbe(200000, 100000));

  // The E15 headline workload, end to end: >= 2000 distinct edges over
  // 250 nodes (2200 samples, minus duplicates), semi-naive closure.
  datalog::Database dense = RandomEdges(250, 2200, /*seed=*/42);
  rows.push_back(EndToEndTc("tc_seminaive_random_2000", dense));

  std::printf("E20: VM word-level cursors vs row cursors\n");
  std::printf("%-28s %9s %9s %11s %13s %8s %7s\n", "workload", "facts_in",
              "facts_out", "row (ms)", "columnar (ms)", "speedup", "equal?");
  bool all_equal = true;
  for (const Row& r : rows) {
    all_equal &= r.models_equal;
    std::printf("%-28s %9zu %9zu %11.2f %13.2f %7.1fx %7s\n", r.name.c_str(),
                r.facts_in, r.facts_out, r.row_ms, r.columnar_ms, r.Speedup(),
                r.models_equal ? "yes" : "NO");
  }

  const datalog::vm::VmExecStats stats = datalog::vm::GetVmExecStats();
  std::printf("bytecode vm: %llu firings, %llu word / %llu row loop opens, "
              "%llu facts\n",
              static_cast<unsigned long long>(stats.vm_rules_fired),
              static_cast<unsigned long long>(stats.word_opens),
              static_cast<unsigned long long>(stats.row_opens),
              static_cast<unsigned long long>(stats.vm_facts));

  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"experiment\": \"columnar_vs_row\",\n");
  std::fprintf(out, "  \"workloads\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"facts_in\": %zu, "
                 "\"facts_out\": %zu, \"row_ms\": %.3f, "
                 "\"columnar_ms\": %.3f, \"speedup\": %.2f, "
                 "\"models_equal\": %s}%s\n",
                 r.name.c_str(), r.facts_in, r.facts_out, r.row_ms,
                 r.columnar_ms, r.Speedup(), r.models_equal ? "true" : "false",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return all_equal ? 0 : 1;
}
