// Experiment E22: register bytecode VM vs the tree-walking interpreter.
//
// Measures the compiled-program executor (EvalOptions::use_bytecode =
// true, the default) against the recursive BodyEnumerator it replaces
// (use_bytecode = false), with row storage pinned on both sides so the
// delta is purely dispatch — flat register bytecode vs call-stack
// tree-walking — not the word-level cursors (measured by E20):
//   * a dispatch micro firing one two-atom probe join through the
//     interpreter and through the VM's switch dispatch loop;
//   * semi-naive transitive closure on the E15/E20 headline graph
//     (>= 2000 random edges over 250 nodes), end to end;
//   * the magic-set transform of the same closure under a bound query
//     (tc(0, X)) — the demand-driven workload, where rounds are many
//     and deltas are small, so per-firing overhead dominates;
//   * compile-time: LowerRule latency, paid once per rule when
//     PlanProgram plans it.
//
// Writes the measurements to a JSON file (default BENCH_vm.json in the
// current directory; override with argv[1]).
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "awr/datalog/eval_core.h"
#include "awr/datalog/leastmodel.h"
#include "awr/datalog/magic.h"
#include "awr/datalog/parser.h"
#include "awr/datalog/vm/bytecode.h"
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

struct Row {
  std::string name;
  size_t facts_in = 0;
  size_t facts_out = 0;
  double interp_ms = 0;
  double vm_ms = 0;
  bool models_equal = false;
  double Speedup() const { return vm_ms > 0 ? interp_ms / vm_ms : 0; }
};

datalog::EvalOptions Opts(bool bytecode) {
  datalog::EvalOptions o;
  o.limits = EvalLimits::Large();
  o.use_columnar = false;  // row storage: isolate dispatch, not layout
  o.use_bytecode = bytecode;
  return o;
}

// One two-atom probe join fired through both dispatchers into a fresh
// extent.  The interpreter column is FireRuleFacts with bytecode off;
// the VM column calls the executor directly.
void DispatchMicro(int n_left, int n_right, double out[2], size_t* facts) {
  auto program = datalog::ParseProgram("out(X, Z) :- e(X, Y), t(Y, Z).");
  auto planned = datalog::PlanProgram(*program, /*lower=*/true);
  datalog::Interpretation interp;
  for (int i = 0; i < n_left; ++i) {
    interp.AddFact("e", {Value::Int(i % 512), Value::Int(i)});
  }
  for (int i = 0; i < n_right; ++i) {
    interp.AddFact("t", {Value::Int(i), Value::Int(i + 1)});
  }
  datalog::FunctionRegistry fns = datalog::FunctionRegistry::Default();
  datalog::BodyContext ctx{
      &fns,
      [&interp](const std::string& p, size_t) -> const ValueSet& {
        return interp.Extent(p);
      },
      [](const std::string&, const Value&) { return true; },
      nullptr, /*use_join_index=*/true};
  ctx.use_columnar = false;

  datalog::BodyContext interp_ctx = ctx;
  interp_ctx.use_bytecode = false;
  size_t count = 0;
  out[0] = BestMillis(5, [&] {
    ValueSet derived;
    Result<size_t> added =
        datalog::FireRuleFacts(planned->front(), interp_ctx, &derived);
    if (!added.ok()) {
      std::fprintf(stderr, "%s\n", added.status().ToString().c_str());
    }
    count = added.ok() ? *added : 0;
  });
  *facts = count;

  const datalog::vm::CompiledRule* compiled = planned->front().compiled.get();
  if (compiled == nullptr) {
    std::fprintf(stderr, "lowering failed\n");
    return;
  }
  out[1] = BestMillis(5, [&] {
    ValueSet derived;
    Result<size_t> added =
        datalog::vm::ExecuteCompiledRule(*compiled, ctx, &derived);
    if (!added.ok()) {
      std::fprintf(stderr, "%s\n", added.status().ToString().c_str());
    }
    if (!added.ok() || *added != count) {
      std::fprintf(stderr, "fact count mismatch\n");
    }
  });
}

Row EndToEnd(const std::string& name, const datalog::Program& program,
             const datalog::Database& edb, size_t facts_in) {
  Row row;
  row.name = name;
  row.facts_in = facts_in;
  auto interpreted = datalog::EvalMinimalModel(program, edb, Opts(false));
  auto compiled = datalog::EvalMinimalModel(program, edb, Opts(true));
  if (!interpreted.ok() || !compiled.ok()) {
    std::fprintf(stderr, "%s failed: interp=%s vm=%s\n", name.c_str(),
                 interpreted.status().ToString().c_str(),
                 compiled.status().ToString().c_str());
    return row;
  }
  row.models_equal = *interpreted == *compiled;
  row.facts_out = compiled->TotalFacts();
  row.interp_ms = BestMillis(3, [&] {
    (void)datalog::EvalMinimalModel(program, edb, Opts(false));
  });
  row.vm_ms = BestMillis(3, [&] {
    (void)datalog::EvalMinimalModel(program, edb, Opts(true));
  });
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_vm.json";

  // Dispatch micro: one firing, two dispatchers.
  double micro[2] = {0, 0};
  size_t micro_facts = 0;
  DispatchMicro(200000, 100000, micro, &micro_facts);
  std::printf("E22: bytecode VM vs tree-walking interpreter\n");
  std::printf(
      "dispatch micro (%zu facts): interpreted %.2f ms, vm %.2f ms "
      "(%.1fx)\n",
      micro_facts, micro[0], micro[1], micro[1] > 0 ? micro[0] / micro[1] : 0);

  // Compile time: LowerRule latency on the closure rules.
  auto tc = TcProgram();
  auto planned_tc = datalog::PlanProgram(tc, /*lower=*/false);
  const int kLowerReps = 2000;
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kLowerReps; ++i) {
    for (const datalog::PlannedRule& pr : *planned_tc) {
      (void)datalog::vm::LowerRule(pr.rule, pr.plan);
    }
  }
  const double lower_us = MillisSince(t0) * 1000.0 /
                          (kLowerReps * planned_tc->size());
  std::printf("compile: %.2f us per rule (LowerRule, tc rules)\n", lower_us);

  // End-to-end workloads, with the VM counters of the headline run.
  std::vector<Row> rows;
  datalog::Database dense = RandomEdges(250, 2200, /*seed=*/42);
  datalog::vm::ResetVmExecStats();
  rows.push_back(EndToEnd("tc_seminaive_random_2000", tc, dense,
                          dense.Extent("edge").size()));
  const datalog::vm::VmExecStats stats = datalog::vm::GetVmExecStats();

  // Demand workload: the magic transform of the closure under tc(0, X).
  datalog::QuerySpec query{"tc", {Value::Int(0), std::nullopt}};
  auto magic = datalog::MagicTransform(tc, query);
  if (magic.ok()) {
    datalog::Database seeded = dense;
    seeded.InsertAll(magic->seeds);
    rows.push_back(EndToEnd("tc_magic_demand_2000", magic->program, seeded,
                            seeded.Extent("edge").size()));
  } else {
    std::fprintf(stderr, "magic transform failed: %s\n",
                 magic.status().ToString().c_str());
  }

  std::printf("%-28s %9s %9s %11s %9s %8s %7s\n", "workload", "facts_in",
              "facts_out", "interp (ms)", "vm (ms)", "speedup", "equal?");
  bool all_equal = true;
  for (const Row& r : rows) {
    all_equal &= r.models_equal;
    std::printf("%-28s %9zu %9zu %11.2f %9.2f %7.1fx %7s\n", r.name.c_str(),
                r.facts_in, r.facts_out, r.interp_ms, r.vm_ms, r.Speedup(),
                r.models_equal ? "yes" : "NO");
  }
  std::printf("vm: %llu compiled firings, %llu ops, %llu rules lowered\n",
              static_cast<unsigned long long>(stats.vm_rules_fired),
              static_cast<unsigned long long>(stats.ops_dispatched),
              static_cast<unsigned long long>(stats.programs_lowered));

  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"experiment\": \"bytecode_vm_vs_interpreter\",\n");
  std::fprintf(out,
               "  \"dispatch_micro\": {\"facts\": %zu, "
               "\"interpreted_ms\": %.3f, \"switch_ms\": %.3f},\n",
               micro_facts, micro[0], micro[1]);
  std::fprintf(out, "  \"lower_us_per_rule\": %.3f,\n", lower_us);
  std::fprintf(out, "  \"workloads\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"facts_in\": %zu, "
                 "\"facts_out\": %zu, \"interp_ms\": %.3f, "
                 "\"vm_ms\": %.3f, \"speedup\": %.2f, "
                 "\"models_equal\": %s}%s\n",
                 r.name.c_str(), r.facts_in, r.facts_out, r.interp_ms, r.vm_ms,
                 r.Speedup(), r.models_equal ? "true" : "false",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return all_equal ? 0 : 1;
}
