// Micro rows of the bytecode VM, each isolating one layer:
//   * dispatch: one firing of a two-atom probe join through
//     vm::ExecuteCompiledRule into a fresh extent, with the
//     instructions it dispatched (so ns per op);
//   * compile: LowerRule latency on the closure rules, paid once per
//     rule when PlanProgram plans it.
// End-to-end evaluation is perfbench's job (tc_dense, sparse_rounds).
//
// Writes the measurements to a JSON file (default BENCH_vm.json in the
// current directory; override with argv[1]).
#include <chrono>
#include <cstdio>
#include <string>

#include "awr/datalog/eval_core.h"
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

struct Micro {
  size_t facts = 0;
  uint64_t ops = 0;
  double ms = 0;
};

// One two-atom probe join fired through the VM into a fresh extent.
bool DispatchMicro(int n_left, int n_right, Micro* out) {
  auto program = datalog::ParseProgram("out(X, Z) :- e(X, Y), t(Y, Z).");
  auto planned = datalog::PlanProgram(*program);
  if (!planned.ok()) {
    std::fprintf(stderr, "%s\n", planned.status().ToString().c_str());
    return false;
  }
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
      nullptr};
  const datalog::vm::CompiledRule& compiled = *planned->front().compiled;
  constexpr int kReps = 5;
  bool ok = true;
  datalog::vm::ResetVmExecStats();
  out->ms = BestMillis(kReps, [&] {
    ValueSet derived;
    Result<size_t> added =
        datalog::vm::ExecuteCompiledRule(compiled, ctx, &derived);
    if (!added.ok()) {
      std::fprintf(stderr, "%s\n", added.status().ToString().c_str());
      ok = false;
      return;
    }
    out->facts = *added;
  });
  out->ops = datalog::vm::GetVmExecStats().ops_dispatched / kReps;
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_vm.json";

  Micro micro;
  if (!DispatchMicro(200000, 100000, &micro)) return 1;
  const double ns_per_op =
      micro.ops > 0 ? micro.ms * 1e6 / static_cast<double>(micro.ops) : 0;
  std::printf("dispatch micro (%zu facts): %.2f ms, %llu ops, %.2f ns/op\n",
              micro.facts, micro.ms,
              static_cast<unsigned long long>(micro.ops), ns_per_op);

  // Compile time: LowerRule latency on the closure rules.
  auto tc = TcProgram();
  auto planned_tc = datalog::PlanProgram(tc);
  if (!planned_tc.ok()) {
    std::fprintf(stderr, "%s\n", planned_tc.status().ToString().c_str());
    return 1;
  }
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

  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"experiment\": \"vm_layer_micro\",\n");
  std::fprintf(out,
               "  \"dispatch_micro\": {\"facts\": %zu, \"ms\": %.3f, "
               "\"ops\": %llu, \"ns_per_op\": %.3f},\n",
               micro.facts, micro.ms,
               static_cast<unsigned long long>(micro.ops), ns_per_op);
  std::fprintf(out, "  \"lower_us_per_rule\": %.3f\n}\n", lower_us);
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
