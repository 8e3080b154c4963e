#include "awr/datalog/eval_core.h"

#include <memory>

#include "awr/datalog/vm/vm.h"

namespace awr::datalog {

Result<size_t> FireRuleFacts(const PlannedRule& planned,
                             const BodyContext& ctx, FactSink out) {
  return vm::ExecuteCompiledRule(*planned.compiled, ctx, out);
}

Status ForEachRuleHead(const PlannedRule& planned, const BodyContext& ctx,
                       const std::function<Status(Value)>& on_head) {
  return vm::ExecuteCompiledRuleHeads(*planned.compiled, ctx, on_head);
}

Result<size_t> FireRuleInto(const PlannedRule& planned,
                            const BodyContext& ctx, Rounds* rounds) {
  return FireRuleFacts(planned, ctx,
                       rounds->Sink(planned.rule.head.predicate));
}

Result<std::vector<PlannedRule>> PlanProgram(const Program& program) {
  std::vector<PlannedRule> out;
  out.reserve(program.rules.size());
  for (const Rule& rule : program.rules) {
    AWR_ASSIGN_OR_RETURN(RulePlan plan, PlanRule(rule));
    AWR_ASSIGN_OR_RETURN(std::shared_ptr<const vm::CompiledRule> compiled,
                         vm::LowerRule(rule, plan));
    vm::CountLowering();
    out.push_back(PlannedRule{rule, std::move(plan), std::move(compiled)});
  }
  return out;
}

}  // namespace awr::datalog
