#include "awr/datalog/eval_core.h"

#include <cassert>
#include <memory>

#include "awr/datalog/vm/vm.h"

namespace awr::datalog {

Result<Value> EvalTerm(const TermExpr& term, const Env& env,
                       const FunctionRegistry& fns) {
  switch (term.kind()) {
    case TermExpr::Kind::kVar: {
      const Value* v = env.Lookup(term.var());
      if (v == nullptr) {
        return Status::Internal("unbound variable during evaluation: " +
                                term.var().name());
      }
      return *v;
    }
    case TermExpr::Kind::kConst:
      return term.constant();
    case TermExpr::Kind::kApply: {
      std::vector<Value> args;
      args.reserve(term.args().size());
      for (const TermExpr& arg : term.args()) {
        AWR_ASSIGN_OR_RETURN(Value v, EvalTerm(arg, env, fns));
        args.push_back(std::move(v));
      }
      return fns.Apply(term.fn_name(), args);
    }
  }
  return Status::Internal("unknown term kind");
}

namespace {

Result<bool> EvalCompare(const Literal& lit, const Env& env,
                         const FunctionRegistry& fns) {
  AWR_ASSIGN_OR_RETURN(Value l, EvalTerm(lit.lhs, env, fns));
  AWR_ASSIGN_OR_RETURN(Value r, EvalTerm(lit.rhs, env, fns));
  int c = Value::Compare(l, r);
  switch (lit.op) {
    case CmpOp::kEq:
      return c == 0;
    case CmpOp::kNe:
      return c != 0;
    case CmpOp::kLt:
      return c < 0;
    case CmpOp::kLe:
      return c <= 0;
  }
  return Status::Internal("unknown comparison op");
}

class BodyEnumerator {
 public:
  BodyEnumerator(const Rule& rule, const RulePlan& plan, const BodyContext& ctx,
                 const std::function<Status(const Env&)>& on_match)
      : rule_(rule), plan_(plan), ctx_(ctx), on_match_(on_match) {}

  Status Run() {
    Env env;
    return EvalFrom(0, env);
  }

 private:
  Status EvalFrom(size_t k, Env& env) {
    if (k == plan_.size()) {
      if (ctx_.context != nullptr) {
        AWR_RETURN_IF_ERROR(ctx_.context->CheckInterrupt("body-match"));
      }
      return on_match_(env);
    }
    const Literal& lit = rule_.body[plan_.steps[k].literal];
    if (lit.is_atom()) {
      return lit.positive ? MatchPositive(lit, k, env) : TestNegative(lit, k, env);
    }
    return HandleCompare(lit, k, env);
  }

  Status MatchPositive(const Literal& lit, size_t k, Env& env) {
    const PlanStep& step = plan_.steps[k];
    const ValueSet& extent =
        ctx_.positive_extent(lit.atom.predicate, step.literal);
    if (extent.empty()) return Status::OK();
    // Arity validation, hoisted out of the per-fact loop: the extent's
    // shape histogram answers the uniform case in O(1); only a
    // malformed extent is scanned for the offending fact.
    if (!extent.UniformTupleArity(lit.atom.arity())) {
      for (const Value& fact : extent) {
        if (!fact.is_tuple() || fact.size() != lit.atom.arity()) {
          return Status::InvalidArgument(
              "arity mismatch: atom " + lit.atom.ToString() + " vs fact " +
              fact.ToString());
        }
      }
    }
    if (ctx_.use_join_index && !step.bound_positions.empty()) {
      // Probe the hash index on the bound positions.  The key terms are
      // constants or bound variables (the planner excludes fallible
      // ground applications), so evaluation cannot fail here.
      std::vector<Value> key_parts;
      key_parts.reserve(step.bound_positions.size());
      for (size_t pos : step.bound_positions) {
        AWR_ASSIGN_OR_RETURN(
            Value v, EvalTerm(lit.atom.args[pos], env, *ctx_.fns));
        key_parts.push_back(std::move(v));
      }
      const std::vector<Value>& bucket =
          extent.Probe(step.bound_positions, Value::Tuple(std::move(key_parts)));
      for (const Value& fact : bucket) {
        AWR_RETURN_IF_ERROR(MatchFact(lit, fact, k, env));
      }
      return Status::OK();
    }
    for (const Value& fact : extent) {
      AWR_RETURN_IF_ERROR(MatchFact(lit, fact, k, env));
    }
    return Status::OK();
  }

  /// Unifies `fact` against the atom's argument terms under `env` and,
  /// on a match, recurses into the remaining plan steps.  Bindings made
  /// here are undone before returning.
  Status MatchFact(const Literal& lit, const Value& fact, size_t k, Env& env) {
    std::vector<Var> bound_here;
    bool match = true;
    for (size_t i = 0; i < lit.atom.args.size() && match; ++i) {
      const TermExpr& arg = lit.atom.args[i];
      const Value& component = fact.items()[i];
      if (arg.is_var()) {
        const Value* existing = env.Lookup(arg.var());
        if (existing == nullptr) {
          env.Bind(arg.var(), component);
          bound_here.push_back(arg.var());
        } else if (*existing != component) {
          match = false;
        }
      } else {
        // Ground (given current bindings) term in a matching position.
        auto value = EvalTerm(arg, env, *ctx_.fns);
        if (!value.ok()) {
          for (const Var& v : bound_here) env.Unbind(v);
          return value.status();
        }
        if (*value != component) match = false;
      }
    }
    Status st = match ? EvalFrom(k + 1, env) : Status::OK();
    for (const Var& v : bound_here) env.Unbind(v);
    return st;
  }

  Status TestNegative(const Literal& lit, size_t k, Env& env) {
    std::vector<Value> args;
    args.reserve(lit.atom.args.size());
    for (const TermExpr& arg : lit.atom.args) {
      AWR_ASSIGN_OR_RETURN(Value v, EvalTerm(arg, env, *ctx_.fns));
      args.push_back(std::move(v));
    }
    if (ctx_.negation_holds(lit.atom.predicate, Value::Tuple(std::move(args)))) {
      return EvalFrom(k + 1, env);
    }
    return Status::OK();
  }

  Status HandleCompare(const Literal& lit, size_t k, Env& env) {
    // Assignment form: exactly one side is an unbound variable.
    if (lit.op == CmpOp::kEq) {
      bool lhs_unbound_var =
          lit.lhs.is_var() && env.Lookup(lit.lhs.var()) == nullptr;
      bool rhs_unbound_var =
          lit.rhs.is_var() && env.Lookup(lit.rhs.var()) == nullptr;
      if (lhs_unbound_var != rhs_unbound_var) {
        const TermExpr& var_side = lhs_unbound_var ? lit.lhs : lit.rhs;
        const TermExpr& val_side = lhs_unbound_var ? lit.rhs : lit.lhs;
        AWR_ASSIGN_OR_RETURN(Value v, EvalTerm(val_side, env, *ctx_.fns));
        env.Bind(var_side.var(), std::move(v));
        Status st = EvalFrom(k + 1, env);
        env.Unbind(var_side.var());
        return st;
      }
    }
    AWR_ASSIGN_OR_RETURN(bool holds, EvalCompare(lit, env, *ctx_.fns));
    return holds ? EvalFrom(k + 1, env) : Status::OK();
  }

  const Rule& rule_;
  const RulePlan& plan_;
  const BodyContext& ctx_;
  const std::function<Status(const Env&)>& on_match_;
};

}  // namespace

Status FireRuleFacts(const PlannedRule& planned, const BodyContext& ctx,
                     const std::function<Status(Value)>& on_fact,
                     const ValueSet* known) {
  if (ctx.use_bytecode && planned.compiled != nullptr) {
    return vm::ExecuteCompiledRule(*planned.compiled, ctx, on_fact, known);
  }
  return ForEachBodyMatch(
      planned.rule, planned.plan, ctx, [&](const Env& env) -> Status {
        AWR_ASSIGN_OR_RETURN(Value fact,
                             EvalHead(planned.rule, env, *ctx.fns));
        if (known != nullptr && known->Contains(fact)) return Status::OK();
        return on_fact(std::move(fact));
      });
}

Status ForEachBodyMatch(const Rule& rule, const RulePlan& plan,
                        const BodyContext& ctx,
                        const std::function<Status(const Env&)>& on_match) {
  assert(plan.size() == rule.body.size());
  return BodyEnumerator(rule, plan, ctx, on_match).Run();
}

Result<Value> EvalHead(const Rule& rule, const Env& env,
                       const FunctionRegistry& fns) {
  std::vector<Value> components;
  components.reserve(rule.head.args.size());
  for (const TermExpr& arg : rule.head.args) {
    AWR_ASSIGN_OR_RETURN(Value v, EvalTerm(arg, env, fns));
    components.push_back(std::move(v));
  }
  return Value::Tuple(std::move(components));
}

Result<std::vector<PlannedRule>> PlanProgram(const Program& program,
                                             bool lower) {
  std::vector<PlannedRule> out;
  out.reserve(program.rules.size());
  for (const Rule& rule : program.rules) {
    AWR_ASSIGN_OR_RETURN(RulePlan plan, PlanRule(rule));
    std::shared_ptr<const vm::CompiledRule> compiled;
    if (lower) {
      Result<std::shared_ptr<const vm::CompiledRule>> lowered =
          vm::LowerRule(rule, plan);
      vm::CountLowering(lowered.ok());
      if (lowered.ok()) compiled = *std::move(lowered);
    }
    out.push_back(PlannedRule{rule, std::move(plan), std::move(compiled)});
  }
  return out;
}

}  // namespace awr::datalog
