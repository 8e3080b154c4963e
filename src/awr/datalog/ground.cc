#include "awr/datalog/ground.h"

#include <sstream>

#include "awr/common/strings.h"
#include "awr/datalog/wellfounded.h"

namespace awr::datalog {

std::string GroundAtom::ToString() const {
  std::string body = args.ToString();
  // Render the tuple <a, b> as (a, b) after the predicate name.
  if (!body.empty() && body.front() == '<') {
    body = "(" + body.substr(1, body.size() - 2) + ")";
  }
  return predicate + body;
}

std::string GroundRule::ToString() const {
  std::ostringstream os;
  os << head.ToString();
  if (!pos.empty() || !neg.empty()) {
    os << " :- ";
    bool first = true;
    for (const GroundAtom& a : pos) {
      if (!first) os << ", ";
      first = false;
      os << a.ToString();
    }
    for (const GroundAtom& a : neg) {
      if (!first) os << ", ";
      first = false;
      os << "not " << a.ToString();
    }
  }
  os << ".";
  return os.str();
}

std::string GroundProgram::ToString() const {
  std::ostringstream os;
  for (const GroundAtom& f : facts) os << f.ToString() << ".\n";
  for (const GroundRule& r : rules) os << r.ToString() << "\n";
  return os.str();
}

Result<GroundProgram> GroundProgramFor(const Program& program,
                                       const Database& edb,
                                       const EvalOptions& opts) {
  AWR_ASSIGN_OR_RETURN(ThreeValuedInterp wfs,
                       EvalWellFounded(program, edb, opts));
  // Grounding enumerates whole bindings with ForEachBodyMatch, which the
  // VM does not deliver, so nothing is lowered.
  AWR_ASSIGN_OR_RETURN(std::vector<PlannedRule> planned,
                       PlanProgram(program, /*lower=*/false));

  GroundProgram ground;
  for (const auto& [pred, extent] : edb) {
    for (const Value& fact : extent) {
      ground.facts.push_back(GroundAtom{pred, fact});
    }
  }

  ExecutionContext local_ctx(opts.limits);
  ExecutionContext* ctx = opts.context != nullptr ? opts.context : &local_ctx;
  for (const PlannedRule& pr : planned) {
    BodyContext body_ctx{
        &opts.functions,
        // Positive atoms range over everything possibly true.
        [&wfs](const std::string& pred, size_t) -> const ValueSet& {
          return wfs.possible.Extent(pred);
        },
        // Keep an instance unless its negative literal certainly fails.
        [&wfs](const std::string& pred, const Value& fact) {
          return !wfs.certain.Holds(pred, fact);
        },
        ctx, opts.use_join_index};
    AWR_RETURN_IF_ERROR(ForEachBodyMatch(
        pr.rule, pr.plan, body_ctx, [&](const Env& env) -> Status {
          AWR_RETURN_IF_ERROR(ctx->ChargeFacts(1, "grounding"));
          GroundRule instance;
          AWR_ASSIGN_OR_RETURN(Value head,
                               EvalHead(pr.rule, env, opts.functions));
          instance.head = GroundAtom{pr.rule.head.predicate, std::move(head)};
          for (const Literal& lit : pr.rule.body) {
            if (!lit.is_atom()) continue;  // comparisons hold by matching
            std::vector<Value> args;
            args.reserve(lit.atom.args.size());
            for (const TermExpr& t : lit.atom.args) {
              AWR_ASSIGN_OR_RETURN(Value v, EvalTerm(t, env, opts.functions));
              args.push_back(std::move(v));
            }
            GroundAtom atom{lit.atom.predicate, Value::Tuple(std::move(args))};
            if (lit.positive) {
              instance.pos.push_back(std::move(atom));
            } else if (wfs.possible.Holds(atom.predicate, atom.args)) {
              // Undefined or true: the literal is live in some model.
              instance.neg.push_back(std::move(atom));
            }
            // else: certainly false, `not` certainly holds — drop it.
          }
          ground.rules.push_back(std::move(instance));
          return Status::OK();
        }));
  }
  return ground;
}

}  // namespace awr::datalog
