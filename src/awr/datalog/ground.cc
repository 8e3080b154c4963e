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

namespace {

/// The rule grounding fires for `rule`: the same body, and a head that
/// lists the whole instance — the head's arguments, then every body
/// atom's, in body order.
Rule InstanceRule(const Rule& rule) {
  Rule instance = rule;
  for (const Literal& lit : rule.body) {
    if (!lit.is_atom()) continue;  // comparisons hold by matching
    instance.head.args.insert(instance.head.args.end(), lit.atom.args.begin(),
                              lit.atom.args.end());
  }
  return instance;
}

}  // namespace

Result<GroundProgram> GroundProgramFor(const Program& program,
                                       const Database& edb,
                                       const EvalOptions& opts) {
  AWR_ASSIGN_OR_RETURN(ThreeValuedInterp wfs,
                       EvalWellFounded(program, edb, opts));
  Program instances;
  for (const Rule& rule : program.rules) {
    instances.rules.push_back(InstanceRule(rule));
  }
  AWR_ASSIGN_OR_RETURN(std::vector<PlannedRule> planned,
                       PlanProgram(instances));

  GroundProgram ground;
  for (const auto& [pred, extent] : edb) {
    for (const Value& fact : extent) {
      ground.facts.push_back(GroundAtom{pred, fact});
    }
  }

  ExecutionContext local_ctx(opts.limits);
  ExecutionContext* ctx = opts.context != nullptr ? opts.context : &local_ctx;
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
      ctx};
  for (size_t r = 0; r < planned.size(); ++r) {
    const Rule& rule = program.rules[r];
    AWR_RETURN_IF_ERROR(ForEachRuleHead(
        planned[r], body_ctx, [&](Value instance_args) -> Status {
          AWR_RETURN_IF_ERROR(ctx->ChargeFacts(1, "grounding"));
          const auto items = instance_args.items();
          size_t next = 0;
          auto take = [&](size_t n) {
            Value args = Value::Tuple(std::vector<Value>(
                items.begin() + next, items.begin() + next + n));
            next += n;
            return args;
          };
          GroundRule instance;
          instance.head = GroundAtom{rule.head.predicate,
                                     take(rule.head.args.size())};
          for (const Literal& lit : rule.body) {
            if (!lit.is_atom()) continue;
            GroundAtom atom{lit.atom.predicate, take(lit.atom.arity())};
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
