#include "reference_eval.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "awr/datalog/ground.h"

namespace awr::reference {

namespace {

using datalog::Atom;
using datalog::CmpOp;
using datalog::FunctionRegistry;
using datalog::Literal;
using datalog::Program;
using datalog::Rule;
using datalog::TermExpr;

/// Stops a fixpoint that does not converge (a program deriving ever
/// new values through its functions).
constexpr size_t kMaxRounds = 10000;

using Binding = std::map<uint32_t, Value>;
using FactsOf = std::function<const std::set<Value>&(const std::string&)>;
using NegationHolds = std::function<bool(const std::string&, const Value&)>;

const std::set<Value>& FactsIn(const Model& model, const std::string& pred) {
  static const std::set<Value> kNone;
  auto it = model.find(pred);
  return it == model.end() ? kNone : it->second;
}

bool Contains(const Model& model, const std::string& pred, const Value& fact) {
  return FactsIn(model, pred).count(fact) != 0;
}

bool IsGround(const TermExpr& term, const Binding& b) {
  switch (term.kind()) {
    case TermExpr::Kind::kVar:
      return b.count(term.var().id) != 0;
    case TermExpr::Kind::kConst:
      return true;
    case TermExpr::Kind::kApply:
      return std::all_of(term.args().begin(), term.args().end(),
                         [&](const TermExpr& t) { return IsGround(t, b); });
  }
  return false;
}

Result<Value> Eval(const TermExpr& term, const Binding& b,
                   const FunctionRegistry& fns) {
  switch (term.kind()) {
    case TermExpr::Kind::kVar: {
      auto it = b.find(term.var().id);
      if (it == b.end()) {
        return Status::FailedPrecondition("reference: unbound variable " +
                                          term.var().name());
      }
      return it->second;
    }
    case TermExpr::Kind::kConst:
      return term.constant();
    case TermExpr::Kind::kApply: {
      std::vector<Value> args;
      for (const TermExpr& arg : term.args()) {
        AWR_ASSIGN_OR_RETURN(Value v, Eval(arg, b, fns));
        args.push_back(std::move(v));
      }
      return fns.Apply(term.fn_name(), args);
    }
  }
  return Status::Internal("reference: unknown term kind");
}

Result<Value> Instantiate(const std::vector<TermExpr>& args, const Binding& b,
                          const FunctionRegistry& fns) {
  std::vector<Value> items;
  for (const TermExpr& arg : args) {
    AWR_ASSIGN_OR_RETURN(Value v, Eval(arg, b, fns));
    items.push_back(std::move(v));
  }
  return Value::Tuple(std::move(items));
}

/// Every satisfying assignment of a rule body, by nested loops: each
/// positive atom, in body order, scans all facts of its predicate and
/// binds its variable arguments; then equalities with one unbound
/// variable side assign it, until none is left; then every remaining
/// argument, comparison and negated atom is tested.
class Matcher {
 public:
  Matcher(const Rule& rule, FactsOf facts, NegationHolds negation,
          const FunctionRegistry& fns)
      : rule_(rule),
        facts_(std::move(facts)),
        negation_(std::move(negation)),
        fns_(fns) {
    for (size_t i = 0; i < rule.body.size(); ++i) {
      if (rule.body[i].is_atom() && rule.body[i].positive) atoms_.push_back(i);
    }
    matched_.resize(atoms_.size());
  }

  Status Run(const std::function<Status(const Binding&)>& on_match) {
    on_match_ = &on_match;
    return Scan(0, Binding{});
  }

 private:
  Status Scan(size_t k, const Binding& b) {
    if (k == atoms_.size()) return Finish(b);
    const Atom& atom = rule_.body[atoms_[k]].atom;
    for (const Value& fact : facts_(atom.predicate)) {
      if (!fact.is_tuple() || fact.size() != atom.arity()) {
        return Status::InvalidArgument("arity mismatch: atom " +
                                       atom.ToString() + " vs fact " +
                                       fact.ToString());
      }
      Binding next = b;
      bool ok = true;
      for (size_t i = 0; i < atom.arity() && ok; ++i) {
        if (!atom.args[i].is_var()) continue;  // tested in Finish
        auto [it, inserted] =
            next.try_emplace(atom.args[i].var().id, fact.items()[i]);
        ok = inserted || it->second == fact.items()[i];
      }
      if (!ok) continue;
      matched_[k] = &fact;
      AWR_RETURN_IF_ERROR(Scan(k + 1, next));
    }
    return Status::OK();
  }

  Status Finish(Binding b) {
    for (bool assigned = true; assigned;) {
      assigned = false;
      for (const Literal& lit : rule_.body) {
        if (!lit.is_compare() || lit.op != CmpOp::kEq) continue;
        for (const auto& [var_side, val_side] :
             {std::pair{&lit.lhs, &lit.rhs}, std::pair{&lit.rhs, &lit.lhs}}) {
          if (var_side->is_var() && !IsGround(*var_side, b) &&
              IsGround(*val_side, b)) {
            AWR_ASSIGN_OR_RETURN(Value v, Eval(*val_side, b, fns_));
            b.emplace(var_side->var().id, std::move(v));
            assigned = true;
          }
        }
      }
    }
    for (size_t k = 0; k < atoms_.size(); ++k) {
      const Atom& atom = rule_.body[atoms_[k]].atom;
      for (size_t i = 0; i < atom.arity(); ++i) {
        if (atom.args[i].is_var()) continue;
        AWR_ASSIGN_OR_RETURN(Value v, Eval(atom.args[i], b, fns_));
        if (v != matched_[k]->items()[i]) return Status::OK();
      }
    }
    for (const Literal& lit : rule_.body) {
      if (lit.is_compare()) {
        AWR_ASSIGN_OR_RETURN(Value l, Eval(lit.lhs, b, fns_));
        AWR_ASSIGN_OR_RETURN(Value r, Eval(lit.rhs, b, fns_));
        const int c = Value::Compare(l, r);
        const bool holds = lit.op == CmpOp::kEq   ? c == 0
                           : lit.op == CmpOp::kNe ? c != 0
                           : lit.op == CmpOp::kLt ? c < 0
                                                  : c <= 0;
        if (!holds) return Status::OK();
      } else if (!lit.positive) {
        AWR_ASSIGN_OR_RETURN(Value fact, Instantiate(lit.atom.args, b, fns_));
        if (!negation_(lit.atom.predicate, fact)) return Status::OK();
      }
    }
    return (*on_match_)(b);
  }

  const Rule& rule_;
  FactsOf facts_;
  NegationHolds negation_;
  const FunctionRegistry& fns_;
  std::vector<size_t> atoms_;             // positive atoms, body order
  std::vector<const Value*> matched_;     // the fact each one matched
  const std::function<Status(const Binding&)>* on_match_ = nullptr;
};

/// One application of the immediate-consequence operator: every head
/// derived from `facts` (positive atoms) with negation decided by
/// `negation`, added to a copy of `facts`.
Result<Model> Step(const Program& program, const Model& facts,
                   const NegationHolds& negation, const FunctionRegistry& fns) {
  Model next = facts;
  for (const Rule& rule : program.rules) {
    Matcher matcher(
        rule, [&facts](const std::string& p) -> const std::set<Value>& {
          return FactsIn(facts, p);
        },
        negation, fns);
    AWR_RETURN_IF_ERROR(matcher.Run([&](const Binding& b) -> Status {
      AWR_ASSIGN_OR_RETURN(Value head, Instantiate(rule.head.args, b, fns));
      next[rule.head.predicate].insert(std::move(head));
      return Status::OK();
    }));
  }
  return next;
}

/// Iterates `step` from `start` until it adds nothing.
template <typename StepFn>
Result<Model> Fixpoint(Model start, const StepFn& step) {
  for (size_t round = 0; round < kMaxRounds; ++round) {
    AWR_ASSIGN_OR_RETURN(Model next, step(start));
    if (next == start) return start;
    start = std::move(next);
  }
  return Status::ResourceExhausted("reference: fixpoint did not converge");
}

}  // namespace

Model FromInterpretation(const datalog::Interpretation& interp) {
  Model out;
  for (const auto& [pred, extent] : interp) {
    if (extent.empty()) continue;
    std::set<Value>& facts = out[pred];
    for (const Value& fact : extent) facts.insert(fact);
  }
  return out;
}

std::string Render(const Model& model) {
  std::string out;
  for (const auto& [pred, facts] : model) {
    for (const Value& fact : facts) out += pred + fact.ToString() + "\n";
  }
  return out;
}

std::string Difference(const Model& a, const Model& b) {
  Model only_b;
  for (const auto& [pred, facts] : b) {
    for (const Value& fact : facts) {
      if (!Contains(a, pred, fact)) only_b[pred].insert(fact);
    }
  }
  return Render(only_b);
}

Result<Model> FrozenNegationModel(const Program& program, const Model& edb,
                                  const Model& neg_context,
                                  const FunctionRegistry& fns) {
  const NegationHolds negation = [&neg_context](const std::string& p,
                                                const Value& fact) {
    return !Contains(neg_context, p, fact);
  };
  return Fixpoint(edb, [&](const Model& facts) {
    return Step(program, facts, negation, fns);
  });
}

Result<Model> MinimalModel(const Program& program, const Model& edb,
                           const FunctionRegistry& fns) {
  return FrozenNegationModel(program, edb, Model{}, fns);
}

Result<Model> Inflationary(const Program& program, const Model& edb,
                           const FunctionRegistry& fns) {
  return Fixpoint(edb, [&](const Model& facts) {
    return Step(
        program, facts,
        [&facts](const std::string& p, const Value& fact) {
          return !Contains(facts, p, fact);
        },
        fns);
  });
}

Result<ThreeValued> WellFounded(const Program& program, const Model& edb,
                                const FunctionRegistry& fns) {
  // certain_{k+1} = S(S(certain_k)) rises from the EDB, which every S(J)
  // contains, to the least fixpoint of S∘S.
  Model certain = edb;
  for (size_t round = 0; round < kMaxRounds; ++round) {
    AWR_ASSIGN_OR_RETURN(Model possible,
                         FrozenNegationModel(program, edb, certain, fns));
    AWR_ASSIGN_OR_RETURN(Model next,
                         FrozenNegationModel(program, edb, possible, fns));
    if (next == certain) {
      return ThreeValued{std::move(certain), std::move(possible)};
    }
    certain = std::move(next);
  }
  return Status::ResourceExhausted("reference: alternation did not converge");
}

Result<std::vector<std::string>> GroundLines(const Program& program,
                                             const Model& edb,
                                             const ThreeValued& wfs,
                                             const FunctionRegistry& fns) {
  std::vector<std::string> lines;
  for (const auto& [pred, facts] : edb) {
    for (const Value& fact : facts) {
      lines.push_back(datalog::GroundAtom{pred, fact}.ToString() + ".");
    }
  }
  for (const Rule& rule : program.rules) {
    Matcher matcher(
        rule,
        [&wfs](const std::string& p) -> const std::set<Value>& {
          return FactsIn(wfs.possible, p);
        },
        [&wfs](const std::string& p, const Value& fact) {
          return !Contains(wfs.certain, p, fact);
        },
        fns);
    AWR_RETURN_IF_ERROR(matcher.Run([&](const Binding& b) -> Status {
      datalog::GroundRule instance;
      AWR_ASSIGN_OR_RETURN(Value head, Instantiate(rule.head.args, b, fns));
      instance.head = datalog::GroundAtom{rule.head.predicate, std::move(head)};
      for (const Literal& lit : rule.body) {
        if (!lit.is_atom()) continue;
        AWR_ASSIGN_OR_RETURN(Value args, Instantiate(lit.atom.args, b, fns));
        datalog::GroundAtom atom{lit.atom.predicate, std::move(args)};
        if (lit.positive) {
          instance.pos.push_back(std::move(atom));
        } else if (Contains(wfs.possible, atom.predicate, atom.args)) {
          instance.neg.push_back(std::move(atom));
        }
      }
      lines.push_back(instance.ToString());
      return Status::OK();
    }));
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

Result<bool> IsStable(const Program& program, const Model& edb,
                      const Model& model, const FunctionRegistry& fns) {
  AWR_ASSIGN_OR_RETURN(Model reduct_model,
                       FrozenNegationModel(program, edb, model, fns));
  return reduct_model == model;
}

namespace {

/// The atoms in `wfs.possible` but not in `wfs.certain`.
std::vector<std::pair<std::string, Value>> Undefined(const ThreeValued& wfs) {
  std::vector<std::pair<std::string, Value>> out;
  for (const auto& [pred, facts] : wfs.possible) {
    for (const Value& fact : facts) {
      if (!Contains(wfs.certain, pred, fact)) out.emplace_back(pred, fact);
    }
  }
  return out;
}

}  // namespace

size_t UndefinedCount(const ThreeValued& wfs) { return Undefined(wfs).size(); }

Result<std::set<Model>> StableModels(const Program& program, const Model& edb,
                                     const ThreeValued& wfs,
                                     const FunctionRegistry& fns,
                                     size_t max_undefined) {
  const auto undefined = Undefined(wfs);
  if (undefined.size() > max_undefined) {
    return Status::ResourceExhausted("reference: too many undefined atoms");
  }
  std::set<Model> models;
  for (size_t mask = 0; mask < (size_t{1} << undefined.size()); ++mask) {
    Model candidate = wfs.certain;
    for (size_t i = 0; i < undefined.size(); ++i) {
      const auto& [pred, fact] = undefined[i];
      if ((mask >> i) & 1) candidate[pred].insert(fact);
    }
    AWR_ASSIGN_OR_RETURN(bool stable, IsStable(program, edb, candidate, fns));
    if (stable) models.insert(std::move(candidate));
  }
  return models;
}

}  // namespace awr::reference
