#include "awr/translate/stratified_ifp.h"

#include <unordered_map>
#include <unordered_set>

#include "awr/algebra/positivity.h"
#include "awr/datalog/depgraph.h"
#include "awr/translate/datalog_to_alg.h"

namespace awr::translate {

using algebra::AlgebraExpr;
using algebra::AlgebraProgram;
using algebra::FnExpr;
using datalog::Program;
using datalog::Rule;

namespace {

// Substitutes `replacement` for every Relation(name) node, shifting the
// replacement's free IterVars when the occurrence sits under IFPs.
AlgebraExpr ReplaceRelation(const AlgebraExpr& e, const std::string& name,
                            const AlgebraExpr& replacement, size_t depth) {
  if (e.kind() == AlgebraExpr::Kind::kRelation && e.name() == name) {
    return replacement.ShiftFreeIterVars(depth);
  }
  const size_t inner = e.kind() == AlgebraExpr::Kind::kIfp ? depth + 1 : depth;
  return e.MapChildren([&](const AlgebraExpr& c) {
    return ReplaceRelation(c, name, replacement, inner);
  });
}

// Accessor for predicate Q's facts inside a tagged accumulator.
AlgebraExpr TaggedSlice(const std::string& pred, const AlgebraExpr& acc) {
  return AlgebraExpr::Map(
      algebra::fn::Proj(1),
      AlgebraExpr::Select(
          FnExpr::Eq(algebra::fn::Proj(0), FnExpr::Cst(Value::Atom(pred))),
          acc));
}

}  // namespace

Result<AlgebraProgram> StratifiedToPositiveIfp(const Program& program) {
  AWR_RETURN_IF_ERROR(datalog::Stratify(program).status());

  datalog::DependencyGraph graph(program);
  std::unordered_set<std::string> idb;
  for (const std::string& p : program.IdbPredicates()) idb.insert(p);

  // Per-predicate one-step expression: the union of its rules.
  std::unordered_map<std::string, AlgebraExpr> one_step;
  for (const Rule& rule : program.rules) {
    AWR_ASSIGN_OR_RETURN(AlgebraExpr e, CompileRule(rule));
    auto it = one_step.find(rule.head.predicate);
    if (it == one_step.end()) {
      one_step.emplace(rule.head.predicate, std::move(e));
    } else {
      it->second = AlgebraExpr::Union(std::move(it->second), std::move(e));
    }
  }

  AlgebraProgram out;
  // Tarjan emits SCCs dependencies-first, so each SCC may reference the
  // constants defined for earlier SCCs.
  for (const auto& scc : graph.Sccs()) {
    std::vector<std::string> members;
    for (const std::string& p : scc) {
      if (idb.count(p) > 0) members.push_back(p);
    }
    if (members.empty()) continue;  // purely extensional SCC

    // Is the SCC actually recursive?  (A singleton SCC is recursive
    // only if the predicate depends on itself.)
    bool recursive = members.size() > 1;
    if (!recursive) {
      const std::string& p = members[0];
      algebra::Polarity self = RelationPolarity(one_step.at(p), p);
      recursive = self != algebra::Polarity::kAbsent;
    }

    if (!recursive) {
      out.DefineConstant(members[0], one_step.at(members[0]));
      continue;
    }

    // One positive IFP over tagged pairs <"P", fact> for the whole SCC.
    AlgebraExpr acc = AlgebraExpr::IterVar(0);
    AlgebraExpr body = AlgebraExpr::Empty();
    bool first = true;
    for (const std::string& p : members) {
      AlgebraExpr step = one_step.at(p);
      for (const std::string& q : members) {
        step = ReplaceRelation(step, q, TaggedSlice(q, acc), 0);
      }
      AlgebraExpr tagged = AlgebraExpr::Map(
          FnExpr::MkTuple({FnExpr::Cst(Value::Atom(p)), FnExpr::Arg()}),
          std::move(step));
      body = first ? std::move(tagged)
                   : AlgebraExpr::Union(std::move(body), std::move(tagged));
      first = false;
    }
    AlgebraExpr fixpoint = AlgebraExpr::Ifp(std::move(body));
    // Each member projects its slice out of the shared fixpoint.  The
    // fixpoint expression is duplicated per member (macro semantics).
    for (const std::string& p : members) {
      out.DefineConstant(p, TaggedSlice(p, fixpoint));
    }
  }
  return out;
}

Result<CompiledAlgebraQuery> PositiveIfpToStratified(
    const AlgebraExpr& query, const AlgebraProgram& program) {
  AWR_RETURN_IF_ERROR(algebra::CheckPositiveIfpAlgebra(query, program));
  AWR_ASSIGN_OR_RETURN(CompiledAlgebraQuery compiled,
                       CompileAlgebraQuery(query, program));
  AWR_RETURN_IF_ERROR(datalog::Stratify(compiled.program).status());
  return compiled;
}

}  // namespace awr::translate
