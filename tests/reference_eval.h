// A naive reference evaluator for datalog with negation, written from
// the paper's definitions and sharing no evaluation code with the
// engine: no planner, no VM, no ValueSet index and no word table.  A
// rule body is matched by nested loops over sorted fact sets in body
// order, and each semantics is its textbook fixpoint:
//
//  * S(J), the least model with negation frozen against J (§2.2);
//  * the inflationary stages I_{k+1} = I_k ∪ T(I_k) (Thm 3.1);
//  * the well-founded model by the alternating fixpoint: certain is the
//    least fixpoint of S∘S, possible is S(certain);
//  * the ground instances over the well-founded model's possible set,
//    and the stable models M = S(M) between its two bounds.
//
// The differential suites compare every engine against it.
#ifndef AWR_TESTS_REFERENCE_EVAL_H_
#define AWR_TESTS_REFERENCE_EVAL_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "awr/common/result.h"
#include "awr/datalog/ast.h"
#include "awr/datalog/database.h"
#include "awr/datalog/functions.h"

namespace awr::reference {

/// A set of facts: predicate -> its argument tuples, sorted.  No
/// predicate maps to an empty set, so equal fact sets compare equal.
using Model = std::map<std::string, std::set<Value>>;

/// The facts of an engine interpretation (EDB, model or stable model).
Model FromInterpretation(const datalog::Interpretation& interp);

/// One fact per line, `pred<args>`, in sorted order.
std::string Render(const Model& model);

/// The facts of `b` not in `a`, rendered (for failure messages).
std::string Difference(const Model& a, const Model& b);

struct ThreeValued {
  Model certain;
  Model possible;
};

/// S(J): the least model of `program` over `edb` in which `not P(t)`
/// holds iff `neg_context` lacks P(t).
Result<Model> FrozenNegationModel(const datalog::Program& program,
                                  const Model& edb, const Model& neg_context,
                                  const datalog::FunctionRegistry& fns);

/// The least model of a positive program (negation, if any, frozen
/// against the empty set).
Result<Model> MinimalModel(const datalog::Program& program, const Model& edb,
                           const datalog::FunctionRegistry& fns);

/// The inflationary fixpoint: every round fires every rule against the
/// facts derived so far, negation included, and adds what it derives.
Result<Model> Inflationary(const datalog::Program& program, const Model& edb,
                           const datalog::FunctionRegistry& fns);

/// The well-founded model by the alternating fixpoint.
Result<ThreeValued> WellFounded(const datalog::Program& program,
                                const Model& edb,
                                const datalog::FunctionRegistry& fns);

/// The ground program over `wfs`, one line per EDB fact and per rule
/// instance, sorted: positive atoms range over `wfs.possible`, an
/// instance whose negated atom is certain is dropped, and a negated
/// atom outside `wfs.possible` is left out of its instance.  Lines use
/// GroundProgram::ToString's format.
Result<std::vector<std::string>> GroundLines(
    const datalog::Program& program, const Model& edb, const ThreeValued& wfs,
    const datalog::FunctionRegistry& fns);

/// Gelfond–Lifschitz: `model` is stable iff S(model) == model.
Result<bool> IsStable(const datalog::Program& program, const Model& edb,
                      const Model& model, const datalog::FunctionRegistry& fns);

/// Every stable model: each M with wfs.certain ⊆ M ⊆ wfs.possible and
/// S(M) == M, found by trying every subset of the undefined atoms.
/// Fails when more than `max_undefined` atoms are undefined.
Result<std::set<Model>> StableModels(const datalog::Program& program,
                                     const Model& edb, const ThreeValued& wfs,
                                     const datalog::FunctionRegistry& fns,
                                     size_t max_undefined);

/// Number of atoms in `wfs.possible` but not in `wfs.certain`.
size_t UndefinedCount(const ThreeValued& wfs);

}  // namespace awr::reference

#endif  // AWR_TESTS_REFERENCE_EVAL_H_
