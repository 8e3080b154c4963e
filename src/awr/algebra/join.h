#ifndef AWR_ALGEBRA_JOIN_H_
#define AWR_ALGEBRA_JOIN_H_

#include <cstddef>
#include <vector>

#include "awr/algebra/fnexpr.h"
#include "awr/common/result.h"
#include "awr/value/value_set.h"

namespace awr::algebra {

/// Set-at-a-time operators of the algebra evaluator (eval.h), which runs
/// them once for each bound a pass computes.
///
/// The two product shapes the Prop 6.1 / Prop 5.x translations emit are
/// computed without building the product:
///
///  * `σ_p(A × B)` runs as a hash equi-join when `p` starts with key
///    equalities (EquiJoinKeys);
///  * `A − (B × C)` runs as a membership filter on A (DiffProduct).
///
/// Callers still charge the `×` at its own site with the product's size
/// before calling these, so budgets bound the work the expression
/// denotes, not the work done.

/// The equi-join keys of a selection test over pairs `<a, b>`.  Key k
/// compares the component of `a` reached by projecting along left[k]
/// with the component of `b` reached along right[k].
struct JoinKeys {
  std::vector<std::vector<size_t>> left;
  std::vector<std::vector<size_t>> right;

  bool empty() const { return left.empty(); }
};

/// Reads the keys of `test`.  Its conjuncts are read in the order `and`
/// evaluates them; the keys are the longest leading run of conjuncts
/// `Eq(path, path')` where one path is a Get chain rooted at
/// `Get(Arg, 0)` and the other one rooted at `Get(Arg, 1)`.  Empty when
/// the first conjunct is no such equality.
JoinKeys EquiJoinKeys(const FnExpr& test);

/// σ_test(A × B).  With keys, one side is indexed by its key and the
/// other probes it; each candidate pair is built and tested with the
/// full `test`, so residual conjuncts keep their exact semantics (a pair
/// whose keys differ fails a leading equality, which evaluates without
/// error, so skipping it is exact).  When some element of either side
/// has no key (a non-tuple, or a projection out of range) or `test`
/// fails on a candidate, the product is built and filtered instead, so
/// the result and any error status are those of the plain evaluation.
Result<ValueSet> SelectProduct(const FnExpr& test, const JoinKeys& keys,
                               const ValueSet& a, const ValueSet& b,
                               const FunctionRegistry& fns);

/// A − (B × C): `v` is removed exactly when it is a 2-tuple with
/// `v.0 ∈ B` and `v.1 ∈ C`.
ValueSet DiffProduct(const ValueSet& a, const ValueSet& b, const ValueSet& c);

/// σ_test(S), element by element.
Result<ValueSet> SelectSet(const FnExpr& test, const ValueSet& s,
                           const FunctionRegistry& fns);

/// MAP_f(S), element by element.  When `f` is a Get chain rooted at Arg
/// (π_i, x.i.j, …) or a MkTuple of such chains, each component is read
/// along its path in place, as join keys are, without building and
/// releasing a Value at every node of `f`.  An element on which a path
/// fails (a non-tuple, or an index out of range) is evaluated by
/// FnExpr::Eval, so the status is exactly the one the tree walk returns.
Result<ValueSet> MapSet(const FnExpr& f, const ValueSet& s,
                        const FunctionRegistry& fns);

}  // namespace awr::algebra

#endif  // AWR_ALGEBRA_JOIN_H_
