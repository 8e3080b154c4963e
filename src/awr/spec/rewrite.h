#ifndef AWR_SPEC_REWRITE_H_
#define AWR_SPEC_REWRITE_H_

#include <unordered_map>
#include <vector>

#include "awr/common/context.h"
#include "awr/common/limits.h"
#include "awr/common/result.h"
#include "awr/spec/spec.h"

namespace awr::spec {

/// Configuration for the rewriting engine.
struct RewriteOptions {
  /// Maximum rewrite steps per Normalize call.
  size_t max_steps = 100000;
  /// Maximum size a term may grow to.
  size_t max_term_size = 100000;
  /// Optional resource governance (borrowed).  When set, every rewrite
  /// step also polls deadlines / cancellation / fault injection; the
  /// step and size limits above still apply unchanged.
  ExecutionContext* context = nullptr;
};

/// A conditional term rewriting system obtained by orienting a
/// specification's equations left-to-right.
///
/// This is the operational reading of initial-algebra semantics the
/// paper appeals to ("it is easy to see (using term rewriting) that..."
/// §2.2): ground terms are evaluated by innermost normalization.
/// Three rule classes:
///
///  * ordinary rules `l → r` (vars(r) ⊆ vars(l));
///  * *permutative* rules, where l and r have the same symbol multiset
///    (e.g. the INS commutation `INS(d, INS(d', s)) = INS(d', INS(d, s))`
///    of the §2.1 SET spec): applied only when the instantiated
///    right-hand side is strictly smaller in the total term order —
///    ordered rewriting, which terminates and yields a canonical form;
///  * conditional rules: premises are decided by recursively
///    normalizing both sides; a disequation premise holds when the
///    normal forms differ (negation as inequality of normal forms —
///    sound for the confluent, terminating systems used here, and
///    exactly how the MEM-totalization disequation of §2.2 is meant to
///    behave operationally).
class RewriteSystem {
 public:
  /// Builds the system from `spec`'s equations.  Equations whose
  /// right side has variables not occurring on the left are rejected.
  static Result<RewriteSystem> FromSpec(const Specification& spec,
                                        RewriteOptions opts = {});

  /// Innermost normalization of a ground term.
  Result<Term> Normalize(const Term& t) const;

  /// True iff the ground terms have equal normal forms.
  Result<bool> Equal(const Term& a, const Term& b) const;

  size_t rule_count() const { return rules_.size(); }

 private:
  struct RewriteRule {
    Term lhs;
    Term rhs;
    std::vector<EqLiteral> premises;
    bool permutative = false;
  };

  RewriteSystem(std::vector<RewriteRule> rules, RewriteOptions opts)
      : rules_(std::move(rules)), opts_(opts) {}

  // Ground term -> its normal form, per Normalize() call.  Innermost
  // normalization re-normalizes identical subterms constantly (premise
  // evaluation re-derives the same normal forms; every contractum
  // re-normalizes children that are already normal); the memo
  // collapses each distinct subterm to one computation.  Terms are
  // hash-consed, so the key lookups are pointer-speed.  The map is
  // call-local, not a member: Normalize stays const and thread-safe
  // with no locking, and repeated Normalize calls behave identically —
  // which keeps governed fault-injection sweeps deterministic.  Only
  // successful normal forms are memoized (errors propagate uncached).
  using NormalMemo = std::unordered_map<Term, Term>;

  Result<Term> NormalizeInner(const Term& t, size_t* fuel,
                              NormalMemo* memo) const;
  // Tries all rules at the root; returns the rewritten term or nullopt.
  Result<bool> RewriteAtRoot(const Term& t, Term* out, size_t* fuel,
                             NormalMemo* memo) const;

  std::vector<RewriteRule> rules_;
  RewriteOptions opts_;
};

}  // namespace awr::spec

#endif  // AWR_SPEC_REWRITE_H_
