#ifndef AWR_TERM_TERM_H_
#define AWR_TERM_TERM_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "awr/common/result.h"
#include "awr/term/signature.h"

namespace awr::term {

/// A first-order term over a signature: a (sorted) variable or an
/// operation applied to argument terms.  Immutable, cheap to copy.
class Term {
 public:
  enum class Kind { kVar, kOp };

  /// A variable with an explicit sort (the paper writes
  /// "d, d' ∈ nat, s ∈ set(nat)").
  static Term Var(std::string name, std::string sort);
  /// An operation application (constants have no children).
  static Term Op(std::string op, std::vector<Term> children = {});

  Kind kind() const { return rep_->kind; }
  bool is_var() const { return kind() == Kind::kVar; }
  bool is_op() const { return kind() == Kind::kOp; }

  /// Variable name / operation name.
  const std::string& name() const { return rep_->name; }
  /// Declared sort of a variable.
  const std::string& var_sort() const { return rep_->sort; }
  const std::vector<Term>& children() const { return rep_->children; }

  bool IsGround() const;
  /// Total number of nodes.
  size_t Size() const;
  /// Appends (name, sort) of each variable occurrence.
  void CollectVars(std::map<std::string, std::string>* out) const;

  /// Structural equality (one Rep per structure, so O(1)) and a total
  /// order (by name, then children).
  bool operator==(const Term& other) const;
  bool operator!=(const Term& other) const { return !(*this == other); }
  static int Compare(const Term& a, const Term& b);
  bool operator<(const Term& other) const { return Compare(*this, other) < 0; }

  size_t hash() const { return rep_->hash; }

  /// Infers the sort of the term under `sig` (variables use their
  /// declared sorts); fails on unknown ops or arity/sort mismatches.
  Result<std::string> SortOf(const Signature& sig) const;

  std::string ToString() const;

  /// Implementation record (public only so the implementation file's
  /// hash-consing helpers can name it; not part of the API).  Every
  /// Rep is canonical: structurally equal terms share one Rep, held
  /// immortally by a global sharded interner, so operator== is pointer
  /// identity.  The rewrite engine's normal-form memo feeds on exactly
  /// this: memo lookups on hash-consed terms are pointer-speed.
  struct Rep {
    Kind kind;
    std::string name;
    std::string sort;  // variables only
    std::vector<Term> children;
    size_t hash = 0;
  };

 private:
  explicit Term(std::shared_ptr<const Rep> rep) : rep_(std::move(rep)) {}
  std::shared_ptr<const Rep> rep_;
};

std::ostream& operator<<(std::ostream& os, const Term& t);

/// A substitution: variable name -> term.
using Subst = std::map<std::string, Term>;

/// Applies `subst` to `t` (variables without a binding stay).
Term ApplySubst(const Term& t, const Subst& subst);

/// One-way matching: extends `subst` so that pattern·subst == subject.
/// Returns false (leaving `subst` in an unspecified state) on mismatch.
/// The subject is typically ground (rewriting).
bool MatchTerm(const Term& pattern, const Term& subject, Subst* subst);

}  // namespace awr::term

namespace std {
template <>
struct hash<awr::term::Term> {
  size_t operator()(const awr::term::Term& t) const { return t.hash(); }
};
}  // namespace std

#endif  // AWR_TERM_TERM_H_
