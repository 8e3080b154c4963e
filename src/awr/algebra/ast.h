#ifndef AWR_ALGEBRA_AST_H_
#define AWR_ALGEBRA_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "awr/algebra/fnexpr.h"
#include "awr/common/result.h"
#include "awr/value/value.h"
#include "awr/value/value_set.h"

namespace awr::algebra {

/// An expression of the (IFP-)algebra(=) family (paper §3):
///
///   E ::= RelName                  named database set / defined constant
///       | x_i                      parameter of the enclosing definition
///       | {v1, ..., vn}            literal set (incl. EMPTY)
///       | E ∪ E | E − E | E × E    union, difference, cartesian product
///       | σ_test(E) | MAP_f(E)     selection, restructuring
///       | IFP(E')                  inflationary fixed point; inside E',
///                                  IterVar(k) denotes the accumulating
///                                  set of the k-th enclosing IFP
///                                  (de Bruijn style, 0 = innermost)
///       | f(E, ..., E)             call of a defined operation
///
/// × produces pair values `<x, y>`; the n-ary shapes of the paper are
/// recovered with MAP over tuple constructors.
class AlgebraExpr {
 public:
  enum class Kind {
    kRelation,
    kParam,
    kLiteralSet,
    kUnion,
    kDiff,
    kProduct,
    kSelect,
    kMap,
    kIfp,
    kIterVar,
    kCall,
  };

  /// Factories -------------------------------------------------------
  static AlgebraExpr Relation(std::string name);
  static AlgebraExpr Param(size_t index);
  static AlgebraExpr LiteralSet(ValueSet set);
  static AlgebraExpr Empty() { return LiteralSet(ValueSet{}); }
  static AlgebraExpr Singleton(Value v) { return LiteralSet(ValueSet{v}); }
  static AlgebraExpr Union(AlgebraExpr lhs, AlgebraExpr rhs);
  static AlgebraExpr Diff(AlgebraExpr lhs, AlgebraExpr rhs);
  static AlgebraExpr Product(AlgebraExpr lhs, AlgebraExpr rhs);
  static AlgebraExpr Select(FnExpr test, AlgebraExpr sub);
  static AlgebraExpr Map(FnExpr f, AlgebraExpr sub);
  static AlgebraExpr Ifp(AlgebraExpr body);
  static AlgebraExpr IterVar(size_t level = 0);
  static AlgebraExpr Call(std::string def_name, std::vector<AlgebraExpr> args);

  /// Inspectors ------------------------------------------------------
  Kind kind() const { return rep_->kind; }
  const std::string& name() const { return rep_->name; }       // Relation/Call
  size_t index() const { return rep_->index; }                 // Param/IterVar
  const ValueSet& literal() const { return rep_->literal; }    // LiteralSet
  const FnExpr& fn() const { return rep_->fn; }                // Select/Map
  const std::vector<AlgebraExpr>& children() const { return rep_->children; }

  /// Collects the names of database relations / defined constants this
  /// expression mentions (via kRelation), and of operations it calls.
  void CollectRelations(std::vector<std::string>* out) const;
  void CollectCalls(std::vector<std::string>* out) const;

  /// The maximum parameter index used, or -1 when parameter-free.
  int MaxParamIndex() const;

  /// Checks that IterVar levels are within their enclosing IFP nesting.
  Status CheckIterVars() const;

  /// This node with its children replaced by `children`: same kind,
  /// name, index, literal and function.
  AlgebraExpr WithChildren(std::vector<AlgebraExpr> children) const;

  /// This node with each child `c` replaced by `f(c)`; a leaf as it is.
  template <typename F>
  AlgebraExpr MapChildren(const F& f) const {
    if (children().empty()) return *this;
    std::vector<AlgebraExpr> mapped;
    mapped.reserve(children().size());
    for (const AlgebraExpr& c : children()) mapped.push_back(f(c));
    return WithChildren(std::move(mapped));
  }

  /// This expression with every *free* IterVar index raised by `delta`
  /// (those bound by IFPs inside it are untouched): what splicing it in
  /// under `delta` more IFPs needs so it still refers to the same ones.
  AlgebraExpr ShiftFreeIterVars(size_t delta) const;

  std::string ToString() const;

  /// Opaque implementation record (public for the implementation file).
  struct Rep {
    Kind kind;
    std::string name;
    size_t index = 0;
    ValueSet literal;
    FnExpr fn = FnExpr::Arg();
    std::vector<AlgebraExpr> children;
  };

  /// This node's identity: shared by the copies of one node, distinct
  /// for distinct nodes while both are alive.
  const Rep* identity() const { return rep_.get(); }

 private:
  explicit AlgebraExpr(std::shared_ptr<const Rep> rep) : rep_(std::move(rep)) {}
  std::shared_ptr<const Rep> rep_;
};

/// A named operation definition `f(x_0, ..., x_{n-1}) = body`.
/// The paper restricts defined operations to set-typed parameters and a
/// single defining equation whose right side is an algebra expression
/// over the parameters (§3.2); `body` may call other definitions,
/// including recursively — that recursive capability is precisely what
/// turns the algebra into algebra=.
struct Definition {
  std::string name;
  size_t n_params = 0;
  AlgebraExpr body = AlgebraExpr::Empty();

  std::string ToString() const;
};

}  // namespace awr::algebra

#endif  // AWR_ALGEBRA_AST_H_
