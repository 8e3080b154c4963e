#include "awr/algebra/ast.h"

#include <algorithm>

#include "awr/common/strings.h"

namespace awr::algebra {

namespace {
std::shared_ptr<AlgebraExpr::Rep> NewRep(AlgebraExpr::Kind kind) {
  auto rep = std::make_shared<AlgebraExpr::Rep>();
  rep->kind = kind;
  return rep;
}
}  // namespace

AlgebraExpr AlgebraExpr::Relation(std::string name) {
  auto rep = NewRep(Kind::kRelation);
  rep->name = std::move(name);
  return AlgebraExpr(std::move(rep));
}

AlgebraExpr AlgebraExpr::Param(size_t index) {
  auto rep = NewRep(Kind::kParam);
  rep->index = index;
  return AlgebraExpr(std::move(rep));
}

AlgebraExpr AlgebraExpr::LiteralSet(ValueSet set) {
  auto rep = NewRep(Kind::kLiteralSet);
  rep->literal = std::move(set);
  return AlgebraExpr(std::move(rep));
}

AlgebraExpr AlgebraExpr::Union(AlgebraExpr lhs, AlgebraExpr rhs) {
  auto rep = NewRep(Kind::kUnion);
  rep->children = {std::move(lhs), std::move(rhs)};
  return AlgebraExpr(std::move(rep));
}

AlgebraExpr AlgebraExpr::Diff(AlgebraExpr lhs, AlgebraExpr rhs) {
  auto rep = NewRep(Kind::kDiff);
  rep->children = {std::move(lhs), std::move(rhs)};
  return AlgebraExpr(std::move(rep));
}

AlgebraExpr AlgebraExpr::Product(AlgebraExpr lhs, AlgebraExpr rhs) {
  auto rep = NewRep(Kind::kProduct);
  rep->children = {std::move(lhs), std::move(rhs)};
  return AlgebraExpr(std::move(rep));
}

AlgebraExpr AlgebraExpr::Select(FnExpr test, AlgebraExpr sub) {
  auto rep = NewRep(Kind::kSelect);
  rep->fn = std::move(test);
  rep->children = {std::move(sub)};
  return AlgebraExpr(std::move(rep));
}

AlgebraExpr AlgebraExpr::Map(FnExpr f, AlgebraExpr sub) {
  auto rep = NewRep(Kind::kMap);
  rep->fn = std::move(f);
  rep->children = {std::move(sub)};
  return AlgebraExpr(std::move(rep));
}

AlgebraExpr AlgebraExpr::Ifp(AlgebraExpr body) {
  auto rep = NewRep(Kind::kIfp);
  rep->children = {std::move(body)};
  return AlgebraExpr(std::move(rep));
}

AlgebraExpr AlgebraExpr::IterVar(size_t level) {
  auto rep = NewRep(Kind::kIterVar);
  rep->index = level;
  return AlgebraExpr(std::move(rep));
}

AlgebraExpr AlgebraExpr::Call(std::string def_name,
                              std::vector<AlgebraExpr> args) {
  auto rep = NewRep(Kind::kCall);
  rep->name = std::move(def_name);
  rep->children = std::move(args);
  return AlgebraExpr(std::move(rep));
}

void AlgebraExpr::CollectRelations(std::vector<std::string>* out) const {
  if (kind() == Kind::kRelation) out->push_back(name());
  for (const AlgebraExpr& c : children()) c.CollectRelations(out);
}

void AlgebraExpr::CollectCalls(std::vector<std::string>* out) const {
  if (kind() == Kind::kCall) out->push_back(name());
  for (const AlgebraExpr& c : children()) c.CollectCalls(out);
}

int AlgebraExpr::MaxParamIndex() const {
  int max = kind() == Kind::kParam ? static_cast<int>(index()) : -1;
  for (const AlgebraExpr& c : children()) {
    max = std::max(max, c.MaxParamIndex());
  }
  return max;
}

namespace {
Status CheckIterVarsAt(const AlgebraExpr& e, size_t depth) {
  switch (e.kind()) {
    case AlgebraExpr::Kind::kIterVar:
      if (e.index() >= depth) {
        return Status::InvalidArgument(
            "IterVar(" + std::to_string(e.index()) +
            ") escapes its enclosing IFP nesting (depth " +
            std::to_string(depth) + ")");
      }
      return Status::OK();
    case AlgebraExpr::Kind::kIfp:
      return CheckIterVarsAt(e.children()[0], depth + 1);
    default:
      for (const AlgebraExpr& c : e.children()) {
        AWR_RETURN_IF_ERROR(CheckIterVarsAt(c, depth));
      }
      return Status::OK();
  }
}
}  // namespace

Status AlgebraExpr::CheckIterVars() const { return CheckIterVarsAt(*this, 0); }

AlgebraExpr AlgebraExpr::WithChildren(std::vector<AlgebraExpr> children) const {
  auto rep = std::make_shared<Rep>(*rep_);
  rep->children = std::move(children);
  return AlgebraExpr(std::move(rep));
}

namespace {
// IterVars at or above `cutoff` are free in the subexpression walked.
AlgebraExpr ShiftFrom(const AlgebraExpr& e, size_t delta, size_t cutoff) {
  if (e.kind() == AlgebraExpr::Kind::kIterVar) {
    return e.index() >= cutoff ? AlgebraExpr::IterVar(e.index() + delta) : e;
  }
  const size_t inner =
      e.kind() == AlgebraExpr::Kind::kIfp ? cutoff + 1 : cutoff;
  return e.MapChildren(
      [&](const AlgebraExpr& c) { return ShiftFrom(c, delta, inner); });
}
}  // namespace

AlgebraExpr AlgebraExpr::ShiftFreeIterVars(size_t delta) const {
  return delta == 0 ? *this : ShiftFrom(*this, delta, 0);
}

std::string AlgebraExpr::ToString() const {
  switch (kind()) {
    case Kind::kRelation:
      return name();
    case Kind::kParam:
      return "$" + std::to_string(index());
    case Kind::kLiteralSet:
      return literal().ToString();
    case Kind::kUnion:
      return "(" + children()[0].ToString() + " ∪ " +
             children()[1].ToString() + ")";
    case Kind::kDiff:
      return "(" + children()[0].ToString() + " − " +
             children()[1].ToString() + ")";
    case Kind::kProduct:
      return "(" + children()[0].ToString() + " × " +
             children()[1].ToString() + ")";
    case Kind::kSelect:
      return "σ[" + fn().ToString() + "](" + children()[0].ToString() + ")";
    case Kind::kMap:
      return "MAP[" + fn().ToString() + "](" + children()[0].ToString() + ")";
    case Kind::kIfp:
      return "IFP(" + children()[0].ToString() + ")";
    case Kind::kIterVar:
      return "#" + std::to_string(index());
    case Kind::kCall:
      return name() + "(" +
             JoinMapped(children(), ", ",
                        [](const AlgebraExpr& e) { return e.ToString(); }) +
             ")";
  }
  return "?";
}

std::string Definition::ToString() const {
  std::string params;
  for (size_t i = 0; i < n_params; ++i) {
    if (i > 0) params += ", ";
    params += "$" + std::to_string(i);
  }
  return name + "(" + params + ") = " + body.ToString();
}

}  // namespace awr::algebra
