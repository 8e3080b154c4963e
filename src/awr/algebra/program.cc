#include "awr/algebra/program.h"

#include <sstream>
#include <unordered_map>
#include <unordered_set>

namespace awr::algebra {

std::string SetDb::ToString() const {
  std::ostringstream os;
  for (const auto& [name, extent] : sets_) {
    os << name << " = " << extent.ToString() << "\n";
  }
  return os.str();
}

const Definition* AlgebraProgram::FindDef(const std::string& name) const {
  for (const Definition& d : defs_) {
    if (d.name == name) return &d;
  }
  return nullptr;
}

namespace {

Status ValidateExpr(const AlgebraExpr& e, const AlgebraProgram& program,
                    size_t n_params) {
  if (e.kind() == AlgebraExpr::Kind::kParam && e.index() >= n_params) {
    return Status::InvalidArgument("parameter $" + std::to_string(e.index()) +
                                   " out of range (definition has " +
                                   std::to_string(n_params) + " parameters)");
  }
  if (e.kind() == AlgebraExpr::Kind::kCall) {
    const Definition* callee = program.FindDef(e.name());
    if (callee == nullptr) {
      return Status::NotFound("call of undefined operation " + e.name());
    }
    if (callee->n_params != e.children().size()) {
      return Status::InvalidArgument(
          "call of " + e.name() + " with " +
          std::to_string(e.children().size()) + " argument(s); definition has " +
          std::to_string(callee->n_params));
    }
  }
  for (const AlgebraExpr& c : e.children()) {
    AWR_RETURN_IF_ERROR(ValidateExpr(c, program, n_params));
  }
  return Status::OK();
}

}  // namespace

Status AlgebraProgram::Validate() const {
  std::unordered_set<std::string> names;
  for (const Definition& d : defs_) {
    if (!names.insert(d.name).second) {
      return Status::InvalidArgument("duplicate definition of " + d.name);
    }
  }
  for (const Definition& d : defs_) {
    if (d.body.MaxParamIndex() >= static_cast<int>(d.n_params)) {
      return Status::InvalidArgument(
          "definition " + d.name + " uses parameter $" +
          std::to_string(d.body.MaxParamIndex()) + " but declares only " +
          std::to_string(d.n_params));
    }
    AWR_RETURN_IF_ERROR(d.body.CheckIterVars());
    AWR_RETURN_IF_ERROR(ValidateExpr(d.body, *this, d.n_params));
  }
  return Status::OK();
}

std::vector<std::string> AlgebraProgram::RecursiveDefs() const {
  std::unordered_set<std::string> def_names;
  for (const Definition& d : defs_) def_names.insert(d.name);
  // def -> defs it references directly, whether through a call f(...)
  // or by naming a set constant as a relation (both spellings denote
  // the defined operation; a 0-ary constant is most naturally written
  // as a relation name, as in `S = {0} ∪ MAP₊₂(S)`).
  std::unordered_map<std::string, std::vector<std::string>> calls;
  for (const Definition& d : defs_) {
    std::vector<std::string> out;
    d.body.CollectCalls(&out);
    std::vector<std::string> rels;
    d.body.CollectRelations(&rels);
    for (std::string& r : rels) {
      if (def_names.count(r) > 0) out.push_back(std::move(r));
    }
    calls[d.name] = std::move(out);
  }
  // d is recursive iff d is reachable from d.
  std::vector<std::string> recursive;
  for (const Definition& d : defs_) {
    std::unordered_set<std::string> seen;
    std::vector<std::string> stack = calls[d.name];
    bool cyclic = false;
    while (!stack.empty() && !cyclic) {
      std::string cur = stack.back();
      stack.pop_back();
      if (cur == d.name) {
        cyclic = true;
        break;
      }
      if (!seen.insert(cur).second) continue;
      auto it = calls.find(cur);
      if (it != calls.end()) {
        stack.insert(stack.end(), it->second.begin(), it->second.end());
      }
    }
    if (cyclic) recursive.push_back(d.name);
  }
  return recursive;
}

std::string AlgebraProgram::ToString() const {
  std::ostringstream os;
  for (const Definition& d : defs_) os << d.ToString() << "\n";
  return os.str();
}

namespace {

// Substitutes `args` for the parameters of a definition body.  `depth`
// counts IFPs entered inside the body so far: an argument spliced in at
// that depth has its free IterVars shifted by `depth` so they still
// refer to the IFPs enclosing the original call site.
AlgebraExpr SubstParams(const AlgebraExpr& body,
                        const std::vector<AlgebraExpr>& args, size_t depth) {
  if (body.kind() == AlgebraExpr::Kind::kParam) {
    return args[body.index()].ShiftFreeIterVars(depth);
  }
  const size_t inner =
      body.kind() == AlgebraExpr::Kind::kIfp ? depth + 1 : depth;
  return body.MapChildren(
      [&](const AlgebraExpr& c) { return SubstParams(c, args, inner); });
}

class Inliner {
 public:
  // Definitions named in `keep` stay as relation references; everything
  // else is macro-expanded.
  Inliner(const AlgebraProgram& program, std::unordered_set<std::string> keep)
      : program_(program), keep_(std::move(keep)) {}

  Result<AlgebraExpr> Expand(const AlgebraExpr& e, size_t fuel) {
    if (fuel == 0) {
      return Status::ResourceExhausted(
          "definition inlining exceeded depth limit (deeply nested "
          "non-recursive calls?)");
    }
    if (e.kind() == AlgebraExpr::Kind::kRelation) {
      // A relation name may denote a defined set constant; kept
      // constants stay as references, other 0-ary defs are expanded
      // like calls.
      const Definition* def = program_.FindDef(e.name());
      if (def == nullptr || keep_.count(e.name()) > 0) return e;
      if (def->n_params != 0) {
        return Status::InvalidArgument(
            "operation " + e.name() + " (with " +
            std::to_string(def->n_params) +
            " parameters) referenced as a set constant");
      }
      return Expand(def->body, fuel - 1);
    }
    const bool call = e.kind() == AlgebraExpr::Kind::kCall;
    if (!call && e.children().empty()) return e;
    std::vector<AlgebraExpr> children;
    children.reserve(e.children().size());
    for (const AlgebraExpr& c : e.children()) {
      AWR_ASSIGN_OR_RETURN(AlgebraExpr expanded, Expand(c, fuel - 1));
      children.push_back(std::move(expanded));
    }
    if (!call) return e.WithChildren(std::move(children));
    if (keep_.count(e.name()) > 0) {
      // A kept definition must be a set constant in the §6 normal
      // form; its reference becomes a relation name.
      if (!children.empty()) {
        return Status::NotImplemented(
            "recursive parameterized definition " + e.name() +
            " is outside the supported §6 normal form (recursive "
            "definitions must be set constants)");
      }
      return AlgebraExpr::Relation(e.name());
    }
    const Definition* def = program_.FindDef(e.name());
    if (def == nullptr) {
      return Status::NotFound("call of undefined operation " + e.name());
    }
    return Expand(SubstParams(def->body, children, 0), fuel - 1);
  }

 private:
  const AlgebraProgram& program_;
  std::unordered_set<std::string> keep_;
};

constexpr size_t kInlineFuel = 4096;

}  // namespace

Result<AlgebraProgram> NormalizeProgram(const AlgebraProgram& program) {
  AWR_RETURN_IF_ERROR(program.Validate());
  std::vector<std::string> rec = program.RecursiveDefs();
  std::unordered_set<std::string> recursive(rec.begin(), rec.end());
  for (const Definition& d : program.defs()) {
    if (recursive.count(d.name) > 0 && d.n_params > 0) {
      return Status::NotImplemented(
          "recursive parameterized definition " + d.name +
          " is outside the supported §6 normal form (recursive definitions "
          "must be set constants)");
    }
  }
  // Every set constant (0-ary definition) survives normalization as an
  // equation of the system — recursive or not (a deductive program's
  // non-recursive predicates still denote sets in its valid model).
  // Only parameterized (necessarily non-recursive) definitions are
  // macro-expanded away.
  std::unordered_set<std::string> keep;
  for (const Definition& d : program.defs()) {
    if (d.n_params == 0) keep.insert(d.name);
  }
  Inliner inliner(program, keep);
  AlgebraProgram out;
  for (const Definition& d : program.defs()) {
    if (d.n_params != 0) continue;  // fully inlined away
    AWR_ASSIGN_OR_RETURN(AlgebraExpr body, inliner.Expand(d.body, kInlineFuel));
    out.AddDef(Definition{d.name, 0, std::move(body)});
  }
  return out;
}

Result<AlgebraExpr> InlineCalls(const AlgebraExpr& expr,
                                const AlgebraProgram& program) {
  std::vector<std::string> rec = program.RecursiveDefs();
  std::unordered_set<std::string> recursive(rec.begin(), rec.end());
  Inliner inliner(program, std::move(recursive));
  return inliner.Expand(expr, kInlineFuel);
}

}  // namespace awr::algebra
