#include "awr/term/term.h"

#include <mutex>
#include <sstream>
#include <unordered_map>

#include "awr/common/hash.h"
#include "awr/common/strings.h"

namespace awr::term {

namespace {
size_t ComputeHash(bool is_var, const std::string& name,
                   const std::vector<Term>& children) {
  size_t h = HashCombine(is_var ? 0x9e3779b9u : 0x85ebca6bu,
                         std::hash<std::string>{}(name));
  for (const Term& c : children) h = HashCombine(h, c.hash());
  return h;
}

bool RepStructurallyEqual(const Term::Rep& a, const Term::Rep& b) {
  if (a.kind != b.kind || a.hash != b.hash || a.name != b.name) return false;
  if (a.kind == Term::Kind::kVar) return a.sort == b.sort;
  if (a.children.size() != b.children.size()) return false;
  for (size_t i = 0; i < a.children.size(); ++i) {
    if (a.children[i] != b.children[i]) return false;
  }
  return true;
}

// The global term interner: structural hash-consing for Term, the same
// scheme as the composite Value interner (value.cc) — 16 shards by
// structural hash, canonical reps immortal for the process lifetime.
// Children are interned before their parent (factories intern
// bottom-up), so the structural equality used for bucket probes
// compares children by pointer identity.
class TermInterner {
 public:
  static TermInterner& Global() {
    static TermInterner* interner = new TermInterner();
    return *interner;
  }

  std::shared_ptr<const Term::Rep> Intern(Term::Rep&& probe) {
    Shard& shard = shards_[probe.hash & (kShardCount - 1)];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.reps.find(&probe);
    if (it != shard.reps.end()) return it->second;
    auto rep = std::make_shared<const Term::Rep>(std::move(probe));
    shard.reps.emplace(rep.get(), rep);
    return rep;
  }

 private:
  TermInterner() = default;

  struct RepPtrHash {
    size_t operator()(const Term::Rep* rep) const { return rep->hash; }
  };
  struct RepPtrEq {
    bool operator()(const Term::Rep* a, const Term::Rep* b) const {
      return RepStructurallyEqual(*a, *b);
    }
  };

  static constexpr size_t kShardCount = 16;

  struct Shard {
    std::mutex mu;
    std::unordered_map<const Term::Rep*, std::shared_ptr<const Term::Rep>,
                       RepPtrHash, RepPtrEq>
        reps;
  };

  Shard shards_[kShardCount];
};

}  // namespace

Term Term::Var(std::string name, std::string sort) {
  Rep rep;
  rep.kind = Kind::kVar;
  rep.name = std::move(name);
  rep.sort = std::move(sort);
  rep.hash = ComputeHash(true, rep.name, rep.children);
  return Term(TermInterner::Global().Intern(std::move(rep)));
}

Term Term::Op(std::string op, std::vector<Term> children) {
  Rep rep;
  rep.kind = Kind::kOp;
  rep.name = std::move(op);
  rep.children = std::move(children);
  rep.hash = ComputeHash(false, rep.name, rep.children);
  return Term(TermInterner::Global().Intern(std::move(rep)));
}

bool Term::IsGround() const {
  if (is_var()) return false;
  for (const Term& c : children()) {
    if (!c.IsGround()) return false;
  }
  return true;
}

size_t Term::Size() const {
  size_t n = 1;
  if (is_op()) {
    for (const Term& c : children()) n += c.Size();
  }
  return n;
}

void Term::CollectVars(std::map<std::string, std::string>* out) const {
  if (is_var()) {
    out->emplace(name(), var_sort());
    return;
  }
  for (const Term& c : children()) c.CollectVars(out);
}

bool Term::operator==(const Term& other) const {
  // Hash-consing gives every structure one Rep.
  return rep_ == other.rep_;
}

int Term::Compare(const Term& a, const Term& b) {
  if (a.rep_ == b.rep_) return 0;
  if (a.kind() != b.kind()) return a.is_var() ? -1 : 1;
  if (int c = a.name().compare(b.name()); c != 0) return c < 0 ? -1 : 1;
  if (a.is_var()) return a.var_sort().compare(b.var_sort());
  size_t n = std::min(a.children().size(), b.children().size());
  for (size_t i = 0; i < n; ++i) {
    int c = Compare(a.children()[i], b.children()[i]);
    if (c != 0) return c;
  }
  if (a.children().size() == b.children().size()) return 0;
  return a.children().size() < b.children().size() ? -1 : 1;
}

Result<std::string> Term::SortOf(const Signature& sig) const {
  if (is_var()) {
    if (!sig.HasSort(var_sort())) {
      return Status::InvalidArgument("variable " + name() +
                                     " has undeclared sort " + var_sort());
    }
    return var_sort();
  }
  const OpDecl* op = sig.FindOp(name());
  if (op == nullptr) {
    return Status::NotFound("unknown operation " + name());
  }
  if (op->arg_sorts.size() != children().size()) {
    return Status::InvalidArgument(
        "operation " + name() + " expects " +
        std::to_string(op->arg_sorts.size()) + " argument(s), got " +
        std::to_string(children().size()));
  }
  for (size_t i = 0; i < children().size(); ++i) {
    AWR_ASSIGN_OR_RETURN(std::string got, children()[i].SortOf(sig));
    if (got != op->arg_sorts[i]) {
      return Status::InvalidArgument("operation " + name() + " argument " +
                                     std::to_string(i) + " has sort " + got +
                                     ", expected " + op->arg_sorts[i]);
    }
  }
  return op->result_sort;
}

std::string Term::ToString() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Term& t) {
  os << t.name();
  if (t.is_op() && !t.children().empty()) {
    os << "(";
    bool first = true;
    for (const Term& c : t.children()) {
      if (!first) os << ", ";
      first = false;
      os << c;
    }
    os << ")";
  }
  return os;
}

Term ApplySubst(const Term& t, const Subst& subst) {
  if (t.is_var()) {
    auto it = subst.find(t.name());
    return it == subst.end() ? t : it->second;
  }
  std::vector<Term> children;
  children.reserve(t.children().size());
  for (const Term& c : t.children()) children.push_back(ApplySubst(c, subst));
  return Term::Op(t.name(), std::move(children));
}

bool MatchTerm(const Term& pattern, const Term& subject, Subst* subst) {
  if (pattern.is_var()) {
    auto [it, inserted] = subst->emplace(pattern.name(), subject);
    return inserted || it->second == subject;
  }
  if (!subject.is_op() || pattern.name() != subject.name() ||
      pattern.children().size() != subject.children().size()) {
    return false;
  }
  for (size_t i = 0; i < pattern.children().size(); ++i) {
    if (!MatchTerm(pattern.children()[i], subject.children()[i], subst)) {
      return false;
    }
  }
  return true;
}

}  // namespace awr::term
