#include "awr/algebra/join.h"

#include <optional>
#include <unordered_map>

#include "awr/common/hash.h"

namespace awr::algebra {

namespace {

// The conjuncts of `test` in the order `and` evaluates them.
void Conjuncts(const FnExpr& test, std::vector<const FnExpr*>* out) {
  if (test.kind() == FnExpr::Kind::kAnd) {
    Conjuncts(test.children()[0], out);
    Conjuncts(test.children()[1], out);
  } else {
    out->push_back(&test);
  }
}

// Reads `e` as a Get chain rooted at Get(Arg, side), side 0 or 1; fills
// `side` and the projections applied below the root, outermost last.
bool ReadPath(const FnExpr& e, size_t* side, std::vector<size_t>* path) {
  std::vector<size_t> reversed;
  for (const FnExpr* cur = &e; cur->kind() == FnExpr::Kind::kGet;
       cur = &cur->children()[0]) {
    if (cur->children()[0].kind() == FnExpr::Kind::kArg) {
      if (cur->index() > 1) return false;
      *side = cur->index();
      path->assign(reversed.rbegin(), reversed.rend());
      return true;
    }
    reversed.push_back(cur->index());
  }
  return false;
}

// The component of `v` reached along `path`, or null where a projection
// would fail (a non-tuple, or an index out of range).
const Value* Follow(const Value& v, const std::vector<size_t>& path) {
  const Value* cur = &v;
  for (size_t i : path) {
    if (!cur->is_tuple() || i >= cur->size()) return nullptr;
    cur = &cur->items()[i];
  }
  return cur;
}

// Fills `key` with the components of `v` along `paths`; false when one
// of them does not exist.
bool ExtractKey(const Value& v, const std::vector<std::vector<size_t>>& paths,
                std::vector<const Value*>* key) {
  for (size_t k = 0; k < paths.size(); ++k) {
    (*key)[k] = Follow(v, paths[k]);
    if ((*key)[k] == nullptr) return false;
  }
  return true;
}

size_t KeyHash(const std::vector<const Value*>& key) {
  size_t h = 0;
  for (const Value* v : key) h = HashCombine(h, v->hash());
  return h;
}

// The hash equi-join, or nullopt when the plain evaluation must decide
// (see SelectProduct).  The smaller side is indexed.
std::optional<ValueSet> HashJoin(const FnExpr& test, const JoinKeys& keys,
                                 const ValueSet& a, const ValueSet& b,
                                 const FunctionRegistry& fns) {
  const bool build_a = a.size() <= b.size();
  const ValueSet& build = build_a ? a : b;
  const ValueSet& probe = build_a ? b : a;
  const auto& build_paths = build_a ? keys.left : keys.right;
  const auto& probe_paths = build_a ? keys.right : keys.left;

  std::vector<const Value*> key(build_paths.size());
  std::unordered_map<size_t, std::vector<const Value*>> index;
  index.reserve(build.size());
  for (const Value& v : build) {
    if (!ExtractKey(v, build_paths, &key)) return std::nullopt;
    index[KeyHash(key)].push_back(&v);
  }

  ValueSet out;
  for (const Value& p : probe) {
    if (!ExtractKey(p, probe_paths, &key)) return std::nullopt;
    auto bucket = index.find(KeyHash(key));
    if (bucket == index.end()) continue;
    for (const Value* m : bucket->second) {
      bool same_key = true;
      for (size_t k = 0; k < key.size() && same_key; ++k) {
        same_key = *Follow(*m, build_paths[k]) == *key[k];
      }
      if (!same_key) continue;
      Value pair = build_a ? Value::Pair(*m, p) : Value::Pair(p, *m);
      Result<bool> keep = test.EvalTest(pair, fns);
      if (!keep.ok()) return std::nullopt;
      if (*keep) out.Insert(pair);
    }
  }
  return out;
}

}  // namespace

JoinKeys EquiJoinKeys(const FnExpr& test) {
  std::vector<const FnExpr*> conjuncts;
  Conjuncts(test, &conjuncts);
  JoinKeys keys;
  for (const FnExpr* c : conjuncts) {
    if (c->kind() != FnExpr::Kind::kCmp ||
        c->cmp_kind() != FnExpr::CmpKind::kEq) {
      break;
    }
    size_t side[2];
    std::vector<size_t> path[2];
    if (!ReadPath(c->children()[0], &side[0], &path[0]) ||
        !ReadPath(c->children()[1], &side[1], &path[1]) ||
        side[0] == side[1]) {
      break;
    }
    keys.left.push_back(std::move(path[side[0] == 0 ? 0 : 1]));
    keys.right.push_back(std::move(path[side[0] == 0 ? 1 : 0]));
  }
  return keys;
}

Result<ValueSet> SelectProduct(const FnExpr& test, const JoinKeys& keys,
                               const ValueSet& a, const ValueSet& b,
                               const FunctionRegistry& fns) {
  if (!keys.empty()) {
    std::optional<ValueSet> joined = HashJoin(test, keys, a, b, fns);
    if (joined.has_value()) return *std::move(joined);
  }
  return SelectSet(test, SetProduct(a, b), fns);
}

ValueSet DiffProduct(const ValueSet& a, const ValueSet& b, const ValueSet& c) {
  ValueSet out;
  for (const Value& v : a) {
    const bool in_product = v.is_tuple() && v.size() == 2 &&
                            b.Contains(v.items()[0]) &&
                            c.Contains(v.items()[1]);
    if (!in_product) out.Insert(v);
  }
  return out;
}

Result<ValueSet> SelectSet(const FnExpr& test, const ValueSet& s,
                           const FunctionRegistry& fns) {
  ValueSet out;
  for (const Value& v : s) {
    AWR_ASSIGN_OR_RETURN(bool keep, test.EvalTest(v, fns));
    if (keep) out.Insert(v);
  }
  return out;
}

Result<ValueSet> MapSet(const FnExpr& f, const ValueSet& s,
                        const FunctionRegistry& fns) {
  ValueSet out;
  for (const Value& v : s) {
    AWR_ASSIGN_OR_RETURN(Value mapped, f.Eval(v, fns));
    out.Insert(std::move(mapped));
  }
  return out;
}

}  // namespace awr::algebra
