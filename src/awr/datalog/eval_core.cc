#include "awr/datalog/eval_core.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdlib>
#include <cstring>

#include "awr/datalog/vm/cache.h"
#include "awr/datalog/vm/vm.h"

namespace awr::datalog {

bool BytecodeEnabledByDefault() {
  static const bool enabled = [] {
    const char* env = std::getenv("AWR_NO_BYTECODE");
    return env == nullptr || *env == '\0' || std::strcmp(env, "0") == 0;
  }();
  return enabled;
}

Result<Value> EvalTerm(const TermExpr& term, const Env& env,
                       const FunctionRegistry& fns) {
  switch (term.kind()) {
    case TermExpr::Kind::kVar: {
      const Value* v = env.Lookup(term.var());
      if (v == nullptr) {
        return Status::Internal("unbound variable during evaluation: " +
                                term.var().name());
      }
      return *v;
    }
    case TermExpr::Kind::kConst:
      return term.constant();
    case TermExpr::Kind::kApply: {
      std::vector<Value> args;
      args.reserve(term.args().size());
      for (const TermExpr& arg : term.args()) {
        AWR_ASSIGN_OR_RETURN(Value v, EvalTerm(arg, env, fns));
        args.push_back(std::move(v));
      }
      return fns.Apply(term.fn_name(), args);
    }
  }
  return Status::Internal("unknown term kind");
}

namespace {

Result<bool> EvalCompare(const Literal& lit, const Env& env,
                         const FunctionRegistry& fns) {
  AWR_ASSIGN_OR_RETURN(Value l, EvalTerm(lit.lhs, env, fns));
  AWR_ASSIGN_OR_RETURN(Value r, EvalTerm(lit.rhs, env, fns));
  int c = Value::Compare(l, r);
  switch (lit.op) {
    case CmpOp::kEq:
      return c == 0;
    case CmpOp::kNe:
      return c != 0;
    case CmpOp::kLt:
      return c < 0;
    case CmpOp::kLe:
      return c <= 0;
  }
  return Status::Internal("unknown comparison op");
}

class BodyEnumerator {
 public:
  BodyEnumerator(const Rule& rule, const RulePlan& plan, const BodyContext& ctx,
                 const std::function<Status(const Env&)>& on_match)
      : rule_(rule), plan_(plan), ctx_(ctx), on_match_(on_match) {}

  Status Run() {
    Env env;
    return EvalFrom(0, env);
  }

 private:
  Status EvalFrom(size_t k, Env& env) {
    if (k == plan_.size()) {
      if (ctx_.context != nullptr) {
        AWR_RETURN_IF_ERROR(ctx_.context->CheckInterrupt("body-match"));
      }
      return on_match_(env);
    }
    const Literal& lit = rule_.body[plan_.steps[k].literal];
    if (lit.is_atom()) {
      return lit.positive ? MatchPositive(lit, k, env) : TestNegative(lit, k, env);
    }
    return HandleCompare(lit, k, env);
  }

  Status MatchPositive(const Literal& lit, size_t k, Env& env) {
    const PlanStep& step = plan_.steps[k];
    const ValueSet& extent =
        ctx_.positive_extent(lit.atom.predicate, step.literal);
    if (extent.empty()) return Status::OK();
    // Arity validation, hoisted out of the per-fact loop: the extent's
    // shape histogram answers the uniform case in O(1); only a
    // malformed extent is scanned for the offending fact.
    if (!extent.UniformTupleArity(lit.atom.arity())) {
      for (const Value& fact : extent) {
        if (!fact.is_tuple() || fact.size() != lit.atom.arity()) {
          return Status::InvalidArgument(
              "arity mismatch: atom " + lit.atom.ToString() + " vs fact " +
              fact.ToString());
        }
      }
    }
    if (ctx_.use_join_index && !step.bound_positions.empty()) {
      // Probe the hash index on the bound positions.  The key terms are
      // constants or bound variables (the planner excludes fallible
      // ground applications), so evaluation cannot fail here.
      std::vector<Value> key_parts;
      key_parts.reserve(step.bound_positions.size());
      for (size_t pos : step.bound_positions) {
        AWR_ASSIGN_OR_RETURN(
            Value v, EvalTerm(lit.atom.args[pos], env, *ctx_.fns));
        key_parts.push_back(std::move(v));
      }
      const std::vector<Value>& bucket =
          extent.Probe(step.bound_positions, Value::Tuple(std::move(key_parts)));
      for (const Value& fact : bucket) {
        AWR_RETURN_IF_ERROR(MatchFact(lit, fact, k, env));
      }
      return Status::OK();
    }
    for (const Value& fact : extent) {
      AWR_RETURN_IF_ERROR(MatchFact(lit, fact, k, env));
    }
    return Status::OK();
  }

  /// Unifies `fact` against the atom's argument terms under `env` and,
  /// on a match, recurses into the remaining plan steps.  Bindings made
  /// here are undone before returning.
  Status MatchFact(const Literal& lit, const Value& fact, size_t k, Env& env) {
    std::vector<Var> bound_here;
    bool match = true;
    for (size_t i = 0; i < lit.atom.args.size() && match; ++i) {
      const TermExpr& arg = lit.atom.args[i];
      const Value& component = fact.items()[i];
      if (arg.is_var()) {
        const Value* existing = env.Lookup(arg.var());
        if (existing == nullptr) {
          env.Bind(arg.var(), component);
          bound_here.push_back(arg.var());
        } else if (*existing != component) {
          match = false;
        }
      } else {
        // Ground (given current bindings) term in a matching position.
        auto value = EvalTerm(arg, env, *ctx_.fns);
        if (!value.ok()) {
          for (const Var& v : bound_here) env.Unbind(v);
          return value.status();
        }
        if (*value != component) match = false;
      }
    }
    Status st = match ? EvalFrom(k + 1, env) : Status::OK();
    for (const Var& v : bound_here) env.Unbind(v);
    return st;
  }

  Status TestNegative(const Literal& lit, size_t k, Env& env) {
    std::vector<Value> args;
    args.reserve(lit.atom.args.size());
    for (const TermExpr& arg : lit.atom.args) {
      AWR_ASSIGN_OR_RETURN(Value v, EvalTerm(arg, env, *ctx_.fns));
      args.push_back(std::move(v));
    }
    if (ctx_.negation_holds(lit.atom.predicate, Value::Tuple(std::move(args)))) {
      return EvalFrom(k + 1, env);
    }
    return Status::OK();
  }

  Status HandleCompare(const Literal& lit, size_t k, Env& env) {
    // Assignment form: exactly one side is an unbound variable.
    if (lit.op == CmpOp::kEq) {
      bool lhs_unbound_var =
          lit.lhs.is_var() && env.Lookup(lit.lhs.var()) == nullptr;
      bool rhs_unbound_var =
          lit.rhs.is_var() && env.Lookup(lit.rhs.var()) == nullptr;
      if (lhs_unbound_var != rhs_unbound_var) {
        const TermExpr& var_side = lhs_unbound_var ? lit.lhs : lit.rhs;
        const TermExpr& val_side = lhs_unbound_var ? lit.rhs : lit.lhs;
        AWR_ASSIGN_OR_RETURN(Value v, EvalTerm(val_side, env, *ctx_.fns));
        env.Bind(var_side.var(), std::move(v));
        Status st = EvalFrom(k + 1, env);
        env.Unbind(var_side.var());
        return st;
      }
    }
    AWR_ASSIGN_OR_RETURN(bool holds, EvalCompare(lit, env, *ctx_.fns));
    return holds ? EvalFrom(k + 1, env) : Status::OK();
  }

  const Rule& rule_;
  const RulePlan& plan_;
  const BodyContext& ctx_;
  const std::function<Status(const Env&)>& on_match_;
};

}  // namespace

// ----------------------------------------------------------------------
// Batch columnar execution (DESIGN.md §12)
//
// The row enumerator above instantiates one Env per partial match and
// dispatches per tuple; for flat scalar relations nearly all of that
// work is interpretive overhead.  The batch executor below runs the
// same plan as tight loops over raw word columns: per step it gathers
// probe-key words from the current batch, bulk-hashes them, walks the
// extent's chained column index, and emits the joined batch as new
// columns.  Values are only materialized at the very end, one head
// tuple per complete match.  Poll sites and the delivered fact
// multiset are identical to the row path, which is what keeps models,
// charge counts, and interrupt statuses bit-identical (the 200-seed
// columnar-vs-row differential in property_test.cc pins this).

namespace {

struct ColumnarStatCounters {
  std::atomic<uint64_t> batch_rules{0};
  std::atomic<uint64_t> row_rules{0};
  std::atomic<uint64_t> probes{0};
  std::atomic<uint64_t> probe_hits{0};
  std::atomic<uint64_t> facts{0};
};

ColumnarStatCounters& StatCounters() {
  static ColumnarStatCounters counters;
  return counters;
}

// Joined batches larger than this abort to the row path (before any
// poll or emission, so the switch is unobservable).  Bounds transient
// memory on pathological cross-product rules.
constexpr size_t kMaxBatchRows = size_t{1} << 21;

/// One positive atom, compiled against the extents it will read.
struct ColumnarStep {
  const ValueSet::ColumnStore* store = nullptr;
  /// Index over the step's bound positions; null means full scan (no
  /// bound positions).
  const ValueSet::ColumnStore::Index* index = nullptr;
  /// Probe-key sources, parallel to index->positions: a batch column
  /// (slot >= 0) or an inline constant's word (slot < 0).
  struct Key {
    size_t pos;
    int slot;
    uintptr_t const_word;
  };
  std::vector<Key> keys;
  /// First occurrences of unbound variables: extent column `pos` feeds
  /// batch slot `slot`.
  struct Bind {
    size_t pos;
    int slot;
  };
  std::vector<Bind> binds;
  /// Within-atom repeats of a variable first bound at `first_pos`.
  struct Dup {
    size_t pos;
    size_t first_pos;
  };
  std::vector<Dup> dups;
};

struct ColumnarFirePlan {
  std::vector<ColumnarStep> steps;
  int num_slots = 0;
  /// Head component sources: batch slot (slot >= 0) or a constant.
  struct Head {
    int slot;
    Value constant;
  };
  std::vector<Head> head;
};

enum class ColumnarPlanResult {
  kIneligible,  // run the row path
  kEmpty,       // some extent is empty: zero matches, return OK
  kReady,       // batch plan compiled
};

/// Compiles `pr` for batch execution under `ctx`.  Mirrors the row
/// path's per-step behavior in plan order: an empty extent short-
/// circuits the rule exactly where the row enumerator would stop
/// finding matches, and any construct the batch path does not cover
/// (negation, comparisons, function applications, non-flat extents,
/// arity mismatches, non-inline constants) defers to the row path,
/// which owns the error messages.  Missing column stores and indexes
/// are materialized on first use.
ColumnarPlanResult PlanColumnarFire(const PlannedRule& pr,
                                    const BodyContext& ctx,
                                    ColumnarFirePlan* out) {
  if (!ctx.use_columnar || !ctx.use_join_index) {
    return ColumnarPlanResult::kIneligible;
  }
  if (pr.plan.size() == 0) return ColumnarPlanResult::kIneligible;
  std::unordered_map<uint32_t, int> slots;  // var id -> batch slot
  for (size_t k = 0; k < pr.plan.size(); ++k) {
    const PlanStep& step = pr.plan.steps[k];
    const Literal& lit = pr.rule.body[step.literal];
    if (!lit.is_atom() || !lit.positive) return ColumnarPlanResult::kIneligible;
    const ValueSet& extent =
        ctx.positive_extent(lit.atom.predicate, step.literal);
    if (extent.empty()) return ColumnarPlanResult::kEmpty;
    const size_t arity = lit.atom.arity();
    if (!extent.UniformTupleArity(arity)) {
      return ColumnarPlanResult::kIneligible;  // row path reports the mismatch
    }
    if (step.bound_positions.size() > 8) {
      return ColumnarPlanResult::kIneligible;  // HashRow key cap
    }
    ColumnarStep cs;
    std::unordered_map<uint32_t, size_t> first_pos_here;
    for (size_t pos = 0; pos < arity; ++pos) {
      const TermExpr& arg = lit.atom.args[pos];
      const bool is_key =
          std::binary_search(step.bound_positions.begin(),
                             step.bound_positions.end(), pos);
      if (arg.is_var()) {
        const uint32_t id = arg.var().id;
        if (is_key) {
          // Bound at step entry, so a slot exists (defensively checked).
          auto slot_it = slots.find(id);
          if (slot_it == slots.end()) return ColumnarPlanResult::kIneligible;
          cs.keys.push_back(ColumnarStep::Key{pos, slot_it->second, 0});
        } else {
          auto [it, inserted] = first_pos_here.try_emplace(id, pos);
          if (inserted) {
            slots.emplace(id, out->num_slots);
            cs.binds.push_back(ColumnarStep::Bind{pos, out->num_slots++});
          } else {
            cs.dups.push_back(ColumnarStep::Dup{pos, it->second});
          }
        }
      } else if (arg.is_const()) {
        const Value& c = arg.constant();
        // Non-inline constants and constants past a plan truncation
        // would need Value-level equality; leave those to the row path.
        if (!c.is_inline() || !is_key) return ColumnarPlanResult::kIneligible;
        cs.keys.push_back(ColumnarStep::Key{pos, -1, c.inline_bits()});
      } else {
        return ColumnarPlanResult::kIneligible;  // function application
      }
    }
    cs.store = extent.columns();
    if (cs.store == nullptr) return ColumnarPlanResult::kIneligible;
    if (!cs.keys.empty()) {
      cs.index = extent.ColumnIndex(step.bound_positions);
    }
    out->steps.push_back(std::move(cs));
  }
  for (const TermExpr& arg : pr.rule.head.args) {
    if (arg.is_var()) {
      auto it = slots.find(arg.var().id);
      if (it == slots.end()) return ColumnarPlanResult::kIneligible;
      out->head.push_back(ColumnarFirePlan::Head{it->second, Value()});
    } else if (arg.is_const()) {
      out->head.push_back(ColumnarFirePlan::Head{-1, arg.constant()});
    } else {
      return ColumnarPlanResult::kIneligible;  // head function application
    }
  }
  return ColumnarPlanResult::kReady;
}

/// Runs the joins of `cp`, leaving one word column per bound slot in
/// `slot_cols` (each `*batch_rows` long).  Returns false on batch
/// overflow — nothing has been observed yet, the caller re-runs on the
/// row path.
bool RunColumnarJoin(const ColumnarFirePlan& cp,
                     std::vector<std::vector<uintptr_t>>* slot_cols,
                     size_t* batch_rows, uint64_t* probes, uint64_t* hits) {
  size_t batch = 1;  // one virtual row with no bindings
  int bound_slots = 0;
  std::vector<uint32_t> src, ext;
  std::vector<uintptr_t> tmp;
  for (const ColumnarStep& cs : cp.steps) {
    const std::vector<std::vector<uintptr_t>>& cols = cs.store->cols;
    src.clear();
    ext.clear();
    if (cs.index != nullptr) {
      const ValueSet::ColumnStore::Index& index = *cs.index;
      const size_t nk = cs.keys.size();
      uintptr_t kw[8];
      for (size_t b = 0; b < batch; ++b) {
        // Gather the probe key, bulk-hash, walk the bucket chain with
        // raw word equality (inline words are canonical).
        for (size_t j = 0; j < nk; ++j) {
          const ColumnarStep::Key& key = cs.keys[j];
          kw[j] = key.slot < 0 ? key.const_word : (*slot_cols)[key.slot][b];
        }
        const size_t h = ValueSet::ColumnStore::HashWords(kw, nk);
        ++*probes;
        bool hit = false;
        for (int32_t r = index.heads[h & index.mask]; r >= 0;
             r = index.next[r]) {
          bool match = true;
          for (size_t j = 0; j < nk; ++j) {
            if (cols[cs.keys[j].pos][r] != kw[j]) {
              match = false;
              break;
            }
          }
          for (size_t j = 0; match && j < cs.dups.size(); ++j) {
            if (cols[cs.dups[j].pos][r] != cols[cs.dups[j].first_pos][r]) {
              match = false;
            }
          }
          if (match) {
            src.push_back(static_cast<uint32_t>(b));
            ext.push_back(static_cast<uint32_t>(r));
            hit = true;
          }
        }
        if (hit) ++*hits;
        if (src.size() > kMaxBatchRows) return false;
      }
    } else {
      // No bound positions: cross the batch with the (dup-filtered)
      // extent rows.
      const size_t n = cs.store->row_count();
      std::vector<uint32_t> selected;
      selected.reserve(n);
      for (size_t r = 0; r < n; ++r) {
        bool match = true;
        for (const ColumnarStep::Dup& dup : cs.dups) {
          if (cols[dup.pos][r] != cols[dup.first_pos][r]) {
            match = false;
            break;
          }
        }
        if (match) selected.push_back(static_cast<uint32_t>(r));
      }
      if (batch * selected.size() > kMaxBatchRows) return false;
      for (size_t b = 0; b < batch; ++b) {
        for (uint32_t r : selected) {
          src.push_back(static_cast<uint32_t>(b));
          ext.push_back(r);
        }
      }
    }
    // Re-gather existing slot columns through src, then append the
    // step's new bindings from the matched extent rows.
    const size_t out_n = src.size();
    for (int s = 0; s < bound_slots; ++s) {
      std::vector<uintptr_t>& col = (*slot_cols)[s];
      tmp.resize(out_n);
      for (size_t i = 0; i < out_n; ++i) tmp[i] = col[src[i]];
      col.swap(tmp);
    }
    for (const ColumnarStep::Bind& bind : cs.binds) {
      std::vector<uintptr_t>& col = (*slot_cols)[bind.slot];
      const std::vector<uintptr_t>& from = cols[bind.pos];
      col.resize(out_n);
      for (size_t i = 0; i < out_n; ++i) col[i] = from[ext[i]];
    }
    bound_slots += static_cast<int>(cs.binds.size());
    batch = out_n;
    if (batch == 0) break;
  }
  *batch_rows = batch;
  return true;
}

}  // namespace

const ValueSet::ColumnStore::Index* KnownFactsIndex(
    const ValueSet* known, size_t arity,
    const ValueSet::ColumnStore** store_out) {
  if (known == nullptr || arity == 0 || arity > 8) return nullptr;
  const ValueSet::ColumnStore* store = known->columns();
  if (store == nullptr || store->arity != arity) return nullptr;
  std::vector<size_t> all_positions(arity);
  for (size_t i = 0; i < arity; ++i) all_positions[i] = i;
  const ValueSet::ColumnStore::Index* index = known->ColumnIndex(all_positions);
  if (index == nullptr) return nullptr;
  *store_out = store;
  return index;
}

Status FireRuleFacts(const PlannedRule& planned, const BodyContext& ctx,
                     const std::function<Status(Value)>& on_fact,
                     const ValueSet* known) {
  // Resolve the compiled program first (a cache hit after round 1):
  // its static analysis tells us whether the batch columnar executor
  // can ever serve this rule, so statically ineligible rules skip the
  // per-firing PlanColumnarFire body walk entirely.  Skipping the walk
  // also skips its kEmpty short-circuit, which is unobservable: kEmpty
  // only arises when every step up to the empty extent is a clean
  // positive atom, and there the VM/row enumeration finds zero matches
  // — zero polls, zero facts, zero errors — identically.
  std::shared_ptr<const vm::CompiledRule> compiled;
  if (ctx.use_bytecode) {
    compiled = vm::CompiledPlanCache::Global().Get(planned, ctx.use_join_index);
  }
  ColumnarFirePlan cp;
  if (compiled != nullptr && !compiled->may_batch) {
    StatCounters().row_rules.fetch_add(1, std::memory_order_relaxed);
    return vm::ExecuteCompiledRule(*compiled, ctx, on_fact, known);
  }
  switch (PlanColumnarFire(planned, ctx, &cp)) {

    case ColumnarPlanResult::kEmpty:
      // Some body extent is empty: the row path would enumerate zero
      // complete matches — zero polls, zero facts.
      return Status::OK();
    case ColumnarPlanResult::kReady: {
      std::vector<std::vector<uintptr_t>> slot_cols(cp.num_slots);
      size_t batch = 0;
      uint64_t probes = 0;
      uint64_t hits = 0;
      if (RunColumnarJoin(cp, &slot_cols, &batch, &probes, &hits)) {
        ColumnarStatCounters& stats = StatCounters();
        stats.batch_rules.fetch_add(1, std::memory_order_relaxed);
        stats.probes.fetch_add(probes, std::memory_order_relaxed);
        stats.probe_hits.fetch_add(hits, std::memory_order_relaxed);
        // Distinct head slots: repeats in the head (p(X, X)) share one
        // projection key column.
        std::vector<int> key_slots;
        for (const ColumnarFirePlan::Head& h : cp.head) {
          if (h.slot >= 0 &&
              std::find(key_slots.begin(), key_slots.end(), h.slot) ==
                  key_slots.end()) {
            key_slots.push_back(h.slot);
          }
        }
        // Open-addressed dedup table over raw projection words.  Every
        // match is still polled (charge parity with the row path), but
        // only the first match with a given head projection materializes
        // a tuple — recursive rules derive the same head through many
        // bodies, and the caller's set insert dedups them anyway.
        size_t table_cap = 16;
        while (table_cap < batch * 2) table_cap <<= 1;
        std::vector<int64_t> table(table_cap, -1);
        auto keys_equal = [&](size_t a, size_t b) {
          for (int s : key_slots) {
            if (slot_cols[s][a] != slot_cols[s][b]) return false;
          }
          return true;
        };
        // The cross-firing filter: facts already in `known` are caller
        // no-ops, so probe its full-arity index on raw head words and
        // skip them before building the tuple.  Only usable when every
        // head word is available (slots are; constants must be inline).
        const size_t head_arity = cp.head.size();
        bool head_words_ok = true;
        std::vector<uintptr_t> head_words(head_arity);
        for (size_t j = 0; j < head_arity; ++j) {
          if (cp.head[j].slot < 0) {
            if (!cp.head[j].constant.is_inline()) {
              head_words_ok = false;
              break;
            }
            head_words[j] = cp.head[j].constant.inline_bits();
          }
        }
        const ValueSet::ColumnStore* known_store = nullptr;
        const ValueSet::ColumnStore::Index* known_index =
            head_words_ok ? KnownFactsIndex(known, head_arity, &known_store)
                          : nullptr;
        uint64_t emitted = 0;
        std::vector<uintptr_t> kw(key_slots.size());
        std::vector<Value> components(head_arity);
        for (size_t i = 0; i < batch; ++i) {
          if (ctx.context != nullptr) {
            AWR_RETURN_IF_ERROR(ctx.context->CheckInterrupt("body-match"));
          }
          for (size_t j = 0; j < key_slots.size(); ++j) {
            kw[j] = slot_cols[key_slots[j]][i];
          }
          size_t slot_index =
              ValueSet::ColumnStore::HashWords(kw.data(), kw.size()) &
              (table_cap - 1);
          bool seen = false;
          while (table[slot_index] >= 0) {
            if (keys_equal(static_cast<size_t>(table[slot_index]), i)) {
              seen = true;
              break;
            }
            slot_index = (slot_index + 1) & (table_cap - 1);
          }
          if (seen) continue;
          table[slot_index] = static_cast<int64_t>(i);
          if (known_index != nullptr) {
            for (size_t j = 0; j < head_arity; ++j) {
              if (cp.head[j].slot >= 0) {
                head_words[j] = slot_cols[cp.head[j].slot][i];
              }
            }
            const size_t h = ValueSet::ColumnStore::HashWords(
                head_words.data(), head_arity);
            bool already_known = false;
            for (int32_t r = known_index->heads[h & known_index->mask];
                 r >= 0; r = known_index->next[r]) {
              bool match = true;
              for (size_t j = 0; j < head_arity; ++j) {
                if (known_store->cols[j][r] != head_words[j]) {
                  match = false;
                  break;
                }
              }
              if (match) {
                already_known = true;
                break;
              }
            }
            if (already_known) continue;
          }
          for (size_t j = 0; j < head_arity; ++j) {
            const ColumnarFirePlan::Head& h = cp.head[j];
            components[j] = h.slot < 0
                                ? h.constant
                                : Value::FromInlineBits(slot_cols[h.slot][i]);
          }
          ++emitted;
          AWR_RETURN_IF_ERROR(on_fact(Value::Tuple(components)));
        }
        stats.facts.fetch_add(emitted, std::memory_order_relaxed);
        return Status::OK();
      }
      break;  // batch overflow: nothing observed yet, run the row path
    }
    case ColumnarPlanResult::kIneligible:
      break;
  }
  StatCounters().row_rules.fetch_add(1, std::memory_order_relaxed);
  if (compiled != nullptr) {
    // Batch-ineligible on the current extents (or batch overflow,
    // before anything was observed): the compiled program replaces the
    // tree-walking enumerator below, with identical observables.
    return vm::ExecuteCompiledRule(*compiled, ctx, on_fact, known);
  }
  return ForEachBodyMatch(
      planned.rule, planned.plan, ctx, [&](const Env& env) -> Status {
        AWR_ASSIGN_OR_RETURN(Value fact,
                             EvalHead(planned.rule, env, *ctx.fns));
        return on_fact(std::move(fact));
      });
}

ColumnarExecStats GetColumnarExecStats() {
  const ColumnarStatCounters& counters = StatCounters();
  ColumnarExecStats out;
  out.batch_rules_fired = counters.batch_rules.load(std::memory_order_relaxed);
  out.row_rules_fired = counters.row_rules.load(std::memory_order_relaxed);
  out.batch_probes = counters.probes.load(std::memory_order_relaxed);
  out.batch_probe_hits = counters.probe_hits.load(std::memory_order_relaxed);
  out.batch_facts = counters.facts.load(std::memory_order_relaxed);
  return out;
}

void ResetColumnarExecStats() {
  ColumnarStatCounters& counters = StatCounters();
  counters.batch_rules.store(0, std::memory_order_relaxed);
  counters.row_rules.store(0, std::memory_order_relaxed);
  counters.probes.store(0, std::memory_order_relaxed);
  counters.probe_hits.store(0, std::memory_order_relaxed);
  counters.facts.store(0, std::memory_order_relaxed);
}

Status ForEachBodyMatch(const Rule& rule, const RulePlan& plan,
                        const BodyContext& ctx,
                        const std::function<Status(const Env&)>& on_match) {
  assert(plan.size() == rule.body.size());
  return BodyEnumerator(rule, plan, ctx, on_match).Run();
}

Result<Value> EvalHead(const Rule& rule, const Env& env,
                       const FunctionRegistry& fns) {
  std::vector<Value> components;
  components.reserve(rule.head.args.size());
  for (const TermExpr& arg : rule.head.args) {
    AWR_ASSIGN_OR_RETURN(Value v, EvalTerm(arg, env, fns));
    components.push_back(std::move(v));
  }
  return Value::Tuple(std::move(components));
}

Result<std::vector<PlannedRule>> PlanProgram(const Program& program) {
  std::vector<PlannedRule> out;
  out.reserve(program.rules.size());
  for (const Rule& rule : program.rules) {
    AWR_ASSIGN_OR_RETURN(RulePlan plan, PlanRule(rule));
    PlannedRule planned{rule, std::move(plan)};
    planned.cache_key = vm::PlanCacheFingerprint(planned.rule, planned.plan);
    out.push_back(std::move(planned));
  }
  return out;
}

}  // namespace awr::datalog
