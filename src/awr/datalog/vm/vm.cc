#include "awr/datalog/vm/vm.h"

#include <atomic>
#include <span>
#include <utility>
#include <vector>

#include "awr/datalog/vm/cache.h"
#include "awr/value/value_set.h"

namespace awr::datalog::vm {

namespace {

struct VmStatCounters {
  std::atomic<uint64_t> rules{0};
  std::atomic<uint64_t> ops{0};
  std::atomic<uint64_t> word_opens{0};
  std::atomic<uint64_t> row_opens{0};
  std::atomic<uint64_t> facts{0};
};

VmStatCounters& VmCounters() {
  static VmStatCounters counters;
  return counters;
}

/// Returned by a handler in place of a pc when it has recorded a non-OK
/// status; the dispatch loop then returns that status.
constexpr size_t kPcError = static_cast<size_t>(-1);

using RowIter = decltype(std::declval<const ValueSet&>().begin());

/// Per-loop enumeration state.  Row-level kinds draw candidates from
/// exactly the interpreter's sources (extent iteration, Probe buckets);
/// word-level kinds walk raw column words and exist only in infallible
/// programs (see bytecode.h).
struct Cursor {
  enum class Kind : uint8_t {
    kNone,       ///< never opened (only reachable in decoded programs)
    kRowScan,    ///< full extent iteration
    kRowBucket,  ///< ValueSet::Probe bucket
    kWordScan,   ///< column-store row walk
    kWordChain,  ///< column-index bucket chain walk
  };
  Kind kind = Kind::kNone;
  RowIter it{};
  RowIter end{};
  const std::vector<Value>* bucket = nullptr;
  size_t idx = 0;
  const ValueSet::ColumnStore* store = nullptr;
  const ValueSet::ColumnStore::Index* index = nullptr;
  int64_t row = -1;     ///< word scan: last row examined; chain: next link
  uintptr_t kw[8] = {};  ///< gathered probe-key words (chain)
  size_t nk = 0;
};

struct ExecState {
  const CompiledRule& cr;
  const BodyContext& ctx;
  const std::function<Status(Value)>& on_fact;
  std::vector<Value> regs = {};
  std::vector<Cursor> cursors = {};
  uint64_t ops = 0;
  uint64_t word_opens = 0;
  uint64_t row_opens = 0;
  uint64_t facts = 0;
  // The caller's `known` extent: no fact in it is delivered.
  const ValueSet* known = nullptr;
  // Word-level emit filtering (infallible rules only): an
  // open-addressed table of the head projections already delivered
  // this firing, plus `known` probed through its full-arity column
  // index — both checked on raw words, before the head tuple is built.
  bool emit_dedup = false;
  std::vector<uintptr_t> dd_words = {};  ///< arity words per entry
  std::vector<int32_t> dd_table = {};    ///< open-addressed, -1 = empty
  size_t dd_mask = 0;
  const ValueSet::ColumnStore* known_store = nullptr;
  const ValueSet::ColumnStore::Index* known_index = nullptr;
  std::vector<uintptr_t> head_words = {};
  std::vector<Value> head_buf = {};
};

/// Resolves the word-level duplicate filter over `known` for a head of
/// `arity` all-inline components: the extent's full-arity column index,
/// or nullptr when unavailable (non-flat extent, arity mismatch, >8
/// positions).
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

/// Doubles the emit-dedup table and re-seats every recorded projection.
void GrowEmitTable(ExecState& s, size_t arity) {
  const size_t cap = s.dd_table.size() * 2;
  std::vector<int32_t> table(cap, -1);
  const size_t mask = cap - 1;
  const size_t entries = s.dd_words.size() / arity;
  for (size_t e = 0; e < entries; ++e) {
    size_t slot = ValueSet::ColumnStore::HashWords(&s.dd_words[e * arity],
                                                   arity) &
                  mask;
    while (table[slot] >= 0) slot = (slot + 1) & mask;
    table[slot] = static_cast<int32_t>(e);
  }
  s.dd_table = std::move(table);
  s.dd_mask = mask;
}

Result<Value> EvalCompiledTerm(const ExecState& s, uint32_t idx) {
  const CompiledRule::TermNode& n = s.cr.terms[idx];
  switch (n.kind) {
    case CompiledRule::TermNode::Kind::kReg:
      return s.regs[n.a];
    case CompiledRule::TermNode::Kind::kConst:
      return s.cr.consts[n.a];
    case CompiledRule::TermNode::Kind::kApply: {
      std::vector<Value> args;
      args.reserve(n.b);
      for (uint32_t j = 0; j < n.b; ++j) {
        AWR_ASSIGN_OR_RETURN(Value v,
                             EvalCompiledTerm(s, s.cr.term_args[n.a + j]));
        args.push_back(std::move(v));
      }
      return s.ctx.fns->Apply(s.cr.fn_names[n.c], args);
    }
  }
  return Status::Internal("vm: unknown term kind");
}

/// Unifies `fact` against the step's argument descriptors, processed in
/// ascending position order with the interpreter's short-circuit: a
/// mismatch stops before later positions are examined (so a fallible
/// application after the mismatch is never evaluated), and an
/// application error aborts the whole firing.  Returns true on a full
/// match; false otherwise, with `*st` non-OK iff an error occurred.
bool MatchRowFact(ExecState& s, const CompiledRule::StepInfo& si,
                  const Value& fact, Status* st) {
  const auto items = fact.items();
  for (const CompiledRule::FieldDesc& f : si.fields) {
    const Value& component = items[f.pos];
    switch (f.kind) {
      case CompiledRule::FieldDesc::Kind::kBindReg:
        s.regs[f.x] = component;
        break;
      case CompiledRule::FieldDesc::Kind::kCheckReg:
        if (s.regs[f.x] != component) return false;
        break;
      case CompiledRule::FieldDesc::Kind::kCheckConst:
        if (s.cr.consts[f.x] != component) return false;
        break;
      case CompiledRule::FieldDesc::Kind::kCheckApply: {
        Result<Value> v = EvalCompiledTerm(s, f.x);
        if (!v.ok()) {
          *st = v.status();
          return false;
        }
        if (*v != component) return false;
        break;
      }
    }
  }
  return true;
}

size_t HandleOpen(ExecState& s, const Instr& in, size_t pc, Status* st) {
  const CompiledRule::StepInfo& si = s.cr.steps[in.a];
  const Literal& lit = s.cr.rule.body[si.literal];
  const ValueSet& extent =
      s.ctx.positive_extent(lit.atom.predicate, si.literal);
  if (extent.empty()) return in.fail;
  // Same hoisted arity validation (and identical error rendering) as
  // the interpreter's MatchPositive.
  if (!extent.UniformTupleArity(si.arity)) {
    for (const Value& fact : extent) {
      if (!fact.is_tuple() || fact.size() != si.arity) {
        *st = Status::InvalidArgument("arity mismatch: atom " +
                                      lit.atom.ToString() + " vs fact " +
                                      fact.ToString());
        return kPcError;
      }
    }
  }
  Cursor& cur = s.cursors[in.loop];
  const bool want_word = (in.op == Op::kOpenScanWord ||
                          in.op == Op::kOpenProbeWord) &&
                         s.ctx.use_columnar;
  if (want_word && si.probe) {
    // Gather the key words first: a register bound by an outer row
    // loop may hold a non-inline value, which word probing cannot
    // represent — fall back to the row bucket below.
    const size_t nk = si.keys.size();
    bool inline_keys = true;
    for (size_t j = 0; j < nk && inline_keys; ++j) {
      const CompiledRule::KeySrc& key = si.keys[j];
      if (key.reg >= 0) {
        const Value& v = s.regs[key.reg];
        if (v.is_inline()) {
          cur.kw[j] = v.inline_bits();
        } else {
          inline_keys = false;
        }
      } else {
        cur.kw[j] = s.cr.consts[key.const_idx].inline_bits();
      }
    }
    if (inline_keys) {
      const ValueSet::ColumnStore::Index* index =
          extent.ColumnIndex(si.bound_positions);
      if (index != nullptr) {
        cur.kind = Cursor::Kind::kWordChain;
        cur.store = extent.columns();
        cur.index = index;
        cur.nk = nk;
        const size_t h =
            ValueSet::ColumnStore::HashWords(cur.kw, nk);
        cur.row = index->heads[h & index->mask];
        ++s.word_opens;
        return pc + 1;
      }
    }
  } else if (want_word) {
    const ValueSet::ColumnStore* store = extent.columns();
    if (store != nullptr) {
      cur.kind = Cursor::Kind::kWordScan;
      cur.store = store;
      cur.row = -1;
      ++s.word_opens;
      return pc + 1;
    }
  }
  ++s.row_opens;
  if (si.probe) {
    // The key terms are constants or bound variables, so building the
    // probe key cannot fail (the planner excludes applications from
    // bound positions) — same key Value as the interpreter's EvalTerm
    // walk, same Probe call, same bucket order.
    std::vector<Value> key_parts;
    key_parts.reserve(si.keys.size());
    for (const CompiledRule::KeySrc& key : si.keys) {
      key_parts.push_back(key.reg >= 0 ? s.regs[key.reg]
                                       : s.cr.consts[key.const_idx]);
    }
    cur.kind = Cursor::Kind::kRowBucket;
    cur.bucket =
        &extent.Probe(si.bound_positions, Value::Tuple(std::move(key_parts)));
    cur.idx = 0;
    return pc + 1;
  }
  cur.kind = Cursor::Kind::kRowScan;
  cur.it = extent.begin();
  cur.end = extent.end();
  return pc + 1;
}

size_t HandleNext(ExecState& s, const Instr& in, size_t pc, Status* st) {
  Cursor& cur = s.cursors[in.loop];
  const CompiledRule::StepInfo& si = s.cr.steps[in.a];
  switch (cur.kind) {
    case Cursor::Kind::kRowScan:
      while (cur.it != cur.end) {
        const Value& fact = *cur.it;
        ++cur.it;
        if (MatchRowFact(s, si, fact, st)) return pc + 1;
        if (!st->ok()) return kPcError;
      }
      return in.fail;
    case Cursor::Kind::kRowBucket:
      while (cur.idx < cur.bucket->size()) {
        const Value& fact = (*cur.bucket)[cur.idx++];
        if (MatchRowFact(s, si, fact, st)) return pc + 1;
        if (!st->ok()) return kPcError;
      }
      return in.fail;
    case Cursor::Kind::kWordScan: {
      const std::vector<std::vector<uintptr_t>>& cols = cur.store->cols;
      const int64_t n = static_cast<int64_t>(cur.store->row_count());
      for (int64_t r = cur.row + 1; r < n; ++r) {
        bool match = true;
        for (const CompiledRule::WordDup& wd : si.word_dups) {
          if (cols[wd.pos][r] != cols[wd.first_pos][r]) {
            match = false;
            break;
          }
        }
        if (!match) continue;
        cur.row = r;
        for (const CompiledRule::WordBind& wb : si.word_binds) {
          s.regs[wb.reg] = Value::FromInlineBits(cols[wb.pos][r]);
        }
        return pc + 1;
      }
      cur.row = n;
      return in.fail;
    }
    case Cursor::Kind::kWordChain: {
      const std::vector<std::vector<uintptr_t>>& cols = cur.store->cols;
      const std::vector<int32_t>& next = cur.index->next;
      while (cur.row >= 0) {
        const int64_t r = cur.row;
        cur.row = next[r];
        bool match = true;
        for (size_t j = 0; j < cur.nk; ++j) {
          if (cols[si.bound_positions[j]][r] != cur.kw[j]) {
            match = false;
            break;
          }
        }
        for (size_t j = 0; match && j < si.word_dups.size(); ++j) {
          const CompiledRule::WordDup& wd = si.word_dups[j];
          if (cols[wd.pos][r] != cols[wd.first_pos][r]) match = false;
        }
        if (!match) continue;
        for (const CompiledRule::WordBind& wb : si.word_binds) {
          s.regs[wb.reg] = Value::FromInlineBits(cols[wb.pos][r]);
        }
        return pc + 1;
      }
      return in.fail;
    }
    case Cursor::Kind::kNone:
      // Unreachable from lowered programs (an open always precedes its
      // next); a decoded program's odd control flow degrades to an
      // exhausted loop, never out-of-bounds state.
      return in.fail;
  }
  return in.fail;
}

size_t HandleNegate(ExecState& s, const Instr& in, size_t pc, Status* st) {
  const CompiledRule::NegDesc& nd = s.cr.negs[in.a];
  const Literal& lit = s.cr.rule.body[nd.literal];
  std::vector<Value> args;
  args.reserve(nd.arg_terms.size());
  for (uint32_t t : nd.arg_terms) {
    Result<Value> v = EvalCompiledTerm(s, t);
    if (!v.ok()) {
      *st = v.status();
      return kPcError;
    }
    args.push_back(*std::move(v));
  }
  if (s.ctx.negation_holds(lit.atom.predicate,
                           Value::Tuple(std::move(args)))) {
    return pc + 1;
  }
  return in.fail;
}

size_t HandleCompare(ExecState& s, const Instr& in, size_t pc, Status* st) {
  const CompiledRule::CmpDesc& cd = s.cr.cmps[in.a];
  Result<Value> l = EvalCompiledTerm(s, cd.lhs);
  if (!l.ok()) {
    *st = l.status();
    return kPcError;
  }
  Result<Value> r = EvalCompiledTerm(s, cd.rhs);
  if (!r.ok()) {
    *st = r.status();
    return kPcError;
  }
  const int c = Value::Compare(*l, *r);
  bool holds = false;
  switch (cd.op) {
    case CmpOp::kEq:
      holds = c == 0;
      break;
    case CmpOp::kNe:
      holds = c != 0;
      break;
    case CmpOp::kLt:
      holds = c < 0;
      break;
    case CmpOp::kLe:
      holds = c <= 0;
      break;
  }
  return holds ? pc + 1 : in.fail;
}

size_t HandleBind(ExecState& s, const Instr& in, size_t pc, Status* st) {
  Result<Value> v = EvalCompiledTerm(s, in.b);
  if (!v.ok()) {
    *st = v.status();
    return kPcError;
  }
  s.regs[in.a] = *std::move(v);
  return pc + 1;
}

size_t HandleCharge(ExecState& s, size_t pc, Status* st) {
  if (s.ctx.context != nullptr) {
    Status poll = s.ctx.context->CheckInterrupt("body-match");
    if (!poll.ok()) {
      *st = std::move(poll);
      return kPcError;
    }
  }
  return pc + 1;
}

/// The word-level emit path: dedup the head projection against this
/// firing's table and the caller's `known` extent on raw words, and
/// only then build the tuple.  Returns true when it handled the emit
/// (delivered or skipped), false when a component is not word-sized —
/// the caller falls back to the exact row-path delivery.  Only wired
/// for infallible rules, where skipping a delivery cannot skip an
/// error: the match's interrupt poll already happened (kCharge), head
/// applications do not exist, and every suppressed fact would have been
/// a no-op for the caller (FireRuleFacts' `known` contract).
bool EmitDeduped(ExecState& s, Status* st, bool* delivered_ok) {
  const size_t arity = s.cr.head.size();
  for (size_t j = 0; j < arity; ++j) {
    const CompiledRule::HeadSrc& h = s.cr.head[j];
    if (h.kind == CompiledRule::HeadSrc::Kind::kApply) return false;
    const Value& v = h.kind == CompiledRule::HeadSrc::Kind::kReg
                         ? s.regs[h.x]
                         : s.cr.consts[h.x];
    if (!v.is_inline()) return false;
    s.head_words[j] = v.inline_bits();
  }
  size_t slot = ValueSet::ColumnStore::HashWords(s.head_words.data(), arity) &
                s.dd_mask;
  while (s.dd_table[slot] >= 0) {
    const uintptr_t* entry =
        &s.dd_words[static_cast<size_t>(s.dd_table[slot]) * arity];
    bool equal = true;
    for (size_t j = 0; j < arity; ++j) {
      if (entry[j] != s.head_words[j]) {
        equal = false;
        break;
      }
    }
    if (equal) {
      *delivered_ok = true;  // duplicate within the firing: skip
      return true;
    }
    slot = (slot + 1) & s.dd_mask;
  }
  s.dd_table[slot] = static_cast<int32_t>(s.dd_words.size() / arity);
  s.dd_words.insert(s.dd_words.end(), s.head_words.begin(),
                    s.head_words.end());
  if ((s.dd_words.size() / arity) * 2 >= s.dd_table.size()) {
    GrowEmitTable(s, arity);
  }
  if (s.known_index != nullptr) {
    const size_t h =
        ValueSet::ColumnStore::HashWords(s.head_words.data(), arity);
    for (int32_t r = s.known_index->heads[h & s.known_index->mask]; r >= 0;
         r = s.known_index->next[r]) {
      bool match = true;
      for (size_t j = 0; j < arity; ++j) {
        if (s.known_store->cols[j][r] != s.head_words[j]) {
          match = false;
          break;
        }
      }
      if (match) {
        *delivered_ok = true;  // already known: caller no-op, skip
        return true;
      }
    }
  }
  for (size_t j = 0; j < arity; ++j) {
    s.head_buf[j] = Value::FromInlineBits(s.head_words[j]);
  }
  Value fact = Value::Tuple(std::span<const Value>(s.head_buf));
  if (s.known_index == nullptr && s.known != nullptr &&
      s.known->Contains(fact)) {
    *delivered_ok = true;  // already known, checked on the tuple
    return true;
  }
  Status delivered = s.on_fact(std::move(fact));
  if (!delivered.ok()) {
    *st = std::move(delivered);
    *delivered_ok = false;
    return true;
  }
  ++s.facts;
  *delivered_ok = true;
  return true;
}

size_t HandleEmit(ExecState& s, const Instr& in, Status* st) {
  if (s.emit_dedup) {
    bool ok = false;
    if (EmitDeduped(s, st, &ok)) return ok ? in.fail : kPcError;
  }
  std::vector<Value> components;
  components.reserve(s.cr.head.size());
  for (const CompiledRule::HeadSrc& h : s.cr.head) {
    switch (h.kind) {
      case CompiledRule::HeadSrc::Kind::kReg:
        components.push_back(s.regs[h.x]);
        break;
      case CompiledRule::HeadSrc::Kind::kConst:
        components.push_back(s.cr.consts[h.x]);
        break;
      case CompiledRule::HeadSrc::Kind::kApply: {
        Result<Value> v = EvalCompiledTerm(s, h.x);
        if (!v.ok()) {
          *st = v.status();
          return kPcError;
        }
        components.push_back(*std::move(v));
        break;
      }
    }
  }
  Value fact = Value::Tuple(std::move(components));
  if (s.known != nullptr && s.known->Contains(fact)) return in.fail;
  Status delivered = s.on_fact(std::move(fact));
  if (!delivered.ok()) {
    *st = std::move(delivered);
    return kPcError;
  }
  ++s.facts;
  return in.fail;  // resume the innermost loop (or halt)
}

Status RunSwitch(ExecState& s) {
  const Instr* code = s.cr.code.data();
  Status st = Status::OK();
  size_t pc = 0;
  for (;;) {
    const Instr& in = code[pc];
    ++s.ops;
    switch (in.op) {
      case Op::kOpenScanRow:
      case Op::kOpenProbeRow:
      case Op::kOpenScanWord:
      case Op::kOpenProbeWord:
        pc = HandleOpen(s, in, pc, &st);
        break;
      case Op::kNext:
        pc = HandleNext(s, in, pc, &st);
        break;
      case Op::kFilterNegate:
        pc = HandleNegate(s, in, pc, &st);
        break;
      case Op::kFilterCompare:
        pc = HandleCompare(s, in, pc, &st);
        break;
      case Op::kBind:
        pc = HandleBind(s, in, pc, &st);
        break;
      case Op::kCharge:
        pc = HandleCharge(s, pc, &st);
        break;
      case Op::kEmit:
        pc = HandleEmit(s, in, &st);
        break;
      case Op::kHalt:
        return Status::OK();
    }
    if (pc == kPcError) return st;
  }
}

}  // namespace

Status ExecuteCompiledRule(const CompiledRule& cr, const BodyContext& ctx,
                           const std::function<Status(Value)>& on_fact,
                           const ValueSet* known) {
  ExecState s{cr, ctx, on_fact};
  s.known = known;
  s.regs.resize(cr.num_regs);
  s.cursors.resize(cr.num_loops);
  const size_t head_arity = cr.head.size();
  if (cr.infallible && head_arity > 0 && head_arity <= 8) {
    s.emit_dedup = true;
    s.head_words.resize(head_arity);
    s.head_buf.resize(head_arity);
    s.dd_table.assign(16, -1);
    s.dd_mask = 15;
    // The row oracle (use_columnar off) builds no column store, not
    // even for the known-fact filter; EmitDeduped checks the tuple.
    if (ctx.use_columnar) {
      s.known_index = KnownFactsIndex(known, head_arity, &s.known_store);
    }
  }
  Status st = RunSwitch(s);
  VmStatCounters& counters = VmCounters();
  counters.rules.fetch_add(1, std::memory_order_relaxed);
  counters.ops.fetch_add(s.ops, std::memory_order_relaxed);
  counters.word_opens.fetch_add(s.word_opens, std::memory_order_relaxed);
  counters.row_opens.fetch_add(s.row_opens, std::memory_order_relaxed);
  counters.facts.fetch_add(s.facts, std::memory_order_relaxed);
  return st;
}

VmExecStats GetVmExecStats() {
  const VmStatCounters& counters = VmCounters();
  VmExecStats out;
  out.vm_rules_fired = counters.rules.load(std::memory_order_relaxed);
  out.ops_dispatched = counters.ops.load(std::memory_order_relaxed);
  out.word_opens = counters.word_opens.load(std::memory_order_relaxed);
  out.row_opens = counters.row_opens.load(std::memory_order_relaxed);
  out.vm_facts = counters.facts.load(std::memory_order_relaxed);
  const CompiledPlanCache::Counters cache =
      CompiledPlanCache::Global().counters();
  out.cache_hits = cache.hits;
  out.cache_misses = cache.misses;
  out.cache_evictions = cache.evictions;
  out.cache_entries = cache.entries;
  out.programs_lowered = cache.lowered;
  out.lower_failures = cache.lower_failures;
  return out;
}

void ResetVmExecStats() {
  VmStatCounters& counters = VmCounters();
  counters.rules.store(0, std::memory_order_relaxed);
  counters.ops.store(0, std::memory_order_relaxed);
  counters.word_opens.store(0, std::memory_order_relaxed);
  counters.row_opens.store(0, std::memory_order_relaxed);
  counters.facts.store(0, std::memory_order_relaxed);
  CompiledPlanCache::Global().ResetCounters();
}

}  // namespace awr::datalog::vm
