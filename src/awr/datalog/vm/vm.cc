#include "awr/datalog/vm/vm.h"

#include <atomic>
#include <utility>
#include <vector>

#include "awr/value/value_set.h"

namespace awr::datalog::vm {

namespace {

struct VmStatCounters {
  std::atomic<uint64_t> rules{0};
  std::atomic<uint64_t> ops{0};
  std::atomic<uint64_t> word_opens{0};
  std::atomic<uint64_t> row_opens{0};
  std::atomic<uint64_t> facts{0};
  std::atomic<uint64_t> lowered{0};
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
/// extent iteration or a Probe bucket; word-level kinds walk the
/// extent's word table and exist only in infallible programs (see
/// bytecode.h).
struct Cursor {
  enum class Kind : uint8_t {
    kRowScan,    ///< full extent iteration
    kRowBucket,  ///< ValueSet::Probe bucket
    kWordScan,   ///< word-table row walk
    kWordChain,  ///< word-index bucket chain walk
  };
  Kind kind = Kind::kRowScan;
  RowIter it{};
  RowIter end{};
  const std::vector<Value>* bucket = nullptr;
  size_t idx = 0;
  const uintptr_t* words = nullptr;  ///< word table, row-major
  size_t arity = 0;
  int64_t rows = 0;
  const ValueSet::WordIndex* index = nullptr;
  int64_t row = -1;     ///< word scan: last row examined; chain: next link
  uintptr_t kw[8] = {};  ///< gathered probe-key words (chain)
  size_t nk = 0;
};

struct ExecState {
  const CompiledRule& cr;
  const BodyContext& ctx;
  // Exactly one of `out` and `on_head` is set: emission either adds the
  // head fact to `out` or hands the head tuple to `on_head`.
  ValueSet* out = nullptr;
  const std::function<Status(Value)>* on_head = nullptr;
  // The caller's `known` extent: no fact in it is added to `out`.
  const ValueSet* known = nullptr;
  std::vector<Value> regs = {};
  std::vector<Cursor> cursors = {};
  uint64_t ops = 0;
  uint64_t word_opens = 0;
  uint64_t row_opens = 0;
  uint64_t facts = 0;
  // Infallible rules with a flat-sized head emit to `out` on words.
  bool emit_words = false;
  std::vector<uintptr_t> head_words = {};
};

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
/// ascending position order: a mismatch stops before later positions
/// are examined (so a fallible application after the mismatch is never
/// evaluated), and an application error aborts the whole firing.
/// Returns true on a full match; false otherwise, with `*st` non-OK iff
/// an error occurred.
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
  // Arity validation, hoisted out of the per-fact loop: the extent's
  // shape answers the uniform case in O(1); only a malformed extent is
  // scanned for the offending fact.
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
  Cursor& cur = s.cursors[in.a];
  // A keyed step run without the join index scans rows: a word scan
  // cannot check its bound positions.
  const bool probe = s.ctx.use_join_index && !si.bound_positions.empty();
  const bool want_word = in.op == Op::kOpenWord;
  if (want_word && probe) {
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
      const ValueSet::WordIndex* index = extent.WordIndexOn(si.bound_positions);
      if (index != nullptr) {
        cur.kind = Cursor::Kind::kWordChain;
        cur.words = extent.words();
        cur.arity = si.arity;
        cur.index = index;
        cur.nk = nk;
        const size_t h = ValueSet::HashWords(cur.kw, nk);
        cur.row = index->heads[h & index->mask];
        ++s.word_opens;
        return pc + 1;
      }
    }
  } else if (want_word && si.bound_positions.empty()) {
    if (extent.word_arity() != 0) {
      cur.kind = Cursor::Kind::kWordScan;
      cur.words = extent.words();
      cur.arity = si.arity;
      cur.rows = static_cast<int64_t>(extent.size());
      cur.row = -1;
      ++s.word_opens;
      return pc + 1;
    }
  }
  ++s.row_opens;
  if (probe) {
    // The key terms are constants or bound variables, so building the
    // probe key cannot fail (the planner excludes applications from
    // bound positions).
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
  Cursor& cur = s.cursors[in.a];
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
      for (int64_t r = cur.row + 1; r < cur.rows; ++r) {
        const uintptr_t* row = cur.words + r * cur.arity;
        bool match = true;
        for (const CompiledRule::WordDup& wd : si.word_dups) {
          if (row[wd.pos] != row[wd.first_pos]) {
            match = false;
            break;
          }
        }
        if (!match) continue;
        cur.row = r;
        for (const CompiledRule::WordBind& wb : si.word_binds) {
          s.regs[wb.reg] = Value::FromInlineBits(row[wb.pos]);
        }
        return pc + 1;
      }
      cur.row = cur.rows;
      return in.fail;
    }
    case Cursor::Kind::kWordChain: {
      const std::vector<int32_t>& next = cur.index->next;
      while (cur.row >= 0) {
        const uintptr_t* row = cur.words + cur.row * cur.arity;
        cur.row = next[cur.row];
        bool match = true;
        for (size_t j = 0; j < cur.nk; ++j) {
          if (row[si.bound_positions[j]] != cur.kw[j]) {
            match = false;
            break;
          }
        }
        for (size_t j = 0; match && j < si.word_dups.size(); ++j) {
          const CompiledRule::WordDup& wd = si.word_dups[j];
          if (row[wd.pos] != row[wd.first_pos]) match = false;
        }
        if (!match) continue;
        for (const CompiledRule::WordBind& wb : si.word_binds) {
          s.regs[wb.reg] = Value::FromInlineBits(row[wb.pos]);
        }
        return pc + 1;
      }
      return in.fail;
    }
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

/// The word-level emit path: gathers the head's words, hashes them
/// once, and with that hash probes `known`'s dedup index and then
/// appends to `out` (ValueSet::InsertWords), which dedups against the
/// facts already there — including those of earlier firings this
/// round.  No Value is built.  Returns false, having done nothing, when
/// a component is not an inline scalar: the caller then emits the
/// tuple.  Only wired for infallible rules, where the head has no
/// application and so cannot fail.
bool EmitWords(ExecState& s) {
  const size_t arity = s.cr.head.size();
  for (size_t j = 0; j < arity; ++j) {
    const CompiledRule::HeadSrc& h = s.cr.head[j];
    const Value& v = h.kind == CompiledRule::HeadSrc::Kind::kReg
                         ? s.regs[h.x]
                         : s.cr.consts[h.x];
    if (!v.is_inline()) return false;
    s.head_words[j] = v.inline_bits();
  }
  const uintptr_t* words = s.head_words.data();
  const size_t hash = ValueSet::HashWords(words, arity);
  if (s.known != nullptr && s.known->ContainsWords(words, arity, hash)) {
    return true;
  }
  if (s.out->InsertWords(words, arity, hash)) ++s.facts;
  return true;
}

size_t HandleEmit(ExecState& s, const Instr& in, Status* st) {
  if (s.emit_words && EmitWords(s)) return in.fail;
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
  if (s.on_head != nullptr) {
    Status delivered = (*s.on_head)(std::move(fact));
    if (!delivered.ok()) {
      *st = std::move(delivered);
      return kPcError;
    }
    return in.fail;
  }
  if (s.known != nullptr && s.known->Contains(fact)) return in.fail;
  if (s.out->Insert(std::move(fact))) ++s.facts;
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
      case Op::kOpenRow:
      case Op::kOpenWord:
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

/// Runs `s` to completion and adds its work to the process counters.
Status Execute(ExecState& s) {
  s.regs.resize(s.cr.num_regs);
  s.cursors.resize(s.cr.steps.size());
  Status st = RunSwitch(s);
  VmStatCounters& counters = VmCounters();
  counters.rules.fetch_add(1, std::memory_order_relaxed);
  counters.ops.fetch_add(s.ops, std::memory_order_relaxed);
  counters.word_opens.fetch_add(s.word_opens, std::memory_order_relaxed);
  counters.row_opens.fetch_add(s.row_opens, std::memory_order_relaxed);
  counters.facts.fetch_add(s.facts, std::memory_order_relaxed);
  return st;
}

}  // namespace

Result<size_t> ExecuteCompiledRule(const CompiledRule& cr,
                                   const BodyContext& ctx, ValueSet* out,
                                   const ValueSet* known) {
  ExecState s{cr, ctx, out, nullptr, known};
  const size_t head_arity = cr.head.size();
  if (cr.infallible && head_arity > 0 &&
      head_arity <= ValueSet::kMaxFlatArity) {
    s.emit_words = true;
    s.head_words.resize(head_arity);
  }
  AWR_RETURN_IF_ERROR(Execute(s));
  return static_cast<size_t>(s.facts);
}

Status ExecuteCompiledRuleHeads(const CompiledRule& cr, const BodyContext& ctx,
                                const std::function<Status(Value)>& on_head) {
  ExecState s{cr, ctx, nullptr, &on_head};
  return Execute(s);
}

VmExecStats GetVmExecStats() {
  const VmStatCounters& counters = VmCounters();
  VmExecStats out;
  out.vm_rules_fired = counters.rules.load(std::memory_order_relaxed);
  out.ops_dispatched = counters.ops.load(std::memory_order_relaxed);
  out.word_opens = counters.word_opens.load(std::memory_order_relaxed);
  out.row_opens = counters.row_opens.load(std::memory_order_relaxed);
  out.vm_facts = counters.facts.load(std::memory_order_relaxed);
  out.cache_hits = out.vm_rules_fired;
  out.programs_lowered = counters.lowered.load(std::memory_order_relaxed);
  out.cache_misses = out.programs_lowered;
  return out;
}

void CountLowering() {
  VmCounters().lowered.fetch_add(1, std::memory_order_relaxed);
}

void ResetVmExecStats() {
  VmStatCounters& counters = VmCounters();
  counters.rules.store(0, std::memory_order_relaxed);
  counters.ops.store(0, std::memory_order_relaxed);
  counters.word_opens.store(0, std::memory_order_relaxed);
  counters.row_opens.store(0, std::memory_order_relaxed);
  counters.facts.store(0, std::memory_order_relaxed);
  counters.lowered.store(0, std::memory_order_relaxed);
}

}  // namespace awr::datalog::vm
