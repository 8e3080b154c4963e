#include <string>

#include "awr/datalog/vm/bytecode.h"
#include "awr/value/value_codec.h"

namespace awr::datalog::vm {

namespace {

Status Bad(const std::string& what) {
  return Status::InvalidArgument("vm verify: " + what);
}

// Caps on pool sizes: far above any honest program, low enough that
// garbage counts in a decoded image cannot drive unbounded allocation.
constexpr uint32_t kMaxRegs = 1u << 20;
constexpr uint32_t kMaxPool = 1u << 22;

Status VerifyTermRef(const CompiledRule& cr, uint32_t idx,
                     const std::string& where) {
  if (idx >= cr.terms.size()) return Bad("term index out of range in " + where);
  return Status::OK();
}

}  // namespace

Status VerifyCompiledRule(const CompiledRule& cr) {
  if (cr.num_regs > kMaxRegs) return Bad("register file too large");
  if (cr.code.size() > kMaxPool || cr.consts.size() > kMaxPool ||
      cr.terms.size() > kMaxPool || cr.term_args.size() > kMaxPool ||
      cr.steps.size() > kMaxPool) {
    return Bad("pool too large");
  }
  if (cr.code.empty()) return Bad("empty code");
  if (cr.code.back().op != Op::kHalt) return Bad("code does not end in halt");
  if (cr.num_loops != cr.steps.size()) return Bad("loop/step count mismatch");

  // Term pool: apply children strictly precede their parent, so term
  // evaluation terminates on any verified program.
  for (size_t i = 0; i < cr.terms.size(); ++i) {
    const CompiledRule::TermNode& n = cr.terms[i];
    switch (n.kind) {
      case CompiledRule::TermNode::Kind::kReg:
        if (n.a >= cr.num_regs) return Bad("term register out of range");
        break;
      case CompiledRule::TermNode::Kind::kConst:
        if (n.a >= cr.consts.size()) return Bad("term constant out of range");
        break;
      case CompiledRule::TermNode::Kind::kApply: {
        if (n.c >= cr.fn_names.size()) return Bad("term fn out of range");
        if (n.b > cr.term_args.size() ||
            n.a > cr.term_args.size() - n.b) {
          return Bad("term argument slots out of range");
        }
        for (uint32_t j = 0; j < n.b; ++j) {
          const uint32_t child = cr.term_args[n.a + j];
          if (child >= i) return Bad("term pool not topologically ordered");
        }
        break;
      }
      default:
        return Bad("unknown term kind");
    }
  }

  // Step descriptors, cross-checked against the host-side rule.
  for (const CompiledRule::StepInfo& si : cr.steps) {
    if (si.literal >= cr.rule.body.size()) return Bad("step literal range");
    const Literal& lit = cr.rule.body[si.literal];
    if (!lit.is_atom() || !lit.positive) return Bad("step literal kind");
    if (si.arity != lit.atom.arity()) return Bad("step arity mismatch");
    for (size_t pos : si.bound_positions) {
      if (pos >= si.arity) return Bad("bound position range");
    }
    if (si.probe && si.keys.size() != si.bound_positions.size()) {
      return Bad("probe key/positions mismatch");
    }
    if (!si.probe && !si.keys.empty()) return Bad("keys on a scan step");
    for (const CompiledRule::FieldDesc& f : si.fields) {
      if (f.pos >= si.arity) return Bad("field position range");
      switch (f.kind) {
        case CompiledRule::FieldDesc::Kind::kBindReg:
        case CompiledRule::FieldDesc::Kind::kCheckReg:
          if (f.x >= cr.num_regs) return Bad("field register range");
          break;
        case CompiledRule::FieldDesc::Kind::kCheckConst:
          if (f.x >= cr.consts.size()) return Bad("field constant range");
          break;
        case CompiledRule::FieldDesc::Kind::kCheckApply:
          AWR_RETURN_IF_ERROR(VerifyTermRef(cr, f.x, "field"));
          break;
        default:
          return Bad("unknown field kind");
      }
    }
    for (const CompiledRule::KeySrc& k : si.keys) {
      if (k.reg >= 0) {
        if (static_cast<uint32_t>(k.reg) >= cr.num_regs) {
          return Bad("key register range");
        }
      } else if (k.const_idx >= cr.consts.size()) {
        return Bad("key constant range");
      }
    }
    if (si.word_capable) {
      if (si.arity < 1 || si.bound_positions.size() > 8) {
        return Bad("word-capable step shape");
      }
      for (const CompiledRule::KeySrc& k : si.keys) {
        if (k.reg < 0 && !cr.consts[k.const_idx].is_inline()) {
          return Bad("word-capable step with non-inline constant key");
        }
      }
    }
    for (const CompiledRule::WordBind& wb : si.word_binds) {
      if (wb.pos >= si.arity || wb.reg >= cr.num_regs) {
        return Bad("word bind range");
      }
    }
    for (const CompiledRule::WordDup& wd : si.word_dups) {
      if (wd.pos >= si.arity || wd.first_pos >= si.arity) {
        return Bad("word dup range");
      }
    }
  }

  for (const CompiledRule::NegDesc& nd : cr.negs) {
    if (nd.literal >= cr.rule.body.size()) return Bad("negation literal range");
    const Literal& lit = cr.rule.body[nd.literal];
    if (!lit.is_atom() || lit.positive) return Bad("negation literal kind");
    if (nd.arg_terms.size() != lit.atom.arity()) {
      return Bad("negation argument count");
    }
    for (uint32_t t : nd.arg_terms) {
      AWR_RETURN_IF_ERROR(VerifyTermRef(cr, t, "negation"));
    }
  }
  for (const CompiledRule::CmpDesc& cd : cr.cmps) {
    AWR_RETURN_IF_ERROR(VerifyTermRef(cr, cd.lhs, "compare"));
    AWR_RETURN_IF_ERROR(VerifyTermRef(cr, cd.rhs, "compare"));
  }
  if (cr.head.size() != cr.rule.head.args.size()) {
    return Bad("head arity mismatch");
  }
  for (const CompiledRule::HeadSrc& h : cr.head) {
    switch (h.kind) {
      case CompiledRule::HeadSrc::Kind::kReg:
        if (h.x >= cr.num_regs) return Bad("head register range");
        break;
      case CompiledRule::HeadSrc::Kind::kConst:
        if (h.x >= cr.consts.size()) return Bad("head constant range");
        break;
      case CompiledRule::HeadSrc::Kind::kApply:
        AWR_RETURN_IF_ERROR(VerifyTermRef(cr, h.x, "head"));
        break;
      default:
        return Bad("unknown head kind");
    }
  }

  // Instruction stream: known opcodes, in-range operands, jump targets
  // inside the code, every open immediately followed by its next.
  bool saw_charge = false;
  for (size_t pc = 0; pc < cr.code.size(); ++pc) {
    const Instr& in = cr.code[pc];
    if (static_cast<uint8_t>(in.op) >= kNumOps) return Bad("unknown opcode");
    switch (in.op) {
      case Op::kOpenScanRow:
      case Op::kOpenProbeRow:
      case Op::kOpenScanWord:
      case Op::kOpenProbeWord: {
        if (in.a >= cr.steps.size()) return Bad("open step range");
        if (in.loop >= cr.num_loops) return Bad("open loop range");
        if (in.fail >= cr.code.size()) return Bad("open fail target");
        if (pc + 1 >= cr.code.size() || cr.code[pc + 1].op != Op::kNext ||
            cr.code[pc + 1].a != in.a || cr.code[pc + 1].loop != in.loop) {
          return Bad("open not followed by its next");
        }
        const bool word =
            in.op == Op::kOpenScanWord || in.op == Op::kOpenProbeWord;
        if (word && !cr.steps[in.a].word_capable) {
          return Bad("word open on a row-only step");
        }
        const bool probe =
            in.op == Op::kOpenProbeRow || in.op == Op::kOpenProbeWord;
        if (probe != cr.steps[in.a].probe) return Bad("open probe mismatch");
        break;
      }
      case Op::kNext:
        if (in.a >= cr.steps.size()) return Bad("next step range");
        if (in.loop >= cr.num_loops) return Bad("next loop range");
        if (in.fail >= cr.code.size()) return Bad("next fail target");
        if (pc == 0 || cr.code[pc - 1].a != in.a ||
            cr.code[pc - 1].loop != in.loop) {
          return Bad("next not preceded by its open");
        }
        break;
      case Op::kFilterNegate:
        if (in.a >= cr.negs.size()) return Bad("negate descriptor range");
        if (in.fail >= cr.code.size()) return Bad("negate fail target");
        break;
      case Op::kFilterCompare:
        if (in.a >= cr.cmps.size()) return Bad("compare descriptor range");
        if (in.fail >= cr.code.size()) return Bad("compare fail target");
        break;
      case Op::kBind:
        if (in.a >= cr.num_regs) return Bad("bind register range");
        AWR_RETURN_IF_ERROR(VerifyTermRef(cr, in.b, "bind"));
        break;
      case Op::kCharge:
        saw_charge = true;
        break;
      case Op::kEmit:
        if (in.fail >= cr.code.size()) return Bad("emit continue target");
        if (pc == 0 || cr.code[pc - 1].op != Op::kCharge) {
          return Bad("emit not preceded by charge");
        }
        break;
      case Op::kHalt:
        break;
    }
  }
  if (!saw_charge) return Bad("no charge instruction");
  return Status::OK();
}

// ----------------------------------------------------------------------
// Wire codec.  The image covers the executable portion of the program
// (instructions + pools + metadata); the Rule/RulePlan pair it was
// compiled from is supplied out of band at decode time and the verifier
// re-checks the image against it, so corrupt or truncated bytes can
// never reach the dispatch loop.

namespace {

constexpr uint32_t kMagic = 0x4d565741;  // "AWVM"
constexpr uint32_t kVersion = 1;

// Count fields are sanity-bounded by the bytes that could possibly back
// them (every pooled element takes at least one byte on the wire).
Status ReadCount(ByteReader* in, size_t min_elem_bytes, uint32_t* out) {
  AWR_RETURN_IF_ERROR(in->U32(out));
  if (static_cast<size_t>(*out) * min_elem_bytes > in->remaining()) {
    return Status::InvalidArgument("vm decode: count exceeds input");
  }
  return Status::OK();
}

}  // namespace

std::vector<uint8_t> EncodeProgram(const CompiledRule& cr) {
  ByteWriter out;
  out.U32(kMagic);
  out.U32(kVersion);
  uint8_t flags = 0;
  if (cr.use_join_index) flags |= 1;
  if (cr.infallible) flags |= 2;
  out.U8(flags);
  out.U32(cr.num_regs);
  out.U32(cr.num_loops);
  out.U64(cr.cache_key);

  // Constants: string table first (the snapshot layout), then bodies.
  ByteWriter bodies;
  ValueEncoder enc(&bodies);
  for (const Value& v : cr.consts) enc.Encode(v);
  out.U32(static_cast<uint32_t>(enc.table().size()));
  for (const std::string& s : enc.table()) out.Str(s);
  out.U32(static_cast<uint32_t>(cr.consts.size()));
  out.Append(bodies);

  out.U32(static_cast<uint32_t>(cr.steps.size()));
  for (const CompiledRule::StepInfo& si : cr.steps) {
    out.U32(si.literal);
    out.U32(si.arity);
    out.U8(si.probe ? 1 : 0);
    out.U8(si.word_capable ? 1 : 0);
    out.U32(static_cast<uint32_t>(si.bound_positions.size()));
    for (size_t pos : si.bound_positions) out.U32(static_cast<uint32_t>(pos));
    out.U32(static_cast<uint32_t>(si.fields.size()));
    for (const CompiledRule::FieldDesc& f : si.fields) {
      out.U8(static_cast<uint8_t>(f.kind));
      out.U32(f.pos);
      out.U32(f.x);
    }
    out.U32(static_cast<uint32_t>(si.keys.size()));
    for (const CompiledRule::KeySrc& k : si.keys) {
      out.U32(static_cast<uint32_t>(k.reg));
      out.U32(k.const_idx);
    }
    out.U32(static_cast<uint32_t>(si.word_binds.size()));
    for (const CompiledRule::WordBind& wb : si.word_binds) {
      out.U32(wb.pos);
      out.U32(wb.reg);
    }
    out.U32(static_cast<uint32_t>(si.word_dups.size()));
    for (const CompiledRule::WordDup& wd : si.word_dups) {
      out.U32(wd.pos);
      out.U32(wd.first_pos);
    }
  }

  out.U32(static_cast<uint32_t>(cr.terms.size()));
  for (const CompiledRule::TermNode& n : cr.terms) {
    out.U8(static_cast<uint8_t>(n.kind));
    out.U32(n.a);
    out.U32(n.b);
    out.U32(n.c);
  }
  out.U32(static_cast<uint32_t>(cr.term_args.size()));
  for (uint32_t t : cr.term_args) out.U32(t);
  out.U32(static_cast<uint32_t>(cr.fn_names.size()));
  for (const std::string& s : cr.fn_names) out.Str(s);

  out.U32(static_cast<uint32_t>(cr.negs.size()));
  for (const CompiledRule::NegDesc& nd : cr.negs) {
    out.U32(nd.literal);
    out.U32(static_cast<uint32_t>(nd.arg_terms.size()));
    for (uint32_t t : nd.arg_terms) out.U32(t);
  }
  out.U32(static_cast<uint32_t>(cr.cmps.size()));
  for (const CompiledRule::CmpDesc& cd : cr.cmps) {
    out.U8(static_cast<uint8_t>(cd.op));
    out.U32(cd.lhs);
    out.U32(cd.rhs);
  }
  out.U32(static_cast<uint32_t>(cr.head.size()));
  for (const CompiledRule::HeadSrc& h : cr.head) {
    out.U8(static_cast<uint8_t>(h.kind));
    out.U32(h.x);
  }

  out.U32(static_cast<uint32_t>(cr.code.size()));
  for (const Instr& in : cr.code) {
    out.U8(static_cast<uint8_t>(in.op));
    out.U8(in.loop);
    out.U32(in.a);
    out.U32(in.b);
    out.U32(in.fail);
  }
  return out.TakeBytes();
}

Result<CompiledRule> DecodeProgram(const uint8_t* data, size_t size,
                                   Rule rule, RulePlan plan) {
  ByteReader in(data, size);
  uint32_t magic = 0, version = 0;
  AWR_RETURN_IF_ERROR(in.U32(&magic));
  AWR_RETURN_IF_ERROR(in.U32(&version));
  if (magic != kMagic) {
    return Status::InvalidArgument("vm decode: bad magic");
  }
  if (version != kVersion) {
    return Status::InvalidArgument("vm decode: unsupported version");
  }
  CompiledRule cr;
  cr.rule = std::move(rule);
  cr.plan = std::move(plan);
  uint8_t flags = 0;
  AWR_RETURN_IF_ERROR(in.U8(&flags));
  cr.use_join_index = (flags & 1) != 0;
  cr.infallible = (flags & 2) != 0;
  AWR_RETURN_IF_ERROR(in.U32(&cr.num_regs));
  AWR_RETURN_IF_ERROR(in.U32(&cr.num_loops));
  AWR_RETURN_IF_ERROR(in.U64(&cr.cache_key));

  uint32_t n = 0;
  AWR_RETURN_IF_ERROR(ReadCount(&in, 4, &n));
  std::vector<std::string> table;
  table.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    std::string s;
    AWR_RETURN_IF_ERROR(in.Str(&s));
    table.push_back(std::move(s));
  }
  AWR_RETURN_IF_ERROR(ReadCount(&in, 1, &n));
  {
    ValueDecoder dec(&in, &table);
    for (uint32_t i = 0; i < n; ++i) {
      AWR_ASSIGN_OR_RETURN(Value v, dec.Decode());
      cr.consts.push_back(std::move(v));
    }
  }

  AWR_RETURN_IF_ERROR(ReadCount(&in, 10, &n));
  cr.steps.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    CompiledRule::StepInfo si;
    AWR_RETURN_IF_ERROR(in.U32(&si.literal));
    AWR_RETURN_IF_ERROR(in.U32(&si.arity));
    uint8_t b = 0;
    AWR_RETURN_IF_ERROR(in.U8(&b));
    si.probe = b != 0;
    AWR_RETURN_IF_ERROR(in.U8(&b));
    si.word_capable = b != 0;
    uint32_t m = 0;
    AWR_RETURN_IF_ERROR(ReadCount(&in, 4, &m));
    for (uint32_t j = 0; j < m; ++j) {
      uint32_t pos = 0;
      AWR_RETURN_IF_ERROR(in.U32(&pos));
      si.bound_positions.push_back(pos);
    }
    AWR_RETURN_IF_ERROR(ReadCount(&in, 9, &m));
    for (uint32_t j = 0; j < m; ++j) {
      CompiledRule::FieldDesc f;
      uint8_t kind = 0;
      AWR_RETURN_IF_ERROR(in.U8(&kind));
      if (kind > static_cast<uint8_t>(
                     CompiledRule::FieldDesc::Kind::kCheckApply)) {
        return Status::InvalidArgument("vm decode: unknown field kind");
      }
      f.kind = static_cast<CompiledRule::FieldDesc::Kind>(kind);
      AWR_RETURN_IF_ERROR(in.U32(&f.pos));
      AWR_RETURN_IF_ERROR(in.U32(&f.x));
      si.fields.push_back(f);
    }
    AWR_RETURN_IF_ERROR(ReadCount(&in, 8, &m));
    for (uint32_t j = 0; j < m; ++j) {
      CompiledRule::KeySrc k;
      uint32_t reg = 0;
      AWR_RETURN_IF_ERROR(in.U32(&reg));
      k.reg = static_cast<int32_t>(reg);
      AWR_RETURN_IF_ERROR(in.U32(&k.const_idx));
      si.keys.push_back(k);
    }
    AWR_RETURN_IF_ERROR(ReadCount(&in, 8, &m));
    for (uint32_t j = 0; j < m; ++j) {
      CompiledRule::WordBind wb;
      AWR_RETURN_IF_ERROR(in.U32(&wb.pos));
      AWR_RETURN_IF_ERROR(in.U32(&wb.reg));
      si.word_binds.push_back(wb);
    }
    AWR_RETURN_IF_ERROR(ReadCount(&in, 8, &m));
    for (uint32_t j = 0; j < m; ++j) {
      CompiledRule::WordDup wd;
      AWR_RETURN_IF_ERROR(in.U32(&wd.pos));
      AWR_RETURN_IF_ERROR(in.U32(&wd.first_pos));
      si.word_dups.push_back(wd);
    }
    cr.steps.push_back(std::move(si));
  }

  AWR_RETURN_IF_ERROR(ReadCount(&in, 13, &n));
  cr.terms.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    CompiledRule::TermNode node;
    uint8_t kind = 0;
    AWR_RETURN_IF_ERROR(in.U8(&kind));
    if (kind > static_cast<uint8_t>(CompiledRule::TermNode::Kind::kApply)) {
      return Status::InvalidArgument("vm decode: unknown term kind");
    }
    node.kind = static_cast<CompiledRule::TermNode::Kind>(kind);
    AWR_RETURN_IF_ERROR(in.U32(&node.a));
    AWR_RETURN_IF_ERROR(in.U32(&node.b));
    AWR_RETURN_IF_ERROR(in.U32(&node.c));
    cr.terms.push_back(node);
  }
  AWR_RETURN_IF_ERROR(ReadCount(&in, 4, &n));
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t t = 0;
    AWR_RETURN_IF_ERROR(in.U32(&t));
    cr.term_args.push_back(t);
  }
  AWR_RETURN_IF_ERROR(ReadCount(&in, 4, &n));
  for (uint32_t i = 0; i < n; ++i) {
    std::string s;
    AWR_RETURN_IF_ERROR(in.Str(&s));
    cr.fn_names.push_back(std::move(s));
  }

  AWR_RETURN_IF_ERROR(ReadCount(&in, 8, &n));
  for (uint32_t i = 0; i < n; ++i) {
    CompiledRule::NegDesc nd;
    AWR_RETURN_IF_ERROR(in.U32(&nd.literal));
    uint32_t m = 0;
    AWR_RETURN_IF_ERROR(ReadCount(&in, 4, &m));
    for (uint32_t j = 0; j < m; ++j) {
      uint32_t t = 0;
      AWR_RETURN_IF_ERROR(in.U32(&t));
      nd.arg_terms.push_back(t);
    }
    cr.negs.push_back(std::move(nd));
  }
  AWR_RETURN_IF_ERROR(ReadCount(&in, 9, &n));
  for (uint32_t i = 0; i < n; ++i) {
    CompiledRule::CmpDesc cd;
    uint8_t op = 0;
    AWR_RETURN_IF_ERROR(in.U8(&op));
    if (op > static_cast<uint8_t>(CmpOp::kLe)) {
      return Status::InvalidArgument("vm decode: unknown compare op");
    }
    cd.op = static_cast<CmpOp>(op);
    AWR_RETURN_IF_ERROR(in.U32(&cd.lhs));
    AWR_RETURN_IF_ERROR(in.U32(&cd.rhs));
    cr.cmps.push_back(cd);
  }
  AWR_RETURN_IF_ERROR(ReadCount(&in, 5, &n));
  for (uint32_t i = 0; i < n; ++i) {
    CompiledRule::HeadSrc h;
    uint8_t kind = 0;
    AWR_RETURN_IF_ERROR(in.U8(&kind));
    if (kind > static_cast<uint8_t>(CompiledRule::HeadSrc::Kind::kApply)) {
      return Status::InvalidArgument("vm decode: unknown head kind");
    }
    h.kind = static_cast<CompiledRule::HeadSrc::Kind>(kind);
    AWR_RETURN_IF_ERROR(in.U32(&h.x));
    cr.head.push_back(h);
  }

  AWR_RETURN_IF_ERROR(ReadCount(&in, 14, &n));
  cr.code.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Instr instr;
    uint8_t op = 0;
    AWR_RETURN_IF_ERROR(in.U8(&op));
    if (op >= kNumOps) {
      return Status::InvalidArgument("vm decode: unknown opcode");
    }
    instr.op = static_cast<Op>(op);
    AWR_RETURN_IF_ERROR(in.U8(&instr.loop));
    uint32_t a = 0;
    AWR_RETURN_IF_ERROR(in.U32(&a));
    if (a > 0xffff) return Status::InvalidArgument("vm decode: operand range");
    instr.a = static_cast<uint16_t>(a);
    AWR_RETURN_IF_ERROR(in.U32(&instr.b));
    AWR_RETURN_IF_ERROR(in.U32(&instr.fail));
    cr.code.push_back(instr);
  }
  if (in.remaining() != 0) {
    return Status::InvalidArgument("vm decode: trailing bytes");
  }

  AWR_RETURN_IF_ERROR(VerifyCompiledRule(cr));
  return cr;
}

std::string Disassemble(const CompiledRule& cr) {
  static const char* kNames[] = {
      "open-scan-row",  "open-probe-row", "open-scan-word", "open-probe-word",
      "next",           "filter-negate",  "filter-compare", "bind",
      "charge",         "emit",           "halt"};
  std::string out;
  for (size_t pc = 0; pc < cr.code.size(); ++pc) {
    const Instr& in = cr.code[pc];
    out += std::to_string(pc) + ": " +
           kNames[static_cast<uint8_t>(in.op)];
    switch (in.op) {
      case Op::kOpenScanRow:
      case Op::kOpenProbeRow:
      case Op::kOpenScanWord:
      case Op::kOpenProbeWord:
      case Op::kNext:
        out += " loop=" + std::to_string(in.loop) +
               " step=" + std::to_string(in.a) +
               " fail=" + std::to_string(in.fail);
        break;
      case Op::kFilterNegate:
      case Op::kFilterCompare:
        out += " desc=" + std::to_string(in.a) +
               " fail=" + std::to_string(in.fail);
        break;
      case Op::kBind:
        out += " reg=" + std::to_string(in.a) + " term=" + std::to_string(in.b);
        break;
      case Op::kEmit:
        out += " cont=" + std::to_string(in.fail);
        break;
      case Op::kCharge:
      case Op::kHalt:
        break;
    }
    out += "\n";
  }
  return out;
}

}  // namespace awr::datalog::vm
