#include <algorithm>
#include <string>
#include <vector>

#include "awr/datalog/vm/bytecode.h"

namespace awr::datalog::vm {

namespace {

Status Bad(const std::string& what) {
  return Status::InvalidArgument("vm verify: " + what);
}

Status VerifyTermRef(const CompiledRule& cr, uint32_t idx,
                     const std::string& where) {
  if (idx >= cr.terms.size()) return Bad("term index out of range in " + where);
  return Status::OK();
}

}  // namespace

Status VerifyCompiledRule(const CompiledRule& cr) {
  if (cr.code.empty()) return Bad("empty code");
  if (cr.code.back().op != Op::kHalt) return Bad("code does not end in halt");

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
    if (si.keys.size() != si.bound_positions.size()) {
      return Bad("probe key/positions mismatch");
    }
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
  // A step's index is also its loop's cursor index, so each step is
  // opened exactly once.
  std::vector<bool> opened(cr.steps.size(), false);
  for (size_t pc = 0; pc < cr.code.size(); ++pc) {
    const Instr& in = cr.code[pc];
    if (static_cast<uint8_t>(in.op) >= kNumOps) return Bad("unknown opcode");
    switch (in.op) {
      case Op::kOpenRow:
      case Op::kOpenWord: {
        if (in.a >= cr.steps.size()) return Bad("open step range");
        if (in.fail >= cr.code.size()) return Bad("open fail target");
        if (pc + 1 >= cr.code.size() || cr.code[pc + 1].op != Op::kNext ||
            cr.code[pc + 1].a != in.a) {
          return Bad("open not followed by its next");
        }
        if (in.op == Op::kOpenWord && !cr.steps[in.a].word_capable) {
          return Bad("word open on a row-only step");
        }
        if (opened[in.a]) return Bad("step opened twice");
        opened[in.a] = true;
        break;
      }
      case Op::kNext:
        if (in.a >= cr.steps.size()) return Bad("next step range");
        if (in.fail >= cr.code.size()) return Bad("next fail target");
        if (pc == 0 ||
            (cr.code[pc - 1].op != Op::kOpenRow &&
             cr.code[pc - 1].op != Op::kOpenWord) ||
            cr.code[pc - 1].a != in.a) {
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
  if (std::find(opened.begin(), opened.end(), false) != opened.end()) {
    return Bad("step never opened");
  }
  return Status::OK();
}

}  // namespace awr::datalog::vm
