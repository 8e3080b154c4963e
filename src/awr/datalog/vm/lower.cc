#include <algorithm>
#include <cstddef>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "awr/datalog/vm/bytecode.h"

namespace awr::datalog::vm {

namespace {

/// Fail-target placeholder patched to the final halt pc.
constexpr uint32_t kPatchHalt = 0xffffffffu;

/// Builder state for one rule.  The lowering walk mirrors the planner's
/// readiness analysis: the set of bound variables at each step is
/// structural (every execution path binds exactly the variables of the
/// preceding steps), so probe keys, assignment-form detection and
/// register allocation are all resolved statically.
struct Lowerer {
  const Rule& rule;
  const RulePlan& plan;
  CompiledRule cr;

  std::unordered_map<uint32_t, uint32_t> var_regs;  // var id -> register
  std::unordered_set<uint32_t> bound;               // bound var ids
  std::unordered_map<Value, uint32_t> const_ids;
  std::unordered_map<std::string, uint32_t> fn_ids;
  bool fallible = false;
  uint32_t current_fail = kPatchHalt;  // innermost enclosing next pc
  std::vector<size_t> word_candidates;  // step indices, pending infallibility

  Lowerer(const Rule& r, const RulePlan& p) : rule(r), plan(p) {}

  uint32_t RegOf(Var v) {
    auto [it, inserted] = var_regs.try_emplace(v.id, cr.num_regs);
    if (inserted) ++cr.num_regs;
    return it->second;
  }

  uint32_t ConstOf(const Value& v) {
    auto [it, inserted] =
        const_ids.try_emplace(v, static_cast<uint32_t>(cr.consts.size()));
    if (inserted) cr.consts.push_back(v);
    return it->second;
  }

  uint32_t FnOf(const std::string& name) {
    auto [it, inserted] =
        fn_ids.try_emplace(name, static_cast<uint32_t>(cr.fn_names.size()));
    if (inserted) cr.fn_names.push_back(name);
    return it->second;
  }

  /// Compiles `term` into the node pool; every variable must be bound.
  Result<uint32_t> CompileTerm(const TermExpr& term) {
    switch (term.kind()) {
      case TermExpr::Kind::kVar: {
        if (bound.count(term.var().id) == 0) {
          return Status::Internal("vm lowering: unbound variable " +
                                  term.var().name());
        }
        CompiledRule::TermNode n;
        n.kind = CompiledRule::TermNode::Kind::kReg;
        n.a = RegOf(term.var());
        cr.terms.push_back(n);
        return static_cast<uint32_t>(cr.terms.size() - 1);
      }
      case TermExpr::Kind::kConst: {
        CompiledRule::TermNode n;
        n.kind = CompiledRule::TermNode::Kind::kConst;
        n.a = ConstOf(term.constant());
        cr.terms.push_back(n);
        return static_cast<uint32_t>(cr.terms.size() - 1);
      }
      case TermExpr::Kind::kApply: {
        fallible = true;
        // Children first (so child indices < parent index); their
        // roots only enter term_args once all are compiled, keeping
        // each apply's argument slots contiguous.
        std::vector<uint32_t> roots;
        roots.reserve(term.args().size());
        for (const TermExpr& arg : term.args()) {
          AWR_ASSIGN_OR_RETURN(uint32_t root, CompileTerm(arg));
          roots.push_back(root);
        }
        CompiledRule::TermNode n;
        n.kind = CompiledRule::TermNode::Kind::kApply;
        n.a = static_cast<uint32_t>(cr.term_args.size());
        n.b = static_cast<uint32_t>(roots.size());
        n.c = FnOf(term.fn_name());
        cr.term_args.insert(cr.term_args.end(), roots.begin(), roots.end());
        cr.terms.push_back(n);
        return static_cast<uint32_t>(cr.terms.size() - 1);
      }
    }
    return Status::Internal("vm lowering: unknown term kind");
  }

  Status LowerPositive(const PlanStep& step, const Literal& lit) {
    CompiledRule::StepInfo si;
    si.literal = static_cast<uint32_t>(step.literal);
    si.arity = static_cast<uint32_t>(lit.atom.arity());
    si.bound_positions = step.bound_positions;

    bool atom_has_apply = false;
    bool consts_inline = true;
    // First occurrence, within this atom, of each variable unbound at
    // step entry (the word path's Bind/Dup split).
    std::unordered_map<uint32_t, uint32_t> first_pos_here;
    for (uint32_t pos = 0; pos < si.arity; ++pos) {
      const TermExpr& arg = lit.atom.args[pos];
      CompiledRule::FieldDesc f;
      f.pos = pos;
      if (arg.is_var()) {
        const uint32_t id = arg.var().id;
        if (bound.count(id) != 0) {
          f.kind = CompiledRule::FieldDesc::Kind::kCheckReg;
          f.x = RegOf(arg.var());
        } else {
          auto [it, inserted] = first_pos_here.try_emplace(id, pos);
          if (inserted) {
            f.kind = CompiledRule::FieldDesc::Kind::kBindReg;
            f.x = RegOf(arg.var());
            si.word_binds.push_back(CompiledRule::WordBind{pos, f.x});
          } else {
            // Repeat within the atom: the first occurrence's bind (an
            // earlier field of this same descriptor list) has already
            // written the register by the time this check runs.
            f.kind = CompiledRule::FieldDesc::Kind::kCheckReg;
            f.x = RegOf(arg.var());
            si.word_dups.push_back(CompiledRule::WordDup{pos, it->second});
          }
        }
      } else if (arg.is_const()) {
        f.kind = CompiledRule::FieldDesc::Kind::kCheckConst;
        f.x = ConstOf(arg.constant());
        if (!arg.constant().is_inline()) consts_inline = false;
      } else {
        atom_has_apply = true;
        AWR_ASSIGN_OR_RETURN(uint32_t t, CompileTerm(arg));
        f.kind = CompiledRule::FieldDesc::Kind::kCheckApply;
        f.x = t;
      }
      si.fields.push_back(f);
    }
    for (size_t pos : step.bound_positions) {
      if (pos >= si.arity) {
        return Status::Internal("vm lowering: bound position out of range");
      }
      const TermExpr& arg = lit.atom.args[pos];
      CompiledRule::KeySrc key;
      if (arg.is_var()) {
        if (bound.count(arg.var().id) == 0) {
          return Status::Internal("vm lowering: unbound variable in probe key");
        }
        key.reg = static_cast<int32_t>(RegOf(arg.var()));
      } else if (arg.is_const()) {
        key.reg = -1;
        key.const_idx = ConstOf(arg.constant());
      } else {
        return Status::Internal("vm lowering: application in probe key");
      }
      si.keys.push_back(key);
    }
    // Word-cursor candidacy (confirmed after the whole rule is walked:
    // the rule must be infallible): inline constants, at most 8 key
    // positions, and every bound-variable or constant position must be
    // part of the probe key, which holds exactly when the atom has no
    // applications (no plan truncation) and the step has bound
    // positions.  A step without them scans, so it must have binds and
    // within-atom repeats only: every field that is not a bind is one of
    // the word dups.
    const bool covered =
        !si.bound_positions.empty() ||
        std::count_if(si.fields.begin(), si.fields.end(),
                      [](const CompiledRule::FieldDesc& f) {
                        return f.kind !=
                               CompiledRule::FieldDesc::Kind::kBindReg;
                      }) == static_cast<std::ptrdiff_t>(si.word_dups.size());
    if (si.arity >= 1 && !atom_has_apply && consts_inline && covered &&
        si.bound_positions.size() <= 8) {
      word_candidates.push_back(cr.steps.size());
    }

    // Newly bound variables are in scope for every later step.
    for (const auto& [id, pos] : first_pos_here) bound.insert(id);

    const uint32_t step_idx = static_cast<uint32_t>(cr.steps.size());
    cr.steps.push_back(std::move(si));

    cr.code.push_back(Instr{Op::kOpenRow, step_idx, 0, current_fail});
    const uint32_t next_pc = static_cast<uint32_t>(cr.code.size());
    cr.code.push_back(Instr{Op::kNext, step_idx, 0, current_fail});
    current_fail = next_pc;
    return Status::OK();
  }

  Status LowerNegative(const PlanStep& step, const Literal& lit) {
    CompiledRule::NegDesc nd;
    nd.literal = static_cast<uint32_t>(step.literal);
    for (const TermExpr& arg : lit.atom.args) {
      AWR_ASSIGN_OR_RETURN(uint32_t t, CompileTerm(arg));
      nd.arg_terms.push_back(t);
    }
    const uint32_t idx = static_cast<uint32_t>(cr.negs.size());
    cr.negs.push_back(std::move(nd));
    cr.code.push_back(Instr{Op::kFilterNegate, idx, 0, current_fail});
    return Status::OK();
  }

  Status LowerCompare(const Literal& lit) {
    // Assignment form: exactly one side an unbound variable.  Every
    // execution path reaching this step has bound exactly the variables
    // in `bound`, so the test is static.
    if (lit.op == CmpOp::kEq) {
      const bool lhs_unbound =
          lit.lhs.is_var() && bound.count(lit.lhs.var().id) == 0;
      const bool rhs_unbound =
          lit.rhs.is_var() && bound.count(lit.rhs.var().id) == 0;
      if (lhs_unbound != rhs_unbound) {
        const TermExpr& var_side = lhs_unbound ? lit.lhs : lit.rhs;
        const TermExpr& val_side = lhs_unbound ? lit.rhs : lit.lhs;
        AWR_ASSIGN_OR_RETURN(uint32_t t, CompileTerm(val_side));
        const uint32_t reg = RegOf(var_side.var());
        bound.insert(var_side.var().id);
        cr.code.push_back(Instr{Op::kBind, reg, t, 0});
        return Status::OK();
      }
    }
    CompiledRule::CmpDesc cd;
    cd.op = lit.op;
    AWR_ASSIGN_OR_RETURN(cd.lhs, CompileTerm(lit.lhs));
    AWR_ASSIGN_OR_RETURN(cd.rhs, CompileTerm(lit.rhs));
    const uint32_t idx = static_cast<uint32_t>(cr.cmps.size());
    cr.cmps.push_back(cd);
    cr.code.push_back(Instr{Op::kFilterCompare, idx, 0, current_fail});
    return Status::OK();
  }

  Result<std::shared_ptr<const CompiledRule>> Run() {
    if (plan.size() != rule.body.size()) {
      return Status::Internal("vm lowering: plan does not cover the body");
    }
    cr.rule = rule;
    cr.plan = plan;

    for (const PlanStep& step : plan.steps) {
      if (step.literal >= rule.body.size()) {
        return Status::Internal("vm lowering: plan literal out of range");
      }
      const Literal& lit = rule.body[step.literal];
      if (lit.is_atom()) {
        if (lit.positive) {
          AWR_RETURN_IF_ERROR(LowerPositive(step, lit));
        } else {
          AWR_RETURN_IF_ERROR(LowerNegative(step, lit));
        }
      } else {
        AWR_RETURN_IF_ERROR(LowerCompare(lit));
      }
    }

    cr.code.push_back(Instr{Op::kCharge, 0, 0, 0});
    // Emit continues the innermost loop (or halts).
    cr.code.push_back(Instr{Op::kEmit, 0, 0, current_fail});
    for (const TermExpr& arg : rule.head.args) {
      CompiledRule::HeadSrc h;
      if (arg.is_var()) {
        if (bound.count(arg.var().id) == 0) {
          return Status::Internal("vm lowering: unbound head variable " +
                                  arg.var().name());
        }
        h.kind = CompiledRule::HeadSrc::Kind::kReg;
        h.x = RegOf(arg.var());
      } else if (arg.is_const()) {
        h.kind = CompiledRule::HeadSrc::Kind::kConst;
        h.x = ConstOf(arg.constant());
      } else {
        AWR_ASSIGN_OR_RETURN(uint32_t t, CompileTerm(arg));
        h.kind = CompiledRule::HeadSrc::Kind::kApply;
        h.x = t;
      }
      cr.head.push_back(h);
    }

    const uint32_t halt_pc = static_cast<uint32_t>(cr.code.size());
    cr.code.push_back(Instr{Op::kHalt, 0, 0, 0});
    for (Instr& in : cr.code) {
      if (in.fail == kPatchHalt) in.fail = halt_pc;
    }

    cr.infallible = !fallible;
    if (cr.infallible) {
      for (size_t idx : word_candidates) {
        cr.steps[idx].word_capable = true;
      }
      for (Instr& in : cr.code) {
        if (in.op == Op::kOpenRow && cr.steps[in.a].word_capable) {
          in.op = Op::kOpenWord;
        }
      }
    }

    AWR_RETURN_IF_ERROR(VerifyCompiledRule(cr));
    return std::make_shared<const CompiledRule>(std::move(cr));
  }
};

}  // namespace

Result<std::shared_ptr<const CompiledRule>> LowerRule(const Rule& rule,
                                                      const RulePlan& plan) {
  return Lowerer(rule, plan).Run();
}

}  // namespace awr::datalog::vm
