#ifndef AWR_DATALOG_VM_BYTECODE_H_
#define AWR_DATALOG_VM_BYTECODE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "awr/common/result.h"
#include "awr/datalog/ast.h"
#include "awr/datalog/safety.h"
#include "awr/value/value.h"

namespace awr::datalog::vm {

/// Register bytecode for rule-body evaluation (DESIGN.md §14).
///
/// A RulePlan's nested-loop join is flattened into a linear program:
/// one (open, next) instruction pair per positive atom — the loop
/// levels — with filters, assignments, the interrupt poll and the head
/// emission threaded between them.  Control flow is explicit: every
/// loop-advance and filter instruction carries a `fail` target, the
/// program counter of the enclosing loop's `next` (or of the final
/// `halt` when there is no enclosing loop), so backtracking is a plain
/// jump instead of call-stack unwinding.  Variable bindings live in a
/// dense register file; registers are never unbound — a register is
/// only read by instructions downstream of its binding instruction, and
/// re-entering a loop level rewrites it before any read.
///
/// The row-cursor contract: row-level cursors draw candidate facts
/// from the extent's iteration order or its ValueSet::Probe bucket and
/// unify argument positions left to right, stopping at the first
/// mismatch, so a fallible rule evaluates its function applications —
/// and fails — at the same match on every run and on both join paths,
/// with one CheckInterrupt("body-match") per complete body match.
/// Word-level cursors (scans/probes over raw inline words) may
/// enumerate in a different order and are therefore only lowered for
/// *infallible* rules — no function application anywhere in the body or
/// head — where the poll count per firing equals the match count
/// regardless of enumeration order.
///
/// One program serves both join paths: an open chooses probe or scan
/// when it runs, by `ctx.use_join_index` and a non-empty
/// bound-position set.
enum class Op : uint8_t {
  kOpenRow = 0,    ///< open loop on a row cursor: extent scan or Probe bucket
  kOpenWord,       ///< open loop on a word cursor (row fallback inside)
  kNext,           ///< advance the loop's cursor to its next matching fact
  kFilterNegate,   ///< negated-atom test over evaluated argument terms
  kFilterCompare,  ///< comparison test (=, !=, <, <=) over two terms
  kBind,           ///< assignment-form equality: compute a term into a register
  kCharge,         ///< poll CheckInterrupt("body-match") — one per body match
  kEmit,           ///< build the head tuple, deliver it, continue the loop
  kHalt,           ///< enumeration complete
};
inline constexpr uint8_t kNumOps = static_cast<uint8_t>(Op::kHalt) + 1;

/// One fixed-width instruction.  Every operand is 32 bits wide, so any
/// rule that plans lowers.  Operand use by op:
///  * open*/next: `a` = step-info index, which is also the loop's cursor
///    index, `fail` = jump target on empty/exhausted extent;
///  * filter-negate: `a` = NegDesc index, `fail` = jump on holds-false;
///  * filter-compare: `a` = CmpDesc index, `fail` = jump on test-false;
///  * bind: `a` = destination register, `b` = term index;
///  * emit: `fail` = continue target (the innermost `next`, or `halt`).
struct Instr {
  Op op = Op::kHalt;
  uint32_t a = 0;
  uint32_t b = 0;
  uint32_t fail = 0;
};

/// A rule lowered to bytecode, with the constant/descriptor pools the
/// instructions index into.  PlanProgram lowers each rule once and the
/// PlannedRule holds the program, immutable, for every round of the
/// evaluation.  The source Rule and RulePlan ride along host-side:
/// error messages (arity mismatches render the offending atom), extent
/// lookups (body-literal indexes) and the verifier's cross-checks all
/// need them.
struct CompiledRule {
  Rule rule;
  RulePlan plan;
  uint32_t num_regs = 0;
  /// No function application anywhere in the rule: poll count per
  /// firing equals match count independent of enumeration order, so
  /// word-level cursors are admissible.
  bool infallible = false;

  /// Per-argument-position unification action for a positive atom,
  /// processed in ascending position order, stopping at the first
  /// mismatch.
  struct FieldDesc {
    enum class Kind : uint8_t {
      kBindReg,     ///< first use of a variable: write the component
      kCheckReg,    ///< bound variable: compare against the register
      kCheckConst,  ///< constant argument: compare against the pool
      kCheckApply,  ///< ground application: evaluate the term, compare
    };
    Kind kind = Kind::kBindReg;
    uint32_t pos = 0;
    uint32_t x = 0;  ///< register / constant index / term index
  };
  /// Probe-key source, parallel to StepInfo::bound_positions.
  struct KeySrc {
    int32_t reg = -1;        ///< >= 0: register; < 0: constant
    uint32_t const_idx = 0;
  };
  struct WordBind {
    uint32_t pos = 0;
    uint32_t reg = 0;
  };
  struct WordDup {
    uint32_t pos = 0;
    uint32_t first_pos = 0;
  };
  /// One positive-atom plan step (one loop level).  A step with bound
  /// positions probes under `ctx.use_join_index` and scans otherwise.
  struct StepInfo {
    uint32_t literal = 0;  ///< index into rule.body
    uint32_t arity = 0;
    bool word_capable = false;  ///< word-level cursor admissible
    std::vector<size_t> bound_positions;
    std::vector<FieldDesc> fields;
    std::vector<KeySrc> keys;
    std::vector<WordBind> word_binds;
    std::vector<WordDup> word_dups;
  };
  /// Flattened term tree.  Children of an apply node always precede it
  /// in the pool (indices strictly smaller), so evaluation terminates
  /// on any verified program.
  struct TermNode {
    enum class Kind : uint8_t { kReg, kConst, kApply };
    Kind kind = Kind::kReg;
    uint32_t a = 0;  ///< register / constant index / first term_args slot
    uint32_t b = 0;  ///< apply: argument count
    uint32_t c = 0;  ///< apply: fn_names index
  };
  struct NegDesc {
    uint32_t literal = 0;
    std::vector<uint32_t> arg_terms;
  };
  struct CmpDesc {
    CmpOp op = CmpOp::kEq;
    uint32_t lhs = 0;
    uint32_t rhs = 0;
  };
  struct HeadSrc {
    enum class Kind : uint8_t { kReg, kConst, kApply };
    Kind kind = Kind::kReg;
    uint32_t x = 0;
  };

  std::vector<Instr> code;
  std::vector<Value> consts;
  std::vector<StepInfo> steps;
  std::vector<TermNode> terms;
  std::vector<uint32_t> term_args;
  std::vector<std::string> fn_names;
  std::vector<NegDesc> negs;
  std::vector<CmpDesc> cmps;
  std::vector<HeadSrc> head;
};

/// Lowers a planned rule to bytecode, verifying the result.  Total on
/// planned rules: a failure is an internal error (a plan that does not
/// match its rule).
Result<std::shared_ptr<const CompiledRule>> LowerRule(const Rule& rule,
                                                      const RulePlan& plan);

/// Structural validation of a compiled program: every opcode known,
/// every jump target inside the code, every register / constant / term /
/// descriptor index inside its pool, every open paired with its next
/// and every step opened exactly once,
/// the term pool acyclic, the code ending in halt.  The dispatch loop
/// executes only verified programs and performs no bounds checks of its
/// own, so LowerRule runs this on every program it returns.
Status VerifyCompiledRule(const CompiledRule& cr);

}  // namespace awr::datalog::vm

#endif  // AWR_DATALOG_VM_BYTECODE_H_
