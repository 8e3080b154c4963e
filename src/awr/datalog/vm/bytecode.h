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
/// The parity contract with the tree-walking interpreter
/// (eval_core.cc's BodyEnumerator) is strict: row-level cursors draw
/// candidate facts from exactly the interpreter's enumeration sources
/// (extent iteration order, ValueSet::Probe buckets) and unify argument
/// positions in the same left-to-right order, so models, charge counts
/// (one CheckInterrupt("body-match") per complete body match), error
/// statuses and their order of occurrence are byte-identical.
/// Word-level cursors (columnar scans/probes over raw inline words) may
/// enumerate in a different order and are therefore only lowered for
/// *infallible* rules — no function application anywhere in the body or
/// head — where the poll count per firing equals the match count
/// regardless of enumeration order.
enum class Op : uint8_t {
  kOpenScanRow = 0,  ///< open loop: full row-extent scan
  kOpenProbeRow,     ///< open loop: hash-index bucket probe (row level)
  kOpenScanWord,     ///< open loop: columnar word scan (row fallback inside)
  kOpenProbeWord,    ///< open loop: columnar word-chain probe (row fallback)
  kNext,             ///< advance the loop's cursor to its next matching fact
  kFilterNegate,     ///< negated-atom test over evaluated argument terms
  kFilterCompare,    ///< comparison test (=, !=, <, <=) over two terms
  kBind,             ///< assignment-form equality: compute a term into a register
  kCharge,           ///< poll CheckInterrupt("body-match") — one per body match
  kEmit,             ///< materialize the head tuple, deliver it, continue the loop
  kHalt,             ///< enumeration complete
};
inline constexpr uint8_t kNumOps = static_cast<uint8_t>(Op::kHalt) + 1;

/// One fixed-width instruction.  Operand use by op:
///  * open*/next: `loop` = loop index, `a` = step-info index, `fail` =
///    jump target on empty/exhausted extent;
///  * filter-negate: `a` = NegDesc index, `fail` = jump on holds-false;
///  * filter-compare: `a` = CmpDesc index, `fail` = jump on test-false;
///  * bind: `a` = destination register, `b` = term index;
///  * emit: `fail` = continue target (the innermost `next`, or `halt`).
struct Instr {
  Op op = Op::kHalt;
  uint8_t loop = 0;
  uint16_t a = 0;
  uint32_t b = 0;
  uint32_t fail = 0;
};

/// A rule lowered to bytecode, with the constant/descriptor pools the
/// instructions index into.  Immutable after lowering; shared across
/// rounds, evaluations and sessions via CompiledPlanCache.  The source
/// Rule and RulePlan ride along host-side: error messages (arity
/// mismatches render the offending atom), extent lookups (body-literal
/// indexes) and the verifier's cross-checks all need them.
struct CompiledRule {
  Rule rule;
  RulePlan plan;
  /// The EvalOptions shape this program was lowered for: probe vs scan
  /// selection is baked per step (mirroring BodyEnumerator's
  /// `use_join_index && !bound_positions.empty()` condition).
  bool use_join_index = true;
  uint32_t num_regs = 0;
  uint32_t num_loops = 0;
  /// No function application anywhere in the rule: poll count per
  /// firing equals match count independent of enumeration order, so
  /// word-level cursors are admissible.
  bool infallible = false;
  uint64_t cache_key = 0;

  /// Per-argument-position unification action for a positive atom,
  /// processed in ascending position order (the interpreter's MatchFact
  /// order, which errors and short-circuits identically).
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
  /// One positive-atom plan step (one loop level).
  struct StepInfo {
    uint32_t literal = 0;  ///< index into rule.body
    uint32_t arity = 0;
    bool probe = false;         ///< lowered as index probe
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

struct LowerOptions {
  bool use_join_index = true;
};

/// Lowers a planned rule to bytecode, verifying the result.  Fails when
/// the rule uses a construct the VM does not cover (defensive: the
/// planner's invariants make every safe rule lowerable; callers fall
/// back to the interpreter on failure, preserving behavior).
Result<std::shared_ptr<const CompiledRule>> LowerRule(
    const Rule& rule, const RulePlan& plan, const LowerOptions& opts);

/// Structural validation of a compiled program: every opcode known,
/// every jump target inside the code, every register / constant / term /
/// descriptor index inside its pool, every open paired with its next,
/// the term pool acyclic, the code ending in halt.  The dispatch loop
/// executes only verified programs and performs no bounds checks of its
/// own, so this is the safety boundary for decoded bytes.
Status VerifyCompiledRule(const CompiledRule& cr);

/// Serializes the executable portion of a compiled program (code +
/// pools + metadata; the host-side Rule/RulePlan travel separately —
/// identity is the cache key).  Deterministic, little-endian.
std::vector<uint8_t> EncodeProgram(const CompiledRule& cr);

/// Decodes an EncodeProgram image against the rule/plan it was compiled
/// from, re-running the verifier before returning.  Defensive like the
/// snapshot codec: truncated input, unknown opcodes, out-of-range
/// operands and oversized counts all yield a clean non-OK Status.
Result<CompiledRule> DecodeProgram(const uint8_t* data, size_t size,
                                   Rule rule, RulePlan plan);

/// Human-readable listing, one instruction per line (tests, debugging).
std::string Disassemble(const CompiledRule& cr);

}  // namespace awr::datalog::vm

#endif  // AWR_DATALOG_VM_BYTECODE_H_
