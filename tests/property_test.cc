// Property-based differential testing: randomized safe programs are
// evaluated under every applicable semantics and the cross-semantic
// invariants the paper relies on are checked:
//
//  P1  positive programs: naive == semi-naive == inflationary ==
//      stratified == WFS-certain, and WFS is total;
//  P2  stratifiable programs: stratified == WFS-certain (total), and
//      the unique stable model equals it;
//  P3  arbitrary (possibly non-stratifiable) programs: WFS bounds
//      every stable model (certain ⊆ M ⊆ possible);
//  P4  Prop 6.1: the algebra= rendering agrees with WFS, 3-valued;
//  P5  Prop 5.2: inflationary(P) == valid(stepindex(P));
//  P6  magic sets: query answers equal filtered full evaluation.
//
// Every engine invocation in P1–P6 additionally runs twice — once with
// the hash-join indexes (EvalOptions::use_join_index = true) and once
// forced onto the scan path — and the two models must be identical.
// The scan path is the oracle for the indexed planner: it predates the
// indexes and enumerates extents exhaustively, so any divergence is an
// index/planner bug.  The ScanVsIndexDifferential suite widens that
// oracle to 200 random programs per semantics, and the governance
// parity tests check that deadline/cancel/fault interruptions surface
// the same statuses at the same charge points on both paths.
// ReferenceEvaluatorDifferential checks every engine against the naive
// reference evaluator of reference_eval.h on 400 more programs.
//
// Programs are generated safe *by construction* (head variables are
// drawn from variables bound by positive body atoms).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "awr/algebra/positivity.h"
#include "awr/algebra/valid_eval.h"
#include "awr/common/context.h"
#include "awr/common/intern.h"
#include "awr/datalog/builders.h"
#include "awr/datalog/depgraph.h"
#include "awr/datalog/ground.h"
#include "awr/datalog/inflationary.h"
#include "awr/datalog/leastmodel.h"
#include "awr/datalog/magic.h"
#include "awr/datalog/parser.h"
#include "awr/datalog/stable.h"
#include "awr/datalog/stratified.h"
#include "awr/datalog/wellfounded.h"
#include "awr/snapshot/resume.h"
#include "awr/snapshot/snapshot.h"
#include "awr/snapshot/state.h"
#include "awr/translate/datalog_to_alg.h"
#include "awr/translate/step_index.h"
#include "reference_configs.h"
#include "reference_eval.h"

namespace awr {
namespace {

using namespace awr::datalog::build;  // NOLINT
using datalog::Database;
using datalog::Program;

class Lcg {
 public:
  explicit Lcg(uint64_t seed) : state_(seed * 0x9e3779b97f4a7c15ULL + 1) {}
  uint64_t Next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 33;
  }
  size_t Below(size_t n) { return n == 0 ? 0 : Next() % n; }
  bool Chance(int percent) { return Below(100) < static_cast<size_t>(percent); }

 private:
  uint64_t state_;
};

struct GenOptions {
  bool allow_negation = true;
  // If negation is allowed: restrict negative dependencies to strictly
  // earlier predicates (guarantees stratifiability).
  bool stratified_only = false;
  size_t n_idb = 3;
  size_t domain_size = 5;
};

struct Generated {
  Program program;
  Database edb;
  std::vector<std::string> idb_preds;
};

Generated GenerateProgram(uint64_t seed, const GenOptions& opts) {
  Lcg rng(seed);
  Generated out;

  // EDB: e0/2 and e1/1 with random facts over a small domain.
  for (size_t i = 0; i < opts.domain_size + 3; ++i) {
    out.edb.AddFact("e0",
                    {Value::Int(static_cast<int64_t>(rng.Below(opts.domain_size))),
                     Value::Int(static_cast<int64_t>(rng.Below(opts.domain_size)))});
  }
  for (size_t i = 0; i < opts.domain_size; ++i) {
    if (rng.Chance(60)) {
      out.edb.AddFact("e1", {Value::Int(static_cast<int64_t>(i))});
    }
  }

  // IDB predicates p0..p{k-1} with arities 1 or 2.
  std::vector<size_t> arity;
  for (size_t i = 0; i < opts.n_idb; ++i) {
    out.idb_preds.push_back("p" + std::to_string(i));
    arity.push_back(1 + rng.Below(2));
  }

  const char* var_names[4] = {"Xa", "Xb", "Xc", "Xd"};
  for (size_t pi = 0; pi < opts.n_idb; ++pi) {
    size_t n_rules = 1 + rng.Below(2);
    for (size_t r = 0; r < n_rules; ++r) {
      datalog::Rule rule;
      std::vector<datalog::Var> bound;

      // 1–2 positive atoms over EDB or IDB (≤ current, allowing
      // recursion on self and earlier predicates).
      size_t n_pos = 1 + rng.Below(2);
      for (size_t b = 0; b < n_pos; ++b) {
        std::string pred;
        size_t pred_arity;
        if (rng.Chance(55)) {
          pred = rng.Chance(70) ? "e0" : "e1";
          pred_arity = pred == "e0" ? 2 : 1;
        } else {
          size_t target = rng.Below(pi + 1);
          pred = out.idb_preds[target];
          pred_arity = arity[target];
        }
        datalog::Atom atom;
        atom.predicate = pred;
        for (size_t a = 0; a < pred_arity; ++a) {
          datalog::Var v(var_names[rng.Below(4)]);
          atom.args.push_back(datalog::TermExpr::Variable(v));
          bound.push_back(v);
        }
        rule.body.push_back(datalog::Literal::Positive(std::move(atom)));
      }

      // Optional negative atom over bound variables.
      if (opts.allow_negation && rng.Chance(45) && !bound.empty()) {
        size_t limit = opts.stratified_only ? pi : opts.n_idb;
        if (limit > 0) {
          size_t target = rng.Below(limit);
          datalog::Atom atom;
          atom.predicate = out.idb_preds[target];
          for (size_t a = 0; a < arity[target]; ++a) {
            atom.args.push_back(
                datalog::TermExpr::Variable(bound[rng.Below(bound.size())]));
          }
          rule.body.push_back(datalog::Literal::Negative(std::move(atom)));
        }
      }

      // Optional comparison over a bound variable.
      if (rng.Chance(30) && !bound.empty()) {
        rule.body.push_back(datalog::Literal::Compare(
            rng.Chance(50) ? datalog::CmpOp::kLe : datalog::CmpOp::kNe,
            datalog::TermExpr::Variable(bound[rng.Below(bound.size())]),
            datalog::TermExpr::Constant(
                Value::Int(static_cast<int64_t>(rng.Below(opts.domain_size))))));
      }

      // Head: bound variables (or constants) to the predicate's arity.
      rule.head.predicate = out.idb_preds[pi];
      for (size_t a = 0; a < arity[pi]; ++a) {
        if (!bound.empty() && rng.Chance(85)) {
          rule.head.args.push_back(
              datalog::TermExpr::Variable(bound[rng.Below(bound.size())]));
        } else {
          rule.head.args.push_back(datalog::TermExpr::Constant(
              Value::Int(static_cast<int64_t>(rng.Below(opts.domain_size)))));
        }
      }
      out.program.rules.push_back(std::move(rule));
    }
  }
  return out;
}

// ----------------------------------------------------------------------
// Global-alternation oracle for the well-founded engine.  EvalWellFounded
// walks the dependency graph's components bottom-up and alternates only
// inside components on a negative cycle, which is sound because the
// well-founded model is modular over components.  This reference is the
// procedure the walk replaced: Van Gelder's alternating fixpoint over
// the whole program, I_{k+1} = S(I_k) from I_0 = ∅, where S(J) is the
// least model with negation frozen against J, stopping at a total
// fixpoint (I_{k+1} == I_k) or a period-2 limit (I_{k+1} == I_{k-1}).
// It charges one round per step, as the engine charges per iterate of
// an alternating component, so on a program whose IDB is one such
// component the two charge counts must agree too.
Result<datalog::ThreeValuedInterp> GlobalAlternation(const Program& program,
                                                     const Database& edb,
                                                     ExecutionContext* ctx) {
  AWR_ASSIGN_OR_RETURN(std::vector<datalog::PlannedRule> rules,
                       datalog::PlanProgram(program));
  datalog::Interpretation prev_prev;
  datalog::Interpretation prev;
  bool have_two = false;
  for (;;) {
    AWR_RETURN_IF_ERROR(ctx->ChargeRound("well-founded(alternation)"));
    AWR_ASSIGN_OR_RETURN(
        datalog::Interpretation next,
        datalog::LeastModelWithFrozenNegation(rules, edb, prev,
                                              datalog::EvalOptions(), ctx));
    if (next == prev) return datalog::ThreeValuedInterp{next, next};
    if (have_two && next == prev_prev) {
      if (next.IsSubsetOf(prev)) {
        return datalog::ThreeValuedInterp{std::move(next), std::move(prev)};
      }
      return datalog::ThreeValuedInterp{std::move(prev), std::move(next)};
    }
    prev_prev = std::move(prev);
    prev = std::move(next);
    have_two = true;
  }
}

std::string RenderThreeValued(const datalog::ThreeValuedInterp& tv) {
  return "certain:\n" + tv.certain.ToString() + "possible:\n" +
         tv.possible.ToString();
}

// The component walk's model must render byte-identically to the
// global alternation's.
void ExpectWalkMatchesGlobalAlternation(const Program& program,
                                        const Database& edb) {
  ExecutionContext ctx(EvalLimits::Large());
  auto oracle = GlobalAlternation(program, edb, &ctx);
  ASSERT_TRUE(oracle.ok()) << oracle.status() << "\n" << program.ToString();
  datalog::EvalOptions opts;
  opts.limits = EvalLimits::Large();
  auto walk = datalog::EvalWellFounded(program, edb, opts);
  ASSERT_TRUE(walk.ok()) << walk.status() << "\n" << program.ToString();
  EXPECT_EQ(RenderThreeValued(*walk), RenderThreeValued(*oracle))
      << program.ToString();
}

// WIN–MOVE with drawn 2-cycles (1 <-> 2, 5 <-> 6) feeding three upper
// components: a positive one (reach), a negated one (safe) and a second
// negative cycle (pick/skip).  The game's model is 3-valued, so every
// upper component runs over a 3-valued lower result.
Program ComponentsProgram() {
  return *datalog::ParseProgram(R"(
    win(X) :- move(X, Y), not win(Y).
    reach(X) :- win(X).
    reach(Y) :- reach(X), move(X, Y).
    safe(X) :- pos(X), not reach(X).
    pick(X) :- pos(X), not safe(X), not skip(X).
    skip(X) :- pos(X), not pick(X).
  )");
}

Database ComponentsDb() {
  Database db;
  for (auto [from, to] : std::vector<std::pair<int, int>>{
           {1, 2}, {2, 1}, {2, 3}, {3, 4}, {5, 6}, {6, 5}, {7, 8}, {8, 9}}) {
    db.AddFact("move", {Value::Int(from), Value::Int(to)});
  }
  for (int i = 1; i <= 10; ++i) db.AddFact("pos", {Value::Int(i)});
  return db;
}

// ----------------------------------------------------------------------
// Global-alternation oracle for the algebra= valid evaluator.
// EvalAlgebraValid joins instead of building products and solves a
// positive system (every constant and every IFP variable occurring
// positively) with one least fixpoint.  This reference is what it
// replaced: a pair evaluator that builds every product, under the
// alternating fixpoint over the whole system, U_{k+1} = lfp of the
// upper bounds over T_k, T_{k+1} = lfp of the lower bounds over
// U_{k+1}, until T repeats.  It charges the engine's sites in the
// engine's order, so a system that still alternates must also agree on
// rounds and charges.

using AlgebraPairs = std::map<std::string, algebra::ThreeValuedSet>;

class NaivePairEval {
 public:
  NaivePairEval(const algebra::SetDb& db, const AlgebraPairs& unknowns,
                ExecutionContext* ctx)
      : db_(db), unknowns_(unknowns), ctx_(ctx) {}

  Result<algebra::ThreeValuedSet> Eval(const algebra::AlgebraExpr& e) {
    using Kind = algebra::AlgebraExpr::Kind;
    const auto& fns = algebra::FunctionRegistry::Default();
    switch (e.kind()) {
      case Kind::kRelation: {
        auto it = unknowns_.find(e.name());
        if (it != unknowns_.end()) return it->second;
        return algebra::ThreeValuedSet{db_.Extent(e.name()),
                                       db_.Extent(e.name())};
      }
      case Kind::kLiteralSet:
        return algebra::ThreeValuedSet{e.literal(), e.literal()};
      case Kind::kUnion:
      case Kind::kDiff:
      case Kind::kProduct: {
        AWR_ASSIGN_OR_RETURN(auto l, Eval(e.children()[0]));
        AWR_ASSIGN_OR_RETURN(auto r, Eval(e.children()[1]));
        if (e.kind() == Kind::kUnion) {
          return algebra::ThreeValuedSet{SetUnion(l.lower, r.lower),
                                         SetUnion(l.upper, r.upper)};
        }
        if (e.kind() == Kind::kDiff) {
          return algebra::ThreeValuedSet{SetDifference(l.lower, r.upper),
                                         SetDifference(l.upper, r.lower)};
        }
        AWR_RETURN_IF_ERROR(ctx_->ChargeFacts(
            l.upper.size() * r.upper.size(), "valid-eval ×"));
        return algebra::ThreeValuedSet{SetProduct(l.lower, r.lower),
                                       SetProduct(l.upper, r.upper)};
      }
      case Kind::kSelect:
      case Kind::kMap: {
        AWR_ASSIGN_OR_RETURN(auto sub, Eval(e.children()[0]));
        algebra::ThreeValuedSet out;
        for (auto [from, to] : {std::pair{&sub.upper, &out.upper},
                                std::pair{&sub.lower, &out.lower}}) {
          for (const Value& v : *from) {
            if (e.kind() == Kind::kSelect) {
              AWR_ASSIGN_OR_RETURN(bool keep, e.fn().EvalTest(v, fns));
              if (keep) to->Insert(v);
            } else {
              AWR_ASSIGN_OR_RETURN(Value mapped, e.fn().Eval(v, fns));
              to->Insert(mapped);
            }
          }
        }
        return out;
      }
      case Kind::kIfp: {
        algebra::ThreeValuedSet acc;
        for (;;) {
          AWR_RETURN_IF_ERROR(ctx_->ChargeRound("valid-eval IFP"));
          AWR_RETURN_IF_ERROR(ctx_->ChargeMemory(
              acc.lower.approx_bytes() + acc.upper.approx_bytes(),
              "valid-eval IFP"));
          iters_.push_back(&acc);
          auto step = Eval(e.children()[0]);
          iters_.pop_back();
          AWR_RETURN_IF_ERROR(step.status());
          size_t added = acc.lower.InsertAll(step->lower) +
                         acc.upper.InsertAll(step->upper);
          if (added == 0) break;
          AWR_RETURN_IF_ERROR(ctx_->ChargeFacts(added, "valid-eval IFP"));
        }
        return acc;
      }
      case Kind::kIterVar:
        return *iters_[iters_.size() - 1 - e.index()];
      default:
        return Status::Internal("unexpected node " + e.ToString());
    }
  }

 private:
  const algebra::SetDb& db_;
  const AlgebraPairs& unknowns_;
  ExecutionContext* ctx_;
  std::vector<const algebra::ThreeValuedSet*> iters_;
};

// `program` normalized as EvalAlgebraValid normalizes it: a constant
// with a database extent gets the extent unioned into its equation.
Result<algebra::AlgebraProgram> NormalizeWithExtents(
    const algebra::AlgebraProgram& program, const algebra::SetDb& db) {
  AWR_ASSIGN_OR_RETURN(algebra::AlgebraProgram normalized,
                       algebra::NormalizeProgram(program));
  algebra::AlgebraProgram out;
  for (const algebra::Definition& d : normalized.defs()) {
    out.DefineConstant(
        d.name, db.Has(d.name)
                    ? algebra::AlgebraExpr::Union(
                          algebra::AlgebraExpr::LiteralSet(db.Extent(d.name)),
                          d.body)
                    : d.body);
  }
  return out;
}

bool AlgebraSystemIsPositive(const algebra::AlgebraProgram& normalized) {
  if (!algebra::SystemIsPositive(normalized)) return false;
  for (const algebra::Definition& d : normalized.defs()) {
    if (!algebra::AllIfpsPositive(d.body)) return false;
  }
  return true;
}

Result<AlgebraPairs> AlgebraGlobalAlternation(
    const algebra::AlgebraProgram& program, const algebra::SetDb& db,
    ExecutionContext* ctx) {
  AWR_ASSIGN_OR_RETURN(algebra::AlgebraProgram normalized,
                       NormalizeWithExtents(program, db));
  AlgebraPairs assignment;
  for (const algebra::Definition& d : normalized.defs()) assignment[d.name];
  // One least fixpoint of the `upper` (or `lower`) bounds, the other
  // bound frozen.
  auto lfp = [&](AlgebraPairs* iter, bool upper, const char* site) -> Status {
    for (;;) {
      AWR_RETURN_IF_ERROR(ctx->ChargeRound(site));
      size_t added = 0;
      for (const algebra::Definition& d : normalized.defs()) {
        NaivePairEval eval(db, *iter, ctx);
        AWR_ASSIGN_OR_RETURN(algebra::ThreeValuedSet r, eval.Eval(d.body));
        algebra::ThreeValuedSet& mine = (*iter)[d.name];
        added += upper ? mine.upper.InsertAll(r.upper)
                       : mine.lower.InsertAll(r.lower);
      }
      if (added == 0) return Status::OK();
      AWR_RETURN_IF_ERROR(ctx->ChargeFacts(added, site));
    }
  };
  for (;;) {
    AWR_RETURN_IF_ERROR(ctx->ChargeRound("valid-eval(alternation)"));
    AlgebraPairs iter = assignment;
    for (auto& [name, tvs] : iter) tvs.upper.Clear();
    AWR_RETURN_IF_ERROR(lfp(&iter, true, "valid-eval(upper lfp)"));
    for (auto& [name, tvs] : iter) tvs.lower.Clear();
    AWR_RETURN_IF_ERROR(lfp(&iter, false, "valid-eval(lower lfp)"));
    bool same = true;
    for (const auto& [name, tvs] : iter) {
      same = same && tvs.lower == assignment[name].lower &&
             tvs.upper == assignment[name].upper;
    }
    if (same) return iter;
    assignment = std::move(iter);
  }
}

// EvalAlgebraValid must compute the oracle's 3-valued sets; a system that
// still alternates must also cost what the oracle costs, and a positive
// one strictly less.  (An IFP whose variable occurs only positively runs
// in the engine until the one bound its pass computes converges, and in
// the oracle until both do; the cases below that reach one converge in
// the same round in both bounds.)
void ExpectAlgebraValidMatchesOracle(const algebra::AlgebraProgram& program,
                                     const algebra::SetDb& db,
                                     const std::string& what) {
  ExecutionContext oracle_ctx(EvalLimits::Large());
  auto oracle = AlgebraGlobalAlternation(program, db, &oracle_ctx);
  ASSERT_TRUE(oracle.ok()) << oracle.status() << "\n" << what;
  ExecutionContext ctx(EvalLimits::Large());
  algebra::AlgebraEvalOptions opts;
  opts.context = &ctx;
  auto model = algebra::EvalAlgebraValid(program, db, opts);
  ASSERT_TRUE(model.ok()) << model.status() << "\n" << what;
  for (const auto& [name, tvs] : *oracle) {
    EXPECT_EQ(model->Get(name).lower, tvs.lower) << name << "\n" << what;
    EXPECT_EQ(model->Get(name).upper, tvs.upper) << name << "\n" << what;
  }
  EXPECT_EQ(std::distance(model->begin(), model->end()),
            static_cast<std::ptrdiff_t>(oracle->size()))
      << what;
  auto normalized = NormalizeWithExtents(program, db);
  ASSERT_TRUE(normalized.ok()) << normalized.status();
  if (AlgebraSystemIsPositive(*normalized)) {
    EXPECT_TRUE(model->IsTwoValued()) << what;
    EXPECT_LT(ctx.total_charges(), oracle_ctx.total_charges()) << what;
  } else {
    EXPECT_EQ(ctx.rounds(), oracle_ctx.rounds()) << what;
    EXPECT_EQ(ctx.total_charges(), oracle_ctx.total_charges()) << what;
  }
}

// The Prop 6.1 translation of a generated program against the oracle.
void ExpectProp61MatchesAlgebraOracle(const Generated& g) {
  auto system = translate::DatalogToAlgebra(g.program);
  ASSERT_TRUE(system.ok()) << system.status() << "\n" << g.program.ToString();
  ExpectAlgebraValidMatchesOracle(*system, translate::EdbToSetDb(g.edb),
                                  g.program.ToString());
}

// ----------------------------------------------------------------------
// Scan-vs-index differential harness.  EvalBothWays runs one engine
// under both join strategies and requires agreement; it returns the
// indexed result so the surrounding property checks exercise the new
// path while the scan path acts as oracle.

datalog::EvalOptions IndexOpts(bool use_index) {
  datalog::EvalOptions o;
  o.use_join_index = use_index;
  return o;
}

void ExpectSameResult(const datalog::Interpretation& a,
                      const datalog::Interpretation& b,
                      const std::string& what) {
  EXPECT_EQ(a, b) << what;
}

// Rendered models must match byte for byte.
void ExpectSameResult(const std::string& a, const std::string& b,
                      const std::string& what) {
  EXPECT_EQ(a, b) << what;
}

void ExpectSameResult(const datalog::ThreeValuedInterp& a,
                      const datalog::ThreeValuedInterp& b,
                      const std::string& what) {
  EXPECT_EQ(a.certain, b.certain) << what;
  EXPECT_EQ(a.possible, b.possible) << what;
}

// Stable models arrive in search order, which legitimately differs
// between the paths (ground-rule enumeration order feeds the DFS), so
// the vectors are compared as sets.
void ExpectSameResult(const std::vector<datalog::Interpretation>& a,
                      const std::vector<datalog::Interpretation>& b,
                      const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (const auto& model : a) {
    EXPECT_TRUE(std::find(b.begin(), b.end(), model) != b.end()) << what;
  }
}

// Ground rule instances likewise arrive in enumeration order; compare
// the programs as sorted line sets.
void ExpectSameResult(const datalog::GroundProgram& a,
                      const datalog::GroundProgram& b,
                      const std::string& what) {
  auto lines = [](const datalog::GroundProgram& gp) {
    std::vector<std::string> out;
    for (const auto& f : gp.facts) out.push_back(f.ToString());
    for (const auto& r : gp.rules) out.push_back(r.ToString());
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(lines(a), lines(b)) << what;
}

template <typename Fn>
auto EvalBothWays(const Fn& eval, const std::string& what) {
  auto indexed = eval(IndexOpts(true));
  auto scanned = eval(IndexOpts(false));
  EXPECT_EQ(indexed.status().code(), scanned.status().code())
      << what << "\nindexed: " << indexed.status()
      << "\nscan:    " << scanned.status();
  if (indexed.ok() && scanned.ok()) {
    ExpectSameResult(*indexed, *scanned, what);
  }
  return indexed;
}

// ----------------------------------------------------------------------

class PositiveProgramProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PositiveProgramProperty, AllSemanticsCoincide) {
  GenOptions opts;
  opts.allow_negation = false;
  Generated g = GenerateProgram(GetParam(), opts);
  ASSERT_TRUE(datalog::CheckProgramSafe(g.program).ok()) << g.program.ToString();

  const std::string what = g.program.ToString();
  auto m_naive = EvalBothWays(
      [&](datalog::EvalOptions o) {
        o.seminaive = false;
        return datalog::EvalMinimalModel(g.program, g.edb, o);
      },
      what);
  auto m_semi = EvalBothWays(
      [&](const datalog::EvalOptions& o) {
        return datalog::EvalMinimalModel(g.program, g.edb, o);
      },
      what);
  auto m_infl = EvalBothWays(
      [&](const datalog::EvalOptions& o) {
        return datalog::EvalInflationary(g.program, g.edb, o);
      },
      what);
  auto m_strat = EvalBothWays(
      [&](const datalog::EvalOptions& o) {
        return datalog::EvalStratified(g.program, g.edb, o);
      },
      what);
  auto m_wfs = EvalBothWays(
      [&](const datalog::EvalOptions& o) {
        return datalog::EvalWellFounded(g.program, g.edb, o);
      },
      what);
  ASSERT_TRUE(m_naive.ok() && m_semi.ok() && m_infl.ok() && m_strat.ok() &&
              m_wfs.ok())
      << g.program.ToString();
  EXPECT_EQ(*m_naive, *m_semi) << g.program.ToString();
  EXPECT_EQ(*m_semi, *m_infl) << g.program.ToString();
  EXPECT_EQ(*m_semi, *m_strat) << g.program.ToString();
  EXPECT_TRUE(m_wfs->IsTwoValued()) << g.program.ToString();
  EXPECT_EQ(*m_semi, m_wfs->certain) << g.program.ToString();
}

// Every translated system here is positive: the one least fixpoint.
TEST_P(PositiveProgramProperty, AlgebraValidMatchesGlobalAlternation) {
  GenOptions opts;
  opts.allow_negation = false;
  ExpectProp61MatchesAlgebraOracle(GenerateProgram(GetParam(), opts));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PositiveProgramProperty,
                         ::testing::Range<uint64_t>(1, 21));

class StratifiedProgramProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StratifiedProgramProperty, StratifiedEqualsWfsAndUniqueStable) {
  GenOptions opts;
  opts.stratified_only = true;
  Generated g = GenerateProgram(GetParam(), opts);
  ASSERT_TRUE(datalog::Stratify(g.program).ok()) << g.program.ToString();

  const std::string what = g.program.ToString();
  auto m_strat = EvalBothWays(
      [&](const datalog::EvalOptions& o) {
        return datalog::EvalStratified(g.program, g.edb, o);
      },
      what);
  auto m_wfs = EvalBothWays(
      [&](const datalog::EvalOptions& o) {
        return datalog::EvalWellFounded(g.program, g.edb, o);
      },
      what);
  ASSERT_TRUE(m_strat.ok() && m_wfs.ok()) << g.program.ToString();
  EXPECT_TRUE(m_wfs->IsTwoValued()) << g.program.ToString();
  EXPECT_EQ(*m_strat, m_wfs->certain) << g.program.ToString();

  auto stable = EvalBothWays(
      [&](const datalog::EvalOptions& o) {
        return datalog::EvalStableModels(g.program, g.edb, o);
      },
      what);
  ASSERT_TRUE(stable.ok()) << stable.status();
  ASSERT_EQ(stable->size(), 1u) << g.program.ToString();
  EXPECT_EQ((*stable)[0], *m_strat) << g.program.ToString();
}

// On a stratified program the component walk computes the global
// alternation's model with exactly EvalStratified's least-model calls:
// the same rounds and the same charges.
TEST_P(StratifiedProgramProperty, WfsMatchesGlobalAlternationAndStratifiedWork) {
  GenOptions opts;
  opts.stratified_only = true;
  Generated g = GenerateProgram(GetParam(), opts);
  ExpectWalkMatchesGlobalAlternation(g.program, g.edb);

  ExecutionContext strat_ctx(EvalLimits::Large());
  ExecutionContext wfs_ctx(EvalLimits::Large());
  datalog::EvalOptions o;
  o.context = &strat_ctx;
  ASSERT_TRUE(datalog::EvalStratified(g.program, g.edb, o).ok());
  o.context = &wfs_ctx;
  ASSERT_TRUE(datalog::EvalWellFounded(g.program, g.edb, o).ok());
  EXPECT_EQ(wfs_ctx.rounds(), strat_ctx.rounds()) << g.program.ToString();
  EXPECT_EQ(wfs_ctx.total_charges(), strat_ctx.total_charges())
      << g.program.ToString();
}

TEST_P(StratifiedProgramProperty, AlgebraValidMatchesGlobalAlternation) {
  GenOptions opts;
  opts.stratified_only = true;
  ExpectProp61MatchesAlgebraOracle(GenerateProgram(GetParam(), opts));
}

INSTANTIATE_TEST_SUITE_P(Seeds, StratifiedProgramProperty,
                         ::testing::Range<uint64_t>(1, 21));

class GeneralProgramProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GeneralProgramProperty, WfsBoundsStableModels) {
  Generated g = GenerateProgram(GetParam(), GenOptions{});
  const std::string what = g.program.ToString();
  auto wfs = EvalBothWays(
      [&](const datalog::EvalOptions& o) {
        return datalog::EvalWellFounded(g.program, g.edb, o);
      },
      what);
  ASSERT_TRUE(wfs.ok()) << g.program.ToString();
  EXPECT_TRUE(wfs->certain.IsSubsetOf(wfs->possible));

  auto stable = EvalBothWays(
      [&](const datalog::EvalOptions& o) {
        return datalog::EvalStableModels(g.program, g.edb, o);
      },
      what);
  ASSERT_TRUE(stable.ok()) << stable.status() << "\n" << g.program.ToString();
  for (const auto& m : *stable) {
    EXPECT_TRUE(wfs->certain.IsSubsetOf(m)) << g.program.ToString();
    EXPECT_TRUE(m.IsSubsetOf(wfs->possible)) << g.program.ToString();
  }
  if (wfs->IsTwoValued()) {
    ASSERT_EQ(stable->size(), 1u) << g.program.ToString();
    EXPECT_EQ((*stable)[0], wfs->certain);
  }
}

TEST_P(GeneralProgramProperty, Prop61AlgebraRenderingAgrees) {
  Generated g = GenerateProgram(GetParam(), GenOptions{});
  auto wfs = EvalBothWays(
      [&](const datalog::EvalOptions& o) {
        return datalog::EvalWellFounded(g.program, g.edb, o);
      },
      g.program.ToString());
  ASSERT_TRUE(wfs.ok());

  auto system = translate::DatalogToAlgebra(g.program);
  ASSERT_TRUE(system.ok()) << system.status() << "\n" << g.program.ToString();
  algebra::AlgebraEvalOptions aopts;
  aopts.limits = EvalLimits::Large();
  auto model = algebra::EvalAlgebraValid(*system, translate::EdbToSetDb(g.edb),
                                         aopts);
  ASSERT_TRUE(model.ok()) << model.status() << "\n" << g.program.ToString();

  for (const std::string& pred : g.idb_preds) {
    ValueSet candidates = model->Get(pred).upper;
    for (const Value& f : wfs->possible.Extent(pred)) candidates.Insert(f);
    for (const Value& fact : candidates) {
      EXPECT_EQ(model->Member(pred, fact), wfs->QueryFact(pred, fact))
          << pred << fact.ToString() << "\n"
          << g.program.ToString();
    }
  }
}

TEST_P(GeneralProgramProperty, Prop52StepIndexMatchesInflationary) {
  Generated g = GenerateProgram(GetParam(), GenOptions{});
  const std::string what = g.program.ToString();
  auto infl = EvalBothWays(
      [&](const datalog::EvalOptions& o) {
        return datalog::EvalInflationary(g.program, g.edb, o);
      },
      what);
  ASSERT_TRUE(infl.ok());

  auto indexed = translate::StepIndexAuto(g.program, g.edb);
  ASSERT_TRUE(indexed.ok()) << indexed.status();
  auto wfs = EvalBothWays(
      [&](const datalog::EvalOptions& o) {
        return datalog::EvalWellFounded(indexed->program, indexed->edb, o);
      },
      what);
  ASSERT_TRUE(wfs.ok()) << wfs.status();
  EXPECT_TRUE(wfs->IsTwoValued()) << g.program.ToString();
  for (const std::string& pred : g.idb_preds) {
    EXPECT_EQ(wfs->certain.Extent(pred), infl->Extent(pred))
        << pred << "\n"
        << g.program.ToString();
  }
}

TEST_P(GeneralProgramProperty, WfsMatchesGlobalAlternation) {
  Generated g = GenerateProgram(GetParam(), GenOptions{});
  ExpectWalkMatchesGlobalAlternation(g.program, g.edb);
}

TEST_P(GeneralProgramProperty, AlgebraValidMatchesGlobalAlternation) {
  ExpectProp61MatchesAlgebraOracle(GenerateProgram(GetParam(), GenOptions{}));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneralProgramProperty,
                         ::testing::Range<uint64_t>(1, 16));

// Wider random programs (six IDB predicates) split into more
// components, so 2- and 3-valued lower results feed positive, negated
// and alternating upper components in many combinations.
class ComponentWalkProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ComponentWalkProperty, WfsMatchesGlobalAlternation) {
  GenOptions opts;
  opts.n_idb = 6;
  Generated g = GenerateProgram(GetParam() * 2654435761u + 3, opts);
  ExpectWalkMatchesGlobalAlternation(g.program, g.edb);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ComponentWalkProperty,
                         ::testing::Range<uint64_t>(1, 101));

TEST(AlgebraValidOracleTest, PositiveSystemWithNonPositiveIfpAlternates) {
  // Q = R ∪ MAP₊₁(σ_{x<4}(Q)) and P = IFP(Q − x): every constant occurs
  // positively, but the IFP's variable is subtracted, so the system is
  // not positive and still alternates — at the oracle's cost.
  using E = algebra::AlgebraExpr;
  using algebra::FnExpr;
  algebra::AlgebraProgram prog;
  prog.DefineConstant(
      "Q", E::Union(E::Relation("R"),
                    E::Map(algebra::fn::AddConst(1),
                           E::Select(FnExpr::Lt(FnExpr::Arg(),
                                                FnExpr::Cst(Value::Int(4))),
                                     E::Relation("Q")))));
  prog.DefineConstant("P", E::Ifp(E::Diff(E::Relation("Q"), E::IterVar(0))));
  algebra::SetDb db;
  db.Define("R", ValueSet{Value::Int(0), Value::Int(10)});
  auto normalized = NormalizeWithExtents(prog, db);
  ASSERT_TRUE(normalized.ok());
  EXPECT_TRUE(algebra::SystemIsPositive(*normalized));
  EXPECT_FALSE(AlgebraSystemIsPositive(*normalized));
  ExpectAlgebraValidMatchesOracle(prog, db, prog.ToString());
}

TEST(AlgebraValidOracleTest, PositiveConstantWithDatabaseExtent) {
  // S has the extent {3, 10} and the equation S = T ∪ MAP₊₁(σ_{x<6}(S)):
  // the extent joins the equation, and the one least fixpoint holds
  // {3, 4, 5, 6, 10} ∪ T.
  using E = algebra::AlgebraExpr;
  using algebra::FnExpr;
  algebra::AlgebraProgram prog;
  prog.DefineConstant(
      "S", E::Union(E::Relation("T"),
                    E::Map(algebra::fn::AddConst(1),
                           E::Select(FnExpr::Lt(FnExpr::Arg(),
                                                FnExpr::Cst(Value::Int(6))),
                                     E::Relation("S")))));
  algebra::SetDb db;
  db.Define("S", ValueSet{Value::Int(3), Value::Int(10)});
  db.Define("T", ValueSet{Value::Int(20)});
  ExpectAlgebraValidMatchesOracle(prog, db, prog.ToString());
  auto model = algebra::EvalAlgebraValid(prog, db);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_EQ(model->Get("S").lower,
            (ValueSet{Value::Int(3), Value::Int(4), Value::Int(5),
                      Value::Int(6), Value::Int(10), Value::Int(20)}));
}

// A game over positions 10..15 with a draw: 10 and 12 are won, 11 and
// 13 lost, and 14 ⇄ 15 drawn (15 may also move to the won 10), so
// WIN = π₁(MOVE − (π₁MOVE × WIN)) leaves 14 and 15 undefined.
algebra::SetDb DrawnGameDb() {
  algebra::SetDb db;
  std::vector<std::pair<Value, Value>> moves;
  for (auto [from, to] : std::vector<std::pair<int, int>>{
           {10, 11}, {11, 12}, {12, 13}, {14, 15}, {15, 14}, {15, 10}}) {
    moves.emplace_back(Value::Int(from), Value::Int(to));
  }
  db.DefinePairs("MOVE", moves);
  return db;
}

algebra::AlgebraExpr MovePositions() {
  return algebra::AlgebraExpr::Map(algebra::fn::Proj(0),
                                   algebra::AlgebraExpr::Relation("MOVE"));
}

algebra::AlgebraProgram WinProgram() {
  using E = algebra::AlgebraExpr;
  algebra::AlgebraProgram prog;
  prog.DefineConstant(
      "WIN", E::Map(algebra::fn::Proj(0),
                    E::Diff(E::Relation("MOVE"),
                            E::Product(MovePositions(), E::Relation("WIN")))));
  return prog;
}

TEST(AlgebraValidOracleTest, PositiveIfpSubtractingARecursiveConstant) {
  // P = IFP(σ_{x<3}({0} ∪ MAP₊₁(x)) ∪ (π₁MOVE − WIN)) beside WIN: the
  // IFP's variable occurs positively, so each pass accumulates only the
  // bound it computes, while its body reads the other bound of WIN.
  // Each bound takes four IFP rounds (round 1 adds 0 and π₁MOVE − WIN,
  // rounds 2 and 3 add 1 and 2, round 4 nothing: the positions are at
  // least 10, so MAP₊₁ of them never passes σ_{x<3}), as many as the
  // oracle's pair of bounds, so the costs must agree too.
  using E = algebra::AlgebraExpr;
  using algebra::FnExpr;
  algebra::AlgebraProgram prog = WinProgram();
  prog.DefineConstant(
      "P",
      E::Ifp(E::Union(
          E::Select(FnExpr::Lt(FnExpr::Arg(), FnExpr::Cst(Value::Int(3))),
                    E::Union(E::Singleton(Value::Int(0)),
                             E::Map(algebra::fn::AddConst(1), E::IterVar(0)))),
          E::Diff(MovePositions(), E::Relation("WIN")))));
  ASSERT_EQ(algebra::IterVarPolarity(prog.defs()[1].body.children()[0]),
            algebra::Polarity::kPositive);
  const algebra::SetDb db = DrawnGameDb();
  ExpectAlgebraValidMatchesOracle(prog, db, prog.ToString());
  auto model = algebra::EvalAlgebraValid(prog, db);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_EQ(model->Get("P").lower,
            (ValueSet{Value::Int(0), Value::Int(1), Value::Int(2),
                      Value::Int(11)}));
  EXPECT_EQ(model->Get("P").UndefinedElements(),
            (ValueSet{Value::Int(14), Value::Int(15)}));
}

TEST(AlgebraValidOracleTest, NestedIfpSubtractingTheOuterVariable) {
  // P = IFP(σ_{x<13}({10} ∪ IFP((MAP₊₁(x₁) − MAP₊₂(x₁)) ∪ x₀))) beside
  // WIN: the inner body subtracts the outer accumulator x₁, so the outer
  // variable occurs negatively and both of its bounds advance in
  // lockstep.  P stops at {10, 11}: 12 = 11 + 1 is blocked by
  // 10 + 2 from the lower bound; were that bound left empty, P would
  // gain 12.
  using E = algebra::AlgebraExpr;
  using algebra::FnExpr;
  algebra::AlgebraProgram prog = WinProgram();
  const E inner = E::Ifp(E::Union(
      E::Diff(E::Map(algebra::fn::AddConst(1), E::IterVar(1)),
              E::Map(algebra::fn::AddConst(2), E::IterVar(1))),
      E::IterVar(0)));
  prog.DefineConstant(
      "P", E::Ifp(E::Select(
               FnExpr::Lt(FnExpr::Arg(), FnExpr::Cst(Value::Int(13))),
               E::Union(E::Singleton(Value::Int(10)), inner))));
  ASSERT_EQ(algebra::IterVarPolarity(prog.defs()[1].body.children()[0]),
            algebra::Polarity::kMixed);
  const algebra::SetDb db = DrawnGameDb();
  ExpectAlgebraValidMatchesOracle(prog, db, prog.ToString());
  auto model = algebra::EvalAlgebraValid(prog, db);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_EQ(model->Get("P").upper, (ValueSet{Value::Int(10), Value::Int(11)}));
}

TEST(AlgebraValidOracleTest, NegativeIfpNestedInPositiveIfp) {
  // P = IFP({10} ∪ IFP(σ_{x<13}(x₁ ∪ MAP₊₁(x₀)) − MAP₊₂(x₀))) beside
  // WIN: the outer variable x₁ occurs only positively, but the inner IFP
  // subtracts its own, so it advances both bounds and reads both bounds
  // of x₁ — which must therefore advance both as well.  The inner IFP
  // stops at {10, 11} because its lower bound holds 10 + 2 by the time
  // 12 would enter its upper bound; with an empty lower bound of x₁ it
  // would not, and P would gain 12.
  using E = algebra::AlgebraExpr;
  using algebra::FnExpr;
  algebra::AlgebraProgram prog = WinProgram();
  const E inner = E::Ifp(E::Diff(
      E::Select(FnExpr::Lt(FnExpr::Arg(), FnExpr::Cst(Value::Int(13))),
                E::Union(E::IterVar(1),
                         E::Map(algebra::fn::AddConst(1), E::IterVar(0)))),
      E::Map(algebra::fn::AddConst(2), E::IterVar(0))));
  prog.DefineConstant("P",
                      E::Ifp(E::Union(E::Singleton(Value::Int(10)), inner)));
  ASSERT_EQ(algebra::IterVarPolarity(prog.defs()[1].body.children()[0]),
            algebra::Polarity::kPositive);
  ASSERT_FALSE(algebra::AllIfpsPositive(prog.defs()[1].body));
  const algebra::SetDb db = DrawnGameDb();
  ExpectAlgebraValidMatchesOracle(prog, db, prog.ToString());
  auto model = algebra::EvalAlgebraValid(prog, db);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_EQ(model->Get("P").lower, (ValueSet{Value::Int(10), Value::Int(11)}));
  EXPECT_EQ(model->Get("P").upper, (ValueSet{Value::Int(10), Value::Int(11)}));
}

TEST(AlgebraValidOracleTest, QueryWithNegativeIfpOverThreeValuedModel) {
  // IFP((π₁MOVE − WIN) ∪ (σ_{x<14}(MAP₊₁(x)) − MAP₊₂(x))) over the drawn
  // game's 3-valued WIN: the query's two bounds, computed in one lockstep
  // pass, are the pair evaluator's on that model, and so are its rounds
  // and charges.  Its upper bound is {11, 12, 14, 15}: 13 = 12 + 1 is
  // blocked by 11 + 2 from the lower bound.
  using E = algebra::AlgebraExpr;
  using algebra::FnExpr;
  const algebra::AlgebraProgram prog = WinProgram();
  const algebra::SetDb db = DrawnGameDb();
  const E query = E::Ifp(E::Union(
      E::Diff(MovePositions(), E::Relation("WIN")),
      E::Diff(E::Select(FnExpr::Lt(FnExpr::Arg(), FnExpr::Cst(Value::Int(14))),
                        E::Map(algebra::fn::AddConst(1), E::IterVar(0))),
              E::Map(algebra::fn::AddConst(2), E::IterVar(0)))));

  ExecutionContext model_ctx(EvalLimits::Large());
  algebra::AlgebraEvalOptions opts;
  opts.context = &model_ctx;
  auto model = algebra::EvalAlgebraValid(prog, db, opts);
  ASSERT_TRUE(model.ok()) << model.status();
  ASSERT_FALSE(model->IsTwoValued());
  const AlgebraPairs model_pairs(model->begin(), model->end());
  ExecutionContext oracle_ctx(EvalLimits::Large());
  auto oracle = NaivePairEval(db, model_pairs, &oracle_ctx).Eval(query);
  ASSERT_TRUE(oracle.ok()) << oracle.status();

  ExecutionContext ctx(EvalLimits::Large());
  opts.context = &ctx;
  auto answer = algebra::EvalQueryValid(query, prog, db, opts);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->lower, oracle->lower);
  EXPECT_EQ(answer->upper, oracle->upper);
  EXPECT_EQ(answer->upper, (ValueSet{Value::Int(11), Value::Int(12),
                                     Value::Int(14), Value::Int(15)}));
  EXPECT_FALSE(answer->IsTwoValued());
  EXPECT_EQ(ctx.rounds() - model_ctx.rounds(), oracle_ctx.rounds());
  EXPECT_EQ(ctx.total_charges() - model_ctx.total_charges(),
            oracle_ctx.total_charges());
}

TEST(WellFoundedComponentTest, ThreeValuedLowerComponentFeedsUpperOnes) {
  const Program program = ComponentsProgram();
  const Database db = ComponentsDb();
  ExpectWalkMatchesGlobalAlternation(program, db);
  auto model = datalog::EvalWellFounded(program, db);
  ASSERT_TRUE(model.ok()) << model.status();
  // The drawn cycles leave facts undefined in every component.
  const datalog::Interpretation undefined = model->UndefinedFacts();
  for (const char* pred : {"win", "reach", "safe", "pick", "skip"}) {
    EXPECT_GT(undefined.Extent(pred).size(), 0u) << pred;
  }
  using datalog::Truth;
  EXPECT_EQ(model->QueryFact("reach", Value::Tuple({Value::Int(4)})),
            Truth::kTrue);
  EXPECT_EQ(model->QueryFact("safe", Value::Tuple({Value::Int(7)})),
            Truth::kTrue);
  EXPECT_EQ(model->QueryFact("pick", Value::Tuple({Value::Int(7)})),
            Truth::kFalse);
  EXPECT_EQ(model->QueryFact("skip", Value::Tuple({Value::Int(7)})),
            Truth::kTrue);
}

// A WIN–MOVE game's IDB is one component on a negative cycle, so the
// walk alternates exactly as the global loop does: same model, rounds
// and charges.
TEST(WellFoundedComponentTest, SingleComponentGameAlternatesLikeGlobalLoop) {
  const Program game =
      *datalog::ParseProgram("win(X) :- move(X, Y), not win(Y).");
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Lcg rng(seed);
    Database db;
    for (int i = 0; i < 14; ++i) {
      db.AddFact("move", {Value::Int(static_cast<int64_t>(rng.Below(10))),
                          Value::Int(static_cast<int64_t>(rng.Below(10)))});
    }
    ExecutionContext oracle_ctx(EvalLimits::Large());
    auto oracle = GlobalAlternation(game, db, &oracle_ctx);
    ExecutionContext walk_ctx(EvalLimits::Large());
    datalog::EvalOptions o;
    o.context = &walk_ctx;
    auto walk = datalog::EvalWellFounded(game, db, o);
    ASSERT_TRUE(oracle.ok() && walk.ok()) << "seed " << seed;
    EXPECT_EQ(RenderThreeValued(*walk), RenderThreeValued(*oracle))
        << "seed " << seed;
    EXPECT_EQ(walk_ctx.rounds(), oracle_ctx.rounds()) << "seed " << seed;
    EXPECT_EQ(walk_ctx.total_charges(), oracle_ctx.total_charges())
        << "seed " << seed;
  }
}

class MagicProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MagicProperty, MagicAnswersEqualFilteredFull) {
  GenOptions opts;
  opts.allow_negation = false;
  Generated g = GenerateProgram(GetParam(), opts);
  Lcg rng(GetParam() * 77 + 5);

  auto full = EvalBothWays(
      [&](const datalog::EvalOptions& o) {
        return datalog::EvalMinimalModel(g.program, g.edb, o);
      },
      g.program.ToString());
  ASSERT_TRUE(full.ok());

  // Random query over a random IDB predicate, binding the first arg.
  const std::string& pred = g.idb_preds[rng.Below(g.idb_preds.size())];
  size_t arity = 0;
  for (const auto& rule : g.program.rules) {
    if (rule.head.predicate == pred) arity = rule.head.arity();
  }
  datalog::QuerySpec q;
  q.predicate = pred;
  q.pattern.push_back(Value::Int(static_cast<int64_t>(rng.Below(5))));
  for (size_t i = 1; i < arity; ++i) q.pattern.push_back(std::nullopt);

  auto magic = datalog::MagicTransform(g.program, q);
  ASSERT_TRUE(magic.ok()) << magic.status() << "\n" << g.program.ToString();
  Database seeded = g.edb;
  seeded.InsertAll(magic->seeds);
  auto interp = EvalBothWays(
      [&](const datalog::EvalOptions& o) {
        return datalog::EvalMinimalModel(magic->program, seeded, o);
      },
      g.program.ToString());
  ASSERT_TRUE(interp.ok()) << interp.status();
  auto answers = datalog::MagicAnswers(*interp, *magic, q);
  ASSERT_TRUE(answers.ok());

  ValueSet expected;
  for (const Value& fact : full->Extent(pred)) {
    if (fact.items()[0] == *q.pattern[0]) expected.Insert(fact);
  }
  EXPECT_EQ(*answers, expected) << q.ToString() << "\n" << g.program.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, MagicProperty,
                         ::testing::Range<uint64_t>(1, 21));

// ----------------------------------------------------------------------
// Scan-vs-index differential oracle at scale: 200 random programs per
// semantics, every engine run both ways, zero divergences tolerated.
// The seeds are decorrelated from the property suites above so these
// cover fresh programs.

class ScanVsIndexDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ScanVsIndexDifferential, PositiveProgramSemantics) {
  GenOptions opts;
  opts.allow_negation = false;
  Generated g = GenerateProgram(GetParam() * 7919 + 31, opts);
  const std::string what = g.program.ToString();
  EvalBothWays(
      [&](datalog::EvalOptions o) {
        o.seminaive = false;
        return datalog::EvalMinimalModel(g.program, g.edb, o);
      },
      what);
  EvalBothWays(
      [&](const datalog::EvalOptions& o) {
        return datalog::EvalMinimalModel(g.program, g.edb, o);
      },
      what);
}

TEST_P(ScanVsIndexDifferential, GeneralProgramSemantics) {
  Generated g = GenerateProgram(GetParam() * 104729 + 97, GenOptions{});
  const std::string what = g.program.ToString();
  EvalBothWays(
      [&](const datalog::EvalOptions& o) {
        return datalog::EvalInflationary(g.program, g.edb, o);
      },
      what);
  EvalBothWays(
      [&](const datalog::EvalOptions& o) {
        return datalog::EvalWellFounded(g.program, g.edb, o);
      },
      what);
  // Random general programs may be unstratifiable; EvalBothWays still
  // requires the two paths to fail identically in that case.
  EvalBothWays(
      [&](const datalog::EvalOptions& o) {
        return datalog::EvalStratified(g.program, g.edb, o);
      },
      what);
  EvalBothWays(
      [&](const datalog::EvalOptions& o) {
        return datalog::EvalStableModels(g.program, g.edb, o);
      },
      what);
  EvalBothWays(
      [&](const datalog::EvalOptions& o) {
        return datalog::GroundProgramFor(g.program, g.edb, o);
      },
      what);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScanVsIndexDifferential,
                         ::testing::Range<uint64_t>(1, 201));

// ----------------------------------------------------------------------
// Governance parity: interruptions (deadline, cancellation, injected
// faults) must surface the same statuses on the indexed and scan paths.
// Both paths visit the same matches and charge the same governance
// points, so a fault tripped at charge i yields the same outcome —
// verified here by sweeping trip points through whole evaluations.

struct GovernedEngine {
  std::string name;
  std::function<Status(ExecutionContext*, datalog::EvalOptions)> run_with;
  // Stable-model search explores ground rules in enumeration order, so
  // its total charge count may legitimately differ between the paths.
  bool counts_must_match = true;

  Status run(ExecutionContext* ctx, bool use_index) const {
    return run_with(ctx, IndexOpts(use_index));
  }
};

std::vector<GovernedEngine> GovernedEngines() {
  auto tc = *datalog::ParseProgram(R"(
    tc(X, Y) :- edge(X, Y).
    tc(X, Z) :- edge(X, Y), tc(Y, Z).
  )");
  Database edges;
  for (int i = 0; i < 6; ++i) {
    edges.AddFact("edge", {Value::Int(i), Value::Int(i + 1)});
  }
  auto reach = *datalog::ParseProgram(R"(
    reach(X) :- source(X).
    reach(Y) :- reach(X), edge(X, Y).
    unreached(X) :- node(X), not reach(X).
  )");
  Database reach_db = edges;
  for (int i = 0; i <= 6; ++i) reach_db.AddFact("node", {Value::Int(i)});
  reach_db.AddFact("source", {Value::Int(0)});
  auto game = *datalog::ParseProgram("win(X) :- move(X, Y), not win(Y).");
  Database game_db;
  game_db.AddFact("move", {Value::Int(1), Value::Int(2)});
  game_db.AddFact("move", {Value::Int(2), Value::Int(3)});
  game_db.AddFact("move", {Value::Int(3), Value::Int(4)});
  game_db.AddFact("move", {Value::Int(4), Value::Int(3)});
  const Program components = ComponentsProgram();
  const Database components_db = ComponentsDb();

  std::vector<GovernedEngine> out;
  out.push_back({"least-model(seminaive)",
                 [=](ExecutionContext* ctx, datalog::EvalOptions o) {
                   o.context = ctx;
                   return datalog::EvalMinimalModel(tc, edges, o).status();
                 }});
  out.push_back({"least-model(naive)",
                 [=](ExecutionContext* ctx, datalog::EvalOptions o) {
                   o.context = ctx;
                   o.seminaive = false;
                   return datalog::EvalMinimalModel(tc, edges, o).status();
                 }});
  out.push_back({"stratified",
                 [=](ExecutionContext* ctx, datalog::EvalOptions o) {
                   o.context = ctx;
                   return datalog::EvalStratified(reach, reach_db, o).status();
                 }});
  out.push_back({"inflationary",
                 [=](ExecutionContext* ctx, datalog::EvalOptions o) {
                   o.context = ctx;
                   return datalog::EvalInflationary(game, game_db, o).status();
                 }});
  out.push_back({"well-founded",
                 [=](ExecutionContext* ctx, datalog::EvalOptions o) {
                   o.context = ctx;
                   return datalog::EvalWellFounded(game, game_db, o).status();
                 }});
  out.push_back({"well-founded(components)",
                 [=](ExecutionContext* ctx, datalog::EvalOptions o) {
                   o.context = ctx;
                   return datalog::EvalWellFounded(components,
                                                   components_db, o)
                       .status();
                 }});
  out.push_back({"grounding",
                 [=](ExecutionContext* ctx, datalog::EvalOptions o) {
                   o.context = ctx;
                   return datalog::GroundProgramFor(game, game_db, o).status();
                 }});
  out.push_back({"stable-models",
                 [=](ExecutionContext* ctx, datalog::EvalOptions o) {
                   o.context = ctx;
                   return datalog::EvalStableModels(game, game_db, o).status();
                 },
                 /*counts_must_match=*/false});
  return out;
}

TEST(ScanVsIndexGovernance, PreCancelledAndExpiredDeadlineParity) {
  for (const GovernedEngine& engine : GovernedEngines()) {
    for (bool use_index : {true, false}) {
      CancelSource source;
      source.RequestCancel();
      ExecutionContext cancelled;
      cancelled.set_cancel_token(source.token());
      EXPECT_TRUE(engine.run(&cancelled, use_index).IsCancelled())
          << engine.name << " use_index=" << use_index;

      ExecutionContext expired;
      expired.set_deadline(ExecutionContext::Clock::now() -
                           std::chrono::milliseconds(1));
      EXPECT_TRUE(engine.run(&expired, use_index).IsDeadlineExceeded())
          << engine.name << " use_index=" << use_index;
    }
  }
}

// ----------------------------------------------------------------------
// Concurrent-sessions differential oracle.  Every engine runs one
// sequential round loop; the concurrency that exists is awrd evaluating
// independent requests on concurrent sessions, which share the
// process-wide atom and value interners and the VM counters.
// Here kSessions threads each evaluate the same program on their own
// copy of it and of the database, under their own options and context,
// and every result must equal the single-threaded run — over 100
// random programs per semantics family.

constexpr size_t kSessions = 4;

// Runs `body(session)` on kSessions threads at once and joins them.
template <typename Fn>
void RunSessions(const Fn& body) {
  std::vector<std::thread> threads;
  for (size_t s = 0; s < kSessions; ++s) {
    threads.emplace_back([&body, s] { body(s); });
  }
  for (std::thread& t : threads) t.join();
}

// `eval(g)` evaluates one generated program; the oracle runs it alone,
// then each session runs it on a private copy of `g`.
template <typename Fn>
void EvalAcrossSessions(const Fn& eval, const Generated& g,
                        const std::string& what) {
  auto oracle = eval(g);
  const std::vector<Generated> copies(kSessions, g);
  std::vector<std::optional<decltype(oracle)>> results(kSessions);
  RunSessions([&](size_t s) { results[s].emplace(eval(copies[s])); });
  for (size_t s = 0; s < kSessions; ++s) {
    const auto& got = *results[s];
    EXPECT_EQ(oracle.status().code(), got.status().code())
        << what << "\nalone: " << oracle.status() << "\nsession " << s
        << ": " << got.status();
    if (oracle.ok() && got.ok()) {
      ExpectSameResult(*got, *oracle,
                       what + "\n(session " + std::to_string(s) + ")");
    }
  }
}

class ParallelVsSequentialDifferential
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelVsSequentialDifferential, PositiveProgramSemantics) {
  GenOptions opts;
  opts.allow_negation = false;
  Generated g = GenerateProgram(GetParam() * 15485863 + 11, opts);
  const std::string what = g.program.ToString();
  EvalAcrossSessions(
      [](const Generated& own) {
        datalog::EvalOptions o;
        o.seminaive = false;
        return datalog::EvalMinimalModel(own.program, own.edb, o);
      },
      g, what);
  EvalAcrossSessions(
      [](const Generated& own) {
        return datalog::EvalMinimalModel(own.program, own.edb);
      },
      g, what);
}

TEST_P(ParallelVsSequentialDifferential, GeneralProgramSemantics) {
  Generated g = GenerateProgram(GetParam() * 32452843 + 7, GenOptions{});
  const std::string what = g.program.ToString();
  EvalAcrossSessions(
      [](const Generated& own) {
        return datalog::EvalInflationary(own.program, own.edb);
      },
      g, what);
  EvalAcrossSessions(
      [](const Generated& own) {
        return datalog::EvalWellFounded(own.program, own.edb);
      },
      g, what);
  // Possibly unstratifiable; every session must then fail identically.
  EvalAcrossSessions(
      [](const Generated& own) {
        return datalog::EvalStratified(own.program, own.edb);
      },
      g, what);
  EvalAcrossSessions(
      [](const Generated& own) {
        return datalog::EvalStableModels(own.program, own.edb);
      },
      g, what);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelVsSequentialDifferential,
                         ::testing::Range<uint64_t>(1, 101));

// A larger workload whose rendered models must be byte-identical, not
// merely set-equal, whether evaluated alone or by concurrent sessions.
TEST(ParallelVsSequentialDifferential, TransitiveClosureByteIdentity) {
  Generated g;
  g.program = *datalog::ParseProgram(R"(
    tc(X, Y) :- edge(X, Y).
    tc(X, Z) :- edge(X, Y), tc(Y, Z).
  )");
  for (int i = 0; i < 60; ++i) {
    g.edb.AddFact("edge", {Value::Int(i), Value::Int(i + 1)});
  }
  for (bool seminaive : {true, false}) {
    auto render = [seminaive](const Generated& own) -> Result<std::string> {
      datalog::EvalOptions o;
      o.limits = EvalLimits::Large();
      o.seminaive = seminaive;
      AWR_ASSIGN_OR_RETURN(auto m,
                           datalog::EvalMinimalModel(own.program, own.edb, o));
      return m.ToString();
    };
    EvalAcrossSessions(render, g,
                       "seminaive=" + std::to_string(seminaive));
  }
}

// ----------------------------------------------------------------------
// Governance across concurrent sessions: a session's context counts
// only its own charges and sees only its own cancel token, deadline and
// injected fault, so statuses and charge counts do not depend on how
// many sessions run at once.

std::vector<std::vector<GovernedEngine>> SessionEngines() {
  std::vector<std::vector<GovernedEngine>> out;
  for (size_t s = 0; s < kSessions; ++s) out.push_back(GovernedEngines());
  return out;
}

TEST(ConcurrentSessionGovernance, PreCancelledAndExpiredDeadlineParity) {
  const auto engines = SessionEngines();
  RunSessions([&](size_t s) {
    for (const GovernedEngine& engine : engines[s]) {
      CancelSource source;
      source.RequestCancel();
      ExecutionContext cancelled;
      cancelled.set_cancel_token(source.token());
      EXPECT_TRUE(
          engine.run_with(&cancelled, datalog::EvalOptions()).IsCancelled())
          << engine.name << " session " << s;

      ExecutionContext expired;
      expired.set_deadline(ExecutionContext::Clock::now() -
                           std::chrono::milliseconds(1));
      EXPECT_TRUE(engine.run_with(&expired, datalog::EvalOptions())
                      .IsDeadlineExceeded())
          << engine.name << " session " << s;
    }
  });
}

// Total charges of each engine's uninterrupted run: alone, then in each
// of kSessions concurrent sessions.
TEST(ConcurrentSessionGovernance, ChargeCountsIdenticalAcrossThreadCounts) {
  std::vector<size_t> alone;
  for (const GovernedEngine& engine : GovernedEngines()) {
    ExecutionContext ctx(EvalLimits::Default());
    Status st = engine.run_with(&ctx, datalog::EvalOptions());
    ASSERT_TRUE(st.ok()) << engine.name << ": " << st;
    alone.push_back(ctx.total_charges());
  }
  const auto engines = SessionEngines();
  std::vector<std::vector<size_t>> counts(kSessions);
  RunSessions([&](size_t s) {
    for (const GovernedEngine& engine : engines[s]) {
      ExecutionContext ctx(EvalLimits::Default());
      Status st = engine.run_with(&ctx, datalog::EvalOptions());
      EXPECT_TRUE(st.ok()) << engine.name << " session " << s << ": " << st;
      counts[s].push_back(ctx.total_charges());
    }
  });
  for (size_t s = 0; s < kSessions; ++s) {
    EXPECT_EQ(counts[s], alone) << "session " << s;
  }
}

// The statuses of `engine` with a fault injected at each trip point.
std::vector<Status> FaultSweep(const GovernedEngine& engine,
                               const std::vector<size_t>& trip_points) {
  std::vector<Status> out;
  for (size_t i : trip_points) {
    FaultInjector injector;
    injector.TripAt(i, Status::Internal("injected fault"));
    ExecutionContext ctx(EvalLimits::Default());
    ctx.set_fault_injector(&injector);
    out.push_back(engine.run_with(&ctx, datalog::EvalOptions()));
  }
  return out;
}

TEST(ConcurrentSessionGovernance, FaultSweepStatusesIdenticalAcrossThreadCounts) {
  const std::vector<GovernedEngine> oracle_engines = GovernedEngines();
  std::vector<std::vector<size_t>> trips;
  std::vector<std::vector<Status>> alone;
  for (const GovernedEngine& engine : oracle_engines) {
    ExecutionContext ctx(EvalLimits::Default());
    ASSERT_TRUE(engine.run_with(&ctx, datalog::EvalOptions()).ok())
        << engine.name;
    const size_t n = ctx.total_charges();
    ASSERT_GT(n, 0u) << engine.name;
    std::set<size_t> points;
    for (size_t i = 1; i <= std::min<size_t>(n, 12); ++i) points.insert(i);
    for (size_t i = 13; i < n; i += std::max<size_t>(1, n / 16)) {
      points.insert(i);
    }
    points.insert(n);
    trips.emplace_back(points.begin(), points.end());
    alone.push_back(FaultSweep(engine, trips.back()));
    for (const Status& st : alone.back()) {
      EXPECT_EQ(st.code(), StatusCode::kInternal) << engine.name << ": " << st;
    }
  }
  const auto engines = SessionEngines();
  std::vector<std::vector<std::vector<Status>>> swept(kSessions);
  RunSessions([&](size_t s) {
    for (size_t e = 0; e < engines[s].size(); ++e) {
      swept[s].push_back(FaultSweep(engines[s][e], trips[e]));
    }
  });
  for (size_t s = 0; s < kSessions; ++s) {
    for (size_t e = 0; e < oracle_engines.size(); ++e) {
      for (size_t t = 0; t < trips[e].size(); ++t) {
        EXPECT_EQ(swept[s][e][t].ToString(), alone[e][t].ToString())
            << oracle_engines[e].name << " session " << s << " trip point "
            << trips[e][t];
      }
    }
  }
}

TEST(ScanVsIndexGovernance, FaultSweepStatusesIdenticalAcrossPaths) {
  for (const GovernedEngine& engine : GovernedEngines()) {
    // Disarmed runs: learn each path's charge-point count.
    size_t n_by_path[2];
    for (bool use_index : {true, false}) {
      FaultInjector injector;
      injector.Disarm();
      ExecutionContext ctx(EvalLimits::Default());
      ctx.set_fault_injector(&injector);
      Status st = engine.run(&ctx, use_index);
      ASSERT_TRUE(st.ok()) << engine.name << " disarmed use_index="
                           << use_index << ": " << st;
      n_by_path[use_index ? 0 : 1] = injector.charges_seen();
    }
    if (engine.counts_must_match) {
      EXPECT_EQ(n_by_path[0], n_by_path[1])
          << engine.name << ": indexed and scan paths disagree on the "
          << "number of governance charge points";
    }
    const size_t n = std::min(n_by_path[0], n_by_path[1]);
    ASSERT_GT(n, 0u) << engine.name;

    // Trip a dense prefix, a sampled middle, and the final shared
    // charge on both paths; the injected status must surface verbatim
    // from each.
    std::set<size_t> trip_points;
    for (size_t i = 1; i <= std::min<size_t>(n, 16); ++i) trip_points.insert(i);
    for (size_t i = 17; i < n; i += std::max<size_t>(1, n / 32)) {
      trip_points.insert(i);
    }
    trip_points.insert(n);
    for (size_t i : trip_points) {
      Status statuses[2];
      for (bool use_index : {true, false}) {
        FaultInjector injector;
        injector.TripAt(i, Status::Internal("injected fault"));
        ExecutionContext ctx(EvalLimits::Default());
        ctx.set_fault_injector(&injector);
        statuses[use_index ? 0 : 1] = engine.run(&ctx, use_index);
      }
      EXPECT_EQ(statuses[0].code(), statuses[1].code())
          << engine.name << " trip point " << i << "/" << n
          << "\nindexed: " << statuses[0] << "\nscan:    " << statuses[1];
      for (const Status& st : statuses) {
        EXPECT_EQ(st.code(), StatusCode::kInternal)
            << engine.name << " trip point " << i << ": " << st;
        EXPECT_NE(st.message().find("injected fault"), std::string::npos)
            << engine.name << " trip point " << i << ": " << st;
      }
    }
  }
}

// ----------------------------------------------------------------------
// Crash-point recovery oracle (DESIGN.md §9).  For each engine: an
// uninterrupted run learns the total number of governance charges N
// (ExecutionContext::total_charges), then the sweep kills the evaluation
// at charge k for every k in [1, N] (strided via AWR_CRASH_SWEEP_STRIDE
// to bound sanitizer-build time; endpoints and the first rounds always
// included), captures the on-interrupt snapshot, round-trips it through
// the byte format, resumes under a fresh context, and requires
//  (a) the resumed model to render byte-identical to the oracle, and
//  (b) charge-count parity: charges_at_barrier + resumed charges == N —
//      i.e. a resumed run re-executes exactly the charges the killed
//      run had not completed, no more and no fewer.

struct CpEngine {
  std::string name;
  // Runs the engine to completion (or interruption) and renders the
  // model deterministically; on error the snapshot, if any, is in the
  // options' sink.
  std::function<Result<std::string>(ExecutionContext*, datalog::EvalOptions)>
      run;
  // Resumes from a snapshot and renders the final model the same way.
  std::function<Result<std::string>(const snapshot::EvalSnapshot&,
                                    datalog::EvalOptions)>
      resume;
};

std::string RenderInterp(const datalog::Interpretation& interp) {
  return interp.ToString();
}

std::vector<CpEngine> CrashPointEngines() {
  auto tc = *datalog::ParseProgram(R"(
    tc(X, Y) :- edge(X, Y).
    tc(X, Z) :- edge(X, Y), tc(Y, Z).
  )");
  Database edges;
  for (int i = 0; i < 6; ++i) {
    edges.AddFact("edge", {Value::Int(i), Value::Int(i + 1)});
  }
  auto reach = *datalog::ParseProgram(R"(
    reach(X) :- source(X).
    reach(Y) :- reach(X), edge(X, Y).
    unreached(X) :- node(X), not reach(X).
  )");
  Database reach_db = edges;
  for (int i = 0; i <= 6; ++i) reach_db.AddFact("node", {Value::Int(i)});
  reach_db.AddFact("source", {Value::Int(0)});
  auto game = *datalog::ParseProgram("win(X) :- move(X, Y), not win(Y).");
  Database game_db;
  game_db.AddFact("move", {Value::Int(1), Value::Int(2)});
  game_db.AddFact("move", {Value::Int(2), Value::Int(3)});
  game_db.AddFact("move", {Value::Int(3), Value::Int(4)});
  game_db.AddFact("move", {Value::Int(4), Value::Int(3)});
  const Program components = ComponentsProgram();
  const Database components_db = ComponentsDb();

  std::vector<CpEngine> out;
  out.push_back(
      {"least-model(seminaive)",
       [=](ExecutionContext* ctx, datalog::EvalOptions o) -> Result<std::string> {
         o.context = ctx;
         AWR_ASSIGN_OR_RETURN(auto m, datalog::EvalMinimalModel(tc, edges, o));
         return RenderInterp(m);
       },
       [=](const snapshot::EvalSnapshot& s,
           datalog::EvalOptions o) -> Result<std::string> {
         AWR_ASSIGN_OR_RETURN(auto m,
                              snapshot::ResumeMinimalModel(tc, edges, s, o));
         return RenderInterp(m);
       }});
  out.push_back(
      {"least-model(naive)",
       [=](ExecutionContext* ctx, datalog::EvalOptions o) -> Result<std::string> {
         o.context = ctx;
         o.seminaive = false;
         AWR_ASSIGN_OR_RETURN(auto m, datalog::EvalMinimalModel(tc, edges, o));
         return RenderInterp(m);
       },
       [=](const snapshot::EvalSnapshot& s,
           datalog::EvalOptions o) -> Result<std::string> {
         // Resume derives the iteration mode from the frame, not the
         // caller's options.
         AWR_ASSIGN_OR_RETURN(auto m,
                              snapshot::ResumeMinimalModel(tc, edges, s, o));
         return RenderInterp(m);
       }});
  out.push_back(
      {"stratified",
       [=](ExecutionContext* ctx, datalog::EvalOptions o) -> Result<std::string> {
         o.context = ctx;
         AWR_ASSIGN_OR_RETURN(auto m,
                              datalog::EvalStratified(reach, reach_db, o));
         return RenderInterp(m);
       },
       [=](const snapshot::EvalSnapshot& s,
           datalog::EvalOptions o) -> Result<std::string> {
         AWR_ASSIGN_OR_RETURN(
             auto m, snapshot::ResumeStratified(reach, reach_db, s, o));
         return RenderInterp(m);
       }});
  out.push_back(
      {"inflationary",
       [=](ExecutionContext* ctx, datalog::EvalOptions o) -> Result<std::string> {
         o.context = ctx;
         AWR_ASSIGN_OR_RETURN(auto m,
                              datalog::EvalInflationary(game, game_db, o));
         return RenderInterp(m);
       },
       [=](const snapshot::EvalSnapshot& s,
           datalog::EvalOptions o) -> Result<std::string> {
         AWR_ASSIGN_OR_RETURN(
             auto m, snapshot::ResumeInflationary(game, game_db, s, o));
         return RenderInterp(m);
       }});
  out.push_back(
      {"well-founded",
       [=](ExecutionContext* ctx, datalog::EvalOptions o) -> Result<std::string> {
         o.context = ctx;
         AWR_ASSIGN_OR_RETURN(auto m,
                              datalog::EvalWellFounded(game, game_db, o));
         return RenderThreeValued(m);
       },
       [=](const snapshot::EvalSnapshot& s,
           datalog::EvalOptions o) -> Result<std::string> {
         AWR_ASSIGN_OR_RETURN(
             auto m, snapshot::ResumeWellFounded(game, game_db, s, o));
         return RenderThreeValued(m);
       }});
  // Every step of the component walk: the game alternates over EDB, a
  // positive and a negated component each take two least models over
  // its 3-valued result, and a second negative cycle alternates on top.
  out.push_back(
      {"well-founded(components)",
       [=](ExecutionContext* ctx, datalog::EvalOptions o) -> Result<std::string> {
         o.context = ctx;
         AWR_ASSIGN_OR_RETURN(
             auto m, datalog::EvalWellFounded(components, components_db, o));
         return RenderThreeValued(m);
       },
       [=](const snapshot::EvalSnapshot& s,
           datalog::EvalOptions o) -> Result<std::string> {
         AWR_ASSIGN_OR_RETURN(auto m, snapshot::ResumeWellFounded(
                                          components, components_db, s, o));
         return RenderThreeValued(m);
       }});
  return out;
}

/// Sweep stride for the crash-point oracle: 1 (exhaustive) by default;
/// scripts/tier1.sh sets AWR_CRASH_SWEEP_STRIDE to thin the sweep under
/// sanitizers.  Charges 1, 2, N-1 and N are always included.
size_t CrashSweepStride() {
  const char* env = std::getenv("AWR_CRASH_SWEEP_STRIDE");
  if (env == nullptr || *env == '\0') return 1;
  char* end = nullptr;
  unsigned long long n = std::strtoull(env, &end, 10);
  if (end == env || n == 0) return 1;
  return static_cast<size_t>(n);
}

// Crashes `engine` at each charge in `trip_points`, round-trips the
// on-interrupt snapshot through the byte format, resumes under a fresh
// context, and checks the model and charge parity against the
// uninterrupted run (`oracle`, `n` charges).  Every run starts from
// `base`'s evaluation paths.
void CrashAndResume(const CpEngine& engine, const std::string& oracle,
                    size_t n, const std::set<size_t>& trip_points,
                    const datalog::EvalOptions& base) {
  for (size_t k : trip_points) {
    SCOPED_TRACE(engine.name + " crash at charge " + std::to_string(k) + "/" +
                 std::to_string(n));
    // Crash at charge k with on-interrupt capture armed.
    FaultInjector injector;
    injector.TripAt(k, Status::Internal("injected fault"));
    ExecutionContext ctx(EvalLimits::Default());
    ctx.set_fault_injector(&injector);
    snapshot::CheckpointSink sink;
    datalog::EvalOptions opts = base;
    opts.checkpoint.sink = &sink;
    opts.checkpoint.on_interrupt = true;
    opts.checkpoint.every_n_rounds = 0;
    auto crashed = engine.run(&ctx, opts);
    ASSERT_FALSE(crashed.ok());
    EXPECT_EQ(crashed.status().code(), StatusCode::kInternal)
        << crashed.status();
    ASSERT_TRUE(sink.latest.has_value());

    // The snapshot must survive the byte format round trip.
    auto bytes = snapshot::Serialize(*sink.latest);
    ASSERT_TRUE(bytes.ok()) << bytes.status();
    auto loaded = snapshot::Deserialize(*bytes);
    ASSERT_TRUE(loaded.ok()) << loaded.status();

    // Resume under a fresh context, which counts the resumed charges.
    ExecutionContext resumed_ctx(EvalLimits::Default());
    datalog::EvalOptions resume_opts = base;
    resume_opts.context = &resumed_ctx;
    auto resumed = engine.resume(*loaded, resume_opts);
    ASSERT_TRUE(resumed.ok()) << resumed.status();
    EXPECT_EQ(*resumed, oracle);
    EXPECT_EQ(loaded->charges_at_barrier + resumed_ctx.total_charges(), n)
        << "charge parity: barrier=" << loaded->charges_at_barrier
        << " resumed=" << resumed_ctx.total_charges();
  }
}

// Runs the sweep on the calling thread or, when `concurrent`, with its
// trip points dealt round-robin over kSessions threads, each crashing
// and resuming its own copy of the engines — the way concurrent awrd
// sessions checkpoint and resume side by side.  `base` selects the
// evaluation paths of every run.
void RunCrashPointSweep(bool concurrent,
                        const datalog::EvalOptions& base = {}) {
  const size_t stride = CrashSweepStride();
  const std::vector<CpEngine> engines = CrashPointEngines();
  std::vector<std::vector<CpEngine>> copies(concurrent ? kSessions : 0);
  for (auto& c : copies) c = CrashPointEngines();
  for (size_t e = 0; e < engines.size(); ++e) {
    const CpEngine& engine = engines[e];
    // Uninterrupted oracle: learn N and the reference rendering.
    ExecutionContext oracle_ctx(EvalLimits::Default());
    auto oracle = engine.run(&oracle_ctx, base);
    ASSERT_TRUE(oracle.ok()) << engine.name << ": " << oracle.status();
    const size_t n = oracle_ctx.total_charges();
    ASSERT_GT(n, 0u) << engine.name;

    std::set<size_t> trip_points;
    for (size_t k = 1; k <= n; k += stride) trip_points.insert(k);
    trip_points.insert(1);
    trip_points.insert(std::min<size_t>(2, n));
    trip_points.insert(n > 1 ? n - 1 : 1);
    trip_points.insert(n);

    if (!concurrent) {
      CrashAndResume(engine, *oracle, n, trip_points, base);
      continue;
    }
    std::vector<std::set<size_t>> shares(kSessions);
    size_t next = 0;
    for (size_t k : trip_points) shares[next++ % kSessions].insert(k);
    RunSessions([&](size_t s) {
      CrashAndResume(copies[s][e], *oracle, n, shares[s], base);
    });
  }
}

// The walk over ComponentsProgram has four steps (win, reach, safe,
// pick/skip); a crash can land in each, and in each iterate of each.
TEST(CrashPointRecovery, ComponentWalkCapturesEveryStep) {
  const Program program = ComponentsProgram();
  const Database db = ComponentsDb();
  ExecutionContext oracle_ctx(EvalLimits::Default());
  datalog::EvalOptions oracle_opts;
  oracle_opts.context = &oracle_ctx;
  ASSERT_TRUE(datalog::EvalWellFounded(program, db, oracle_opts).ok());
  std::set<std::pair<uint64_t, uint64_t>> positions;  // (component, k)
  for (size_t k = 1; k <= oracle_ctx.total_charges(); ++k) {
    FaultInjector injector;
    injector.TripAt(k, Status::Internal("injected fault"));
    ExecutionContext ctx(EvalLimits::Default());
    ctx.set_fault_injector(&injector);
    snapshot::CheckpointSink sink;
    datalog::EvalOptions opts;
    opts.context = &ctx;
    opts.checkpoint.sink = &sink;
    opts.checkpoint.every_n_rounds = 0;
    ASSERT_FALSE(datalog::EvalWellFounded(program, db, opts).ok());
    ASSERT_TRUE(sink.latest.has_value());
    positions.emplace(sink.latest->component, sink.latest->outer_index);
  }
  std::set<uint64_t> components;
  for (const auto& [component, k] : positions) components.insert(component);
  EXPECT_EQ(components, (std::set<uint64_t>{0, 1, 2, 3}));
  // Both iterates of the two non-alternating steps over a 3-valued
  // lower result, and more than two of each alternating step.
  for (uint64_t component : {1, 2}) {
    EXPECT_TRUE(positions.count({component, 0})) << component;
    EXPECT_TRUE(positions.count({component, 1})) << component;
    EXPECT_FALSE(positions.count({component, 2})) << component;
  }
  for (uint64_t component : {0, 3}) {
    EXPECT_TRUE(positions.count({component, 2})) << component;
  }
}

// Once per reference configuration: crash-point resume holds on every
// alternative evaluation path, not only in production.
TEST(CrashPointRecovery, SweepSequential) {
  for (const ReferenceConfig& config : ReferenceConfigs()) {
    SCOPED_TRACE(config.name);
    ScopedInterning repr(config.structural_interning);
    RunCrashPointSweep(false, config.Apply({}));
  }
}

TEST(CrashPointRecovery, SweepConcurrentSessions) { RunCrashPointSweep(true); }

// ----------------------------------------------------------------------
// Interned-vs-legacy value representation differential oracle
// (DESIGN.md §10).  Structural interning (hash-consing) of composite
// Values and Terms is a pure representation change: the legacy
// per-instance representation (SetStructuralInterningForTesting(false))
// is the oracle, and every observable — models, status codes,
// governance charge counts, and on-interrupt snapshot bytes — must be
// bit-identical with interning on and off, across all semantics.

// Runs one engine with the legacy representation (oracle) and then the
// hash-consed representation, requiring identical status codes and —
// on success — identical results.  Returns the interned-run result.
template <typename Fn>
auto EvalBothReprs(const Fn& eval, datalog::EvalOptions opts,
                   const std::string& what) {
  SetStructuralInterningForTesting(false);
  auto legacy = eval(opts);
  SetStructuralInterningForTesting(true);
  auto interned = eval(opts);
  EXPECT_EQ(legacy.status().code(), interned.status().code())
      << what << "\nlegacy:   " << legacy.status()
      << "\ninterned: " << interned.status();
  if (legacy.ok() && interned.ok()) {
    ExpectSameResult(*interned, *legacy, what);
  }
  return interned;
}

class InternVsLegacyDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(InternVsLegacyDifferential, PositiveSemanticsAgreeAcrossReprs) {
  ScopedInterning guard(true);
  GenOptions gen;
  gen.allow_negation = false;
  Generated g = GenerateProgram(GetParam() * 48271 + 13, gen);
  const std::string what = g.program.ToString();
  EvalBothReprs(
      [&](datalog::EvalOptions o) {
        o.seminaive = false;
        return datalog::EvalMinimalModel(g.program, g.edb, o);
      },
      datalog::EvalOptions(), what);
  EvalBothReprs(
      [&](const datalog::EvalOptions& o) {
        return datalog::EvalMinimalModel(g.program, g.edb, o);
      },
      datalog::EvalOptions(), what);
}

TEST_P(InternVsLegacyDifferential, GeneralSemanticsAgreeAcrossReprs) {
  ScopedInterning guard(true);
  // Random general programs may be unstratifiable or have no stable
  // model; EvalBothReprs still checks that both representations fail
  // (or succeed) identically.
  Generated g = GenerateProgram(GetParam() * 69621 + 29, GenOptions{});
  const std::string what = g.program.ToString();
  EvalBothReprs(
      [&](const datalog::EvalOptions& o) {
        return datalog::EvalInflationary(g.program, g.edb, o);
      },
      datalog::EvalOptions(), what);
  EvalBothReprs(
      [&](const datalog::EvalOptions& o) {
        return datalog::EvalWellFounded(g.program, g.edb, o);
      },
      datalog::EvalOptions(), what);
  EvalBothReprs(
      [&](const datalog::EvalOptions& o) {
        return datalog::EvalStratified(g.program, g.edb, o);
      },
      datalog::EvalOptions(), what);
  EvalBothReprs(
      [&](const datalog::EvalOptions& o) {
        return datalog::EvalStableModels(g.program, g.edb, o);
      },
      datalog::EvalOptions(), what);
  EvalBothReprs(
      [&](const datalog::EvalOptions& o) {
        return datalog::GroundProgramFor(g.program, g.edb, o);
      },
      datalog::EvalOptions(), what);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InternVsLegacyDifferential,
                         ::testing::Range<uint64_t>(1, 201));

// The rendered model text (the REPL / snapshot-surface byte form) must
// also be identical: canonical set ordering and ToString go through
// Value::Compare, which gains pointer fast paths under interning.
TEST(InternVsLegacyDifferential, RenderedModelsAreByteIdentical) {
  ScopedInterning guard(true);
  for (const CpEngine& engine : CrashPointEngines()) {
    SetStructuralInterningForTesting(false);
    ExecutionContext legacy_ctx(EvalLimits::Default());
    auto legacy = engine.run(&legacy_ctx, datalog::EvalOptions());
    SetStructuralInterningForTesting(true);
    ExecutionContext interned_ctx(EvalLimits::Default());
    auto interned = engine.run(&interned_ctx, datalog::EvalOptions());
    ASSERT_TRUE(legacy.ok() && interned.ok())
        << engine.name << "\nlegacy:   " << legacy.status()
        << "\ninterned: " << interned.status();
    EXPECT_EQ(*legacy, *interned) << engine.name;
  }
}

// Governance charge sequences are representation-independent: both
// modes enumerate the same matches in the same order (the hash recipe
// is identical, so unordered-container iteration order is too), hence
// disarmed charge counts match exactly — for every engine, including
// stable-model search.
TEST(InternVsLegacyGovernance, ChargeCountsIdenticalBothReprs) {
  ScopedInterning guard(true);
  for (const GovernedEngine& engine : GovernedEngines()) {
    size_t counts[2] = {0, 0};
    int slot = 0;
    for (bool interning : {false, true}) {
      SetStructuralInterningForTesting(interning);
      FaultInjector injector;
      injector.Disarm();
      ExecutionContext ctx(EvalLimits::Default());
      ctx.set_fault_injector(&injector);
      ASSERT_TRUE(engine.run_with(&ctx, datalog::EvalOptions()).ok())
          << engine.name;
      counts[slot++] = injector.charges_seen();
    }
    EXPECT_EQ(counts[0], counts[1])
        << engine.name << ": legacy charges=" << counts[0]
        << " interned charges=" << counts[1];
  }
}

// A fault tripped at charge i surfaces the identical status (code and
// message, which embeds the trip coordinates) in both representations.
TEST(InternVsLegacyGovernance, FaultTripStatusesIdenticalBothReprs) {
  ScopedInterning guard(true);
  for (const GovernedEngine& engine : GovernedEngines()) {
    // Learn the charge count with interning on; the previous test
    // proves it is the same number in legacy mode.
    SetStructuralInterningForTesting(true);
    FaultInjector probe;
    probe.Disarm();
    ExecutionContext probe_ctx(EvalLimits::Default());
    probe_ctx.set_fault_injector(&probe);
    ASSERT_TRUE(engine.run_with(&probe_ctx, datalog::EvalOptions()).ok())
        << engine.name;
    const size_t n = probe.charges_seen();
    ASSERT_GT(n, 0u) << engine.name;

    for (size_t k : {size_t{1}, (n + 1) / 2, n}) {
      Status statuses[2];
      int slot = 0;
      for (bool interning : {false, true}) {
        SetStructuralInterningForTesting(interning);
        FaultInjector injector;
        injector.TripAt(k, Status::Internal("injected fault"));
        ExecutionContext ctx(EvalLimits::Default());
        ctx.set_fault_injector(&injector);
        statuses[slot++] = engine.run_with(&ctx, datalog::EvalOptions());
      }
      EXPECT_EQ(statuses[0].code(), statuses[1].code())
          << engine.name << " trip at " << k << "/" << n;
      EXPECT_EQ(statuses[0].ToString(), statuses[1].ToString())
          << engine.name << " trip at " << k << "/" << n;
    }
  }
}

// On-interrupt snapshots serialize to the exact same bytes in both
// representations (the format stores structure, never pointers), and a
// snapshot captured under one representation resumes under the other —
// crash under legacy, resume interned, and vice versa.
TEST(InternVsLegacySnapshot, SnapshotBytesIdenticalAndCrossResumable) {
  ScopedInterning guard(true);
  for (const CpEngine& engine : CrashPointEngines()) {
    // Oracle rendering + charge count, interned mode.
    SetStructuralInterningForTesting(true);
    FaultInjector probe;
    probe.Disarm();
    ExecutionContext probe_ctx(EvalLimits::Default());
    probe_ctx.set_fault_injector(&probe);
    auto oracle = engine.run(&probe_ctx, datalog::EvalOptions());
    ASSERT_TRUE(oracle.ok()) << engine.name << ": " << oracle.status();
    const size_t n = probe.charges_seen();
    ASSERT_GT(n, 1u) << engine.name;
    const size_t k = (n + 1) / 2;

    std::vector<uint8_t> captured_bytes[2];
    int slot = 0;
    for (bool interning : {false, true}) {
      SCOPED_TRACE(engine.name + (interning ? " interned" : " legacy") +
                   " crash at charge " + std::to_string(k) + "/" +
                   std::to_string(n));
      SetStructuralInterningForTesting(interning);
      FaultInjector injector;
      injector.TripAt(k, Status::Internal("injected fault"));
      ExecutionContext ctx(EvalLimits::Default());
      ctx.set_fault_injector(&injector);
      snapshot::CheckpointSink sink;
      datalog::EvalOptions opts;
      opts.checkpoint.sink = &sink;
      opts.checkpoint.on_interrupt = true;
      opts.checkpoint.every_n_rounds = 0;
      auto crashed = engine.run(&ctx, opts);
      ASSERT_FALSE(crashed.ok());
      ASSERT_TRUE(sink.latest.has_value());
      auto bytes = snapshot::Serialize(*sink.latest);
      ASSERT_TRUE(bytes.ok()) << bytes.status();
      captured_bytes[slot++] = *bytes;

      // Cross-representation resume: decode and finish the run under
      // the OPPOSITE representation; the final model must match the
      // oracle rendering byte for byte.
      SetStructuralInterningForTesting(!interning);
      auto loaded = snapshot::Deserialize(*bytes);
      ASSERT_TRUE(loaded.ok()) << loaded.status();
      auto resumed = engine.resume(*loaded, datalog::EvalOptions());
      ASSERT_TRUE(resumed.ok()) << resumed.status();
      EXPECT_EQ(*resumed, *oracle);
    }
    EXPECT_EQ(captured_bytes[0], captured_bytes[1])
        << engine.name << ": snapshot bytes differ between representations";
  }
}

// ----------------------------------------------------------------------
// Reference-evaluator differential.  tests/reference_eval.h computes
// every semantics from its definition — S(J), the inflationary stages,
// the alternating fixpoint, ground instances and the Gelfond–Lifschitz
// check — by nested loops over sorted fact sets, with no planner, VM,
// index or word table; every engine must agree with it exactly:
//  * EvalMinimalModel (naive and seminaive), EvalInflationary and
//    EvalWellFounded (certain and possible) equal the reference;
//  * wherever Stratify succeeds, EvalStratified equals the reference
//    well-founded model, which is 2-valued;
//  * GroundProgramFor equals the reference grounding as sorted lines;
//  * every stable model passes the reference S(M) == M check, and when
//    at most kMaxUndefined atoms are undefined and the search was not
//    capped, the engine finds exactly the reference's stable models.

constexpr size_t kMaxUndefined = 12;

void ExpectSameFacts(const datalog::Interpretation& engine,
                     const reference::Model& ref, const std::string& what) {
  const reference::Model got = reference::FromInterpretation(engine);
  EXPECT_TRUE(got == ref) << what << "\nengine only:\n"
                          << reference::Difference(ref, got)
                          << "reference only:\n"
                          << reference::Difference(got, ref);
}

void ExpectMatchesReference(const Result<datalog::Interpretation>& engine,
                            const Result<reference::Model>& ref,
                            const std::string& what) {
  ASSERT_TRUE(ref.ok()) << what << "\nreference: " << ref.status();
  ASSERT_TRUE(engine.ok()) << what << "\nengine: " << engine.status();
  ExpectSameFacts(*engine, *ref, what);
}

void CheckAgainstReference(const Generated& g,
                           const datalog::EvalOptions& opts) {
  const std::string what = g.program.ToString();
  const datalog::FunctionRegistry& fns = opts.functions;
  const reference::Model edb = reference::FromInterpretation(g.edb);

  if (!g.program.UsesNegation()) {
    const auto least = reference::MinimalModel(g.program, edb, fns);
    for (bool seminaive : {true, false}) {
      datalog::EvalOptions o = opts;
      o.seminaive = seminaive;
      ExpectMatchesReference(datalog::EvalMinimalModel(g.program, g.edb, o),
                             least,
                             what + (seminaive ? "(seminaive)" : "(naive)"));
    }
  }
  ExpectMatchesReference(datalog::EvalInflationary(g.program, g.edb, opts),
                         reference::Inflationary(g.program, edb, fns),
                         what + "(inflationary)");

  const auto wfs = reference::WellFounded(g.program, edb, fns);
  ASSERT_TRUE(wfs.ok()) << what << wfs.status();
  const auto engine_wfs = datalog::EvalWellFounded(g.program, g.edb, opts);
  ASSERT_TRUE(engine_wfs.ok()) << what << engine_wfs.status();
  ExpectSameFacts(engine_wfs->certain, wfs->certain,
                  what + "(well-founded certain)");
  ExpectSameFacts(engine_wfs->possible, wfs->possible,
                  what + "(well-founded possible)");

  if (datalog::Stratify(g.program).ok()) {
    EXPECT_TRUE(wfs->certain == wfs->possible) << what;
    ExpectMatchesReference(datalog::EvalStratified(g.program, g.edb, opts),
                           wfs->certain, what + "(stratified)");
  }

  const auto ground = datalog::GroundProgramFor(g.program, g.edb, opts);
  ASSERT_TRUE(ground.ok()) << what << ground.status();
  std::vector<std::string> lines;
  for (const auto& f : ground->facts) lines.push_back(f.ToString() + ".");
  for (const auto& r : ground->rules) lines.push_back(r.ToString());
  std::sort(lines.begin(), lines.end());
  const auto ref_lines = reference::GroundLines(g.program, edb, *wfs, fns);
  ASSERT_TRUE(ref_lines.ok()) << what << ref_lines.status();
  EXPECT_EQ(lines, *ref_lines) << what << "(grounding)";

  const datalog::StableOptions stable_opts;
  const auto stable =
      datalog::EvalStableModels(g.program, g.edb, opts, stable_opts);
  ASSERT_TRUE(stable.ok()) << what << stable.status();
  std::set<reference::Model> found;
  for (const datalog::Interpretation& m : *stable) {
    reference::Model model = reference::FromInterpretation(m);
    const auto is_stable = reference::IsStable(g.program, edb, model, fns);
    ASSERT_TRUE(is_stable.ok()) << what << is_stable.status();
    EXPECT_TRUE(*is_stable) << what << "(not stable)\n"
                            << reference::Render(model);
    found.insert(std::move(model));
  }
  EXPECT_EQ(found.size(), stable->size()) << what << "(duplicate models)";
  if (reference::UndefinedCount(*wfs) <= kMaxUndefined &&
      stable->size() < stable_opts.max_models) {
    const auto all =
        reference::StableModels(g.program, edb, *wfs, fns, kMaxUndefined);
    ASSERT_TRUE(all.ok()) << what << all.status();
    EXPECT_TRUE(found == *all)
        << what << "(stable models) engine " << found.size()
        << ", reference " << all->size();
  }
}

class ReferenceEvaluatorDifferential
    : public ::testing::TestWithParam<uint64_t> {};

// Each seed draws one program per seed formula of the executor
// differentials this suite replaced.
TEST_P(ReferenceEvaluatorDifferential, PositivePrograms) {
  GenOptions gen;
  gen.allow_negation = false;
  for (uint64_t seed : {GetParam() * 48271 + 19, GetParam() * 16807 + 37}) {
    SCOPED_TRACE(seed);
    CheckAgainstReference(GenerateProgram(seed, gen), {});
  }
}

TEST_P(ReferenceEvaluatorDifferential, GeneralPrograms) {
  for (uint64_t seed : {GetParam() * 69621 + 59, GetParam() * 22695477 + 41}) {
    SCOPED_TRACE(seed);
    CheckAgainstReference(GenerateProgram(seed, GenOptions{}), {});
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReferenceEvaluatorDifferential,
                         ::testing::Range<uint64_t>(1, 201));

// The seed sweeps of the two executor differentials the reference
// evaluator replaced keep their test ids.  They run the same reference
// check, each on its own seed formula, with the join index off: every
// keyed step then opens a row cursor, so the scan path and the VM's row
// cursors are checked against the reference on every seed.

class ColumnarVsRowDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ColumnarVsRowDifferential, PositiveSemanticsAgreeAcrossStorage) {
  GenOptions gen;
  gen.allow_negation = false;
  CheckAgainstReference(GenerateProgram(GetParam() * 16807 + 37, gen),
                        IndexOpts(false));
}

TEST_P(ColumnarVsRowDifferential, GeneralSemanticsAgreeAcrossStorage) {
  CheckAgainstReference(
      GenerateProgram(GetParam() * 22695477 + 41, GenOptions{}),
      IndexOpts(false));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColumnarVsRowDifferential,
                         ::testing::Range<uint64_t>(1, 201));

class BytecodeVsInterpreterDifferential
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BytecodeVsInterpreterDifferential, PositiveSemanticsAgree) {
  GenOptions gen;
  gen.allow_negation = false;
  CheckAgainstReference(GenerateProgram(GetParam() * 48271 + 19, gen),
                        IndexOpts(false));
}

TEST_P(BytecodeVsInterpreterDifferential, GeneralSemanticsAgree) {
  CheckAgainstReference(
      GenerateProgram(GetParam() * 69621 + 59, GenOptions{}), IndexOpts(false));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BytecodeVsInterpreterDifferential,
                         ::testing::Range<uint64_t>(1, 201));

}  // namespace
}  // namespace awr
