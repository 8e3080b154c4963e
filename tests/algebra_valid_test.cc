// Tests for the 3-valued valid evaluation of algebra= equation systems
// (paper §3.2, §6): the WIN–MOVE equation, S = {a} − S, the even-number
// set, and the Proposition 3.4 monotone/IFP coincidence.
#include <gtest/gtest.h>

#include "awr/algebra/eval.h"
#include "awr/algebra/positivity.h"
#include "awr/algebra/valid_eval.h"
#include "awr/datalog/parser.h"
#include "awr/translate/datalog_to_alg.h"

namespace awr::algebra {
namespace {

using E = AlgebraExpr;

Value IV(int64_t i) { return Value::Int(i); }
Value AV(std::string_view a) { return Value::Atom(a); }

// WIN = π₁(MOVE − (π₁MOVE × WIN))  — paper Example 3.
AlgebraProgram WinMoveProgram() {
  E pi1_move = E::Map(fn::Proj(0), E::Relation("MOVE"));
  E body = E::Map(fn::Proj(0),
                  E::Diff(E::Relation("MOVE"),
                          E::Product(pi1_move, E::Relation("WIN"))));
  AlgebraProgram prog;
  prog.DefineConstant("WIN", body);
  return prog;
}

SetDb MoveDb(const std::vector<std::pair<std::string, std::string>>& moves) {
  SetDb db;
  std::vector<std::pair<Value, Value>> pairs;
  for (const auto& [a, b] : moves) pairs.emplace_back(AV(a), AV(b));
  db.DefinePairs("MOVE", pairs);
  return db;
}

TEST(ValidEvalTest, PositiveConstantIsTwoValued) {
  // S = R ∪ S: valid model has S = R exactly.
  AlgebraProgram prog;
  prog.DefineConstant("S", E::Union(E::Relation("R"), E::Relation("S")));
  SetDb db;
  db.Define("R", ValueSet{IV(1), IV(2)});
  auto model = EvalAlgebraValid(prog, db);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_TRUE(model->IsTwoValued());
  EXPECT_EQ(model->Get("S").lower, (ValueSet{IV(1), IV(2)}));
}

TEST(ValidEvalTest, SelfSubtractionIsUndefined) {
  // §3.2: S = {a} − S has no initial valid model; membership of a in S
  // is undefined.
  AlgebraProgram prog;
  prog.DefineConstant("S", E::Diff(E::Singleton(AV("a")), E::Relation("S")));
  auto model = EvalAlgebraValid(prog, SetDb{});
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_FALSE(model->IsTwoValued());
  EXPECT_EQ(model->Member("S", AV("a")), Truth::kUndefined);
}

TEST(ValidEvalTest, Prop34SeparationFromIfp) {
  // For the same non-monotone body {a} − x:
  //  * the declared fixed point S = {a} − S is undefined on a, while
  //  * IFP_{{a}−x} = {a}  (membership true).
  AlgebraProgram prog;
  prog.DefineConstant("S", E::Diff(E::Singleton(AV("a")), E::Relation("S")));
  auto model = EvalAlgebraValid(prog, SetDb{});
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->Member("S", AV("a")), Truth::kUndefined);

  auto ifp = EvalAlgebra(E::Ifp(E::Diff(E::Singleton(AV("a")), E::IterVar(0))),
                         SetDb{});
  ASSERT_TRUE(ifp.ok());
  EXPECT_TRUE(ifp->Contains(AV("a")));
}

TEST(ValidEvalTest, EvenNumbersBounded) {
  // Example 3's S = {0} ∪ MAP₊₂(S), bounded to ≤ 20 so the fixpoint is
  // finite.  MEM is total: true on evens, false on odds (the paper's
  // "negation is used to implement the standard default mechanism").
  AlgebraProgram prog;
  prog.DefineConstant(
      "S", E::Select(FnExpr::Le(FnExpr::Arg(), FnExpr::Cst(IV(20))),
                     E::Union(E::Singleton(IV(0)),
                              E::Map(fn::AddConst(2), E::Relation("S")))));
  auto model = EvalAlgebraValid(prog, SetDb{});
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_TRUE(model->IsTwoValued());
  EXPECT_EQ(model->Member("S", IV(8)), Truth::kTrue);
  EXPECT_EQ(model->Member("S", IV(20)), Truth::kTrue);
  EXPECT_EQ(model->Member("S", IV(7)), Truth::kFalse);
  EXPECT_EQ(model->Member("S", IV(22)), Truth::kFalse);
  EXPECT_EQ(model->Get("S").lower.size(), 11u);
}

TEST(ValidEvalTest, UnboundedEvenNumbersHitLimits) {
  AlgebraProgram prog;
  prog.DefineConstant("S", E::Union(E::Singleton(IV(0)),
                                    E::Map(fn::AddConst(2), E::Relation("S"))));
  AlgebraEvalOptions opts;
  opts.limits = EvalLimits::Tiny();
  auto model = EvalAlgebraValid(prog, SetDb{}, opts);
  EXPECT_TRUE(model.status().IsResourceExhausted()) << model.status();
}

TEST(ValidEvalTest, WinMoveAcyclicIsTwoValued) {
  // a -> b -> c: b wins, a and c lose.  "If the MOVE relation is
  // acyclic then the valid interpretation is 2-valued" (Example 3).
  auto model = EvalAlgebraValid(WinMoveProgram(), MoveDb({{"a", "b"}, {"b", "c"}}));
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_TRUE(model->IsTwoValued());
  EXPECT_EQ(model->Member("WIN", AV("b")), Truth::kTrue);
  EXPECT_EQ(model->Member("WIN", AV("a")), Truth::kFalse);
  EXPECT_EQ(model->Member("WIN", AV("c")), Truth::kFalse);
}

TEST(ValidEvalTest, WinMoveSelfLoopUndefined) {
  // §3.2: with tuple [a, a] in MOVE, membership of a in WIN is undefined.
  auto model = EvalAlgebraValid(WinMoveProgram(), MoveDb({{"a", "a"}}));
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_FALSE(model->IsTwoValued());
  EXPECT_EQ(model->Member("WIN", AV("a")), Truth::kUndefined);
}

TEST(ValidEvalTest, WinMoveCycleWithEscape) {
  auto model = EvalAlgebraValid(
      WinMoveProgram(), MoveDb({{"a", "b"}, {"b", "a"}, {"b", "c"}}));
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_TRUE(model->IsTwoValued());
  EXPECT_EQ(model->Member("WIN", AV("b")), Truth::kTrue);
  EXPECT_EQ(model->Member("WIN", AV("a")), Truth::kFalse);
}

TEST(ValidEvalTest, MutualRecursionAcrossConstants) {
  // A = R − B, B = R − A over R = {1}: classic even-cycle — every
  // element of R is undefined in both.
  AlgebraProgram prog;
  prog.DefineConstant("A", E::Diff(E::Relation("R"), E::Relation("B")));
  prog.DefineConstant("B", E::Diff(E::Relation("R"), E::Relation("A")));
  SetDb db;
  db.Define("R", ValueSet{IV(1)});
  auto model = EvalAlgebraValid(prog, db);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_EQ(model->Member("A", IV(1)), Truth::kUndefined);
  EXPECT_EQ(model->Member("B", IV(1)), Truth::kUndefined);
}

TEST(ValidEvalTest, Prop32ReductionBehaviour) {
  // Proposition 3.2's construction: S' = σ_{EQ(x,a)}(S) − S'.
  // The program has an initial valid model iff a ∉ S.
  auto make = [](ValueSet s_content) {
    AlgebraProgram prog;
    prog.DefineConstant("Sp",
                        E::Diff(E::Select(fn::EqConst(AV("a")), E::Relation("S")),
                                E::Relation("Sp")));
    SetDb db;
    db.Define("S", std::move(s_content));
    return EvalAlgebraValid(prog, db);
  };
  // a ∈ S: not well-defined (a undefined in S').
  auto with_a = make(ValueSet{AV("a"), AV("b")});
  ASSERT_TRUE(with_a.ok());
  EXPECT_FALSE(with_a->IsTwoValued());
  EXPECT_EQ(with_a->Member("Sp", AV("a")), Truth::kUndefined);
  // a ∉ S: well-defined with S' empty.
  auto without_a = make(ValueSet{AV("b")});
  ASSERT_TRUE(without_a.ok());
  EXPECT_TRUE(without_a->IsTwoValued());
  EXPECT_EQ(without_a->Get("Sp").lower.size(), 0u);
}

TEST(ValidEvalTest, QueryOverValidModel) {
  AlgebraProgram prog;
  prog.DefineConstant("S", E::Union(E::Relation("R"), E::Relation("S")));
  SetDb db;
  db.Define("R", ValueSet{IV(1), IV(2)});
  db.Define("T", ValueSet{IV(2), IV(3)});
  auto q = EvalQueryValid(E::Diff(E::Relation("S"), E::Relation("T")), prog, db);
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_TRUE(q->IsTwoValued());
  EXPECT_EQ(q->lower, (ValueSet{IV(1)}));
}

TEST(ValidEvalTest, QueryPropagatesUndefinedness) {
  AlgebraProgram prog;
  prog.DefineConstant("S", E::Diff(E::Singleton(AV("a")), E::Relation("S")));
  // Query: {a, b} − S: membership of a is undefined, b is certain.
  auto q = EvalQueryValid(
      E::Diff(E::LiteralSet(ValueSet{AV("a"), AV("b")}), E::Relation("S")),
      prog, SetDb{});
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->Member(AV("b")), Truth::kTrue);
  EXPECT_EQ(q->Member(AV("a")), Truth::kUndefined);
}

TEST(ValidEvalTest, DbExtentUnionsIntoSameNamedConstant) {
  // A constant with both a database extent and an equation behaves like
  // a deductive predicate with both facts and rules: S = {1} ∪ S.
  AlgebraProgram prog;
  prog.DefineConstant("S", E::Relation("S"));
  SetDb db;
  db.Define("S", ValueSet{IV(1)});
  auto model = EvalAlgebraValid(prog, db);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_TRUE(model->IsTwoValued());
  EXPECT_EQ(model->Get("S").lower, (ValueSet{IV(1)}));
}

// Work counts, read from the context the evaluation charged.
struct Work {
  size_t rounds;
  size_t charges;
};

Work CountWork(const AlgebraProgram& prog, const SetDb& db) {
  ExecutionContext ctx(EvalLimits::Default());
  AlgebraEvalOptions opts;
  opts.context = &ctx;
  auto model = EvalAlgebraValid(prog, db, opts);
  EXPECT_TRUE(model.ok()) << model.status();
  return Work{ctx.rounds(), ctx.total_charges()};
}

TEST(ValidEvalTest, WinMoveWorkIsThatOfTheMaterialisingEvaluator) {
  // WIN–MOVE is not positive, so it alternates; the joins charge each
  // `×` exactly as building it did.  These are the counts the
  // evaluator had when it built every product.
  const Work work = CountWork(
      WinMoveProgram(),
      MoveDb({{"a", "b"}, {"b", "c"}, {"c", "d"}, {"e", "f"}, {"f", "e"},
              {"f", "a"}}));
  EXPECT_EQ(work.rounds, 15u);
  EXPECT_EQ(work.charges, 33u);
}

TEST(ValidEvalTest, MaxBytesStopsWinMove) {
  // Each round of the alternation's least fixpoints reports the bytes
  // of the bound it iterates and of the frozen one, inside its round
  // charge: the charge counts stay those above, and a byte budget one
  // short of the high-water mark stops the evaluation.
  const SetDb db =
      MoveDb({{"a", "b"}, {"b", "c"}, {"c", "d"}, {"e", "f"}, {"f", "e"},
              {"f", "a"}});
  ExecutionContext full(EvalLimits::Default());
  AlgebraEvalOptions opts;
  opts.context = &full;
  ASSERT_TRUE(EvalAlgebraValid(WinMoveProgram(), db, opts).ok());
  const size_t high_water = full.high_water_bytes();
  ASSERT_GT(high_water, 0u);
  EXPECT_EQ(full.total_charges(), 33u);

  EvalLimits limits = EvalLimits::Default();
  limits.max_bytes = high_water;
  ExecutionContext at_limit(limits);
  opts.context = &at_limit;
  EXPECT_TRUE(EvalAlgebraValid(WinMoveProgram(), db, opts).ok());

  limits.max_bytes = high_water - 1;
  ExecutionContext short_budget(limits);
  opts.context = &short_budget;
  auto model = EvalAlgebraValid(WinMoveProgram(), db, opts);
  ASSERT_TRUE(model.status().IsResourceExhausted()) << model.status();
  EXPECT_NE(model.status().message().find("max_bytes=" +
                                          std::to_string(high_water - 1)),
            std::string::npos)
      << model.status();
}

TEST(ValidEvalTest, PositiveTcRunsOneLeastFixpoint) {
  // TC = E ∪ MAP_{<x.0.0, x.1.1>}(σ_{x.0.1 = x.1.0}(E × TC)) over the
  // path 0 → 1 → 2 → 3 → 4 is positive, so it is one least fixpoint.
  // Round k adds the paths of length k (4, 3, 2, 1 of them) and round 5
  // adds none: 5 rounds.  Each round charges its round and one `×`, and
  // the four rounds that add charge their facts: 5 + 5 + 4 = 14.  The
  // alternation computed this fixpoint four times, plus two alternation
  // rounds: 22 rounds and 2 + 4 · 14 = 58 charges.
  AlgebraProgram prog;
  prog.DefineConstant(
      "TC",
      E::Union(E::Relation("E"),
               E::Map(FnExpr::MkTuple({FnExpr::Get(fn::Proj(0), 0),
                                       FnExpr::Get(fn::Proj(1), 1)}),
                      E::Select(FnExpr::Eq(FnExpr::Get(fn::Proj(0), 1),
                                           FnExpr::Get(fn::Proj(1), 0)),
                                E::Product(E::Relation("E"),
                                           E::Relation("TC"))))));
  SetDb db;
  db.DefinePairs("E", {{IV(0), IV(1)}, {IV(1), IV(2)}, {IV(2), IV(3)},
                       {IV(3), IV(4)}});
  auto model = EvalAlgebraValid(prog, db);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_TRUE(model->IsTwoValued());
  EXPECT_EQ(model->Get("TC").lower.size(), 10u);
  const Work work = CountWork(prog, db);
  EXPECT_EQ(work.rounds, 5u);
  EXPECT_EQ(work.charges, 14u);
}

TEST(ValidEvalTest, JoinedProductIsStillChargedInFull) {
  // P = σ_{x.0.1 = x.1.0}(E × E) over a 100-edge path: the join yields
  // 99 pairs, but the `×` is charged with the 10,000 it denotes.
  SetDb db;
  std::vector<std::pair<Value, Value>> path;
  for (int64_t i = 0; i < 100; ++i) path.emplace_back(IV(i), IV(i + 1));
  db.DefinePairs("E", path);
  AlgebraProgram prog;
  prog.DefineConstant(
      "P", E::Select(FnExpr::Eq(FnExpr::Get(fn::Proj(0), 1),
                                FnExpr::Get(fn::Proj(1), 0)),
                     E::Product(E::Relation("E"), E::Relation("E"))));
  auto model = EvalAlgebraValid(prog, db);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_EQ(model->Get("P").lower.size(), 99u);

  AlgebraEvalOptions opts;
  opts.limits = EvalLimits::Tiny();
  auto tiny = EvalAlgebraValid(prog, db, opts);
  EXPECT_TRUE(tiny.status().IsResourceExhausted()) << tiny.status();
  EXPECT_EQ(tiny.status().message(), "valid-eval ×: exceeded max_facts=4096");
}

TEST(ValidEvalTest, QueryAndModelShareOneBudget) {
  // S = σ_{x≤20}({0} ∪ MAP₊₂(S)) takes `model_rounds` rounds; the query
  // IFP(S) takes two more.  One round short of that, the query trips.
  AlgebraProgram prog;
  prog.DefineConstant(
      "S", E::Select(FnExpr::Le(FnExpr::Arg(), FnExpr::Cst(IV(20))),
                     E::Union(E::Singleton(IV(0)),
                              E::Map(fn::AddConst(2), E::Relation("S")))));
  const size_t model_rounds = CountWork(prog, SetDb{}).rounds;
  const E query = E::Ifp(E::Relation("S"));

  AlgebraEvalOptions opts;
  opts.limits.max_rounds = model_rounds + 1;
  auto short_budget = EvalQueryValid(query, prog, SetDb{}, opts);
  EXPECT_TRUE(short_budget.status().IsResourceExhausted())
      << short_budget.status();
  EXPECT_EQ(short_budget.status().message(),
            "valid-eval IFP: exceeded max_rounds=" +
                std::to_string(model_rounds + 1));

  opts.limits.max_rounds = model_rounds + 2;
  auto enough = EvalQueryValid(query, prog, SetDb{}, opts);
  ASSERT_TRUE(enough.ok()) << enough.status();
  EXPECT_EQ(enough->lower.size(), 11u);
}

// Registers `name` as the identity function, counting its calls.
void RegisterCounter(AlgebraEvalOptions* opts, const std::string& name,
                     size_t* calls) {
  opts->functions.Register(
      name, [calls](const std::vector<Value>& args) -> Result<Value> {
        ++*calls;
        return args[0];
      });
}

TEST(ValidEvalMemoTest, InvariantSubtreeRunsOncePerCall) {
  // WIN = π₁(MOVE − (MAP_{count(x.0)}(MOVE) × WIN)): the MAP names no
  // constant, so each EvalAlgebraValid call evaluates it once, however
  // many rounds the alternation takes.  A second call starts afresh.
  size_t calls = 0;
  AlgebraEvalOptions opts;
  RegisterCounter(&opts, "count", &calls);
  const E pi1_move = E::Map(FnExpr::Apply("count", {fn::Proj(0)}),
                            E::Relation("MOVE"));
  AlgebraProgram prog;
  prog.DefineConstant(
      "WIN", E::Map(fn::Proj(0),
                    E::Diff(E::Relation("MOVE"),
                            E::Product(pi1_move, E::Relation("WIN")))));
  const SetDb db = MoveDb(
      {{"a", "b"}, {"b", "c"}, {"c", "d"}, {"e", "f"}, {"f", "e"}, {"f", "a"}});
  ExecutionContext ctx(EvalLimits::Default());
  opts.context = &ctx;
  auto model = EvalAlgebraValid(prog, db, opts);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_EQ(calls, 6u);
  // Charges and the model are those of the plain program.
  EXPECT_EQ(ctx.rounds(), 15u);
  EXPECT_EQ(ctx.total_charges(), 33u);
  auto plain = EvalAlgebraValid(WinMoveProgram(), db);
  ASSERT_TRUE(plain.ok()) << plain.status();
  EXPECT_EQ(model->ToString(), plain->ToString());

  opts.context = nullptr;
  ASSERT_TRUE(EvalAlgebraValid(prog, db, opts).ok());
  EXPECT_EQ(calls, 12u);
}

TEST(ValidEvalMemoTest, SubtreeReadingAConstantRunsEveryRound) {
  // S = MAP_{inv}(R) ∪ MAP_{var}(σ_{x<5}(MAP₊₁(S))) over R = {0} is
  // positive: one least fixpoint.  Round k reads S = {0..k-2} (∅ in
  // round 1), so `var` runs 0, 1, 2, 3, 4 times in rounds 1–5 and 4
  // times in round 6, which adds nothing: 14.  `inv` runs once per
  // element of R.
  size_t inv = 0;
  size_t var = 0;
  AlgebraEvalOptions opts;
  RegisterCounter(&opts, "inv", &inv);
  RegisterCounter(&opts, "var", &var);
  const FnExpr below5 = FnExpr::Lt(FnExpr::Arg(), FnExpr::Cst(IV(5)));
  AlgebraProgram prog;
  prog.DefineConstant(
      "S",
      E::Union(E::Map(FnExpr::Apply("inv", {FnExpr::Arg()}), E::Relation("R")),
               E::Map(FnExpr::Apply("var", {FnExpr::Arg()}),
                      E::Select(below5, E::Map(fn::AddConst(1),
                                               E::Relation("S"))))));
  SetDb db;
  db.Define("R", ValueSet{IV(0)});
  auto model = EvalAlgebraValid(prog, db, opts);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_EQ(model->Get("S").lower, (ValueSet{IV(0), IV(1), IV(2), IV(3), IV(4)}));
  EXPECT_EQ(inv, 1u);
  EXPECT_EQ(var, 14u);
}

// The site each charge of `run` names, one letter per charge: every
// charge is tripped in turn and the status it returns is read.
std::string ChargeSites(const std::function<Status(ExecutionContext*)>& run) {
  FaultInjector injector;
  injector.Disarm();
  ExecutionContext whole(EvalLimits::Default());
  whole.set_fault_injector(&injector);
  EXPECT_TRUE(run(&whole).ok());
  const size_t n = injector.charges_seen();
  const std::vector<std::pair<std::string, char>> codes = {
      {"valid-eval(alternation): ", 'a'}, {"valid-eval(upper lfp): ", 'u'},
      {"valid-eval(lower lfp): ", 'l'},   {"valid-eval(lfp): ", 'f'},
      {"valid-eval ×: ", 'x'},            {"valid-eval IFP: ", 'i'}};
  std::string sites;
  for (size_t i = 1; i <= n; ++i) {
    injector.TripAt(i);
    ExecutionContext ctx(EvalLimits::Default());
    ctx.set_fault_injector(&injector);
    const Status st = run(&ctx);
    const std::string suffix =
        "injected fault (round " + std::to_string(ctx.rounds()) +
        ", charge " + std::to_string(i) + ")";
    char code = '?';
    for (const auto& [site, letter] : codes) {
      if (st.message() == site + suffix) code = letter;
    }
    EXPECT_NE(code, '?') << "charge " << i << ": " << st;
    sites += code;
  }
  return sites;
}

// 60 positions: a path 0 → 1 → … → 47, six drawn two-cycles on 48–59,
// a move from every sixth path position into a cycle, and a move from
// each cycle back onto the path.
SetDb SixtyPositionGame() {
  std::vector<std::pair<Value, Value>> moves;
  for (int64_t i = 0; i < 47; ++i) moves.emplace_back(IV(i), IV(i + 1));
  for (int64_t c = 0; c < 6; ++c) {
    const int64_t a = 48 + 2 * c;
    moves.emplace_back(IV(a), IV(a + 1));
    moves.emplace_back(IV(a + 1), IV(a));
    moves.emplace_back(IV(6 * c + 5), IV(a));
    moves.emplace_back(IV(a + 1), IV(40 + c));
  }
  SetDb db;
  db.DefinePairs("MOVE", moves);
  return db;
}

// The site sequences below were read by running ChargeSites on the two
// programs with the evaluator that recomputed every subtree on every
// round (before invariant subtrees were memoised); a memo hit replays
// its charges, so the sequences must not move.
TEST(ValidEvalMemoTest, ChargeSequenceIsThatOfTheRecomputingEvaluator) {
  const SetDb game = SixtyPositionGame();
  auto win_move = [&](ExecutionContext* ctx) {
    AlgebraEvalOptions opts;
    opts.context = ctx;
    return EvalAlgebraValid(WinMoveProgram(), game, opts).status();
  };
  auto model = EvalAlgebraValid(WinMoveProgram(), game);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_FALSE(model->IsTwoValued());
  // Twelve alternation steps (a), each two rounds of the upper lfp (u)
  // and two of the lower (l); every round charges its one `×` (x), and
  // the first round of each lfp charges the facts it added.
  EXPECT_EQ(ChargeSites(win_move),
            "auxuuxlxllxauxuuxlxllxauxuuxlxllxauxuuxlxllxauxuuxlxllxauxuux"
            "lxllxauxuuxlxllxauxuuxlxllxauxuuxlxllxauxuuxlxllxauxuuxlxllx"
            "auxuuxlxllx");

  auto program = datalog::ParseProgram(
      "tc(X, Y) :- edge(X, Y).\ntc(X, Z) :- edge(X, Y), tc(Y, Z).\n");
  ASSERT_TRUE(program.ok()) << program.status();
  auto system = translate::DatalogToAlgebra(*program);
  ASSERT_TRUE(system.ok()) << system.status();
  datalog::Database edb;
  for (int64_t i = 0; i < 12; ++i) {
    edb.AddFact("edge", {IV(i), IV((i + 1) % 12)});
    if (i % 3 == 0) edb.AddFact("edge", {IV(i), IV((i + 5) % 12)});
  }
  const SetDb tc_db = translate::EdbToSetDb(edb);
  auto tc = [&](ExecutionContext* ctx) {
    AlgebraEvalOptions opts;
    opts.context = ctx;
    return EvalAlgebraValid(*system, tc_db, opts).status();
  };
  // The positive system's one least fixpoint (f): nine rounds of three
  // `×` each, two of them the `{<>} × edge` inside invariant subtrees,
  // and the facts of the eight rounds that add some.
  EXPECT_EQ(ChargeSites(tc), "fxxxffxxxffxxxffxxxffxxxffxxxffxxxffxxxffxxx");
}

// Prop 3.4: for monotone (syntactically positive) bodies, the declared
// fixpoint S = exp(S) and IFP_exp agree — swept over several bodies.
struct MonotoneCase {
  std::string label;
  E body_as_constant;  // references "S"
  E body_as_ifp;       // references IterVar(0)
};

class Prop34Test : public ::testing::TestWithParam<int> {};

TEST_P(Prop34Test, DeclaredFixpointMatchesIfp) {
  int variant = GetParam();
  // Bodies over a universe bounded by N; all positive in S.
  const int64_t kBound = 24;
  auto bound = [&](E e) {
    return E::Select(FnExpr::Le(FnExpr::Arg(), FnExpr::Cst(IV(kBound))),
                     std::move(e));
  };
  E seed = E::Singleton(IV(variant));  // different seeds per variant
  E as_const = bound(
      E::Union(seed, E::Map(fn::AddConst(variant + 1), E::Relation("S"))));
  E as_ifp = bound(
      E::Union(seed, E::Map(fn::AddConst(variant + 1), E::IterVar(0))));

  AlgebraProgram prog;
  prog.DefineConstant("S", as_const);
  auto model = EvalAlgebraValid(prog, SetDb{});
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_TRUE(model->IsTwoValued());

  auto ifp = EvalAlgebra(E::Ifp(as_ifp), SetDb{});
  ASSERT_TRUE(ifp.ok()) << ifp.status();
  EXPECT_EQ(model->Get("S").lower, *ifp);
}

INSTANTIATE_TEST_SUITE_P(MonotoneBodies, Prop34Test,
                         ::testing::Values(0, 1, 2, 3, 5));

}  // namespace
}  // namespace awr::algebra
