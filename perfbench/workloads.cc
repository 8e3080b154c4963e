#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <optional>
#include <set>
#include <thread>
#include <utility>

#include "awr/algebra/valid_eval.h"
#include "awr/common/context.h"
#include "awr/datalog/leastmodel.h"
#include "awr/datalog/magic.h"
#include "awr/datalog/parser.h"
#include "awr/datalog/stratified.h"
#include "awr/datalog/vm/vm.h"
#include "awr/datalog/wellfounded.h"
#include "awr/service/client.h"
#include "awr/service/executor.h"
#include "awr/service/server.h"
#include "awr/storage/fs.h"
#include "awr/translate/datalog_to_alg.h"
#include "mem_fs.h"
#include "oracles.h"
#include "timing_fs.h"

namespace perfbench {

using awr::Status;
namespace datalog = awr::datalog;
namespace algebra = awr::algebra;
namespace service = awr::service;

namespace {

/// FNV-1a, for comparing op outputs without keeping them.
uint64_t HashText(std::string_view text) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (char c : text) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

constexpr char kPartSeparator = '\x1e';

std::string FactText(const char* pred, const std::vector<int64_t>& args) {
  std::string s = pred;
  s += '(';
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) s += ", ";
    s += std::to_string(args[i]);
  }
  return s + ").\n";
}

std::vector<std::string_view> SplitParts(std::string_view text) {
  std::vector<std::string_view> parts;
  size_t begin = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == kPartSeparator) {
      parts.push_back(text.substr(begin, i - begin));
      begin = i + 1;
    }
  }
  return parts;
}

const char kTcRightLinear[] =
    "tc(X, Y) :- edge(X, Y).\n"
    "tc(X, Z) :- edge(X, Y), tc(Y, Z).\n";
const char kTcLeftLinear[] =
    "tc(X, Y) :- edge(X, Y).\n"
    "tc(X, Y) :- tc(X, Z), edge(Z, Y).\n";
const char kReachIsland[] =
    "reach(X) :- source(X).\n"
    "reach(Y) :- reach(X), edge(X, Y).\n"
    "island(X) :- node(X), not reach(X).\n";
const char kReachUnreached[] =
    "reach(X) :- source(X).\n"
    "reach(Y) :- reach(X), edge(X, Y).\n"
    "unreached(X) :- node(X), not reach(X).\n";
const char kWinMove[] = "win(X) :- move(X, Y), not win(Y).\n";

/// 0..n-1 in an order drawn from `rng`.
std::vector<int64_t> Permutation(size_t n, Rng* rng) {
  std::vector<int64_t> p(n);
  for (size_t i = 0; i < n; ++i) p[i] = static_cast<int64_t>(i);
  for (size_t i = n; i > 1; --i) std::swap(p[i - 1], p[rng->Below(i)]);
  return p;
}

/// `draws` random edges over `n` nodes (duplicates kept in the text; the
/// distinct ones returned in `edges`), node i written as `label[i]` when
/// labels are given.
std::string RandomGraphText(int n, int draws, Rng* rng, std::set<Edge>* edges,
                            const std::vector<int64_t>* label = nullptr) {
  std::string text;
  for (int i = 0; i < draws; ++i) {
    int64_t a = static_cast<int64_t>(rng->Below(n));
    int64_t b = static_cast<int64_t>(rng->Below(n));
    if (label != nullptr) {
      a = (*label)[static_cast<size_t>(a)];
      b = (*label)[static_cast<size_t>(b)];
    }
    edges->emplace(a, b);
    text += FactText("edge", {a, b});
  }
  return text;
}

// ---------------------------------------------------------------------
// In-process workloads: each op turns program text into rendered models.

/// What one part of an op's rendered output must equal.
struct ExpectedPart {
  enum Kind { kModel, kThreeValued, kAlgebraValid, kSet } kind = kModel;
  Relations certain;
  Relations undefined;  // kThreeValued / kAlgebraValid only
};

bool PartMatches(std::string_view text, const ExpectedPart& want) {
  Relations certain, undefined;
  bool parsed = false;
  switch (want.kind) {
    case ExpectedPart::kModel:
      parsed = ParseModelText(text, &certain);
      break;
    case ExpectedPart::kThreeValued:
      parsed = ParseThreeValuedText(text, &certain, &undefined);
      break;
    case ExpectedPart::kAlgebraValid:
      parsed = ParseAlgebraValidText(text, &certain, &undefined);
      break;
    case ExpectedPart::kSet:
      parsed = ParseSetText(text, &certain[""]);
      break;
  }
  return parsed && certain == want.certain && undefined == want.undefined;
}

/// Shared plumbing of the in-process workloads: every op of a run renders
/// the same text (the inputs are fixed by the seed), so the first good
/// output is checked part by part against the oracle and every other op
/// must hash to it.
class LocalWorkload : public Workload {
 public:
  void Record(int, const Status& status) override {
    if (status.ok() && kept_text_.empty()) kept_text_ = output_;
    records_.push_back({status.ok(), HashText(output_)});
    output_.clear();
  }

  void ClearRecords() override {
    records_.clear();
    kept_text_.clear();
  }

  uint64_t CheckOutputs() override {
    const bool kept_ok = !kept_text_.empty() && KeptTextMatches();
    const uint64_t kept_hash = HashText(kept_text_);
    uint64_t failed = 0;
    for (const OpRecord& r : records_) {
      if (!r.ok || !kept_ok || r.hash != kept_hash) ++failed;
    }
    return failed;
  }

  void BeginTracedPhase() override { counts_.clear(); }
  Counts EndTracedPhase() override { return std::move(counts_); }

  void BreakOracleForTest() override {
    expected_.front().certain.begin()->second.push_back("<-1>");
  }

 protected:
  struct OpRecord {
    bool ok;
    uint64_t hash;
  };

  void Count(Tracer* tracer, const std::string& key, double v) {
    if (tracer != nullptr) counts_[key] += v;
  }
  /// Keys ending in "_max" hold a maximum, not a per-op sum.
  void CountMax(Tracer* tracer, const std::string& key, double v) {
    if (tracer != nullptr) counts_[key] = std::max(counts_[key], v);
  }

  template <typename T>
  awr::Result<T> Parse(Tracer* tracer, int root,
                       awr::Result<T> (*parse)(std::string_view),
                       std::string_view text) {
    ScopedSpan span(tracer, "datalog.parse", root);
    return parse(text);
  }

  /// Runs one datalog evaluation under its own ExecutionContext and, when
  /// traced, records its span, governance counts and VM counter deltas.
  template <typename Eval>
  auto EvalDatalog(Tracer* tracer, int root, size_t edb_facts, Eval eval) {
    awr::ExecutionContext ctx(awr::EvalLimits::Large());
    datalog::EvalOptions opts;
    opts.limits = awr::EvalLimits::Large();
    opts.context = &ctx;
    datalog::vm::VmExecStats before;
    if (tracer != nullptr) before = datalog::vm::GetVmExecStats();
    auto result = [&] {
      ScopedSpan span(tracer, "datalog.eval", root);
      return eval(opts);
    }();
    if (tracer != nullptr && result.ok()) {
      const datalog::vm::VmExecStats after = datalog::vm::GetVmExecStats();
      const double facts = static_cast<double>(FactsOf(*result));
      Count(tracer, "datalog.rounds", static_cast<double>(ctx.rounds()));
      Count(tracer, "datalog.charges", static_cast<double>(ctx.total_charges()));
      Count(tracer, "datalog.facts_out", facts);
      Count(tracer, "datalog.new_facts", facts - static_cast<double>(edb_facts));
      CountMax(tracer, "datalog.high_water_bytes_max",
               static_cast<double>(ctx.high_water_bytes()));
      Count(tracer, "vm.rules_fired",
            static_cast<double>(after.vm_rules_fired - before.vm_rules_fired));
      Count(tracer, "vm.ops_dispatched",
            static_cast<double>(after.ops_dispatched - before.ops_dispatched));
      Count(tracer, "vm.facts",
            static_cast<double>(after.vm_facts - before.vm_facts));
      Count(tracer, "vm.programs_lowered",
            static_cast<double>(after.programs_lowered -
                                before.programs_lowered));
      Count(tracer, "vm.cache_hits",
            static_cast<double>(after.cache_hits - before.cache_hits));
      Count(tracer, "vm.cache_misses",
            static_cast<double>(after.cache_misses - before.cache_misses));
    }
    return result;
  }

  /// Renders into the op's output, as one more part.
  template <typename T>
  void Render(Tracer* tracer, int root, const T& model) {
    std::string text = [&] {
      ScopedSpan span(tracer, "value.render", root);
      return model.ToString();
    }();
    Count(tracer, "value.render_bytes", static_cast<double>(text.size()));
    if (!output_.empty()) output_ += kPartSeparator;
    output_ += text;
  }

  uint64_t record_count() const { return records_.size(); }

  std::vector<ExpectedPart> expected_;
  std::string output_;

 private:
  static size_t FactsOf(const datalog::Interpretation& i) {
    return i.TotalFacts();
  }
  static size_t FactsOf(const datalog::ThreeValuedInterp& i) {
    return i.possible.TotalFacts();
  }

  bool KeptTextMatches() const {
    const std::vector<std::string_view> parts = SplitParts(kept_text_);
    if (parts.size() != expected_.size()) return false;
    for (size_t i = 0; i < parts.size(); ++i) {
      if (!PartMatches(parts[i], expected_[i])) return false;
    }
    return true;
  }

  std::vector<OpRecord> records_;
  std::string kept_text_;
  Counts counts_;
};

/// tc_dense: the two-rule TC program over a seeded random digraph — the
/// join layer (VM, value_set columns and indexes) and rendering do the
/// work.  The ROADMAP's headline input.
class TcDense : public LocalWorkload {
 public:
  explicit TcDense(bool smoke)
      : nodes_(smoke ? 30 : 250), draws_(smoke ? 60 : 2200) {}

  int warmup_ops() const override { return 2; }
  int traced_ops() const override { return 8; }

  Status SetUp(uint64_t seed, Tracer*) override {
    Rng rng(seed);
    std::set<Edge> edges;
    edb_text_ = RandomGraphText(nodes_, draws_, &rng, &edges);
    ExpectedPart model;
    model.certain["edge"] = EdgeTexts(edges);
    model.certain["tc"] = EdgeTexts(ClosureBfs(edges));
    expected_ = {std::move(model)};
    ClearRecords();
    return Status::OK();
  }

  Status RunOp(int, Tracer* tracer, int root) override {
    auto program = Parse(tracer, root, datalog::ParseProgram, kTcRightLinear);
    if (!program.ok()) return program.status();
    auto edb = Parse(tracer, root, datalog::ParseFacts, edb_text_);
    if (!edb.ok()) return edb.status();
    auto model = EvalDatalog(tracer, root, edb->TotalFacts(), [&](auto& o) {
      return datalog::EvalMinimalModel(*program, *edb, o);
    });
    if (!model.ok()) return model.status();
    Render(tracer, root, *model);
    // Dropping a 64K-fact model is part of the op; give it a span so the
    // layer spans still cover the op.
    ScopedSpan span(tracer, "value.free", root);
    auto dead_model = std::move(model);
    auto dead_edb = std::move(edb);
    return Status::OK();
  }

 private:
  int nodes_;
  int draws_;
  std::string edb_text_;
};

/// sparse_rounds: three evaluations over one long path, each round adding
/// about one fact, so fixed per-round and per-firing costs dominate — the
/// engine layer used the opposite way from tc_dense.
class SparseRounds : public LocalWorkload {
 public:
  explicit SparseRounds(bool smoke)
      : length_(smoke ? 40 : 4000), islands_(smoke ? 3 : 16) {}

  int warmup_ops() const override { return 3; }
  int traced_ops() const override { return 16; }

  Status SetUp(uint64_t seed, Tracer*) override {
    // Node 0 starts the path; the other node ids are permuted by the seed.
    Rng rng(seed);
    const std::vector<int64_t> order =
        Permutation(static_cast<size_t>(length_), &rng);
    std::vector<int64_t> path = {0};
    for (int64_t n : order) path.push_back(n + 1);
    std::set<Edge> edges;
    std::set<int64_t> reach(path.begin(), path.end()), islands, nodes = reach;
    edb_text_ = FactText("source", {0});
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      edges.emplace(path[i], path[i + 1]);
      edb_text_ += FactText("edge", {path[i], path[i + 1]});
    }
    for (int i = 0; i < islands_; ++i) {
      islands.insert(length_ + 1 + i);
      nodes.insert(length_ + 1 + i);
    }
    for (int64_t n : nodes) edb_text_ += FactText("node", {n});

    ExpectedPart stratified;
    stratified.certain["edge"] = EdgeTexts(edges);
    stratified.certain["node"] = UnaryTexts(nodes);
    stratified.certain["source"] = UnaryTexts({0});
    stratified.certain["reach"] = UnaryTexts(reach);
    stratified.certain["island"] = UnaryTexts(islands);
    // The program is stratified, so its well-founded model is 2-valued
    // and equal to the stratified one.
    ExpectedPart wellfounded = stratified;
    wellfounded.kind = ExpectedPart::kThreeValued;
    ExpectedPart answers;
    answers.kind = ExpectedPart::kSet;
    std::set<Edge> from_zero;
    for (size_t i = 1; i < path.size(); ++i) from_zero.emplace(0, path[i]);
    answers.certain[""] = EdgeTexts(from_zero);
    expected_ = {std::move(stratified), std::move(wellfounded),
                 std::move(answers)};
    ClearRecords();
    return Status::OK();
  }

  Status RunOp(int, Tracer* tracer, int root) override {
    auto edb = Parse(tracer, root, datalog::ParseFacts, edb_text_);
    if (!edb.ok()) return edb.status();
    const size_t edb_facts = edb->TotalFacts();

    auto reach = Parse(tracer, root, datalog::ParseProgram, kReachIsland);
    if (!reach.ok()) return reach.status();
    auto stratified = EvalDatalog(tracer, root, edb_facts, [&](auto& o) {
      return datalog::EvalStratified(*reach, *edb, o);
    });
    if (!stratified.ok()) return stratified.status();
    Render(tracer, root, *stratified);

    auto wellfounded = EvalDatalog(tracer, root, edb_facts, [&](auto& o) {
      return datalog::EvalWellFounded(*reach, *edb, o);
    });
    if (!wellfounded.ok()) return wellfounded.status();
    Render(tracer, root, *wellfounded);

    auto tc = Parse(tracer, root, datalog::ParseProgram, kTcLeftLinear);
    if (!tc.ok()) return tc.status();
    const datalog::QuerySpec query{"tc", {awr::Value::Int(0), std::nullopt}};
    auto magic = [&] {
      ScopedSpan span(tracer, "datalog.eval", root);
      return datalog::MagicTransform(*tc, query);
    }();
    if (!magic.ok()) return magic.status();
    datalog::Database seeded = *edb;
    seeded.InsertAll(magic->seeds);
    auto model = EvalDatalog(tracer, root, seeded.TotalFacts(), [&](auto& o) {
      return datalog::EvalMinimalModel(magic->program, seeded, o);
    });
    if (!model.ok()) return model.status();
    auto answers = [&] {
      ScopedSpan span(tracer, "datalog.eval", root);
      return datalog::MagicAnswers(*model, *magic, query);
    }();
    if (!answers.ok()) return answers.status();
    Render(tracer, root, *answers);
    return Status::OK();
  }

 private:
  int length_;
  int islands_;
  std::string edb_text_;
};

/// algebra_valid: Example 3's WIN-MOVE through the algebra= evaluator, and
/// Prop 6.1's translation of TC evaluated the same way — only the algebra
/// and translate layers work; no datalog joins, no storage.
class AlgebraValid : public LocalWorkload {
 public:
  explicit AlgebraValid(bool smoke)
      : positions_(smoke ? 12 : 96),
        cycles_(smoke ? 2 : 12),
        tc_nodes_(smoke ? 5 : 12),
        tc_draws_(smoke ? 8 : 24) {}

  int warmup_ops() const override { return 4; }
  int traced_ops() const override { return 24; }

  Status SetUp(uint64_t seed, Tracer*) override {
    // The game and graph shapes are those of seed 42; the run's seed only
    // relabels their nodes.  The alternating fixpoint's depth depends on
    // the shape (46 to 64 rounds, 55 to 137 ms across ten seeds), and the
    // run-to-run spread must come from the program, not from the draw.
    Rng shape(42);
    Rng relabel(seed);
    const std::vector<int64_t> label =
        Permutation(static_cast<size_t>(positions_ + 2 * cycles_), &relabel);
    moves_.clear();
    game_text_.clear();
    auto add_move = [&](size_t a, size_t b) {
      moves_.emplace(label[a], label[b]);
      game_text_ += FactText("move", {label[a], label[b]});
    };
    for (int i = 0; i < positions_; ++i) {
      const int degree = static_cast<int>(shape.Below(3));
      for (int d = 0; d < degree; ++d) {
        add_move(static_cast<size_t>(i), shape.Below(positions_));
      }
    }
    for (int c = 0; c < cycles_; ++c) {
      const size_t a = static_cast<size_t>(positions_ + 2 * c), b = a + 1;
      add_move(a, b);
      add_move(b, a);
    }
    std::set<Edge> tc_edges;
    const std::vector<int64_t> tc_label =
        Permutation(static_cast<size_t>(tc_nodes_), &relabel);
    tc_text_ =
        RandomGraphText(tc_nodes_, tc_draws_, &shape, &tc_edges, &tc_label);

    // Example 3: WIN = pi_1(MOVE - (pi_1 MOVE x WIN)).
    using E = algebra::AlgebraExpr;
    win_move_ = algebra::AlgebraProgram();
    win_move_.DefineConstant(
        "WIN",
        E::Map(algebra::fn::Proj(0),
               E::Diff(E::Relation("move"),
                       E::Product(E::Map(algebra::fn::Proj(0),
                                         E::Relation("move")),
                                  E::Relation("WIN")))));

    game_ = SolveGame(moves_);
    ExpectedPart win;
    win.kind = ExpectedPart::kAlgebraValid;
    win.certain["WIN"] = ScalarTexts(game_.won);
    if (!game_.drawn.empty()) win.undefined["WIN"] = ScalarTexts(game_.drawn);
    ExpectedPart tc;
    tc.kind = ExpectedPart::kAlgebraValid;
    tc.certain["tc"] = EdgeTexts(ClosureBfs(tc_edges));
    expected_ = {std::move(win), std::move(tc)};
    ClearRecords();
    return Status::OK();
  }

  Status RunOp(int, Tracer* tracer, int root) override {
    auto game = Parse(tracer, root, datalog::ParseFacts, game_text_);
    if (!game.ok()) return game.status();
    auto win = EvalAlgebra(tracer, root, win_move_,
                           awr::translate::EdbToSetDb(*game));
    if (!win.ok()) return win.status();
    Render(tracer, root, *win);

    auto program = Parse(tracer, root, datalog::ParseProgram, kTcRightLinear);
    if (!program.ok()) return program.status();
    auto edb = Parse(tracer, root, datalog::ParseFacts, tc_text_);
    if (!edb.ok()) return edb.status();
    auto system = [&] {
      ScopedSpan span(tracer, "translate", root);
      return awr::translate::DatalogToAlgebra(*program);
    }();
    if (!system.ok()) return system.status();
    if (tracer != nullptr) {
      double size = 0;
      for (const auto& def : system->defs()) size += ExprSize(def.body);
      Count(tracer, "translate.expr_size", size);
    }
    auto tc = EvalAlgebra(tracer, root, *system,
                          awr::translate::EdbToSetDb(*edb));
    if (!tc.ok()) return tc.status();
    Render(tracer, root, *tc);
    return Status::OK();
  }

  /// Thm 6.2 on top of the output check: the deductive well-founded model
  /// of win must agree position by position with the algebra= WIN the ops
  /// produced, which the oracle already tied to the retrograde analysis.
  uint64_t CheckOutputs() override {
    const uint64_t failed = LocalWorkload::CheckOutputs();
    auto program = datalog::ParseProgram(kWinMove);
    auto edb = datalog::ParseFacts(game_text_);
    if (!program.ok() || !edb.ok()) return failed;
    auto wfs = datalog::EvalWellFounded(*program, *edb);
    bool agree = wfs.ok();
    for (const auto& [from, to] : moves_) {
      for (int64_t p : {from, to}) {
        if (!agree) break;
        const datalog::Truth want =
            game_.won.count(p)     ? datalog::Truth::kTrue
            : game_.drawn.count(p) ? datalog::Truth::kUndefined
                                   : datalog::Truth::kFalse;
        agree = wfs->QueryFact("win", awr::Value::Tuple({awr::Value::Int(p)})) ==
                want;
      }
    }
    return agree ? failed : record_count();
  }

 private:
  static double ExprSize(const algebra::AlgebraExpr& e) {
    double n = 1;
    for (const auto& c : e.children()) n += ExprSize(c);
    return n;
  }

  awr::Result<algebra::ValidAlgebraResult> EvalAlgebra(
      Tracer* tracer, int root, const algebra::AlgebraProgram& program,
      const algebra::SetDb& db) {
    awr::ExecutionContext ctx(awr::EvalLimits::Large());
    algebra::AlgebraEvalOptions opts;
    opts.limits = awr::EvalLimits::Large();
    opts.context = &ctx;
    auto result = [&] {
      ScopedSpan span(tracer, "algebra.eval", root);
      return algebra::EvalAlgebraValid(program, db, opts);
    }();
    Count(tracer, "algebra.rounds", static_cast<double>(ctx.rounds()));
    Count(tracer, "algebra.charges", static_cast<double>(ctx.total_charges()));
    CountMax(tracer, "algebra.high_water_bytes_max",
             static_cast<double>(ctx.high_water_bytes()));
    return result;
  }

  int positions_;
  int cycles_;
  int tc_nodes_;
  int tc_draws_;
  std::set<Edge> moves_;
  GameOutcome game_;
  std::string game_text_;
  std::string tc_text_;
  algebra::AlgebraProgram win_move_;
};

// ---------------------------------------------------------------------
// awrd_durable: two client sessions against an in-process awrd.

/// Request `index` of `session`: one of the four semantics over a path or
/// game of `min_len`..`max_len` elements, at a node offset of its own so
/// every EDB is distinct while only four program texts recur.
service::SubmitRequest AwrdRequest(uint64_t seed, int session, uint64_t index,
                                   int min_len, int max_len) {
  Rng rng(HashText(std::to_string(seed) + "/" + std::to_string(session) +
                   "/" + std::to_string(index)));
  service::SubmitRequest req;
  req.id = "s" + std::to_string(session) + "-" + std::to_string(index);
  const int n = min_len + static_cast<int>(rng.Below(max_len - min_len + 1));
  // Node ids come from a bounded range: awr interns every distinct tuple
  // for the life of the process, so unbounded ids would grow the server
  // by every request's facts.  The request fact keeps each EDB distinct.
  const int64_t base = static_cast<int64_t>(rng.Below(1000));
  auto path = [&](const char* pred) {
    for (int i = 0; i < n; ++i) req.edb += FactText(pred, {base + i, base + i + 1});
  };
  switch (rng.Below(4)) {
    case 0:
      req.semantics = service::Semantics::kMinimalModel;
      req.program = kTcRightLinear;
      path("edge");
      break;
    case 1:
    case 2: {
      const bool stratified = rng.Below(2) == 0;
      req.semantics = stratified ? service::Semantics::kStratified
                                 : service::Semantics::kInflationary;
      req.program = stratified ? kReachIsland : kReachUnreached;
      req.edb = FactText("source", {base});
      path("edge");
      for (int i = 0; i <= n + 2; ++i) req.edb += FactText("node", {base + i});
      break;
    }
    default:
      req.semantics = service::Semantics::kWellFounded;
      req.program = kWinMove;
      path("move");
      if (rng.Below(2) == 0) {  // end in a 2-cycle: every position drawn
        req.edb += FactText("move", {base + n, base + n + 1});
        req.edb += FactText("move", {base + n + 1, base + n});
      }
      break;
  }
  req.edb += FactText("request", {session, static_cast<int64_t>(index)});
  return req;
}

class AwrdDurable : public Workload {
 public:
  explicit AwrdDurable(bool smoke)
      : min_len_(smoke ? 5 : 40),
        max_len_(smoke ? 10 : 80),
        warmup_(smoke ? 2 : 32),
        traced_(smoke ? 20 : 600) {}
  ~AwrdDurable() override { TearDown(); }

  int sessions() const override { return kSessions; }
  int warmup_ops() const override { return warmup_; }
  int traced_ops() const override { return traced_; }

  Status SetUp(uint64_t seed, Tracer* tracer) override {
    TearDown();
    seed_ = seed;
    ++setups_;
    const std::string socket = "awrd-" + std::to_string(setups_) + ".sock";
    std::error_code ec;
    std::filesystem::remove(socket, ec);

    service::ServiceConfig config;
    config.state_dir = "awrd-state";
    mem_fs_ = std::make_unique<MemFs>();
    config.fs = mem_fs_.get();
    if (tracer != nullptr) {
      fs_ = std::make_unique<TimingFs>(mem_fs_.get(), tracer);
      config.fs = fs_.get();
    }
    service_ = std::make_unique<service::QueryService>(config);
    server_ = std::make_unique<service::SocketServer>(service_.get(), socket);
    AWR_RETURN_IF_ERROR(server_->Start());
    for (int s = 0; s < kSessions; ++s) {
      Session& session = sessions_[s];
      session = Session();
      session.client = service::Client(socket);
      session.rng = Rng(HashText("replay/" + std::to_string(seed) + "/" +
                                 std::to_string(s)));
      AWR_RETURN_IF_ERROR(session.client.Connect());
    }
    return Status::OK();
  }

  void PrepareOp(int s, Tracer* tracer) override {
    Session& session = sessions_[s];
    // One submission in eight repeats an id already answered, as a
    // retrying client would.
    session.replay =
        !session.answered.empty() && session.rng.Below(8) == 0;
    session.index =
        session.replay
            ? session.answered[session.rng.Below(session.answered.size())]
            : session.next_index++;
    session.request =
        AwrdRequest(seed_, s, session.index, min_len_, max_len_);
    if (tracer != nullptr) {
      ScopedSpan span(tracer, "service.ping");
      (void)session.client.Ping();
    }
  }

  Status RunOp(int s, Tracer* tracer, int root) override {
    Session& session = sessions_[s];
    if (tracer != nullptr) tracer->BindRequest(session.request.id, root);
    session.reply = session.client.SubmitWithRetry(session.request);
    if (tracer != nullptr) tracer->UnbindRequest(session.request.id);
    return session.reply.ok() ? session.reply->ToStatus()
                              : session.reply.status();
  }

  void Record(int s, const Status& status) override {
    Session& session = sessions_[s];
    AwrdRecord r;
    r.index = session.index;
    r.replay = session.replay;
    r.ok = status.ok();
    if (r.ok) {
      r.model_hash = HashText(session.reply->model);
      r.charges = session.reply->charges;
      r.rounds = session.reply->rounds;
      if (!r.replay) session.answered.push_back(r.index);
    }
    session.records.push_back(r);
  }

  void ClearRecords() override {
    for (Session& s : sessions_) {
      s.records.clear();
      s.answered.clear();
    }
  }

  /// Every first answer must equal an in-process ExecuteRequest of the
  /// same request (model bytes and charge count); every replay must be
  /// identical to the first answer of its id.
  uint64_t CheckOutputs() override {
    uint64_t failed = 0;
    for (int s = 0; s < kSessions; ++s) {
      std::map<uint64_t, const AwrdRecord*> first;
      for (const AwrdRecord& r : sessions_[s].records) {
        if (!r.replay && r.ok) first.emplace(r.index, &r);
      }
      std::map<uint64_t, bool> verdict;
      for (const auto& [index, r] : first) verdict[index] = false;
      // The reference executions are independent; spread them over the
      // cores the (now idle) server used.
      std::vector<std::pair<const uint64_t, bool>*> todo;
      for (auto& entry : verdict) todo.push_back(&entry);
      std::atomic<size_t> next{0};
      auto check = [&] {
        for (size_t i = next.fetch_add(1); i < todo.size();
             i = next.fetch_add(1)) {
          const uint64_t index = todo[i]->first;
          // The broken oracle expects the answer to the next request.
          const uint64_t want_index = broken_oracle_ ? index + 1 : index;
          const service::ResultRecord want = service::ExecuteRequest(
              AwrdRequest(seed_, s, want_index, min_len_, max_len_), nullptr,
              service::ExecOptions());
          const AwrdRecord* r = first.at(index);
          todo[i]->second = want.code == awr::StatusCode::kOk &&
                            r->model_hash == HashText(want.model) &&
                            r->charges == want.charges;
        }
      };
      std::vector<std::thread> checkers;
      for (int t = 0; t < kOracleThreads; ++t) checkers.emplace_back(check);
      for (std::thread& t : checkers) t.join();
      for (const AwrdRecord& r : sessions_[s].records) {
        bool good = r.ok && verdict.count(r.index) && verdict[r.index];
        if (good && r.replay) {
          const AwrdRecord* orig = first[r.index];
          good = r.model_hash == orig->model_hash &&
                 r.charges == orig->charges && r.rounds == orig->rounds;
        }
        if (!good) ++failed;
      }
    }
    return failed;
  }

  void TearDown() override {
    for (Session& s : sessions_) s.client.Close();
    if (service_ != nullptr) {
      service_->BeginDrain();
      service_->WaitDrained();
    }
    if (server_ != nullptr) server_->Stop();
    server_.reset();
    service_.reset();
    fs_.reset();
    mem_fs_.reset();
  }

  void BeginTracedPhase() override {
    stats_before_ = service_->Stats();
    if (fs_ != nullptr) fs_->ResetCounters();
  }

  Counts EndTracedPhase() override {
    const service::StatsReply after = service_->Stats();
    Counts counts;
    for (const char* name : {"submits", "completed_ok", "dedup_joined",
                             "resumed_runs", "shed", "transient"}) {
      counts[std::string("service.") + name] =
          static_cast<double>(after.Get(name) - stats_before_.Get(name));
    }
    if (fs_ != nullptr) {
      uint64_t total = 0;
      for (FileKind k : {FileKind::kReq, FileKind::kSnap, FileKind::kRes,
                         FileKind::kTemp, FileKind::kOther}) {
        total += fs_->written_bytes(k);
      }
      counts["storage.write_bytes"] = static_cast<double>(total);
      counts["snapshot.write_bytes"] =
          static_cast<double>(fs_->written_bytes(FileKind::kSnap));
    }
    return counts;
  }

  void BreakOracleForTest() override { broken_oracle_ = true; }

 private:
  static constexpr int kSessions = 2;
  static constexpr int kOracleThreads = 4;

  struct AwrdRecord {
    uint64_t index = 0;
    bool replay = false;
    bool ok = false;
    uint64_t model_hash = 0;
    uint64_t charges = 0;
    uint64_t rounds = 0;
  };

  struct Session {
    service::Client client;
    Rng rng{0};
    uint64_t next_index = 0;
    std::vector<uint64_t> answered;  // indices answered in this phase
    // The op in flight.
    uint64_t index = 0;
    bool replay = false;
    service::SubmitRequest request;
    awr::Result<service::ResultRecord> reply{Status::Internal("no reply")};
    std::vector<AwrdRecord> records;
  };

  int min_len_;
  int max_len_;
  int warmup_;
  int traced_;
  uint64_t seed_ = 0;
  uint64_t setups_ = 0;
  bool broken_oracle_ = false;
  // Declared before the service, which borrows them.
  std::unique_ptr<MemFs> mem_fs_;
  std::unique_ptr<TimingFs> fs_;
  std::unique_ptr<service::QueryService> service_;
  std::unique_ptr<service::SocketServer> server_;
  Session sessions_[kSessions];
  service::StatsReply stats_before_;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "tc_dense", "sparse_rounds", "algebra_valid", "awrd_durable"};
  return kNames;
}

std::unique_ptr<Workload> MakeWorkload(std::string_view name, bool smoke) {
  if (name == "tc_dense") return std::make_unique<TcDense>(smoke);
  if (name == "sparse_rounds") return std::make_unique<SparseRounds>(smoke);
  if (name == "algebra_valid") return std::make_unique<AlgebraValid>(smoke);
  if (name == "awrd_durable") return std::make_unique<AwrdDurable>(smoke);
  return nullptr;
}

}  // namespace perfbench
