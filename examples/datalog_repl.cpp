// An interactive deductive-database shell on the awr engine.
//
//   ./build/examples/awr_datalog_repl
//
// Commands:
//   <rule>.                      add a rule (or ground fact)
//   ?pred                        show pred's extent under the chosen semantics
//   :semantics valid|stratified|inflationary|stable
//   :list                        show the current program
//   :stats                       interner occupancy / hit rate, index counts
//   :clear                       drop all rules
//   :connect [socket]            evaluate on an awrd server (default
//                                /tmp/awrd.sock) instead of in-process
//   :disconnect                  back to in-process evaluation
//   :quit
//
// Connected mode ships the current program to the server per query with
// the client library's retry loop, so a server restart mid-session
// costs a backoff, not an error.  Stable-model queries always run
// locally (the service serves the four fixpoint semantics).
//
// Example session:
//   > move(a, b). move(b, a). move(b, c).
//   > win(X) :- move(X, Y), not win(Y).
//   > ?win
//   win: certain {<b>}  undefined {}
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include <unistd.h>

#include "awr/common/intern.h"
#include "awr/datalog/eval_core.h"
#include "awr/datalog/inflationary.h"
#include "awr/datalog/parser.h"
#include "awr/datalog/stable.h"
#include "awr/datalog/stratified.h"
#include "awr/datalog/vm/vm.h"
#include "awr/datalog/wellfounded.h"
#include "awr/service/client.h"

using namespace awr;  // NOLINT

namespace {

enum class Semantics { kValid, kStratified, kInflationary, kStable };

service::Semantics WireSemantics(Semantics s) {
  switch (s) {
    case Semantics::kStratified:
      return service::Semantics::kStratified;
    case Semantics::kInflationary:
      return service::Semantics::kInflationary;
    default:
      return service::Semantics::kWellFounded;
  }
}

/// ?pred in connected mode: submit the whole program under a fresh id,
/// retry through transient failures, print the predicate's lines from
/// the returned deterministic model rendering.
void ShowPredicateRemote(service::Client* client,
                         const datalog::Program& program,
                         const std::string& pred, Semantics semantics,
                         uint64_t* next_query) {
  service::SubmitRequest req;
  req.id = "repl-" + std::to_string(::getpid()) + "-" +
           std::to_string((*next_query)++);
  req.semantics = WireSemantics(semantics);
  req.program = program.ToString();
  auto res = client->SubmitWithRetry(req);
  if (!res.ok()) {
    std::cout << "server error: " << res.status() << "\n";
    return;
  }
  if (res->code != StatusCode::kOk) {
    std::cout << "error: " << res->ToStatus() << "\n";
    return;
  }
  // The model arrives as "pred = {...}" lines (three-valued renderings
  // add certain:/undefined: section headers); show the ones matching
  // the queried predicate, or everything for "?".
  std::istringstream lines(res->model);
  std::string line;
  bool any = false;
  while (std::getline(lines, line)) {
    const bool header = !line.empty() && line.back() == ':';
    if (pred.empty() || header ||
        line.rfind(pred + " = ", 0) == 0 ||
        line.rfind("  " + pred + " = ", 0) == 0) {
      std::cout << line << "\n";
      any = true;
    }
  }
  if (!any) std::cout << pred << ": {}\n";
  std::cout << "(" << res->charges << " charges, " << res->rounds
            << " rounds" << (res->resumed ? ", resumed" : "") << ")\n";
}

void ShowPredicate(const datalog::Program& program, const std::string& pred,
                   Semantics semantics, datalog::Interpretation* last_model) {
  datalog::Database empty_edb;  // facts live in the program as rules
  switch (semantics) {
    case Semantics::kValid: {
      auto wfs = datalog::EvalWellFounded(program, empty_edb);
      if (!wfs.ok()) {
        std::cout << "error: " << wfs.status() << "\n";
        return;
      }
      std::cout << pred << ": certain "
                << wfs->certain.Extent(pred).ToString();
      datalog::Interpretation undef = wfs->UndefinedFacts();
      if (undef.Extent(pred).size() > 0) {
        std::cout << "  undefined " << undef.Extent(pred).ToString();
      }
      std::cout << "\n";
      *last_model = std::move(wfs->certain);
      return;
    }
    case Semantics::kStratified: {
      auto r = datalog::EvalStratified(program, empty_edb);
      if (!r.ok()) {
        std::cout << "error: " << r.status() << "\n";
        return;
      }
      std::cout << pred << ": " << r->Extent(pred).ToString() << "\n";
      *last_model = *std::move(r);
      return;
    }
    case Semantics::kInflationary: {
      auto r = datalog::EvalInflationary(program, empty_edb);
      if (!r.ok()) {
        std::cout << "error: " << r.status() << "\n";
        return;
      }
      std::cout << pred << ": " << r->Extent(pred).ToString() << "\n";
      *last_model = *std::move(r);
      return;
    }
    case Semantics::kStable: {
      auto models = datalog::EvalStableModels(program, empty_edb);
      if (!models.ok()) {
        std::cout << "error: " << models.status() << "\n";
        return;
      }
      std::cout << pred << ": " << models->size() << " stable model(s)\n";
      for (const auto& m : *models) {
        std::cout << "  " << m.Extent(pred).ToString() << "\n";
      }
      if (!models->empty()) *last_model = std::move(models->front());
      return;
    }
  }
}

void ShowStats(const datalog::Interpretation& last_model) {
  const Value::InternerStats vs = Value::interner_stats();
  std::cout << "value interner: " << vs.entries << " canonical composites, "
            << vs.hits << " hits / " << vs.misses << " misses ("
            << std::fixed << std::setprecision(1) << 100.0 * vs.HitRate()
            << "% hit rate), ~" << vs.bytes << " bytes pinned\n";
  std::cout << "atom interner:  " << Interner::Global().size()
            << " interned symbols\n";
  size_t preds = 0, facts = 0, indexes = 0;
  size_t word_preds = 0, table_bytes = 0, values = 0;
  for (const auto& [pred, extent] : last_model) {
    ++preds;
    facts += extent.size();
    indexes += extent.index_count();
    values += extent.materialized_rows();
    if (extent.word_arity() != 0) {
      ++word_preds;
      table_bytes += extent.word_table_bytes();
    }
  }
  std::cout << "last model:     " << preds << " predicate(s), " << facts
            << " fact(s), " << indexes << " position-subset index(es)\n";
  std::cout << "storage:        " << word_preds << " word-table / "
            << (preds - word_preds) << " row relation(s), ~" << table_bytes
            << " word-table bytes, " << values << " fact(s) held as values\n";
  const datalog::vm::VmExecStats vm = datalog::vm::GetVmExecStats();
  std::cout << "bytecode vm:    " << vm.vm_rules_fired
            << " compiled firings, "
            << vm.ops_dispatched << " ops, " << vm.word_opens << " word / "
            << vm.row_opens << " row loop opens, " << vm.vm_facts
            << " facts added\n";
  std::cout << "lowering:       " << vm.programs_lowered
            << " rule(s) lowered\n";
  for (const auto& [pred, extent] : last_model) {
    std::cout << "  " << pred << ": " << extent.size() << " fact(s), ";
    if (extent.word_arity() != 0) {
      std::cout << "word-table storage, ~" << extent.word_table_bytes()
                << " bytes";
    } else {
      std::cout << "row storage";
    }
    std::cout << "\n";
  }
}

}  // namespace

int main() {
  datalog::Program program;
  Semantics semantics = Semantics::kValid;
  datalog::Interpretation last_model;  // most recent ?pred evaluation
  std::unique_ptr<service::Client> remote;  // non-null in connected mode
  uint64_t next_query = 0;

  std::cout << "awr deductive shell — :semantics valid|stratified|"
               "inflationary|stable, ?pred queries, :stats, :connect "
               "[socket], :quit exits\n";
  std::string line;
  while (std::cout << "> " << std::flush, std::getline(std::cin, line)) {
    if (line.empty()) continue;
    if (line == ":quit" || line == ":q") break;
    if (line == ":list") {
      std::cout << program.ToString();
      continue;
    }
    if (line == ":stats") {
      ShowStats(last_model);
      continue;
    }
    if (line == ":clear") {
      program.rules.clear();
      std::cout << "cleared\n";
      continue;
    }
    if (line.rfind(":connect", 0) == 0) {
      std::istringstream ss(line.substr(8));
      std::string socket_path;
      ss >> socket_path;
      if (socket_path.empty()) socket_path = "/tmp/awrd.sock";
      auto client = std::make_unique<service::Client>(socket_path);
      auto pong = client->Ping();
      if (!pong.ok()) {
        std::cout << "cannot reach awrd at " << socket_path << ": "
                  << pong.status() << "\n";
        continue;
      }
      std::cout << "connected to " << socket_path << " (protocol v"
                << pong->protocol_version
                << (pong->draining ? ", draining" : "") << ")\n";
      remote = std::move(client);
      continue;
    }
    if (line == ":disconnect") {
      if (remote == nullptr) {
        std::cout << "not connected\n";
      } else {
        remote.reset();
        std::cout << "back to in-process evaluation\n";
      }
      continue;
    }
    if (line.rfind(":semantics", 0) == 0) {
      std::istringstream ss(line.substr(10));
      std::string which;
      ss >> which;
      if (which == "valid") {
        semantics = Semantics::kValid;
      } else if (which == "stratified") {
        semantics = Semantics::kStratified;
      } else if (which == "inflationary") {
        semantics = Semantics::kInflationary;
      } else if (which == "stable") {
        semantics = Semantics::kStable;
      } else {
        std::cout << "unknown semantics '" << which << "'\n";
        continue;
      }
      std::cout << "semantics set\n";
      continue;
    }
    if (line[0] == '?') {
      std::string pred = line.substr(1);
      while (!pred.empty() && pred.back() == ' ') pred.pop_back();
      if (remote != nullptr && semantics != Semantics::kStable) {
        ShowPredicateRemote(remote.get(), program, pred, semantics,
                            &next_query);
      } else {
        if (remote != nullptr) {
          std::cout << "(stable models run locally)\n";
        }
        ShowPredicate(program, pred, semantics, &last_model);
      }
      continue;
    }
    auto parsed = datalog::ParseProgram(line);
    if (!parsed.ok()) {
      std::cout << "parse error: " << parsed.status() << "\n";
      continue;
    }
    for (auto& rule : parsed->rules) {
      auto safe = datalog::CheckRuleSafe(rule);
      if (!safe.ok()) {
        std::cout << "rejected: " << safe << "\n";
        continue;
      }
      program.rules.push_back(std::move(rule));
    }
  }
  return 0;
}
