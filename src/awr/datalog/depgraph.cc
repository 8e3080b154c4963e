#include "awr/datalog/depgraph.h"

#include <algorithm>
#include <cassert>

namespace awr::datalog {

DependencyGraph::DependencyGraph(const Program& program) {
  auto intern = [&](const std::string& p) -> size_t {
    auto it = index_.find(p);
    if (it != index_.end()) return it->second;
    size_t id = predicates_.size();
    index_.emplace(p, id);
    predicates_.push_back(p);
    edges_.emplace_back();
    return id;
  };

  for (const Rule& rule : program.rules) {
    size_t head = intern(rule.head.predicate);
    for (const Literal& lit : rule.body) {
      if (!lit.is_atom()) continue;
      size_t dep = intern(lit.atom.predicate);
      edges_[head].push_back(Edge{dep, lit.positive});
    }
  }
  ComputeSccs();

  // Detect negative edges within one SCC.
  negative_scc_.assign(sccs_.size(), false);
  for (size_t p = 0; p < predicates_.size(); ++p) {
    for (const Edge& e : edges_[p]) {
      if (!e.positive && scc_of_[p] == scc_of_[e.to]) {
        negative_scc_[scc_of_[p]] = true;
        has_negative_cycle_ = true;
      }
    }
  }
}

void DependencyGraph::ComputeSccs() {
  // Iterative Tarjan.
  size_t n = predicates_.size();
  scc_of_.assign(n, SIZE_MAX);
  std::vector<size_t> low(n, 0), disc(n, SIZE_MAX), stack;
  std::vector<bool> on_stack(n, false);
  size_t timer = 0;

  struct Frame {
    size_t node;
    size_t edge_idx;
  };

  for (size_t root = 0; root < n; ++root) {
    if (disc[root] != SIZE_MAX) continue;
    std::vector<Frame> frames{{root, 0}};
    disc[root] = low[root] = timer++;
    stack.push_back(root);
    on_stack[root] = true;
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.edge_idx < edges_[f.node].size()) {
        size_t next = edges_[f.node][f.edge_idx++].to;
        if (disc[next] == SIZE_MAX) {
          disc[next] = low[next] = timer++;
          stack.push_back(next);
          on_stack[next] = true;
          frames.push_back(Frame{next, 0});
        } else if (on_stack[next]) {
          low[f.node] = std::min(low[f.node], disc[next]);
        }
      } else {
        if (low[f.node] == disc[f.node]) {
          std::vector<std::string> comp;
          size_t member;
          do {
            member = stack.back();
            stack.pop_back();
            on_stack[member] = false;
            scc_of_[member] = sccs_.size();
            comp.push_back(predicates_[member]);
          } while (member != f.node);
          sccs_.push_back(std::move(comp));
        }
        size_t done = f.node;
        frames.pop_back();
        if (!frames.empty()) {
          low[frames.back().node] = std::min(low[frames.back().node], low[done]);
        }
      }
    }
  }
}

size_t DependencyGraph::SccIndex(const std::string& pred) const {
  auto it = index_.find(pred);
  assert(it != index_.end());
  return scc_of_[it->second];
}

std::vector<size_t> DependencyGraph::SccStrata() const {
  // Tarjan emits SCCs in reverse topological order, so one pass in
  // emission order sees every dependency's stratum before its
  // dependents.
  std::vector<size_t> stratum(sccs_.size(), 0);
  for (size_t c = 0; c < sccs_.size(); ++c) {
    for (const std::string& pred : sccs_[c]) {
      for (const Edge& e : edges_[index_.at(pred)]) {
        const size_t dep = scc_of_[e.to];
        if (dep == c) continue;
        stratum[c] = std::max(stratum[c], stratum[dep] + (e.positive ? 0 : 1));
      }
    }
  }
  return stratum;
}

Result<std::vector<std::vector<std::string>>> Stratify(const Program& program) {
  DependencyGraph graph(program);
  if (graph.HasNegativeCycle()) {
    return Status::FailedPrecondition(
        "program is not stratifiable: recursion through negation");
  }
  const auto& sccs = graph.Sccs();
  const std::vector<size_t> stratum_of_scc = graph.SccStrata();
  size_t max_stratum = 0;
  for (size_t s : stratum_of_scc) max_stratum = std::max(max_stratum, s);
  std::vector<std::vector<std::string>> strata(max_stratum + 1);
  for (size_t i = 0; i < sccs.size(); ++i) {
    for (const std::string& pred : sccs[i]) {
      strata[stratum_of_scc[i]].push_back(pred);
    }
  }
  return strata;
}

}  // namespace awr::datalog
