#ifndef AWR_DATALOG_DEPGRAPH_H_
#define AWR_DATALOG_DEPGRAPH_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "awr/common/result.h"
#include "awr/datalog/ast.h"

namespace awr::datalog {

/// The predicate dependency graph of a program: an edge P -> Q (with a
/// polarity) for every rule with head P and body literal on Q.
class DependencyGraph {
 public:
  /// Builds the graph of `program`.
  explicit DependencyGraph(const Program& program);

  /// All predicate names, in first-occurrence order.
  const std::vector<std::string>& predicates() const { return predicates_; }

  /// Strongly connected components in *reverse topological order* (every
  /// edge goes from a later component to an earlier one), computed with
  /// Tarjan's algorithm.  Mutually recursive predicates share a
  /// component.
  const std::vector<std::vector<std::string>>& Sccs() const { return sccs_; }

  /// Index of the SCC containing `pred`.
  size_t SccIndex(const std::string& pred) const;

  /// True iff P depends on Q through some negative edge inside one SCC
  /// (i.e. recursion through negation), which is exactly failure of
  /// stratifiability.
  bool HasNegativeCycle() const { return has_negative_cycle_; }

  /// True iff SCC `scc` has a negative edge between two of its members
  /// (the component is on a negative cycle).
  bool NegativeCycleIn(size_t scc) const { return negative_scc_[scc]; }

  /// The stratum of each SCC (indexed like Sccs()): the least numbering
  /// with stratum(P) >= stratum(Q) for every edge P -> Q between two
  /// components, and > for a negative one.  Edges inside a component
  /// are ignored, so every program gets one; for a stratifiable program
  /// this is the numbering Stratify groups by.
  std::vector<size_t> SccStrata() const;

  /// True iff predicates `p` and `q` are mutually recursive.
  bool SameScc(const std::string& p, const std::string& q) const {
    return SccIndex(p) == SccIndex(q);
  }

 private:
  struct Edge {
    size_t to;
    bool positive;
  };

  void ComputeSccs();

  std::vector<std::string> predicates_;
  std::unordered_map<std::string, size_t> index_;
  std::vector<std::vector<Edge>> edges_;
  std::vector<std::vector<std::string>> sccs_;
  std::vector<size_t> scc_of_;
  std::vector<bool> negative_scc_;
  bool has_negative_cycle_ = false;
};

/// A stratification: predicates grouped into strata such that each
/// stratum's rules use (positively or negatively) only predicates of
/// strictly earlier strata plus, positively, their own stratum.
///
/// Fails with FailedPrecondition when the program is not stratifiable
/// (recursion through negation).  Stratum 0 contains the extensional
/// predicates and any IDB predicates with no negative dependencies.
Result<std::vector<std::vector<std::string>>> Stratify(const Program& program);

}  // namespace awr::datalog

#endif  // AWR_DATALOG_DEPGRAPH_H_
