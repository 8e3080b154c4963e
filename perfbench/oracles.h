#ifndef PERFBENCH_ORACLES_H_
#define PERFBENCH_ORACLES_H_

// Output oracles of the benchmark.  They share no code with the awr
// engines: answers are computed here from the generated inputs by plain
// graph algorithms, and the engines' rendered text is read back with the
// small scanner below, so a wrong model or a wrong rendering both fail.

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Edge = std::pair<int64_t, int64_t>;

/// Relation name -> its elements as rendered ("<1, 2>", "7"), sorted.
using Relations = std::map<std::string, std::vector<std::string>>;

/// Splits a rendered set "{e1, e2, ...}" into its top-level elements.
/// Returns false when the text is not a braced set.
bool ParseSetText(std::string_view text, std::vector<std::string>* out);

/// Reads Interpretation::ToString output: lines "pred = {...}".
bool ParseModelText(std::string_view text, Relations* out);

/// Reads ThreeValuedInterp::ToString output: "certain:" lines, then an
/// optional "undefined:" section.
bool ParseThreeValuedText(std::string_view text, Relations* certain,
                          Relations* undefined);

/// Reads ValidAlgebraResult::ToString output:
/// "NAME = certain {...}[, undefined {...}]" lines.
bool ParseAlgebraValidText(std::string_view text, Relations* certain,
                           Relations* undefined);

/// "<a, b>" / "<a>" — how a fact's tuple renders.
std::string TupleText(const std::vector<int64_t>& items);
std::vector<std::string> EdgeTexts(const std::set<Edge>& edges);
std::vector<std::string> UnaryTexts(const std::set<int64_t>& nodes);
std::vector<std::string> ScalarTexts(const std::set<int64_t>& nodes);

/// Transitive closure by breadth-first search from every node.
std::set<Edge> ClosureBfs(const std::set<Edge>& edges);

/// The well-founded outcome of win(X) :- move(X, Y), not win(Y), by
/// retrograde analysis: a position with no move is lost, one with a move
/// to a lost position is won, one whose moves all reach won positions is
/// lost; whatever is left is drawn.
struct GameOutcome {
  std::set<int64_t> won, lost, drawn;
};
GameOutcome SolveGame(const std::set<Edge>& moves);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLES_H_
