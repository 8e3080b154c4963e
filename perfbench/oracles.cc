#include "oracles.h"

#include <algorithm>
#include <deque>

namespace perfbench {

namespace {

/// Splits `text` into lines without their terminators.
std::vector<std::string_view> Lines(std::string_view text) {
  std::vector<std::string_view> lines;
  while (!text.empty()) {
    const size_t nl = text.find('\n');
    lines.push_back(text.substr(0, nl));
    if (nl == std::string_view::npos) break;
    text.remove_prefix(nl + 1);
  }
  return lines;
}

/// "name = rest" -> (name, rest).
bool SplitAssignment(std::string_view line, std::string* name,
                     std::string_view* rest) {
  const size_t eq = line.find(" = ");
  if (eq == std::string_view::npos || eq == 0) return false;
  *name = std::string(line.substr(0, eq));
  *rest = line.substr(eq + 3);
  return true;
}

bool ParseRelationLine(std::string_view line, Relations* out) {
  std::string name;
  std::string_view rest;
  if (!SplitAssignment(line, &name, &rest)) return false;
  return ParseSetText(rest, &(*out)[name]);
}

}  // namespace

bool ParseSetText(std::string_view text, std::vector<std::string>* out) {
  if (text.size() < 2 || text.front() != '{' || text.back() != '}') {
    return false;
  }
  text = text.substr(1, text.size() - 2);
  out->clear();
  int depth = 0;
  size_t begin = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '<' || c == '{' || c == '[' || c == '(') ++depth;
    if (c == '>' || c == '}' || c == ']' || c == ')') --depth;
    if (depth < 0) return false;
    if (depth == 0 && c == ',') {
      out->emplace_back(text.substr(begin, i - begin));
      begin = i + 1;
      while (begin < text.size() && text[begin] == ' ') ++begin;
    }
  }
  if (depth != 0) return false;
  if (begin < text.size()) out->emplace_back(text.substr(begin));
  std::sort(out->begin(), out->end());
  return true;
}

bool ParseModelText(std::string_view text, Relations* out) {
  out->clear();
  for (std::string_view line : Lines(text)) {
    if (!ParseRelationLine(line, out)) return false;
  }
  return true;
}

bool ParseThreeValuedText(std::string_view text, Relations* certain,
                          Relations* undefined) {
  certain->clear();
  undefined->clear();
  Relations* section = nullptr;
  for (std::string_view line : Lines(text)) {
    if (line == "certain:") {
      if (section != nullptr) return false;
      section = certain;
    } else if (line == "undefined:") {
      if (section != certain) return false;
      section = undefined;
    } else if (section == nullptr || !ParseRelationLine(line, section)) {
      return false;
    }
  }
  return section != nullptr;
}

bool ParseAlgebraValidText(std::string_view text, Relations* certain,
                           Relations* undefined) {
  certain->clear();
  undefined->clear();
  constexpr std::string_view kCertain = "certain ";
  constexpr std::string_view kUndefined = "}, undefined ";
  for (std::string_view line : Lines(text)) {
    std::string name;
    std::string_view rest;
    if (!SplitAssignment(line, &name, &rest)) return false;
    if (rest.substr(0, kCertain.size()) != kCertain) return false;
    rest.remove_prefix(kCertain.size());
    // Element texts hold no braces at depth 0, so the first "}, undefined "
    // ends the certain part.
    const size_t split = rest.find(kUndefined);
    std::string_view lower = rest, upper;
    if (split != std::string_view::npos) {
      lower = rest.substr(0, split + 1);
      upper = rest.substr(split + kUndefined.size());
    }
    if (!ParseSetText(lower, &(*certain)[name])) return false;
    if (!upper.empty() && !ParseSetText(upper, &(*undefined)[name])) {
      return false;
    }
  }
  return true;
}

std::string TupleText(const std::vector<int64_t>& items) {
  std::string s = "<";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) s += ", ";
    s += std::to_string(items[i]);
  }
  return s + ">";
}

std::vector<std::string> EdgeTexts(const std::set<Edge>& edges) {
  std::vector<std::string> out;
  out.reserve(edges.size());
  for (const auto& [a, b] : edges) out.push_back(TupleText({a, b}));
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> UnaryTexts(const std::set<int64_t>& nodes) {
  std::vector<std::string> out;
  for (int64_t n : nodes) out.push_back(TupleText({n}));
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> ScalarTexts(const std::set<int64_t>& nodes) {
  std::vector<std::string> out;
  for (int64_t n : nodes) out.push_back(std::to_string(n));
  std::sort(out.begin(), out.end());
  return out;
}

std::set<Edge> ClosureBfs(const std::set<Edge>& edges) {
  std::map<int64_t, std::vector<int64_t>> succ;
  for (const auto& [a, b] : edges) succ[a].push_back(b);
  std::set<Edge> closure;
  for (const auto& [source, direct] : succ) {
    std::set<int64_t> seen;
    std::deque<int64_t> frontier(direct.begin(), direct.end());
    while (!frontier.empty()) {
      const int64_t n = frontier.front();
      frontier.pop_front();
      if (!seen.insert(n).second) continue;
      closure.emplace(source, n);
      auto it = succ.find(n);
      if (it != succ.end()) {
        frontier.insert(frontier.end(), it->second.begin(), it->second.end());
      }
    }
  }
  return closure;
}

GameOutcome SolveGame(const std::set<Edge>& moves) {
  std::map<int64_t, std::vector<int64_t>> pred;
  std::map<int64_t, size_t> open_moves;  // moves not yet known to reach won
  std::set<int64_t> positions;
  for (const auto& [from, to] : moves) {
    pred[to].push_back(from);
    ++open_moves[from];
    positions.insert(from);
    positions.insert(to);
  }
  GameOutcome out;
  std::deque<int64_t> lost_queue;
  for (int64_t p : positions) {
    if (open_moves[p] == 0) lost_queue.push_back(p);
  }
  while (!lost_queue.empty()) {
    const int64_t lost = lost_queue.front();
    lost_queue.pop_front();
    if (!out.lost.insert(lost).second) continue;
    for (int64_t w : pred[lost]) {
      if (!out.won.insert(w).second) continue;
      for (int64_t q : pred[w]) {
        if (out.won.count(q) == 0 && --open_moves[q] == 0) {
          lost_queue.push_back(q);
        }
      }
    }
  }
  for (int64_t p : positions) {
    if (out.won.count(p) == 0 && out.lost.count(p) == 0) out.drawn.insert(p);
  }
  return out;
}

}  // namespace perfbench
