#include "awr/datalog/database.h"

#include <cassert>

namespace awr::datalog {

namespace {

// Rows of a word table; 0 in the row layout, to which no round appends.
size_t RowCount(const ValueSet& set) {
  return set.word_arity() != 0 ? set.size() : 0;
}

}  // namespace

std::string Interpretation::ToString() const {
  std::string out;
  for (const auto& [pred, extent] : relations_) {
    out += pred;
    out += " = ";
    extent.AppendTo(&out);
    out += '\n';
  }
  return out;
}

std::string_view TruthToString(Truth t) {
  switch (t) {
    case Truth::kFalse:
      return "false";
    case Truth::kUndefined:
      return "undefined";
    case Truth::kTrue:
      return "true";
  }
  return "?";
}

Interpretation ThreeValuedInterp::UndefinedFacts() const {
  Interpretation out;
  for (const auto& [pred, extent] : possible) {
    for (const Value& fact : extent) {
      if (!certain.Holds(pred, fact)) out.AddFactTuple(pred, fact);
    }
  }
  return out;
}

std::string ThreeValuedInterp::ToString() const {
  std::string out = "certain:\n" + certain.ToString();
  Interpretation undef = UndefinedFacts();
  if (undef.TotalFacts() > 0) {
    out += "undefined:\n";
    out += undef.ToString();
  }
  return out;
}

// ----------------------------------------------------------------------
// Rounds

Rounds::Rounds(Interpretation facts, const Interpretation& delta)
    : facts_(std::move(facts)) {
  // Rebuild each relation as facts minus delta, then append the delta
  // in a round of its own, so that it is the trailing row range again.
  for (const auto& [pred, added] : delta) {
    if (added.empty()) continue;
    ValueSet& set = facts_.MutableExtent(pred);
    ValueSet kept;
    for (const Value& fact : set) {
      if (!added.Contains(fact)) kept.Insert(fact);
    }
    set = std::move(kept);
  }
  BeginRound();
  for (const auto& [pred, added] : delta) {
    if (added.empty()) continue;
    FactSink sink = Sink(pred);
    for (const Value& fact : added) sink.Add(fact);
  }
  EndRound();
}

void Rounds::EndRound() {
  assert(open_);
  open_ = false;
  for (auto it = marks_.begin(); it != marks_.end();) {
    Marks& m = it->second;
    auto rel = facts_.relations_.find(it->first);
    ValueSet& set = rel->second;
    set.ReleaseIndexes();
    const size_t rows = RowCount(set);
    m.begin = m.end;
    m.end = rows;
    m.delta.Clear();
    if (!m.side.empty()) {
      // Merging the side set leaves the relation in the row layout, so
      // the round's facts are kept as a set of their own.
      ValueSet appended;
      if (rows > m.begin) appended = set.CopyRows(m.begin, rows);
      set.InsertAll(m.side);
      if (appended.empty()) {
        m.delta = std::move(m.side);
      } else {
        appended.InsertAll(m.side);
        m.delta = std::move(appended);
      }
      m.side.Clear();
      m.begin = m.end = 0;
    }
    if (m.fresh) {
      if (set.empty()) {
        facts_.relations_.erase(rel);
        it = marks_.erase(it);
        continue;
      }
      m.fresh = false;
    }
    ++it;
  }
}

ExtentRange Rounds::Before(const std::string& pred) const {
  const ValueSet& set = facts_.Extent(pred);
  if (set.word_arity() == 0) return set;
  auto it = marks_.find(pred);
  return it == marks_.end() ? ExtentRange(set)
                            : ExtentRange(set, 0, it->second.end);
}

ExtentRange Rounds::Delta(const std::string& pred) const {
  static const ValueSet kEmpty;
  auto it = marks_.find(pred);
  if (it == marks_.end()) return kEmpty;
  const Marks& m = it->second;
  if (!m.delta.empty()) return m.delta;
  return ExtentRange(facts_.Extent(pred), m.begin, m.end);
}

bool Rounds::HeldBefore(const std::string& pred, const Value& fact) const {
  const ExtentRange before = Before(pred);
  return before.set->ContainsBelow(fact, before.end);
}

FactSink Rounds::Sink(const std::string& pred) {
  assert(open_);
  auto [rel, created] = facts_.relations_.try_emplace(pred);
  ValueSet& set = rel->second;
  auto [it, first_sink] = marks_.try_emplace(pred);
  Marks& m = it->second;
  if (first_sink) m.begin = m.end = RowCount(set);
  if (created) m.fresh = true;
  set.HoldIndexes();
  return FactSink(&set, &m.side);
}

size_t Rounds::delta_size() const {
  size_t n = 0;
  for (const auto& [pred, m] : marks_) n += m.delta.size() + (m.end - m.begin);
  return n;
}

size_t Rounds::ApproxBytes() const {
  size_t n = facts_.ApproxBytes();
  for (const auto& [pred, m] : marks_) {
    n += m.side.approx_bytes();
    if (m.fresh && m.side.empty() && facts_.Extent(pred).empty()) {
      n -= pred.size() + Interpretation::kExtentBytes;
    }
  }
  return n;
}

size_t Rounds::DeltaApproxBytes() const {
  size_t n = 0;
  for (const auto& [pred, m] : marks_) {
    size_t bytes = m.delta.approx_bytes();
    if (m.delta.empty()) {
      if (m.end <= m.begin) continue;
      bytes = facts_.Extent(pred).RangeApproxBytes(m.begin, m.end);
    }
    n += bytes + pred.size() + Interpretation::kExtentBytes;
  }
  return n;
}

Interpretation Rounds::BarrierFacts() const {
  Interpretation out;
  for (const auto& [pred, set] : facts_) {
    auto it = marks_.find(pred);
    if (it == marks_.end()) {
      out.relations_.emplace_hint(out.relations_.end(), pred, set);
    } else if (!it->second.fresh) {
      out.relations_.emplace_hint(out.relations_.end(), pred,
                                  set.CopyRows(0, it->second.end));
    }
  }
  return out;
}

Interpretation Rounds::DeltaFacts() const {
  Interpretation out;
  for (const auto& [pred, m] : marks_) {
    if (!m.delta.empty()) {
      out.relations_.emplace_hint(out.relations_.end(), pred, m.delta);
    } else if (m.end > m.begin) {
      out.relations_.emplace_hint(
          out.relations_.end(), pred,
          facts_.Extent(pred).CopyRows(m.begin, m.end));
    }
  }
  return out;
}

Interpretation Rounds::Take() && {
  assert(!open_);
  return std::move(facts_);
}

}  // namespace awr::datalog
