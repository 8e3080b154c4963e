#include "awr/datalog/database.h"

namespace awr::datalog {

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

}  // namespace awr::datalog
