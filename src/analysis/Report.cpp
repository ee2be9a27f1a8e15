//===- analysis/Report.cpp - brainy check report rendering ----------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "analysis/Report.h"

#include <sstream>

using namespace brainy;
using namespace brainy::analysis;

namespace {

std::string jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size() + 2);
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

std::string verdictWord(const Verdict &V) {
  std::string Out = legalityName(V.Kind);
  if (!V.Reason.empty())
    Out += "(" + V.Reason + ")";
  return Out;
}

template <typename Range, typename Fn>
std::string joinMapped(const Range &R, Fn F) {
  std::string Out;
  for (const auto &E : R) {
    if (!Out.empty())
      Out += ", ";
    Out += F(E);
  }
  return Out;
}

} // namespace

std::string
brainy::analysis::renderText(const std::vector<FileAnalysis> &Files) {
  std::ostringstream OS;
  for (const FileAnalysis &FA : Files) {
    OS << "== " << FA.Path << " ==\n";
    if (!FA.Error.empty()) {
      OS << "  error: " << FA.Error << "\n";
      continue;
    }
    if (FA.Vars.empty()) {
      OS << "  (no container-typed variables found)\n";
      continue;
    }
    for (const VarProfile &V : FA.Vars) {
      OS << "  " << V.Name << " : " << V.Spelling << " (line " << V.Line
         << ", declared " << candidateName(V.Declared) << ")\n";
      OS << "    ops: "
         << (V.Ops.empty()
                 ? std::string("(none observed)")
                 : joinMapped(V.Ops, [](Op O) { return std::string(opName(O)); }))
         << "\n";
      OS << "    requires: "
         << (V.Required.empty() ? std::string("(none)")
                                : joinMapped(V.Required,
                                             [](Property P) {
                                               return std::string(
                                                   propertyName(P));
                                             }))
         << "\n";
      OS << "    verdicts:\n";
      for (Candidate C : allCandidates())
        OS << "      " << candidateName(C) << ": "
           << verdictWord(V.verdictFor(C)) << "\n";
    }
  }
  return OS.str();
}

std::string
brainy::analysis::renderJson(const std::vector<FileAnalysis> &Files) {
  std::ostringstream OS;
  OS << "{\n  \"files\": [\n";
  for (size_t FI = 0; FI != Files.size(); ++FI) {
    const FileAnalysis &FA = Files[FI];
    OS << "    {\n      \"path\": \"" << jsonEscape(FA.Path) << "\",\n";
    if (!FA.Error.empty()) {
      OS << "      \"error\": \"" << jsonEscape(FA.Error) << "\",\n";
      OS << "      \"vars\": []\n";
    } else {
      OS << "      \"vars\": [\n";
      for (size_t VI = 0; VI != FA.Vars.size(); ++VI) {
        const VarProfile &V = FA.Vars[VI];
        OS << "        {\n";
        OS << "          \"name\": \"" << jsonEscape(V.Name) << "\",\n";
        OS << "          \"line\": " << V.Line << ",\n";
        OS << "          \"spelling\": \"" << jsonEscape(V.Spelling)
           << "\",\n";
        OS << "          \"declared\": \"" << candidateName(V.Declared)
           << "\",\n";
        OS << "          \"ops\": ["
           << joinMapped(V.Ops,
                         [](Op O) {
                           return std::string("\"") + opName(O) + "\"";
                         })
           << "],\n";
        OS << "          \"requires\": ["
           << joinMapped(V.Required,
                         [](Property P) {
                           return std::string("\"") + propertyName(P) + "\"";
                         })
           << "],\n";
        OS << "          \"verdicts\": {";
        bool First = true;
        for (Candidate C : allCandidates()) {
          const Verdict &Vd = V.verdictFor(C);
          OS << (First ? "\n" : ",\n");
          First = false;
          OS << "            \"" << candidateName(C)
             << "\": {\"legality\": \"" << legalityName(Vd.Kind) << "\"";
          if (!Vd.Reason.empty())
            OS << ", \"reason\": \"" << jsonEscape(Vd.Reason) << "\"";
          OS << "}";
        }
        OS << "\n          }\n        }" << (VI + 1 == FA.Vars.size() ? "\n" : ",\n");
      }
      OS << "      ]\n";
    }
    OS << "    }" << (FI + 1 == Files.size() ? "\n" : ",\n");
  }
  OS << "  ]\n}\n";
  return OS.str();
}

std::vector<std::string> brainy::analysis::selfConsistencyViolations(
    const std::vector<FileAnalysis> &Files) {
  std::vector<std::string> Out;
  for (const FileAnalysis &FA : Files)
    for (const VarProfile &V : FA.Vars)
      if (V.verdictFor(V.Declared).Kind != Legality::Legal)
        Out.push_back(FA.Path + ":" + std::to_string(V.Line) + " " + V.Name +
                      " (" + candidateName(V.Declared) + ")");
  return Out;
}
