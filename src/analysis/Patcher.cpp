//===- analysis/Patcher.cpp - Byte-precise source patching ----------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "analysis/Patcher.h"

#include <algorithm>
#include <cstdio>

using namespace brainy;
using namespace brainy::analysis;

namespace {

std::vector<std::string> splitLines(const std::string &Text) {
  std::vector<std::string> Lines;
  size_t B = 0;
  while (B < Text.size()) {
    size_t E = Text.find('\n', B);
    if (E == std::string::npos) {
      Lines.push_back(Text.substr(B));
      break;
    }
    Lines.push_back(Text.substr(B, E - B));
    B = E + 1;
  }
  return Lines;
}

} // namespace

Expected<std::string> brainy::analysis::applyEdits(const std::string &Src,
                                                   std::vector<Edit> Edits) {
  std::sort(Edits.begin(), Edits.end(), [](const Edit &A, const Edit &B) {
    if (A.Begin != B.Begin)
      return A.Begin < B.Begin;
    if (A.End != B.End)
      return A.End < B.End;
    return A.Text < B.Text;
  });
  Edits.erase(std::unique(Edits.begin(), Edits.end(),
                          [](const Edit &A, const Edit &B) {
                            return A.Begin == B.Begin && A.End == B.End &&
                                   A.Text == B.Text;
                          }),
              Edits.end());

  std::string Out;
  size_t Cursor = 0;
  for (const Edit &E : Edits) {
    if (E.Begin > E.End || E.End > Src.size()) {
      char Buf[96];
      std::snprintf(Buf, sizeof(Buf), "edit [%zu, %zu) out of range (%zu)",
                    E.Begin, E.End, Src.size());
      return Error(ErrCode::InvalidValue, Buf);
    }
    if (E.Begin < Cursor) {
      char Buf[96];
      std::snprintf(Buf, sizeof(Buf),
                    "conflicting edits at byte %zu (cursor %zu)", E.Begin,
                    Cursor);
      return Error(ErrCode::InvalidValue, Buf);
    }
    Out.append(Src, Cursor, E.Begin - Cursor);
    Out += E.Text;
    Cursor = E.End;
  }
  Out.append(Src, Cursor, Src.size() - Cursor);
  return Out;
}

std::string brainy::analysis::unifiedDiff(const std::string &Before,
                                          const std::string &After,
                                          const std::string &FromName,
                                          const std::string &ToName) {
  if (Before == After)
    return "";
  std::vector<std::string> A = splitLines(Before);
  std::vector<std::string> B = splitLines(After);

  size_t Pre = 0;
  while (Pre < A.size() && Pre < B.size() && A[Pre] == B[Pre])
    ++Pre;
  size_t Suf = 0;
  while (Suf < A.size() - Pre && Suf < B.size() - Pre &&
         A[A.size() - 1 - Suf] == B[B.size() - 1 - Suf])
    ++Suf;

  constexpr size_t Ctx = 3;
  size_t CtxPre = std::min(Pre, Ctx);
  size_t CtxSuf = std::min(Suf, Ctx);
  size_t ABegin = Pre - CtxPre, AEnd = A.size() - Suf + CtxSuf;
  size_t BBegin = Pre - CtxPre, BEnd = B.size() - Suf + CtxSuf;

  std::string Out = "--- " + FromName + "\n+++ " + ToName + "\n";
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "@@ -%zu,%zu +%zu,%zu @@\n", ABegin + 1,
                AEnd - ABegin, BBegin + 1, BEnd - BBegin);
  Out += Buf;
  for (size_t I = ABegin; I != Pre; ++I)
    Out += " " + A[I] + "\n";
  for (size_t I = Pre; I != A.size() - Suf; ++I)
    Out += "-" + A[I] + "\n";
  for (size_t I = Pre; I != B.size() - Suf; ++I)
    Out += "+" + B[I] + "\n";
  for (size_t I = A.size() - Suf; I != AEnd; ++I)
    Out += " " + A[I] + "\n";
  return Out;
}
