//===- serve/SyntheticBundle.cpp ------------------------------------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "serve/SyntheticBundle.h"

#include "adt/DsKind.h"
#include "core/Brainy.h"
#include "profile/Features.h"
#include "support/FramedFile.h"

#include <cstdio>
#include <vector>

using namespace brainy;
using namespace brainy::serve;

namespace {

/// One model section predicting candidate \p Winner unconditionally:
/// all-zero hidden weights make every hidden activation tanh(0) = 0, and a
/// +10 bias on the winning output dominates the softmax for any input.
std::string syntheticModelText(ModelKind Kind, unsigned WinnerIndex,
                               unsigned NumHidden) {
  std::vector<DsKind> Candidates = modelCandidates(Kind);
  const unsigned NumOut = static_cast<unsigned>(Candidates.size());
  const unsigned Winner = WinnerIndex % NumOut;

  std::string Out = "brainy-model v1\n";
  Out += "model ";
  Out += modelKindName(Kind);
  Out += '\n';
  Out += "candidates";
  for (DsKind C : Candidates) {
    Out += ' ';
    Out += dsKindName(C);
  }
  Out += '\n';
  Out += "weights";
  for (unsigned I = 0; I != NumFeatures; ++I)
    Out += " 1";
  Out += '\n';
  Out += "trained 1\n";

  // Identity normalizer: mean 0, std 1 per feature.
  Out += "normalizer\n";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%u\n", NumFeatures);
  Out += Buf;
  for (unsigned I = 0; I != NumFeatures; ++I)
    Out += "0 1\n";

  // Net text: "NumIn NumHidden NumOut\n" then W1 row-major (bias last per
  // row), then W2 the same way.
  Out += "net\n";
  std::snprintf(Buf, sizeof(Buf), "%u %u %u\n", NumFeatures, NumHidden,
                NumOut);
  Out += Buf;
  for (unsigned I = 0; I != NumHidden * (NumFeatures + 1); ++I)
    Out += "0\n";
  for (unsigned O = 0; O != NumOut; ++O)
    for (unsigned H = 0; H != NumHidden + 1; ++H)
      Out += (H == NumHidden && O == Winner) ? "10\n" : "0\n";
  Out += "end-model\n";
  return Out;
}

} // namespace

std::string serve::syntheticBundleText(const std::string &Machine,
                                       const std::string &Tag,
                                       unsigned WinnerIndex,
                                       unsigned HiddenUnits) {
  std::string Payload;
  for (unsigned I = 0; I != NumModelKinds; ++I)
    Payload += syntheticModelText(static_cast<ModelKind>(I), WinnerIndex,
                                  HiddenUnits);
  return Brainy::frameBundle(Machine, Tag, Payload);
}

Error serve::writeSyntheticBundle(const std::string &Path,
                                  const std::string &Machine,
                                  const std::string &Tag,
                                  unsigned WinnerIndex,
                                  unsigned HiddenUnits) {
  return writeFileAtomic(
      Path, syntheticBundleText(Machine, Tag, WinnerIndex, HiddenUnits));
}
