//===- serve/SyntheticBundle.h - Hand-built constant bundles ---*- C++ -*-===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic, instantly-built v2 bundles for serving tests and the
/// serving benchmark: each of the six models carries a hand-crafted net
/// that always predicts one chosen candidate (zero hidden weights, a
/// large bias on the winning output), so a test can tell *which* bundle
/// answered a query purely from the answer — the observable a hot-swap
/// atomicity test needs. Only the six model sections are hand-built:
/// the header is Brainy::frameBundle's, and the text goes through the
/// same Brainy::parse / CRC validation as a trained bundle; nothing here
/// bypasses the hardened loader.
///
//===----------------------------------------------------------------------===//

#ifndef BRAINY_SERVE_SYNTHETICBUNDLE_H
#define BRAINY_SERVE_SYNTHETICBUNDLE_H

#include "support/Error.h"

#include <string>

namespace brainy {
namespace serve {

/// A complete v2 bundle for machine \p Machine whose six models each
/// always predict candidate index \p WinnerIndex (modulo the model's own
/// candidate count, so every index is valid for every family).
/// \p HiddenUnits sizes the hand-built nets: tests keep the default tiny,
/// the serving benchmark uses the production NetConfig width so the
/// forward pass costs what a trained bundle's does.
std::string syntheticBundleText(const std::string &Machine,
                                const std::string &Tag, unsigned WinnerIndex,
                                unsigned HiddenUnits = 2);

/// Writes syntheticBundleText to \p Path atomically (writeFileAtomic).
Error writeSyntheticBundle(const std::string &Path,
                           const std::string &Machine,
                           const std::string &Tag, unsigned WinnerIndex,
                           unsigned HiddenUnits = 2);

} // namespace serve
} // namespace brainy

#endif // BRAINY_SERVE_SYNTHETICBUNDLE_H
