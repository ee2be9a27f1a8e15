//===- analysis/Patcher.h - Byte-precise source patching -------*- C++ -*-===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bottom layer of `brainy apply` (DESIGN.md §14): given byte-span
/// edits computed from lexer token offsets, splice them into the original
/// source and render a unified diff for review; results are written by
/// support/FramedFile's writeFileAtomic. The patcher knows nothing about
/// C++ or containers — overlap detection, dedup, and splicing only — so
/// every policy decision stays in the planner (Rewrite.h) where it can be
/// verified by re-analysis.
///
//===----------------------------------------------------------------------===//

#ifndef BRAINY_ANALYSIS_PATCHER_H
#define BRAINY_ANALYSIS_PATCHER_H

#include "support/Error.h"

#include <cstddef>
#include <string>
#include <vector>

namespace brainy {
namespace analysis {

/// One byte-span replacement: the bytes [Begin, End) of the original
/// source are replaced by Text. Begin == End inserts.
struct Edit {
  size_t Begin = 0;
  size_t End = 0;
  std::string Text;
};

/// Splices \p Edits into \p Src. Edits are sorted by position and exact
/// duplicates are collapsed first (a multi-declarator statement yields
/// one identical type edit per bound variable). Fails with InvalidValue
/// on out-of-range spans and on overlapping or same-span-conflicting
/// edits — a conflict means the planner produced an inconsistent plan,
/// and nothing is emitted.
Expected<std::string> applyEdits(const std::string &Src,
                                 std::vector<Edit> Edits);

/// Renders a unified diff (single hunk, 3 context lines) between
/// \p Before and \p After, labelled `--- FromName` / `+++ ToName`.
/// Returns "" when the texts are byte-identical. Deterministic: common
/// prefix/suffix trimming, no heuristics.
std::string unifiedDiff(const std::string &Before, const std::string &After,
                        const std::string &FromName,
                        const std::string &ToName);

} // namespace analysis
} // namespace brainy

#endif // BRAINY_ANALYSIS_PATCHER_H
