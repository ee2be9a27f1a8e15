//===- serve/Pipeline.h - Batched query answering ---------------*- C++ -*-===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The request pipeline (DESIGN.md §15): parse a group of request lines,
/// route the well-formed queries to their (arch, model family) buckets —
/// one registry lookup per arch per group — and answer each bucket with a
/// single Brainy::recommendBatch forward pass. Responses come back in
/// input order, so callers never re-correlate.
///
/// The same function answers both faces of the tool: the server's
/// dispatcher hands it the lines drained from all connections, and the
/// one-shot `brainy recommend --queries` CLI hands it a whole file. The
/// byte-match CI gate rests on this sharing — and on the batched forward
/// pass being bit-identical to the scalar one (NeuralNet.h), which is why
/// a server at MaxBatch 1 answers the same bytes as one at 256.
///
//===----------------------------------------------------------------------===//

#ifndef BRAINY_SERVE_PIPELINE_H
#define BRAINY_SERVE_PIPELINE_H

#include "core/Recommend.h"
#include "serve/ModelRegistry.h"

#include <string>
#include <vector>

namespace brainy {
namespace serve {

/// Answers \p Lines against \p Registry, one response line per request
/// line, in input order. Malformed lines and unknown arches produce
/// stable error lines (renderRecommendError) instead of aborting the
/// group. Every production caller passes \p Batched = true, the
/// matrix-matrix recommendBatch path. false answers query-by-query
/// through the scalar path; it remains only as the per-query reference
/// that serve_test compares the batched answers against.
std::vector<std::string> answerRequestLines(const ModelRegistry &Registry,
                                            const std::vector<std::string> &Lines,
                                            bool Batched);

} // namespace serve
} // namespace brainy

#endif // BRAINY_SERVE_PIPELINE_H
