//===- distributed/WireFormat.h - Coordinator/worker protocol --*- C++ -*-===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The message vocabulary and framing of the distributed Phase I protocol
/// (DESIGN.md §10). Every message travels in a length-prefixed,
/// CRC32-framed envelope — the same checksum discipline as the v2 model
/// bundle, so a torn or corrupted stream is detected at the frame layer
/// rather than misparsed:
///
///   [u32 payload length][u32 CRC32(payload)][payload bytes]
///
/// all fixed-width integers little-endian, doubles as their IEEE-754 bit
/// pattern in a u64. The payload's first byte is the MsgKind.
///
/// Conversation shape (one coordinator thread per worker, one request and
/// one reply per chunk):
///
///   coordinator -> worker:  Init, then per chunk EvalChunk, finally
///                           Shutdown.
///   worker -> coordinator:  exactly one ChunkDone per EvalChunk.
///
/// Init re-states the full evaluation context — wire magic, machine
/// model, generator config, winner margin, retry policy, excluded
/// seeds — and each EvalChunk carries the coordinator's measurements for
/// its seeds, so a ChunkDone depends only on Init and its own EvalChunk.
///
/// A CycleRecord travels as [u64 seed][u32 mask][u32 bound mask] and one
/// f64 per mask bit in kind order; the bound mask, a subset of the mask,
/// marks lower bounds from runs the bounded race stopped early.
///
//===----------------------------------------------------------------------===//

#ifndef BRAINY_DISTRIBUTED_WIREFORMAT_H
#define BRAINY_DISTRIBUTED_WIREFORMAT_H

#include "appgen/AppConfig.h"
#include "core/TrainingFramework.h"
#include "distributed/Transport.h"
#include "machine/MachineModel.h"

#include <cstdint>
#include <string>
#include <vector>

namespace brainy {
namespace dist {

/// Protocol identifier carried inside Init. Bump the suffix on any
/// incompatible change.
inline constexpr const char *WireMagic = "brainy-wire-v3";

/// First payload byte of every message.
enum class MsgKind : uint8_t {
  Init = 1,
  EvalChunk,
  ChunkDone,
  Shutdown,
};

/// Coordinator -> worker, once per connection: the full evaluation
/// context.
struct InitMsg {
  MachineConfig Machine;
  AppConfig Config;
  /// Footnote 2's margin: a worker's bounded race caps its runs with it,
  /// so it must be the coordinator's TrainOptions::WinnerMargin.
  double WinnerMargin = 0.05;
  unsigned EvalRetries = 2;
  /// Sorted; mirrors TrainOptions::ExcludeSeeds so a remote evaluation
  /// refuses exactly the seeds a local one would.
  std::vector<uint64_t> ExcludeSeeds;
};

/// Coordinator -> worker: evaluate seeds [BeginSeed, EndSeed), at most
/// PhaseOneChunk of them, against the dispatch-time Wanted snapshot.
/// Known holds the coordinator's measurements for those seeds, in seed
/// order, at most one record per seed; the worker measures only the rest.
struct EvalChunkMsg {
  uint64_t BeginSeed = 0;
  uint64_t EndSeed = 0;
  std::array<bool, NumModelKinds> Wanted{};
  std::vector<CycleRecord> Known;
};

/// Worker -> coordinator: one slot per seed of the chunk in seed order,
/// plus the measurements the worker performed itself (Known excluded), in
/// seed order, for folding into the shared cache.
struct ChunkDoneMsg {
  uint64_t BeginSeed = 0;
  std::vector<SeedEvalResult> Slots;
  std::vector<CycleRecord> Fresh;
};

/// Wraps \p Payload in the length+CRC32 envelope and writes it.
void sendFrame(Transport &T, const std::string &Payload);

/// Reads one frame into \p Out. Returns false on a clean end-of-stream at
/// a frame boundary; throws ErrorException on timeout, truncation inside
/// a frame, an implausible length (BadFormat), or a CRC mismatch
/// (BadChecksum).
bool recvFrame(Transport &T, std::string &Out, int TimeoutMs);

/// The MsgKind of a decoded payload (throws BadFormat when empty or
/// unrecognised).
MsgKind payloadKind(const std::string &Payload);

std::string encodeInit(const InitMsg &M);
std::string encodeEvalChunk(const EvalChunkMsg &M);
std::string encodeChunkDone(const ChunkDoneMsg &M);
std::string encodeShutdown();

/// Decoders throw ErrorException — BadFormat for a wrong kind byte or
/// malformed structure (including an Init machine the simulator cannot
/// run or a negative or non-finite winner margin, a chunk longer than
/// PhaseOneChunk seeds, a cycle record out of seed order or outside its
/// chunk, and one with an empty mask, unknown kind bits or a bound bit
/// outside its mask), Truncated for a payload that ends early, BadMagic
/// when Init carries an unknown wire magic.
InitMsg decodeInit(const std::string &Payload);
EvalChunkMsg decodeEvalChunk(const std::string &Payload);
ChunkDoneMsg decodeChunkDone(const std::string &Payload);

} // namespace dist
} // namespace brainy

#endif // BRAINY_DISTRIBUTED_WIREFORMAT_H
