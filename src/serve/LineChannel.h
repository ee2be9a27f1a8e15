//===- serve/LineChannel.h - Buffered line I/O over a transport -*- C++ -*-===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Newline-delimited framing for the serving protocol (DESIGN.md §15) on
/// top of FdTransport. Reads are sliced with the transport's poll timeout
/// so a connection handler can interleave line reads with server shutdown
/// checks, and a line may be at most MaxLineBytes long, so a peer that
/// never sends '\n' cannot grow the buffer without limit; writes batch
/// whole response groups into one writeAll call.
///
//===----------------------------------------------------------------------===//

#ifndef BRAINY_SERVE_LINECHANNEL_H
#define BRAINY_SERVE_LINECHANNEL_H

#include "distributed/Transport.h"

#include <cstddef>
#include <string>
#include <vector>

namespace brainy {
namespace serve {

/// The longest request line a channel accepts, terminator excluded. A
/// well-formed query line is under 1 KiB.
constexpr size_t MaxLineBytes = 64 * 1024;

/// Buffered reader/writer of '\n'-terminated lines over one FdTransport.
/// Not thread-safe: one channel belongs to one connection handler.
class LineChannel {
public:
  /// What one readLine slice produced.
  enum class ReadStatus {
    Line,    ///< a complete line was delivered
    Timeout, ///< the poll slice elapsed; call again (check shutdown first)
    Eof,     ///< peer closed cleanly; no more lines will arrive
    TooLong, ///< the next line exceeds MaxLineBytes; nothing more is read
  };

  explicit LineChannel(dist::FdTransport &Transport) : Transport(Transport) {}

  /// Waits up to \p TimeoutMs for the next complete line and strips the
  /// terminator (and any '\r' before it) into \p Out. A final unterminated
  /// line before end-of-stream is delivered as a Line, then Eof. Once the
  /// unterminated rest of the buffer exceeds MaxLineBytes, every call
  /// returns TooLong. Bytes already buffered are served without touching
  /// the transport. OS errors throw ErrorException(IoError).
  ReadStatus readLine(std::string &Out, int TimeoutMs);

  /// Drains every complete line already buffered or immediately readable
  /// without blocking, appending to \p Out — the batch-friendly read shape
  /// for pipelined clients. Returns the status of the last probe.
  ReadStatus readAvailableLines(std::vector<std::string> &Out, int TimeoutMs);

  /// Writes \p Line plus the '\n' terminator.
  void writeLine(const std::string &Line);

  /// Writes every line with terminators as one transport write, so a
  /// pipelined response group reaches the socket in a single syscall.
  void writeLines(const std::vector<std::string> &Lines);

private:
  /// Moves one complete (or final unterminated) line out of Buffer.
  bool popLine(std::string &Out);

  dist::FdTransport &Transport;
  std::string Buffer;   ///< bytes received but not yet returned as lines
  bool SawEof = false;  ///< transport reported clean end-of-stream
};

} // namespace serve
} // namespace brainy

#endif // BRAINY_SERVE_LINECHANNEL_H
