//===- distributed/Tcp.h - TCP transport and listener ----------*- C++ -*-===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cross-host backend of the brainy-wire-v3 protocol (DESIGN.md §13):
/// a socket-backed Transport plus the listening side that `brainy worker
/// --listen HOST:PORT` runs. The protocol layer is untouched — TCP only
/// changes how the byte stream reaches the peer:
///
///  * TcpTransport reuses FdTransport's poll-based read timeouts and
///    EINTR-safe loops, overriding writes to use send(MSG_NOSIGNAL) so a
///    vanished peer surfaces as EPIPE even in processes that never
///    installed the SIGPIPE ignore (defence in depth; the entry points
///    ignore it anyway). TCP_NODELAY is set on every socket: the protocol
///    is strictly request/response with small frames, exactly the shape
///    Nagle's algorithm penalises.
///  * TcpListener owns the bound/listening socket and produces connected
///    TcpTransports; binding port 0 picks an ephemeral port (tests), and
///    accept takes the same poll-based timeout discipline as reads.
///
/// Failure vocabulary matches Transport.h: OS errors and timeouts throw
/// ErrorException(IoError); a refused or timed-out connect is the
/// launcher's cue to back off and retry (Launch.h tcpLauncher).
///
//===----------------------------------------------------------------------===//

#ifndef BRAINY_DISTRIBUTED_TCP_H
#define BRAINY_DISTRIBUTED_TCP_H

#include "distributed/Transport.h"

#include <cstdint>
#include <memory>
#include <string>

namespace brainy {
namespace dist {

/// A parsed "host:port" worker address.
struct TcpEndpoint {
  std::string Host;
  uint16_t Port = 0;
};

/// Parses "host:port" (the port is required; host may be a name or a
/// numeric address). Throws ErrorException(InvalidValue) on a malformed
/// spec — a typo in a fleet list must be a loud usage error, not a worker
/// slot that silently never connects.
TcpEndpoint parseEndpoint(const std::string &Spec);

/// Renders \p Ep back to "host:port" for logs.
std::string endpointName(const TcpEndpoint &Ep);

/// Transport over one connected TCP socket. Reads inherit FdTransport's
/// poll-based timeouts; writes go through send(MSG_NOSIGNAL).
class TcpTransport : public FdTransport {
public:
  /// Wraps an already-connected socket and takes ownership of it.
  /// Sets TCP_NODELAY (best-effort).
  explicit TcpTransport(int SocketFd);

  void writeAll(const void *Data, size_t Size) override;

  /// Half-closes the connection: the peer reads end-of-stream after every
  /// byte written so far, even if this side then closes with input unread
  /// (which resets the connection). Best-effort.
  void shutdownWrite();

  /// Connects to \p Ep, waiting up to \p TimeoutMs for the handshake
  /// (negative = OS default). Throws ErrorException(IoError) on
  /// resolution failure, refusal, or timeout.
  static std::unique_ptr<TcpTransport> connectTo(const TcpEndpoint &Ep,
                                                 int TimeoutMs);

private:
  int SocketFd;
};

/// The accepting side: binds and listens on an endpoint, then produces
/// one TcpTransport per accepted coordinator connection.
class TcpListener {
public:
  /// Binds + listens on \p Ep (Port 0 = ephemeral, see port()). Throws
  /// ErrorException(IoError) when the address cannot be bound.
  explicit TcpListener(const TcpEndpoint &Ep);
  ~TcpListener();

  TcpListener(const TcpListener &) = delete;
  TcpListener &operator=(const TcpListener &) = delete;

  /// The actually-bound port (resolves an ephemeral bind).
  uint16_t port() const { return BoundPort; }

  /// Accepts one connection, waiting up to \p TimeoutMs (negative = wait
  /// forever). Returns null on timeout; throws ErrorException(IoError) on
  /// OS errors.
  std::unique_ptr<TcpTransport> acceptConnection(int TimeoutMs);

private:
  int ListenFd = -1;
  uint16_t BoundPort = 0;
};

} // namespace dist
} // namespace brainy

#endif // BRAINY_DISTRIBUTED_TCP_H
