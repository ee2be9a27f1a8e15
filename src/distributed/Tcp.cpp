//===- distributed/Tcp.cpp ------------------------------------------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "distributed/Tcp.h"

#include "support/Error.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

using namespace brainy;
using namespace brainy::dist;

namespace {

[[noreturn]] void throwIo(const std::string &What) {
  throw ErrorException(
      Error(ErrCode::IoError, What + ": " + std::strerror(errno)));
}

/// Best-effort: Nagle only hurts this strictly request/response protocol,
/// but a kernel that refuses the option does not break correctness.
void setNoDelay(int Fd) {
  int One = 1;
  (void)::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
}

/// RAII for a getaddrinfo result list.
struct AddrList {
  struct addrinfo *Head = nullptr;
  AddrList() = default;
  AddrList(const AddrList &) = delete;
  AddrList &operator=(const AddrList &) = delete;
  ~AddrList() {
    if (Head)
      ::freeaddrinfo(Head);
  }
};

/// Resolves \p Ep into \p Out (passive = for bind). Throws
/// ErrorException(IoError) on resolution failure.
void resolve(const TcpEndpoint &Ep, bool Passive, AddrList &Out) {
  struct addrinfo Hints;
  std::memset(&Hints, 0, sizeof(Hints));
  Hints.ai_family = AF_UNSPEC;
  Hints.ai_socktype = SOCK_STREAM;
  Hints.ai_flags = Passive ? AI_PASSIVE : 0;
  char PortText[8];
  std::snprintf(PortText, sizeof(PortText), "%u", Ep.Port);
  int GaiErr = ::getaddrinfo(Ep.Host.c_str(), PortText, &Hints, &Out.Head);
  if (GaiErr != 0)
    throw ErrorException(Error(ErrCode::IoError,
                               "resolving '" + endpointName(Ep) +
                                   "': " + ::gai_strerror(GaiErr)));
}

} // namespace

TcpEndpoint dist::parseEndpoint(const std::string &Spec) {
  // Split on the last colon, so a future bracketed-IPv6 host keeps its
  // internal colons on the host side of a "host:port" spec.
  size_t Colon = Spec.rfind(':');
  if (Colon == std::string::npos || Colon == 0 || Colon + 1 == Spec.size())
    throw ErrorException(Error(ErrCode::InvalidValue,
                               "'" + Spec + "': expected HOST:PORT"));
  TcpEndpoint Ep;
  Ep.Host = Spec.substr(0, Colon);
  std::string PortText = Spec.substr(Colon + 1);
  errno = 0;
  char *End = nullptr;
  unsigned long Port = std::strtoul(PortText.c_str(), &End, 10);
  if (End == PortText.c_str() || *End != '\0' || errno != 0 || Port > 65535)
    throw ErrorException(Error(ErrCode::OutOfRange,
                               "'" + Spec + "': port '" + PortText +
                                   "' not in [0, 65535]"));
  Ep.Port = static_cast<uint16_t>(Port);
  return Ep;
}

std::string dist::endpointName(const TcpEndpoint &Ep) {
  return Ep.Host + ":" + std::to_string(Ep.Port);
}

TcpTransport::TcpTransport(int SocketFd)
    : FdTransport(SocketFd, SocketFd, /*Owned=*/true), SocketFd(SocketFd) {
  setNoDelay(SocketFd);
}

void TcpTransport::writeAll(const void *Data, size_t Size) {
  const char *P = static_cast<const char *>(Data);
  while (Size) {
    // MSG_NOSIGNAL: a vanished peer is EPIPE here even if this process
    // never installed the entry-point SIGPIPE ignore.
    ssize_t N = ::send(SocketFd, P, Size, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      throwIo("tcp send");
    }
    P += N;
    Size -= static_cast<size_t>(N);
  }
}

void TcpTransport::shutdownWrite() { ::shutdown(SocketFd, SHUT_WR); }

std::unique_ptr<TcpTransport> TcpTransport::connectTo(const TcpEndpoint &Ep,
                                                      int TimeoutMs) {
  AddrList List;
  resolve(Ep, /*Passive=*/false, List);
  std::string LastError = "no usable addresses";
  for (struct addrinfo *Ai = List.Head; Ai; Ai = Ai->ai_next) {
    int Fd = ::socket(Ai->ai_family, Ai->ai_socktype, Ai->ai_protocol);
    if (Fd < 0) {
      LastError = std::strerror(errno);
      continue;
    }
    // Non-blocking connect + poll, so a black-holed host costs TimeoutMs,
    // not the OS's multi-minute default.
    int Flags = ::fcntl(Fd, F_GETFL, 0);
    if (Flags < 0 || ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK) < 0) {
      LastError = std::strerror(errno);
      ::close(Fd);
      continue;
    }
    bool Ok = ::connect(Fd, Ai->ai_addr, Ai->ai_addrlen) == 0;
    if (!Ok && errno == EINPROGRESS) {
      struct pollfd Pfd;
      Pfd.fd = Fd;
      Pfd.events = POLLOUT;
      Pfd.revents = 0;
      int R;
      while ((R = ::poll(&Pfd, 1, TimeoutMs)) < 0 && errno == EINTR) {
      }
      if (R == 0) {
        LastError = "connect timed out";
      } else if (R < 0) {
        LastError = std::strerror(errno);
      } else {
        int SoErr = 0;
        socklen_t Len = sizeof(SoErr);
        if (::getsockopt(Fd, SOL_SOCKET, SO_ERROR, &SoErr, &Len) < 0)
          SoErr = errno;
        if (SoErr == 0)
          Ok = true;
        else
          LastError = std::strerror(SoErr);
      }
    } else if (!Ok) {
      LastError = std::strerror(errno);
    }
    if (!Ok || ::fcntl(Fd, F_SETFL, Flags) < 0) {
      if (Ok)
        LastError = std::strerror(errno);
      ::close(Fd);
      continue;
    }
    return std::make_unique<TcpTransport>(Fd);
  }
  throw ErrorException(Error(ErrCode::IoError, "connecting to '" +
                                                   endpointName(Ep) +
                                                   "': " + LastError));
}

TcpListener::TcpListener(const TcpEndpoint &Ep) {
  AddrList List;
  resolve(Ep, /*Passive=*/true, List);
  std::string LastError = "no usable addresses";
  for (struct addrinfo *Ai = List.Head; Ai; Ai = Ai->ai_next) {
    int Fd = ::socket(Ai->ai_family, Ai->ai_socktype, Ai->ai_protocol);
    if (Fd < 0) {
      LastError = std::strerror(errno);
      continue;
    }
    // SO_REUSEADDR: a restarted worker must rebind its port without
    // waiting out TIME_WAIT from its previous life.
    int One = 1;
    (void)::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
    if (::bind(Fd, Ai->ai_addr, Ai->ai_addrlen) != 0 ||
        ::listen(Fd, /*backlog=*/16) != 0) {
      LastError = std::strerror(errno);
      ::close(Fd);
      continue;
    }
    ListenFd = Fd;
    break;
  }
  if (ListenFd < 0)
    throw ErrorException(Error(ErrCode::IoError, "listening on '" +
                                                     endpointName(Ep) +
                                                     "': " + LastError));
  // Resolve an ephemeral bind (port 0) to the port the kernel picked.
  struct sockaddr_storage Ss;
  socklen_t Len = sizeof(Ss);
  std::memset(&Ss, 0, sizeof(Ss));
  if (::getsockname(ListenFd, reinterpret_cast<struct sockaddr *>(&Ss),
                    &Len) == 0) {
    if (Ss.ss_family == AF_INET)
      BoundPort =
          ntohs(reinterpret_cast<struct sockaddr_in *>(&Ss)->sin_port);
    else if (Ss.ss_family == AF_INET6)
      BoundPort =
          ntohs(reinterpret_cast<struct sockaddr_in6 *>(&Ss)->sin6_port);
  }
  if (BoundPort == 0)
    BoundPort = Ep.Port;
}

TcpListener::~TcpListener() {
  if (ListenFd >= 0)
    ::close(ListenFd);
}

std::unique_ptr<TcpTransport> TcpListener::acceptConnection(int TimeoutMs) {
  while (true) {
    struct pollfd Pfd;
    Pfd.fd = ListenFd;
    Pfd.events = POLLIN;
    Pfd.revents = 0;
    int R = ::poll(&Pfd, 1, TimeoutMs);
    if (R < 0) {
      if (errno == EINTR)
        continue;
      throwIo("listener poll");
    }
    if (R == 0)
      return nullptr;
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      // A connection that died in the backlog is the peer's problem.
      if (errno == EINTR || errno == ECONNABORTED)
        continue;
      throwIo("accept");
    }
    return std::make_unique<TcpTransport>(Fd);
  }
}
