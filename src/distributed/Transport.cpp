//===- distributed/Transport.cpp ------------------------------------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "distributed/Transport.h"

#include "support/Error.h"

#include <cerrno>
#include <cstring>
#include <string>

#include <poll.h>
#include <unistd.h>

using namespace brainy;
using namespace brainy::dist;

namespace {

[[noreturn]] void throwIo(const char *What) {
  throw ErrorException(
      Error(ErrCode::IoError,
            std::string(What) + ": " + std::strerror(errno)));
}

} // namespace

FdTransport::FdTransport(int ReadFd, int WriteFd, bool Owned)
    : ReadFd(ReadFd), WriteFd(WriteFd), Owned(Owned) {}

FdTransport::~FdTransport() {
  if (!Owned)
    return;
  ::close(ReadFd);
  if (WriteFd != ReadFd)
    ::close(WriteFd);
}

void FdTransport::writeAll(const void *Data, size_t Size) {
  const char *P = static_cast<const char *>(Data);
  while (Size) {
    // SIGPIPE is ignored process-wide by the coordinator/worker entry
    // points, so a vanished peer surfaces here as EPIPE, not a signal.
    ssize_t N = ::write(WriteFd, P, Size);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      throwIo("transport write");
    }
    P += N;
    Size -= static_cast<size_t>(N);
  }
}

bool FdTransport::readAll(void *Data, size_t Size, int TimeoutMs) {
  char *P = static_cast<char *>(Data);
  size_t Got = 0;
  while (Got != Size) {
    bool Eof;
    size_t N = readSome(P + Got, Size - Got, TimeoutMs, Eof);
    if (Eof) {
      if (Got == 0)
        return false; // clean end-of-stream between data
      throw ErrorException(
          Error(ErrCode::Truncated,
                "peer closed mid-datum (" + std::to_string(Got) + " of " +
                    std::to_string(Size) + " bytes)"));
    }
    if (N == 0)
      throw ErrorException(
          Error(ErrCode::IoError, "transport read timed out after " +
                                      std::to_string(TimeoutMs) + " ms"));
    Got += N;
  }
  return true;
}

size_t FdTransport::readSome(void *Data, size_t MaxSize, int TimeoutMs,
                             bool &Eof) {
  Eof = false;
  for (;;) {
    struct pollfd Pfd;
    Pfd.fd = ReadFd;
    Pfd.events = POLLIN;
    Pfd.revents = 0;
    int R = ::poll(&Pfd, 1, TimeoutMs);
    if (R < 0) {
      if (errno == EINTR)
        continue;
      throwIo("transport poll");
    }
    if (R == 0)
      return 0; // poll slice elapsed; the caller re-checks its own state
    ssize_t N = ::read(ReadFd, Data, MaxSize);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      throwIo("transport read");
    }
    if (N == 0) {
      Eof = true;
      return 0;
    }
    return static_cast<size_t>(N);
  }
}
