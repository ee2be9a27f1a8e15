//===- perfbench/harness/LoadGen.cpp - Open-loop serving load -------------===//

#include "LoadGen.h"
#include "Trace.h"

#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace perfbench;

uint64_t SplitMix::next() {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

double SplitMix::unit() { return double(next() >> 11) * 0x1.0p-53; }

namespace {

/// Mean lines per group: sizes are uniform on 1..8.
constexpr double MeanGroupLines = 4.5;

struct InFlight {
  int64_t DueNs = 0;
  int64_t SentNs = 0; ///< 0 until the line's bytes are fully written
  uint64_t EndByte = 0; ///< stream offset just past the line's newline
  uint32_t Idx = 0;
};

struct Conn {
  int Fd = -1;
  bool Closed = false;
  std::string Out;
  size_t OutOff = 0;
  uint64_t Queued = 0;  ///< bytes ever appended to Out
  uint64_t Written = 0; ///< bytes ever sent
  /// Leading Fifo entries whose bytes are fully written (and stamped). A
  /// line is answered only after it is written, so Drain pops only these.
  size_t Stamped = 0;
  std::string In;
  std::deque<InFlight> Fifo;
};

struct Group {
  int64_t DueNs = 0; ///< relative to the schedule start
  uint32_t Conn = 0;
  uint32_t First = 0; ///< into the flat line-index array
  uint32_t Count = 0;
};

int connectLocal(uint16_t Port, std::string &Err) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0) {
    Err = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    Err = std::string("connect: ") + std::strerror(errno);
    ::close(Fd);
    return -1;
  }
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  ::fcntl(Fd, F_SETFL, ::fcntl(Fd, F_GETFL) | O_NONBLOCK);
  return Fd;
}

} // namespace

LoadResult perfbench::runOpenLoop(const LoadSpec &Spec,
                                  const std::vector<std::string> &Pool,
                                  const std::vector<std::string> &Expect) {
  LoadResult Res;
  if (Pool.empty() || Pool.size() != Expect.size() || Spec.Conns == 0 ||
      Spec.Rate <= 0) {
    Res.Error = "bad load spec";
    return Res;
  }
  // The whole schedule is drawn before the first send.
  std::vector<Group> Groups;
  std::vector<uint32_t> LineIdx;
  {
    SplitMix R(Spec.Seed);
    double GroupRate = Spec.Rate / MeanGroupLines;
    double T = 0;
    for (;;) {
      T += -std::log(1.0 - R.unit()) / GroupRate;
      if (T >= Spec.Seconds)
        break;
      Group G;
      G.DueNs = static_cast<int64_t>(T * 1e9);
      G.Count = 1 + static_cast<uint32_t>(R.next() % 8);
      G.Conn = static_cast<uint32_t>(R.next() % Spec.Conns);
      G.First = static_cast<uint32_t>(LineIdx.size());
      for (uint32_t I = 0; I != G.Count; ++I)
        LineIdx.push_back(static_cast<uint32_t>(R.next() % Pool.size()));
      Groups.push_back(G);
    }
  }

  std::vector<Conn> Conns(Spec.Conns);
  for (Conn &C : Conns) {
    C.Fd = connectLocal(Spec.Port, Res.Error);
    if (C.Fd < 0) {
      for (Conn &D : Conns)
        if (D.Fd >= 0)
          ::close(D.Fd);
      return Res;
    }
  }

  std::vector<double> Lat, Lag;
  Lat.reserve(LineIdx.size());
  Lag.reserve(Groups.size());
  double WriteNs = 0, ReadWaitNs = 0;
  uint64_t Writes = 0, ReadWaits = 0;
  int64_t LastAnswerNs = 0;

  auto Flush = [&](Conn &C) {
    while (C.OutOff < C.Out.size()) {
      int64_t T = nowNs();
      ssize_t N = ::send(C.Fd, C.Out.data() + C.OutOff, C.Out.size() - C.OutOff,
                         MSG_NOSIGNAL | MSG_DONTWAIT);
      int64_t After = nowNs();
      WriteNs += double(After - T);
      ++Writes;
      if (N <= 0) {
        if (N < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)
          C.Closed = true;
        return;
      }
      C.OutOff += static_cast<size_t>(N);
      C.Written += static_cast<uint64_t>(N);
      while (C.Stamped != C.Fifo.size() &&
             C.Fifo[C.Stamped].EndByte <= C.Written)
        C.Fifo[C.Stamped++].SentNs = After;
      if (C.OutOff == C.Out.size()) {
        C.Out.clear();
        C.OutOff = 0;
      }
    }
  };

  auto Drain = [&](Conn &C) {
    char Buf[1 << 16];
    for (;;) {
      ssize_t N = ::recv(C.Fd, Buf, sizeof(Buf), MSG_DONTWAIT);
      if (N == 0) {
        C.Closed = true;
        return;
      }
      if (N < 0) {
        if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)
          C.Closed = true;
        return;
      }
      int64_t T = nowNs();
      C.In.append(Buf, static_cast<size_t>(N));
      size_t Pos = 0;
      for (;;) {
        size_t Eol = C.In.find('\n', Pos);
        if (Eol == std::string::npos)
          break;
        if (C.Fifo.empty()) {
          ++Res.Wrong; // an answer nobody asked for
        } else {
          InFlight F = C.Fifo.front();
          C.Fifo.pop_front();
          if (C.Stamped)
            --C.Stamped;
          const std::string &Want = Expect[F.Idx];
          if (Eol - Pos == Want.size() &&
              C.In.compare(Pos, Want.size(), Want) == 0)
            ++Res.Answered;
          else
            ++Res.Wrong;
          Lat.push_back(double(T - F.DueNs) / 1e6);
          if (F.SentNs) {
            ReadWaitNs += double(T - F.SentNs);
            ++ReadWaits;
          }
          LastAnswerNs = T;
        }
        Pos = Eol + 1;
      }
      C.In.erase(0, Pos);
    }
  };

  const int64_t T0 = nowNs() + 2000000;
  const int64_t Deadline =
      T0 + static_cast<int64_t>((Spec.Seconds + Spec.DrainSeconds) * 1e9);
  size_t Next = 0;
  std::vector<pollfd> Fds(Conns.size());
  for (;;) {
    int64_t Now = nowNs();
    while (Next != Groups.size() && T0 + Groups[Next].DueNs <= Now) {
      const Group &G = Groups[Next++];
      Conn &C = Conns[G.Conn];
      Lag.push_back(double(Now - (T0 + G.DueNs)) / 1e6);
      for (uint32_t I = 0; I != G.Count; ++I) {
        uint32_t Idx = LineIdx[G.First + I];
        C.Out += Pool[Idx];
        C.Out += '\n';
        C.Queued += Pool[Idx].size() + 1;
        C.Fifo.push_back(InFlight{T0 + G.DueNs, 0, C.Queued, Idx});
        ++Res.Sent;
      }
    }
    for (Conn &C : Conns)
      if (!C.Closed)
        Flush(C);
    if (Next == Groups.size()) {
      bool Idle = true;
      for (const Conn &C : Conns)
        Idle = Idle && (C.Closed || C.Fifo.empty());
      if (Idle || Now > Deadline)
        break;
    }
    for (size_t I = 0; I != Conns.size(); ++I) {
      Fds[I].fd = Conns[I].Closed ? -1 : Conns[I].Fd;
      Fds[I].events = POLLIN;
      Fds[I].revents = 0;
    }
    // Busy-poll: the generator has a CPU of its own, and a sleeping
    // client would add its own wake-up time to every latency it measures.
    if (::poll(Fds.data(), Fds.size(), 0) <= 0)
      continue;
    for (size_t I = 0; I != Conns.size(); ++I)
      if (Fds[I].revents & (POLLIN | POLLHUP | POLLERR))
        Drain(Conns[I]);
  }

  for (Conn &C : Conns) {
    Res.Unanswered += C.Fifo.size();
    ::close(C.Fd);
  }
  Res.LatencySamples = Lat.size();
  Res.P50Ms = percentile(Lat, 50);
  Res.P99Ms = percentile(Lat, 99);
  Res.MaxMs = percentile(Lat, 100);
  Res.LagP99Ms = percentile(Lag, 99);
  Res.LagMaxMs = percentile(Lag, 100);
  Res.WriteUs = Writes ? WriteNs / double(Writes) / 1e3 : 0;
  Res.ReadWaitUs = ReadWaits ? ReadWaitNs / double(ReadWaits) / 1e3 : 0;
  if (!Groups.empty() && LastAnswerNs)
    Res.DrainMs = double(LastAnswerNs - (T0 + Groups.back().DueNs)) / 1e6;
  Res.AnsweredQps = double(Res.Answered) / Spec.Seconds;
  return Res;
}
