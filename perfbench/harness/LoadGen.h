//===- perfbench/harness/LoadGen.h - Open-loop serving load -----*- C++ -*-===//
//
// An open-loop client for `brainy serve`: request groups arrive on a
// Poisson schedule fixed in advance from the seed, whatever the server's
// pace, so a stall shows up as queueing rather than as a slower client.
// One thread drives every connection through non-blocking sockets and
// busy-polls them, so it expects a CPU of its own. Each group holds 1-8
// pipelined query lines drawn from a pool; every response is compared
// byte for byte with the pool's reference answer, and each line's latency
// runs from the moment its group was due, not from when it was actually
// written.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LOADGEN_H
#define PERFBENCH_LOADGEN_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct LoadSpec {
  uint16_t Port = 0;
  double Rate = 1000;   ///< query lines per second
  double Seconds = 1;   ///< length of the send schedule
  unsigned Conns = 1;   ///< connections, each its own pipelined stream
  uint64_t Seed = 1;
  double DrainSeconds = 5; ///< wait for answers after the last send
};

struct LoadResult {
  uint64_t Sent = 0;       ///< lines sent
  uint64_t Answered = 0;   ///< lines answered with the reference bytes
  uint64_t Wrong = 0;      ///< lines answered with other bytes
  uint64_t Unanswered = 0; ///< lines without an answer by the deadline
  double P50Ms = 0, P99Ms = 0, MaxMs = 0; ///< latency from due time
  uint64_t LatencySamples = 0;
  double LagP99Ms = 0, LagMaxMs = 0; ///< how late groups left the generator
  double WriteUs = 0;     ///< mean duration of one send() call
  double ReadWaitUs = 0;  ///< mean time from a line's send to its answer
  double DrainMs = 0;     ///< last answer minus last due time
  double AnsweredQps = 0; ///< answered lines / schedule length
  std::string Error;      ///< non-empty: connection could not be made
};

/// Runs one open-loop phase against 127.0.0.1:\p Spec.Port. \p Expect[i]
/// is the reference response to \p Pool[i].
LoadResult runOpenLoop(const LoadSpec &Spec,
                       const std::vector<std::string> &Pool,
                       const std::vector<std::string> &Expect);

/// The benchmark's own generator (splitmix64), independent of the
/// program's RNG so that inputs never change with the code under test.
struct SplitMix {
  uint64_t State;
  explicit SplitMix(uint64_t Seed) : State(Seed) {}
  uint64_t next();
  double unit(); ///< [0, 1)
};

} // namespace perfbench

#endif // PERFBENCH_LOADGEN_H
