//===- perfbench/harness/Harness.h - Shared harness helpers -----*- C++ -*-===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include "core/TrainingFramework.h"

#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// `--key value` pairs; a missing required flag exits 2.
struct Args {
  std::map<std::string, std::string> Flags;
  std::string Error;

  static Args parse(int Argc, char **Argv, int Start);
  std::string get(const std::string &Key) const;
  double num(const std::string &Key) const;
};

bool readLines(const std::string &Path, std::vector<std::string> &Out);

brainy::MachineConfig machineNamed(const std::string &Name);

/// The TrainOptions `brainy train --target T --seeds S --jobs J` builds
/// with the default generator config.
brainy::TrainOptions cliTrainOptions(unsigned Target, uint64_t Seeds,
                                     unsigned Jobs);

/// `brainy_perf trace`: the traced layer-by-layer run.
int runTrace(const Args &A);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
