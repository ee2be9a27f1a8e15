//===- profile/TraceFile.cpp ----------------------------------------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "profile/TraceFile.h"

#include "support/FramedFile.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

using namespace brainy;

std::string
brainy::trainingSetToString(const std::vector<TrainExample> &Examples) {
  std::string Out;
  char Buf[64];
  for (const TrainExample &Ex : Examples) {
    Out += dsKindName(Ex.BestDs);
    std::snprintf(Buf, sizeof(Buf), "\t%llu\t",
                  static_cast<unsigned long long>(Ex.Seed));
    Out += Buf;
    Out += Ex.Features.toTsv();
    Out += '\n';
  }
  return Out;
}

bool brainy::trainingSetFromString(const std::string &Text,
                                   std::vector<TrainExample> &Examples) {
  size_t Pos = 0;
  bool Ok = true;
  while (Pos < Text.size()) {
    size_t Eol = Text.find('\n', Pos);
    if (Eol == std::string::npos)
      Eol = Text.size();
    std::string Line = Text.substr(Pos, Eol - Pos);
    Pos = Eol + 1;
    if (Line.empty())
      continue;

    size_t Tab1 = Line.find('\t');
    if (Tab1 == std::string::npos) {
      Ok = false;
      continue;
    }
    size_t Tab2 = Line.find('\t', Tab1 + 1);
    if (Tab2 == std::string::npos) {
      Ok = false;
      continue;
    }
    TrainExample Ex;
    std::string Label = Line.substr(0, Tab1);
    if (!dsKindFromName(Label.c_str(), Ex.BestDs)) {
      Ok = false;
      continue;
    }
    const char *SeedBegin = Line.c_str() + Tab1 + 1;
    char *SeedEnd = nullptr;
    errno = 0;
    Ex.Seed = std::strtoull(SeedBegin, &SeedEnd, 10);
    // The seed field must be exactly the digits between the two tabs.
    if (SeedEnd == SeedBegin || errno == ERANGE ||
        SeedEnd != Line.c_str() + Tab2) {
      Ok = false;
      continue;
    }
    if (!FeatureVector::fromTsv(Line.substr(Tab2 + 1), Ex.Features)) {
      Ok = false;
      continue;
    }
    Examples.push_back(Ex);
  }
  return Ok;
}

bool brainy::writeTrainingSet(const std::string &Path,
                              const std::vector<TrainExample> &Examples) {
  return !writeFileAtomic(Path, trainingSetToString(Examples));
}

bool brainy::readTrainingSet(const std::string &Path,
                             std::vector<TrainExample> &Examples) {
  Expected<std::string> Text = readFile(Path);
  return Text && trainingSetFromString(*Text, Examples);
}
