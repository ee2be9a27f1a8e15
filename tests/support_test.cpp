//===- tests/support_test.cpp - support library unit tests ----------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "support/Config.h"
#include "support/Env.h"
#include "support/FaultInjector.h"
#include "support/FramedFile.h"
#include "support/Rng.h"
#include "support/Stats.h"
#include "support/Table.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>

using namespace brainy;

//===----------------------------------------------------------------------===//
// Rng
//===----------------------------------------------------------------------===//

TEST(RngTest, DeterministicForSeed) {
  Rng A(42), B(42);
  for (int I = 0; I != 1000; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng A(1), B(2);
  unsigned Same = 0;
  for (int I = 0; I != 100; ++I)
    Same += A.next() == B.next();
  EXPECT_EQ(Same, 0u);
}

TEST(RngTest, ReseedRestartsStream) {
  Rng A(7);
  uint64_t First = A.next();
  A.next();
  A.reseed(7);
  EXPECT_EQ(A.next(), First);
}

TEST(RngTest, NextBelowInRange) {
  Rng R(3);
  for (uint64_t Bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
    for (int I = 0; I != 500; ++I)
      EXPECT_LT(R.nextBelow(Bound), Bound);
  }
}

TEST(RngTest, NextBelowCoversAllValues) {
  Rng R(11);
  std::set<uint64_t> Seen;
  for (int I = 0; I != 600; ++I)
    Seen.insert(R.nextBelow(8));
  EXPECT_EQ(Seen.size(), 8u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng R(5);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I != 2000; ++I) {
    int64_t V = R.nextInRange(-3, 3);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 3);
    SawLo |= V == -3;
    SawHi |= V == 3;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng R(9);
  double Sum = 0;
  for (int I = 0; I != 10000; ++I) {
    double V = R.nextDouble();
    ASSERT_GE(V, 0.0);
    ASSERT_LT(V, 1.0);
    Sum += V;
  }
  EXPECT_NEAR(Sum / 10000, 0.5, 0.02);
}

TEST(RngTest, NextBoolRespectsProbability) {
  Rng R(13);
  int True1 = 0;
  for (int I = 0; I != 10000; ++I)
    True1 += R.nextBool(0.25);
  EXPECT_NEAR(True1 / 10000.0, 0.25, 0.02);
}

TEST(RngTest, WeightedRespectsWeights) {
  Rng R(17);
  std::vector<double> Weights = {1, 3, 0, 4};
  std::vector<int> Counts(4, 0);
  for (int I = 0; I != 16000; ++I)
    ++Counts[R.nextWeighted(Weights)];
  EXPECT_EQ(Counts[2], 0);
  EXPECT_NEAR(Counts[0] / 16000.0, 1.0 / 8, 0.02);
  EXPECT_NEAR(Counts[1] / 16000.0, 3.0 / 8, 0.02);
  EXPECT_NEAR(Counts[3] / 16000.0, 4.0 / 8, 0.02);
}

TEST(RngTest, WeightedAllZeroFallsBack) {
  Rng R(19);
  std::vector<double> Weights = {0, 0, 0};
  EXPECT_EQ(R.nextWeighted(Weights), 2u);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng R(23);
  std::vector<int> V = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> Orig = V;
  R.shuffle(V);
  std::multiset<int> A(V.begin(), V.end()), B(Orig.begin(), Orig.end());
  EXPECT_EQ(A, B);
}

TEST(RngTest, SplitMix64KnownSequenceIsStable) {
  uint64_t State = 0;
  uint64_t First = splitMix64(State);
  uint64_t Second = splitMix64(State);
  // Regression pin: these values must never change or recorded seeds stop
  // regenerating the same applications.
  EXPECT_EQ(First, 0xe220a8397b1dcdafULL);
  EXPECT_NE(First, Second);
}

//===----------------------------------------------------------------------===//
// Stats
//===----------------------------------------------------------------------===//

TEST(StatsTest, OnlineBasics) {
  OnlineStats S;
  for (double V : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
    S.add(V);
  EXPECT_EQ(S.count(), 8u);
  EXPECT_DOUBLE_EQ(S.mean(), 5.0);
  EXPECT_NEAR(S.stddev(), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(S.min(), 2.0);
  EXPECT_DOUBLE_EQ(S.max(), 9.0);
  EXPECT_DOUBLE_EQ(S.sum(), 40.0);
}

TEST(StatsTest, OnlineEmpty) {
  OnlineStats S;
  EXPECT_EQ(S.count(), 0u);
  EXPECT_EQ(S.mean(), 0.0);
  EXPECT_EQ(S.stddev(), 0.0);
}

TEST(StatsTest, OnlineMergeMatchesCombined) {
  OnlineStats A, B, Combined;
  Rng R(31);
  for (int I = 0; I != 500; ++I) {
    double V = R.nextDouble() * 10;
    (I % 2 ? A : B).add(V);
    Combined.add(V);
  }
  A.merge(B);
  EXPECT_EQ(A.count(), Combined.count());
  EXPECT_NEAR(A.mean(), Combined.mean(), 1e-9);
  EXPECT_NEAR(A.variance(), Combined.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(A.min(), Combined.min());
  EXPECT_DOUBLE_EQ(A.max(), Combined.max());
}

TEST(StatsTest, BatchHelpers) {
  std::vector<double> V = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(mean(V), 2.5);
  EXPECT_NEAR(stddev(V), std::sqrt(1.25), 1e-12);
  EXPECT_NEAR(geomean({1, 4, 16}), 4.0, 1e-9);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(StatsTest, Percentile) {
  std::vector<double> V = {10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(percentile(V, 0), 10);
  EXPECT_DOUBLE_EQ(percentile(V, 100), 50);
  EXPECT_DOUBLE_EQ(percentile(V, 50), 30);
  EXPECT_DOUBLE_EQ(percentile(V, 25), 20);
  EXPECT_DOUBLE_EQ(percentile({7}, 99), 7);
}

TEST(StatsTest, LeastSquaresRecoversCoefficients) {
  // y = 2*x0 - 3*x1 + 0.5*x2, exactly.
  std::vector<std::vector<double>> Rows;
  std::vector<double> Targets;
  Rng R(37);
  for (int I = 0; I != 50; ++I) {
    double X0 = R.nextDouble(), X1 = R.nextDouble(), X2 = R.nextDouble();
    Rows.push_back({X0, X1, X2});
    Targets.push_back(2 * X0 - 3 * X1 + 0.5 * X2);
  }
  std::vector<double> C = leastSquares(Rows, Targets);
  ASSERT_EQ(C.size(), 3u);
  EXPECT_NEAR(C[0], 2.0, 1e-6);
  EXPECT_NEAR(C[1], -3.0, 1e-6);
  EXPECT_NEAR(C[2], 0.5, 1e-6);
}

TEST(StatsTest, LeastSquaresEmptyAndDegenerate) {
  EXPECT_TRUE(leastSquares({}, {}).empty());
  // A constant zero column must not blow up.
  std::vector<std::vector<double>> Rows = {{1, 0}, {2, 0}, {3, 0}};
  std::vector<double> C = leastSquares(Rows, {2, 4, 6});
  ASSERT_EQ(C.size(), 2u);
  EXPECT_NEAR(C[0], 2.0, 1e-6);
}

//===----------------------------------------------------------------------===//
// Config
//===----------------------------------------------------------------------===//

TEST(ConfigTest, ParsesTable2Style) {
  Config C = Config::fromString("TotalInterfCalls = 1000\n"
                                "DataElemSize = {4, 8, 64}\n"
                                "MaxInsertVal = 65536\n"
                                "# a comment\n"
                                "Name = brainy # trailing comment\n");
  EXPECT_FALSE(C.hasErrors());
  EXPECT_EQ(C.getInt("TotalInterfCalls"), 1000);
  EXPECT_EQ(C.getInt("MaxInsertVal"), 65536);
  EXPECT_EQ(C.getString("Name"), "brainy");
  std::vector<int64_t> Sizes = C.getIntList("DataElemSize");
  ASSERT_EQ(Sizes.size(), 3u);
  EXPECT_EQ(Sizes[0], 4);
  EXPECT_EQ(Sizes[2], 64);
}

TEST(ConfigTest, DefaultsForMissingKeys) {
  Config C = Config::fromString("");
  EXPECT_EQ(C.getInt("nope", 7), 7);
  EXPECT_EQ(C.getString("nope", "x"), "x");
  EXPECT_DOUBLE_EQ(C.getDouble("nope", 1.5), 1.5);
  EXPECT_TRUE(C.getIntList("nope", {1}).size() == 1);
}

TEST(ConfigTest, MalformedValuesFallBack) {
  Config C = Config::fromString("A = abc\nB = {1, x}\nC = 1.5.2\n");
  EXPECT_EQ(C.getInt("A", -1), -1);
  EXPECT_TRUE(C.getIntList("B", {}).empty());
  EXPECT_DOUBLE_EQ(C.getDouble("C", 9.0), 9.0);
}

TEST(ConfigTest, ReportsBadLines) {
  Config C = Config::fromString("justtext\n= novalue\n");
  EXPECT_TRUE(C.hasErrors());
  EXPECT_EQ(C.errors().size(), 2u);
}

TEST(ConfigTest, Bools) {
  Config C = Config::fromString("A=true\nB=0\nC=Yes\nD=whatever\n");
  EXPECT_TRUE(C.getBool("A"));
  EXPECT_FALSE(C.getBool("B", true));
  EXPECT_TRUE(C.getBool("C"));
  EXPECT_TRUE(C.getBool("D", true)); // malformed keeps default
}

TEST(ConfigTest, BareIntIsOneElementList) {
  Config C = Config::fromString("A = 42\n");
  std::vector<int64_t> L = C.getIntList("A");
  ASSERT_EQ(L.size(), 1u);
  EXPECT_EQ(L[0], 42);
}

TEST(ConfigTest, SetOverrides) {
  Config C = Config::fromString("A = 1\n");
  C.set("A", "2");
  EXPECT_EQ(C.getInt("A"), 2);
}

TEST(ConfigTest, MissingFileIsError) {
  Config C = Config::fromFile("/nonexistent/brainy.conf");
  EXPECT_TRUE(C.hasErrors());
}

//===----------------------------------------------------------------------===//
// FramedFile
//===----------------------------------------------------------------------===//

namespace {

const char *const TestMagic = "brainy-test";
const char *const TestVersion = "v3";

std::string sampleFrame(const std::string &Payload = "line one\nline two\n") {
  return frame(TestMagic, TestVersion, {{"machine", "core2"}, {"count", "7"}},
               Payload);
}

/// unframe under sampleFrame's keys: the failure's code, Ok on success.
ErrCode unframeCode(const std::string &Text) {
  std::string Machine, Count, Payload;
  return unframe(Text, TestMagic, TestVersion,
                 {{"machine", &Machine}, {"count", &Count}}, Payload)
      .code();
}

std::string tmpPath(const std::string &Name) {
  return ::testing::TempDir() + "brainy_support_" + Name;
}

bool exists(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (F)
    std::fclose(F);
  return F != nullptr;
}

/// Scopes a fault spec on the process-wide injector.
struct FaultGuard {
  explicit FaultGuard(const std::string &Spec) {
    Error E = FaultInjector::instance().configure(Spec);
    EXPECT_FALSE(E) << E.message();
  }
  ~FaultGuard() { FaultInjector::instance().clear(); }
};

} // namespace

TEST(FramedFileTest, RoundTripsFieldsAndPayload) {
  std::string Text = sampleFrame();
  EXPECT_EQ(Text, "brainy-test v3\nmachine core2\ncount 7\n"
                  "payload 18 crc32 75f4d78b\nline one\nline two\n");
  std::string Machine, Count, Payload;
  Error E = unframe(Text, TestMagic, TestVersion,
                    {{"machine", &Machine}, {"count", &Count}}, Payload);
  ASSERT_FALSE(E) << E.message();
  EXPECT_EQ(Machine, "core2");
  EXPECT_EQ(Count, "7");
  EXPECT_EQ(Payload, "line one\nline two\n");

  // No fields, an empty payload: still a complete frame.
  Text = frame(TestMagic, TestVersion, {}, "");
  EXPECT_EQ(Text, "brainy-test v3\npayload 0 crc32 00000000\n");
  ASSERT_FALSE(unframe(Text, TestMagic, TestVersion, {}, Payload));
  EXPECT_EQ(Payload, "");
}

TEST(FramedFileTest, EachDefectHasItsCode) {
  std::string Good = sampleFrame();
  EXPECT_EQ(unframeCode(Good), ErrCode::Ok);
  EXPECT_EQ(unframeCode(""), ErrCode::Truncated);
  EXPECT_EQ(unframeCode("brainy-bundle v3\n"), ErrCode::BadMagic);
  std::string Bad = Good;
  Bad.replace(Bad.find("v3"), 2, "v2");
  EXPECT_EQ(unframeCode(Bad), ErrCode::BadVersion);

  // Cut short in the header, and inside the payload.
  EXPECT_EQ(unframeCode(Good.substr(0, Good.find("count"))),
            ErrCode::Truncated);
  EXPECT_EQ(unframeCode(Good.substr(0, Good.size() - 1)), ErrCode::Truncated);

  // A header line under the wrong key, a malformed payload line, and
  // bytes past the declared payload.
  Bad = Good;
  Bad.replace(Bad.find("count"), 5, "tally");
  EXPECT_EQ(unframeCode(Bad), ErrCode::BadFormat);
  Bad = Good;
  Bad.replace(Bad.find("crc32"), 5, "crc64");
  EXPECT_EQ(unframeCode(Bad), ErrCode::BadFormat);
  EXPECT_EQ(unframeCode(Good + "x"), ErrCode::BadFormat);

  Bad = Good;
  Bad[Bad.size() - 2] ^= 0x01;
  EXPECT_EQ(unframeCode(Bad), ErrCode::BadChecksum);
}

TEST(FramedFileTest, EveryProperPrefixFails) {
  // The empty payload makes the payload line's own terminator the last
  // byte a complete frame needs.
  for (const std::string &Good : {sampleFrame(), sampleFrame("")})
    for (size_t Len = 0; Len != Good.size(); ++Len)
      EXPECT_NE(unframeCode(Good.substr(0, Len)), ErrCode::Ok)
          << "prefix of " << Len << " bytes unframed";
}

TEST(FramedFileTest, WriteFileAtomicReplacesTheFile) {
  std::string Path = tmpPath("atomic.txt");
  ASSERT_FALSE(writeFileAtomic(Path, "first\n"));
  ASSERT_FALSE(writeFileAtomic(Path, "second\n"));
  Expected<std::string> Back = readFile(Path);
  ASSERT_TRUE(Back) << Back.error().message();
  EXPECT_EQ(*Back, "second\n");
  EXPECT_FALSE(exists(Path + ".tmp"));
  std::remove(Path.c_str());
}

TEST(FramedFileTest, IoProbesFailWithoutTouchingTheFile) {
  std::string Path = tmpPath("probed.txt");
  ASSERT_FALSE(writeFileAtomic(Path, "before\n"));
  // At rate 0.5 the write and rename probes fire independently, so some
  // seed fails each one; the injector is a pure hash, so which seeds do
  // is fixed.
  bool SawWrite = false, SawRename = false;
  for (unsigned Seed = 1; Seed != 64 && !(SawWrite && SawRename); ++Seed) {
    Error E;
    {
      FaultGuard Guard("io:0.5:" + std::to_string(Seed));
      E = writeFileAtomic(Path, "after\n");
    }
    if (!E) {
      ASSERT_FALSE(writeFileAtomic(Path, "before\n"));
      continue;
    }
    ASSERT_EQ(E.code(), ErrCode::FaultInjected) << E.message();
    SawWrite |= E.context().rfind("writing", 0) == 0;
    SawRename |= E.context().rfind("renaming", 0) == 0;
    EXPECT_FALSE(exists(Path + ".tmp")) << E.message();
    Expected<std::string> Kept = readFile(Path);
    ASSERT_TRUE(Kept) << Kept.error().message();
    EXPECT_EQ(*Kept, "before\n") << E.message();
  }
  EXPECT_TRUE(SawWrite);
  EXPECT_TRUE(SawRename);

  {
    FaultGuard Guard("io:1:1");
    Expected<std::string> Read = readFile(Path);
    ASSERT_FALSE(Read);
    EXPECT_EQ(Read.error().code(), ErrCode::FaultInjected);
  }
  EXPECT_FALSE(exists(Path + ".tmp"));
  Expected<std::string> Kept = readFile(Path);
  ASSERT_TRUE(Kept);
  EXPECT_EQ(*Kept, "before\n");
  std::remove(Path.c_str());
}

TEST(FramedFileTest, UnreadableFilesAreIoErrors) {
  Expected<std::string> Missing = readFile(tmpPath("does_not_exist.txt"));
  ASSERT_FALSE(Missing);
  EXPECT_EQ(Missing.error().code(), ErrCode::IoError);

  // A directory opens but fails to read: an error, not an empty file.
  Expected<std::string> Dir = readFile(::testing::TempDir());
  ASSERT_FALSE(Dir);
  EXPECT_EQ(Dir.error().code(), ErrCode::IoError);
  EXPECT_TRUE(Config::fromFile(::testing::TempDir()).hasErrors());
}

//===----------------------------------------------------------------------===//
// Table / formatting
//===----------------------------------------------------------------------===//

TEST(TableTest, AlignsColumns) {
  TextTable T;
  T.setHeader({"name", "value"});
  T.addRow({"a", "1"});
  T.addRow({"longer", "22"});
  std::string Out = T.render();
  EXPECT_NE(Out.find("name   | value"), std::string::npos);
  EXPECT_NE(Out.find("longer | 22"), std::string::npos);
  EXPECT_NE(Out.find("------"), std::string::npos);
}

TEST(TableTest, RaggedRows) {
  TextTable T;
  T.setHeader({"a", "b", "c"});
  T.addRow({"1"});
  std::string Out = T.render();
  EXPECT_NE(Out.find('1'), std::string::npos);
  EXPECT_EQ(T.rowCount(), 1u);
}

TEST(TableTest, FormatHelpers) {
  EXPECT_EQ(formatStr("%d-%s", 4, "x"), "4-x");
  EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(formatPercent(0.27), "27.00%");
}

//===----------------------------------------------------------------------===//
// Env
//===----------------------------------------------------------------------===//

TEST(EnvTest, ScaleDefaultsAndParses) {
  unsetenv("BRAINY_SCALE");
  EXPECT_DOUBLE_EQ(experimentScale(), 1.0);
  setenv("BRAINY_SCALE", "2.5", 1);
  EXPECT_DOUBLE_EQ(experimentScale(), 2.5);
  EXPECT_EQ(scaledCount(10), 25u);
  setenv("BRAINY_SCALE", "-3", 1);
  EXPECT_DOUBLE_EQ(experimentScale(), 1.0);
  setenv("BRAINY_SCALE", "0.001", 1);
  EXPECT_EQ(scaledCount(100, 5), 5u); // clamped to Min
  unsetenv("BRAINY_SCALE");
}
