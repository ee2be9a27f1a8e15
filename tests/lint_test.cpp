//===- tests/lint_test.cpp - brainy-lint rule engine self-test ------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
// Fixture-based self-test of the invariant checker: every rule must fire
// on a seeded violation, stay quiet on the matching clean shape, honour
// its allowed zones, and obey inline suppressions. Violations live inside
// string literals here, which doubles as a test of the property that makes
// that safe: the linter's lexer strips literals before rules run, so this
// file itself scans clean under the tree-wide gate.
//
//===----------------------------------------------------------------------===//

#include "Lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

using namespace brainy::lint;

namespace {

std::vector<std::string> firedRules(const std::string &Path,
                                    const std::string &Content) {
  std::vector<std::string> Names;
  for (const Diag &D : lintSource(Path, Content))
    Names.push_back(D.RuleName);
  return Names;
}

bool fires(const std::string &Path, const std::string &Content,
           const std::string &Rule) {
  auto Names = firedRules(Path, Content);
  return std::find(Names.begin(), Names.end(), Rule) != Names.end();
}

} // namespace

//===----------------------------------------------------------------------===//
// Catalogue sanity
//===----------------------------------------------------------------------===//

TEST(LintCatalogue, TenRulesWithStableUniqueIds) {
  const auto &Rules = rules();
  ASSERT_EQ(Rules.size(), 10u);
  std::set<std::string> Ids, Names;
  for (const Rule &R : Rules) {
    Ids.insert(R.Id);
    Names.insert(R.Name);
  }
  EXPECT_EQ(Ids.size(), Rules.size());
  EXPECT_EQ(Names.size(), Rules.size());
  EXPECT_EQ(Rules.front().Id, std::string("BL001"));
  EXPECT_TRUE(Ids.count("BL008"));
  EXPECT_TRUE(Ids.count("BL009"));
  EXPECT_TRUE(Ids.count("BL010"));
}

TEST(LintCatalogue, DiagFormatIsFileLineRule) {
  Diag D{"src/x.cpp", 12, "BL004", "naked-new", "msg"};
  EXPECT_EQ(format(D), "src/x.cpp:12: error: [BL004 naked-new] msg");
}

//===----------------------------------------------------------------------===//
// BL001 nondet-rand
//===----------------------------------------------------------------------===//

TEST(LintNondetRand, FiresOnRandAndRandomDevice) {
  std::string Fixture = "int f() { return rand(); }\n"
                        "std::random_device Dev;\n";
  auto Names = firedRules("src/core/bad.cpp", Fixture);
  EXPECT_EQ(std::count(Names.begin(), Names.end(), "nondet-rand"), 2);
}

TEST(LintNondetRand, FiresOnRandomHeaderInclude) {
  EXPECT_TRUE(fires("src/ml/bad.cpp", "#include <random>\n", "nondet-rand"));
}

TEST(LintNondetRand, AllowedInsideRngShim) {
  std::string Fixture = "#include <random>\nstd::mt19937 G;\n";
  EXPECT_FALSE(fires("src/support/Rng.cpp", Fixture, "nondet-rand"));
  EXPECT_TRUE(fires("src/support/Env.cpp", Fixture, "nondet-rand"));
}

TEST(LintNondetRand, IgnoresBannedNamesInStringsAndComments) {
  std::string Fixture = "const char *Doc = \"uses rand() and mt19937\";\n"
                        "// rand() is banned, random_device too\n";
  EXPECT_FALSE(fires("src/core/ok.cpp", Fixture, "nondet-rand"));
}

//===----------------------------------------------------------------------===//
// BL002 wall-clock
//===----------------------------------------------------------------------===//

TEST(LintWallClock, FiresOnChronoClockAndTimeCall) {
  std::string Fixture =
      "auto T = std::chrono::steady_clock::now();\n"
      "long S = time(nullptr);\n";
  auto Names = firedRules("src/core/bad.cpp", Fixture);
  EXPECT_EQ(std::count(Names.begin(), Names.end(), "wall-clock"), 2);
}

TEST(LintWallClock, FiresOnChronoInclude) {
  EXPECT_TRUE(fires("src/core/bad.cpp", "#include <chrono>\n", "wall-clock"));
}

TEST(LintWallClock, AllowedInsideTimerShim) {
  std::string Fixture = "#include <chrono>\n"
                        "auto Now = std::chrono::steady_clock::now();\n";
  EXPECT_FALSE(fires("src/support/Timer.h", Fixture, "wall-clock"));
}

TEST(LintWallClock, TimeAsPlainIdentifierIsFine) {
  // `time` only counts when called; variables named Time/time don't fire.
  EXPECT_FALSE(
      fires("src/core/ok.cpp", "double time = 0; use(time);\n",
            "wall-clock"));
}

TEST(LintWallClock, EmittedCodeInStringLiteralsIsFine) {
  // The CppEmitter shape: generated *applications* may time themselves.
  std::string Fixture =
      "Out += \"  auto Start = std::chrono::steady_clock::now();\\n\";\n";
  EXPECT_FALSE(fires("src/appgen/CppEmitter.cpp", Fixture, "wall-clock"));
}

//===----------------------------------------------------------------------===//
// BL003 unordered-iter
//===----------------------------------------------------------------------===//

TEST(LintUnorderedIter, FiresOnRangeForOverUnorderedMember) {
  std::string Fixture =
      "std::unordered_map<uint64_t, int> Fresh;\n"
      "void merge() {\n"
      "  for (auto &KV : Fresh) use(KV);\n"
      "}\n";
  auto Diags = lintSource("src/core/bad.cpp", Fixture);
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_EQ(Diags[0].RuleName, "unordered-iter");
  EXPECT_EQ(Diags[0].Line, 3u);
}

TEST(LintUnorderedIter, FiresOnExplicitBeginIterator) {
  std::string Fixture =
      "std::unordered_set<int> Seen;\n"
      "auto It = Seen.begin();\n";
  EXPECT_TRUE(fires("src/core/bad.h", Fixture, "unordered-iter"));
}

TEST(LintUnorderedIter, FindAndEndSentinelAreFine) {
  std::string Fixture =
      "std::unordered_map<uint64_t, int> Map;\n"
      "bool has(uint64_t K) { return Map.find(K) != Map.end(); }\n";
  EXPECT_FALSE(fires("src/core/ok.h", Fixture, "unordered-iter"));
}

TEST(LintUnorderedIter, OrderedMapIterationIsFine) {
  std::string Fixture = "std::map<int, int> M;\n"
                        "void f() { for (auto &KV : M) use(KV); }\n";
  EXPECT_FALSE(fires("src/core/ok.h", Fixture, "unordered-iter"));
}

TEST(LintUnorderedIter, TestsAndBenchesAreExemptZones) {
  std::string Fixture =
      "std::unordered_set<int> Seen;\n"
      "void f() { for (int V : Seen) use(V); }\n";
  EXPECT_FALSE(fires("tests/some_test.cpp", Fixture, "unordered-iter"));
  EXPECT_FALSE(fires("bench/some_bench.cpp", Fixture, "unordered-iter"));
  EXPECT_TRUE(fires("src/core/x.cpp", Fixture, "unordered-iter"));
}

//===----------------------------------------------------------------------===//
// BL004 naked-new
//===----------------------------------------------------------------------===//

TEST(LintNakedNew, FiresOnNewAndDelete) {
  std::string Fixture = "int *P = new int(3);\n"
                        "void f(int *P) { delete P; }\n";
  auto Names = firedRules("src/ml/bad.cpp", Fixture);
  EXPECT_EQ(std::count(Names.begin(), Names.end(), "naked-new"), 2);
}

TEST(LintNakedNew, DeletedFunctionsAndOperatorOverloadsAreFine) {
  std::string Fixture =
      "struct S {\n"
      "  S(const S &) = delete;\n"
      "  void *operator new(size_t);\n"
      "  void operator delete(void *);\n"
      "};\n";
  EXPECT_FALSE(fires("src/support/ok.h", Fixture, "naked-new"));
}

TEST(LintNakedNew, AllowedInsideContainerSubstrate) {
  std::string Fixture = "Node *N = new Node{};\nvoid f(Node *N) { delete N; }\n";
  EXPECT_FALSE(
      fires("src/containers/List.cpp", Fixture, "naked-new"));
  EXPECT_TRUE(fires("src/core/List.cpp", Fixture, "naked-new"));
}

//===----------------------------------------------------------------------===//
// BL005 catch-all
//===----------------------------------------------------------------------===//

TEST(LintCatchAll, FiresOnSilentSwallow) {
  std::string Fixture = "void f() {\n"
                        "  try { g(); } catch (...) { Count++; }\n"
                        "}\n";
  EXPECT_TRUE(fires("src/core/bad.cpp", Fixture, "catch-all"));
}

TEST(LintCatchAll, RethrowOrCaptureOrErrorConversionIsFine) {
  std::string Rethrow = "void f() { try { g(); } catch (...) { throw; } }\n";
  std::string Capture =
      "void f() { try { g(); } catch (...) { E = std::current_exception(); } }\n";
  std::string Convert =
      "void f() { try { g(); } catch (...) {\n"
      "  return Error(ErrCode::EvalFailed, \"eval\"); } }\n";
  EXPECT_FALSE(fires("src/core/ok.cpp", Rethrow, "catch-all"));
  EXPECT_FALSE(fires("src/core/ok.cpp", Capture, "catch-all"));
  EXPECT_FALSE(fires("src/core/ok.cpp", Convert, "catch-all"));
}

TEST(LintCatchAll, TypedCatchIsFine) {
  std::string Fixture =
      "void f() { try { g(); } catch (const std::exception &E) { log(E); } }\n";
  EXPECT_FALSE(fires("src/core/ok.cpp", Fixture, "catch-all"));
}

//===----------------------------------------------------------------------===//
// BL006 header-guard
//===----------------------------------------------------------------------===//

TEST(LintHeaderGuard, FiresOnGuardlessHeader) {
  EXPECT_TRUE(fires("src/core/bad.h", "int f();\n", "header-guard"));
}

TEST(LintHeaderGuard, FiresOnMismatchedGuardMacros) {
  std::string Fixture = "#ifndef A_H\n#define B_H\nint f();\n#endif\n";
  EXPECT_TRUE(fires("src/core/bad.h", Fixture, "header-guard"));
}

TEST(LintHeaderGuard, MatchingGuardOrPragmaOnceIsFine) {
  std::string Guard = "#ifndef X_H\n#define X_H\nint f();\n#endif\n";
  std::string Pragma = "#pragma once\nint f();\n";
  EXPECT_FALSE(fires("src/core/ok.h", Guard, "header-guard"));
  EXPECT_FALSE(fires("src/core/ok.h", Pragma, "header-guard"));
}

TEST(LintHeaderGuard, SourceFilesAreExempt) {
  EXPECT_FALSE(fires("src/core/ok.cpp", "int f() { return 0; }\n",
                     "header-guard"));
}

//===----------------------------------------------------------------------===//
// BL007 using-namespace-header
//===----------------------------------------------------------------------===//

TEST(LintUsingNamespace, FiresInHeaderOnly) {
  std::string Fixture = "#pragma once\nusing namespace std;\n";
  EXPECT_TRUE(fires("src/core/bad.h", Fixture, "using-namespace-header"));
  EXPECT_FALSE(fires("src/core/ok.cpp", "using namespace std;\n",
                     "using-namespace-header"));
}

//===----------------------------------------------------------------------===//
// BL008 erase-in-loop
//===----------------------------------------------------------------------===//

TEST(LintEraseInLoop, FiresOnDiscardedEraseOfLoopIterator) {
  std::string Fixture =
      "void f(std::map<int, int> &M) {\n"
      "  for (auto It = M.begin(); It != M.end(); ++It) {\n"
      "    if (bad(It)) M.erase(It);\n"
      "  }\n"
      "}\n";
  auto Diags = lintSource("src/core/bad.cpp", Fixture);
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_EQ(Diags[0].RuleName, "erase-in-loop");
  EXPECT_EQ(Diags[0].Line, 3u);
}

TEST(LintEraseInLoop, FiresInWhileLoopOverSameContainer) {
  std::string Fixture =
      "void f(std::set<int> &S) {\n"
      "  auto It = S.begin();\n"
      "  while (It != S.end()) {\n"
      "    if (bad(*It)) S.erase(It); else ++It;\n"
      "  }\n"
      "}\n";
  EXPECT_TRUE(fires("src/core/bad.cpp", Fixture, "erase-in-loop"));
}

TEST(LintEraseInLoop, FiresOnRangeForElementErase) {
  std::string Fixture =
      "void f(std::set<int> &S) {\n"
      "  for (const auto &V : S) {\n"
      "    if (bad(V)) S.erase(V);\n"
      "  }\n"
      "}\n";
  EXPECT_TRUE(fires("src/core/bad.cpp", Fixture, "erase-in-loop"));
}

TEST(LintEraseInLoop, ConsumedResultIsFine) {
  std::string Fixture =
      "void f(std::map<int, int> &M) {\n"
      "  for (auto It = M.begin(); It != M.end();) {\n"
      "    if (bad(It)) It = M.erase(It); else ++It;\n"
      "  }\n"
      "}\n";
  EXPECT_FALSE(fires("src/core/ok.cpp", Fixture, "erase-in-loop"));
}

TEST(LintEraseInLoop, PostIncrementIdiomIsFine) {
  std::string Fixture =
      "void f(std::map<int, int> &M) {\n"
      "  for (auto It = M.begin(); It != M.end();) {\n"
      "    if (bad(It)) M.erase(It++); else ++It;\n"
      "  }\n"
      "}\n";
  EXPECT_FALSE(fires("src/core/ok.cpp", Fixture, "erase-in-loop"));
}

TEST(LintEraseInLoop, EraseByOutsideKeyIsFine) {
  std::string Fixture =
      "void f(std::map<int, int> &M, int Key) {\n"
      "  for (auto It = M.begin(); It != M.end(); ++It) {\n"
      "    mark(It);\n"
      "  }\n"
      "  M.erase(Key);\n"
      "}\n";
  EXPECT_FALSE(fires("src/core/ok.cpp", Fixture, "erase-in-loop"));
}

TEST(LintEraseInLoop, EraseOnDifferentContainerIsFine) {
  std::string Fixture =
      "void f(std::map<int, int> &A, std::map<int, int> &B) {\n"
      "  for (auto It = A.begin(); It != A.end(); ++It) {\n"
      "    B.erase(Other);\n"
      "  }\n"
      "}\n";
  EXPECT_FALSE(fires("src/core/ok.cpp", Fixture, "erase-in-loop"));
}

//===----------------------------------------------------------------------===//
// BL009 range-for-copy
//===----------------------------------------------------------------------===//

TEST(LintRangeForCopy, FiresOnByValueStringElement) {
  std::string Fixture =
      "void f(const std::vector<std::string> &Names) {\n"
      "  for (std::string N : Names) use(N);\n"
      "}\n";
  auto Diags = lintSource("src/core/bad.cpp", Fixture);
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_EQ(Diags[0].RuleName, "range-for-copy");
  EXPECT_EQ(Diags[0].Line, 2u);
}

TEST(LintRangeForCopy, FiresOnByValuePairFromMap) {
  std::string Fixture =
      "void f(const std::map<int, std::string> &M) {\n"
      "  for (std::pair<const int, std::string> KV : M) use(KV);\n"
      "}\n";
  EXPECT_TRUE(fires("src/core/bad.cpp", Fixture, "range-for-copy"));
}

TEST(LintRangeForCopy, FiresOnConstByValueVectorElement) {
  std::string Fixture =
      "void f(const std::vector<std::vector<int>> &Rows) {\n"
      "  for (const std::vector<int> Row : Rows) use(Row);\n"
      "}\n";
  EXPECT_TRUE(fires("src/core/bad.cpp", Fixture, "range-for-copy"));
}

TEST(LintRangeForCopy, ReferenceBindingIsFine) {
  std::string Fixture =
      "void f(const std::vector<std::string> &Names) {\n"
      "  for (const std::string &N : Names) use(N);\n"
      "  for (auto &&N : Names) use(N);\n"
      "}\n";
  EXPECT_FALSE(fires("src/core/ok.cpp", Fixture, "range-for-copy"));
}

TEST(LintRangeForCopy, TrivialAndOpaqueElementTypesAreFine) {
  std::string Fixture =
      "void f(const std::vector<int> &V, const std::vector<Thing> &T) {\n"
      "  for (int X : V) use(X);\n"
      "  for (auto X : V) use(X);\n"
      "  for (Thing X : T) use(X);\n"
      "  for (const char *S : Args) use(S);\n"
      "}\n";
  EXPECT_FALSE(fires("src/core/ok.cpp", Fixture, "range-for-copy"));
}

TEST(LintRangeForCopy, OrdinaryForLoopIsFine) {
  std::string Fixture =
      "void f(const std::vector<std::string> &Names) {\n"
      "  for (size_t I = 0; I != Names.size(); ++I) use(Names[I]);\n"
      "}\n";
  EXPECT_FALSE(fires("src/core/ok.cpp", Fixture, "range-for-copy"));
}

//===----------------------------------------------------------------------===//
// BL010 raw-rename
//===----------------------------------------------------------------------===//

TEST(LintRawRename, FiresOnStdAndGlobalRename) {
  std::string Fixture = "bool f(const char *A, const char *B) {\n"
                        "  if (std::rename(A, B) != 0) return false;\n"
                        "  return ::rename(B, A) == 0 || rename(A, B) == 0;\n"
                        "}\n";
  auto Names = firedRules("src/core/bad.cpp", Fixture);
  EXPECT_EQ(std::count(Names.begin(), Names.end(), "raw-rename"), 3);
  EXPECT_TRUE(fires("tools/bad.cpp", Fixture, "raw-rename"));
}

TEST(LintRawRename, AllowedInsideTheAtomicWriter) {
  std::string Fixture = "int R = std::rename(Tmp.c_str(), Path.c_str());\n";
  EXPECT_FALSE(fires("src/support/FramedFile.cpp", Fixture, "raw-rename"));
  EXPECT_TRUE(fires("src/support/Config.cpp", Fixture, "raw-rename"));
}

TEST(LintRawRename, MemberRenamesAndMentionsAreFine) {
  std::string Fixture = "void f(Table &T, Table *P) {\n"
                        "  T.rename(\"a\"); P->rename(\"b\");\n"
                        "  const char *Doc = \"never rename(a, b)\";\n"
                        "  // rename(a, b) would bypass the fault probes\n"
                        "  bool rename = false; use(rename);\n"
                        "}\n";
  EXPECT_FALSE(fires("src/core/ok.cpp", Fixture, "raw-rename"));
}

//===----------------------------------------------------------------------===//
// Suppressions
//===----------------------------------------------------------------------===//

TEST(LintSuppression, SameLineAllowSilencesTheRule) {
  std::string Fixture =
      "int *P = new int; // brainy-lint: allow(naked-new): test reason\n";
  EXPECT_FALSE(fires("src/core/x.cpp", Fixture, "naked-new"));
}

TEST(LintSuppression, LineAboveAllowSilencesTheRule) {
  std::string Fixture =
      "// brainy-lint: allow(naked-new): arena handed to placement ctor\n"
      "int *P = new int;\n";
  EXPECT_FALSE(fires("src/core/x.cpp", Fixture, "naked-new"));
}

TEST(LintSuppression, MultiLineJustificationBlockReachesNextLine) {
  std::string Fixture =
      "// brainy-lint: allow(naked-new): a justification long enough to\n"
      "// wrap across several comment lines still suppresses the line\n"
      "// that immediately follows the block.\n"
      "int *P = new int;\n";
  EXPECT_FALSE(fires("src/core/x.cpp", Fixture, "naked-new"));
}

TEST(LintSuppression, WrongRuleNameDoesNotSuppress) {
  std::string Fixture =
      "int *P = new int; // brainy-lint: allow(catch-all): wrong rule\n";
  EXPECT_TRUE(fires("src/core/x.cpp", Fixture, "naked-new"));
}

TEST(LintSuppression, AllowListCoversMultipleRules) {
  std::string Fixture =
      "// brainy-lint: allow(naked-new, wall-clock): fixture\n"
      "int *P = new int; long T = time(nullptr);\n";
  auto Names = firedRules("src/core/x.cpp", Fixture);
  EXPECT_TRUE(Names.empty());
}

TEST(LintSuppression, DoesNotLeakPastTheNextLine) {
  std::string Fixture =
      "// brainy-lint: allow(naked-new): only the next line\n"
      "int *P = new int;\n"
      "int *Q = new int;\n";
  auto Diags = lintSource("src/core/x.cpp", Fixture);
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_EQ(Diags[0].Line, 3u);
}
