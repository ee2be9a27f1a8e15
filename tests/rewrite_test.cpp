//===- tests/rewrite_test.cpp - brainy apply rewriting tests --------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
// Covers the `brainy apply` stack (DESIGN.md §14) bottom-up: the byte
// patcher (splice, dedup, overlap refusal, diff), the interface-mapping
// rule table, and the planner/verifier loop — including
// the rejection path (a refused patch is reported and never emitted) and
// machine-checked idempotence (apply on applied output plans nothing).
//
//===----------------------------------------------------------------------===//

#include "analysis/Patcher.h"
#include "analysis/Rewrite.h"
#include "analysis/RewriteRules.h"

#include <gtest/gtest.h>

#include <string>

using namespace brainy;
using namespace brainy::analysis;

namespace {

const PlanEntry *entryFor(const FileRewrite &FR, const std::string &Name) {
  for (const PlanEntry &E : FR.Entries)
    if (E.Name == Name)
      return &E;
  return nullptr;
}

} // namespace

//===----------------------------------------------------------------------===//
// Patcher: applyEdits
//===----------------------------------------------------------------------===//

TEST(Patcher, SplicesReplacesInsertsAndDedupes) {
  std::string Src = "std::map<int, int> A, B;";
  // One identical type edit per declarator (the multi-declarator case)
  // plus an insertion at the front: duplicates must collapse, order must
  // not matter.
  std::vector<Edit> Edits = {
      {5, 8, "unordered_map"}, {0, 0, "// x\n"}, {5, 8, "unordered_map"}};
  Expected<std::string> Out = applyEdits(Src, Edits);
  ASSERT_TRUE(Out) << Out.error().message();
  EXPECT_EQ(*Out, "// x\nstd::unordered_map<int, int> A, B;");
}

TEST(Patcher, RefusesOverlapsAndOutOfRangeSpans) {
  std::string Src = "abcdef";
  Expected<std::string> Overlap =
      applyEdits(Src, {{1, 4, "X"}, {3, 5, "Y"}});
  ASSERT_FALSE(Overlap);
  Expected<std::string> Nested = applyEdits(Src, {{0, 6, "X"}, {2, 3, "Y"}});
  ASSERT_FALSE(Nested);
  Expected<std::string> OutOfRange = applyEdits(Src, {{4, 9, "X"}});
  ASSERT_FALSE(OutOfRange);
  // Same span, different replacement text: a planner inconsistency, not
  // a dedupable duplicate.
  Expected<std::string> Conflict =
      applyEdits(Src, {{1, 2, "X"}, {1, 2, "Y"}});
  ASSERT_FALSE(Conflict);
}

TEST(Patcher, UnifiedDiffIsEmptyOnIdenticalAndFormatsHunks) {
  EXPECT_EQ(unifiedDiff("a\nb\n", "a\nb\n", "a/f", "b/f"), "");
  std::string D = unifiedDiff("one\ntwo\nthree\n", "one\n2\nthree\n", "a/f",
                              "b/f");
  EXPECT_NE(D.find("--- a/f\n"), std::string::npos);
  EXPECT_NE(D.find("+++ b/f\n"), std::string::npos);
  EXPECT_NE(D.find("-two\n"), std::string::npos);
  EXPECT_NE(D.find("+2\n"), std::string::npos);
  EXPECT_NE(D.find("@@ -"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// RewriteRules
//===----------------------------------------------------------------------===//

TEST(RewriteRules, IdentityWithinFamiliesMinusListOnlySort) {
  RewriteRuleTable T = RewriteRuleTable::defaults();
  const OpRule *R =
      T.lookup(Family::MapLike, Family::MapLike, Op::SubscriptKey);
  ASSERT_NE(R, nullptr);
  EXPECT_EQ(R->Post, Op::SubscriptKey);
  EXPECT_EQ(R->Member, nullptr);
  // Member sort is list-only among the sequences: the identity table has
  // a deliberate gap so Sort never moves off std::list.
  EXPECT_EQ(T.lookup(Family::Sequence, Family::Sequence, Op::Sort), nullptr);
}

TEST(RewriteRules, SequenceToSetLikeMapsTheCheckedUpgradeOnly) {
  RewriteRuleTable T = RewriteRuleTable::defaults();
  const OpRule *Push = T.lookup(Family::Sequence, Family::SetLike,
                                Op::PushBack);
  ASSERT_NE(Push, nullptr);
  EXPECT_STREQ(Push->Member, "insert");
  const OpRule *Find = T.lookup(Family::Sequence, Family::SetLike, Op::Find);
  ASSERT_NE(Find, nullptr);
  EXPECT_STREQ(Find->Member, "find");
  // Positional access has no set-like equivalent: gap.
  EXPECT_EQ(T.lookup(Family::Sequence, Family::SetLike, Op::SubscriptKey),
            nullptr);
  EXPECT_FALSE(T.total(Family::Sequence, Family::SetLike,
                       {Op::PushBack, Op::SubscriptIndex}));
  EXPECT_TRUE(T.total(Family::Sequence, Family::SetLike,
                      {Op::PushBack, Op::Find, Op::SizeEmpty}));
}

TEST(RewriteRules, AdvisoryCandidatesHaveNoStdSpelling) {
  EXPECT_STREQ(typeSpellingFor(Candidate::SplayMap), "");
  EXPECT_STREQ(typeSpellingFor(Candidate::FlatSet), "");
  EXPECT_STREQ(headerFor(Candidate::SplaySet), "");
  EXPECT_STREQ(typeSpellingFor(Candidate::UnorderedMap),
               "std::unordered_map");
  EXPECT_STREQ(headerFor(Candidate::UnorderedMap), "<unordered_map>");
}

//===----------------------------------------------------------------------===//
// Planner end-to-end
//===----------------------------------------------------------------------===//

TEST(Apply, UpgradesUniteratedMapWithHeaderFixup) {
  std::string Src = "#include <cstdio>\n"
                    "#include <map>\n"
                    "std::map<int, int> M;\n"
                    "void f() {\n"
                    "  M[3] = 4;\n"
                    "  if (M.count(3) != 0) M.erase(3);\n"
                    "}\n";
  FileRewrite FR = rewriteSource("t.cpp", Src, ApplyOptions());
  ASSERT_EQ(FR.Rewritten, 1u);
  EXPECT_EQ(FR.Rejected, 0u);
  const PlanEntry *E = entryFor(FR, "M");
  ASSERT_NE(E, nullptr);
  EXPECT_EQ(E->St, PlanEntry::Status::Rewritten);
  EXPECT_EQ(E->To, "std::unordered_map");
  EXPECT_NE(FR.Patched.find("std::unordered_map<int, int> M;"),
            std::string::npos);
  EXPECT_NE(FR.Patched.find("#include <unordered_map>\n"),
            std::string::npos);
  EXPECT_FALSE(FR.Diff.empty());
}

TEST(Apply, ChecksSequenceToSetUpgradeRewritingEverySite) {
  std::string Src =
      "#include <algorithm>\n"
      "#include <vector>\n"
      "std::vector<int> P;\n"
      "void f() {\n"
      "  if (std::find(P.begin(), P.end(), 4) == P.end()) P.push_back(4);\n"
      "  long N = std::count(P.begin(), P.end(), 4);\n"
      "  if (P.size() > 10) P.clear();\n"
      "}\n";
  FileRewrite FR = rewriteSource("t.cpp", Src, ApplyOptions());
  ASSERT_EQ(FR.Rewritten, 1u);
  EXPECT_NE(FR.Patched.find("std::unordered_set<int> P;"),
            std::string::npos);
  EXPECT_NE(FR.Patched.find("P.insert(4)"), std::string::npos);
  EXPECT_NE(FR.Patched.find("P.find(4)"), std::string::npos);
  EXPECT_NE(FR.Patched.find("P.count(4)"), std::string::npos);
  EXPECT_EQ(FR.Patched.find("push_back"), std::string::npos);
  EXPECT_EQ(FR.Patched.find("std::find"), std::string::npos);
  EXPECT_EQ(FR.Patched.find("std::count"), std::string::npos);
}

TEST(Apply, IteratedContainerIsKeptWithAReason) {
  std::string Src = "#include <vector>\n"
                    "std::vector<int> V;\n"
                    "long f() {\n"
                    "  long S = 0;\n"
                    "  for (int X : V) S += X;\n"
                    "  return S;\n"
                    "}\n";
  FileRewrite FR = rewriteSource("t.cpp", Src, ApplyOptions());
  EXPECT_EQ(FR.Rewritten, 0u);
  EXPECT_EQ(FR.Patched, FR.Original);
  const PlanEntry *E = entryFor(FR, "V");
  ASSERT_NE(E, nullptr);
  EXPECT_EQ(E->St, PlanEntry::Status::Kept);
  EXPECT_EQ(E->Reason,
            "no preferred target passes legality and interface mapping");
}

TEST(Apply, AliasDeclaredVariableIsKept) {
  std::string Src = "#include <map>\n"
                    "using Cache = std::map<int, int>;\n"
                    "Cache C;\n"
                    "void f() { C[1] = 2; }\n";
  FileRewrite FR = rewriteSource("t.cpp", Src, ApplyOptions());
  EXPECT_EQ(FR.Rewritten, 0u);
  const PlanEntry *E = entryFor(FR, "C");
  ASSERT_NE(E, nullptr);
  EXPECT_EQ(E->Reason, "declared via a type alias (shared with other uses)");
}

TEST(Apply, SharedDeclarationMovesTogetherOrNotAtAll) {
  // A would upgrade, but it shares one declaration (one type byte-span)
  // with iterated B — so neither moves.
  std::string Src = "#include <vector>\n"
                    "std::vector<int> A, B;\n"
                    "void f() {\n"
                    "  A.push_back(1);\n"
                    "  for (int X : B) (void)X;\n"
                    "}\n";
  FileRewrite FR = rewriteSource("t.cpp", Src, ApplyOptions());
  EXPECT_EQ(FR.Rewritten, 0u);
  EXPECT_EQ(FR.Patched, FR.Original);
  const PlanEntry *E = entryFor(FR, "A");
  ASSERT_NE(E, nullptr);
  EXPECT_EQ(E->Reason,
            "shares a declaration with a variable that keeps its type");
}

//===----------------------------------------------------------------------===//
// Rejection path: a refused patch is reported, never emitted
//===----------------------------------------------------------------------===//

TEST(Apply, HandBuiltRuleGapBlocksTheUpgradeConservatively) {
  std::string Src = "#include <vector>\n"
                    "std::vector<int> P;\n"
                    "void f() { P.push_back(4); }\n";
  ApplyOptions Opts;
  Opts.Rules.remove(Family::Sequence, Family::SetLike, Op::PushBack);
  FileRewrite FR = rewriteSource("t.cpp", Src, Opts);
  EXPECT_EQ(FR.Rewritten, 0u);
  EXPECT_EQ(FR.Patched, FR.Original);
  const PlanEntry *E = entryFor(FR, "P");
  ASSERT_NE(E, nullptr);
  EXPECT_EQ(E->St, PlanEntry::Status::Kept);
  EXPECT_EQ(E->Reason,
            "no preferred target passes legality and interface mapping");
  // The same source upgrades under the shipped table.
  EXPECT_EQ(rewriteSource("t.cpp", Src, ApplyOptions()).Rewritten, 1u);
}

TEST(Apply, InconsistentPlanIsRejectedWithReasonAndNeverEmitted) {
  // Two viable upgrades whose rewrite spans nest: the outer find idiom's
  // probe *is* the inner count idiom. The planner emits overlapping
  // edits, the patcher refuses them, and both variables come back
  // rejected — with the original bytes untouched.
  std::string Src =
      "#include <algorithm>\n"
      "#include <vector>\n"
      "std::vector<int> V;\n"
      "std::vector<int> W;\n"
      "void f() {\n"
      "  bool B = std::find(V.begin(), V.end(),\n"
      "                     (int)std::count(W.begin(), W.end(), 3)) !=\n"
      "           V.end();\n"
      "  (void)B;\n"
      "}\n";
  FileRewrite FR = rewriteSource("t.cpp", Src, ApplyOptions());
  EXPECT_EQ(FR.Rewritten, 0u);
  EXPECT_EQ(FR.Rejected, 2u);
  EXPECT_EQ(FR.Patched, FR.Original);
  EXPECT_TRUE(FR.Diff.empty());
  const PlanEntry *EV = entryFor(FR, "V");
  const PlanEntry *EW = entryFor(FR, "W");
  ASSERT_NE(EV, nullptr);
  ASSERT_NE(EW, nullptr);
  EXPECT_EQ(EV->St, PlanEntry::Status::Rejected);
  EXPECT_EQ(EW->St, PlanEntry::Status::Rejected);
  EXPECT_NE(EV->Reason.find("patch failed"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Idempotence and determinism
//===----------------------------------------------------------------------===//

TEST(Apply, ApplyOnItsOwnOutputIsANoOp) {
  std::string Src =
      "#include <algorithm>\n"
      "#include <vector>\n"
      "std::vector<int> P;\n"
      "void f() {\n"
      "  if (std::find(P.begin(), P.end(), 4) == P.end()) P.push_back(4);\n"
      "}\n";
  FileRewrite First = rewriteSource("t.cpp", Src, ApplyOptions());
  ASSERT_EQ(First.Rewritten, 1u);
  FileRewrite Second = rewriteSource("t.cpp", First.Patched, ApplyOptions());
  EXPECT_EQ(Second.Rewritten, 0u);
  EXPECT_EQ(Second.Rejected, 0u);
  EXPECT_EQ(Second.Patched, First.Patched);
  EXPECT_TRUE(Second.Diff.empty());
}

TEST(Apply, JsonReportIsByteIdenticalAcrossJobCounts) {
  std::vector<std::pair<std::string, std::string>> Sources;
  for (int I = 0; I != 6; ++I) {
    std::string N = std::to_string(I);
    Sources.emplace_back("f" + N + ".cpp",
                         "#include <map>\n"
                         "std::map<int, int> M" + N + ";\n"
                         "void f() { M" + N + "[1] = 2; }\n");
  }
  std::string Serial = renderApplyJson(rewriteSources(Sources,
                                                      ApplyOptions(), 1));
  std::string Parallel = renderApplyJson(rewriteSources(Sources,
                                                        ApplyOptions(), 4));
  EXPECT_EQ(Serial, Parallel);
  EXPECT_NE(Serial.find("\"summary\":{\"files\":6,\"rewritten\":6,"
                        "\"rejected\":0}"),
            std::string::npos);
}

TEST(Apply, PreferListParsesNamesAndNamesBadTokens) {
  std::vector<Candidate> Out;
  std::string Err;
  ASSERT_TRUE(parsePreferList("unordered_map, set", Out, Err)) << Err;
  ASSERT_EQ(Out.size(), 2u);
  EXPECT_EQ(Out[0], Candidate::UnorderedMap);
  EXPECT_EQ(Out[1], Candidate::Set);
  EXPECT_FALSE(parsePreferList("unordered_map,bogus", Out, Err));
  EXPECT_NE(Err.find("bogus"), std::string::npos);
  EXPECT_FALSE(parsePreferList("", Out, Err));
}
