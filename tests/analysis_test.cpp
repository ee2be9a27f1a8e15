//===- tests/analysis_test.cpp - brainy check analysis tests --------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
// Covers the `brainy check` pipeline (DESIGN.md §11): declaration binding
// (qualified, bare, alias, typedef), per-variable operation attribution,
// the op-set -> required-property table, the legality matrix verdicts, and
// determinism of the JSON report across runs and job counts.
//
//===----------------------------------------------------------------------===//

#include "analysis/Report.h"
#include "analysis/UsageAnalysis.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

using namespace brainy::analysis;

namespace {

/// Analyzes one snippet and returns the profile of variable \p Name
/// (fails the test if it was not bound).
VarProfile profileOf(const std::string &Source, const std::string &Name) {
  FileAnalysis FA = analyzeSource("test.cpp", Source);
  for (const VarProfile &V : FA.Vars)
    if (V.Name == Name)
      return V;
  ADD_FAILURE() << "variable '" << Name << "' was not bound; found "
                << FA.Vars.size() << " vars";
  return {};
}

bool hasOp(const VarProfile &V, Op O) { return V.Ops.count(O) != 0; }
bool requires_(const VarProfile &V, Property P) {
  return V.Required.count(P) != 0;
}

} // namespace

//===----------------------------------------------------------------------===//
// Declaration finder
//===----------------------------------------------------------------------===//

TEST(AnalysisDecl, BindsQualifiedAndBareSpellings) {
  FileAnalysis FA = analyzeSource("t.cpp", "std::vector<int> A;\n"
                                           "map<int, long> B;\n"
                                           "std::unordered_set<int> C;\n");
  ASSERT_EQ(FA.Vars.size(), 3u);
  EXPECT_EQ(FA.Vars[0].Name, "A");
  EXPECT_EQ(FA.Vars[0].Declared, Candidate::Vector);
  EXPECT_EQ(FA.Vars[0].Line, 1u);
  EXPECT_EQ(FA.Vars[0].Spelling, "std::vector<int>");
  EXPECT_EQ(FA.Vars[1].Declared, Candidate::Map);
  EXPECT_EQ(FA.Vars[2].Declared, Candidate::UnorderedSet);
}

TEST(AnalysisDecl, BindsThroughUsingAliasAndTypedef) {
  FileAnalysis FA = analyzeSource(
      "t.cpp", "using Vec = std::vector<int>;\n"
               "typedef std::map<int, int> Index;\n"
               "Vec Values;\n"
               "Index Lookup;\n");
  ASSERT_EQ(FA.Vars.size(), 2u);
  EXPECT_EQ(FA.Vars[0].Name, "Values");
  EXPECT_EQ(FA.Vars[0].Declared, Candidate::Vector);
  EXPECT_EQ(FA.Vars[1].Name, "Lookup");
  EXPECT_EQ(FA.Vars[1].Declared, Candidate::Map);
}

TEST(AnalysisDecl, BindsLegacyHashSpellingsAsUnordered) {
  FileAnalysis FA =
      analyzeSource("t.cpp", "__gnu_cxx::hash_map<int, int> H;\n");
  ASSERT_EQ(FA.Vars.size(), 1u);
  EXPECT_EQ(FA.Vars[0].Declared, Candidate::UnorderedMap);
}

TEST(AnalysisDecl, BindsMultipleDeclaratorsAndNestedTemplates) {
  FileAnalysis FA = analyzeSource(
      "t.cpp", "std::vector<std::pair<int, int>> A, B;\n");
  ASSERT_EQ(FA.Vars.size(), 2u);
  EXPECT_EQ(FA.Vars[0].Name, "A");
  EXPECT_EQ(FA.Vars[1].Name, "B");
  EXPECT_EQ(FA.Vars[1].Declared, Candidate::Vector);
}

TEST(AnalysisDecl, BindsDeclaratorsPastInitializers) {
  // The second declarator must still bind when the first carries a
  // brace, paren or '=' initializer — the finder skips balanced
  // initializer tokens instead of bailing at the first one.
  FileAnalysis FA = analyzeSource(
      "t.cpp", "std::vector<int> A = {1, 2, 3}, B;\n"
               "std::vector<int> C(5), D{7}, E;\n");
  ASSERT_EQ(FA.Vars.size(), 5u);
  EXPECT_EQ(FA.Vars[0].Name, "A");
  EXPECT_EQ(FA.Vars[1].Name, "B");
  EXPECT_EQ(FA.Vars[2].Name, "C");
  EXPECT_EQ(FA.Vars[3].Name, "D");
  EXPECT_EQ(FA.Vars[4].Name, "E");
  EXPECT_EQ(FA.Vars[4].Declared, Candidate::Vector);
}

TEST(AnalysisDecl, BindsThroughTwoStepAliasChain) {
  FileAnalysis FA = analyzeSource(
      "t.cpp", "using Vec = std::vector<int>;\n"
               "using Work = Vec;\n"
               "typedef Work Queue;\n"
               "Work Pending;\n"
               "Queue Backlog;\n");
  ASSERT_EQ(FA.Vars.size(), 2u);
  EXPECT_EQ(FA.Vars[0].Name, "Pending");
  EXPECT_EQ(FA.Vars[0].Declared, Candidate::Vector);
  EXPECT_TRUE(FA.Vars[0].ViaAlias);
  EXPECT_EQ(FA.Vars[1].Name, "Backlog");
  EXPECT_EQ(FA.Vars[1].Declared, Candidate::Vector);
  EXPECT_TRUE(FA.Vars[1].ViaAlias);
}

TEST(AnalysisDecl, DirectDeclarationIsNotViaAlias) {
  FileAnalysis FA = analyzeSource("t.cpp", "std::vector<int> A;\n");
  ASSERT_EQ(FA.Vars.size(), 1u);
  EXPECT_FALSE(FA.Vars[0].ViaAlias);
}

TEST(AnalysisDecl, SkipsFunctionDeclarationsAndForeignNamespaces) {
  FileAnalysis FA = analyzeSource(
      "t.cpp", "std::vector<int> make();\n"
               "std::vector<int> slice(size_t Begin, size_t End);\n"
               "mylib::vector<int> Foreign;\n");
  EXPECT_TRUE(FA.Vars.empty());
}

TEST(AnalysisDecl, UnreadableFileReportsError) {
  FileAnalysis FA = analyzeFile("gone.cpp", "/nonexistent/gone.cpp");
  EXPECT_FALSE(FA.Error.empty());
  EXPECT_TRUE(FA.Vars.empty());
}

//===----------------------------------------------------------------------===//
// Usage collector: op attribution
//===----------------------------------------------------------------------===//

TEST(AnalysisOps, AttributesMemberCallsPerVariable) {
  std::string Src = "std::vector<int> V;\n"
                    "std::map<int, int> M;\n"
                    "void f() {\n"
                    "  V.push_back(1);\n"
                    "  V.pop_back();\n"
                    "  M.insert({1, 2});\n"
                    "  M.find(1);\n"
                    "  M.erase(1);\n"
                    "  V.size(); M.empty();\n"
                    "}\n";
  VarProfile V = profileOf(Src, "V");
  VarProfile M = profileOf(Src, "M");
  EXPECT_TRUE(hasOp(V, Op::PushBack));
  EXPECT_TRUE(hasOp(V, Op::PopBack));
  EXPECT_TRUE(hasOp(V, Op::SizeEmpty));
  EXPECT_FALSE(hasOp(V, Op::Insert));
  EXPECT_TRUE(hasOp(M, Op::Insert));
  EXPECT_TRUE(hasOp(M, Op::Find));
  EXPECT_TRUE(hasOp(M, Op::Erase));
  EXPECT_TRUE(hasOp(M, Op::SizeEmpty));
  EXPECT_FALSE(hasOp(M, Op::PushBack));
}

TEST(AnalysisOps, InsertIsPositionalOnSequences) {
  std::string Src = "std::vector<int> V;\n"
                    "void f() { V.insert(V.begin(), 3); }\n";
  VarProfile V = profileOf(Src, "V");
  EXPECT_TRUE(hasOp(V, Op::InsertAt));
  EXPECT_FALSE(hasOp(V, Op::Insert));
}

TEST(AnalysisOps, SubscriptIsKeyOnMapsIndexOnSequences) {
  std::string Src = "std::map<int, int> M;\n"
                    "std::vector<int> V;\n"
                    "void f() { M[3] = 4; int X = V[0]; }\n";
  EXPECT_TRUE(hasOp(profileOf(Src, "M"), Op::SubscriptKey));
  EXPECT_TRUE(hasOp(profileOf(Src, "V"), Op::SubscriptIndex));
}

TEST(AnalysisOps, RangeForAndIteratorWalk) {
  std::string Src = "std::map<int, int> M;\n"
                    "std::list<int> L;\n"
                    "void f() {\n"
                    "  for (auto &KV : M) use(KV);\n"
                    "  for (auto It = L.begin(); It != L.end(); ++It) use(*It);\n"
                    "}\n";
  EXPECT_TRUE(hasOp(profileOf(Src, "M"), Op::RangeFor));
  EXPECT_TRUE(hasOp(profileOf(Src, "L"), Op::IteratorWalk));
}

TEST(AnalysisOps, AddressOfElementFormsAreCaught) {
  std::string Src = "std::list<int> A;\n"
                    "std::list<int> B;\n"
                    "std::list<int> C;\n"
                    "void f() {\n"
                    "  int *P = &A.front();\n"
                    "  keep(&B.back());\n"
                    "  C.push_back(1);\n"
                    "}\n";
  EXPECT_TRUE(hasOp(profileOf(Src, "A"), Op::AddressOfElement));
  EXPECT_TRUE(hasOp(profileOf(Src, "B"), Op::AddressOfElement));
  EXPECT_FALSE(hasOp(profileOf(Src, "C"), Op::AddressOfElement));
}

TEST(AnalysisOps, EraseInsideIterationLoop) {
  std::string Src = "std::map<int, int> M;\n"
                    "void f() {\n"
                    "  for (auto It = M.begin(); It != M.end();) {\n"
                    "    if (bad(It)) It = M.erase(It); else ++It;\n"
                    "  }\n"
                    "}\n";
  VarProfile M = profileOf(Src, "M");
  EXPECT_TRUE(hasOp(M, Op::EraseInLoop));
  EXPECT_TRUE(hasOp(M, Op::IteratorWalk));
}

TEST(AnalysisOps, FreeSortOverBeginRequiresRandomAccess) {
  std::string Src = "std::vector<int> V;\n"
                    "void f() { std::sort(V.begin(), V.end()); }\n";
  VarProfile V = profileOf(Src, "V");
  EXPECT_TRUE(hasOp(V, Op::Sort));
  EXPECT_TRUE(requires_(V, Property::RandomAccess));
}

TEST(AnalysisOps, SortedQueriesAreAttributed) {
  std::string Src = "std::set<int> S;\n"
                    "void f() { auto It = S.lower_bound(4); }\n";
  EXPECT_TRUE(hasOp(profileOf(Src, "S"), Op::SortedQuery));
}

TEST(AnalysisOps, FreeFindCountIdiomsRecordMembershipNotWalk) {
  // std::find(V.begin(), V.end(), X) is a membership probe, not a walk:
  // it records Find and the inner begin()/end() must NOT contribute
  // IteratorWalk (that would pin OrderedIteration and block upgrades).
  std::string Src =
      "std::vector<int> V;\n"
      "void f() {\n"
      "  bool In = std::find(V.begin(), V.end(), 4) != V.end();\n"
      "  long N = std::count(V.begin(), V.end(), 4);\n"
      "}\n";
  VarProfile V = profileOf(Src, "V");
  EXPECT_TRUE(hasOp(V, Op::Find));
  EXPECT_TRUE(hasOp(V, Op::Count));
  EXPECT_FALSE(hasOp(V, Op::IteratorWalk));
}

TEST(AnalysisOps, MismatchedFreeFindStillWalks) {
  // std::find over two different containers' iterators is not the
  // membership idiom; the begin() side keeps its IteratorWalk.
  std::string Src =
      "std::vector<int> V;\n"
      "std::vector<int> W;\n"
      "void f() { auto It = std::find(V.begin(), W.end(), 4); }\n";
  EXPECT_TRUE(hasOp(profileOf(Src, "V"), Op::IteratorWalk));
}

//===----------------------------------------------------------------------===//
// Property inference table
//===----------------------------------------------------------------------===//

TEST(AnalysisProps, IterationRequiresOrderedIteration) {
  for (Op O : {Op::RangeFor, Op::IteratorWalk}) {
    auto Req = inferProperties(Candidate::Map, {O});
    EXPECT_TRUE(Req.count(Property::OrderedIteration)) << opName(O);
  }
  EXPECT_FALSE(inferProperties(Candidate::Map, {Op::Find})
                   .count(Property::OrderedIteration));
}

TEST(AnalysisProps, TableMapsOpsToProperties) {
  EXPECT_TRUE(inferProperties(Candidate::List, {Op::AddressOfElement})
                  .count(Property::StableReferences));
  EXPECT_TRUE(inferProperties(Candidate::Map, {Op::EraseInLoop})
                  .count(Property::StableErase));
  EXPECT_TRUE(inferProperties(Candidate::Vector, {Op::SubscriptIndex})
                  .count(Property::RandomAccess));
  EXPECT_TRUE(inferProperties(Candidate::Deque, {Op::PushFront})
                  .count(Property::FrontOps));
  EXPECT_TRUE(inferProperties(Candidate::Map, {Op::SubscriptKey})
                  .count(Property::UniqueKeys));
  EXPECT_TRUE(inferProperties(Candidate::Set, {Op::Find})
                  .count(Property::KeyLookup));
  EXPECT_TRUE(inferProperties(Candidate::Set, {Op::SortedQuery})
                  .count(Property::SortedQueries));
}

TEST(AnalysisProps, DeclaredMultiRequiresDuplicateKeys) {
  EXPECT_TRUE(inferProperties(Candidate::Multimap, {})
                  .count(Property::DuplicateKeys));
  EXPECT_FALSE(
      inferProperties(Candidate::Map, {}).count(Property::DuplicateKeys));
}

TEST(AnalysisProps, ConservatismDropsWhatDeclaredTypeLacks) {
  // &V[i] on a vector is transient by construction: the program already
  // works with a container whose references move on growth, so a
  // replacement need not pin them.
  auto Req = inferProperties(Candidate::Vector,
                             {Op::AddressOfElement, Op::SubscriptIndex});
  EXPECT_FALSE(Req.count(Property::StableReferences));
  EXPECT_TRUE(Req.count(Property::RandomAccess));
  // Iterating a declared-unordered container cannot demand ordered
  // iteration of a replacement.
  EXPECT_FALSE(inferProperties(Candidate::UnorderedMap, {Op::RangeFor})
                   .count(Property::OrderedIteration));
}

//===----------------------------------------------------------------------===//
// Legality verdicts
//===----------------------------------------------------------------------===//

TEST(AnalysisLegality, IteratedMapRejectsUnorderedMap) {
  // The acceptance fixture: a std::map iterated in order must report
  // unordered_map illegal with exactly this reason.
  std::string Src = "std::map<int, int> M;\n"
                    "void f() { for (auto &KV : M) use(KV); }\n";
  VarProfile M = profileOf(Src, "M");
  const Verdict &V = M.verdictFor(Candidate::UnorderedMap);
  EXPECT_EQ(V.Kind, Legality::Illegal);
  EXPECT_EQ(V.Reason, "order-dependent iteration");
  EXPECT_EQ(M.verdictFor(Candidate::SplayMap).Kind, Legality::Legal);
  EXPECT_EQ(M.verdictFor(Candidate::FlatMap).Kind, Legality::Legal);
}

TEST(AnalysisLegality, UniterationMapAllowsUnorderedMap) {
  std::string Src = "std::map<int, int> M;\n"
                    "void f() { M[1] = 2; if (M.count(1)) M.erase(1); }\n";
  VarProfile M = profileOf(Src, "M");
  EXPECT_EQ(M.verdictFor(Candidate::UnorderedMap).Kind, Legality::Legal);
}

TEST(AnalysisLegality, ShapeMismatchIsIllegalBothWays) {
  std::string Src = "std::map<int, int> M;\nstd::vector<int> V;\n";
  EXPECT_EQ(profileOf(Src, "M").verdictFor(Candidate::Vector).Kind,
            Legality::Illegal);
  EXPECT_EQ(profileOf(Src, "V").verdictFor(Candidate::Map).Kind,
            Legality::Illegal);
}

TEST(AnalysisLegality, CrossFamilySwapIsUnknownNotLegal) {
  // Table 1's order-oblivious vector→set rows need interface rewriting;
  // the static verdict stays conservative.
  std::string Src = "std::vector<int> V;\nvoid f() { V.push_back(1); }\n";
  VarProfile V = profileOf(Src, "V");
  const Verdict &Vd = V.verdictFor(Candidate::Set);
  EXPECT_EQ(Vd.Kind, Legality::Unknown);
  EXPECT_FALSE(Vd.Reason.empty());
}

TEST(AnalysisLegality, SubscriptKeyRejectsMultimap) {
  std::string Src = "std::map<int, int> M;\nvoid f() { M[1] = 2; }\n";
  EXPECT_EQ(profileOf(Src, "M").verdictFor(Candidate::Multimap).Kind,
            Legality::Illegal);
}

TEST(AnalysisLegality, StableReferencesRejectGrowingStorage) {
  std::string Src = "std::list<int> L;\n"
                    "void f() { keep(&L.front()); L.push_back(1); }\n";
  VarProfile L = profileOf(Src, "L");
  ASSERT_TRUE(requires_(L, Property::StableReferences));
  EXPECT_EQ(L.verdictFor(Candidate::Vector).Kind, Legality::Illegal);
  EXPECT_EQ(L.verdictFor(Candidate::Deque).Kind, Legality::Illegal);
}

TEST(AnalysisLegality, DeclaredTypeIsAlwaysSelfConsistent) {
  // The conservatism rule makes the declared container legal for its own
  // profile on every input (what `brainy check` verifies in CI).
  std::string Src =
      "std::vector<int> V;\n"
      "std::unordered_map<int, int> U;\n"
      "std::multiset<int> MS;\n"
      "void f() {\n"
      "  keep(&V[0]);\n"
      "  for (auto &KV : U) use(KV);\n"
      "  std::sort(V.begin(), V.end());\n"
      "  MS.insert(3);\n"
      "}\n";
  std::vector<FileAnalysis> Files = {analyzeSource("t.cpp", Src)};
  EXPECT_EQ(Files[0].Vars.size(), 3u);
  EXPECT_TRUE(selfConsistencyViolations(Files).empty());
}

//===----------------------------------------------------------------------===//
// Determinism
//===----------------------------------------------------------------------===//

TEST(AnalysisDeterminism, JsonIsByteIdenticalAcrossRunsAndJobs) {
  std::vector<std::pair<std::string, std::string>> Sources;
  for (int F = 0; F != 12; ++F) {
    std::string Src = "std::map<int, int> M" + std::to_string(F) + ";\n" +
                      "std::vector<int> V" + std::to_string(F) + ";\n" +
                      "void f() {\n"
                      "  for (auto &KV : M" + std::to_string(F) + ") use(KV);\n"
                      "  V" + std::to_string(F) + ".push_back(1);\n"
                      "}\n";
    Sources.emplace_back("file" + std::to_string(F) + ".cpp", Src);
  }
  std::string Baseline = renderJson(analyzeSources(Sources, 1));
  for (unsigned Jobs : {1u, 2u, 3u, 7u}) {
    for (int Run = 0; Run != 2; ++Run) {
      EXPECT_EQ(renderJson(analyzeSources(Sources, Jobs)), Baseline)
          << "jobs=" << Jobs << " run=" << Run;
    }
  }
  std::string Text = renderText(analyzeSources(Sources, 4));
  EXPECT_EQ(Text, renderText(analyzeSources(Sources, 1)));
}

TEST(AnalysisDeterminism, ReportsMentionAcceptanceVerdictSpelling) {
  std::string Src = "std::map<int, int> M;\n"
                    "void f() { for (auto &KV : M) use(KV); }\n";
  std::vector<FileAnalysis> Files = {analyzeSource("t.cpp", Src)};
  std::string Text = renderText(Files);
  EXPECT_NE(Text.find("unordered_map: illegal(order-dependent iteration)"),
            std::string::npos);
  std::string Json = renderJson(Files);
  EXPECT_NE(Json.find("\"unordered_map\": {\"legality\": \"illegal\", "
                      "\"reason\": \"order-dependent iteration\"}"),
            std::string::npos);
}
