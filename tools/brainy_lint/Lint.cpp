//===- tools/brainy_lint/Lint.cpp - Invariant rule engine -----------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//
//
// Implementation notes. The scanner runs over the shared support/CppLexer
// token stream, not a grep: comments, string/char literals (including raw
// strings), and preprocessor directives are lexed out of the token stream
// first, so a banned name inside a string literal — e.g. the chrono calls
// CppEmitter writes into *generated* applications, or the violation
// fixtures in the self-test — can never trip a rule. Rules then run over
// the clean token stream plus the directive and comment side tables.
//
//===----------------------------------------------------------------------===//

#include "Lint.h"

#include "support/CppLexer.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

using namespace brainy;
using namespace brainy::lint;
using cpplex::Directive;
using cpplex::TokKind;
using cpplex::Token;

namespace {

/// The lexed source plus lint's own side table: which rule names are
/// suppressed on which lines by `brainy-lint: allow(...)` comments.
struct LexedFile {
  cpplex::LexedSource Source;
  /// Line -> rule names suppressed there.
  std::map<unsigned, std::set<std::string>> Allows;
};

/// Records the rule names of every `brainy-lint: allow(a, b)` marker in
/// \p Comment as suppressed on lines [First, Last].
void harvestAllows(const std::string &Comment, unsigned First, unsigned Last,
                   LexedFile &Out) {
  const std::string Marker = "brainy-lint:";
  size_t Pos = Comment.find(Marker);
  while (Pos != std::string::npos) {
    size_t Open = Comment.find("allow(", Pos);
    if (Open == std::string::npos)
      return;
    size_t Close = Comment.find(')', Open);
    if (Close == std::string::npos)
      return;
    std::string List = Comment.substr(Open + 6, Close - Open - 6);
    std::string Name;
    std::istringstream Stream(List);
    while (std::getline(Stream, Name, ',')) {
      size_t B = Name.find_first_not_of(" \t");
      size_t E = Name.find_last_not_of(" \t");
      if (B == std::string::npos)
        continue;
      for (unsigned L = First; L <= Last; ++L)
        Out.Allows[L].insert(Name.substr(B, E - B + 1));
    }
    Pos = Comment.find(Marker, Close);
  }
}

LexedFile lexForLint(const std::string &Src) {
  LexedFile Out;
  Out.Source = cpplex::lex(Src);
  // An allow() anywhere in a comment (a block comment, or a contiguous
  // group of // lines) suppresses the comment's own lines plus the line
  // that follows it.
  for (const cpplex::Comment &C : Out.Source.Comments)
    harvestAllows(C.Text, C.FirstLine, C.LastLine + 1, Out);
  return Out;
}

//===----------------------------------------------------------------------===//
// Rule helpers
//===----------------------------------------------------------------------===//

bool pathContains(const std::string &Path, const char *Piece) {
  return Path.find(Piece) != std::string::npos;
}

bool pathStartsWith(const std::string &Path, const char *Prefix) {
  return Path.rfind(Prefix, 0) == 0;
}

bool isHeader(const std::string &Path) {
  return Path.size() > 2 && Path.compare(Path.size() - 2, 2, ".h") == 0;
}

struct Checker {
  const std::string &Path;
  const LexedFile &File;
  std::vector<Diag> Diags;

  const std::vector<Token> &tokens() const { return File.Source.Tokens; }
  const std::vector<Directive> &directives() const {
    return File.Source.Directives;
  }

  // The Allows table already extends one line past each comment, so a
  // marker covers its own line(s) plus the line that follows — checking
  // the diagnostic line alone gives exactly that reach, no further.
  bool suppressed(unsigned Line, const char *RuleName) const {
    auto It = File.Allows.find(Line);
    return It != File.Allows.end() && It->second.count(RuleName);
  }

  void diag(unsigned Line, const char *Id, const char *Name,
            std::string Message) {
    if (suppressed(Line, Name))
      return;
    Diags.push_back({Path, Line, Id, Name, std::move(Message)});
  }
};

//===----------------------------------------------------------------------===//
// BL001 nondet-rand
//===----------------------------------------------------------------------===//

void checkNondetRand(Checker &C) {
  if (pathContains(C.Path, "src/support/Rng."))
    return;
  static const std::set<std::string> Banned = {
      "rand",          "srand",         "rand_r",
      "drand48",       "lrand48",       "mrand48",
      "random",        "random_device", "mt19937",
      "mt19937_64",    "minstd_rand",   "minstd_rand0",
      "ranlux24",      "ranlux48",      "knuth_b",
      "default_random_engine", "random_shuffle"};
  for (const Token &T : C.tokens())
    if (T.Kind == TokKind::Ident && Banned.count(T.Text))
      C.diag(T.Line, "BL001", "nondet-rand",
             "'" + T.Text +
                 "' is a nondeterminism source; all randomness must come "
                 "from support/Rng (seeded, regenerable)");
  for (const Directive &D : C.directives())
    if (D.Text.find("<random>") != std::string::npos)
      C.diag(D.Line, "BL001", "nondet-rand",
             "#include <random> outside support/Rng; use the seeded Rng "
             "stream instead");
}

//===----------------------------------------------------------------------===//
// BL002 wall-clock
//===----------------------------------------------------------------------===//

void checkWallClock(Checker &C) {
  if (pathContains(C.Path, "src/support/Timer.h"))
    return;
  static const std::set<std::string> Banned = {
      "steady_clock",  "system_clock", "high_resolution_clock",
      "gettimeofday",  "clock_gettime", "timespec_get",
      "localtime",     "gmtime",        "mktime"};
  const auto &Toks = C.tokens();
  for (size_t I = 0; I != Toks.size(); ++I) {
    const Token &T = Toks[I];
    if (T.Kind != TokKind::Ident)
      continue;
    if (Banned.count(T.Text)) {
      C.diag(T.Line, "BL002", "wall-clock",
             "'" + T.Text +
                 "' reads the wall clock; route timing through the "
                 "support/Timer shim (reporting only, never results)");
      continue;
    }
    // time(...) / clock(...) only when called.
    if ((T.Text == "time" || T.Text == "clock") && I + 1 != Toks.size() &&
        Toks[I + 1].Kind == TokKind::Punct && Toks[I + 1].Text == "(")
      C.diag(T.Line, "BL002", "wall-clock",
             "'" + T.Text +
                 "()' reads the wall clock; route timing through the "
                 "support/Timer shim");
  }
  for (const Directive &D : C.directives())
    for (const char *Header : {"<chrono>", "<ctime>", "<sys/time.h>"})
      if (D.Text.find(Header) != std::string::npos)
        C.diag(D.Line, "BL002", "wall-clock",
               std::string("#include ") + Header +
                   " outside support/Timer; wall-clock access is confined "
                   "to the timing shim");
}

//===----------------------------------------------------------------------===//
// BL003 unordered-iter
//===----------------------------------------------------------------------===//

/// Collects names declared with an unordered container type in this file,
/// e.g. `std::unordered_map<uint64_t, Entry> Fresh;` records "Fresh".
std::set<std::string> unorderedDecls(const std::vector<Token> &Toks) {
  std::set<std::string> Names;
  for (size_t I = 0; I != Toks.size(); ++I) {
    const Token &T = Toks[I];
    if (T.Kind != TokKind::Ident ||
        (T.Text != "unordered_map" && T.Text != "unordered_set" &&
         T.Text != "unordered_multimap" && T.Text != "unordered_multiset"))
      continue;
    size_t J = I + 1;
    if (J == Toks.size() || Toks[J].Text != "<")
      continue;
    int Depth = 0;
    for (; J != Toks.size(); ++J) {
      if (Toks[J].Kind != TokKind::Punct)
        continue;
      if (Toks[J].Text == "<")
        ++Depth;
      else if (Toks[J].Text == ">" && --Depth == 0)
        break;
    }
    if (J == Toks.size())
      continue;
    ++J;
    // Skip references/pointers between the type and the declared name.
    while (J != Toks.size() && Toks[J].Kind == TokKind::Punct &&
           (Toks[J].Text == "&" || Toks[J].Text == "*"))
      ++J;
    if (J != Toks.size() && Toks[J].Kind == TokKind::Ident)
      Names.insert(Toks[J].Text);
  }
  return Names;
}

void checkUnorderedIter(Checker &C) {
  // Merged/measured paths live under src/ and tools/; tests, benches and
  // examples may iterate freely (their output feeds humans, not models).
  if (!pathStartsWith(C.Path, "src/") && !pathStartsWith(C.Path, "tools/"))
    return;
  const auto &Toks = C.tokens();
  std::set<std::string> Unordered = unorderedDecls(Toks);

  auto flagIfUnordered = [&](size_t Begin, size_t End, unsigned Line) {
    for (size_t K = Begin; K < End && K < Toks.size(); ++K) {
      const Token &T = Toks[K];
      if (T.Kind != TokKind::Ident)
        continue;
      if (Unordered.count(T.Text) || T.Text == "unordered_map" ||
          T.Text == "unordered_set" || T.Text == "unordered_multimap" ||
          T.Text == "unordered_multiset") {
        C.diag(Line, "BL003", "unordered-iter",
               "iteration over unordered container '" + T.Text +
                   "' visits hash order, which may not feed output or "
                   "merged state (sort first, or justify a suppression)");
        return;
      }
    }
  };

  for (const cpplex::LoopSpan &L : cpplex::findLoops(Toks))
    if (L.RangeFor)
      flagIfUnordered(L.RangeColon + 1, L.HeaderEnd, L.Line);

  // Explicit iterator loops: Name.begin() / Name.cbegin() on a recorded
  // unordered declaration. `.end()` alone is not flagged — it is the
  // harmless sentinel of find()-style membership probes; an actual walk
  // always needs the begin side.
  for (size_t I = 0; I + 2 < Toks.size(); ++I)
    if (Toks[I].Kind == TokKind::Ident && Unordered.count(Toks[I].Text) &&
        Toks[I + 1].Text == "." && Toks[I + 2].Kind == TokKind::Ident &&
        (Toks[I + 2].Text == "begin" || Toks[I + 2].Text == "cbegin"))
      C.diag(Toks[I].Line, "BL003", "unordered-iter",
             "iterator over unordered container '" + Toks[I].Text +
                 "' visits hash order, which may not feed output or "
                 "merged state");
}

//===----------------------------------------------------------------------===//
// BL004 naked-new
//===----------------------------------------------------------------------===//

void checkNakedNew(Checker &C) {
  if (pathStartsWith(C.Path, "src/containers/"))
    return;
  const auto &Toks = C.tokens();
  for (size_t I = 0; I != Toks.size(); ++I) {
    const Token &T = Toks[I];
    if (T.Kind != TokKind::Ident || (T.Text != "new" && T.Text != "delete"))
      continue;
    // `= delete` (deleted functions) and `operator new/delete` are not
    // allocations. `= new` IS one, so the '=' exclusion is delete-only.
    if (I > 0 && Toks[I - 1].Text == "operator")
      continue;
    if (I > 0 && Toks[I - 1].Text == "=" && T.Text == "delete")
      continue;
    C.diag(T.Line, "BL004", "naked-new",
           "naked '" + T.Text +
               "' outside src/containers; own memory with "
               "containers/RAII (make_unique, vector)");
  }
}

//===----------------------------------------------------------------------===//
// BL005 catch-all
//===----------------------------------------------------------------------===//

void checkCatchAll(Checker &C) {
  const auto &Toks = C.tokens();
  for (size_t I = 0; I + 3 < Toks.size(); ++I) {
    if (Toks[I].Kind != TokKind::Ident || Toks[I].Text != "catch" ||
        Toks[I + 1].Text != "(" || Toks[I + 2].Text != "..." ||
        Toks[I + 3].Text != ")")
      continue;
    // Scan the balanced handler body for a rethrow or Error conversion.
    size_t J = I + 4;
    while (J != Toks.size() && Toks[J].Text != "{")
      ++J;
    int Depth = 0;
    bool Handled = false;
    for (; J != Toks.size(); ++J) {
      if (Toks[J].Kind == TokKind::Punct) {
        if (Toks[J].Text == "{")
          ++Depth;
        else if (Toks[J].Text == "}" && --Depth == 0)
          break;
        continue;
      }
      if (Toks[J].Kind == TokKind::Ident &&
          (Toks[J].Text == "throw" || Toks[J].Text == "rethrow_exception" ||
           Toks[J].Text == "current_exception" ||
           Toks[J].Text == "exception_ptr" || Toks[J].Text == "Error" ||
           Toks[J].Text == "ErrorException"))
        Handled = true;
    }
    if (!Handled)
      C.diag(Toks[I].Line, "BL005", "catch-all",
             "catch (...) swallows without rethrow or Error conversion; "
             "rethrow, capture via current_exception, or convert to Error");
  }
}

//===----------------------------------------------------------------------===//
// BL006 header-guard
//===----------------------------------------------------------------------===//

void checkHeaderGuard(Checker &C) {
  if (!isHeader(C.Path))
    return;
  const auto &Dirs = C.directives();
  if (Dirs.empty()) {
    C.diag(1, "BL006", "header-guard",
           "header has no include guard (#ifndef/#define or #pragma once)");
    return;
  }
  const std::string &First = Dirs.front().Text;
  if (First.rfind("#pragma once", 0) == 0)
    return;
  auto secondWord = [](const std::string &Text) -> std::string {
    std::istringstream Stream(Text);
    std::string Hash, Word;
    Stream >> Hash >> Word;
    return Word;
  };
  bool Guarded = false;
  if (First.rfind("#ifndef", 0) == 0 && Dirs.size() > 1 &&
      Dirs[1].Text.rfind("#define", 0) == 0 &&
      secondWord(First) == secondWord(Dirs[1].Text) &&
      Dirs.back().Text.rfind("#endif", 0) == 0)
    Guarded = true;
  if (!Guarded)
    C.diag(Dirs.front().Line, "BL006", "header-guard",
           "header guard malformed: expected '#ifndef X' + '#define X' "
           "(matching macro) closed by '#endif', or '#pragma once'");
}

//===----------------------------------------------------------------------===//
// BL007 using-namespace-header
//===----------------------------------------------------------------------===//

void checkUsingNamespaceHeader(Checker &C) {
  if (!isHeader(C.Path))
    return;
  const auto &Toks = C.tokens();
  for (size_t I = 0; I + 1 < Toks.size(); ++I)
    if (Toks[I].Kind == TokKind::Ident && Toks[I].Text == "using" &&
        Toks[I + 1].Kind == TokKind::Ident &&
        Toks[I + 1].Text == "namespace")
      C.diag(Toks[I].Line, "BL007", "using-namespace-header",
             "'using namespace' in a header leaks into every includer; "
             "qualify names instead");
}

//===----------------------------------------------------------------------===//
// BL008 erase-in-loop
//===----------------------------------------------------------------------===//

/// Container names a loop iterates: the trailing identifier of the
/// range-for expression, plus every `X` with `X.begin()` / `X.end()` (and
/// the c/r variants) in the header.
std::set<std::string> iteratedNames(const std::vector<Token> &Toks,
                                    const cpplex::LoopSpan &L) {
  std::set<std::string> Names;
  if (L.RangeFor) {
    // `for (auto &KV : Expr)` — the last plain identifier of Expr is the
    // best container-name guess (handles `M` and `Obj.M`).
    for (size_t K = L.HeaderEnd; K-- > L.RangeColon + 1;) {
      if (Toks[K].Kind == TokKind::Ident) {
        Names.insert(Toks[K].Text);
        break;
      }
      if (Toks[K].Kind == TokKind::Punct &&
          (Toks[K].Text == ")" || Toks[K].Text == "]"))
        break; // call or index result: no stable name to track
    }
  }
  static const std::set<std::string> BeginEnd = {
      "begin", "end", "cbegin", "cend", "rbegin", "rend"};
  for (size_t K = L.HeaderBegin; K + 2 < L.HeaderEnd; ++K)
    if (Toks[K].Kind == TokKind::Ident && Toks[K + 1].Text == "." &&
        Toks[K + 2].Kind == TokKind::Ident && BeginEnd.count(Toks[K + 2].Text))
      Names.insert(Toks[K].Text);
  return Names;
}

void checkEraseInLoop(Checker &C) {
  const auto &Toks = C.tokens();
  for (const cpplex::LoopSpan &L : cpplex::findLoops(Toks)) {
    std::set<std::string> Iterated = iteratedNames(Toks, L);
    if (Iterated.empty())
      continue;
    // Identifiers appearing in the loop header: the loop's own iterator
    // variables. `X.erase(Key)` with a key from outside the loop is not
    // this rule's hazard; `X.erase(It)` with the header's iterator is.
    std::set<std::string> HeaderIdents;
    for (size_t K = L.HeaderBegin; K < L.HeaderEnd; ++K)
      if (Toks[K].Kind == TokKind::Ident)
        HeaderIdents.insert(Toks[K].Text);

    for (size_t K = L.BodyBegin; K + 3 < L.BodyEnd; ++K) {
      if (Toks[K].Kind != TokKind::Ident || !Iterated.count(Toks[K].Text) ||
          Toks[K + 1].Text != "." || Toks[K + 2].Text != "erase" ||
          Toks[K + 3].Text != "(")
        continue;
      size_t Close = cpplex::matchDelim(Toks, K + 3);
      if (Close == Toks.size() || Close > L.BodyEnd)
        continue;
      // Argument must be a single identifier (an iterator), and one the
      // loop header owns. `erase(It++)` — the node-container idiom that
      // advances before invalidation — is exempt.
      if (Close != K + 5 || Toks[K + 4].Kind != TokKind::Ident ||
          !HeaderIdents.count(Toks[K + 4].Text))
        continue;
      // Consumed result (`It = X.erase(It)`, `auto N = ...`, `return ...`)
      // is the correct pattern.
      if (K >= 1 + L.BodyBegin &&
          (Toks[K - 1].Text == "=" || Toks[K - 1].Text == "return"))
        continue;
      C.diag(Toks[K].Line, "BL008", "erase-in-loop",
             "'" + Toks[K].Text + ".erase(" + Toks[K + 4].Text +
                 ")' inside a loop over '" + Toks[K].Text +
                 "' discards the returned iterator; the erased iterator is "
                 "invalid — use 'It = c.erase(It)' (or erase(It++) on "
                 "node-based containers)");
    }
  }
}

//===----------------------------------------------------------------------===//
// BL009 range-for-copy
//===----------------------------------------------------------------------===//

void checkRangeForCopy(Checker &C) {
  // Element types whose copies are never trivial. Spelled types only: a
  // plain `auto` loop variable stays unflagged because the element type
  // is not visible at token level, and user structs stay unflagged
  // because their triviality is unknowable without a real frontend.
  static const std::set<std::string> Expensive = {
      "string",        "wstring",       "basic_string",
      "vector",        "deque",         "list",
      "map",           "multimap",      "set",
      "multiset",      "unordered_map", "unordered_multimap",
      "unordered_set", "unordered_multiset",
      "pair",          "tuple",         "function",
      "shared_ptr"};
  const auto &Toks = C.tokens();
  for (const cpplex::LoopSpan &L : cpplex::findLoops(Toks)) {
    if (!L.RangeFor)
      continue;
    // The declaration is everything left of the top-level ':'. A '&'
    // (or '&&') anywhere there means by-reference; '*' means the
    // element is a pointer and the copy is trivial.
    bool ByValue = true;
    bool ExpensiveType = false;
    std::string TypeWord, VarName;
    for (size_t K = L.HeaderBegin; K < L.RangeColon; ++K) {
      const Token &T = Toks[K];
      if (T.Kind == TokKind::Punct) {
        if (T.Text == "&" || T.Text == "&&" || T.Text == "*")
          ByValue = false;
      } else if (T.Kind == TokKind::Ident) {
        if (Expensive.count(T.Text)) {
          ExpensiveType = true;
          if (TypeWord.empty())
            TypeWord = T.Text;
        }
        VarName = T.Text; // last identifier before ':' is the variable
      }
    }
    if (!ByValue || !ExpensiveType)
      continue;
    C.diag(L.Line, "BL009", "range-for-copy",
           "range-for variable '" + VarName + "' copies a '" + TypeWord +
               "' element every iteration; bind by (const) reference "
               "instead");
  }
}

//===----------------------------------------------------------------------===//
// BL010 raw-rename
//===----------------------------------------------------------------------===//

void checkRawRename(Checker &C) {
  if (pathContains(C.Path, "src/support/FramedFile.cpp"))
    return;
  const auto &Toks = C.tokens();
  for (size_t I = 0; I + 1 < Toks.size(); ++I) {
    if (Toks[I].Kind != TokKind::Ident || Toks[I].Text != "rename" ||
        Toks[I + 1].Text != "(")
      continue;
    // A member call through `.` or `->` is some class's own rename.
    if (I >= 1 && (Toks[I - 1].Text == "." ||
                   (I >= 2 && Toks[I - 1].Text == ">" &&
                    Toks[I - 2].Text == "-")))
      continue;
    C.diag(Toks[I].Line, "BL010", "raw-rename",
           "'rename' call outside support/FramedFile; commit files "
           "through writeFileAtomic, the one atomic writer with the io "
           "fault probes");
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Public interface
//===----------------------------------------------------------------------===//

const std::vector<Rule> &brainy::lint::rules() {
  static const std::vector<Rule> Rules = {
      {"BL001", "nondet-rand",
       "nondeterminism sources (rand, random_device, <random> engines)",
       "src/support/Rng.*"},
      {"BL002", "wall-clock",
       "wall-clock reads (time, clock, chrono clocks, <chrono>/<ctime>)",
       "src/support/Timer.h"},
      {"BL003", "unordered-iter",
       "iteration over unordered_map/unordered_set (hash order can leak "
       "into output or merged state)",
       "tests/, bench/, examples/"},
      {"BL004", "naked-new",
       "naked new/delete (own memory with containers or RAII)",
       "src/containers/"},
      {"BL005", "catch-all",
       "catch (...) that swallows without rethrow or Error conversion",
       "-"},
      {"BL006", "header-guard",
       "headers must carry a matching include guard or #pragma once", "-"},
      {"BL007", "using-namespace-header",
       "'using namespace' inside a header", "-"},
      {"BL008", "erase-in-loop",
       "erase(it) in a loop over the same container that discards the "
       "returned iterator (iterator-invalidation hazard)",
       "-"},
      {"BL009", "range-for-copy",
       "by-value range-for variable of a spelled non-trivial element type "
       "(string, container, pair, ...) — copies every iteration",
       "-"},
      {"BL010", "raw-rename",
       "raw rename calls (file commits go through writeFileAtomic)",
       "src/support/FramedFile.cpp"},
  };
  return Rules;
}

std::string brainy::lint::format(const Diag &D) {
  return D.Path + ":" + std::to_string(D.Line) + ": error: [" + D.RuleId +
         " " + D.RuleName + "] " + D.Message;
}

std::vector<Diag> brainy::lint::lintSource(const std::string &Path,
                                           const std::string &Content) {
  LexedFile File = lexForLint(Content);
  Checker C{Path, File, {}};
  checkNondetRand(C);
  checkWallClock(C);
  checkUnorderedIter(C);
  checkNakedNew(C);
  checkCatchAll(C);
  checkHeaderGuard(C);
  checkUsingNamespaceHeader(C);
  checkEraseInLoop(C);
  checkRangeForCopy(C);
  checkRawRename(C);
  std::sort(C.Diags.begin(), C.Diags.end(),
            [](const Diag &A, const Diag &B) {
              if (A.Line != B.Line)
                return A.Line < B.Line;
              return A.RuleId < B.RuleId;
            });
  return std::move(C.Diags);
}

std::vector<Diag> brainy::lint::lintFile(const std::string &Path,
                                         const std::string &FullPath) {
  std::ifstream In(FullPath, std::ios::binary);
  if (!In)
    return {{Path, 0, "BL000", "io", "cannot open file"}};
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return lintSource(Path, Buffer.str());
}

std::vector<std::string>
brainy::lint::defaultScanSet(const std::string &Root) {
  namespace fs = std::filesystem;
  std::vector<std::string> Paths;
  for (const char *Dir : {"src", "tools", "tests", "bench", "examples"}) {
    fs::path Base = fs::path(Root) / Dir;
    std::error_code Ec;
    if (!fs::is_directory(Base, Ec))
      continue;
    for (auto It = fs::recursive_directory_iterator(Base, Ec);
         !Ec && It != fs::recursive_directory_iterator(); ++It) {
      if (!It->is_regular_file())
        continue;
      fs::path P = It->path();
      std::string Ext = P.extension().string();
      if (Ext != ".h" && Ext != ".cpp")
        continue;
      std::string Rel = fs::relative(P, Root, Ec).generic_string();
      if (Rel.find("fixtures/") != std::string::npos)
        continue;
      Paths.push_back(Rel);
    }
  }
  std::sort(Paths.begin(), Paths.end());
  return Paths;
}
