//===- support/Config.cpp -------------------------------------------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "support/Config.h"

#include "support/FramedFile.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

using namespace brainy;

static std::string trim(const std::string &S) {
  size_t B = 0, E = S.size();
  while (B < E && std::isspace(static_cast<unsigned char>(S[B])))
    ++B;
  while (E > B && std::isspace(static_cast<unsigned char>(S[E - 1])))
    --E;
  return S.substr(B, E - B);
}

Config Config::fromString(const std::string &Text) {
  Config Result;
  size_t Pos = 0;
  unsigned LineNo = 0;
  while (Pos <= Text.size()) {
    size_t Eol = Text.find('\n', Pos);
    if (Eol == std::string::npos)
      Eol = Text.size();
    std::string Line = Text.substr(Pos, Eol - Pos);
    Pos = Eol + 1;
    ++LineNo;

    size_t Hash = Line.find('#');
    if (Hash != std::string::npos)
      Line.resize(Hash);
    Line = trim(Line);
    if (Line.empty())
      continue;

    size_t Eq = Line.find('=');
    if (Eq == std::string::npos) {
      Result.Errors.push_back("line " + std::to_string(LineNo) +
                              ": expected 'Key = Value'");
      continue;
    }
    std::string Key = trim(Line.substr(0, Eq));
    std::string Value = trim(Line.substr(Eq + 1));
    if (Key.empty()) {
      Result.Errors.push_back("line " + std::to_string(LineNo) +
                              ": empty key");
      continue;
    }
    Result.Values[Key] = Setting{Value, LineNo};
  }
  return Result;
}

Config Config::fromFile(const std::string &Path) {
  Expected<std::string> Text = readFile(Path);
  if (Text)
    return fromString(*Text);
  Config Result;
  Result.Errors.push_back(Text.error().message());
  return Result;
}

const Config::Setting *Config::find(const std::string &Key) const {
  auto It = Values.find(Key);
  return It == Values.end() ? nullptr : &It->second;
}

void Config::recordValueError(ErrCode Code, const std::string &Key,
                              const Setting &S,
                              const std::string &Detail) const {
  std::string Where =
      S.Line ? "line " + std::to_string(S.Line) + ": " : std::string();
  Errors.push_back(
      Error(Code, Where + "key '" + Key + "': " + Detail).message());
}

std::string Config::getString(const std::string &Key,
                              const std::string &Default) const {
  const Setting *S = find(Key);
  return S ? S->Value : Default;
}

int64_t Config::getInt(const std::string &Key, int64_t Default) const {
  const Setting *S = find(Key);
  if (!S)
    return Default;
  errno = 0;
  char *End = nullptr;
  long long V = std::strtoll(S->Value.c_str(), &End, 0);
  if (errno == ERANGE) {
    recordValueError(ErrCode::OutOfRange, Key, *S,
                     "integer '" + S->Value + "' does not fit 64 bits");
    return Default;
  }
  if (End == S->Value.c_str()) {
    recordValueError(ErrCode::InvalidValue, Key, *S,
                     "not an integer: '" + S->Value + "'");
    return Default;
  }
  if (!trim(End).empty()) {
    recordValueError(ErrCode::InvalidValue, Key, *S,
                     "trailing characters after integer: '" + S->Value +
                         "'");
    return Default;
  }
  return V;
}

double Config::getDouble(const std::string &Key, double Default) const {
  const Setting *S = find(Key);
  if (!S)
    return Default;
  errno = 0;
  char *End = nullptr;
  double V = std::strtod(S->Value.c_str(), &End);
  if (errno == ERANGE) {
    recordValueError(ErrCode::OutOfRange, Key, *S,
                     "number '" + S->Value + "' out of double range");
    return Default;
  }
  if (End == S->Value.c_str()) {
    recordValueError(ErrCode::InvalidValue, Key, *S,
                     "not a number: '" + S->Value + "'");
    return Default;
  }
  if (!trim(End).empty()) {
    recordValueError(ErrCode::InvalidValue, Key, *S,
                     "trailing characters after number: '" + S->Value + "'");
    return Default;
  }
  return V;
}

bool Config::getBool(const std::string &Key, bool Default) const {
  const Setting *S = find(Key);
  if (!S)
    return Default;
  std::string V;
  for (char C : S->Value)
    V.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(C))));
  if (V == "true" || V == "1" || V == "yes")
    return true;
  if (V == "false" || V == "0" || V == "no")
    return false;
  return Default;
}

std::vector<int64_t> Config::getIntList(const std::string &Key,
                                        std::vector<int64_t> Default) const {
  const Setting *S = find(Key);
  if (!S)
    return Default;
  std::string V = trim(S->Value);
  if (V.empty()) {
    recordValueError(ErrCode::InvalidValue, Key, *S, "empty list value");
    return Default;
  }
  if (V.front() == '{') {
    if (V.back() != '}') {
      recordValueError(ErrCode::InvalidValue, Key, *S,
                       "unterminated '{' list: '" + S->Value + "'");
      return Default;
    }
    V = V.substr(1, V.size() - 2);
  }
  std::vector<int64_t> Result;
  size_t Pos = 0;
  while (Pos <= V.size()) {
    size_t Comma = V.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = V.size();
    std::string Item = trim(V.substr(Pos, Comma - Pos));
    Pos = Comma + 1;
    if (Item.empty())
      continue;
    errno = 0;
    char *End = nullptr;
    long long N = std::strtoll(Item.c_str(), &End, 0);
    if (errno == ERANGE) {
      recordValueError(ErrCode::OutOfRange, Key, *S,
                       "list item '" + Item + "' does not fit 64 bits");
      return Default;
    }
    if (End == Item.c_str() || *End != '\0') {
      recordValueError(ErrCode::InvalidValue, Key, *S,
                       "bad list item '" + Item + "' in '" + S->Value + "'");
      return Default;
    }
    Result.push_back(N);
  }
  if (Result.empty()) {
    recordValueError(ErrCode::InvalidValue, Key, *S,
                     "list '" + S->Value + "' holds no items");
    return Default;
  }
  return Result;
}

std::vector<std::string> Config::keys() const {
  std::vector<std::string> Result;
  Result.reserve(Values.size());
  for (const auto &KV : Values)
    Result.push_back(KV.first);
  return Result;
}
