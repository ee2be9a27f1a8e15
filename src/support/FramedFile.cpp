//===- support/FramedFile.cpp ---------------------------------------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "support/FramedFile.h"

#include "support/Crc32.h"
#include "support/FaultInjector.h"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>

using namespace brainy;

namespace {

/// I/O-step salts for the FileIo fault site, so `io` faults can hit reads,
/// writes, and the commit rename independently but deterministically.
constexpr uint64_t IoSaltRead = 0;
constexpr uint64_t IoSaltWrite = 1;
constexpr uint64_t IoSaltRename = 2;

} // namespace

std::string
brainy::frame(const char *Magic, const char *Version,
              std::initializer_list<std::pair<const char *, std::string>> Fields,
              const std::string &Payload) {
  std::string Out = std::string(Magic) + " " + Version + "\n";
  for (const auto &[Key, Value] : Fields)
    Out += std::string(Key) + " " + Value + "\n";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "payload %zu crc32 %08" PRIx32 "\n",
                Payload.size(), crc32(Payload));
  Out += Buf;
  Out += Payload;
  return Out;
}

Error brainy::unframe(
    const std::string &Text, const char *Magic, const char *Version,
    std::initializer_list<std::pair<const char *, std::string *>> Fields,
    std::string &Payload) {
  if (Text.empty())
    return Error(ErrCode::Truncated, std::string("empty ") + Magic + " file");

  size_t Pos = 0;
  auto TakeLine = [&Text, &Pos](std::string &Line) {
    if (Pos >= Text.size())
      return false;
    size_t Eol = Text.find('\n', Pos);
    if (Eol == std::string::npos)
      Eol = Text.size();
    Line = Text.substr(Pos, Eol - Pos);
    Pos = Eol + 1;
    return true;
  };

  std::string Line;
  TakeLine(Line);
  size_t Space = Line.find(' ');
  if (Line.substr(0, Space) != Magic)
    return Error(ErrCode::BadMagic, std::string("not a ") + Magic + " file");
  std::string Got = Space == std::string::npos ? "" : Line.substr(Space + 1);
  if (Got != Version)
    return Error(ErrCode::BadVersion, std::string(Magic) + " version '" + Got +
                                          "', this build reads '" + Version +
                                          "'");

  for (const auto &[Key, Value] : Fields) {
    if (!TakeLine(Line))
      return Error(ErrCode::Truncated,
                   std::string("header ends before '") + Key + "'");
    std::string Prefix = std::string(Key) + " ";
    if (Line.rfind(Prefix, 0) != 0)
      return Error(ErrCode::BadFormat,
                   std::string("expected '") + Key + " <value>'");
    *Value = Line.substr(Prefix.size());
  }

  if (!TakeLine(Line))
    return Error(ErrCode::Truncated, "header ends before 'payload'");
  unsigned long long PayloadSize = 0;
  uint32_t WantCrc = 0;
  if (std::sscanf(Line.c_str(), "payload %llu crc32 %8" SCNx32, &PayloadSize,
                  &WantCrc) != 2)
    return Error(ErrCode::BadFormat, "expected 'payload <size> crc32 <hex>'");
  // The payload line is the last one the writer terminates; a file that
  // stops inside it is cut short, whatever size it declares.
  if (Pos > Text.size())
    return Error(ErrCode::Truncated, "file ends inside the 'payload' line");

  size_t Remaining = Text.size() - Pos;
  if (Remaining < PayloadSize)
    return Error(ErrCode::Truncated,
                 "payload is " + std::to_string(Remaining) +
                     " bytes, header declares " +
                     std::to_string(PayloadSize));
  if (Remaining > PayloadSize)
    return Error(ErrCode::BadFormat, std::to_string(Remaining - PayloadSize) +
                                         " trailing bytes after payload");

  uint32_t GotCrc = crc32(Text.data() + Pos, Remaining);
  if (GotCrc != WantCrc) {
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf),
                  "payload crc32 %08" PRIx32 ", header says %08" PRIx32,
                  GotCrc, WantCrc);
    return Error(ErrCode::BadChecksum, Buf);
  }
  Payload = Text.substr(Pos);
  return Error::success();
}

Error brainy::writeFileAtomic(const std::string &Path,
                              const std::string &Content) {
  FaultInjector &FI = FaultInjector::instance();
  uint64_t PathKey = FaultInjector::keyFor(Path);
  if (FI.shouldFail(FaultSite::FileIo, PathKey, IoSaltWrite))
    return Error(ErrCode::FaultInjected, "writing '" + Path + "'");

  std::string Tmp = Path + ".tmp";
  std::FILE *F = std::fopen(Tmp.c_str(), "wb");
  if (!F)
    return Error(ErrCode::IoError,
                 "cannot open '" + Tmp + "': " + std::strerror(errno));
  bool Ok = std::fwrite(Content.data(), 1, Content.size(), F) ==
            Content.size();
  Ok &= std::fflush(F) == 0;
  Ok &= std::fclose(F) == 0;
  if (!Ok) {
    std::remove(Tmp.c_str());
    return Error(ErrCode::IoError, "short write to '" + Tmp + "'");
  }
  // Simulated crash between write and commit: the temp file is discarded
  // and the previous file (if any) stays intact.
  if (FI.shouldFail(FaultSite::FileIo, PathKey, IoSaltRename)) {
    std::remove(Tmp.c_str());
    return Error(ErrCode::FaultInjected,
                 "renaming '" + Tmp + "' over '" + Path + "'");
  }
  // The rename is the commit point: a kill at any instant leaves either
  // the previous complete file or the new one, never a torn file.
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    std::remove(Tmp.c_str());
    return Error(ErrCode::IoError, "cannot rename '" + Tmp + "' to '" +
                                       Path + "': " + std::strerror(errno));
  }
  return Error::success();
}

Expected<std::string> brainy::readFile(const std::string &Path) {
  if (FaultInjector::instance().shouldFail(
          FaultSite::FileIo, FaultInjector::keyFor(Path), IoSaltRead))
    return Error(ErrCode::FaultInjected, "reading '" + Path + "'");

  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return Error(ErrCode::IoError,
                 "cannot open '" + Path + "': " + std::strerror(errno));
  std::string Text;
  char Buf[8192];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Text.append(Buf, N);
  bool Failed = std::ferror(F) != 0;
  std::fclose(F);
  if (Failed)
    return Error(ErrCode::IoError, "read error on '" + Path + "'");
  return Text;
}
