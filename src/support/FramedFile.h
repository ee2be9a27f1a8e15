//===- support/FramedFile.h - The framed on-disk file format ---*- C++ -*-===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one on-disk layout every Brainy store shares — model bundles
/// (`brainy-bundle v2`) and the measurement cache (`brainy-mcache v2`; v1
/// files still load):
///
///   MAGIC VERSION
///   key value                             one line per header field
///   ...
///   payload <bytes> crc32 <8 hex digits>
///   <payload bytes>
///
/// and the file protocol around it (DESIGN.md §8): writes commit through
/// a temp file and a rename, so a crash leaves the previous file or the
/// new one, never a torn one; reads and writes probe the `io` fault site
/// with one salt per step (read, write, rename). A format owns only its
/// magic/version, what its header fields mean, and its payload codec.
///
//===----------------------------------------------------------------------===//

#ifndef BRAINY_SUPPORT_FRAMEDFILE_H
#define BRAINY_SUPPORT_FRAMEDFILE_H

#include "support/Error.h"

#include <initializer_list>
#include <string>
#include <utility>

namespace brainy {

/// Frames \p Payload: the `Magic Version` line, one `key value` line per
/// entry of \p Fields in order, the payload size and CRC32, the payload.
std::string
frame(const char *Magic, const char *Version,
      std::initializer_list<std::pair<const char *, std::string>> Fields,
      const std::string &Payload);

/// Validates a framed \p Text and splits it: each header line must carry
/// the key of the matching \p Fields entry (its value lands in the
/// paired string), and the payload must match the declared size and
/// CRC32 before it is moved into \p Payload. Fails with BadMagic,
/// BadVersion, Truncated (a header or payload ends early), BadFormat
/// (wrong key, malformed payload line, trailing bytes) or BadChecksum.
Error unframe(const std::string &Text, const char *Magic, const char *Version,
              std::initializer_list<std::pair<const char *, std::string *>>
                  Fields,
              std::string &Payload);

/// Writes \p Content to \p Path atomically: `<Path>.tmp` is written,
/// flushed and closed, then renamed over \p Path. A failure or injected
/// `io` fault at the write or the rename removes the temp file and
/// leaves any previous \p Path untouched.
Error writeFileAtomic(const std::string &Path, const std::string &Content);

/// Reads all of \p Path behind the `io` read probe. A missing file is a
/// plain IoError — the cold-start case callers treat quietly — and so is
/// a read error part-way through.
Expected<std::string> readFile(const std::string &Path);

} // namespace brainy

#endif // BRAINY_SUPPORT_FRAMEDFILE_H
