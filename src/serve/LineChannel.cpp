//===- serve/LineChannel.cpp ----------------------------------------------===//
//
// Part of the Brainy reproduction of PLDI 2011's "Brainy".
//
//===----------------------------------------------------------------------===//

#include "serve/LineChannel.h"

using namespace brainy;
using namespace brainy::serve;

bool LineChannel::popLine(std::string &Out) {
  size_t Nl = Buffer.find('\n');
  if (Nl == std::string::npos) {
    if (SawEof && !Buffer.empty() && Buffer.size() <= MaxLineBytes) {
      // Final unterminated line: deliver what the peer managed to send.
      Out = std::move(Buffer);
      Buffer.clear();
      return true;
    }
    return false;
  }
  size_t End = Nl;
  if (End != 0 && Buffer[End - 1] == '\r')
    --End;
  Out.assign(Buffer, 0, End);
  Buffer.erase(0, Nl + 1);
  return true;
}

LineChannel::ReadStatus LineChannel::readLine(std::string &Out,
                                              int TimeoutMs) {
  if (popLine(Out))
    return ReadStatus::Line;
  if (!SawEof && Buffer.size() <= MaxLineBytes) {
    char Chunk[4096];
    size_t N = Transport.readSome(Chunk, sizeof(Chunk), TimeoutMs, SawEof);
    if (N != 0)
      Buffer.append(Chunk, N);
    if (popLine(Out))
      return ReadStatus::Line;
  }
  // No line to pop: Buffer is one unterminated line, at most MaxLineBytes
  // plus one chunk long.
  if (Buffer.size() > MaxLineBytes)
    return ReadStatus::TooLong;
  return SawEof ? ReadStatus::Eof : ReadStatus::Timeout;
}

LineChannel::ReadStatus
LineChannel::readAvailableLines(std::vector<std::string> &Out, int TimeoutMs) {
  std::string Line;
  ReadStatus Status = readLine(Line, TimeoutMs);
  while (Status == ReadStatus::Line) {
    Out.push_back(std::move(Line));
    // Only the first read waits; once one line is in hand, take whatever
    // else the client pipelined without stalling the batch.
    Status = readLine(Line, 0);
  }
  return Status;
}

void LineChannel::writeLine(const std::string &Line) {
  std::string Framed = Line;
  Framed += '\n';
  Transport.writeAll(Framed.data(), Framed.size());
}

void LineChannel::writeLines(const std::vector<std::string> &Lines) {
  if (Lines.empty())
    return;
  std::string Framed;
  for (const std::string &Line : Lines) {
    Framed += Line;
    Framed += '\n';
  }
  Transport.writeAll(Framed.data(), Framed.size());
}
