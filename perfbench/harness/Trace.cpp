//===- perfbench/harness/Trace.cpp - In-memory span recorder --------------===//

#include "Trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>

using namespace perfbench;

namespace {

thread_local std::vector<uint64_t> OpenSpans;

uint32_t threadIndex() {
  static std::atomic<uint32_t> Next{1};
  thread_local uint32_t Mine = Next.fetch_add(1);
  return Mine;
}

void jsonEscape(std::FILE *F, const std::string &S) {
  for (char C : S) {
    if (C == '"' || C == '\\')
      std::fputc('\\', F);
    std::fputc(C, F);
  }
}

} // namespace

int64_t perfbench::nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer &Tracer::instance() {
  static Tracer T;
  return T;
}

uint64_t Tracer::nextId() {
  std::lock_guard<std::mutex> L(M);
  return NextId++;
}

void Tracer::record(SpanRecord R) {
  std::lock_guard<std::mutex> L(M);
  Records.push_back(std::move(R));
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> L(M);
  return Records;
}

std::map<std::string, SpanAggregate> Tracer::aggregate() const {
  std::vector<SpanRecord> All = spans();
  std::map<uint64_t, double> ChildMs;
  for (const SpanRecord &R : All)
    if (R.Parent)
      ChildMs[R.Parent] += double(R.EndNs - R.StartNs) / 1e6;
  std::map<std::string, SpanAggregate> Out;
  for (const SpanRecord &R : All) {
    SpanAggregate &A = Out[R.Name];
    double Ms = double(R.EndNs - R.StartNs) / 1e6;
    ++A.Count;
    A.TotalMs += Ms;
    auto It = ChildMs.find(R.Id);
    A.SelfMs += Ms - (It == ChildMs.end() ? 0.0 : It->second);
    A.DurationsMs.push_back(Ms);
  }
  return Out;
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  std::vector<SpanRecord> All = spans();
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  int64_t Origin = All.empty() ? 0 : All.front().StartNs;
  for (const SpanRecord &R : All)
    Origin = std::min(Origin, R.StartNs);
  std::fprintf(F, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t I = 0; I != All.size(); ++I) {
    const SpanRecord &R = All[I];
    std::fprintf(F, "{\"name\": \"");
    jsonEscape(F, R.Name);
    std::fprintf(F,
                 "\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                 "\"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %llu, \"parent\": %llu}}%s\n",
                 R.Tid, double(R.StartNs - Origin) / 1e3,
                 double(R.EndNs - R.StartNs) / 1e3,
                 static_cast<unsigned long long>(R.Id),
                 static_cast<unsigned long long>(R.Parent),
                 I + 1 == All.size() ? "" : ",");
  }
  std::fprintf(F, "]}\n");
  bool Ok = !std::ferror(F);
  return std::fclose(F) == 0 && Ok;
}

Span::Span(std::string Name) {
  R.Name = std::move(Name);
  R.Id = Tracer::instance().nextId();
  R.Parent = OpenSpans.empty() ? 0 : OpenSpans.back();
  R.Tid = threadIndex();
  OpenSpans.push_back(R.Id);
  R.StartNs = nowNs();
}

Span::~Span() {
  R.EndNs = nowNs();
  OpenSpans.pop_back();
  Tracer::instance().record(std::move(R));
}

double Span::elapsedMs() const { return double(nowNs() - R.StartNs) / 1e6; }

double perfbench::percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * double(V.size())));
  size_t K = Rank == 0 ? 0 : Rank - 1;
  if (K >= V.size())
    K = V.size() - 1;
  std::nth_element(V.begin(), V.begin() + static_cast<std::ptrdiff_t>(K),
                   V.end());
  return V[K];
}
