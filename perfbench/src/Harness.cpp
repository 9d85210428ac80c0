//===- perfbench/src/Harness.cpp - Shared benchmark machinery -------------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <unordered_map>

using namespace perfbench;

std::string perfbench::jsonStr(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

std::string perfbench::jsonNum(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

namespace {

std::atomic<bool> TraceOn{false};
std::atomic<uint64_t> NextSpanId{1};
std::mutex SpansMu;
std::vector<trace::Span> AllSpans; // guarded by SpansMu
thread_local uint64_t CurrentParent = 0;
thread_local uint64_t CurrentOp = 0;

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

} // namespace

void trace::setEnabled(bool On) { TraceOn.store(On); }
bool trace::enabled() { return TraceOn.load(std::memory_order_relaxed); }
void trace::setOp(uint64_t Op) { CurrentOp = Op; }

std::vector<trace::Span> trace::spans() {
  std::lock_guard<std::mutex> Lk(SpansMu);
  return AllSpans;
}

trace::Scope::Scope(const char *Layer, const char *Name)
    : Active(enabled()), S{Layer, Name, 0, 0, 0, 0, 0}, SavedParent(0) {
  if (!Active)
    return;
  S.Id = NextSpanId.fetch_add(1, std::memory_order_relaxed);
  S.Parent = CurrentParent;
  S.Op = CurrentOp;
  SavedParent = CurrentParent;
  CurrentParent = S.Id;
  S.StartNs = nowNs();
}

trace::Scope::~Scope() {
  if (!Active)
    return;
  S.EndNs = nowNs();
  CurrentParent = SavedParent;
  std::lock_guard<std::mutex> Lk(SpansMu);
  AllSpans.push_back(S);
}

std::map<std::string, double> trace::selfSeconds() {
  std::vector<Span> All = spans();
  std::unordered_map<uint64_t, int64_t> ChildNs;
  for (const Span &S : All)
    if (S.Parent)
      ChildNs[S.Parent] += S.EndNs - S.StartNs;
  std::map<std::string, double> Self;
  for (const Span &S : All) {
    int64_t Ns = S.EndNs - S.StartNs;
    auto It = ChildNs.find(S.Id);
    if (It != ChildNs.end())
      Ns -= It->second;
    Self[S.Layer] += double(Ns) * 1e-9;
  }
  return Self;
}

void trace::recordSelfTimes(RunResult &Out) {
  std::map<std::string, double> Self = selfSeconds();
  for (const char *Layer : {"bench", "lang", "fixpoint", "parallel",
                            "analyses", "incremental", "server", "client"})
    Out.metric(std::string(Layer) + ".self_s", "s", Self[Layer]);
}

bool trace::write(const std::string &Path, std::string &Err) {
  std::ofstream Out(Path);
  if (!Out) {
    Err = "cannot write " + Path;
    return false;
  }
  for (const Span &S : spans())
    Out << "{\"id\":" << S.Id << ",\"parent\":" << S.Parent
        << ",\"op\":" << S.Op << ",\"layer\":" << jsonStr(S.Layer)
        << ",\"name\":" << jsonStr(S.Name) << ",\"start_ns\":" << S.StartNs
        << ",\"end_ns\":" << S.EndNs << "}\n";
  Out.flush();
  if (!Out) {
    Err = "write failed: " + Path;
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Inputs and outputs
//===----------------------------------------------------------------------===//

uint64_t perfbench::mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

uint64_t Rng::next() {
  S += 0x9e3779b97f4a7c15ULL;
  return mix64(S);
}

std::vector<int> perfbench::permutation(Rng &R, int N, int Fixed) {
  std::vector<int> P(static_cast<size_t>(N));
  for (int I = 0; I < N; ++I)
    P[I] = I;
  for (int I = N; I > Fixed + 1; --I)
    std::swap(P[I - 1], P[Fixed + R.below(uint64_t(I - Fixed))]);
  return P;
}

void Fingerprint::add(const std::string &Rel,
                      std::initializer_list<int64_t> Row) {
  uint64_t H = 0x51ed270b35a8f7afULL;
  for (int64_t V : Row)
    H = mix64(H ^ static_cast<uint64_t>(V));
  auto &E = Rels[Rel];
  ++E.first;
  E.second += H;
}

std::string Fingerprint::str() const {
  std::string Out;
  for (const auto &[Rel, E] : Rels) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%s%s:%" PRIu64 ":%016" PRIx64,
                  Out.empty() ? "" : " ", Rel.c_str(), E.first, E.second);
    Out += Buf;
  }
  return Out;
}

void perfbench::checkPin(RunResult &Out, const char *What,
                         const Fingerprint &Got, const char *Pin) {
  Out.info(std::string("fingerprint.") + What, jsonStr(Got.str()));
  if (Got.str() != Pin)
    Out.wrong(std::string(What) + " fingerprint " + Got.str() +
              " differs from the pinned " + Pin);
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

double perfbench::percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P * double(V.size())));
  return V[std::min(V.size(), std::max<size_t>(Rank, 1)) - 1];
}

double perfbench::peakRssMb() {
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return 0;
  char Line[256];
  double Kb = 0;
  while (std::fgets(Line, sizeof(Line), F))
    if (std::sscanf(Line, "VmHWM: %lf kB", &Kb) == 1)
      break;
  std::fclose(F);
  return Kb / 1024.0;
}

void perfbench::resetPeakRss() {
  if (std::FILE *F = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", F);
    std::fclose(F);
  }
}

void perfbench::requireRepeats(RunResult &Out, const std::string &Key,
                               const std::vector<uint64_t> &Values) {
  if (Values.empty())
    return;
  Out.info("repeats." + Key, std::to_string(Values.front()));
  for (uint64_t V : Values)
    if (V != Values.front()) {
      Out.wrong("counter " + Key + " did not repeat: " +
                std::to_string(Values.front()) + " vs " + std::to_string(V));
      return;
    }
}

void perfbench::recordRange(RunResult &Out, const std::string &Key,
                            const std::vector<uint64_t> &Values) {
  if (Values.empty())
    return;
  auto [Lo, Hi] = std::minmax_element(Values.begin(), Values.end());
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "[%" PRIu64 ", %" PRIu64 "]", *Lo, *Hi);
  Out.info("range." + Key, Buf);
}
