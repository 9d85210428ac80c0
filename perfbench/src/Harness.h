//===- perfbench/src/Harness.h - Shared benchmark machinery -----*- C++ -*-===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the layered benchmark shares: run options, the
/// result record printed on the last line, the span recorder of the
/// traced run, order-independent fingerprints, a seeded generator that
/// does not depend on any repository code, and small statistics helpers.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Command-line options of one run.
struct RunOptions {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Traced = false;
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string TraceOut;
  /// Test seam: "drop-reference-row" removes one row from the workload's
  /// reference output, which must make the run fail.
  std::string Fault;
};

/// The outcome of one run: the last stdout line plus the facts printed
/// before it.
struct RunResult {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// (name, unit, value) in print order.
  struct Metric {
    std::string Name, Unit;
    double Value;
  };
  std::vector<Metric> Metrics;
  /// Facts recorded with the result (counters, fingerprints, reasons),
  /// printed as one JSON object line before the result line. Values are
  /// raw JSON text.
  std::map<std::string, std::string> Info;
  std::vector<std::string> Errors;

  void metric(std::string Name, std::string Unit, double Value) {
    Metrics.push_back({std::move(Name), std::move(Unit), Value});
  }
  void info(const std::string &Key, const std::string &JsonText) {
    Info[Key] = JsonText;
  }
  /// Records a failed check. A wrong output fails every operation of the
  /// run (applied when the result is printed).
  void wrong(std::string Why) {
    Correct = false;
    Errors.push_back(std::move(Why));
  }
};

std::string jsonStr(const std::string &S);
std::string jsonNum(double V);

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

/// In-memory span recorder. Spans are recorded only while enabled; each
/// holds its layer, the call it wraps, its parent span on the same thread
/// and the operation (repetition or request) it belongs to.
namespace trace {

struct Span {
  const char *Layer;
  const char *Name;
  uint64_t Id, Parent, Op;
  int64_t StartNs, EndNs;
};

void setEnabled(bool On);
bool enabled();
/// Sets the operation id that spans opened on this thread carry.
void setOp(uint64_t Op);
/// All spans recorded so far, in completion order.
std::vector<Span> spans();
/// Self time per layer in seconds: each span's duration minus the part
/// its direct children cover.
std::map<std::string, double> selfSeconds();
/// Records one "<layer>.self_s" metric per benchmark layer.
void recordSelfTimes(RunResult &Out);
/// Writes every span as one JSON line to \p Path.
bool write(const std::string &Path, std::string &Err);

/// RAII span around one call into a layer.
class Scope {
public:
  Scope(const char *Layer, const char *Name);
  ~Scope();
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  bool Active;
  Span S;
  uint64_t SavedParent;
};

} // namespace trace

//===----------------------------------------------------------------------===//
// Inputs and outputs
//===----------------------------------------------------------------------===//

/// splitmix64: the benchmark's own generator, so repository changes to
/// random helpers cannot change a workload.
struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next();
  uint64_t below(uint64_t N) { return next() % N; }
};

uint64_t mix64(uint64_t X);

/// A random bijection on [0, N) keeping the first \p Fixed ids in place.
std::vector<int> permutation(Rng &R, int N, int Fixed = 0);

/// Fisher-Yates shuffle driven by Rng (std::shuffle's draws are
/// implementation-defined).
template <typename T> void shuffle(Rng &R, std::vector<T> &V) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[R.below(I)]);
}

/// Order-independent fingerprint of named row sets: per relation a row
/// count and the wrapping sum of a strong hash of each row.
class Fingerprint {
public:
  void add(const std::string &Rel, std::initializer_list<int64_t> Row);
  std::string str() const;
  bool operator==(const Fingerprint &O) const { return Rels == O.Rels; }
  bool operator!=(const Fingerprint &O) const { return !(*this == O); }

private:
  std::map<std::string, std::pair<uint64_t, uint64_t>> Rels;
};

/// Records \p Got as "fingerprint.<What>" and fails the run unless it
/// equals the pinned value.
void checkPin(RunResult &Out, const char *What, const Fingerprint &Got,
              const char *Pin);

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

double median(std::vector<double> V);
/// Nearest-rank percentile, \p P in [0, 1].
double percentile(std::vector<double> V, double P);

/// Peak resident set of this process in MB (VmHWM).
double peakRssMb();
/// Resets VmHWM to the current resident set (Linux clear_refs), so the
/// next peakRssMb() covers only what runs in between.
void resetPeakRss();

/// Records \p Key's per-repetition values of a counter that must repeat
/// exactly; a difference fails the run.
void requireRepeats(RunResult &Out, const std::string &Key,
                    const std::vector<uint64_t> &Values);
/// Records a counter that may vary (parallel engine) as a [min, max] range.
void recordRange(RunResult &Out, const std::string &Key,
                 const std::vector<uint64_t> &Values);

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

void runIfdsParallel(const RunOptions &O, RunResult &Out);
void runFlixdMixed(const RunOptions &O, RunResult &Out);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
