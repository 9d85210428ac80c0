//===- perfbench/src/main.cpp - Layered benchmark binary ------------------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
//
// Runs one workload and prints, as the last stdout line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics,
// or with --trace 1 the per-layer metrics. The line before it records the
// machine, the build and the run's counters and fingerprints. Exits 1
// when any output check failed; every operation of such a run counts as
// failed.
//
// Usage: flix_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                       [--trace-out FILE] [--fault drop-reference-row]
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "vm/Vm.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unistd.h>

using namespace perfbench;

namespace {

int usage(const char *Msg) {
  std::fprintf(stderr,
               "flix_perfbench: %s\nusage: flix_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE] "
               "[--fault drop-reference-row]\n",
               Msg);
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  RunOptions O;
  bool HaveSeed = false;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (I + 1 >= argc)
      return usage(("missing value for " + A).c_str());
    const char *V = argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      O.Workload = V;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V, &End, 10);
      HaveSeed = End && *End == '\0' && *V;
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V, &End);
      if (!End || *End || O.Seconds <= 0 || O.Seconds > 600)
        return usage("--seconds must be in (0, 600]");
    } else if (A == "--trace") {
      if (std::strcmp(V, "0") && std::strcmp(V, "1"))
        return usage("--trace must be 0 or 1");
      O.Traced = V[0] == '1';
    } else if (A == "--trace-out") {
      O.TraceOut = V;
    } else if (A == "--fault") {
      O.Fault = V;
      if (O.Fault != "drop-reference-row")
        return usage("unknown --fault");
    } else {
      return usage(("unknown option " + A).c_str());
    }
  }
  if (!HaveSeed || O.Seconds <= 0)
    return usage("--seed and --seconds are required");

  void (*Run)(const RunOptions &, RunResult &) = nullptr;
  if (O.Workload == "ifds_parallel")
    Run = runIfdsParallel;
  else if (O.Workload == "flixd_mixed")
    Run = runFlixdMixed;
  else
    return usage("unknown --workload");

  RunResult Out;
  Out.info("workload", jsonStr(O.Workload));
  Out.info("seed", std::to_string(O.Seed));
  Out.info("traced", O.Traced ? "true" : "false");
  Out.info("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  Out.info("compiler", jsonStr(PERFBENCH_COMPILER));
  Out.info("build_type", jsonStr(PERFBENCH_BUILD_TYPE));
  Out.info("vm_threaded_dispatch",
           flix::vm::Vm::threadedDispatch() ? "true" : "false");
  if (const char *Commit = std::getenv("PERFBENCH_COMMIT"))
    Out.info("commit", jsonStr(Commit));
  if (const char *Digest = std::getenv("PERFBENCH_SRC_DIGEST"))
    Out.info("src_digest", jsonStr(Digest));

  Run(O, Out);

  if (O.Traced && !O.TraceOut.empty()) {
    std::string Err;
    if (!trace::write(O.TraceOut, Err))
      Out.wrong(Err);
    else
      Out.info("trace_file", jsonStr(O.TraceOut));
  }
  if (!Out.Correct)
    Out.Failed = Out.Attempted;
  if (Out.Attempted == 0) {
    Out.wrong("no operation was attempted");
    Out.Attempted = Out.Failed = 1;
  }
  Out.info("failed_ratio",
           jsonNum(double(Out.Failed) / double(Out.Attempted)));
  if (!Out.Errors.empty()) {
    std::string E = "[";
    for (const std::string &S : Out.Errors)
      E += (E.size() > 1 ? ", " : "") + jsonStr(S);
    Out.info("errors", E + "]");
    for (const std::string &S : Out.Errors)
      std::fprintf(stderr, "flix_perfbench: FAILED: %s\n", S.c_str());
  }

  std::string Facts = "{";
  for (const auto &[K, V] : Out.Info)
    Facts += (Facts.size() > 1 ? ", " : "") + jsonStr(K) + ": " + V;
  std::printf("%s}\n", Facts.c_str());

  std::string Metrics = "{";
  for (const RunResult::Metric &M : Out.Metrics)
    Metrics += (Metrics.size() > 1 ? ", " : "") + jsonStr(M.Name) +
               ": {\"value\": " + jsonNum(M.Value) +
               ", \"unit\": " + jsonStr(M.Unit) + "}";
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}}\n",
              Out.Correct ? "true" : "false",
              static_cast<unsigned long long>(Out.Attempted),
              static_cast<unsigned long long>(Out.Failed), Metrics.c_str());
  std::fflush(stdout);
  return Out.Correct ? 0 : 1;
}
