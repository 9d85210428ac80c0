//===- tools/StatsReport.h - flixc statistics output ----------*- C++ -*-===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// flixc's statistics output: the one-shot and per-update `--json` lines
/// and the one-shot `--stats` block. Their counters come from the table in
/// fixpoint/Stats.h through forEachCounter, so a new counter reaches every
/// line with no edit here. Header-only so tests can check exactly that.
///
//===----------------------------------------------------------------------===//

#ifndef FLIX_TOOLS_STATSREPORT_H
#define FLIX_TOOLS_STATSREPORT_H

#include "incremental/IncrementalSolver.h"

#include <cstdarg>
#include <cstdio>
#include <string>

namespace flix::report {

[[gnu::format(printf, 2, 3)]] inline void appendf(std::string &Out,
                                                  const char *Fmt, ...) {
  char Buf[256];
  va_list Args;
  va_start(Args, Fmt);
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  Out += Buf;
}

inline const char *statusName(SolveStats::Status St) {
  static const char *const Names[] = {"fixpoint", "timeout",
                                      "iteration_limit", "error"};
  return Names[static_cast<int>(St)];
}

/// Appends `, "key": value` for every counter of \p S (only the work and
/// max counters when \p WorkOnly).
template <typename StatsT>
void appendJsonCounters(std::string &Out, const StatsT &S,
                        bool WorkOnly = false) {
  forEachCounter(S, [&](const CounterInfo &C, uint64_t V) {
    if (!WorkOnly || C.Kind == CounterKind::Work || C.Kind == CounterKind::Max)
      appendf(Out, ", \"%s\": %llu", C.Key, (unsigned long long)V);
  });
}

/// The one-shot `--json` line: run settings, then every counter.
inline std::string oneShotJson(const SolveStats &St,
                               const SolverOptions &Opts, int VmOptLevel) {
  std::string Out;
  appendf(Out,
          "{\"status\": \"%s\", \"threads\": %u, \"memo\": %s, \"vm\": %s, "
          "\"vm_opt_level\": %d, \"seconds\": %.6f",
          statusName(St.St), Opts.NumThreads,
          Opts.EnableMemo ? "true" : "false", Opts.UseVm ? "true" : "false",
          VmOptLevel, St.Seconds);
  appendJsonCounters(Out, St);
  return Out + "}\n";
}

/// One update-script `--json` line: this update's counters, then the
/// running work totals \p Cum (the UpdateStats::add fold of the
/// \p Updates updates so far), so stream parsers never need to sum.
inline std::string updateJson(unsigned UpdateNo, const UpdateStats &U,
                              unsigned Threads, const UpdateStats &Cum,
                              unsigned Updates) {
  std::string Out;
  appendf(Out,
          "{\"status\": \"%s\", \"update\": %u, \"threads\": %u, "
          "\"batch_seconds\": %.6f, \"full_resolve\": %s",
          statusName(U.St), UpdateNo, Threads, U.Seconds,
          U.FullResolve ? "true" : "false");
  appendJsonCounters(Out, U);
  appendf(Out, ", \"cumulative\": {\"updates\": %u, \"seconds\": %.6f",
          Updates, Cum.Seconds);
  appendJsonCounters(Out, Cum, /*WorkOnly=*/true);
  return Out + "}}\n";
}

/// The one-shot `--stats` block: run settings, then one line per counter.
inline std::string statsBlock(const SolveStats &St, const SolverOptions &Opts,
                              int VmOptLevel) {
  std::string Out;
  appendf(Out, "\nstats: %s, %.3f s, %u threads, memo %s, vm %s (level %d), "
               "%s planner\n",
          statusName(St.St), St.Seconds, Opts.NumThreads,
          Opts.EnableMemo ? "on" : "off", Opts.UseVm ? "on" : "off",
          VmOptLevel, Opts.CostBasedPlans ? "cost-based" : "greedy");
  forEachCounter(St, [&](const CounterInfo &C, uint64_t V) {
    appendf(Out, "  %-26s %14llu  %s\n", C.Key, (unsigned long long)V, C.Doc);
  });
  return Out;
}

} // namespace flix::report

#endif // FLIX_TOOLS_STATSREPORT_H
