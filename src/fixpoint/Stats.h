//===- fixpoint/Stats.h - The solver counter table ------------*- C++ -*-===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every solver counter, declared once: one row gives the C++ field, the
/// JSON key, the kind and a one-line doc. The SolveStats / UpdateStats
/// fields, the worker folds, the per-update diff and every printer
/// (flixc's `--json` and `--stats`, the server's `stats` reply) are
/// generated from the rows, in row order. The kinds (DESIGN.md
/// "Counters"):
///   Work     — work of a run: summed across workers, diffed per update.
///   Max      — the largest value any worker saw.
///   Gauge    — engine state read at the end of a run (plan::fillGauges).
///   Lifetime — counted over an IncrementalSolver's whole life.
///
//===----------------------------------------------------------------------===//

#ifndef FLIX_FIXPOINT_STATS_H
#define FLIX_FIXPOINT_STATS_H

#include <algorithm>
#include <cstdint>
#include <type_traits>

// X(Field, "json_key", Kind, "doc"): the counters of every solver run.
#define FLIX_SOLVE_COUNTERS(X)                                                 \
  X(Iterations, "iterations", Work, "delta rounds (or naive passes)")          \
  X(RuleFirings, "rule_firings", Work, "successful full body matches")         \
  X(RowsScanned, "rows_scanned", Work, "candidate rows the joins examined")    \
  X(FactsDerived, "facts_derived", Work, "joins that strictly raised a cell")  \
  X(PlanSteps, "plan_steps", Gauge, "compiled join plan steps")                \
  X(CostBasedPlans, "cost_based_plans", Gauge, "plans not in driver-first "    \
                                               "order")                        \
  X(ReplanEvents, "replan_events", Work, "plans swapped between rounds")       \
  X(EstimatedVsActualRows, "estimated_vs_actual_rows", Work,                   \
    "live-row drift between planner statistics")                               \
  X(MemoHits, "memo_hits", Work, "extern calls answered by the memo")          \
  X(MemoMisses, "memo_misses", Work, "extern calls computed and cached")       \
  X(VmCalls, "vm_calls", Work, "extern calls run by the bytecode VM")          \
  X(VmInlineCacheHits, "vm_inline_cache_hits", Work, "VM inline-cache hits")   \
  X(InterpFallbacks, "interp_fallbacks", Work, "VM calls that fell back to "   \
                                               "the interpreter")              \
  X(VmInlinedCalls, "vm_inlined_calls", Gauge, "call sites the VM inlined")    \
  X(VmSuperwordHits, "vm_superword_hits", Gauge, "compare+branch pairs fused") \
  X(VmPassesRemovedInsns, "vm_passes_removed_insns", Gauge,                    \
    "instructions the VM passes removed")                                      \
  X(ParallelTasks, "parallel_tasks", Work, "rule tasks run on the pool")       \
  X(ParallelSteals, "parallel_steals", Work, "pool tasks taken by stealing")   \
  X(MergeCollisions, "merge_collisions", Work, "same-cell derivations merged") \
  X(SpawnedSubtasks, "spawned_subtasks", Work, "sub-tasks split off scans")    \
  X(MaxFanout, "max_fanout", Max, "most sub-tasks one split produced")         \
  X(IndexBuildTasks, "index_build_tasks", Work, "index pre-build pool tasks")  \
  X(IndexFallbacks, "index_fallbacks", Work, "worker probes that full-scanned")\
  X(NegationFallbacks, "negation_fallbacks", Lifetime,                         \
    "re-solves forced by negation (retired; stays 0)")                         \
  X(DegradedRecoveries, "degraded_recoveries", Lifetime,                       \
    "re-solves after an aborted update")                                       \
  X(MemoryBytes, "memory_bytes", Gauge, "bytes the engine keeps alive")

// The counters only an IncrementalSolver update has (UpdateStats).
#define FLIX_UPDATE_COUNTERS(X)                                                \
  X(FactsAdded, "facts_added", Work, "input facts inserted")                   \
  X(FactsRetracted, "facts_retracted", Work, "input facts removed")            \
  X(CellsDeleted, "cells_deleted", Work, "cells over-deleted to bottom")       \
  X(CellsRederived, "cells_rederived", Work, "deleted cells re-derived")

namespace flix {

enum class CounterKind { Work, Max, Gauge, Lifetime };

/// One row of the table, as forEachCounter hands it out.
struct CounterInfo {
  const char *Key;
  CounterKind Kind;
  const char *Doc;
};

#define FLIX_COUNTER_FIELD(Field, Key, Kind, Doc) uint64_t Field = 0;
#define FLIX_COUNTER_FOLD(Field, Key, Kind, Doc)                               \
  if constexpr (CounterKind::Kind == CounterKind::Work)                        \
    Field += Now.Field - Before.Field;                                         \
  else if constexpr (CounterKind::Kind == CounterKind::Max)                    \
    Field = std::max(Field, Now.Field);

/// The counters of a run: what engines and their workers increment.
struct SolveCounters {
  FLIX_SOLVE_COUNTERS(FLIX_COUNTER_FIELD)

  /// Adds the work between two readings of one counter block: work
  /// counters add Now − Before, max counters keep the larger value.
  /// Gauges and lifetime counters are engine state and stay as they are.
  void addSince(const SolveCounters &Now, const SolveCounters &Before) {
    FLIX_SOLVE_COUNTERS(FLIX_COUNTER_FOLD)
  }
  /// Folds in a worker's block (or a run into a running total).
  void add(const SolveCounters &Now) { addSince(Now, SolveCounters()); }
};

/// The update-only counters (the second base of UpdateStats).
struct UpdateCounters {
  FLIX_UPDATE_COUNTERS(FLIX_COUNTER_FIELD)

  void add(const UpdateCounters &Now) {
    const UpdateCounters Before;
    FLIX_UPDATE_COUNTERS(FLIX_COUNTER_FOLD)
  }
};

#undef FLIX_COUNTER_FOLD
#undef FLIX_COUNTER_FIELD

/// Calls \p Visit(const CounterInfo &, uint64_t) for every counter \p S
/// carries, in row order: the update counters first (UpdateStats), then
/// the solve counters.
template <typename StatsT, typename VisitFn>
void forEachCounter(const StatsT &S, VisitFn &&Visit) {
#define FLIX_COUNTER_VISIT(Field, Key, Kind, Doc)                              \
  Visit(CounterInfo{Key, CounterKind::Kind, Doc}, S.Field);
  if constexpr (std::is_base_of_v<UpdateCounters, StatsT>) {
    FLIX_UPDATE_COUNTERS(FLIX_COUNTER_VISIT)
  }
  if constexpr (std::is_base_of_v<SolveCounters, StatsT>) {
    FLIX_SOLVE_COUNTERS(FLIX_COUNTER_VISIT)
  }
#undef FLIX_COUNTER_VISIT
}

} // namespace flix

#endif // FLIX_FIXPOINT_STATS_H
