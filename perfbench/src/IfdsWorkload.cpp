//===- perfbench/src/IfdsWorkload.cpp - ifds_parallel ---------------------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
//
// The batch workload: the Figure 5 IFDS program, as runIfdsFlix builds
// it, on a pmd-shaped ICFG with ~5 us flow functions (Table 2's regime),
// solved by the parallel engine with 4 workers.
//
// The input is a pinned base instance from the repository's generator at
// seed 2016, relabeled by a bijection drawn from --seed, with its facts
// loaded in a seed-drawn order. Across generator seeds the pmd shape's
// rule firings range 50k-57k, which would make run-to-run spread depend
// on the seed; relabeling keeps the work fixed while every seed still
// gives the program different inputs.
//
// One repetition is the job a batch user runs: one runIfdsFlix call,
// which builds the program, loads the facts, solves to fixpoint and reads
// out the Result relation. The output, mapped back to base ids, must
// equal the hand-written tabulation solver's.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "analyses/Ifds.h"
#include "workload/IcfgWorkload.h"

#include <algorithm>
#include <iterator>

using namespace perfbench;
using namespace flix;

namespace {

constexpr uint64_t BaseSeed = 2016;
constexpr unsigned Workers = 4;
constexpr int TransferWork = 2500;
/// Sequential solves of the traced run, for parallel.speedup_vs_seq.
constexpr int SequentialSolves = 3;

/// Fingerprints of the base instance and its reference output. A
/// mismatch means a repository change altered the generator, a flow
/// function or the reference solver, and so the workload itself.
const char *const PinInput =
    "CFG:3111:c19f92c23ab26b72 Call:304:3ae6aa5920cbb74e "
    "CallMap:903:b1a803995e68d49e End:76:9a338bf07108d1ab "
    "Gen:598:d5bbddd9ffa2c68b Kill:272:283ced30cd046df5 "
    "Move:460:f10419e77eb136eb RetMap:761:0b9ab943465e2ae8 "
    "Shape:1:150900322ddbbfcc Start:76:a5b91e3950d23f72";
const char *const PinOutput = "Result:14862:39ba558f5f84a0ca";

/// The base ICFG relabeled: node, procedure and fact ids (fact 0 = Λ
/// stays) permuted, fact lists shuffled.
struct IfdsInstance {
  IcfgProgram Base, G;
  std::vector<int> NodeBack, FactBack; ///< relabeled id -> base id
};

Fingerprint fingerprintIcfg(const IcfgProgram &G) {
  Fingerprint Fp;
  Fp.add("Shape", {G.NumNodes, G.NumProcs, G.NumFacts, G.MainProc});
  for (auto [A, B] : G.CfgEdges)
    Fp.add("CFG", {A, B});
  for (auto [A, B] : G.CallEdges)
    Fp.add("Call", {A, B});
  for (int P = 0; P < G.NumProcs; ++P) {
    Fp.add("Start", {P, G.StartNodes[P]});
    Fp.add("End", {P, G.EndNodes[P]});
  }
  for (int N = 0; N < G.NumNodes; ++N) {
    for (int D : G.Flows[N].Gen)
      Fp.add("Gen", {N, D});
    for (int D : G.Flows[N].Kill)
      Fp.add("Kill", {N, D});
    for (auto [S, D] : G.Flows[N].Move)
      Fp.add("Move", {N, S, D});
  }
  for (const auto &[K, Map] : G.CallMap)
    for (auto [S, D] : Map)
      Fp.add("CallMap", {K.first, K.second, S, D});
  for (const auto &[K, Map] : G.RetMap)
    for (auto [S, D] : Map)
      Fp.add("RetMap", {K.first, K.second, S, D});
  return Fp;
}

IfdsInstance makeIfdsInstance(uint64_t Seed) {
  IfdsInstance I;
  DacapoPreset Pmd;
  for (const DacapoPreset &P : dacapoPresets())
    if (P.Name == "pmd")
      Pmd = P;
  I.Base = generateIcfg(BaseSeed, Pmd.NumProcs, Pmd.NodesPerProc,
                        Pmd.FactsTotal, Pmd.CallsPerProc);
  const IcfgProgram &B = I.Base;
  Rng R(mix64(Seed ^ 0x1fd5));
  std::vector<int> Node = permutation(R, B.NumNodes);
  std::vector<int> Proc = permutation(R, B.NumProcs);
  std::vector<int> Fact = permutation(R, B.NumFacts, /*Fixed=*/1);
  auto facts = [&](std::vector<std::pair<int, int>> M) {
    for (auto &[S, D] : M)
      S = Fact[S], D = Fact[D];
    shuffle(R, M);
    return M;
  };

  IcfgProgram &G = I.G;
  G.NumNodes = B.NumNodes;
  G.NumProcs = B.NumProcs;
  G.NumFacts = B.NumFacts;
  G.MainProc = Proc[B.MainProc];
  for (auto [A, C] : B.CfgEdges)
    G.CfgEdges.push_back({Node[A], Node[C]});
  for (auto [A, C] : B.CallEdges)
    G.CallEdges.push_back({Node[A], Proc[C]});
  shuffle(R, G.CfgEdges);
  shuffle(R, G.CallEdges);
  G.StartNodes.resize(B.NumProcs);
  G.EndNodes.resize(B.NumProcs);
  for (int P = 0; P < B.NumProcs; ++P) {
    G.StartNodes[Proc[P]] = Node[B.StartNodes[P]];
    G.EndNodes[Proc[P]] = Node[B.EndNodes[P]];
  }
  G.Flows.resize(B.NumNodes);
  for (int N = 0; N < B.NumNodes; ++N) {
    IcfgProgram::NodeFlow &F = G.Flows[Node[N]];
    for (int D : B.Flows[N].Gen)
      F.Gen.push_back(Fact[D]);
    for (int D : B.Flows[N].Kill)
      F.Kill.push_back(Fact[D]);
    F.Move = facts(B.Flows[N].Move);
    shuffle(R, F.Gen);
    shuffle(R, F.Kill);
  }
  for (const auto &[K, Map] : B.CallMap)
    G.CallMap[{Node[K.first], Proc[K.second]}] = facts(Map);
  for (const auto &[K, Map] : B.RetMap)
    G.RetMap[{Proc[K.first], Node[K.second]}] = facts(Map);

  I.NodeBack.resize(B.NumNodes);
  for (int N = 0; N < B.NumNodes; ++N)
    I.NodeBack[Node[N]] = N;
  I.FactBack.resize(B.NumFacts);
  for (int D = 0; D < B.NumFacts; ++D)
    I.FactBack[Fact[D]] = D;
  return I;
}

/// What one job measured and produced.
struct Job {
  double WallS = 0;  ///< the whole runIfdsFlix call
  double SolveS = 0; ///< its solve to fixpoint (SolveStats::Seconds)
  double PeakRssMb = 0;
  SolveStats St;
  Fingerprint Output; ///< base ids
};

Job runJob(const IfdsInstance &I, const IfdsProblem &Prob, unsigned Threads,
           const char *Layer) {
  SolverOptions Opts;
  Opts.NumThreads = Threads;
  Job J;
  resetPeakRss();
  Clock::time_point T0 = Clock::now();
  IfdsResult R;
  {
    trace::Scope S(Layer, "runIfdsFlix");
    R = runIfdsFlix(Prob, Opts);
  }
  J.WallS = secondsSince(T0);
  J.PeakRssMb = peakRssMb();
  J.SolveS = R.Stats.Seconds;
  J.St = R.Stats;
  for (auto [N, D] : R.Result)
    J.Output.add("Result", {I.NodeBack[N], I.FactBack[D]});
  return J;
}

/// Counts the jobs as operations and checks each output.
void check(RunResult &Out, const std::vector<Job> &Jobs,
           const Fingerprint &Expected) {
  for (const Job &J : Jobs) {
    ++Out.Attempted;
    if (!J.St.ok()) {
      ++Out.Failed;
      Out.wrong("solve did not reach a fixpoint: " + J.St.Error);
    } else if (J.Output != Expected) {
      ++Out.Failed;
      Out.wrong("output " + J.Output.str() + " differs from reference " +
                Expected.str());
    }
  }
}

/// Records a counter of every job, through \p Put.
template <typename PutFn>
void counters(const std::vector<Job> &Jobs, PutFn Put) {
  auto col = [&](auto Get) {
    std::vector<uint64_t> V;
    for (const Job &J : Jobs)
      V.push_back(uint64_t(Get(J.St)));
    return V;
  };
  Put("rule_firings", col([](const SolveStats &S) { return S.RuleFirings; }));
  Put("facts_derived",
      col([](const SolveStats &S) { return S.FactsDerived; }));
  Put("iterations", col([](const SolveStats &S) { return S.Iterations; }));
  Put("memo_hits", col([](const SolveStats &S) { return S.MemoHits; }));
  Put("memo_misses", col([](const SolveStats &S) { return S.MemoMisses; }));
  Put("vm_calls", col([](const SolveStats &S) { return S.VmCalls; }));
  Put("parallel_tasks",
      col([](const SolveStats &S) { return S.ParallelTasks; }));
  Put("parallel_steals",
      col([](const SolveStats &S) { return S.ParallelSteals; }));
}

std::vector<double> column(const std::vector<Job> &Jobs,
                           double (*Get)(const Job &)) {
  std::vector<double> V;
  for (const Job &J : Jobs)
    V.push_back(Get(J));
  return V;
}

double wallOf(const Job &J) { return J.WallS; }
double solveOf(const Job &J) { return J.SolveS; }
double setupOf(const Job &J) { return J.WallS - J.SolveS; }
double rssOf(const Job &J) { return J.PeakRssMb; }

void endToEnd(RunResult &Out, const std::vector<Job> &Jobs) {
  std::vector<double> Wall = column(Jobs, wallOf);
  double Total = 0;
  for (double W : Wall)
    Total += W;
  Out.metric("setup_s", "s", median(column(Jobs, setupOf)));
  Out.metric("solve_s", "s", median(column(Jobs, solveOf)));
  Out.metric("peak_rss_mb", "MB", median(column(Jobs, rssOf)));
  Out.metric("mutations_per_s", "1/s", double(Jobs.size()) / Total);
  Out.metric("mutation_p50_ms", "ms", 1e3 * median(Wall));
  Out.info("mutation_p99_ms", jsonNum(1e3 * percentile(Wall, 0.99)));
  Out.info("repetitions", std::to_string(Jobs.size()));
}

/// Per-layer metrics of layers this workload leaves idle.
void idleLayers(RunResult &Out) {
  Out.metric("runtime.arena_mb", "MB", 0);
  Out.metric("lang.compile_ms", "ms", 0);
  for (const char *Name :
       {"incremental.batch_p50_ms", "incremental.batch_p99_ms",
        "incremental.update_ms", "server.mutation_p99_ms",
        "server.query_p50_ms", "server.query_p99_ms",
        "server.wire_overhead_p50_ms", "server.wire_overhead_p99_ms",
        "server.core_ms"})
    Out.metric(Name, "ms", 0);
  Out.metric("incremental.cells_deleted_per_batch", "count", 0);
  Out.metric("incremental.rederive_yield", "1", 0);
  Out.metric("server.coalesced_ratio", "1", 0);
  Out.metric("server.rows_per_batch", "count", 0);
}

} // namespace

void perfbench::runIfdsParallel(const RunOptions &O, RunResult &Out) {
  IfdsInstance I = makeIfdsInstance(O.Seed);
  checkPin(Out, "input", fingerprintIcfg(I.Base), PinInput);
  I.G.TransferWork = TransferWork;
  IfdsProblem Prob = I.G.toIfdsProblem();

  // The independent reference: the hand-written tabulation solver.
  auto Reference = [&Prob] {
    trace::Scope S("analyses", "runIfdsImperative");
    return runIfdsImperative(Prob);
  };
  IfdsResult Ref = Reference();
  if (O.Fault == "drop-reference-row" && !Ref.Result.empty())
    Ref.Result.erase(std::prev(Ref.Result.end()));
  Fingerprint Expected;
  for (auto [N, D] : Ref.Result)
    Expected.add("Result", {I.NodeBack[N], I.FactBack[D]});
  checkPin(Out, "output", Expected, PinOutput);

  check(Out, {runJob(I, Prob, Workers, "parallel")}, Expected); // warm-up

  // Repeat jobs for the run's seconds. Traced runs trace every other
  // job, so both kinds see the same machine conditions.
  std::vector<Job> Plain, Traced;
  Clock::time_point T0 = Clock::now();
  while (Plain.size() < 3 || (O.Traced && Traced.size() < 3) ||
         secondsSince(T0) < O.Seconds) {
    bool On = O.Traced && Plain.size() > Traced.size();
    trace::setEnabled(On);
    trace::setOp(Plain.size() + Traced.size() + 1);
    {
      trace::Scope Whole("bench", "repetition");
      (On ? Traced : Plain).push_back(runJob(I, Prob, Workers, "parallel"));
    }
    trace::setEnabled(false);
  }
  Out.info("measured_s", jsonNum(secondsSince(T0)));
  check(Out, Plain, Expected);
  if (!O.Traced) {
    counters(Plain, [&](const std::string &K, const std::vector<uint64_t> &V) {
      recordRange(Out, K, V);
    });
    endToEnd(Out, Plain);
    return;
  }

  // Traced run: the reference solver and the sequential engine on the
  // same input. Sequential counters must repeat exactly.
  check(Out, Traced, Expected);
  std::vector<Job> All = Plain;
  All.insert(All.end(), Traced.begin(), Traced.end());
  counters(All, [&](const std::string &K, const std::vector<uint64_t> &V) {
    recordRange(Out, K, V);
  });
  trace::setEnabled(true);
  std::vector<double> RefS;
  for (int K = 0; K < 3; ++K)
    RefS.push_back(Reference().Seconds);
  std::vector<Job> Seq;
  for (int K = 0; K < SequentialSolves; ++K)
    Seq.push_back(runJob(I, Prob, 0, "fixpoint"));
  trace::setEnabled(false);
  check(Out, Seq, Expected);
  counters(Seq, [&](const std::string &K, const std::vector<uint64_t> &V) {
    requireRepeats(Out, "sequential." + K, V);
  });
  Out.info("trace.spans", std::to_string(trace::spans().size()));

  const SolveStats &St = Traced.back().St;
  double SolveS = median(column(Traced, solveOf));
  double ReferenceS = median(RefS);
  double Firings = double(std::max<uint64_t>(St.RuleFirings, 1));
  uint64_t Memo = St.MemoHits + St.MemoMisses;
  Out.metric("fixpoint.rule_firings", "count", double(St.RuleFirings));
  Out.metric("fixpoint.facts_derived", "count", double(St.FactsDerived));
  Out.metric("fixpoint.iterations", "count", double(St.Iterations));
  Out.metric("fixpoint.ns_per_firing", "ns", SolveS * 1e9 / Firings);
  Out.metric("fixpoint.derive_yield", "1", double(St.FactsDerived) / Firings);
  Out.metric("fixpoint.replan_events", "count", double(St.ReplanEvents));
  Out.metric("fixpoint.memo_hit_ratio", "1",
             Memo ? double(St.MemoHits) / double(Memo) : 0);
  Out.metric("fixpoint.memory_mb", "MB", double(St.MemoryBytes) / 1048576.0);
  Out.metric("vm.calls", "count", double(St.VmCalls));
  Out.metric("vm.ic_hits_per_call", "1",
             St.VmCalls ? double(St.VmInlineCacheHits) / double(St.VmCalls)
                        : 0);
  Out.metric("vm.interp_fallbacks", "count", double(St.InterpFallbacks));
  Out.metric("parallel.tasks", "count", double(St.ParallelTasks));
  Out.metric("parallel.steal_ratio", "1",
             St.ParallelTasks
                 ? double(St.ParallelSteals) / double(St.ParallelTasks)
                 : 0);
  Out.metric("parallel.merge_collisions", "count", double(St.MergeCollisions));
  Out.metric("parallel.index_fallbacks", "count", double(St.IndexFallbacks));
  Out.metric("parallel.speedup_vs_seq", "x",
             median(column(Seq, solveOf)) / SolveS);
  Out.metric("analyses.reference_s", "s", ReferenceS);
  Out.metric("analyses.overhead_x", "x",
             SolveS / std::max(ReferenceS, 1e-12));
  Out.metric("trace.overhead_ms", "ms",
             1e3 * (median(column(Traced, wallOf)) -
                    median(column(Plain, wallOf))));
  idleLayers(Out);
  trace::recordSelfTimes(Out);
}
