//===- tests/PlanDifferentialTest.cpp - plan configurations vs naive ------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
///
/// Differential matrix for the compiled-plan executor and the extern
/// memo cache: EnableMemo {off,on} x NumThreads {0,1,8} x
/// CostBasedPlans {off,on} — 12 configurations per workload — must all
/// produce models identical to the sequential naive solver without memo
/// (the direct reading of the immediate-consequence operator, §3.1),
/// which is itself anchored on the imperative baseline of each workload.
/// The solvers share each workload's hash-consed inputs, so equality of
/// the extracted results is exact, not just structural.
///
/// Workloads are the three paper case-study families: shortest paths on
/// a weighted graph (lattice transfer function), IFDS on a synthetic
/// ICFG (relational, flow functions as externs), and the Figure 4 Strong
/// Update analysis on a pointer program (filters + negation + lattice
/// head function). Strong Update also runs through the FLIX-source
/// pipeline, where every extern is an interpreter call and the memo
/// cache sees real traffic.
///
//===----------------------------------------------------------------------===//

#include "analyses/Ifds.h"
#include "analyses/ShortestPaths.h"
#include "analyses/StrongUpdate.h"
#include "workload/GraphWorkload.h"
#include "workload/IcfgWorkload.h"
#include "workload/PointerWorkload.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace flix;

namespace {

/// The full 12-configuration matrix.
std::vector<SolverOptions> matrix() {
  std::vector<SolverOptions> Out;
  for (bool Memo : {false, true})
    for (unsigned Threads : {0u, 1u, 8u})
      for (bool Cost : {false, true}) {
        SolverOptions O;
        O.EnableMemo = Memo;
        O.NumThreads = Threads;
        O.CostBasedPlans = Cost;
        Out.push_back(O);
      }
  return Out;
}

/// The oracle: the sequential naive solver, no memo.
SolverOptions naive() {
  SolverOptions O;
  O.Strat = Strategy::Naive;
  O.EnableMemo = false;
  return O;
}

std::string describe(const SolverOptions &O) {
  return "memo=" + std::to_string(O.EnableMemo) +
         " threads=" + std::to_string(O.NumThreads) +
         " cost=" + std::to_string(O.CostBasedPlans);
}

TEST(PlanDifferentialTest, ShortestPathsMatrix) {
  WeightedGraph G = generateGraph(11, 150, 4.0, 12);
  SsspResult Base = runShortestPathsFlix(G, 0, naive());
  ASSERT_TRUE(Base.Ok);
  // Anchor the baseline itself against the imperative solver.
  EXPECT_EQ(Base.Dist, runDijkstra(G, 0).Dist);
  for (const SolverOptions &O : matrix()) {
    SsspResult R = runShortestPathsFlix(G, 0, O);
    ASSERT_TRUE(R.Ok) << describe(O);
    EXPECT_EQ(R.Dist, Base.Dist) << describe(O);
  }
}

TEST(PlanDifferentialTest, IfdsMatrix) {
  IcfgProgram G = generateIcfg(5, 10, 32, 90, 3);
  IfdsProblem Prob = G.toIfdsProblem();
  IfdsResult Base = runIfdsFlix(Prob, naive());
  ASSERT_TRUE(Base.Ok) << Base.Error;
  EXPECT_TRUE(Base.sameResult(runIfdsImperative(Prob)));
  for (const SolverOptions &O : matrix()) {
    IfdsResult R = runIfdsFlix(Prob, O);
    ASSERT_TRUE(R.Ok) << describe(O) << ": " << R.Error;
    EXPECT_TRUE(R.sameResult(Base)) << describe(O);
    EXPECT_GT(R.Stats.PlanSteps, 0u) << describe(O);
  }
}

TEST(PlanDifferentialTest, StrongUpdateMatrix) {
  PointerProgram In = generatePointerProgram(13, 700);
  StrongUpdateResult Base = runStrongUpdateFlix(In, naive());
  ASSERT_TRUE(Base.ok()) << Base.Error;
  EXPECT_TRUE(Base.samePointsTo(runStrongUpdateImperative(In)));
  for (const SolverOptions &O : matrix()) {
    StrongUpdateResult R = runStrongUpdateFlix(In, O);
    ASSERT_TRUE(R.ok()) << describe(O) << ": " << R.Error;
    EXPECT_TRUE(R.samePointsTo(Base)) << describe(O);
  }
}

TEST(PlanDifferentialTest, StrongUpdateInterpretedSourceMatrix) {
  // The FLIX-source pipeline: every lattice op and filter is an
  // interpreter call, so memoized configurations exercise the sharded
  // cache under real contention at 8 threads.
  PointerProgram In = generatePointerProgram(13, 300);
  StrongUpdateResult Base = runStrongUpdateFlixSource(In, naive());
  ASSERT_TRUE(Base.ok()) << Base.Error;
  EXPECT_TRUE(Base.samePointsTo(runStrongUpdateImperative(In)));
  for (const SolverOptions &O : matrix()) {
    StrongUpdateResult R = runStrongUpdateFlixSource(In, O);
    ASSERT_TRUE(R.ok()) << describe(O) << ": " << R.Error;
    EXPECT_TRUE(R.samePointsTo(Base)) << describe(O);
  }
}

} // namespace
