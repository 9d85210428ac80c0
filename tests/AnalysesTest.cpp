//===- tests/AnalysesTest.cpp - Analyses cross-validation ------------------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
///
/// Cross-validation of every analysis against its independent baselines:
/// the four Strong Update implementations must agree, declarative and
/// imperative IFDS must agree, IDE must refine IFDS, and the FLIX
/// shortest paths must match Dijkstra. This is the repository's strongest
/// correctness evidence — the implementations share no code beyond the
/// input structs.
///
//===----------------------------------------------------------------------===//

#include "analyses/Ide.h"
#include "analyses/Ifds.h"
#include "analyses/PointsTo.h"
#include "analyses/ShortestPaths.h"
#include "analyses/StrongUpdate.h"
#include "workload/GraphWorkload.h"
#include "workload/IcfgWorkload.h"
#include "workload/PointerWorkload.h"

#include <gtest/gtest.h>

#include <optional>

using namespace flix;

namespace {

//===----------------------------------------------------------------------===//
// Points-to (Figure 1)
//===----------------------------------------------------------------------===//

TEST(PointsToTest, Section21Example) {
  PointsToInput In;
  In.News = {{"o1", "A"}, {"o2", "B"}};
  In.Assigns = {{"o3", "o2"}};
  In.Stores = {{"o2", "f", "o1"}};
  In.Loads = {{"r", "o3", "f"}};
  PointsToResult R = runPointsTo(In);
  ASSERT_TRUE(R.Stats.ok());
  EXPECT_TRUE(R.varPointsTo("r", "A"));
  EXPECT_TRUE(R.varPointsTo("o3", "B"));
  EXPECT_FALSE(R.varPointsTo("r", "B"));
  EXPECT_EQ(R.HeapPointsTo.size(), 1u);
}

TEST(PointsToTest, StrategiesAgree) {
  PointsToInput In;
  for (int I = 0; I < 20; ++I) {
    In.News.push_back({"v" + std::to_string(I), "o" + std::to_string(I % 7)});
    In.Assigns.push_back(
        {"v" + std::to_string((I + 3) % 20), "v" + std::to_string(I)});
    In.Stores.push_back({"v" + std::to_string(I), "f",
                         "v" + std::to_string((I * 5 + 1) % 20)});
    In.Loads.push_back({"v" + std::to_string((I + 11) % 20),
                        "v" + std::to_string(I), "f"});
  }
  SolverOptions Naive, Semi;
  Naive.Strat = Strategy::Naive;
  Semi.Strat = Strategy::SemiNaive;
  PointsToResult RN = runPointsTo(In, Naive);
  PointsToResult RS = runPointsTo(In, Semi);
  ASSERT_TRUE(RN.Stats.ok());
  ASSERT_TRUE(RS.Stats.ok());
  auto Sorted = [](PointsToResult R) {
    std::sort(R.VarPointsTo.begin(), R.VarPointsTo.end());
    std::sort(R.HeapPointsTo.begin(), R.HeapPointsTo.end());
    return R;
  };
  PointsToResult SN = Sorted(std::move(RN)), SS = Sorted(std::move(RS));
  EXPECT_EQ(SN.VarPointsTo, SS.VarPointsTo);
  EXPECT_EQ(SN.HeapPointsTo, SS.HeapPointsTo);
}

//===----------------------------------------------------------------------===//
// Strong Update (Figure 4)
//===----------------------------------------------------------------------===//

/// p (unaliased, single target a) is stored through twice; with kills the
/// second store strongly updates a, so a load after it sees only the
/// second value.
PointerProgram strongUpdateScenario(bool WithKills) {
  PointerProgram P;
  P.NumVars = 4;   // p=0, q=1, r=2, x=3
  P.NumObjs = 3;   // a=0, b=1, c=2
  P.NumLabels = 3; // l0: *p=q; l1: *p=r; l2: x=*p
  P.AddrOf = {{0, 0}, {1, 1}, {2, 2}};
  P.Store = {{0, 0, 1}, {1, 0, 2}};
  P.Load = {{2, 3, 0}};
  P.Cfg = {{0, 1}, {1, 2}};
  if (WithKills)
    P.Kill = {{0, 0}, {1, 0}};
  return P;
}

TEST(StrongUpdateTest, StrongUpdateKillsStaleValue) {
  StrongUpdateResult R = runStrongUpdateFlix(strongUpdateScenario(true));
  ASSERT_TRUE(R.ok()) << R.Error;
  // x sees only c (object 2): the store at l1 strongly updated a.
  EXPECT_EQ(R.Pt[3], (std::set<int>{2}));
  EXPECT_EQ(R.PtH[0], (std::set<int>{1, 2}));
}

TEST(StrongUpdateTest, WeakUpdateKeepsBothValues) {
  StrongUpdateResult R = runStrongUpdateFlix(strongUpdateScenario(false));
  ASSERT_TRUE(R.ok()) << R.Error;
  // Without kills the store is weak: x sees b and c.
  EXPECT_EQ(R.Pt[3], (std::set<int>{1, 2}));
}

TEST(StrongUpdateTest, AllFourImplementationsAgreeOnScenario) {
  for (bool WithKills : {false, true}) {
    PointerProgram P = strongUpdateScenario(WithKills);
    StrongUpdateResult A = runStrongUpdateFlix(P);
    StrongUpdateResult B = runStrongUpdateFlixSource(P);
    StrongUpdateResult C = runStrongUpdateDatalog(P);
    StrongUpdateResult D = runStrongUpdateImperative(P);
    ASSERT_TRUE(A.ok()) << A.Error;
    ASSERT_TRUE(B.ok()) << B.Error;
    ASSERT_TRUE(C.ok()) << C.Error;
    ASSERT_TRUE(D.ok()) << D.Error;
    EXPECT_TRUE(A.samePointsTo(B)) << "flix vs flix-source, kills="
                                   << WithKills;
    EXPECT_TRUE(A.samePointsTo(C)) << "flix vs datalog, kills=" << WithKills;
    EXPECT_TRUE(A.samePointsTo(D)) << "flix vs imperative, kills="
                                   << WithKills;
  }
}

class StrongUpdateSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StrongUpdateSeedTest, ImplementationsAgreeOnGeneratedPrograms) {
  PointerProgram P = generatePointerProgram(GetParam(), 300);
  StrongUpdateResult A = runStrongUpdateFlix(P);
  StrongUpdateResult B = runStrongUpdateFlixSource(P);
  StrongUpdateResult C = runStrongUpdateDatalog(P);
  StrongUpdateResult D = runStrongUpdateImperative(P);
  ASSERT_TRUE(A.ok()) << A.Error;
  ASSERT_TRUE(B.ok()) << B.Error;
  ASSERT_TRUE(C.ok()) << C.Error;
  ASSERT_TRUE(D.ok()) << D.Error;
  EXPECT_TRUE(A.samePointsTo(B)) << "flix vs flix-source";
  EXPECT_TRUE(A.samePointsTo(C)) << "flix vs datalog embedding";
  EXPECT_TRUE(A.samePointsTo(D)) << "flix vs imperative";
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrongUpdateSeedTest,
                         ::testing::Values(1, 2, 3, 4, 5, 13, 42, 99));

TEST(StrongUpdateTest, NaiveAndSemiNaiveAgree) {
  PointerProgram P = generatePointerProgram(7, 400);
  StrongUpdateResult A =
      runStrongUpdateFlix(P, 0, Strategy::SemiNaive);
  StrongUpdateResult B = runStrongUpdateFlix(P, 0, Strategy::Naive);
  ASSERT_TRUE(A.ok());
  ASSERT_TRUE(B.ok());
  EXPECT_TRUE(A.samePointsTo(B));
}

TEST(StrongUpdateTest, TimeoutReported) {
  PointerProgram P = generatePointerProgram(11, 20000);
  StrongUpdateResult R = runStrongUpdateDatalog(P, 0.05);
  EXPECT_EQ(R.St, StrongUpdateResult::Status::Timeout);
}

//===----------------------------------------------------------------------===//
// IFDS (Figure 5)
//===----------------------------------------------------------------------===//

/// Hand-built two-procedure ICFG:
///   main: 0(start) -> 1(call f) -> 2(ret site) -> 3(end)
///   f:    4(start) -> 5 -> 6(end)
/// Facts: 0 = Λ, 1 = x (main), 2 = y (main), 3 = a (f).
/// main start gens x; the call passes x -> a; f moves a -> a (keeps);
/// return maps a -> y.
IfdsProblem handIfds() {
  IfdsProblem P;
  P.NumNodes = 7;
  P.NumProcs = 2;
  P.NumFacts = 4;
  P.CfgEdges = {{0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 6}};
  P.CallEdges = {{1, 1}}; // node 1 calls proc 1 (f)
  P.StartNodes = {0, 4};
  P.EndNodes = {3, 6};
  P.Seeds = {{0, 0}};
  P.EshIntra = [](int N, int D, std::vector<int> &Out) {
    if (D == 0) {
      Out.push_back(0);
      if (N == 0)
        Out.push_back(1); // gen x at main start
      return;
    }
    Out.push_back(D); // everything else flows through
  };
  P.EshCallStart = [](int Call, int D, int Target, std::vector<int> &Out) {
    (void)Call;
    (void)Target;
    if (D == 0)
      Out.push_back(0);
    if (D == 1)
      Out.push_back(3); // x -> a
  };
  P.EshEndReturn = [](int Target, int D, int Call, std::vector<int> &Out) {
    (void)Target;
    (void)Call;
    if (D == 0)
      Out.push_back(0);
    if (D == 3)
      Out.push_back(2); // a -> y
  };
  return P;
}

TEST(IfdsTest, HandExampleFlix) {
  IfdsResult R = runIfdsFlix(handIfds());
  ASSERT_TRUE(R.Ok) << R.Error;
  // x is live from node 1 onwards in main.
  EXPECT_TRUE(R.Result.count({1, 1}));
  // a reaches f's nodes.
  EXPECT_TRUE(R.Result.count({4, 3}));
  EXPECT_TRUE(R.Result.count({6, 3}));
  // y appears at the return site and flows to main's end.
  EXPECT_TRUE(R.Result.count({2, 2}));
  EXPECT_TRUE(R.Result.count({3, 2}));
  // y does not exist before the call returns.
  EXPECT_FALSE(R.Result.count({0, 2}));
  EXPECT_FALSE(R.Result.count({1, 2}));
}

TEST(IfdsTest, HandExampleImperativeMatches) {
  IfdsResult A = runIfdsFlix(handIfds());
  IfdsResult B = runIfdsImperative(handIfds());
  ASSERT_TRUE(A.Ok);
  ASSERT_TRUE(B.Ok);
  EXPECT_TRUE(A.sameResult(B));
}

class IfdsSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IfdsSeedTest, DeclarativeMatchesImperative) {
  IcfgProgram G = generateIcfg(GetParam(), /*NumProcs=*/8,
                               /*NodesPerProc=*/12, /*FactsTotal=*/40,
                               /*CallsPerProc=*/2);
  IfdsProblem P = G.toIfdsProblem();
  IfdsResult A = runIfdsFlix(P);
  IfdsResult B = runIfdsImperative(P);
  ASSERT_TRUE(A.Ok) << A.Error;
  ASSERT_TRUE(B.Ok);
  EXPECT_TRUE(A.sameResult(B))
      << "declarative " << A.Result.size() << " pairs vs imperative "
      << B.Result.size() << " pairs";
}

INSTANTIATE_TEST_SUITE_P(Seeds, IfdsSeedTest,
                         ::testing::Values(1, 2, 3, 7, 21, 77, 123, 1000));

TEST(IfdsTest, RecursiveProceduresTerminate) {
  // A procedure that calls itself: summaries must close the loop.
  IfdsProblem P;
  P.NumNodes = 4; // proc 0: 0 -> 1(call self) -> 2 -> 3
  P.NumProcs = 1;
  P.NumFacts = 2;
  P.CfgEdges = {{0, 1}, {1, 2}, {2, 3}};
  P.CallEdges = {{1, 0}};
  P.StartNodes = {0};
  P.EndNodes = {3};
  P.Seeds = {{0, 0}};
  P.EshIntra = [](int N, int D, std::vector<int> &Out) {
    Out.push_back(D);
    if (N == 0 && D == 0)
      Out.push_back(1);
  };
  P.EshCallStart = [](int, int D, int, std::vector<int> &Out) {
    Out.push_back(D);
  };
  P.EshEndReturn = [](int, int D, int, std::vector<int> &Out) {
    Out.push_back(D);
  };
  IfdsResult A = runIfdsFlix(P);
  IfdsResult B = runIfdsImperative(P);
  ASSERT_TRUE(A.Ok) << A.Error;
  EXPECT_TRUE(A.sameResult(B));
  EXPECT_TRUE(A.Result.count({3, 1}));
}

TEST(IfdsTest, PmdJoinPlanScansFewRowsPerFiring) {
  // Regression for a misplanned SummaryEdge join: driven by ΔPathEdge it
  // probed EshCallStart on d1 alone (~89 rows per delta row) because an
  // unindexed EndNode(target, end) probe was priced by a sqrt(N) guess.
  // With column sketches the planner puts EndNode right after the
  // driver, and the sequential solve examines ~3.5 candidate rows per
  // firing (it was ~82 before).
  std::optional<DacapoPreset> Pmd;
  for (const DacapoPreset &Pr : dacapoPresets())
    if (Pr.Name == "pmd")
      Pmd = Pr;
  ASSERT_TRUE(Pmd);
  IcfgProgram G = generateIcfg(/*Seed=*/2016, Pmd->NumProcs,
                               Pmd->NodesPerProc, Pmd->FactsTotal,
                               Pmd->CallsPerProc);
  G.TransferWork = 0;
  IfdsProblem P = G.toIfdsProblem();
  IfdsResult A = runIfdsFlix(P);
  IfdsResult B = runIfdsImperative(P);
  ASSERT_TRUE(A.Ok) << A.Error;
  ASSERT_TRUE(B.Ok);
  EXPECT_TRUE(A.sameResult(B));
  ASSERT_GT(A.Stats.RuleFirings, 0u);
  double PerFiring = static_cast<double>(A.Stats.RowsScanned) /
                     static_cast<double>(A.Stats.RuleFirings);
  EXPECT_LT(PerFiring, 5.0) << A.Stats.RowsScanned << " rows scanned for "
                            << A.Stats.RuleFirings << " firings";
}

//===----------------------------------------------------------------------===//
// IDE (Figures 6 and 7)
//===----------------------------------------------------------------------===//

TEST(IdeTest, LinearConstantPropagationHandExample) {
  // main: 0 -> 1 -> 2. Node 0 gens x := 7; node 1 computes y := 2x + 1.
  // Facts: 0 = Λ, 1 = x, 2 = y.
  IdeProblem P;
  P.NumNodes = 3;
  P.NumProcs = 1;
  P.NumFacts = 3;
  P.CfgEdges = {{0, 1}, {1, 2}};
  P.StartNodes = {0};
  P.EndNodes = {2};
  P.MainProc = 0;
  P.MainFacts = {0};
  P.Seeds = {{0, 0, IdeProblem::Seed::Kind::Top, 0}};
  P.EshIntra = [](int N, int D, const TransformerLattice &T,
                  IdeProblem::Out &Out) {
    if (D == 0) {
      Out.push_back({0, T.identity()});
      if (N == 0)
        Out.push_back({1, T.nonBot(0, 7, T.constants().bot())}); // x := 7
      return;
    }
    if (N == 1 && D == 1)
      Out.push_back({2, T.nonBot(2, 1, T.constants().bot())}); // y := 2x+1
    Out.push_back({D, T.identity()});
  };
  P.EshCallStart = [](int, int, int, const TransformerLattice &,
                      IdeProblem::Out &) {};
  P.EshEndReturn = [](int, int, int, const TransformerLattice &,
                      IdeProblem::Out &) {};

  IdeResult R = runIdeFlix(P);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ((R.Values[{1, 1}]), "7");  // x after node 0
  EXPECT_EQ((R.Values[{2, 2}]), "15"); // y = 2*7+1 after node 1
  EXPECT_EQ((R.Values[{2, 1}]), "7");  // x still 7
}

TEST(IdeTest, JoinOfDifferentConstantsIsTop) {
  // Diamond: 0 -> 1a(gen x:=1) -> 3 and 0 -> 2(gen x:=2) -> 3.
  IdeProblem P;
  P.NumNodes = 4;
  P.NumProcs = 1;
  P.NumFacts = 2;
  P.CfgEdges = {{0, 1}, {0, 2}, {1, 3}, {2, 3}};
  P.StartNodes = {0};
  P.EndNodes = {3};
  P.MainFacts = {0};
  P.Seeds = {{0, 0, IdeProblem::Seed::Kind::Top, 0}};
  P.EshIntra = [](int N, int D, const TransformerLattice &T,
                  IdeProblem::Out &Out) {
    if (D == 0) {
      Out.push_back({0, T.identity()});
      if (N == 1)
        Out.push_back({1, T.nonBot(0, 1, T.constants().bot())});
      if (N == 2)
        Out.push_back({1, T.nonBot(0, 2, T.constants().bot())});
      return;
    }
    Out.push_back({D, T.identity()});
  };
  P.EshCallStart = [](int, int, int, const TransformerLattice &,
                      IdeProblem::Out &) {};
  P.EshEndReturn = [](int, int, int, const TransformerLattice &,
                      IdeProblem::Out &) {};
  IdeResult R = runIdeFlix(P);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ((R.Values[{3, 1}]), "Top"); // 1 ⊔ 2
}

class IdeSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IdeSeedTest, IdeReachabilityMatchesIfds) {
  // §4.3: IDE computes the same edges as IFDS; with any micro-functions,
  // the reachable (node, fact) pairs must coincide with the IFDS result.
  IcfgProgram G = generateIcfg(GetParam(), /*NumProcs=*/6,
                               /*NodesPerProc=*/10, /*FactsTotal=*/30,
                               /*CallsPerProc=*/2);
  IfdsResult A = runIfdsFlix(G.toIfdsProblem());
  IdeResult B = runIdeFlix(G.toIdeProblem());
  ASSERT_TRUE(A.Ok) << A.Error;
  ASSERT_TRUE(B.Ok) << B.Error;
  EXPECT_EQ(A.Result, B.Reachable);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IdeSeedTest,
                         ::testing::Values(1, 2, 5, 17, 99));

//===----------------------------------------------------------------------===//
// Shortest paths (§4.4)
//===----------------------------------------------------------------------===//

TEST(ShortestPathsTest, SmallGraphExact) {
  WeightedGraph G;
  G.NumNodes = 5;
  G.Edges = {{0, 1, 4}, {0, 2, 1}, {2, 1, 1}, {1, 3, 1}, {3, 4, 2}};
  SsspResult R = runShortestPathsFlix(G, 0);
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.Dist, (std::vector<int64_t>{0, 2, 1, 3, 5}));
}

TEST(ShortestPathsTest, UnreachableNodesAreInfinite) {
  WeightedGraph G;
  G.NumNodes = 3;
  G.Edges = {{0, 1, 1}};
  SsspResult R = runShortestPathsFlix(G, 0);
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.Dist[2], -1);
}

class SsspSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SsspSeedTest, FlixMatchesDijkstraAndBellmanFord) {
  WeightedGraph G = generateGraph(GetParam(), 120, 3.0, 20);
  SsspResult A = runShortestPathsFlix(G, 0);
  SsspResult B = runDijkstra(G, 0);
  SsspResult C = runBellmanFord(G, 0);
  ASSERT_TRUE(A.Ok);
  EXPECT_TRUE(A.sameDistances(B));
  EXPECT_TRUE(B.sameDistances(C));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SsspSeedTest,
                         ::testing::Values(1, 2, 3, 10, 55, 77));

TEST(ShortestPathsTest, AllPairsMatchesRepeatedDijkstra) {
  WeightedGraph G = generateGraph(5, 30, 2.5, 9);
  std::vector<int64_t> AP = runAllPairsFlix(G);
  for (int S = 0; S < G.NumNodes; ++S) {
    SsspResult D = runDijkstra(G, S);
    for (int V = 0; V < G.NumNodes; ++V)
      EXPECT_EQ(AP[S * G.NumNodes + V], D.Dist[V])
          << "source " << S << " target " << V;
  }
}

} // namespace
