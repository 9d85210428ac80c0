//===- tests/PlannerTest.cpp - Cost-based join planner tests --------------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
///
/// Tests for the cost-based adaptive join planner (DESIGN.md §16):
///
///   * cost-model unit tests on hand-built statistics — access-path
///     selectivity math, order dominance, deterministic tie-breaking;
///   * PlanLibrary re-planning — initial cost-based choose, idempotence,
///     adaptive hysteresis, wantedIndexes order-independence;
///   * a randomized plan-equivalence harness on skewed / fan-out
///     workloads: {greedy, cost-based, adaptive} × {0, 1, 8} threads must
///     all produce the model of the frozen-order sequential baseline
///     (⊔-confluence makes any valid join order yield the same minimal
///     model, so equality is exact);
///   * a StrictIndexCoverage regression: flipping the written body order
///     must not trip IndexFallbacks once plans (not an assumed order)
///     define the wanted indexes.
///
//===----------------------------------------------------------------------===//

#include "fixpoint/Plan.h"
#include "parallel/Dispatch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <vector>

using namespace flix;
using namespace flix::plan;

namespace {

//===----------------------------------------------------------------------===//
// Cost-model unit tests on hand-built statistics
//===----------------------------------------------------------------------===//

TEST(PlannerCostModelTest, EstimateAccessSelectivity) {
  PredStats St;
  St.LiveRows = 1000;
  uint64_t Full = 0b11;

  // Fully bound: one primary lookup, at most one row out.
  AccessEstimate E = estimateAccess(St, Full, Full, /*UseIndexes=*/true);
  EXPECT_DOUBLE_EQ(E.Cost, 1.0);
  EXPECT_DOUBLE_EQ(E.Fanout, 1.0);

  // Nothing bound: full scan, every row comes out.
  E = estimateAccess(St, 0, Full, true);
  EXPECT_DOUBLE_EQ(E.Cost, 1000.0);
  EXPECT_DOUBLE_EQ(E.Fanout, 1000.0);

  // Partially bound with an existing index: average bucket size.
  St.Indexes.push_back({0b01, /*Buckets=*/100, /*MaxBucket=*/50});
  E = estimateAccess(St, 0b01, Full, true);
  EXPECT_DOUBLE_EQ(E.Fanout, 10.0); // 1000 rows / 100 buckets

  // Partially bound, no statistics for that mask: each bound column is
  // assumed to cut the candidate set by ~sqrt(N).
  E = estimateAccess(St, 0b10, Full, true);
  EXPECT_NEAR(E.Fanout, 1000.0 / std::sqrt(1000.0), 1e-9);

  // Indexes disabled degrade every partial probe to a scan.
  E = estimateAccess(St, 0b01, Full, /*UseIndexes=*/false);
  EXPECT_DOUBLE_EQ(E.Fanout, 1000.0);

  // Empty table: optimistic one-row floor, so join orders stay
  // distinguishable when derived predicates are planned before they fill.
  PredStats Empty;
  E = estimateAccess(Empty, Full, Full, true);
  EXPECT_DOUBLE_EQ(E.Fanout, 1.0);
  E = estimateAccess(Empty, 0, Full, true);
  EXPECT_DOUBLE_EQ(E.Fanout, 1.0);
}

/// The planner's canonical win: a body written selective-atom-last.
/// Out(s, b) :- Src(s), Big(a, b), Sel(s, a).  In written order Big is
/// reached with nothing bound (full scan, huge fanout); putting Sel
/// before Big turns both into cheap probes.
struct MisorderedJoinCase {
  ValueFactory F;
  Program P{F};
  PredId Src, Big, Sel, Out;

  MisorderedJoinCase() {
    Src = P.relation("Src", 1);
    Big = P.relation("Big", 2);
    Sel = P.relation("Sel", 2);
    Out = P.relation("Out", 2);
    RuleBuilder()
        .head(Out, {"s", "b"})
        .atom(Src, {"s"})
        .atom(Big, {"a", "b"})
        .atom(Sel, {"s", "a"})
        .addTo(P);
  }

  /// Hand-built statistics: Src and Sel tiny, Big enormous.
  StatsVec stats(double BigRows) const {
    StatsVec S(P.predicates().size());
    S[Src].LiveRows = 8;
    S[Big].LiveRows = BigRows;
    S[Big].Indexes.push_back(
        {0b01, /*Buckets=*/size_t(BigRows / 4), /*MaxBucket=*/8});
    S[Sel].LiveRows = 8;
    return S;
  }
};

TEST(PlannerCostModelTest, OrderDominance) {
  MisorderedJoinCase C;
  const Rule &R = C.P.rules()[0];
  StatsVec St = C.stats(1e6);
  std::vector<bool> PreBound(R.NumVars, false);

  uint32_t Written[] = {0, 1, 2}; // Src, Big, Sel
  uint32_t Chosen[] = {0, 2, 1};  // Src, Sel, Big
  double CostWritten =
      orderCost(C.P, R, -1, false, Written, St, true, PreBound);
  double CostChosen =
      orderCost(C.P, R, -1, false, Chosen, St, true, PreBound);
  // The written order scans Big with nothing bound; the planner's order
  // probes it with `a` bound. Orders of magnitude, not noise.
  EXPECT_GT(CostWritten, 100 * CostChosen);

  // Whether the planner opens with Src or Sel (both are tiny scans), the
  // one thing a sane order guarantees is that Big is probed last, with
  // `a` already bound.
  SmallVector<uint32_t, 8> Got =
      chooseOrder(C.P, R, -1, false, St, true, PreBound);
  ASSERT_EQ(Got.size(), 3u);
  EXPECT_EQ(Got[2], 1u);
}

TEST(PlannerCostModelTest, EstimateAccessUsesColumnSketches) {
  PredStats St;
  St.LiveRows = 1000;
  St.Distinct = {1000, 10, 4};
  uint64_t Full = 0b111;

  // One bound column keeps LiveRows / V of the rows.
  EXPECT_DOUBLE_EQ(estimateAccess(St, 0b010, Full, true).Fanout, 100.0);
  // Bound columns combine as if independent.
  EXPECT_DOUBLE_EQ(estimateAccess(St, 0b110, Full, true).Fanout, 25.0);
  // A sketch can count more values than there are live rows (tombstones,
  // estimator error); a column never cuts below one row per value.
  St.Distinct[1] = 5000;
  EXPECT_DOUBLE_EQ(estimateAccess(St, 0b010, Full, true).Fanout, 1.0);
  // An index on the mask is exact and wins over the sketch.
  St.Indexes.push_back({0b010, /*Buckets=*/50, /*MaxBucket=*/40});
  EXPECT_DOUBLE_EQ(estimateAccess(St, 0b010, Full, true).Fanout, 20.0);
  // A skewed index is priced by the bucket an average row sits in.
  St.Indexes[0].RowWeightedBucket = 35;
  EXPECT_DOUBLE_EQ(estimateAccess(St, 0b010, Full, true).Fanout, 35.0);
}

/// Figure 5's SummaryEdge rule, driven by ΔPathEdge:
///   SummaryEdge(call, d4, d5) :- CallGraph(call, target),
///       StartNode(target, start), EndNode(target, end),
///       EshCallStart(call, d4, target, d1), PathEdge(d1, end, d2),
///       d5 <- eshEndReturn(target, d2, call).
/// Statistics are shaped like the pmd preset: 76 procedures, EshCallStart
/// skewed on d1 (one bucket of its d1 index holds most rows; ~88 rows a
/// bucket on average mid-solve), and no index on EndNode's `end` column.
struct SummaryEdgeCase {
  ValueFactory F;
  Program P{F};
  PredId CallGraph, StartNode, EndNode, EshCallStart, PathEdge, SummaryEdge;
  static constexpr int DriverIdx = 4; // PathEdge's body index
  static constexpr uint32_t EndNodeIdx = 2;
  static constexpr uint32_t EshCallStartIdx = 3;

  SummaryEdgeCase() {
    CallGraph = P.relation("CallGraph", 2);
    StartNode = P.relation("StartNode", 2);
    EndNode = P.relation("EndNode", 2);
    EshCallStart = P.relation("EshCallStart", 4);
    PathEdge = P.relation("PathEdge", 3);
    SummaryEdge = P.relation("SummaryEdge", 3);
    FnId Ret = P.function("eshEndReturn", 3, FnRole::Binder,
                          [this](std::span<const Value>) {
                            return F.set(std::vector<Value>{});
                          });
    RuleBuilder()
        .head(SummaryEdge, {"call", "d4", "d5"})
        .atom(CallGraph, {"call", "target"})
        .atom(StartNode, {"target", "start"})
        .atom(EndNode, {"target", "end"})
        .atom(EshCallStart, {"call", "d4", "target", "d1"})
        .atom(PathEdge, {"d1", "end", "d2"})
        .bind({"d5"}, Ret, {"target", "d2", "call"})
        .addTo(P);
  }

  StatsVec stats(double EshRows = 4400) const {
    StatsVec S(P.predicates().size());
    S[CallGraph].LiveRows = 304;
    S[CallGraph].Distinct = {301, 76};
    S[CallGraph].Indexes.push_back({0b01, 297, 2});
    S[StartNode].LiveRows = 76;
    S[StartNode].Distinct = {76, 76};
    S[StartNode].Indexes.push_back({0b01, 76, 1});
    S[EndNode].LiveRows = 76;
    S[EndNode].Distinct = {76, 76};
    S[EndNode].Indexes.push_back({0b01, 76, 1}); // on target, not end
    S[EshCallStart].LiveRows = EshRows;
    S[EshCallStart].Distinct = {300, 50, 76, 50};
    S[EshCallStart].Indexes.push_back({0b1000, 50, size_t(EshRows * 0.6)});
    S[PathEdge].LiveRows = 20000;
    S[PathEdge].Distinct = {60, 2888, 420};
    S[SummaryEdge].LiveRows = 900;
    S[SummaryEdge].Distinct = {300, 60, 60};
    return S;
  }
};

TEST(PlannerCostModelTest, SummaryEdgeProbesEndNodeRightAfterDriver) {
  SummaryEdgeCase C;
  const Rule &R = C.P.rules()[0];
  std::vector<bool> PreBound(R.NumVars, false);
  // `end` is bound by the driver and has 76 distinct values in 76 rows:
  // EndNode yields ~1 row and binds `target` for everything after it.
  // Early in the solve (300 EshCallStart rows) a sqrt(76) guess for the
  // unindexed `end` probe made the d1 probe look cheaper.
  for (double EshRows : {300.0, 4400.0}) {
    SmallVector<uint32_t, 8> Got =
        chooseOrder(C.P, R, SummaryEdgeCase::DriverIdx,
                    /*DriverIsDelta=*/true, C.stats(EshRows), true, PreBound);
    ASSERT_EQ(Got.size(), R.Body.size());
    EXPECT_EQ(Got[0], uint32_t(SummaryEdgeCase::DriverIdx));
    EXPECT_EQ(Got[1], SummaryEdgeCase::EndNodeIdx)
        << "EshCallStart rows: " << EshRows;
  }
}

TEST(PlannerReplanTest, SummaryEdgeInitialChooseUsesSketches) {
  // Before the solve fills EshCallStart, its one-row floor makes probing
  // it on d1 look free. The sketched EndNode (~1 row) must still win the
  // initial choose: the 4x hysteresis of later checks would otherwise
  // hold the d1 probe while EshCallStart grows.
  SummaryEdgeCase C;
  StatsVec St = C.stats();
  St[C.EshCallStart] = PredStats();
  St[C.SummaryEdge] = PredStats();
  const std::vector<Rule> &Rules = C.P.rules();
  PlanLibrary L(C.P, /*UseIndexes=*/true);
  L.replanFromStats(St, 1.0);
  auto secondStep = [&] {
    const RulePlan &Pl = L.plan(0, SummaryEdgeCase::DriverIdx);
    EXPECT_EQ(Pl.BodyOrder.size(), Rules[0].Body.size());
    return Pl.BodyOrder[1];
  };
  EXPECT_EQ(secondStep(), SummaryEdgeCase::EndNodeIdx);
  // Grown to the mid-solve shape, the adaptive check keeps that order.
  L.replanFromStats(C.stats(), 4.0);
  EXPECT_EQ(secondStep(), SummaryEdgeCase::EndNodeIdx);
}

TEST(PlannerReplanTest, SummaryEdgeSkewedD1IndexTriggersReplan) {
  // A sketch that undercounts EndNode's `end` column (74 for 76 values)
  // loses the initial choose to the free-looking d1 probe into the still
  // empty EshCallStart. As EshCallStart fills, one d1 bucket (fact Λ)
  // takes most rows while the average bucket stays ~3 rows. The
  // row-weighted bucket exposes the skew, and the adaptive check moves
  // EndNode back behind the driver.
  SummaryEdgeCase C;
  StatsVec St = C.stats();
  St[C.EndNode].Distinct = {76, 74};
  St[C.EshCallStart] = PredStats();
  St[C.SummaryEdge] = PredStats();
  PlanLibrary L(C.P, /*UseIndexes=*/true);
  L.replanFromStats(St, 1.0);
  auto secondStep = [&] {
    return L.plan(0, SummaryEdgeCase::DriverIdx).BodyOrder[1];
  };
  ASSERT_EQ(secondStep(), SummaryEdgeCase::EshCallStartIdx);

  // Mid-solve shape of a pmd run. Other plans also index EshCallStart on
  // (target, d1), ~2.3 rows a bucket, so by average buckets the EndNode
  // order looks only ~1.5x cheaper: below the 4x hysteresis.
  StatsVec Mid = C.stats(/*EshRows=*/788);
  Mid[C.EndNode].Distinct = {76, 74};
  Mid[C.EshCallStart].Distinct = {296, 273, 75, 272};
  Table::IndexStats &D1 = Mid[C.EshCallStart].Indexes[0];
  D1.Buckets = 270;
  D1.MaxBucket = 300;
  D1.RowWeightedBucket = 115;
  Mid[C.EshCallStart].Indexes.push_back(
      {0b1100, /*Buckets=*/344, /*MaxBucket=*/9, /*RowWeightedBucket=*/4});
  L.replanFromStats(Mid, 4.0);
  EXPECT_EQ(secondStep(), SummaryEdgeCase::EndNodeIdx);
}

TEST(PlannerCostModelTest, DriverStaysFirst) {
  MisorderedJoinCase C;
  const Rule &R = C.P.rules()[0];
  StatsVec St = C.stats(1e6);
  std::vector<bool> PreBound(R.NumVars, false);
  // Even when the driver atom is the expensive one it must open the
  // order — delta-driven evaluation feeds it from the engine.
  SmallVector<uint32_t, 8> Got =
      chooseOrder(C.P, R, /*Driver=*/1, /*DriverIsDelta=*/true, St, true,
                  PreBound);
  ASSERT_EQ(Got.size(), 3u);
  EXPECT_EQ(Got[0], 1u);
}

TEST(PlannerCostModelTest, TieBreakingIsDeterministic) {
  // Two indistinguishable atoms: the planner must keep the written order
  // (lowest body index wins ties), and repeated calls must agree.
  ValueFactory F;
  Program P(F);
  PredId A = P.relation("A", 2);
  PredId B = P.relation("B", 2);
  PredId Out = P.relation("OutP", 2);
  RuleBuilder()
      .head(Out, {"x", "z"})
      .atom(A, {"x", "y"})
      .atom(B, {"y", "z"})
      .addTo(P);
  const Rule &R = P.rules()[0];
  StatsVec St(P.predicates().size());
  St[A].LiveRows = 500;
  St[B].LiveRows = 500;
  std::vector<bool> PreBound(R.NumVars, false);

  SmallVector<uint32_t, 8> First =
      chooseOrder(P, R, -1, false, St, true, PreBound);
  ASSERT_EQ(First.size(), 2u);
  EXPECT_EQ(First[0], 0u) << "ties must break toward the written order";
  for (int I = 0; I < 10; ++I)
    EXPECT_EQ(chooseOrder(P, R, -1, false, St, true, PreBound), First);
}

//===----------------------------------------------------------------------===//
// PlanLibrary re-planning
//===----------------------------------------------------------------------===//

TEST(PlannerReplanTest, InitialChooseThenIdempotent) {
  MisorderedJoinCase C;
  PlanLibrary L(C.P, /*UseIndexes=*/true);

  // Construction freezes the driver-first written order.
  EXPECT_EQ(L.costBasedPlans(), 0u);
  {
    const RulePlan &Pl = L.plan(0, -1);
    ASSERT_EQ(Pl.BodyOrder.size(), 3u);
    EXPECT_EQ(Pl.BodyOrder[0], 0u);
    EXPECT_EQ(Pl.BodyOrder[1], 1u);
  }

  // Threshold 1.0 = adopt any strict improvement (the initial choose).
  StatsVec St = C.stats(1e6);
  PlanLibrary::ReplanResult R1 = L.replanFromStats(St, 1.0);
  EXPECT_GT(R1.Replanned, 0u);
  EXPECT_GT(L.costBasedPlans(), 0u);
  {
    const RulePlan &Pl = L.plan(0, -1);
    ASSERT_EQ(Pl.BodyOrder.size(), 3u);
    EXPECT_EQ(Pl.BodyOrder[2], 1u) << "Big must move last";
  }

  // Same statistics again: nothing to improve — re-planning must be a
  // fixpoint, or adaptive checks would thrash every round.
  PlanLibrary::ReplanResult R2 = L.replanFromStats(St, 1.0);
  EXPECT_EQ(R2.Replanned, 0u);
  EXPECT_EQ(R2.RowsDivergence, 0u);
}

TEST(PlannerReplanTest, HysteresisSuppressesMarginalFlips) {
  MisorderedJoinCase C;
  PlanLibrary L(C.P, true);
  ASSERT_GT(L.replanFromStats(C.stats(1e6), 1.0).Replanned, 0u);

  // A mild drift in Big's size changes estimated costs but not by the
  // 4x hysteresis factor: the adaptive check must hold the current plan
  // and report the drift it measured.
  PlanLibrary::ReplanResult R = L.replanFromStats(C.stats(1.3e6), 4.0);
  EXPECT_EQ(R.Replanned, 0u);
  EXPECT_EQ(R.RowsDivergence, uint64_t(0.3e6));
}

/// Gen/kill reachability (examples/flix/gen_kill.flix): rule 1 negates
/// Kill, rule 0 negates nothing.
struct GenKillCase {
  ValueFactory F;
  Program P{F};
  PredId Cfg = P.relation("Cfg", 2);
  PredId Gen = P.relation("Gen", 2);
  PredId Kill = P.relation("Kill", 2);
  PredId Reach = P.relation("Reach", 2);
  static constexpr uint32_t NegIdx = 2; ///< !Kill(m, d) in rule 1

  GenKillCase() {
    RuleBuilder().head(Reach, {"n", "d"}).atom(Gen, {"n", "d"}).addTo(P);
    RuleBuilder()
        .head(Reach, {"m", "d"})
        .atom(Reach, {"n", "d"})
        .atom(Cfg, {"n", "m"})
        .negated(Kill, {"m", "d"})
        .addTo(P);
  }
};

TEST(PlannerReplanTest, NegationDrivenFamilyOpensWithGroundNegation) {
  GenKillCase C;
  PlanLibrary L(C.P, /*UseIndexes=*/true);
  // Frozen order: the negated atom first, over its pre-bound key
  // variables, then the body in textual order. Reach(n, d) is probed on
  // the bound d, Cfg(n, m) is then fully bound.
  const RulePlan &Pl = L.negDrivenPlan(1, GenKillCase::NegIdx);
  ASSERT_EQ(Pl.Steps.size(), 3u);
  EXPECT_EQ(Pl.Steps[0].Kind, StepKind::Negation);
  EXPECT_EQ(Pl.Steps[0].Pred, C.Kill);
  EXPECT_EQ(Pl.Steps[1].Kind, StepKind::Probe);
  EXPECT_EQ(Pl.Steps[1].Mask, 0b10u);
  EXPECT_EQ(Pl.Steps[2].Kind, StepKind::Lookup);
  // The family counts in totalSteps: rule 0 has two delta-driven and two
  // rederive plans of one step each; rule 1 has three of each, with three
  // steps apiece.
  EXPECT_EQ(L.totalSteps(), 4u + 6u * 3u + 3u);

  // Without indexes the probe degrades to a scan, as in every family.
  PlanLibrary NoIx(C.P, /*UseIndexes=*/false);
  EXPECT_EQ(NoIx.negDrivenPlan(1, GenKillCase::NegIdx).Steps[1].Kind,
            StepKind::Scan);

  // The cost model re-plans the family too: a huge Reach with few
  // distinct facts makes probing the small Cfg on m first cheaper.
  StatsVec St(C.P.predicates().size());
  St[C.Reach].LiveRows = 1e6;
  St[C.Reach].Distinct = {1000, 10};
  St[C.Cfg].LiveRows = 100;
  St[C.Cfg].Distinct = {100, 100};
  L.replanFromStats(St, 1.0);
  const RulePlan &Re = L.negDrivenPlan(1, GenKillCase::NegIdx);
  ASSERT_EQ(Re.BodyOrder.size(), 3u);
  EXPECT_EQ(Re.BodyOrder[0], GenKillCase::NegIdx);
  EXPECT_EQ(Re.BodyOrder[1], 1u) << "Cfg must follow the negation";
  EXPECT_EQ(Re.Steps[0].Kind, StepKind::Negation);
  EXPECT_GT(L.costBasedPlans(), 0u);
  // Its probe (Cfg on m) is among the masks the static analyses build.
  std::vector<std::vector<uint64_t>> Masks(C.P.predicates().size());
  L.wantedIndexes(Masks);
  EXPECT_NE(std::find(Masks[C.Cfg].begin(), Masks[C.Cfg].end(), 0b10u),
            Masks[C.Cfg].end());
}

TEST(PlannerReplanTest, WantedIndexesIsOrderIndependent) {
  // The same join written in two body orders: after cost-based planning
  // both compile to the same evaluation orders, so the masks the static
  // index analyses must pre-build are identical. This is the
  // StrictIndexCoverage satellite: wanted indexes are read off compiled
  // plans, never off an assumed driver-first order.
  auto build = [](Program &P, bool Flipped) {
    PredId Src = P.relation("Src", 1);
    PredId Big = P.relation("Big", 2);
    PredId Sel = P.relation("Sel", 2);
    PredId Out = P.relation("Out", 2);
    RuleBuilder B;
    B.head(Out, {"s", "b"}).atom(Src, {"s"});
    if (Flipped)
      B.atom(Sel, {"s", "a"}).atom(Big, {"a", "b"});
    else
      B.atom(Big, {"a", "b"}).atom(Sel, {"s", "a"});
    B.addTo(P);
    return std::array<PredId, 4>{Src, Big, Sel, Out};
  };

  ValueFactory F1, F2;
  Program P1(F1), P2(F2);
  build(P1, false);
  build(P2, true);

  auto masksOf = [](const Program &P, StatsVec St) {
    PlanLibrary L(P, true);
    L.replanFromStats(St, 1.0);
    std::vector<std::vector<uint64_t>> Masks(P.predicates().size());
    L.wantedIndexes(Masks);
    return Masks;
  };

  StatsVec St(P1.predicates().size());
  St[1].LiveRows = 1e6; // Big
  St[0].LiveRows = St[2].LiveRows = 8;
  EXPECT_EQ(masksOf(P1, St), masksOf(P2, St));
}

//===----------------------------------------------------------------------===//
// Randomized plan-equivalence harness
//===----------------------------------------------------------------------===//

/// A skewed, fan-out-heavy workload the planner actually reorders:
/// transitive closure over a hub-dominated graph feeding a 3-atom join
/// whose written order visits the big relation first.
///
///   Path(x,y) :- Edge(x,y).
///   Path(x,z) :- Path(x,y), Edge(y,z).
///   Hit(x,w)  :- Path(x,y), Fan(z,w), Mid(y,z).
struct SkewWorkload {
  ValueFactory F;
  std::vector<std::array<int, 2>> EdgeRows, MidRows, FanRows;
  PredId Edge = 0, Path = 0, Mid = 0, Fan = 0, Hit = 0;

  /// \p Skew picks hub-dominated (true) or uniform-ish (false) shapes.
  SkewWorkload(unsigned Seed, bool Skew) {
    std::mt19937 Rng(Seed);
    int Nodes = 60;
    auto Rand = [&](int N) { return int(Rng() % unsigned(N)); };
    if (Skew) {
      // Star: hub 0 owns most edges, a few feeders point at the hub.
      for (int I = 1; I < Nodes; ++I)
        EdgeRows.push_back({0, I});
      for (int I = 0; I < 8; ++I)
        EdgeRows.push_back({Nodes + I, 0});
    }
    for (int I = 0; I < (Skew ? 40 : 150); ++I)
      EdgeRows.push_back({Rand(Nodes), Rand(Nodes)});
    // Mid: sparse bridge. Fan: large fan-out relation.
    for (int I = 0; I < 30; ++I)
      MidRows.push_back({Rand(Nodes), Rand(8)});
    for (int I = 0; I < (Skew ? 600 : 200); ++I)
      FanRows.push_back({Rand(8), Rand(500)});
  }

  Program build() {
    Program P(F);
    Edge = P.relation("Edge", 2);
    Path = P.relation("Path", 2);
    Mid = P.relation("Mid", 2);
    Fan = P.relation("Fan", 2);
    Hit = P.relation("Hit", 2);
    RuleBuilder().head(Path, {"x", "y"}).atom(Edge, {"x", "y"}).addTo(P);
    RuleBuilder()
        .head(Path, {"x", "z"})
        .atom(Path, {"x", "y"})
        .atom(Edge, {"y", "z"})
        .addTo(P);
    RuleBuilder()
        .head(Hit, {"x", "w"})
        .atom(Path, {"x", "y"})
        .atom(Fan, {"z", "w"})
        .atom(Mid, {"y", "z"})
        .addTo(P);
    for (auto [A, B] : EdgeRows)
      P.addFact(Edge, {F.integer(A), F.integer(B)});
    for (auto [A, B] : MidRows)
      P.addFact(Mid, {F.integer(A), F.integer(B)});
    for (auto [A, B] : FanRows)
      P.addFact(Fan, {F.integer(A), F.integer(B)});
    return P;
  }

  /// Full model of every derived predicate, sorted for exact comparison
  /// (values are hash-consed through the shared factory F).
  using Model = std::vector<std::vector<std::vector<Value>>>;
  Model solve(const SolverOptions &O, SolveStats *OutStats = nullptr) {
    Program P = build();
    return solveWith(P, O, [&](const auto &S, const SolveStats &St) {
      EXPECT_TRUE(St.ok()) << St.Error;
      if (OutStats)
        *OutStats = St;
      Model M;
      for (PredId Pr : {Path, Hit}) {
        std::vector<std::vector<Value>> Rows = S.tuples(Pr);
        std::sort(Rows.begin(), Rows.end());
        M.push_back(std::move(Rows));
      }
      return M;
    });
  }
};

/// The planner-mode matrix: frozen greedy orders, cost-based initial
/// choose only, and adaptive with an aggressive re-plan threshold.
struct PlannerMode {
  const char *Name;
  bool CostBased;
  double Threshold;
};
constexpr PlannerMode Modes[] = {
    {"greedy", false, 0.0},
    {"cost", true, 0.0},
    {"adaptive", true, 1.5},
};

std::string describe(const PlannerMode &M, unsigned Threads) {
  return std::string(M.Name) + " threads=" + std::to_string(Threads);
}

TEST(PlannerEquivalenceTest, RandomizedSkewedWorkloads) {
  for (unsigned Seed : {11u, 23u, 47u}) {
    for (bool Skew : {true, false}) {
      SkewWorkload W(Seed, Skew);
      SolverOptions Base;
      Base.CostBasedPlans = false;
      SkewWorkload::Model Expected = W.solve(Base);
      ASSERT_FALSE(Expected[0].empty());
      for (const PlannerMode &M : Modes) {
        for (unsigned Threads : {0u, 1u, 8u}) {
          SolverOptions O;
          O.CostBasedPlans = M.CostBased;
          O.ReplanThreshold = M.Threshold;
          O.NumThreads = Threads;
          SolveStats St;
          SkewWorkload::Model Got = W.solve(O, &St);
          EXPECT_EQ(Got, Expected)
              << describe(M, Threads) << " seed=" << Seed
              << " skew=" << Skew;
          if (!M.CostBased) {
            EXPECT_EQ(St.CostBasedPlans, 0u) << describe(M, Threads);
          }
        }
      }
    }
  }
}

TEST(PlannerEquivalenceTest, CostPlannerReordersTheSkewedJoin) {
  // Sanity that the matrix above actually exercises different plans: on
  // the skewed workload the cost-based planner must change at least one
  // (rule, driver) order away from the frozen one.
  SkewWorkload W(11, /*Skew=*/true);
  SolverOptions O;
  SolveStats St;
  W.solve(O, &St);
  EXPECT_GT(St.CostBasedPlans, 0u);
}

//===----------------------------------------------------------------------===//
// StrictIndexCoverage under flipped written orders
//===----------------------------------------------------------------------===//

TEST(PlannerStrictCoverageTest, FlippedBodyOrdersDontTripFallbacks) {
  // Both written orders of the 3-atom join, solved by the parallel
  // engine under --strict-index-coverage semantics: every probe the
  // cost-chosen plans perform must hit a pre-built index. A fallback
  // here means the wanted-index analysis assumed an order the planner
  // did not pick (debug builds would assert inside the workers).
  for (bool Flipped : {false, true}) {
    ValueFactory F;
    Program P(F);
    PredId Src = P.relation("Src", 1);
    PredId Big = P.relation("Big", 2);
    PredId Sel = P.relation("Sel", 2);
    PredId Out = P.relation("Out", 2);
    RuleBuilder B;
    B.head(Out, {"s", "b"}).atom(Src, {"s"});
    if (Flipped)
      B.atom(Sel, {"s", "a"}).atom(Big, {"a", "b"});
    else
      B.atom(Big, {"a", "b"}).atom(Sel, {"s", "a"});
    B.addTo(P);

    std::mt19937 Rng(99);
    for (int I = 0; I < 4; ++I)
      P.addFact(Src, {F.integer(I)});
    for (int I = 0; I < 2000; ++I)
      P.addFact(Big, {F.integer(int(Rng() % 64)),
                      F.integer(int(Rng() % 1000))});
    for (int I = 0; I < 4; ++I)
      P.addFact(Sel, {F.integer(I), F.integer(int(Rng() % 64))});

    SolverOptions O;
    O.NumThreads = 4;
    O.StrictIndexCoverage = true;
    O.ReplanThreshold = 1.0; // re-check every round: worst case for drift
    ParallelSolver S(P, O);
    SolveStats St = S.solve();
    ASSERT_TRUE(St.ok()) << St.Error;
    EXPECT_EQ(St.IndexFallbacks, 0u) << "flipped=" << Flipped;
    EXPECT_GT(S.table(Out).size(), 0u);
  }
}

} // namespace
