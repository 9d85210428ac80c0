//===- tests/InternDisciplineTest.cpp - Only stored rows intern keys ------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tables are probed and looked up with raw column values, so evaluating a
/// rule interns nothing but the head key it derives — and in a purely
/// relational program every derived head key is stored. The ValueFactory
/// must therefore hold exactly one interned tuple per distinct stored key
/// (over all tables, tombstoned rows included) after a solve on every
/// engine: the sequential engine, the parallel engine and the incremental
/// engine after an add/retract update. A probe projection, a fully bound lookup
/// key or a missed negation key that got interned would show up as an
/// extra tuple. The server's point queries follow the same rule: a
/// queried key that no row holds must not be interned either.
///
//===----------------------------------------------------------------------===//

#include "fixpoint/Solver.h"
#include "incremental/IncrementalSolver.h"
#include "parallel/ParallelSolver.h"
#include "server/Session.h"

#include <gtest/gtest.h>

#include <set>

using namespace flix;

namespace {

/// Reachability over a ring of rings, with
///   * a partially bound probe (Reach(x, y), Edge(y, z) binds Edge's
///     first column),
///   * a fully bound Lookup (Mutual's second Reach atom), and
///   * a negation whose probes mostly miss (few nodes are Blocked).
struct RelationalCase {
  ValueFactory F;
  Program P{F};
  PredId Edge = P.relation("Edge", 2);
  PredId Blocked = P.relation("Blocked", 1);
  PredId Reach = P.relation("Reach", 2);
  PredId Mutual = P.relation("Mutual", 2);
  PredId Open = P.relation("Open", 2);

  static constexpr int Nodes = 24;

  RelationalCase() {
    RuleBuilder().head(Reach, {"x", "y"}).atom(Edge, {"x", "y"}).addTo(P);
    RuleBuilder()
        .head(Reach, {"x", "z"})
        .atom(Reach, {"x", "y"})
        .atom(Edge, {"y", "z"})
        .addTo(P);
    RuleBuilder()
        .head(Mutual, {"x", "y"})
        .atom(Reach, {"x", "y"})
        .atom(Reach, {"y", "x"})
        .addTo(P);
    RuleBuilder()
        .head(Open, {"x", "y"})
        .atom(Reach, {"x", "y"})
        .negated(Blocked, {"y"})
        .addTo(P);
    // Three rings of eight nodes, joined by one-way bridges.
    for (int I = 0; I < Nodes; ++I) {
      int Ring = I / 8, Next = Ring * 8 + (I + 1) % 8;
      P.addFact(Edge, {N(I), N(Next)});
    }
    P.addFact(Edge, {N(3), N(9)});
    P.addFact(Edge, {N(12), N(20)});
    P.addFact(Blocked, {N(5)});
    P.addFact(Blocked, {N(17)});
  }

  Value N(int I) { return F.integer(I); }

  /// Distinct key tuples over every table's rows. Predicates share
  /// tuples (Reach(1, 2) and Open(1, 2) store the same interned (1, 2)).
  template <typename SolverT> size_t storedKeys(const SolverT &S) const {
    std::set<Value> Keys;
    for (PredId Pred = 0; Pred < P.predicates().size(); ++Pred)
      for (const Table::Row &R : S.table(Pred).rows())
        Keys.insert(R.Key);
    return Keys.size();
  }
};

TEST(InternDisciplineTest, SequentialEngine) {
  RelationalCase C;
  Solver S(C.P);
  ASSERT_TRUE(S.solve().ok());
  EXPECT_TRUE(S.contains(C.Mutual, {C.N(1), C.N(6)}));
  EXPECT_FALSE(S.contains(C.Open, {C.N(0), C.N(5)}));
  EXPECT_EQ(C.F.internedSequences(), C.storedKeys(S));
}

TEST(InternDisciplineTest, ParallelEngine) {
  RelationalCase C;
  SolverOptions O;
  O.NumThreads = 4;
  ParallelSolver S(C.P, O);
  ASSERT_TRUE(S.solve().ok());
  EXPECT_TRUE(S.contains(C.Mutual, {C.N(1), C.N(6)}));
  EXPECT_FALSE(S.contains(C.Open, {C.N(0), C.N(5)}));
  EXPECT_EQ(C.F.internedSequences(), C.storedKeys(S));
}

TEST(InternDisciplineTest, IncrementalEngineAfterUpdate) {
  RelationalCase C;
  IncrementalSolver IS(C.P);
  ASSERT_TRUE(IS.update().ok());
  EXPECT_EQ(C.F.internedSequences(), C.storedKeys(IS));

  // Close a cycle between the first two rings, cut the third ring, and
  // unblock a node: over-deletes tombstone rows (which keep their
  // interned keys) and re-derivation adds new ones.
  IS.addFact(C.Edge, {C.N(10), C.N(2)});
  IS.retractFact(C.Edge, {C.N(16), C.N(17)});
  IS.retractFact(C.Blocked, {C.N(5)});
  UpdateStats U = IS.update();
  ASSERT_TRUE(U.ok());
  EXPECT_GT(U.CellsDeleted, 0u);
  EXPECT_TRUE(IS.contains(C.Mutual, {C.N(2), C.N(10)}));
  EXPECT_TRUE(IS.contains(C.Open, {C.N(0), C.N(5)}));
  EXPECT_FALSE(IS.contains(C.Reach, {C.N(16), C.N(17)}));
  EXPECT_EQ(C.F.internedSequences(), C.storedKeys(IS));
}

TEST(InternDisciplineTest, PointQueriesOfAbsentKeysInternNothing) {
  server::Session S("g", server::Session::Options{});
  server::ErrCode Code;
  std::string Err;
  ASSERT_TRUE(S.load("rel Edge(x: Int, y: Int);\n"
                     "rel Path(x: Int, y: Int);\n"
                     "Path(x, y) :- Edge(x, y).\n"
                     "Path(x, z) :- Path(x, y), Edge(y, z).\n"
                     "Edge(1, 2). Edge(2, 3).\n",
                     Deadline(), Code, Err))
      << Err;
  auto query = [&](int X, int Y) {
    server::Json Key = server::Json::array();
    Key.Arr.push_back(server::Json::integer(X));
    Key.Arr.push_back(server::Json::integer(Y));
    server::Session::QueryReply R = S.query("Path", &Key, 0);
    EXPECT_TRUE(R.Ok) << R.Error;
    const server::Json *Found = R.Fields.get("found");
    return Found && Found->isBool() && Found->B;
  };

  size_t Before = S.factory().internedSequences();
  for (int I = 0; I < 500; ++I)
    EXPECT_FALSE(query(1000 + I, I));
  EXPECT_EQ(S.factory().internedSequences(), Before);
  // Stored keys are still found.
  EXPECT_TRUE(query(1, 3));
  EXPECT_EQ(S.factory().internedSequences(), Before);
}

} // namespace
