//===- tests/CounterTableTest.cpp - Every counter reaches every surface ---===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The solver counters are declared once, in the table of
/// fixpoint/Stats.h, and every output surface is generated from it. These
/// tests walk the table itself, so a counter added later cannot skip a
/// surface: each key must appear exactly once in flixc's one-shot and
/// per-update `--json` lines and its `--stats` block, and in the server's
/// `stats` reply at the level its kind implies (gauge and lifetime
/// counters at db level, work and max counters under `last_update`).
///
//===----------------------------------------------------------------------===//

#include "StatsReport.h"

#include "parallel/ParallelSolver.h"
#include "server/Session.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace flix;

namespace {

struct Row {
  std::string Key;
  CounterKind Kind;
};

/// The table rows \p S carries, in table order.
template <typename StatsT> std::vector<Row> rowsOf(const StatsT &S) {
  std::vector<Row> Rows;
  forEachCounter(S, [&](const CounterInfo &C, uint64_t) {
    Rows.push_back({C.Key, C.Kind});
  });
  return Rows;
}

bool perUpdate(CounterKind K) {
  return K == CounterKind::Work || K == CounterKind::Max;
}

/// Occurrences of the JSON member `"Key": ` in \p Text.
size_t keyCount(const std::string &Text, const std::string &Key) {
  std::string Needle = "\"" + Key + "\": ";
  size_t N = 0;
  for (size_t At = Text.find(Needle); At != std::string::npos;
       At = Text.find(Needle, At + 1))
    ++N;
  return N;
}

TEST(CounterTableTest, TableKeysAreUnique) {
  std::vector<Row> Rows = rowsOf(UpdateStats());
  ASSERT_EQ(Rows.size(),
            rowsOf(SolveStats()).size() + rowsOf(UpdateCounters()).size());
  for (size_t I = 0; I < Rows.size(); ++I)
    for (size_t J = I + 1; J < Rows.size(); ++J)
      EXPECT_NE(Rows[I].Key, Rows[J].Key);
}

TEST(CounterTableTest, OneShotJsonCarriesEveryCounterOnce) {
  SolveStats St;
  std::string Line = report::oneShotJson(St, SolverOptions(), 2);
  for (const Row &R : rowsOf(St))
    EXPECT_EQ(keyCount(Line, R.Key), 1u) << R.Key << " in " << Line;
  std::string Block = report::statsBlock(St, SolverOptions(), 2);
  for (const Row &R : rowsOf(St))
    EXPECT_NE(Block.find("  " + R.Key + " "), std::string::npos)
        << R.Key << " in " << Block;
}

TEST(CounterTableTest, UpdateJsonCarriesEveryCounterOnce) {
  UpdateStats U;
  std::string Line = report::updateJson(1, U, 0, U, 2);
  size_t Cum = Line.find("\"cumulative\": {");
  ASSERT_NE(Cum, std::string::npos) << Line;
  std::string Top = Line.substr(0, Cum), Totals = Line.substr(Cum);
  for (const Row &R : rowsOf(U)) {
    EXPECT_EQ(keyCount(Top, R.Key), 1u) << R.Key << " in " << Line;
    // Running totals make sense for work only.
    EXPECT_EQ(keyCount(Totals, R.Key), perUpdate(R.Kind) ? 1u : 0u)
        << R.Key << " in " << Line;
  }
}

TEST(CounterTableTest, ParallelCountersReachOneShotJson) {
  ValueFactory F;
  Program P(F);
  PredId Edge = P.relation("Edge", 2);
  PredId Path = P.relation("Path", 2);
  RuleBuilder().head(Path, {"x", "y"}).atom(Edge, {"x", "y"}).addTo(P);
  RuleBuilder()
      .head(Path, {"x", "z"})
      .atom(Path, {"x", "y"})
      .atom(Edge, {"y", "z"})
      .addTo(P);
  for (int I = 0; I < 40; ++I)
    P.addFact(Edge, {F.integer(I), F.integer(I + 1)});
  SolverOptions Opts;
  Opts.NumThreads = 2;
  ParallelSolver S(P, Opts);
  SolveStats St = S.solve();
  ASSERT_TRUE(St.ok());
  ASSERT_GT(St.ParallelTasks, 0u);
  std::string Line = report::oneShotJson(St, Opts, 2);
  EXPECT_NE(Line.find("\"parallel_tasks\": " +
                      std::to_string(St.ParallelTasks) + ","),
            std::string::npos)
      << Line;
  for (const char *Key : {"parallel_steals", "merge_collisions",
                          "spawned_subtasks", "max_fanout",
                          "index_build_tasks", "index_fallbacks"})
    EXPECT_EQ(keyCount(Line, Key), 1u) << Key << " in " << Line;
}

TEST(CounterTableTest, ServerStatsPlaceCountersByKind) {
  server::Session S("g", server::Session::Options{});
  server::ErrCode Code;
  std::string Err;
  ASSERT_TRUE(S.load("rel Edge(x: Int, y: Int);\n"
                     "rel Path(x: Int, y: Int);\n"
                     "Path(x, y) :- Edge(x, y).\n"
                     "Path(x, z) :- Path(x, y), Edge(y, z).\n"
                     "Edge(1, 2).\n",
                     Deadline(), Code, Err))
      << Err;
  server::Json Rows = server::Json::array();
  server::Json Fact = server::Json::array();
  Fact.Arr.push_back(server::Json::integer(2));
  Fact.Arr.push_back(server::Json::integer(3));
  Rows.Arr.push_back(std::move(Fact));
  ASSERT_TRUE(S.applyFacts("Edge", Rows, /*Retract=*/false, Deadline()).Ok);

  server::Json Db = S.statsJson();
  const server::Json *Last = Db.get("last_update");
  ASSERT_NE(Last, nullptr);
  for (const Row &R : rowsOf(UpdateStats())) {
    const server::Json *Home = perUpdate(R.Kind) ? Last : &Db;
    const server::Json *Other = perUpdate(R.Kind) ? &Db : Last;
    const server::Json *V = Home->get(R.Key);
    ASSERT_NE(V, nullptr) << R.Key;
    EXPECT_TRUE(V->isInt()) << R.Key;
    EXPECT_EQ(Other->get(R.Key), nullptr) << R.Key;
  }
  // The batch's own work sits under last_update.
  EXPECT_EQ(Last->get("facts_added")->Int, 1);
  EXPECT_GT(Last->get("rule_firings")->Int, 0);
}

} // namespace
