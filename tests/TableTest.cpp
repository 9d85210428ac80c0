//===- tests/TableTest.cpp - Table unit tests ------------------------------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//

#include "fixpoint/Program.h"
#include "fixpoint/Table.h"

#include "runtime/Lattices.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <thread>

using namespace flix;

namespace {

//===----------------------------------------------------------------------===//
// Table
//===----------------------------------------------------------------------===//

class TableTest : public ::testing::Test {
protected:
  ValueFactory F;
  ParityLattice L{F};

  Value key(int A, int B) { return F.tuple({F.integer(A), F.integer(B)}); }
  /// A one-column probe projection (raw values; nothing is interned).
  std::array<Value, 1> col(int A) { return {F.integer(A)}; }
};

TEST_F(TableTest, InsertAndLookup) {
  Table T(2, L, F);
  auto [Id, Changed] = T.join(key(1, 2), L.odd());
  EXPECT_TRUE(Changed);
  EXPECT_EQ(T.size(), 1u);
  ASSERT_NE(T.lookup(key(1, 2)), nullptr);
  EXPECT_EQ(*T.lookup(key(1, 2)), L.odd());
  EXPECT_EQ(T.lookup(key(2, 1)), nullptr);
  EXPECT_EQ(T.lookupRow(key(1, 2)), Id);
}

TEST_F(TableTest, JoinComputesLubPerCell) {
  Table T(2, L, F);
  T.join(key(1, 2), L.odd());
  auto R1 = T.join(key(1, 2), L.odd());
  EXPECT_FALSE(R1.Changed); // no increase
  auto R2 = T.join(key(1, 2), L.even());
  EXPECT_TRUE(R2.Changed); // odd ⊔ even = ⊤
  EXPECT_EQ(*T.lookup(key(1, 2)), L.top());
  EXPECT_EQ(T.size(), 1u); // still one compact cell
}

TEST_F(TableTest, BottomCellsNotMaterialized) {
  Table T(2, L, F);
  auto R = T.join(key(1, 2), L.bot());
  EXPECT_FALSE(R.Changed);
  EXPECT_EQ(R.RowId, Table::NoRow);
  EXPECT_EQ(T.size(), 0u);
}

TEST_F(TableTest, JoinBottomIntoExistingCellIsNoop) {
  Table T(2, L, F);
  T.join(key(1, 2), L.odd());
  auto R = T.join(key(1, 2), L.bot());
  EXPECT_FALSE(R.Changed);
  EXPECT_EQ(*T.lookup(key(1, 2)), L.odd());
}

TEST_F(TableTest, SecondaryIndexProbing) {
  Table T(2, L, F);
  for (int A = 0; A < 5; ++A)
    for (int B = 0; B < 3; ++B)
      T.join(key(A, B), L.odd());
  // Probe on column 0 = 2.
  const Table::Bucket &Bucket = T.probe(0b01, col(2));
  EXPECT_EQ(Bucket.size(), 3u);
  for (uint32_t Id : Bucket)
    EXPECT_EQ(T.rowKey(Id)[0].asInt(), 2);
  // Probe on column 1 = 0.
  const Table::Bucket &B2 = T.probe(0b10, col(0));
  EXPECT_EQ(B2.size(), 5u);
  EXPECT_EQ(T.numIndexes(), 2u);
}

TEST_F(TableTest, IndexStaysInSyncWithNewRows) {
  Table T(2, L, F);
  T.join(key(1, 1), L.odd());
  EXPECT_EQ(T.probe(0b01, col(1)).size(), 1u);
  // Insert after the index exists; the index must pick it up.
  T.join(key(1, 2), L.odd());
  EXPECT_EQ(T.probe(0b01, col(1)).size(), 2u);
}

TEST_F(TableTest, ProbeMissReturnsEmpty) {
  Table T(2, L, F);
  T.join(key(1, 1), L.odd());
  EXPECT_TRUE(T.probe(0b01, col(9)).empty());
}

TEST_F(TableTest, MemoryAccountingGrows) {
  Table T(2, L, F);
  size_t Before = T.memoryBytes();
  for (int I = 0; I < 1000; ++I)
    T.join(key(I, I), L.odd());
  T.probe(0b01, col(0));
  EXPECT_GT(T.memoryBytes(), Before);
}

TEST_F(TableTest, MemoryAccountingMonotoneUnderJoins) {
  // Joins only ever add rows or lub existing cells in place, so the
  // reported footprint must never decrease across a join sequence.
  Table T(2, L, F);
  size_t Prev = T.memoryBytes();
  for (int I = 0; I < 256; ++I) {
    T.join(key(I % 16, I), L.odd());
    size_t Now = T.memoryBytes();
    EXPECT_GE(Now, Prev) << "at join " << I;
    Prev = Now;
  }
}

TEST_F(TableTest, MemoryAccountingCoversBucketCapacity) {
  // All rows share key column 0, so the mask-0b01 index is one bucket of
  // N ids. The old flat per-entry estimate ignored the bucket vector's
  // geometric capacity growth; the fix accounts capacity, so the reported
  // index memory must bound the payload bytes from below and stay within
  // a small constant factor of them from above.
  constexpr int N = 4096;
  Table T(2, L, F);
  for (int I = 0; I < N; ++I)
    T.join(key(7, I), L.odd());
  size_t RowsOnly = T.memoryBytes();
  T.probe(0b01, col(7));
  size_t WithIndex = T.memoryBytes();
  size_t IndexBytes = WithIndex - RowsOnly;
  // Lower bound: the ids actually stored (capacity >= size).
  EXPECT_GE(IndexBytes, N * sizeof(uint32_t));
  // Upper bound: capacity of a doubling vector is < 2x size; node and
  // map overhead for a single bucket is small. 4x payload is generous.
  EXPECT_LE(IndexBytes, 4u * N * sizeof(uint32_t));
}

TEST_F(TableTest, ColumnSketchTracksExactDistinctCounts) {
  // Column 0 holds N distinct values, column 1 about N/4. Tolerance: 3
  // standard errors of a 2^Precision-register HyperLogLog. N = 50k is past
  // the linear-counting range, so the raw estimator is covered too.
  const double Tol =
      3 * 1.04 / std::sqrt(double(DistinctSketch::NumRegisters));
  for (int N : {1, 76, 2888, 50000}) {
    int Mod = N / 4 + 1;
    Table T(2, L, F), Rev(2, L, F);
    for (int I = 0; I < N; ++I)
      T.join(key(I, I % Mod), L.odd());
    double Exact1 = std::min(N, Mod);
    EXPECT_NEAR(T.distinctEstimate(0), N, Tol * N) << "N = " << N;
    EXPECT_NEAR(T.distinctEstimate(1), Exact1, Tol * Exact1) << "N = " << N;
    // The same rows inserted in reverse give the identical estimate.
    for (int I = N - 1; I >= 0; --I)
      Rev.join(key(I, I % Mod), L.odd());
    EXPECT_EQ(Rev.distinctEstimate(0), T.distinctEstimate(0));
    EXPECT_EQ(Rev.distinctEstimate(1), T.distinctEstimate(1));
  }
  EXPECT_EQ(Table(2, L, F).distinctEstimate(0), 0.0);
}

TEST_F(TableTest, ColumnSketchNeverDropsOnTombstones) {
  Table T(2, L, F);
  for (int I = 0; I < 200; ++I)
    T.join(key(I, I % 10), L.odd());
  double Before = T.distinctEstimate(0);
  for (uint32_t Id = 0; Id < 100; ++Id) {
    T.resetRow(Id);
    EXPECT_GE(T.distinctEstimate(0), Before) << "after tombstoning " << Id;
  }
  // Reviving a tombstoned row is not a new distinct value.
  for (int I = 0; I < 100; ++I)
    T.join(key(I, I % 10), L.odd());
  EXPECT_EQ(T.distinctEstimate(0), Before);
}

TEST_F(TableTest, PrebuiltIndexMatchesLazyIndex) {
  // The parallel engine pre-builds its indexes (reserveIndex, then one
  // concurrent fillIndex per mask). That must produce the same
  // buckets, in the same ascending-id order, and the same planner
  // statistics as the lazy path the sequential engine takes on its first
  // probe — probeExisting on one must equal probe on the other.
  constexpr int N = 100;
  Table Lazy(2, L, F), Pre(2, L, F);
  for (int I = 0; I < N; ++I) {
    Lazy.join(key(I % 7, I), L.odd());
    Pre.join(key(I % 7, I), L.odd());
  }

  const std::array<uint64_t, 2> Masks = {0b01, 0b10};
  for (uint64_t Mask : Masks)
    Pre.reserveIndex(Mask);
  EXPECT_EQ(Pre.numIndexes(), 2u);
  std::thread Other([&] { Pre.fillIndex(Masks[1]); });
  Pre.fillIndex(Masks[0]);
  Other.join();

  for (uint64_t Mask : Masks) {
    for (int A = 0; A < N; ++A) {
      const Table::Bucket *B = Pre.probeExisting(Mask, col(A));
      ASSERT_NE(B, nullptr);
      EXPECT_EQ(*B, Lazy.probe(Mask, col(A)))
          << "mask " << Mask << " column value " << A;
      EXPECT_TRUE(std::is_sorted(B->begin(), B->end()));
    }
    // Both build paths maintain the same planner statistics.
    Table::IndexStats SLazy, SPre;
    ASSERT_TRUE(Lazy.indexStats(Mask, SLazy));
    ASSERT_TRUE(Pre.indexStats(Mask, SPre));
    EXPECT_EQ(SPre.Buckets, SLazy.Buckets);
    EXPECT_EQ(SPre.MaxBucket, SLazy.MaxBucket);
    EXPECT_EQ(SPre.RowWeightedBucket, SLazy.RowWeightedBucket);
  }
  EXPECT_EQ(Pre.memoryBytes(), Lazy.memoryBytes());
  // New rows keep flowing into the pre-built index afterwards.
  Pre.join(key(3, 999), L.odd());
  EXPECT_EQ(Pre.probeExisting(0b01, col(3))->back(),
            static_cast<uint32_t>(N));
}

TEST_F(TableTest, ProbedBucketStaysValidAcrossGrowth) {
  // Parallel spills and the sequential executor hold bucket references
  // while the table grows: joins append to the bucket, thousands of new
  // keys regrow the slot array, and another index gets created.
  Table T(2, L, F);
  for (int I = 0; I < 3; ++I)
    T.join(key(5, I), L.odd());
  const Table::Bucket &B = T.probe(0b01, col(5));
  const std::vector<uint32_t> First(B.begin(), B.end());
  ASSERT_EQ(First.size(), 3u);

  for (int I = 3; I < 200; ++I) // grow the probed bucket
    T.join(key(5, I), L.odd());
  for (int I = 0; I < 5000; ++I) // regrow the slot array, many buckets
    T.join(key(1000 + I, I), L.odd());
  T.prepareIndex(0b10); // a second index
  for (int I = 200; I < 300; ++I)
    T.join(key(5, I), L.odd());

  EXPECT_EQ(&T.probe(0b01, col(5)), &B) << "bucket moved";
  ASSERT_EQ(B.size(), 300u);
  EXPECT_TRUE(std::equal(First.begin(), First.end(), B.begin()));
  EXPECT_TRUE(std::is_sorted(B.begin(), B.end()));
  for (uint32_t Id : B)
    EXPECT_EQ(T.rowKey(Id)[0], F.integer(5));
}

TEST_F(TableTest, LookupsAndProbesOfUnseenKeysInternNothing) {
  Table T(2, L, F);
  for (int I = 0; I < 50; ++I)
    T.join(key(I % 5, I), L.odd());
  T.prepareIndex(0b01);
  const size_t Before = F.internedSequences();
  EXPECT_TRUE(T.probe(0b01, col(77)).empty());
  EXPECT_TRUE(T.probe(0b10, col(-3)).empty()); // builds an index, too
  EXPECT_TRUE(T.probeExisting(0b01, col(78))->empty());
  const std::array<Value, 2> Unseen = {F.integer(6), F.integer(600)};
  EXPECT_EQ(T.lookup(Unseen), nullptr);
  EXPECT_EQ(T.lookupRow(Unseen), Table::NoRow);
  // Seen keys are found without interning either.
  const std::array<Value, 2> Seen = {F.integer(3), F.integer(13)};
  EXPECT_NE(T.lookupRow(Seen), Table::NoRow);
  EXPECT_EQ(T.probe(0b01, col(3)).size(), 10u);
  EXPECT_EQ(F.internedSequences(), Before);
}

TEST_F(TableTest, IndexStatsWeightBucketsByRows) {
  // One hot key with 90 rows and ten keys with one row each: the average
  // bucket is 100 / 11 rows, but a randomly chosen row sits in a bucket of
  // (90² + 10) / 100 = 81.1 rows on average.
  Table T(2, L, F);
  for (int I = 0; I < 90; ++I)
    T.join(key(0, I), L.odd());
  for (int I = 1; I <= 10; ++I)
    T.join(key(I, 0), L.odd());
  T.prepareIndex(0b01);
  Table::IndexStats S;
  ASSERT_TRUE(T.indexStats(0b01, S));
  EXPECT_EQ(S.Buckets, 11u);
  EXPECT_EQ(S.MaxBucket, 90u);
  EXPECT_DOUBLE_EQ(S.RowWeightedBucket, 81.1);
}

TEST_F(TableTest, RelationalTableViaBoolLattice) {
  BoolLattice BL(F);
  Table T(2, BL, F);
  auto R1 = T.join(key(1, 2), F.boolean(true));
  EXPECT_TRUE(R1.Changed);
  auto R2 = T.join(key(1, 2), F.boolean(true));
  EXPECT_FALSE(R2.Changed); // duplicate tuple
  EXPECT_EQ(T.size(), 1u);
}

//===----------------------------------------------------------------------===//
// Program dump (round-trip sanity for diagnostics)
//===----------------------------------------------------------------------===//

TEST(ProgramDumpTest, RendersRulesAndFacts) {
  ValueFactory F;
  ParityLattice L(F);
  Program P(F);
  PredId A = P.relation("A", 2);
  PredId V = P.lattice("V", 2, &L);
  FnId Sum = P.function("sum", 2, FnRole::Transfer,
                        [&](std::span<const Value> Args) {
                          return L.sum(Args[0], Args[1]);
                        });
  P.addFact(A, {F.integer(1), F.integer(2)});
  P.addLatFact(V, {F.string("x")}, L.odd());
  RuleBuilder()
      .headFn(V, {"k"}, Sum, {"p", "q"})
      .atom(V, {"k", "p"})
      .atom(V, {"k", "q"})
      .addTo(P);
  RuleBuilder()
      .head(A, {"x", "y"})
      .atom(A, {"y", "x"})
      .negated(A, {"x", "x"})
      .addTo(P);
  std::string D = P.dump();
  EXPECT_NE(D.find("rel A/2"), std::string::npos);
  EXPECT_NE(D.find("lat V/2 <Parity>"), std::string::npos);
  EXPECT_NE(D.find("A(1, 2)."), std::string::npos);
  EXPECT_NE(D.find("Parity.Odd"), std::string::npos);
  EXPECT_NE(D.find("sum(p, q)"), std::string::npos);
  EXPECT_NE(D.find("!A(x, x)"), std::string::npos);
}

TEST(ProgramValidateTest, DetectsRoleMisuse) {
  ValueFactory F;
  Program P(F);
  PredId A = P.relation("A", 1);
  PredId B = P.relation("B", 1);
  FnId T = P.function("t", 1, FnRole::Transfer,
                      [&](std::span<const Value> Args) { return Args[0]; });
  // Transfer function used as a filter.
  RuleBuilder().head(B, {"x"}).atom(A, {"x"}).filter(T, {"x"}).addTo(P);
  auto Err = P.validate();
  ASSERT_TRUE(Err.has_value());
  EXPECT_NE(Err->find("not declared Filter"), std::string::npos);
}

TEST(ProgramValidateTest, RejectsKeyArityAbove63) {
  // 64 key columns would make `uint64_t(1) << KeyArity` UB in the
  // solvers' bound-mask computation; validate() must reject the program
  // with a diagnostic instead (regression for the mask-overflow bug).
  ValueFactory F;
  Program P(F);
  P.relation("Wide", 64);
  auto Err = P.validate();
  ASSERT_TRUE(Err.has_value());
  EXPECT_NE(Err->find("Wide"), std::string::npos);
  EXPECT_NE(Err->find("key arity 64"), std::string::npos);
  EXPECT_NE(Err->find("63"), std::string::npos);
}

TEST(ProgramValidateTest, KeyArity63IsAccepted) {
  ValueFactory F;
  Program P(F);
  P.relation("JustFits", 63);
  EXPECT_FALSE(P.validate().has_value());
}

TEST(ProgramValidateTest, DetectsArityMismatch) {
  ValueFactory F;
  Program P(F);
  PredId A = P.relation("A", 2);
  PredId B = P.relation("B", 1);
  Rule R;
  R.Head.Pred = B;
  R.Head.LastTerm = Term::var(0);
  BodyAtom At;
  At.Pred = A;
  At.Terms.push_back(Term::var(0)); // A used with arity 1
  R.Body.emplace_back(std::move(At));
  R.NumVars = 1;
  P.addRule(std::move(R));
  auto Err = P.validate();
  ASSERT_TRUE(Err.has_value());
  EXPECT_NE(Err->find("expected 2"), std::string::npos);
}

} // namespace
