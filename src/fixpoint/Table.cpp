//===- fixpoint/Table.cpp - Lattice-aware indexed tables ------------------===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//

#include "fixpoint/Table.h"

#include "support/SmallVector.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

using namespace flix;

const Table::Bucket Table::EmptyBucket;

void DistinctSketch::add(uint64_t Hash) {
  if (Regs.empty()) {
    Regs.assign(NumRegisters, 0);
    Hist[0] = NumRegisters;
  }
  // The top Precision bits pick the register; the rank is the position
  // of the first set bit among the rest (MaxRank if they are all zero).
  uint64_t Rest = Hash << Precision;
  uint8_t Rank = Rest ? static_cast<uint8_t>(std::countl_zero(Rest) + 1)
                      : static_cast<uint8_t>(MaxRank);
  uint8_t &R = Regs[Hash >> (64 - Precision)];
  if (Rank <= R)
    return;
  --Hist[R];
  ++Hist[Rank];
  R = Rank;
}

double DistinctSketch::estimate() const {
  if (Regs.empty())
    return 0;
  constexpr double M = NumRegisters;
  double Sum = 0;
  for (unsigned R = 0; R <= MaxRank; ++R)
    if (Hist[R])
      Sum += std::ldexp(static_cast<double>(Hist[R]), -static_cast<int>(R));
  double Raw = 0.7213 / (1.0 + 1.079 / M) * M * M / Sum;
  // Small-range correction: below 2.5m the raw estimate is biased, and
  // linear counting over the empty registers is the better estimator.
  if (Raw <= 2.5 * M && Hist[0] != 0)
    return M * std::log(M / Hist[0]);
  return Raw;
}

//===----------------------------------------------------------------------===//
// Slot arrays
//===----------------------------------------------------------------------===//

template <typename EqFn>
const Table::Slot *Table::SlotArray::find(uint64_t H, EqFn Eq) const {
  if (Count == 0)
    return nullptr;
  size_t Mask = Slots.size() - 1;
  for (size_t I = H & Mask;; I = (I + 1) & Mask) {
    const Slot &S = Slots[I];
    if (S.Row == NoRow)
      return nullptr;
    if (S.Hash == H && Eq(S.Row))
      return &S;
  }
}

template <typename EqFn>
Table::Slot &Table::SlotArray::findOrInsert(uint64_t H, EqFn Eq) {
  size_t Mask = Slots.size() - 1;
  size_t I = H & Mask;
  if (!Slots.empty()) {
    for (; Slots[I].Row != NoRow; I = (I + 1) & Mask)
      if (Slots[I].Hash == H && Eq(Slots[I].Row))
        return Slots[I];
  }
  // A miss. Grow at 70% load — tiny tables start tiny, with 8 slots —
  // then claim the first empty slot of H's probe sequence.
  if ((Count + 1) * 10 > Slots.size() * 7) {
    size_t NewCap = std::max<size_t>(8, Slots.size() * 2);
    std::vector<Slot> Old = std::move(Slots);
    Slots.assign(NewCap, Slot());
    Mask = NewCap - 1;
    for (const Slot &S : Old) {
      if (S.Row == NoRow)
        continue;
      size_t J = S.Hash & Mask;
      while (Slots[J].Row != NoRow)
        J = (J + 1) & Mask;
      Slots[J] = S;
    }
    for (I = H & Mask; Slots[I].Row != NoRow; I = (I + 1) & Mask)
      ;
  }
  ++Count;
  Slots[I].Hash = H;
  return Slots[I];
}

//===----------------------------------------------------------------------===//
// Column hashing
//===----------------------------------------------------------------------===//

/// Hash of column values (a whole key, or an index's bound columns in
/// column order): one hashCombine per column over the handle's raw bits
/// with the kind folded into the top bits. Collisions only cost a column
/// compare.
static uint64_t projHash(std::span<const Value> Proj) {
  uint64_t H = 0x2545f4914f6cdd1dULL;
  for (Value V : Proj)
    H = hashCombine(H, V.rawBits() ^ (static_cast<uint64_t>(V.kind()) << 58));
  return H;
}

bool Table::projMatches(uint32_t Row, uint64_t Mask,
                        std::span<const Value> Proj) const {
  std::span<const Value> Key = rowKey(Row);
  size_t J = 0;
  for (uint64_t M = Mask; M; M &= M - 1)
    if (Key[std::countr_zero(M)] != Proj[J++])
      return false;
  return true;
}

//===----------------------------------------------------------------------===//
// Table
//===----------------------------------------------------------------------===//

void Table::addToIndex(Index &Ix, std::span<const Value> Key, uint32_t Id) {
  SmallVector<Value, 4> Cols;
  for (uint64_t M = Ix.Mask; M; M &= M - 1)
    Cols.push_back(Key[std::countr_zero(M)]);
  std::span<const Value> Proj(Cols.data(), Cols.size());
  Slot &S = Ix.Map.findOrInsert(projHash(Proj), [&](uint32_t Row) {
    return projMatches(Row, Ix.Mask, Proj);
  });
  if (S.Row == NoRow) {
    S.Row = Id;
    S.Bucket = static_cast<uint32_t>(Ix.Buckets.push_back(Bucket()));
  }
  Bucket &B = Ix.Buckets[S.Bucket];
  size_t OldCap = B.capacity();
  B.push_back(Id);
  if (B.capacity() != OldCap)
    Ix.PayloadBytes += (B.capacity() - OldCap) * sizeof(uint32_t);
  Ix.MaxBucket = std::max(Ix.MaxBucket, B.size());
  Ix.SumSquares += 2 * B.size() - 1; // (b + 1)² - b²
}

Table::JoinResult Table::join(Value KeyTuple, Value LatVal) {
  std::span<const Value> KeyElems = F.tupleElems(KeyTuple);
  uint64_t H = projHash(KeyElems);
  auto SameKey = [&](uint32_t Row) { return Rows[Row].Key == KeyTuple; };
  // ⊥ joins change nothing: an existing cell keeps its value (x ⊔ ⊥ = x)
  // and an absent one is not materialized.
  if (LatVal == Bot) {
    const Slot *S = Primary.find(H, SameKey);
    return {S ? S->Row : NoRow, false};
  }
  Slot &S = Primary.findOrInsert(H, SameKey);
  if (S.Row != NoRow) {
    Row &R = Rows[S.Row];
    Value Joined = Lat.lub(R.Lat, LatVal);
    assert(Lat.leq(R.Lat, Joined) && Lat.leq(LatVal, Joined) &&
           "lub not an upper bound; malformed lattice");
    if (Joined == R.Lat)
      return {S.Row, false};
    if (R.Lat == Bot)
      --NumTombstones; // tombstoned row revived in place
    R.Lat = Joined;
    return {S.Row, true};
  }
  // New cell: the claimed slot takes the new row id.
  uint32_t Id = static_cast<uint32_t>(Rows.size());
  S.Row = Id;
  Rows.push_back({KeyTuple, LatVal});
  // Keep the column sketches and existing secondary indexes in sync.
  for (unsigned I = 0; I < KeyArity; ++I)
    Sketches[I].add(KeyElems[I].hash());
  for (Index &Ix : Indexes)
    addToIndex(Ix, KeyElems, Id);
  return {Id, true};
}

void Table::resetRow(uint32_t Id) {
  assert(Id < Rows.size());
  Row &R = Rows[Id];
  if (R.Lat == Bot)
    return;
  R.Lat = Bot;
  ++NumTombstones;
}

uint32_t Table::lookupRow(std::span<const Value> Key) const {
  assert(Key.size() == KeyArity && "lookup key must bind every column");
  const Slot *S = Primary.find(projHash(Key), [&](uint32_t Row) {
    std::span<const Value> Stored = rowKey(Row);
    return std::equal(Stored.begin(), Stored.end(), Key.begin());
  });
  if (!S || Rows[S->Row].Lat == Bot)
    return NoRow;
  return S->Row;
}

const Value *Table::lookup(std::span<const Value> Key) const {
  uint32_t Row = lookupRow(Key);
  return Row == NoRow ? nullptr : &Rows[Row].Lat;
}

Table::Index *Table::findIndex(uint64_t Mask) {
  for (Index &Ix : Indexes)
    if (Ix.Mask == Mask)
      return &Ix;
  return nullptr;
}

const Table::Index *Table::findIndex(uint64_t Mask) const {
  for (const Index &Ix : Indexes)
    if (Ix.Mask == Mask)
      return &Ix;
  return nullptr;
}

Table::Index &Table::ensureIndex(uint64_t Mask) {
  if (Index *Ix = findIndex(Mask))
    return *Ix;
  Index &Ix = Indexes.emplace_back(Mask);
  for (uint32_t Id = 0; Id < Rows.size(); ++Id)
    addToIndex(Ix, rowKey(Id), Id);
  return Ix;
}

void Table::reserveIndex(uint64_t Mask) {
  if (!findIndex(Mask))
    Indexes.emplace_back(Mask);
}

void Table::fillIndex(uint64_t Mask) {
  Index *Ix = findIndex(Mask);
  assert(Ix && "index must be pre-created with reserveIndex");
  assert(Ix->Buckets.empty() && "index already built");
  // Ascending row order keeps every bucket ascending, the same layout
  // ensureIndex and incremental joins produce.
  for (uint32_t Id = 0; Id < Rows.size(); ++Id)
    addToIndex(*Ix, rowKey(Id), Id);
}

bool Table::hasIndex(uint64_t Mask) const { return findIndex(Mask); }

Table::IndexStats Table::statsOf(const Index &Ix) const {
  double Weighted = Rows.empty() ? 0.0
                                 : static_cast<double>(Ix.SumSquares) /
                                       static_cast<double>(Rows.size());
  return {Ix.Mask, Ix.Buckets.size(), Ix.MaxBucket, Weighted};
}

bool Table::indexStats(uint64_t Mask, IndexStats &Out) const {
  const Index *Ix = findIndex(Mask);
  if (!Ix)
    return false;
  Out = statsOf(*Ix);
  return true;
}

void Table::collectIndexStats(std::vector<IndexStats> &Out) const {
  for (const Index &Ix : Indexes)
    Out.push_back(statsOf(Ix));
}

const Table::Bucket &Table::probe(uint64_t BoundMask,
                                  std::span<const Value> Proj) {
  assert(BoundMask != 0 && "use a full scan for unbound probes");
  // Mirrors the solvers' Full computation; KeyArity > 63 never reaches a
  // probe (rejected by Program::validate), so the shift is defined.
  assert(KeyArity <= 63 && "unindexable key arity must be rejected earlier");
  assert(BoundMask != (KeyArity == 0 ? 0 : (uint64_t(1) << KeyArity) - 1) &&
         "use the primary map for fully bound probes");
  ensureIndex(BoundMask);
  return *probeExisting(BoundMask, Proj);
}

const Table::Bucket *
Table::probeExisting(uint64_t BoundMask, std::span<const Value> Proj) const {
  const Index *Ix = findIndex(BoundMask);
  if (!Ix)
    return nullptr;
  assert(Proj.size() == static_cast<size_t>(std::popcount(BoundMask)) &&
         "probe values must match the bound columns");
  const Slot *S = Ix->Map.find(projHash(Proj), [&](uint32_t Row) {
    return projMatches(Row, BoundMask, Proj);
  });
  return S ? &Ix->Buckets[S->Bucket] : &EmptyBucket;
}

size_t Table::memoryBytes() const {
  size_t Bytes = Rows.capacity() * sizeof(Row) + Primary.bytes();
  for (const DistinctSketch &S : Sketches)
    Bytes += S.memoryBytes();
  for (const Index &Ix : Indexes)
    Bytes += Ix.Map.bytes() + Ix.Buckets.memoryBytes() + Ix.PayloadBytes;
  return Bytes;
}
