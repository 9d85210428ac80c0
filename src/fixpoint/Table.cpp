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

const std::vector<uint32_t> Table::EmptyBucket;

// Estimated heap bytes of one map node of a bucket map (hash-map node
// header + key + vector object). Bucket *payload* is charged separately
// from vector capacity, so this only covers the fixed per-bucket part.
static constexpr size_t BucketNodeBytes =
    sizeof(Value) + sizeof(std::vector<uint32_t>) + 16;

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

void Table::Index::add(Value Proj, uint32_t Id) {
  auto [It, Inserted] = Buckets.try_emplace(Proj);
  if (Inserted)
    Bytes += BucketNodeBytes;
  std::vector<uint32_t> &B = It->second;
  size_t OldCap = B.capacity();
  B.push_back(Id);
  if (B.capacity() != OldCap)
    Bytes += (B.capacity() - OldCap) * sizeof(uint32_t);
  MaxBucket = std::max(MaxBucket, B.size());
  SumSquares += 2 * B.size() - 1; // (b + 1)² - b²
}

Table::JoinResult Table::join(Value KeyTuple, Value LatVal) {
  auto It = Primary.find(KeyTuple);
  if (It != Primary.end()) {
    Row &R = Rows[It->second];
    Value Joined = Lat.lub(R.Lat, LatVal);
    assert(Lat.leq(R.Lat, Joined) && Lat.leq(LatVal, Joined) &&
           "lub not an upper bound; malformed lattice");
    if (Joined == R.Lat)
      return {It->second, false};
    if (R.Lat == Bot)
      --NumTombstones; // tombstoned row revived in place
    R.Lat = Joined;
    return {It->second, true};
  }
  // New cell. ⊥ cells are not materialized.
  if (LatVal == Bot)
    return {NoRow, false};
  uint32_t Id = static_cast<uint32_t>(Rows.size());
  Rows.push_back({KeyTuple, LatVal});
  Primary.emplace(KeyTuple, Id);
  // Keep the column sketches and existing secondary indexes in sync.
  std::span<const Value> KeyElems = F.tupleElems(KeyTuple);
  for (unsigned I = 0; I < KeyArity; ++I)
    Sketches[I].add(KeyElems[I].hash());
  for (Index &Ix : Indexes)
    Ix.add(projectKey(KeyElems, Ix.Mask), Id);
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

const Value *Table::lookup(Value KeyTuple) const {
  auto It = Primary.find(KeyTuple);
  if (It == Primary.end() || Rows[It->second].Lat == Bot)
    return nullptr;
  return &Rows[It->second].Lat;
}

uint32_t Table::lookupRow(Value KeyTuple) const {
  auto It = Primary.find(KeyTuple);
  if (It == Primary.end() || Rows[It->second].Lat == Bot)
    return NoRow;
  return It->second;
}

Value Table::projectKey(std::span<const Value> KeyElems,
                        uint64_t Mask) const {
  SmallVector<Value, 4> Proj;
  for (unsigned I = 0; I < KeyArity; ++I)
    if (Mask & (uint64_t(1) << I))
      Proj.push_back(KeyElems[I]);
  return F.tuple(std::span<const Value>(Proj.data(), Proj.size()));
}

Table::Index *Table::findIndex(uint64_t Mask) {
  for (Index &Ix : Indexes)
    if (Ix.Mask == Mask)
      return &Ix;
  return nullptr;
}

Table::Index &Table::ensureIndex(uint64_t Mask) {
  if (Index *Ix = findIndex(Mask))
    return *Ix;
  Indexes.push_back(Index{Mask, {}, 0});
  Index &Ix = Indexes.back();
  for (uint32_t Id = 0; Id < Rows.size(); ++Id)
    Ix.add(projectKey(F.tupleElems(Rows[Id].Key), Mask), Id);
  return Ix;
}

void Table::buildPartialIndex(uint64_t Mask, uint32_t Begin, uint32_t End,
                              PartialIndex &Out) const {
  assert(End <= Rows.size());
  for (uint32_t Id = Begin; Id < End; ++Id)
    Out[projectKey(F.tupleElems(Rows[Id].Key), Mask)].push_back(Id);
}

void Table::reserveIndexSlots(std::span<const uint64_t> Masks) {
  for (uint64_t Mask : Masks)
    if (!findIndex(Mask))
      Indexes.push_back(Index{Mask, {}, 0});
}

void Table::buildIndexFromPartials(uint64_t Mask,
                                   std::span<PartialIndex> Parts) {
  Index *Ix = findIndex(Mask);
  assert(Ix && "slot must be pre-created with reserveIndexSlots");
  assert(Ix->Buckets.empty() && "index already built");
  // Size the bucket map once: the union's bucket count is at most the sum
  // of the partials' (and usually close to the largest partial's).
  size_t KeyEstimate = 0;
  for (const PartialIndex &P : Parts)
    KeyEstimate += P.size();
  Ix->Buckets.reserve(KeyEstimate);
  // Partials are ordered by row range and each partial's buckets hold
  // ascending ids, so appending in partial order keeps every merged
  // bucket ascending — the same layout ensureIndex produces.
  for (PartialIndex &P : Parts) {
    for (auto &[Proj, Ids] : P) {
      auto [It, Inserted] = Ix->Buckets.try_emplace(Proj);
      if (Inserted)
        Ix->Bytes += BucketNodeBytes;
      std::vector<uint32_t> &B = It->second;
      size_t OldCap = B.capacity();
      uint64_t OldSize = B.size();
      B.insert(B.end(), Ids.begin(), Ids.end());
      Ix->SumSquares += B.size() * B.size() - OldSize * OldSize;
      if (B.capacity() != OldCap)
        Ix->Bytes += (B.capacity() - OldCap) * sizeof(uint32_t);
      Ix->MaxBucket = std::max(Ix->MaxBucket, B.size());
    }
  }
}

bool Table::hasIndex(uint64_t Mask) const {
  for (const Index &Ix : Indexes)
    if (Ix.Mask == Mask)
      return true;
  return false;
}

Table::IndexStats Table::statsOf(const Index &Ix) const {
  double Weighted = Rows.empty() ? 0.0
                                 : static_cast<double>(Ix.SumSquares) /
                                       static_cast<double>(Rows.size());
  return {Ix.Mask, Ix.Buckets.size(), Ix.MaxBucket, Weighted};
}

bool Table::indexStats(uint64_t Mask, IndexStats &Out) const {
  for (const Index &Ix : Indexes) {
    if (Ix.Mask != Mask)
      continue;
    Out = statsOf(Ix);
    return true;
  }
  return false;
}

void Table::collectIndexStats(std::vector<IndexStats> &Out) const {
  for (const Index &Ix : Indexes)
    Out.push_back(statsOf(Ix));
}

const std::vector<uint32_t> &Table::probe(uint64_t BoundMask,
                                          Value ProjTuple) {
  assert(BoundMask != 0 && "use a full scan for unbound probes");
  // Mirrors the solvers' Full computation; KeyArity > 63 never reaches a
  // probe (rejected by Program::validate), so the shift is defined.
  assert(KeyArity <= 63 && "unindexable key arity must be rejected earlier");
  assert(BoundMask != (KeyArity == 0 ? 0 : (uint64_t(1) << KeyArity) - 1) &&
         "use the primary map for fully bound probes");
  Index &Ix = ensureIndex(BoundMask);
  auto It = Ix.Buckets.find(ProjTuple);
  return It == Ix.Buckets.end() ? EmptyBucket : It->second;
}

const std::vector<uint32_t> *Table::probeExisting(uint64_t BoundMask,
                                                  Value ProjTuple) const {
  for (const Index &Ix : Indexes) {
    if (Ix.Mask != BoundMask)
      continue;
    auto It = Ix.Buckets.find(ProjTuple);
    return It == Ix.Buckets.end() ? &EmptyBucket : &It->second;
  }
  return nullptr;
}

size_t Table::memoryBytes() const {
  size_t Bytes = Rows.capacity() * sizeof(Row);
  Bytes += Primary.size() * (sizeof(Value) + sizeof(uint32_t) + 16);
  for (const DistinctSketch &S : Sketches)
    Bytes += S.memoryBytes();
  for (const Index &Ix : Indexes) {
    Bytes += Ix.Bytes;
    // Hash-table array of the bucket map itself.
    Bytes += Ix.Buckets.bucket_count() * sizeof(void *);
  }
  return Bytes;
}
