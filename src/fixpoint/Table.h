//===- fixpoint/Table.h - Lattice-aware indexed tables --------*- C++ -*-===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The indexed database backing the solver. A Table stores the compact
/// interpretation of one predicate: one row per §3.2 *cell* (key tuple),
/// carrying the cell's current lattice element. Joining a derived fact
/// into the table computes the per-cell least upper bound, maintaining
/// compactness; ⊥-valued cells are never materialized (see DESIGN.md).
///
/// Key tuples are interned in the ValueFactory, so the primary map and all
/// secondary indexes are Value → row maps with O(1) handle hashing.
/// Secondary indexes over subsets of the key columns are created lazily
/// from the bound-variable patterns the solver encounters — the paper's
/// automatic index selection (§4.5).
///
/// Every key column also carries a DistinctSketch, so the cost-based
/// planner can price a probe on a column no index covers yet.
///
//===----------------------------------------------------------------------===//

#ifndef FLIX_FIXPOINT_TABLE_H
#define FLIX_FIXPOINT_TABLE_H

#include "runtime/Lattice.h"

#include <array>
#include <unordered_map>
#include <vector>

namespace flix {

/// Distinct-count sketch of one column: HyperLogLog (Flajolet et al.,
/// 2007) with linear counting for small cardinalities. Insert-only, so
/// the estimate never decreases. It also does not depend on insertion
/// order: the registers are a max over the inserted hashes, and the
/// estimate is read off an exact histogram of register values. The
/// parallel engine's merge order therefore cannot perturb it.
class DistinctSketch {
public:
  /// 2^11 one-byte registers: standard error 1.04/sqrt(2048) ≈ 2.3%.
  /// Linear counting takes over below 2.5 × 2048 distinct values.
  static constexpr unsigned Precision = 11;
  static constexpr unsigned NumRegisters = 1u << Precision;

  /// Records one value by its (well-mixed) 64-bit hash.
  void add(uint64_t Hash);

  /// Estimated number of distinct hashes added (0 when none were).
  double estimate() const;

  size_t memoryBytes() const { return Regs.capacity(); }

private:
  static constexpr unsigned MaxRank = 64 - Precision + 1;
  std::vector<uint8_t> Regs; ///< allocated on the first add()
  /// Hist[r] = registers currently holding rank r.
  std::array<uint32_t, MaxRank + 1> Hist{};
};

/// One predicate's rows: compact map from key tuple to lattice element.
class Table {
public:
  struct Row {
    Value Key; ///< interned Tuple of the key columns
    Value Lat; ///< current lattice element of this cell
  };

  /// \p KeyArity key columns; \p Lat is the lattice of the value column
  /// (the BoolLattice for relational predicates). Key arities above 63
  /// cannot be indexed (bound-column masks are 64-bit); Program::validate
  /// rejects such predicates before any solver evaluates them, so a Table
  /// with KeyArity > 63 may be constructed but never probed or joined.
  Table(unsigned KeyArity, const Lattice &Lat, ValueFactory &F)
      : KeyArity(KeyArity), Lat(Lat), F(F), Bot(Lat.bot()),
        Sketches(KeyArity) {}

  unsigned keyArity() const { return KeyArity; }
  const Lattice &lattice() const { return Lat; }

  size_t size() const { return Rows.size(); }
  const Row &row(uint32_t Id) const { return Rows[Id]; }
  const std::vector<Row> &rows() const { return Rows; }

  /// The lattice's ⊥ element (cached; handle comparison against it is how
  /// tombstoned rows are recognized — hash-consing makes that exact).
  Value botValue() const { return Bot; }

  /// True if row \p Id has been reset to ⊥ by the incremental engine's
  /// over-delete pass. Tombstoned rows keep their id and stay in every
  /// index so they can be revived in place, but all lookups and the
  /// solvers' scan/probe paths treat them as absent.
  bool isTombstone(uint32_t Id) const { return Rows[Id].Lat == Bot; }

  /// Rows whose cell is currently present (size() minus tombstones).
  size_t liveSize() const { return Rows.size() - NumTombstones; }

  /// Resets row \p Id to ⊥ (the incremental over-delete). The row id stays
  /// valid and indexed; a later join() on its key revives it in place.
  void resetRow(uint32_t Id);

  /// Key columns of row \p Id.
  std::span<const Value> rowKey(uint32_t Id) const {
    return F.tupleElems(Rows[Id].Key);
  }

  /// Result of a join: the row id and whether the cell's value strictly
  /// increased (i.e. the row belongs in the next delta, §3.7).
  struct JoinResult {
    uint32_t RowId;
    bool Changed;
  };
  static constexpr uint32_t NoRow = UINT32_MAX;

  /// Joins (\p KeyTuple, \p LatVal) into the table: new cells are inserted,
  /// existing cells are updated to old ⊔ new. ⊥ values into absent cells
  /// are dropped (RowId == NoRow, Changed == false).
  JoinResult join(Value KeyTuple, Value LatVal);

  /// Returns the lattice value of the cell \p KeyTuple, or nullptr if the
  /// cell is absent (i.e. implicitly ⊥, including tombstoned rows).
  const Value *lookup(Value KeyTuple) const;

  /// Returns the row id of cell \p KeyTuple, or NoRow if absent (including
  /// tombstoned rows, which are logically ⊥).
  uint32_t lookupRow(Value KeyTuple) const;

  /// Probes the secondary index for \p BoundMask (bit i set = key column i
  /// bound), returning ids of rows whose bound columns equal \p ProjTuple
  /// (the interned tuple of the bound columns, in column order). Builds the
  /// index on first use. \p BoundMask must be neither empty nor full.
  const std::vector<uint32_t> &probe(uint64_t BoundMask, Value ProjTuple);

  /// Read-only probe for concurrent readers (the parallel solver's
  /// workers): returns the bucket for \p BoundMask/\p ProjTuple, an empty
  /// bucket if the index exists but has no such key, or nullptr if the
  /// index itself does not exist (callers fall back to a full scan).
  /// Never builds an index, so it is safe while other threads read the
  /// table — indexes must be prepared up front with prepareIndex().
  const std::vector<uint32_t> *probeExisting(uint64_t BoundMask,
                                             Value ProjTuple) const;

  /// Eagerly creates the secondary index for \p BoundMask (a no-op if it
  /// already exists); used by index hints.
  void prepareIndex(uint64_t BoundMask) { ensureIndex(BoundMask); }

  /// One worker's partial secondary index over a contiguous row range:
  /// projected bound-column tuple → ids of the range's matching rows, in
  /// ascending order.
  using PartialIndex = std::unordered_map<Value, std::vector<uint32_t>>;

  /// Scans rows [\p Begin, \p End) and appends each row id to the bucket
  /// of its \p Mask projection in \p Out. Read-only on the table, so any
  /// number of threads may build partials of the same table concurrently
  /// (with a concurrent-mode ValueFactory for the projection tuples).
  void buildPartialIndex(uint64_t Mask, uint32_t Begin, uint32_t End,
                         PartialIndex &Out) const;

  /// Pre-creates empty index slots for \p Masks (skipping ones that
  /// already exist) WITHOUT scanning any rows, so that one concurrent
  /// buildIndexFromPartials call per mask can later fill them while only
  /// touching its own Index object.
  void reserveIndexSlots(std::span<const uint64_t> Masks);

  /// Installs the secondary index for \p Mask by concatenating per-range
  /// partial buckets (\p Parts ordered by row range, as produced by
  /// buildPartialIndex over a partition of [0, size())). The slot must
  /// have been created by reserveIndexSlots and still be empty. Calls for
  /// distinct masks of the same table may run concurrently: each touches
  /// only its own pre-created Index object.
  void buildIndexFromPartials(uint64_t Mask, std::span<PartialIndex> Parts);

  /// Number of secondary indexes created so far (for stats/tests).
  size_t numIndexes() const { return Indexes.size(); }

  /// Whether a secondary index (possibly a still-empty reserved slot) on
  /// \p Mask exists. Used after a re-plan to build only missing indexes.
  bool hasIndex(uint64_t Mask) const;

  /// Cheap maintained statistics of one secondary index, read by the
  /// cost-based planner (Plan.cpp): the number of distinct projected keys,
  /// the largest bucket's row count, and the row-weighted mean bucket.
  /// All are maintained by add() and the partial-merge builder, so
  /// reading them costs nothing.
  struct IndexStats {
    uint64_t Mask;
    size_t Buckets;   ///< distinct projected keys (bucket count)
    size_t MaxBucket; ///< rows in the largest bucket
    /// Σ bucket² / rows: the mean size of the bucket holding a randomly
    /// chosen row. Equals rows / Buckets when buckets are even and grows
    /// with skew. 0 when unknown (hand-built statistics).
    double RowWeightedBucket = 0;
  };

  /// Statistics for the index on \p Mask, or false if no such index
  /// exists yet (the planner then falls back to an arity-based guess).
  bool indexStats(uint64_t Mask, IndexStats &Out) const;

  /// Appends statistics for every existing secondary index to \p Out.
  void collectIndexStats(std::vector<IndexStats> &Out) const;

  /// Estimated distinct values of key column \p Col over every row ever
  /// appended. Tombstoning does not lower it, and a revived row does not
  /// count twice. Reading it does not scan rows.
  double distinctEstimate(unsigned Col) const {
    return Sketches[Col].estimate();
  }

  /// Approximate heap bytes used by rows, indexes and sketches. Index
  /// cost is tracked at bucket-vector granularity including unused
  /// capacity from growth, so the estimate no longer drifts low as
  /// buckets grow.
  size_t memoryBytes() const;

private:
  struct Index {
    uint64_t Mask;
    std::unordered_map<Value, std::vector<uint32_t>> Buckets;
    /// Capacity-aware byte estimate of this index's buckets (vector
    /// capacity + per-bucket map-node overhead), maintained by add().
    size_t Bytes = 0;
    /// Rows in the largest bucket and Σ bucket², maintained by add() and
    /// the partial-merge builder; read by indexStats() for the cost model.
    size_t MaxBucket = 0;
    uint64_t SumSquares = 0;

    /// Appends \p Id to the bucket of \p Proj, keeping Bytes in sync with
    /// actual vector capacity growth.
    void add(Value Proj, uint32_t Id);
  };

  Value projectKey(std::span<const Value> KeyElems, uint64_t Mask) const;
  IndexStats statsOf(const Index &Ix) const;
  Index &ensureIndex(uint64_t Mask);
  Index *findIndex(uint64_t Mask);

  unsigned KeyArity;
  const Lattice &Lat;
  ValueFactory &F;
  Value Bot;
  size_t NumTombstones = 0;

  std::vector<Row> Rows;
  std::unordered_map<Value, uint32_t> Primary;
  std::vector<Index> Indexes;
  /// One per key column, updated only when join() appends a new row.
  std::vector<DistinctSketch> Sketches;
  static const std::vector<uint32_t> EmptyBucket;
};

} // namespace flix

#endif // FLIX_FIXPOINT_TABLE_H
