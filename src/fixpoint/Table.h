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
/// Only stored rows own an interned key tuple (Row::Key). Every access
/// path — the primary map, the secondary indexes, probes and lookups —
/// works on raw column Values instead: a slot array keyed by one 64-bit
/// hash over the relevant columns, where a hash hit is confirmed by
/// comparing those columns of a stored row in place. Probing or looking
/// up a key therefore never interns anything, and neither does
/// maintaining an index when a row is joined in. Secondary indexes over
/// subsets of the key columns are created lazily from the bound-variable
/// patterns the solver encounters — the paper's automatic index selection
/// (§4.5) — and map each distinct projection to a bucket of row ids.
/// Buckets live in stable storage, so a bucket reference stays valid for
/// the table's lifetime while joins append to it.
///
/// Every key column also carries a DistinctSketch, so the cost-based
/// planner can price a probe on a column no index covers yet.
///
//===----------------------------------------------------------------------===//

#ifndef FLIX_FIXPOINT_TABLE_H
#define FLIX_FIXPOINT_TABLE_H

#include "runtime/Lattice.h"
#include "support/SegmentedVector.h"

#include <array>
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

  /// A secondary-index bucket: ids of the rows whose bound columns share
  /// one projection, in ascending order. Buckets only grow by appending.
  using Bucket = std::vector<uint32_t>;

  /// Returns the lattice value of the cell with key columns \p Key, or
  /// nullptr if the cell is absent (i.e. implicitly ⊥, including
  /// tombstoned rows). Interns nothing.
  const Value *lookup(std::span<const Value> Key) const;
  /// As above, for callers that already hold the interned key tuple.
  const Value *lookup(Value KeyTuple) const {
    return lookup(F.tupleElems(KeyTuple));
  }

  /// Returns the row id of the cell with key columns \p Key, or NoRow if
  /// absent (including tombstoned rows, which are logically ⊥). Interns
  /// nothing.
  uint32_t lookupRow(std::span<const Value> Key) const;
  /// As above, for callers that already hold the interned key tuple.
  uint32_t lookupRow(Value KeyTuple) const {
    return lookupRow(F.tupleElems(KeyTuple));
  }

  /// Probes the secondary index for \p BoundMask (bit i set = key column i
  /// bound), returning the bucket of rows whose bound columns equal
  /// \p Proj (the bound columns' values, in column order). Builds the
  /// index on first use. \p BoundMask must be neither empty nor full.
  ///
  /// The returned reference stays valid for the table's lifetime: later
  /// joins append to the bucket in place, and neither slot-array regrowth
  /// nor the creation of other indexes moves it. A miss returns a shared
  /// empty bucket that never grows.
  const Bucket &probe(uint64_t BoundMask, std::span<const Value> Proj);

  /// Read-only probe for concurrent readers (the parallel solver's
  /// workers): returns the bucket for \p BoundMask/\p Proj, an empty
  /// bucket if the index exists but has no such key, or nullptr if the
  /// index itself does not exist (callers fall back to a full scan).
  /// Never builds an index, so it is safe while other threads read the
  /// table — indexes must be prepared up front with prepareIndex() or
  /// reserveIndex() + fillIndex(). Same lifetime guarantee as probe().
  const Bucket *probeExisting(uint64_t BoundMask,
                              std::span<const Value> Proj) const;

  /// Eagerly creates the secondary index for \p BoundMask (a no-op if it
  /// already exists); used by index hints.
  void prepareIndex(uint64_t BoundMask) { ensureIndex(BoundMask); }

  /// Pre-creates an empty index for \p Mask (a no-op if one exists)
  /// WITHOUT scanning any rows, so that one concurrent fillIndex call per
  /// mask can later fill it while only touching its own Index object.
  void reserveIndex(uint64_t Mask);

  /// Fills the reserved, still-empty index for \p Mask from every row.
  /// Calls for distinct masks of the same table may run concurrently: each
  /// writes only its own pre-created Index object and otherwise reads the
  /// rows and the ValueFactory's (lock-free) tuple storage.
  void fillIndex(uint64_t Mask);

  /// Number of secondary indexes created so far (for stats/tests).
  size_t numIndexes() const { return Indexes.size(); }

  /// Whether a secondary index (possibly a still-empty reserved slot) on
  /// \p Mask exists. Used after a re-plan to build only missing indexes.
  bool hasIndex(uint64_t Mask) const;

  /// Cheap maintained statistics of one secondary index, read by the
  /// cost-based planner (Plan.cpp): the number of distinct projected keys,
  /// the largest bucket's row count, and the row-weighted mean bucket.
  /// All are maintained by addToIndex(), so reading them costs nothing.
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

  /// Approximate heap bytes used by rows, the primary map, indexes and
  /// sketches. Slot arrays and bucket storage are charged at their
  /// allocated capacity, and each bucket at its vector capacity, so the
  /// estimate does not drift low as tables and buckets grow.
  size_t memoryBytes() const;

private:
  /// One open-addressing slot: the 64-bit hash of the key columns it
  /// stands for, a row holding those columns (the compare target that
  /// confirms a hash hit), and — in secondary indexes — the bucket id.
  struct Slot {
    uint64_t Hash = 0;
    uint32_t Row = NoRow; ///< NoRow = empty slot
    uint32_t Bucket = 0;
  };

  /// Linear-probing slot array sized by load factor (power-of-two
  /// capacity, grown at 70% load, nothing allocated while empty). The
  /// stored hash decides nothing on its own: every hash hit is confirmed
  /// by the caller's column compare against Slot::Row.
  struct SlotArray {
    std::vector<Slot> Slots;
    size_t Count = 0;

    /// The slot whose row \p Eq accepts under hash \p H, or nullptr.
    template <typename EqFn> const Slot *find(uint64_t H, EqFn Eq) const;
    /// As find(), but on a miss claims the empty slot for \p H (growing
    /// first if needed) and returns it with Row == NoRow for the caller
    /// to fill.
    template <typename EqFn> Slot &findOrInsert(uint64_t H, EqFn Eq);
    size_t bytes() const { return Slots.capacity() * sizeof(Slot); }
  };

  struct Index {
    uint64_t Mask;
    SlotArray Map; ///< projection hash -> bucket id
    /// Bucket storage with stable addresses (see probe()); the small first
    /// segment keeps indexes of tiny tables tiny.
    SegmentedVector<Bucket, 2> Buckets;
    /// Capacity-aware byte estimate of the buckets' id payloads,
    /// maintained by addToIndex().
    size_t PayloadBytes = 0;
    /// Rows in the largest bucket and Σ bucket², maintained by addToIndex();
    /// read by indexStats() for the cost model.
    size_t MaxBucket = 0;
    uint64_t SumSquares = 0;

    explicit Index(uint64_t Mask) : Mask(Mask) {}
  };

  /// True if row \p Row's columns under \p Mask equal \p Proj.
  bool projMatches(uint32_t Row, uint64_t Mask,
                   std::span<const Value> Proj) const;

  /// Appends row \p Id (key columns \p Key) to its bucket in \p Ix.
  void addToIndex(Index &Ix, std::span<const Value> Key, uint32_t Id);
  IndexStats statsOf(const Index &Ix) const;
  Index &ensureIndex(uint64_t Mask);
  Index *findIndex(uint64_t Mask);
  const Index *findIndex(uint64_t Mask) const;

  unsigned KeyArity;
  const Lattice &Lat;
  ValueFactory &F;
  Value Bot;
  size_t NumTombstones = 0;

  std::vector<Row> Rows;
  SlotArray Primary; ///< whole-key hash -> row id
  std::vector<Index> Indexes;
  /// One per key column, updated only when join() appends a new row.
  std::vector<DistinctSketch> Sketches;
  static const Bucket EmptyBucket;
};

} // namespace flix

#endif // FLIX_FIXPOINT_TABLE_H
