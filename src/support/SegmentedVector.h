//===- support/SegmentedVector.h - Stable-reference vector ----*- C++ -*-===//
//
// Part of flix-cpp, a C++ reproduction of "From Datalog to FLIX" (PLDI'16).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A growable sequence with *stable element references*: unlike
/// std::vector, growing a SegmentedVector never moves existing elements,
/// and unlike std::deque, reading an existing element never touches any
/// bookkeeping structure that an append mutates.
///
/// Storage is a fixed array of geometrically growing segments (segment k
/// holds BaseSize·2^k elements), so the per-element address computation is
/// two shifts and the segment-pointer array never reallocates. This is
/// what makes the concurrent hash-consing mode of ValueFactory sound:
/// appends are serialized by the caller (a shard mutex), while readers
/// dereference previously published indexes entirely lock-free — every
/// read is of memory written before the index escaped the shard lock, so
/// there is a happens-before edge and no data race.
///
//===----------------------------------------------------------------------===//

#ifndef FLIX_SUPPORT_SEGMENTEDVECTOR_H
#define FLIX_SUPPORT_SEGMENTEDVECTOR_H

#include <array>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstddef>
#include <memory>
#include <utility>

namespace flix {

/// Append-only segmented vector with stable references. Appends must be
/// externally synchronized; reads of already-published elements need no
/// synchronization (see file comment). The first segment holds 2^BaseBits
/// elements: large for the interning tables, small where many instances
/// each hold only a few elements (a table's index buckets).
template <typename T, size_t BaseBits = 10> class SegmentedVector {
  static constexpr size_t NumSegments = 40;

  /// Element I lives in segment K at offset I - (2^K - 1)·Base, where
  /// K = floor(log2(I/Base + 1)).
  static std::pair<size_t, size_t> locate(size_t I) {
    size_t J = (I >> BaseBits) + 1;
    size_t K = std::bit_width(J) - 1;
    size_t Start = ((size_t(1) << K) - 1) << BaseBits;
    return {K, I - Start};
  }
  static size_t segmentCapacity(size_t K) { return size_t(1) << (BaseBits + K); }

public:
  SegmentedVector() = default;
  SegmentedVector(SegmentedVector &&O)
      : Segments(std::move(O.Segments)),
        Count(O.Count.load(std::memory_order_relaxed)) {}

  // Count is release-published / acquire-read so size() is well-defined
  // even while another thread appends (the appends themselves must still
  // be serialized by the caller).
  size_t size() const { return Count.load(std::memory_order_acquire); }
  bool empty() const { return size() == 0; }

  const T &operator[](size_t I) const {
    assert(I < size() && "SegmentedVector index out of range");
    auto [K, Off] = locate(I);
    return Segments[K][Off];
  }
  T &operator[](size_t I) {
    assert(I < size() && "SegmentedVector index out of range");
    auto [K, Off] = locate(I);
    return Segments[K][Off];
  }

  const T &back() const { return (*this)[size() - 1]; }

  /// Appends \p V and returns its index. Single writer at a time; callers
  /// that share the vector must serialize appends.
  size_t push_back(T V) {
    size_t I = Count.load(std::memory_order_relaxed);
    auto [K, Off] = locate(I);
    if (Off == 0 && !Segments[K])
      Segments[K] = std::make_unique<T[]>(segmentCapacity(K));
    Segments[K][Off] = std::move(V);
    Count.store(I + 1, std::memory_order_release);
    return I;
  }

  /// Approximate heap bytes of the allocated segments (excluding any
  /// heap memory owned by the elements themselves).
  size_t memoryBytes() const {
    size_t Bytes = 0;
    for (size_t K = 0; K < NumSegments; ++K)
      if (Segments[K])
        Bytes += segmentCapacity(K) * sizeof(T);
    return Bytes;
  }

private:
  std::array<std::unique_ptr<T[]>, NumSegments> Segments;
  std::atomic<size_t> Count{0};
};

} // namespace flix

#endif // FLIX_SUPPORT_SEGMENTEDVECTOR_H
