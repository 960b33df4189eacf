// RRR-encoded bit vector, following the paper's concrete layout (Sec. III-B,
// Fig. 3, Algorithm 1):
//
//   * `classes`      — ceil(N/b) 4-bit fields: ones-count of each b-bit block;
//   * `partial_sum`  — one 32-bit absolute rank per superblock boundary
//                      (a superblock spans sf blocks = sf*b bits);
//   * `offsets`      — a bit-vector of variable-width fields; block i's field
//                      is ceil(log2(C(b, class_i))) bits wide and holds the
//                      block's index within its class in the shared
//                      GlobalRankTable;
//   * `offset_sum`   — one 32-bit field per superblock: the bit position in
//                      `offsets` of the superblock's first block field;
//   * N, b, sf       — the three scalar parameters.
//
// rank1(p) costs O(sf): one superblock lookup plus a scan of at most sf
// class fields, plus a single Global-Rank-Table lookup for the trailing
// partial block. The hardware implementation turns the class scan into an
// adder tree; the software analogue here is table-driven: each lookup in the
// table's 256-entry pair table sums two class fields and their offset widths
// at once, so a scan reads each class word (16 fields) once and costs eight
// lookups per word.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "succinct/bitvector.hpp"
#include "succinct/global_rank_table.hpp"
#include "succinct/int_vector.hpp"
#include "util/flat_array.hpp"

namespace bwaver {

/// How the encoder maps a block value to its in-class offset.
enum class RrrEncodeMode {
  kInverseTable,  ///< O(1) host-side inverse table (default)
  kTableScan,     ///< O(C(b,c)) scan of the shared table — models encoders
                  ///< without the inverse table; build time grows with b,
                  ///< reproducing the paper's Fig. 6 trend
};

struct RrrParams {
  unsigned block_bits = 15;         ///< b, in [1, 15]
  unsigned superblock_factor = 50;  ///< sf, blocks per superblock, >= 1
  RrrEncodeMode encode_mode = RrrEncodeMode::kInverseTable;
};

class RrrVector {
 public:
  RrrVector() = default;

  /// Encodes `bv`. Throws std::invalid_argument for out-of-range parameters
  /// and std::length_error if the vector exceeds the 32-bit superblock
  /// counters (the paper caps references at ~100 Mbp for the same reason).
  RrrVector(const BitVector& bv, RrrParams params);

  std::size_t size() const noexcept { return n_; }
  unsigned block_bits() const noexcept { return params_.block_bits; }
  unsigned superblock_factor() const noexcept { return params_.superblock_factor; }

  /// Number of 1s in B[0, p), p in [0, size()].
  std::size_t rank1(std::size_t p) const noexcept;
  std::size_t rank0(std::size_t p) const noexcept { return p - rank1(p); }

  /// rank1 at both ends of an interval, p1 <= p2. When both positions fall
  /// in the same superblock (the common case for the narrow SA intervals of
  /// a backward search past its first steps) the O(sf) class scan is paid
  /// once instead of twice; otherwise falls back to two rank1 calls.
  std::pair<std::size_t, std::size_t> rank1_pair(std::size_t p1,
                                                 std::size_t p2) const noexcept;

  /// Bit at position i, decoded from the class/offset pair.
  bool access(std::size_t i) const noexcept;

  /// Position of the (k+1)-th 1-bit (0-based k); O(log n + sf). Throws
  /// std::out_of_range when k >= ones().
  std::size_t select1(std::size_t k) const;

  /// Position of the (k+1)-th 0-bit.
  std::size_t select0(std::size_t k) const;

  /// Total number of 1s.
  std::size_t ones() const noexcept { return total_ones_; }

  /// Payload bytes of the per-instance arrays (classes, partial sums,
  /// offset bits, offset sums, scalars); excludes the shared tables.
  std::size_t size_in_bytes() const noexcept;

  /// Bytes of those arrays actually on the heap — ~0 when the vector was
  /// adopted from a memory-mapped archive (load_flat with adopt=true).
  std::size_t heap_size_in_bytes() const noexcept;

  /// The paper's closed-form size estimate in bytes:
  ///   (sf+16)N/(2*sf*b) + 2^{b+1} + 4b + 7 + lambda/8
  /// where lambda is the total offset-field length in bits. The 2^{b+1}+4b+7
  /// tail counts the shared tables and scalars once.
  double paper_size_in_bytes() const noexcept;

  /// Total offset bit-vector length lambda in bits.
  std::size_t offset_bits() const noexcept { return offsets_.size(); }

  /// Number of b-bit blocks / superblocks.
  std::size_t num_blocks() const noexcept { return classes_.size(); }
  std::size_t num_superblocks() const noexcept { return partial_sum_.size(); }

  const GlobalRankTable& table() const noexcept { return *table_; }

  /// Binary (de)serialization; the shared Global Rank Table is re-attached
  /// (not stored) on load.
  void save(ByteWriter& writer) const;
  static RrrVector load(ByteReader& reader);

  /// Flat 64-byte-aligned layout (archive format v3); adopt=true borrows all
  /// arrays from the reader's backing buffer. The shared Global Rank Table
  /// is re-attached either way.
  void save_flat(ByteWriter& writer) const;
  static RrrVector load_flat(ByteReader& reader, bool adopt);

 private:
  /// Ones and offset-field bits of blocks [first, last), first <= last.
  struct ClassSums {
    std::size_t ones;
    std::size_t offset_bits;
  };
  ClassSums scan_classes(std::size_t first, std::size_t last) const noexcept;

  /// b-bit value of `block`, whose offset field starts at `offset_pos`.
  std::uint16_t decode_block(std::size_t block, std::size_t offset_pos) const noexcept;

  RrrParams params_{};
  std::size_t n_ = 0;
  std::size_t total_ones_ = 0;
  IntVector classes_;                       // 4-bit class per block
  FlatArray<std::uint32_t> partial_sum_;    // per superblock
  FlatArray<std::uint32_t> offset_sum_;     // per superblock
  BitVector offsets_;                       // variable-width offset fields
  const GlobalRankTable* table_ = nullptr;
};

}  // namespace bwaver
