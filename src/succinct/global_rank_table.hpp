// Shared tables for RRR block decoding (paper, Sec. III-B / Fig. 3).
//
// For block size b, the "Global Rank Table" holds all 2^b possible blocks of
// b bits as 16-bit values, sorted first by class (number of 1s) and then in
// ascending numeric order. The "class offsets" array gives, for each class c,
// the index of the first block of that class inside the table. Both tables
// are stored once per process and shared among every RRR sequence with the
// same b — the paper notes this saves space when encoding all nodes of a
// wavelet tree.
//
// For construction we additionally keep the inverse mapping
// block value -> offset inside its class; the FPGA never needs it (encoding
// happens on the host), so it is not counted in the device memory model.
// The same holds for the two host-side scan tables: the per-class offset
// widths and the 256-entry pair table that lets the software rank sum two
// 4-bit class fields per lookup (the hardware sums them in an adder tree).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "util/binomial.hpp"

namespace bwaver {

class GlobalRankTable {
 public:
  /// Shared instance for block size `b` (1 <= b <= kMaxBlockBits).
  /// Thread-safe; built on first use.
  static const GlobalRankTable& get(unsigned b);

  unsigned block_bits() const noexcept { return b_; }

  /// Block bit pattern stored at `index` (index = class_offset(c) + offset).
  std::uint16_t permutation(std::uint32_t index) const noexcept {
    return permutations_[index];
  }

  /// Index in the permutation table of the first block with class `c`.
  std::uint32_t class_offset(unsigned c) const noexcept { return class_offsets_[c]; }

  /// Offset of `block` (a b-bit value) within its class, via the O(1)
  /// host-side inverse table.
  std::uint32_t offset_of(std::uint16_t block) const noexcept {
    return offset_of_[block];
  }

  /// Offset of `block` within its class by scanning the permutation table —
  /// what an implementation without the inverse table must do. Exposed so
  /// the Fig. 6 bench can reproduce the paper's build-time growth with b
  /// (the scan is O(C(b, c)) per block).
  std::uint32_t offset_of_by_search(std::uint16_t block) const noexcept;

  /// Width in bits of the offset field for class `c`: ceil(log2(C(b,c))),
  /// 0 for c > b. `c` must be a 4-bit class field (c < 16).
  unsigned offset_width(unsigned c) const noexcept { return widths_[c]; }

  /// Class sum and offset-width sum of one byte of the class array (two
  /// 4-bit class fields, low nibble first), packed as
  /// `classes | widths << 32`. A zero field is class 0 of width 0, so a
  /// scan may zero the fields it skips: they add nothing.
  const std::array<std::uint64_t, 256>& pair_sums() const noexcept { return pair_sums_; }

  /// Bytes the device-resident part occupies: 2^b 16-bit permutations plus
  /// b+1 32-bit class offsets. Matches the 2^{b+1} + 4(b+1) terms of the
  /// paper's size formula (the paper folds the "+4" into its constant).
  std::size_t device_size_in_bytes() const noexcept {
    return permutations_.size() * sizeof(std::uint16_t) +
           class_offsets_.size() * sizeof(std::uint32_t);
  }

 private:
  explicit GlobalRankTable(unsigned b);

  unsigned b_;
  std::vector<std::uint16_t> permutations_;   // 2^b entries, class-major
  std::vector<std::uint32_t> class_offsets_;  // b+1 entries
  std::vector<std::uint16_t> offset_of_;      // 2^b entries (host-only)
  std::array<std::uint8_t, 16> widths_{};     // per class field (host-only)
  std::array<std::uint64_t, 256> pair_sums_{};  // per class byte (host-only)
};

}  // namespace bwaver
