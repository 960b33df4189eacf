#include "succinct/global_rank_table.hpp"

#include <array>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "util/bits.hpp"

namespace bwaver {

GlobalRankTable::GlobalRankTable(unsigned b) : b_(b) {
  const std::uint32_t universe = std::uint32_t{1} << b;
  permutations_.resize(universe);
  offset_of_.resize(universe);
  class_offsets_.assign(b + 1, 0);

  // Counting sort by class: first the class sizes / offsets...
  const BinomialTable& binom = BinomialTable::instance();
  std::uint32_t running = 0;
  for (unsigned c = 0; c <= b; ++c) {
    class_offsets_[c] = running;
    running += binom.choose(b, c);
  }
  // ...then place every block; ascending value order within a class falls
  // out of the ascending enumeration.
  std::vector<std::uint32_t> cursor(class_offsets_.begin(), class_offsets_.end());
  for (std::uint32_t value = 0; value < universe; ++value) {
    const unsigned c = static_cast<unsigned>(popcount64(value));
    const std::uint32_t index = cursor[c]++;
    permutations_[index] = static_cast<std::uint16_t>(value);
    offset_of_[value] = static_cast<std::uint16_t>(index - class_offsets_[c]);
  }

  // Host-side scan tables: offset width per 4-bit class field (0 past b),
  // and per class byte the packed sums of its two fields.
  for (unsigned c = 0; c < widths_.size(); ++c) {
    widths_[c] = static_cast<std::uint8_t>(binom.offset_width(b, c));
  }
  for (unsigned byte = 0; byte < pair_sums_.size(); ++byte) {
    const unsigned lo = byte & 15, hi = byte >> 4;
    pair_sums_[byte] = (lo + hi) | static_cast<std::uint64_t>(widths_[lo] + widths_[hi]) << 32;
  }
}

std::uint32_t GlobalRankTable::offset_of_by_search(std::uint16_t block) const noexcept {
  const unsigned c = static_cast<unsigned>(popcount64(block));
  const std::uint32_t begin = class_offsets_[c];
  const std::uint32_t end =
      c == b_ ? static_cast<std::uint32_t>(permutations_.size()) : class_offsets_[c + 1];
  for (std::uint32_t i = begin; i < end; ++i) {
    if (permutations_[i] == block) return i - begin;
  }
  return 0;  // unreachable: every b-bit value is in the table
}

const GlobalRankTable& GlobalRankTable::get(unsigned b) {
  if (b == 0 || b > kMaxBlockBits) {
    throw std::invalid_argument("GlobalRankTable: block size must be in [1, 15]");
  }
  static std::array<std::unique_ptr<GlobalRankTable>, kMaxBlockBits + 1> tables;
  static std::array<std::once_flag, kMaxBlockBits + 1> flags;
  std::call_once(flags[b], [b] { tables[b].reset(new GlobalRankTable(b)); });
  return *tables[b];
}

}  // namespace bwaver
