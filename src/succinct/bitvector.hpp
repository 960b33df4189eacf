// Plain uncompressed bit vector backed by 64-bit words, with append and
// random access. This is the construction-time representation from which the
// RRR sequence and the plain rank baseline are built.
//
// The word storage is a FlatArray: archive format v3 can adopt the words
// in place from a memory-mapped file (load_flat with adopt=true), in which
// case the vector is a read-only view and heap_size_in_bytes() is ~0.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "io/byte_io.hpp"
#include "util/bits.hpp"
#include "util/flat_array.hpp"

namespace bwaver {

class BitVector {
 public:
  BitVector() = default;

  /// Creates a vector of `n` bits, all set to `value`.
  explicit BitVector(std::size_t n, bool value = false);

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  bool get(std::size_t i) const noexcept {
    return (words_[i >> 6] >> (i & 63)) & 1;
  }
  bool operator[](std::size_t i) const noexcept { return get(i); }

  void set(std::size_t i, bool value) {
    const std::uint64_t mask = std::uint64_t{1} << (i & 63);
    if (value) {
      words_.mut(i >> 6) |= mask;
    } else {
      words_.mut(i >> 6) &= ~mask;
    }
  }

  /// Appends one bit.
  void push_back(bool bit);

  /// Appends the `width` low-order bits of `bits`, LSB first (width <= 64).
  void append_bits(std::uint64_t bits, unsigned width);

  /// Reads `width` bits starting at bit position `pos`, LSB first
  /// (width <= 64, pos + width <= size()).
  std::uint64_t get_bits(std::size_t pos, unsigned width) const noexcept {
    if (width == 0) return 0;
    const std::size_t word = pos >> 6;
    const unsigned shift = pos & 63;
    std::uint64_t value = words_[word] >> shift;
    if (shift + width > 64) {
      value |= words_[word + 1] << (64 - shift);
    }
    if (width < 64) value &= (std::uint64_t{1} << width) - 1;
    return value;
  }

  /// Number of 1s in the whole vector (linear scan).
  std::size_t count_ones() const noexcept;

  /// Number of 1s in [0, p) by linear word scan — the brute-force oracle
  /// used when no rank structure is attached.
  std::size_t rank1_linear(std::size_t p) const noexcept;

  const std::uint64_t* words() const noexcept { return words_.data(); }
  std::size_t word_count() const noexcept { return words_.size(); }

  /// Payload bytes (wherever they live — heap or mapped archive).
  std::size_t size_in_bytes() const noexcept { return words_.bytes(); }

  /// Bytes actually charged to the heap (0 for a mapped view).
  std::size_t heap_size_in_bytes() const noexcept { return words_.heap_bytes(); }

  bool operator==(const BitVector& other) const noexcept;

  /// Binary (de)serialization (element-wise, archive formats v1/v2).
  void save(ByteWriter& writer) const;
  static BitVector load(ByteReader& reader);

  /// Flat 64-byte-aligned layout (archive format v3). With adopt=true the
  /// words are borrowed from the reader's backing buffer instead of copied;
  /// the caller must keep that buffer alive.
  void save_flat(ByteWriter& writer) const;
  static BitVector load_flat(ByteReader& reader, bool adopt);

 private:
  FlatArray<std::uint64_t> words_;
  std::size_t size_ = 0;
};

}  // namespace bwaver
