// Fixed-width packed integer vector: n integers of `width` bits each,
// densely packed into 64-bit words. Used for the 4-bit RRR class array and
// for sampled suffix-array values.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "io/byte_io.hpp"
#include "util/flat_array.hpp"

namespace bwaver {

class IntVector {
 public:
  IntVector() = default;

  /// n entries of `width` bits (1 <= width <= 64), zero-initialized.
  IntVector(std::size_t n, unsigned width);

  std::size_t size() const noexcept { return size_; }
  unsigned width() const noexcept { return width_; }
  bool empty() const noexcept { return size_ == 0; }

  std::uint64_t get(std::size_t i) const noexcept;
  void set(std::size_t i, std::uint64_t value);

  std::uint64_t operator[](std::size_t i) const noexcept { return get(i); }

  /// The packed words, LSB-first: entry i starts at bit i * width().
  const std::uint64_t* words() const noexcept { return words_.data(); }

  /// Payload bytes (wherever they live — heap or mapped archive).
  std::size_t size_in_bytes() const noexcept { return words_.bytes(); }

  /// Bytes actually charged to the heap (0 for a mapped view).
  std::size_t heap_size_in_bytes() const noexcept { return words_.heap_bytes(); }

  void save(ByteWriter& writer) const;
  static IntVector load(ByteReader& reader);

  /// Flat 64-byte-aligned layout (archive format v3); adopt=true borrows the
  /// words from the reader's backing buffer instead of copying them.
  void save_flat(ByteWriter& writer) const;
  static IntVector load_flat(ByteReader& reader, bool adopt);

 private:
  FlatArray<std::uint64_t> words_;
  std::size_t size_ = 0;
  unsigned width_ = 0;
};

}  // namespace bwaver
