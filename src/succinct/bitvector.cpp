#include "succinct/bitvector.hpp"

namespace bwaver {

BitVector::BitVector(std::size_t n, bool value) : size_(n) {
  words_.assign((n + 63) / 64, value ? ~std::uint64_t{0} : 0);
  if (value && (n & 63) != 0) {
    // Clear the bits beyond size so count_ones() stays exact.
    words_.mut(words_.size() - 1) &= (std::uint64_t{1} << (n & 63)) - 1;
  }
}

void BitVector::push_back(bool bit) {
  if ((size_ & 63) == 0) words_.push_back(0);
  if (bit) words_.mut(size_ >> 6) |= std::uint64_t{1} << (size_ & 63);
  ++size_;
}

void BitVector::append_bits(std::uint64_t bits, unsigned width) {
  if (width == 0) return;
  if (width < 64) bits &= (std::uint64_t{1} << width) - 1;
  const unsigned in_word = size_ & 63;
  if (in_word == 0) words_.push_back(0);
  words_.mut(size_ >> 6) |= bits << in_word;
  const unsigned fit = 64 - in_word;
  if (width > fit) {
    words_.push_back(bits >> fit);
  }
  size_ += width;
}

std::size_t BitVector::count_ones() const noexcept {
  std::size_t total = 0;
  for (std::uint64_t word : words_) total += static_cast<std::size_t>(popcount64(word));
  return total;
}

std::size_t BitVector::rank1_linear(std::size_t p) const noexcept {
  std::size_t total = 0;
  const std::size_t full_words = p >> 6;
  for (std::size_t w = 0; w < full_words; ++w) {
    total += static_cast<std::size_t>(popcount64(words_[w]));
  }
  const unsigned rem = p & 63;
  if (rem != 0) {
    total += static_cast<std::size_t>(rank_in_word(words_[full_words], rem));
  }
  return total;
}

void BitVector::save(ByteWriter& writer) const {
  writer.u64(size_);
  for (std::uint64_t word : words_) writer.u64(word);
}

BitVector BitVector::load(ByteReader& reader) {
  BitVector bv;
  bv.size_ = reader.u64();
  std::vector<std::uint64_t> words((bv.size_ + 63) / 64);
  for (auto& word : words) word = reader.u64();
  bv.words_ = std::move(words);
  return bv;
}

void BitVector::save_flat(ByteWriter& writer) const {
  writer.u64(size_);
  writer.pad_to(64);
  writer.raw_u64(words_);
}

BitVector BitVector::load_flat(ByteReader& reader, bool adopt) {
  BitVector bv;
  bv.size_ = reader.u64();
  reader.align_to(64);
  const auto words = reader.span_u64((bv.size_ + 63) / 64);
  if (adopt) {
    bv.words_ = FlatArray<std::uint64_t>::view_of(words);
  } else {
    bv.words_ = std::vector<std::uint64_t>(words.begin(), words.end());
  }
  return bv;
}

bool BitVector::operator==(const BitVector& other) const noexcept {
  if (size_ != other.size_) return false;
  for (std::size_t w = 0; w < words_.size(); ++w) {
    if (words_[w] != other.words_[w]) return false;
  }
  return true;
}

}  // namespace bwaver
