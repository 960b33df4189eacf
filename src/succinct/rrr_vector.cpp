#include "succinct/rrr_vector.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/bits.hpp"

namespace bwaver {

RrrVector::RrrVector(const BitVector& bv, RrrParams params)
    : params_(params), n_(bv.size()) {
  const unsigned b = params.block_bits;
  const unsigned sf = params.superblock_factor;
  if (b == 0 || b > kMaxBlockBits) {
    throw std::invalid_argument("RrrVector: block_bits must be in [1, 15]");
  }
  if (sf == 0) {
    throw std::invalid_argument("RrrVector: superblock_factor must be >= 1");
  }
  table_ = &GlobalRankTable::get(b);

  const std::size_t num_blocks = div_ceil(n_, b);
  const std::size_t num_supers = div_ceil(num_blocks, sf);
  if (n_ > std::numeric_limits<std::uint32_t>::max() / 2) {
    throw std::length_error("RrrVector: sequence exceeds 32-bit counters");
  }

  classes_ = IntVector(num_blocks, 4);
  partial_sum_.assign(num_supers, 0);
  offset_sum_.assign(num_supers, 0);

  std::uint32_t running_ones = 0;
  for (std::size_t block = 0; block < num_blocks; ++block) {
    if (block % sf == 0) {
      const std::size_t super = block / sf;
      partial_sum_.mut(super) = running_ones;
      offset_sum_.mut(super) = static_cast<std::uint32_t>(offsets_.size());
    }
    const std::size_t bit_pos = block * b;
    const unsigned width = static_cast<unsigned>(
        bit_pos + b <= n_ ? b : n_ - bit_pos);
    const auto value = static_cast<std::uint16_t>(bv.get_bits(bit_pos, width));
    const unsigned cls = static_cast<unsigned>(popcount64(value));
    classes_.set(block, cls);
    const std::uint32_t offset = params.encode_mode == RrrEncodeMode::kInverseTable
                                     ? table_->offset_of(value)
                                     : table_->offset_of_by_search(value);
    offsets_.append_bits(offset, table_->offset_width(cls));
    running_ones += cls;
  }
  total_ones_ = running_ones;
}

namespace {

/// 4-bit class field `i` of the class array (16 fields per word, LSB first).
unsigned class_field(const std::uint64_t* words, std::size_t i) noexcept {
  return static_cast<unsigned>(words[i >> 4] >> ((i & 15) * 4)) & 15;
}

}  // namespace

RrrVector::ClassSums RrrVector::scan_classes(std::size_t first,
                                             std::size_t last) const noexcept {
  const std::uint64_t* words = classes_.words();
  const auto& pairs = table_->pair_sums();
  // Packed like the pair table: ones in the low 32 bits, offset bits above.
  // Neither half can carry: ones <= N < 2^31 and offset bits fit offset_sum.
  std::uint64_t sum = 0;
  // Every word holding a field of [first, last), with the fields outside
  // the range zeroed: a zero field is class 0, which adds nothing.
  const std::size_t end_word = (last + 15) >> 4;
  for (std::size_t w = first >> 4; w < end_word; ++w) {
    std::uint64_t word = words[w];
    if (w == (last >> 4)) word &= (std::uint64_t{1} << ((last & 15) * 4)) - 1;
    if (w == (first >> 4)) word >>= (first & 15) * 4;
    for (unsigned k = 0; k < 64; k += 8) sum += pairs[(word >> k) & 0xFF];
  }
  return {static_cast<std::size_t>(sum & 0xFFFFFFFFu), static_cast<std::size_t>(sum >> 32)};
}

std::uint16_t RrrVector::decode_block(std::size_t block,
                                      std::size_t offset_pos) const noexcept {
  const unsigned cls = class_field(classes_.words(), block);
  const std::uint64_t off = offsets_.get_bits(offset_pos, table_->offset_width(cls));
  return table_->permutation(table_->class_offset(cls) + static_cast<std::uint32_t>(off));
}

std::size_t RrrVector::rank1(std::size_t p) const noexcept {
  const unsigned b = params_.block_bits;
  const unsigned sf = params_.superblock_factor;
  // N < 2^31 (checked on construction): 32-bit division is enough.
  const std::uint32_t last_block = static_cast<std::uint32_t>(p) / b;
  const unsigned rem = static_cast<unsigned>(p) - last_block * b;
  const std::size_t super = last_block / sf;
  if (super >= partial_sum_.size()) {
    // Only reachable when p == size() lands exactly on a superblock
    // boundary (or the vector is empty).
    return total_ones_;
  }
  const ClassSums sums = scan_classes(super * sf, last_block);
  const std::size_t count = partial_sum_[super] + sums.ones;
  if (rem == 0) return count;
  const std::uint16_t value = decode_block(last_block, offset_sum_[super] + sums.offset_bits);
  return count + static_cast<std::size_t>(rank_in_word(value, rem));
}

std::pair<std::size_t, std::size_t> RrrVector::rank1_pair(
    std::size_t p1, std::size_t p2) const noexcept {
  const unsigned b = params_.block_bits;
  const unsigned sf = params_.superblock_factor;
  const std::uint32_t block1 = static_cast<std::uint32_t>(p1) / b;
  const std::uint32_t block2 = static_cast<std::uint32_t>(p2) / b;
  const std::size_t super = block1 / sf;
  if (p1 > p2 || super != block2 / sf || super >= partial_sum_.size()) {
    return {rank1(p1), rank1(p2)};
  }

  // One scan from the superblock start to block2, split at block1.
  const ClassSums head = scan_classes(super * sf, block1);
  const ClassSums gap = scan_classes(block1, block2);
  const std::size_t count1 = partial_sum_[super] + head.ones;
  const std::size_t offset_pos1 = offset_sum_[super] + head.offset_bits;

  const auto finish = [&](std::uint32_t block, std::size_t pos, std::size_t p,
                          std::size_t base) {
    const unsigned rem = static_cast<unsigned>(p) - block * b;
    if (rem == 0) return base;
    return base + static_cast<std::size_t>(rank_in_word(decode_block(block, pos), rem));
  };
  return {finish(block1, offset_pos1, p1, count1),
          finish(block2, offset_pos1 + gap.offset_bits, p2, count1 + gap.ones)};
}

bool RrrVector::access(std::size_t i) const noexcept {
  const unsigned b = params_.block_bits;
  const std::uint32_t block = static_cast<std::uint32_t>(i) / b;
  const std::size_t super = block / params_.superblock_factor;
  const std::size_t offset_pos =
      offset_sum_[super] +
      scan_classes(super * params_.superblock_factor, block).offset_bits;
  return (decode_block(block, offset_pos) >> (static_cast<unsigned>(i) - block * b)) & 1;
}

std::size_t RrrVector::select1(std::size_t k) const {
  if (k >= total_ones_) {
    throw std::out_of_range("RrrVector::select1: k >= number of ones");
  }
  const unsigned b = params_.block_bits;
  const unsigned sf = params_.superblock_factor;
  // Superblock with the largest partial sum <= k.
  std::size_t lo = 0, hi = partial_sum_.size() - 1;
  while (lo < hi) {
    const std::size_t mid = (lo + hi + 1) / 2;
    if (partial_sum_[mid] <= k) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  std::size_t remaining = k - partial_sum_[lo];
  std::size_t offset_pos = offset_sum_[lo];
  for (std::size_t block = lo * sf; block < classes_.size(); ++block) {
    const unsigned cls = static_cast<unsigned>(classes_.get(block));
    if (remaining < cls) {
      const std::uint16_t value = decode_block(block, offset_pos);
      return block * b +
             static_cast<std::size_t>(select_in_word(value, static_cast<unsigned>(remaining)));
    }
    remaining -= cls;
    offset_pos += table_->offset_width(cls);
  }
  throw std::out_of_range("RrrVector::select1: inconsistent structure");
}

std::size_t RrrVector::select0(std::size_t k) const {
  if (k >= n_ - total_ones_) {
    throw std::out_of_range("RrrVector::select0: k >= number of zeros");
  }
  const unsigned b = params_.block_bits;
  const unsigned sf = params_.superblock_factor;
  const std::size_t super_span = static_cast<std::size_t>(sf) * b;
  // Zeros before superblock s: bits before it minus ones before it (the
  // final superblock may be short, but it is never *before* a probe).
  auto zeros_before = [&](std::size_t s) {
    return std::min(s * super_span, n_) - partial_sum_[s];
  };
  std::size_t lo = 0, hi = partial_sum_.size() - 1;
  while (lo < hi) {
    const std::size_t mid = (lo + hi + 1) / 2;
    if (zeros_before(mid) <= k) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  std::size_t remaining = k - zeros_before(lo);
  std::size_t offset_pos = offset_sum_[lo];
  for (std::size_t block = lo * sf; block < classes_.size(); ++block) {
    const std::size_t bit_pos = block * b;
    const unsigned width = static_cast<unsigned>(bit_pos + b <= n_ ? b : n_ - bit_pos);
    const unsigned cls = static_cast<unsigned>(classes_.get(block));
    const unsigned zeros = width - cls;
    if (remaining < zeros) {
      const std::uint16_t value = decode_block(block, offset_pos);
      // Select within the inverted block, masked to its width.
      std::uint64_t inverted = ~static_cast<std::uint64_t>(value);
      inverted &= (width == 64) ? ~std::uint64_t{0} : ((std::uint64_t{1} << width) - 1);
      return bit_pos +
             static_cast<std::size_t>(select_in_word(inverted, static_cast<unsigned>(remaining)));
    }
    remaining -= zeros;
    offset_pos += table_->offset_width(cls);
  }
  throw std::out_of_range("RrrVector::select0: inconsistent structure");
}

std::size_t RrrVector::size_in_bytes() const noexcept {
  return classes_.size_in_bytes() + partial_sum_.bytes() + offset_sum_.bytes() +
         offsets_.size_in_bytes() + 3 * sizeof(std::uint32_t);  // N, b, sf
}

std::size_t RrrVector::heap_size_in_bytes() const noexcept {
  return classes_.heap_size_in_bytes() + partial_sum_.heap_bytes() +
         offset_sum_.heap_bytes() + offsets_.heap_size_in_bytes() +
         3 * sizeof(std::uint32_t);
}

void RrrVector::save(ByteWriter& writer) const {
  writer.u32(params_.block_bits);
  writer.u32(params_.superblock_factor);
  writer.u64(n_);
  writer.u64(total_ones_);
  classes_.save(writer);
  writer.vec_u32(partial_sum_);
  writer.vec_u32(offset_sum_);
  offsets_.save(writer);
}

RrrVector RrrVector::load(ByteReader& reader) {
  RrrVector rrr;
  rrr.params_.block_bits = reader.u32();
  rrr.params_.superblock_factor = reader.u32();
  if (rrr.params_.block_bits == 0 || rrr.params_.block_bits > kMaxBlockBits ||
      rrr.params_.superblock_factor == 0) {
    throw IoError("RrrVector::load: corrupt parameters");
  }
  rrr.n_ = reader.u64();
  rrr.total_ones_ = reader.u64();
  rrr.classes_ = IntVector::load(reader);
  rrr.partial_sum_ = reader.vec_u32();
  rrr.offset_sum_ = reader.vec_u32();
  rrr.offsets_ = BitVector::load(reader);
  rrr.table_ = &GlobalRankTable::get(rrr.params_.block_bits);
  return rrr;
}

void RrrVector::save_flat(ByteWriter& writer) const {
  writer.u32(params_.block_bits);
  writer.u32(params_.superblock_factor);
  writer.u64(n_);
  writer.u64(total_ones_);
  classes_.save_flat(writer);
  writer.u64(partial_sum_.size());
  writer.pad_to(64);
  writer.raw_u32(partial_sum_);
  writer.u64(offset_sum_.size());
  writer.pad_to(64);
  writer.raw_u32(offset_sum_);
  offsets_.save_flat(writer);
}

RrrVector RrrVector::load_flat(ByteReader& reader, bool adopt) {
  RrrVector rrr;
  rrr.params_.block_bits = reader.u32();
  rrr.params_.superblock_factor = reader.u32();
  if (rrr.params_.block_bits == 0 || rrr.params_.block_bits > kMaxBlockBits ||
      rrr.params_.superblock_factor == 0) {
    throw IoError("RrrVector::load_flat: corrupt parameters");
  }
  rrr.n_ = reader.u64();
  rrr.total_ones_ = reader.u64();
  rrr.classes_ = IntVector::load_flat(reader, adopt);
  const auto load_u32 = [&reader, adopt]() {
    const std::uint64_t count = reader.u64();
    reader.align_to(64);
    const auto values = reader.span_u32(count);
    return adopt ? FlatArray<std::uint32_t>::view_of(values)
                 : FlatArray<std::uint32_t>(
                       std::vector<std::uint32_t>(values.begin(), values.end()));
  };
  rrr.partial_sum_ = load_u32();
  rrr.offset_sum_ = load_u32();
  rrr.offsets_ = BitVector::load_flat(reader, adopt);
  rrr.table_ = &GlobalRankTable::get(rrr.params_.block_bits);
  return rrr;
}

double RrrVector::paper_size_in_bytes() const noexcept {
  const double b = params_.block_bits;
  const double sf = params_.superblock_factor;
  const double n = static_cast<double>(n_);
  const double lambda = static_cast<double>(offsets_.size());
  return (sf + 16.0) * n / (2.0 * sf * b) + std::pow(2.0, b + 1) + 4.0 * b + 7.0 +
         lambda / 8.0;
}

}  // namespace bwaver
