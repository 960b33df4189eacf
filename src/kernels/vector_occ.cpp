#include "kernels/vector_occ.hpp"

#include <algorithm>

namespace bwaver {

VectorOcc::VectorOcc(std::span<const std::uint8_t> bwt,
                     const kernels::RankKernel* kernel)
    : n_(bwt.size()), kernel_(kernel != nullptr ? kernel : &kernels::active_kernel()) {
  const std::size_t data_blocks = (n_ + kBasesPerBlock - 1) / kBasesPerBlock;
  blocks_.assign(data_blocks + 1, Block{});
  std::array<std::uint32_t, 4> running{};
  for (std::size_t b = 0; b < data_blocks; ++b) {
    Block& block = blocks_[b];
    block.cum = running;
    const std::size_t base = b * kBasesPerBlock;
    const std::size_t count = std::min<std::size_t>(kBasesPerBlock, n_ - base);
    for (std::size_t k = 0; k < count; ++k) {
      const std::uint8_t code = bwt[base + k] & 3;
      block.words[k >> 5] |= static_cast<std::uint64_t>(code) << ((k & 31) * 2);
      ++running[code];
    }
  }
  blocks_[data_blocks].cum = running;
}

std::size_t VectorOcc::rank(std::uint8_t c, std::size_t i) const noexcept {
  // Prefixes never reach into a block's zero padding: i <= n_ caps off at
  // the block's occupied bases, so padding can't be miscounted as code 0.
  const std::size_t b = i / kBasesPerBlock;
  const Block& block = blocks_[b];
  return block.cum[c] +
         kernel_->count_block_prefix(block.words.data(),
                                     static_cast<unsigned>(i % kBasesPerBlock), c);
}

std::pair<std::size_t, std::size_t> VectorOcc::rank2(std::uint8_t c, std::size_t i1,
                                                     std::size_t i2) const noexcept {
  const std::size_t r1 = rank(c, i1);
  if (i1 == i2) return {r1, r1};
  const std::size_t b1 = i1 / kBasesPerBlock;
  if (b1 != i2 / kBasesPerBlock) return {r1, rank(c, i2)};
  // Same block: the line is already hot, the second answer is one more
  // prefix count off the shared checkpoint.
  return {r1, blocks_[b1].cum[c] +
                  kernel_->count_block_prefix(
                      blocks_[b1].words.data(),
                      static_cast<unsigned>(i2 % kBasesPerBlock), c)};
}

void VectorOcc::save(ByteWriter& writer) const {
  writer.u64(n_);
  for (const Block& block : blocks_) {
    for (std::uint32_t count : block.cum) writer.u32(count);
    for (std::uint64_t word : block.words) writer.u64(word);
  }
}

VectorOcc VectorOcc::load(ByteReader& reader) {
  VectorOcc occ;
  occ.n_ = reader.u64();
  occ.kernel_ = &kernels::active_kernel();
  const std::size_t data_blocks = (occ.n_ + kBasesPerBlock - 1) / kBasesPerBlock;
  occ.blocks_.resize(data_blocks + 1);
  for (Block& block : occ.blocks_) {
    for (std::uint32_t& count : block.cum) count = reader.u32();
    for (std::uint64_t& word : block.words) word = reader.u64();
  }
  return occ;
}

}  // namespace bwaver
