#include "succinct/rrr_vector.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "io/byte_io.hpp"
#include "succinct/global_rank_table.hpp"
#include "test_util.hpp"
#include "util/bits.hpp"

namespace bwaver {
namespace {

// ------------------------------------------------------- GlobalRankTable

TEST(GlobalRankTable, RejectsInvalidBlockSize) {
  EXPECT_THROW(GlobalRankTable::get(0), std::invalid_argument);
  EXPECT_THROW(GlobalRankTable::get(16), std::invalid_argument);
}

TEST(GlobalRankTable, SharedPerBlockSize) {
  EXPECT_EQ(&GlobalRankTable::get(15), &GlobalRankTable::get(15));
  EXPECT_NE(&GlobalRankTable::get(7), &GlobalRankTable::get(8));
}

class GlobalRankTableParam : public ::testing::TestWithParam<unsigned> {};

TEST_P(GlobalRankTableParam, PermutationsSortedByClassThenValue) {
  const unsigned b = GetParam();
  const auto& table = GlobalRankTable::get(b);
  const std::uint32_t universe = 1u << b;
  std::uint16_t prev = 0;
  unsigned prev_class = 0;
  for (std::uint32_t i = 0; i < universe; ++i) {
    const std::uint16_t value = table.permutation(i);
    const unsigned cls = static_cast<unsigned>(popcount64(value));
    if (i > 0) {
      ASSERT_GE(cls, prev_class);
      if (cls == prev_class) {
        ASSERT_GT(value, prev);
      }
    }
    prev = value;
    prev_class = cls;
  }
}

TEST_P(GlobalRankTableParam, ClassOffsetsMatchBinomials) {
  const unsigned b = GetParam();
  const auto& table = GlobalRankTable::get(b);
  const auto& binom = BinomialTable::instance();
  std::uint32_t running = 0;
  for (unsigned c = 0; c <= b; ++c) {
    ASSERT_EQ(table.class_offset(c), running);
    running += binom.choose(b, c);
  }
  ASSERT_EQ(running, 1u << b);
}

TEST_P(GlobalRankTableParam, OffsetOfInvertsPermutation) {
  const unsigned b = GetParam();
  const auto& table = GlobalRankTable::get(b);
  const std::uint32_t universe = 1u << b;
  for (std::uint32_t value = 0; value < universe; ++value) {
    const unsigned cls = static_cast<unsigned>(popcount64(value));
    const std::uint32_t index = table.class_offset(cls) + table.offset_of(
        static_cast<std::uint16_t>(value));
    ASSERT_EQ(table.permutation(index), value);
  }
}

TEST_P(GlobalRankTableParam, SearchOffsetMatchesInverseTable) {
  const unsigned b = GetParam();
  const auto& table = GlobalRankTable::get(b);
  const std::uint32_t universe = 1u << b;
  // Exhaustive for small b, strided for b=15 to stay fast.
  const std::uint32_t stride = b >= 14 ? 37 : 1;
  for (std::uint32_t value = 0; value < universe; value += stride) {
    ASSERT_EQ(table.offset_of_by_search(static_cast<std::uint16_t>(value)),
              table.offset_of(static_cast<std::uint16_t>(value)))
        << "value=" << value;
  }
}

TEST_P(GlobalRankTableParam, DeviceBytesFormula) {
  const unsigned b = GetParam();
  const auto& table = GlobalRankTable::get(b);
  EXPECT_EQ(table.device_size_in_bytes(), (std::size_t{2} << b) + 4 * (b + 1));
}

TEST(GlobalRankTable, PairSumsMatchBinomialWidthsForEveryBlockSize) {
  const auto& binom = BinomialTable::instance();
  for (unsigned b = 1; b <= kMaxBlockBits; ++b) {
    const auto& table = GlobalRankTable::get(b);
    for (unsigned c = 0; c < 16; ++c) {
      ASSERT_EQ(table.offset_width(c), binom.offset_width(b, c)) << "b=" << b << " c=" << c;
    }
    for (unsigned byte = 0; byte < 256; ++byte) {
      const unsigned lo = byte & 15, hi = byte >> 4;
      const std::uint64_t want =
          (lo + hi) |
          std::uint64_t{binom.offset_width(b, lo) + binom.offset_width(b, hi)} << 32;
      ASSERT_EQ(table.pair_sums()[byte], want) << "b=" << b << " byte=" << byte;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, GlobalRankTableParam,
                         ::testing::Values(1u, 2u, 4u, 7u, 8u, 12u, 15u));

// ------------------------------------------------------------ RrrVector

TEST(RrrVector, RejectsInvalidParams) {
  const BitVector bv = testing::random_bits(100, 0.5, 1);
  EXPECT_THROW(RrrVector(bv, RrrParams{0, 50}), std::invalid_argument);
  EXPECT_THROW(RrrVector(bv, RrrParams{16, 50}), std::invalid_argument);
  EXPECT_THROW(RrrVector(bv, RrrParams{15, 0}), std::invalid_argument);
}

struct RrrCase {
  std::size_t size;
  double density;
  unsigned b;
  unsigned sf;
};

void PrintTo(const RrrCase& c, std::ostream* os) {
  *os << "n=" << c.size << " d=" << c.density << " b=" << c.b << " sf=" << c.sf;
}

class RrrParamTest : public ::testing::TestWithParam<RrrCase> {};

TEST_P(RrrParamTest, RankMatchesLinearOracle) {
  const auto& c = GetParam();
  const BitVector bv = testing::random_bits(c.size, c.density, c.size + c.b * 1000 + c.sf);
  const RrrVector rrr(bv, RrrParams{c.b, c.sf});
  ASSERT_EQ(rrr.size(), c.size);
  for (std::size_t p = 0; p <= c.size; ++p) {
    ASSERT_EQ(rrr.rank1(p), bv.rank1_linear(p)) << "p=" << p;
  }
  EXPECT_EQ(rrr.ones(), bv.count_ones());
}

TEST_P(RrrParamTest, AccessMatchesOriginal) {
  const auto& c = GetParam();
  const BitVector bv = testing::random_bits(c.size, c.density, c.size * 3 + c.b);
  const RrrVector rrr(bv, RrrParams{c.b, c.sf});
  for (std::size_t i = 0; i < c.size; ++i) {
    ASSERT_EQ(rrr.access(i), bv.get(i)) << "i=" << i;
  }
}

TEST_P(RrrParamTest, Rank0Complements) {
  const auto& c = GetParam();
  const BitVector bv = testing::random_bits(c.size, c.density, c.size + 17);
  const RrrVector rrr(bv, RrrParams{c.b, c.sf});
  for (std::size_t p = 0; p <= c.size; p += 3) {
    ASSERT_EQ(rrr.rank0(p) + rrr.rank1(p), p);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RrrParamTest,
    ::testing::Values(
        // Tiny vectors and extreme parameters.
        RrrCase{1, 0.5, 1, 1}, RrrCase{1, 0.5, 15, 50}, RrrCase{14, 0.5, 15, 50},
        RrrCase{15, 0.5, 15, 1}, RrrCase{16, 0.5, 15, 1},
        // Block/superblock boundary alignments (size multiples of b*sf).
        RrrCase{15 * 50, 0.5, 15, 50}, RrrCase{15 * 50 + 1, 0.5, 15, 50},
        RrrCase{15 * 50 - 1, 0.5, 15, 50},
        // Parameter sweep at moderate size.
        RrrCase{3000, 0.5, 3, 2}, RrrCase{3000, 0.5, 7, 5}, RrrCase{3000, 0.5, 8, 64},
        RrrCase{3000, 0.5, 15, 50}, RrrCase{3000, 0.5, 15, 100},
        RrrCase{3000, 0.5, 15, 200}, RrrCase{3000, 0.5, 4, 1},
        // Density extremes.
        RrrCase{5000, 0.0, 15, 50}, RrrCase{5000, 1.0, 15, 50},
        RrrCase{5000, 0.01, 15, 50}, RrrCase{5000, 0.99, 15, 50},
        RrrCase{5000, 0.25, 5, 10}));

TEST(RrrVector, EmptyVector) {
  BitVector bv;
  const RrrVector rrr(bv, RrrParams{15, 50});
  EXPECT_EQ(rrr.size(), 0u);
  EXPECT_EQ(rrr.rank1(0), 0u);
  EXPECT_EQ(rrr.ones(), 0u);
}

TEST(RrrVector, DefaultConstructedIsEmpty) {
  RrrVector rrr;
  EXPECT_EQ(rrr.size(), 0u);
}

TEST(RrrVector, BlockAndSuperblockCounts) {
  const BitVector bv = testing::random_bits(15 * 50 * 3 + 7, 0.5, 11);
  const RrrVector rrr(bv, RrrParams{15, 50});
  EXPECT_EQ(rrr.num_blocks(), div_ceil(bv.size(), 15));
  EXPECT_EQ(rrr.num_superblocks(), div_ceil(rrr.num_blocks(), 50));
}

TEST(RrrVector, LowEntropyCompressesBetterThanHighEntropy) {
  // The offset field width depends on block class: runs of equal bits give
  // extreme classes (0 or b) with near-zero offset widths. This is the
  // property that makes the BWT encodable in small space (paper Sec. III-B).
  const std::size_t n = 150000;
  BitVector runs;
  for (std::size_t i = 0; i < n; ++i) runs.push_back((i / 500) % 2 == 0);
  const BitVector random = testing::random_bits(n, 0.5, 3);

  const RrrParams params{15, 50};
  const RrrVector rrr_runs(runs, params);
  const RrrVector rrr_random(random, params);
  EXPECT_LT(rrr_runs.offset_bits(), rrr_random.offset_bits() / 4);
  EXPECT_LT(rrr_runs.size_in_bytes(), rrr_random.size_in_bytes());
}

TEST(RrrVector, PaperSizeFormulaTracksActualSize) {
  const BitVector bv = testing::random_bits(200000, 0.5, 21);
  const RrrVector rrr(bv, RrrParams{15, 50});
  const double formula = rrr.paper_size_in_bytes();
  const double actual = static_cast<double>(rrr.size_in_bytes()) +
                        static_cast<double>(GlobalRankTable::get(15).device_size_in_bytes());
  // The formula is an estimate (it ignores word-padding); they must agree
  // within 15%.
  EXPECT_NEAR(formula / actual, 1.0, 0.15);
}

TEST(RrrVector, LargerSfShrinksStructure) {
  const BitVector bv = testing::random_bits(100000, 0.5, 23);
  const RrrVector sf50(bv, RrrParams{15, 50});
  const RrrVector sf200(bv, RrrParams{15, 200});
  EXPECT_LT(sf200.size_in_bytes(), sf50.size_in_bytes());
  // Compression must not change answers.
  for (std::size_t p = 0; p <= bv.size(); p += 997) {
    ASSERT_EQ(sf50.rank1(p), sf200.rank1(p));
  }
}

TEST(RrrVector, LargerBlockShrinksClassOverhead) {
  const BitVector bv = testing::random_bits(100000, 0.15, 29);
  const RrrVector b5(bv, RrrParams{5, 50});
  const RrrVector b15(bv, RrrParams{15, 50});
  EXPECT_LT(b15.size_in_bytes(), b5.size_in_bytes());
}

TEST(RrrVector, EncodeModesProduceIdenticalStructures) {
  const BitVector bv = testing::random_bits(40000, 0.4, 37);
  const RrrVector fast(bv, RrrParams{15, 50, RrrEncodeMode::kInverseTable});
  const RrrVector scan(bv, RrrParams{15, 50, RrrEncodeMode::kTableScan});
  EXPECT_EQ(fast.size_in_bytes(), scan.size_in_bytes());
  EXPECT_EQ(fast.offset_bits(), scan.offset_bits());
  for (std::size_t p = 0; p <= bv.size(); p += 119) {
    ASSERT_EQ(fast.rank1(p), scan.rank1(p));
  }
  for (std::size_t i = 0; i < bv.size(); i += 113) {
    ASSERT_EQ(fast.access(i), scan.access(i));
  }
}

TEST(RrrVector, RanksAtExactSuperblockBoundaries) {
  const unsigned b = 15, sf = 50;
  const BitVector bv = testing::random_bits(b * sf * 5, 0.5, 31);
  const RrrVector rrr(bv, RrrParams{b, sf});
  for (std::size_t super = 0; super <= 5; ++super) {
    const std::size_t p = super * b * sf;
    ASSERT_EQ(rrr.rank1(p), bv.rank1_linear(p));
  }
}

// ------------------------------------------------ table-driven class scan
//
// rank1, rank1_pair and access sum class fields two per pair-table lookup,
// zeroing the fields outside the range in the first and last class word.
// Odd sf starts every other superblock on a high nibble; sf > 16 spans more
// than one class word and sf > 64 more than four.

struct ScanCase {
  unsigned b;
  unsigned sf;
};

void PrintTo(const ScanCase& c, std::ostream* os) { *os << "b=" << c.b << " sf=" << c.sf; }

/// Size for `c`: three full superblocks and 5 + sf/2 more blocks (a short
/// last superblock for sf > 3), with the class array ending mid-word and,
/// for b > 1, a partial last block.
std::size_t scan_size(const ScanCase& c) {
  std::size_t blocks = std::size_t{c.sf} * 3 + c.sf / 2 + 5;
  if (blocks % 16 == 0) ++blocks;
  return blocks * c.b - c.b / 2;
}

/// prefix[p] = ones in bv[0, p).
std::vector<std::size_t> prefix_ranks(const BitVector& bv) {
  std::vector<std::size_t> prefix(bv.size() + 1, 0);
  for (std::size_t i = 0; i < bv.size(); ++i) prefix[i + 1] = prefix[i] + bv.get(i);
  return prefix;
}

class RrrScanTest : public ::testing::TestWithParam<ScanCase> {};

TEST_P(RrrScanTest, RankAndAccessMatchOracleEverywhere) {
  const auto& c = GetParam();
  const std::size_t n = scan_size(c);
  const BitVector bv = testing::random_bits(n, 0.4, n * 7 + c.sf);
  const RrrVector rrr(bv, RrrParams{c.b, c.sf});
  ASSERT_NE(rrr.num_blocks() % 16, 0u);
  const auto prefix = prefix_ranks(bv);
  for (std::size_t p = 0; p <= n; ++p) {
    ASSERT_EQ(rrr.rank1(p), prefix[p]) << "p=" << p;
    const auto [r1, r2] = rrr.rank1_pair(p, p);
    ASSERT_EQ(r1, prefix[p]) << "p=" << p;
    ASSERT_EQ(r2, prefix[p]) << "p=" << p;
  }
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(rrr.access(i), bv.get(i)) << "i=" << i;
  }
}

TEST_P(RrrScanTest, RankPairMatchesOracleInsideSuperblocks) {
  const auto& c = GetParam();
  const std::size_t n = scan_size(c);
  const BitVector bv = testing::random_bits(n, 0.6, n * 5 + c.b);
  const RrrVector rrr(bv, RrrParams{c.b, c.sf});
  const auto prefix = prefix_ranks(bv);
  const std::size_t span = std::size_t{c.b} * c.sf;
  // The first, second and short last superblock. Small superblocks get
  // every position; large ones every block's first, second and last bit.
  for (const std::size_t super : {std::size_t{0}, std::size_t{1}, rrr.num_superblocks() - 1}) {
    const std::size_t begin = super * span;
    const std::size_t end = std::min(begin + span, n + 1);
    std::vector<std::size_t> positions;
    for (std::size_t p = begin; p < end; ++p) {
      const std::size_t in_block = (p - begin) % c.b;
      if (span <= 800 || in_block <= 1 || in_block == c.b - 1) positions.push_back(p);
    }
    for (std::size_t i = 0; i < positions.size(); ++i) {
      for (std::size_t j = i; j < positions.size(); ++j) {
        const std::size_t p1 = positions[i], p2 = positions[j];
        const auto [r1, r2] = rrr.rank1_pair(p1, p2);
        ASSERT_EQ(r1, prefix[p1]) << "p1=" << p1 << " p2=" << p2;
        ASSERT_EQ(r2, prefix[p2]) << "p1=" << p1 << " p2=" << p2;
      }
    }
  }
  // Pairs across superblocks take the two-rank path.
  for (std::size_t p1 = 0; p1 <= n; p1 += span / 3 + 1) {
    const auto [r1, r2] = rrr.rank1_pair(p1, n);
    ASSERT_EQ(r1, prefix[p1]);
    ASSERT_EQ(r2, prefix[n]);
  }
}

TEST_P(RrrScanTest, AdoptedViewOverExactBufferWithPoisonedTail) {
  const auto& c = GetParam();
  const std::size_t n = scan_size(c);
  const BitVector bv = testing::random_bits(n, 0.5, n + c.sf * 31);
  const RrrVector built(bv, RrrParams{c.b, c.sf});
  ByteWriter writer;
  built.save_flat(writer);

  // An exactly sized heap copy: reading past the archive's end trips ASan.
  const std::size_t size = writer.size();
  const std::unique_ptr<std::uint8_t[]> buffer(new std::uint8_t[size]);
  std::memcpy(buffer.get(), writer.data().data(), size);

  // Locate the class words (after the scalars and the IntVector header) and
  // fill the unused nibbles of the last word with class 15, so a scan that
  // reads one field past the last block changes the answer.
  ByteReader header({buffer.get(), size});
  header.u32();
  header.u32();
  header.u64();
  header.u64();
  header.u64();
  header.u32();
  header.align_to(64);
  const std::size_t blocks = built.num_blocks();
  const std::size_t class_bytes = div_ceil(blocks * 4, 64) * 8;
  for (std::size_t field = blocks; field < class_bytes * 2; ++field) {
    buffer[header.offset() + field / 2] |= static_cast<std::uint8_t>(0xF << (4 * (field % 2)));
  }

  ByteReader reader({buffer.get(), size});
  const RrrVector view = RrrVector::load_flat(reader, /*adopt=*/true);
  ASSERT_EQ(view.heap_size_in_bytes(), 3 * sizeof(std::uint32_t));
  const auto prefix = prefix_ranks(bv);
  for (std::size_t p = 0; p <= n; ++p) {
    ASSERT_EQ(view.rank1(p), prefix[p]) << "p=" << p;
    const std::size_t q = std::min(n, p + c.b + 1);
    const auto [r1, r2] = view.rank1_pair(p, q);
    ASSERT_EQ(r1, prefix[p]) << "p=" << p;
    ASSERT_EQ(r2, prefix[q]) << "q=" << q;
  }
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(view.access(i), bv.get(i)) << "i=" << i;
  }
}

std::vector<ScanCase> scan_cases() {
  std::vector<ScanCase> cases;
  for (const unsigned b : {1u, 5u, 15u}) {
    for (const unsigned sf : {1u, 2u, 3u, 7u, 16u, 49u, 50u, 51u, 64u, 65u, 200u}) {
      cases.push_back({b, sf});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Params, RrrScanTest, ::testing::ValuesIn(scan_cases()));

}  // namespace
}  // namespace bwaver
