#include "fmindex/fm_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "fmindex/occ_backends.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace bwaver {
namespace {

template <typename Occ>
FmIndex<Occ> make_index(std::span<const std::uint8_t> text);

template <>
FmIndex<RrrWaveletOcc> make_index(std::span<const std::uint8_t> text) {
  return FmIndex<RrrWaveletOcc>(text, [](std::span<const std::uint8_t> bwt) {
    return RrrWaveletOcc(bwt, RrrParams{15, 50});
  });
}
template <>
FmIndex<PlainWaveletOcc> make_index(std::span<const std::uint8_t> text) {
  return FmIndex<PlainWaveletOcc>(
      text, [](std::span<const std::uint8_t> bwt) { return PlainWaveletOcc(bwt); });
}
template <>
FmIndex<SampledOcc> make_index(std::span<const std::uint8_t> text) {
  return FmIndex<SampledOcc>(
      text, [](std::span<const std::uint8_t> bwt) { return SampledOcc(bwt, 2); });
}
template <typename Occ>
class FmIndexTyped : public ::testing::Test {};

using Backends = ::testing::Types<RrrWaveletOcc, PlainWaveletOcc, SampledOcc>;
TYPED_TEST_SUITE(FmIndexTyped, Backends);

TYPED_TEST(FmIndexTyped, CountAndLocateMatchBruteForce) {
  const auto text = testing::random_symbols(3000, 4, 200);
  const auto index = make_index<TypeParam>(text);
  Xoshiro256 rng(201);
  for (int trial = 0; trial < 150; ++trial) {
    const std::size_t len = 1 + rng.below(20);
    std::vector<std::uint8_t> pattern;
    if (trial % 2 == 0) {
      // Sample a true substring so the positive path is exercised often.
      const std::size_t start = rng.below(text.size() - len);
      pattern.assign(text.begin() + start, text.begin() + start + len);
    } else {
      pattern = testing::random_symbols(len, 4, rng());
    }
    const auto expected = testing::naive_find_all(text, pattern);
    const SaInterval iv = index.count(pattern);
    ASSERT_EQ(iv.count(), expected.size());
    auto positions = index.locate(iv);
    std::sort(positions.begin(), positions.end());
    ASSERT_EQ(positions, expected);
  }
}

TYPED_TEST(FmIndexTyped, EmptyPatternMatchesAllRows) {
  const auto text = testing::random_symbols(100, 4, 1);
  const auto index = make_index<TypeParam>(text);
  const SaInterval iv = index.count({});
  EXPECT_EQ(iv.count(), 101u);  // n + 1 rows
}

TYPED_TEST(FmIndexTyped, PatternLongerThanTextNeverMatches) {
  const auto text = testing::random_symbols(50, 4, 2);
  const auto index = make_index<TypeParam>(text);
  const auto pattern = testing::random_symbols(51, 4, 3);
  EXPECT_TRUE(index.count(pattern).empty());
}

TYPED_TEST(FmIndexTyped, WholeTextIsFound) {
  const auto text = testing::random_symbols(500, 4, 4);
  const auto index = make_index<TypeParam>(text);
  const SaInterval iv = index.count(text);
  ASSERT_EQ(iv.count(), 1u);
  EXPECT_EQ(index.locate(iv).front(), 0u);
}

TYPED_TEST(FmIndexTyped, OccIsConsistentAroundPrimary) {
  // occ(c, row) over the full column must be a non-decreasing step function
  // that skips exactly the sentinel row.
  const auto text = testing::random_symbols(300, 4, 5);
  const auto index = make_index<TypeParam>(text);
  for (std::uint8_t c = 0; c < 4; ++c) {
    std::size_t prev = 0;
    std::size_t total_steps = 0;
    for (std::size_t row = 0; row <= index.rows(); ++row) {
      const std::size_t now = index.occ(c, row);
      ASSERT_GE(now, prev);
      ASSERT_LE(now - prev, 1u);
      total_steps += now - prev;
      prev = now;
    }
    ASSERT_EQ(total_steps, testing::naive_rank(index.bwt().symbols, c,
                                               index.bwt().symbols.size()));
  }
}

TYPED_TEST(FmIndexTyped, CArrayCountsSmallerSymbols) {
  const auto text = testing::random_symbols(1000, 4, 6);
  const auto index = make_index<TypeParam>(text);
  std::array<std::size_t, 4> counts{};
  for (std::uint8_t c : text) ++counts[c];
  std::size_t sum = 1;  // sentinel
  for (std::uint8_t c = 0; c < 4; ++c) {
    ASSERT_EQ(index.c_array(c), sum);
    sum += counts[c];
  }
}

TYPED_TEST(FmIndexTyped, CountBothStrandsFindsReverseComplement) {
  const auto text = testing::random_symbols(2000, 4, 7);
  const auto index = make_index<TypeParam>(text);
  // A substring maps forward; its revcomp maps on the reverse strand.
  std::vector<std::uint8_t> sub(text.begin() + 100, text.begin() + 140);
  const auto rc = dna_reverse_complement(sub);
  const auto [fwd_of_rc, rev_of_rc] = index.count_both_strands(rc);
  EXPECT_GE(rev_of_rc.count(), 1u);
  const auto positions = index.locate(rev_of_rc);
  EXPECT_TRUE(std::find(positions.begin(), positions.end(), 100u) != positions.end());
  (void)fwd_of_rc;
}

TYPED_TEST(FmIndexTyped, StepShrinksOrEmptiesInterval) {
  const auto text = testing::random_symbols(800, 4, 8);
  const auto index = make_index<TypeParam>(text);
  Xoshiro256 rng(9);
  SaInterval iv = index.full_interval();
  while (!iv.empty()) {
    const SaInterval next = index.step(iv, static_cast<std::uint8_t>(rng.below(4)));
    ASSERT_LE(next.count(), iv.count());
    iv = next;
  }
}

TYPED_TEST(FmIndexTyped, SingleBaseCountsMatchComposition) {
  const auto text = testing::random_symbols(5000, 4, 10);
  const auto index = make_index<TypeParam>(text);
  for (std::uint8_t c = 0; c < 4; ++c) {
    const std::vector<std::uint8_t> pattern = {c};
    ASSERT_EQ(index.count(pattern).count(),
              testing::naive_rank(text, c, text.size()));
  }
}

TEST(FmIndex, BackendsProduceIdenticalIntervals) {
  const auto text = testing::random_symbols(4000, 4, 11);
  const auto rrr = make_index<RrrWaveletOcc>(text);
  const auto plain = make_index<PlainWaveletOcc>(text);
  const auto sampled = make_index<SampledOcc>(text);
  Xoshiro256 rng(12);
  for (int trial = 0; trial < 100; ++trial) {
    const auto pattern = testing::random_symbols(1 + rng.below(30), 4, rng());
    const SaInterval a = rrr.count(pattern);
    ASSERT_EQ(a, plain.count(pattern));
    ASSERT_EQ(a, sampled.count(pattern));
  }
}

TEST(FmIndex, ConstructFromPrecomputedParts) {
  const auto text = testing::random_symbols(600, 4, 13);
  const auto sa = build_suffix_array(text);
  Bwt bwt = build_bwt(text, sa);
  const FmIndex<SampledOcc> index(
      std::move(bwt), std::vector<std::uint32_t>(sa.begin(), sa.end()),
      [](std::span<const std::uint8_t> symbols) { return SampledOcc(symbols); });
  std::vector<std::uint8_t> sub(text.begin() + 10, text.begin() + 30);
  const auto positions = index.locate(sub);
  EXPECT_TRUE(std::find(positions.begin(), positions.end(), 10u) != positions.end());
}

TEST(FmIndex, MismatchedPartsThrow) {
  const auto text = testing::random_symbols(100, 4, 14);
  Bwt bwt = build_bwt(text);
  std::vector<std::uint32_t> bad_sa(5);
  EXPECT_THROW(FmIndex<SampledOcc>(
                   std::move(bwt), std::move(bad_sa),
                   [](std::span<const std::uint8_t> s) { return SampledOcc(s); }),
               std::invalid_argument);
}

TEST(SampledOcc, RankMatchesNaiveAcrossCheckpointWidths) {
  const auto bwt = testing::random_symbols(3000, 4, 15);
  for (unsigned words : {1u, 2u, 4u, 8u}) {
    const SampledOcc occ(bwt, words);
    for (std::uint8_t c = 0; c < 4; ++c) {
      for (std::size_t p = 0; p <= bwt.size(); p += 17) {
        ASSERT_EQ(occ.rank(c, p), testing::naive_rank(bwt, c, p))
            << "words=" << words << " c=" << int(c) << " p=" << p;
      }
      ASSERT_EQ(occ.rank(c, bwt.size()), testing::naive_rank(bwt, c, bwt.size()));
    }
  }
}

TEST(SampledOcc, AccessDecodesPackedSymbols) {
  const auto bwt = testing::random_symbols(500, 4, 16);
  const SampledOcc occ(bwt);
  for (std::size_t i = 0; i < bwt.size(); ++i) {
    ASSERT_EQ(occ.access(i), bwt[i]);
  }
}

TEST(SampledOcc, RejectsZeroCheckpointWords) {
  const auto bwt = testing::random_symbols(100, 4, 17);
  EXPECT_THROW(SampledOcc(bwt, 0), std::invalid_argument);
}

TEST(SampledOcc, PartialLastWordNotOvercounted) {
  // Padding in the final word encodes as code 0 ('A'); rank(0, n) must not
  // include it.
  const std::vector<std::uint8_t> bwt(33, 0);  // 33 A's: one full word + 1
  const SampledOcc occ(bwt, 1);
  EXPECT_EQ(occ.rank(0, 33), 33u);
  EXPECT_EQ(occ.rank(1, 33), 0u);
}

}  // namespace
}  // namespace bwaver
