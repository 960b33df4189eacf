#include "mapper/staged_mapper.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "fmindex/approx_search.hpp"
#include "fmindex/dna.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/genome_sim.hpp"
#include "util/rng.hpp"

namespace bwaver {
namespace {

const auto kBuilder = [](std::span<const std::uint8_t> bwt) {
  return RrrWaveletOcc(bwt, RrrParams{15, 50});
};

/// The staged semantics run on the branch recursion (approx_count), the
/// oracle the search schemes must reproduce: the exact stage (one interval
/// per strand, in suffix-array order), then budgets 1..max_mismatches while
/// the read stays unaligned (positions sorted per strand), forward strand
/// first. `steps` (optional, one slot per stage) accumulates the slower
/// strand's executed steps, as StageReport does.
StagedReadResult branch_stage_read(const FmIndex<RrrWaveletOcc>& index,
                                   std::span<const std::uint8_t> codes,
                                   unsigned max_mismatches,
                                   std::vector<std::uint64_t>* steps = nullptr) {
  StagedReadResult result;
  const auto rc = dna_reverse_complement(codes);
  for (unsigned budget = 0; budget <= max_mismatches; ++budget) {
    std::vector<std::uint32_t> strand_positions[2];
    std::uint64_t strand_steps[2] = {0, 0};
    for (int strand = 0; strand < 2; ++strand) {
      ApproxStats stats;
      for (const ApproxHit& hit :
           approx_count(index, strand == 0 ? codes : std::span<const std::uint8_t>(rc),
                        budget, &stats)) {
        if (hit.mismatches != budget) continue;
        for (std::uint32_t row = hit.interval.lo; row < hit.interval.hi; ++row) {
          strand_positions[strand].push_back(index.suffix_array()[row]);
        }
      }
      if (budget > 0) {
        std::sort(strand_positions[strand].begin(), strand_positions[strand].end());
      }
      strand_steps[strand] = stats.steps_executed;
    }
    if (steps != nullptr) (*steps)[budget] += std::max(strand_steps[0], strand_steps[1]);
    if (strand_positions[0].empty() && strand_positions[1].empty()) continue;
    result.stage = static_cast<std::uint8_t>(budget);
    result.reverse_strand = strand_positions[0].empty();
    result.positions = std::move(strand_positions[0]);
    result.positions.insert(result.positions.end(), strand_positions[1].begin(),
                            strand_positions[1].end());
    break;
  }
  return result;
}

class StagedMapperTest : public ::testing::Test {
 protected:
  StagedMapperTest() {
    GenomeSimConfig config;
    config.length = 50000;
    config.seed = 600;
    genome_ = simulate_genome(config);
    index_ = std::make_unique<BidirFmIndex<RrrWaveletOcc>>(genome_, kBuilder);

    // Reads with 0, 1 and 2 substitutions plus pure-random ones.
    Xoshiro256 rng(601);
    constexpr unsigned kLength = 48;
    for (unsigned mutations = 0; mutations <= 2; ++mutations) {
      for (int n = 0; n < 30; ++n) {
        const std::size_t origin = rng.below(genome_.size() - kLength);
        std::vector<std::uint8_t> read(genome_.begin() + origin,
                                       genome_.begin() + origin + kLength);
        // Distinct positions so the distance is exactly `mutations`.
        for (unsigned m = 0; m < mutations; ++m) {
          const std::size_t at = 5 + m * 17;
          read[at] = static_cast<std::uint8_t>((read[at] + 1 + rng.below(3)) & 3);
        }
        batch_.add(read);
        expected_stage_.push_back(mutations);
        origins_.push_back(static_cast<std::uint32_t>(origin));
      }
    }
    for (int n = 0; n < 20; ++n) {
      std::vector<std::uint8_t> read(kLength);
      for (auto& base : read) base = static_cast<std::uint8_t>(rng.below(4));
      batch_.add(read);
      expected_stage_.push_back(StagedReadResult::kUnaligned);
      origins_.push_back(0);
    }
  }

  std::vector<std::uint8_t> genome_;
  std::unique_ptr<BidirFmIndex<RrrWaveletOcc>> index_;
  ReadBatch batch_;
  std::vector<std::uint8_t> expected_stage_;
  std::vector<std::uint32_t> origins_;
};

TEST_F(StagedMapperTest, ReadsAlignAtTheirMutationStage) {
  const StagedFpgaMapper mapper(*index_);
  StagedMapReport report;
  const auto results = mapper.map(batch_, &report);
  ASSERT_EQ(results.size(), batch_.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    // A mutated read could by chance match elsewhere with fewer mismatches,
    // so the aligned stage is at most the mutation count.
    if (expected_stage_[i] == StagedReadResult::kUnaligned) {
      EXPECT_EQ(results[i].stage, StagedReadResult::kUnaligned) << "read " << i;
    } else {
      ASSERT_NE(results[i].stage, StagedReadResult::kUnaligned) << "read " << i;
      EXPECT_LE(results[i].stage, expected_stage_[i]) << "read " << i;
      // The true origin must be among the reported loci when the stage
      // equals the mutation count.
      if (results[i].stage == expected_stage_[i]) {
        EXPECT_TRUE(std::find(results[i].positions.begin(), results[i].positions.end(),
                              origins_[i]) != results[i].positions.end())
            << "read " << i;
      }
    }
  }
}

TEST_F(StagedMapperTest, StageReportsAccountAllReads) {
  const StagedFpgaMapper mapper(*index_);
  StagedMapReport report;
  mapper.map(batch_, &report);
  ASSERT_EQ(report.stages.size(), 3u);
  EXPECT_EQ(report.stages[0].reads_in, batch_.size());
  for (std::size_t s = 1; s < report.stages.size(); ++s) {
    EXPECT_EQ(report.stages[s].reads_in,
              report.stages[s - 1].reads_in - report.stages[s - 1].reads_aligned);
    EXPECT_GT(report.stages[s].reconfigure_seconds, 0.0);
  }
  // Roughly 30 reads align per stage (some mutated reads luck into earlier
  // stages, so the exact split varies).
  EXPECT_GE(report.stages[0].reads_aligned, 28u);
  EXPECT_GT(report.total_seconds(), 0.0);
}

TEST_F(StagedMapperTest, LaterStagesCostMoreStepsPerRead) {
  const StagedFpgaMapper mapper(*index_);
  StagedMapReport report;
  mapper.map(batch_, &report);
  const auto per_read = [](const StageReport& stage) {
    return stage.reads_in == 0 ? 0.0
                               : static_cast<double>(stage.steps_executed) /
                                     static_cast<double>(stage.reads_in);
  };
  EXPECT_GT(per_read(report.stages[1]), per_read(report.stages[0]));
  EXPECT_GT(per_read(report.stages[2]), per_read(report.stages[1]));
}

TEST_F(StagedMapperTest, SoftwareComparatorMatchesFpgaModel) {
  const StagedFpgaMapper fpga(*index_);
  const auto hw = fpga.map(batch_);
  double seconds = 0.0;
  const auto sw = approx_map_batch(*index_, batch_, 2, 2, &seconds);
  ASSERT_EQ(hw.size(), sw.size());
  for (std::size_t i = 0; i < hw.size(); ++i) {
    ASSERT_EQ(hw[i].stage, sw[i].stage) << i;
    auto hw_pos = hw[i].positions;
    auto sw_pos = sw[i].positions;
    std::sort(hw_pos.begin(), hw_pos.end());
    std::sort(sw_pos.begin(), sw_pos.end());
    ASSERT_EQ(hw_pos, sw_pos) << i;
  }
  EXPECT_GT(seconds, 0.0);
}

TEST_F(StagedMapperTest, ExactOnlyConfigurationSkipsLaterStages) {
  const StagedFpgaMapper mapper(*index_, DeviceSpec{}, 0);
  StagedMapReport report;
  const auto results = mapper.map(batch_, &report);
  EXPECT_EQ(report.stages.size(), 1u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].stage != StagedReadResult::kUnaligned) {
      EXPECT_EQ(results[i].stage, 0);
    }
  }
}

TEST_F(StagedMapperTest, SchemeModeIsByteIdenticalToBranchMode) {
  // The mapper's scheme stages against the staged branch recursion.
  const StagedFpgaMapper scheme(*index_);
  StagedMapReport scheme_report;
  const auto scheme_results = scheme.map(batch_, &scheme_report);
  std::vector<std::uint64_t> branch_steps(3, 0);
  ASSERT_EQ(scheme_results.size(), batch_.size());
  for (std::size_t i = 0; i < batch_.size(); ++i) {
    const StagedReadResult branch =
        branch_stage_read(index_->forward(), batch_.read(i), 2, &branch_steps);
    ASSERT_EQ(branch.stage, scheme_results[i].stage) << "read " << i;
    EXPECT_EQ(branch.reverse_strand, scheme_results[i].reverse_strand) << "read " << i;
    // Not just the same set: byte-identical vectors, thanks to the
    // canonical per-strand ordering both apply.
    ASSERT_EQ(branch.positions, scheme_results[i].positions) << "read " << i;
  }
  // Anchored schemes must beat branch-everywhere on executed steps in the
  // mismatch stages.
  ASSERT_EQ(scheme_report.stages.size(), 3u);
  for (std::size_t s = 1; s < scheme_report.stages.size(); ++s) {
    EXPECT_LT(scheme_report.stages[s].steps_executed, branch_steps[s]) << "stage " << s;
  }
}

TEST_F(StagedMapperTest, SchemeComparatorMatchesBranchComparator) {
  const auto scheme = approx_map_batch(*index_, batch_, 2, 2);
  ASSERT_EQ(scheme.size(), batch_.size());
  for (std::size_t i = 0; i < batch_.size(); ++i) {
    const StagedReadResult branch = branch_stage_read(index_->forward(), batch_.read(i), 2);
    ASSERT_EQ(branch.stage, scheme[i].stage) << i;
    ASSERT_EQ(branch.positions, scheme[i].positions) << i;
  }
}

TEST(StagedMapper, HitCapTruncatesAndCountsReads) {
  // Plant three DISTINCT 1-mismatch neighbors of a read in the genome
  // (different mutated positions => different strings => separate SA
  // intervals at the 1-mismatch stratum), so a 1-hit cap must truncate.
  Xoshiro256 rng(700);
  std::vector<std::uint8_t> read(20);
  for (auto& base : read) base = static_cast<std::uint8_t>(rng.below(4));
  std::vector<std::uint8_t> genome;
  for (const std::size_t at : {std::size_t{3}, std::size_t{10}, std::size_t{15}}) {
    std::vector<std::uint8_t> neighbor = read;
    neighbor[at] = static_cast<std::uint8_t>((neighbor[at] + 1) & 3);
    genome.insert(genome.end(), neighbor.begin(), neighbor.end());
    for (int j = 0; j < 50; ++j) {
      genome.push_back(static_cast<std::uint8_t>(rng.below(4)));
    }
  }
  const BidirFmIndex<RrrWaveletOcc> index(genome, kBuilder);
  ReadBatch batch;
  batch.add(read);

  const StagedFpgaMapper uncapped(index);
  StagedMapReport full_report;
  const auto full = uncapped.map(batch, &full_report);
  ASSERT_EQ(full[0].stage, 1);
  ASSERT_GE(full[0].positions.size(), 3u);
  for (const auto& stage : full_report.stages) {
    EXPECT_EQ(stage.truncated_reads, 0u);
  }

  const StagedFpgaMapper capped(index, DeviceSpec{}, 2, /*hit_cap=*/1);
  StagedMapReport report;
  const auto results = capped.map(batch, &report);
  // Stage assignment is unaffected; only the loci list shrinks.
  EXPECT_EQ(results[0].stage, full[0].stage);
  EXPECT_LT(results[0].positions.size(), full[0].positions.size());
  std::uint64_t truncated = 0;
  for (const auto& stage : report.stages) truncated += stage.truncated_reads;
  EXPECT_EQ(truncated, 1u);
}

TEST_F(StagedMapperTest, ApproxCountersMoveUnderAmbientMetrics) {
  obs::MetricsRegistry registry;
  const obs::ScopedObsContext scope(obs::ObsContext{nullptr, 0, &registry});
  const StagedFpgaMapper mapper(*index_);
  StagedMapReport report;
  mapper.map(batch_, &report);

  std::uint64_t expected_steps = 0, expected_pruned = 0, expected_hits = 0;
  for (std::size_t s = 1; s < report.stages.size(); ++s) {
    expected_steps += report.stages[s].steps_executed;
    expected_pruned += report.stages[s].branches_pruned;
    expected_hits += report.stages[s].hits;
  }
  EXPECT_GT(registry.counter("bwaver_approx_steps_total", "").value(), 0u);
  EXPECT_EQ(registry.counter("bwaver_approx_pruned_total", "").value(), expected_pruned);
  EXPECT_EQ(registry.counter("bwaver_approx_hits_total", "").value(), expected_hits);
}

TEST(StagedMapper, RejectsMoreThanTwoMismatches) {
  GenomeSimConfig config;
  config.length = 1000;
  const auto genome = simulate_genome(config);
  const BidirFmIndex<RrrWaveletOcc> index(genome, kBuilder);
  EXPECT_THROW(StagedFpgaMapper(index, DeviceSpec{}, 3), std::invalid_argument);
}

}  // namespace
}  // namespace bwaver
