// Scheduler-determinism suite for the batched "index sweep" backward
// search (mapper/batch_scheduler.hpp).
//
// The sweep only reorders WHICH in-flight read advances next; every read
// still executes the exact interval sequence per-read search would, so the
// rendered SAM must be byte-identical — across every registered engine,
// under sharded execution, and for adversarial batch shapes (empty,
// single-read, randomized sizes, reads whose searches die at every depth).
// Any divergence here is a scheduler bug by definition.
#include "mapper/batch_scheduler.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fmindex/dna.hpp"
#include "fmindex/fm_index.hpp"
#include "fmindex/kmer_table.hpp"
#include "fmindex/occ_backends.hpp"
#include "io/fastq.hpp"
#include "kernels/registry.hpp"
#include "mapper/pipeline.hpp"
#include "mapper/read_batch.hpp"
#include "mapper/software_mapper.hpp"
#include "sim/genome_sim.hpp"
#include "sim/read_sim.hpp"
#include "util/rng.hpp"

namespace bwaver {
namespace {

TEST(SearchModeNames, ParseAndFormatRoundTrip) {
  EXPECT_EQ(parse_search_mode("per-read"), SearchMode::kPerRead);
  EXPECT_EQ(parse_search_mode("sweep"), SearchMode::kSweep);
  EXPECT_EQ(parse_search_mode("Sweep"), std::nullopt);
  EXPECT_EQ(parse_search_mode(""), std::nullopt);
  EXPECT_EQ(parse_search_mode("per_read"), std::nullopt);
  EXPECT_STREQ(search_mode_name(SearchMode::kPerRead), "per-read");
  EXPECT_STREQ(search_mode_name(SearchMode::kSweep), "sweep");
  EXPECT_STREQ(search_mode_choices(), "per-read|sweep");
}

std::vector<std::uint8_t> test_genome(std::size_t length, std::uint64_t seed) {
  GenomeSimConfig config;
  config.length = length;
  config.seed = seed;
  return simulate_genome(config);
}

/// Reads engineered to die at every backward-search depth: take a true
/// substring of the genome and corrupt one base. Backward search consumes
/// codes from the END of the pattern, so a corruption near the end kills
/// the search within a few steps and one near the front kills it on the
/// last steps — sweeping the corruption position sweeps the retire depth.
std::vector<FastqRecord> depth_sweep_records(const std::vector<std::uint8_t>& genome,
                                             std::size_t read_length) {
  std::vector<FastqRecord> records;
  Xoshiro256 rng(321);
  for (std::size_t corrupt = 0; corrupt < read_length; ++corrupt) {
    const std::size_t start = rng.below(genome.size() - read_length);
    std::vector<std::uint8_t> codes(genome.begin() + start,
                                    genome.begin() + start + read_length);
    codes[corrupt] = static_cast<std::uint8_t>((codes[corrupt] + 1) & 3);
    records.push_back({"die_at_" + std::to_string(corrupt),
                       dna_decode_string(codes), std::string(read_length, 'I')});
  }
  // A handful of uncorrupted reads that survive to full depth.
  for (int k = 0; k < 8; ++k) {
    const std::size_t start = rng.below(genome.size() - read_length);
    const std::vector<std::uint8_t> codes(genome.begin() + start,
                                          genome.begin() + start + read_length);
    records.push_back({"full_depth_" + std::to_string(k), dna_decode_string(codes),
                       std::string(read_length, 'I')});
  }
  return records;
}

MappingOutcome run_mode(const std::vector<std::uint8_t>& genome,
                        const std::vector<FastqRecord>& records,
                        MappingEngine engine, SearchMode mode, unsigned threads = 1,
                        std::size_t shard_size = 0) {
  PipelineConfig config;
  config.engine = engine;
  config.search_mode = mode;
  config.threads = threads;
  if (shard_size != 0) config.shard_size = shard_size;
  Pipeline pipeline(config);
  pipeline.build_from_sequence("ref", dna_decode_string(genome));
  return pipeline.map_records(records);
}

class SweepEngineTest : public ::testing::TestWithParam<MappingEngine> {};

TEST_P(SweepEngineTest, SweepSamIsByteIdenticalToPerRead) {
  const auto genome = test_genome(30000, 17);

  ReadSimConfig rconfig;
  rconfig.num_reads = 150;
  rconfig.read_length = 50;
  rconfig.mapping_ratio = 0.5;  // half the searches die partway
  const auto simulated = simulate_reads(genome, rconfig);
  auto records = reads_to_fastq(simulated);
  const auto depth_records = depth_sweep_records(genome, 40);
  records.insert(records.end(), depth_records.begin(), depth_records.end());

  const MappingOutcome per_read =
      run_mode(genome, records, GetParam(), SearchMode::kPerRead);
  const MappingOutcome sweep =
      run_mode(genome, records, GetParam(), SearchMode::kSweep);

  EXPECT_EQ(sweep.reads, per_read.reads);
  EXPECT_EQ(sweep.mapped, per_read.mapped);
  EXPECT_EQ(sweep.occurrences, per_read.occurrences);
  ASSERT_EQ(sweep.sam, per_read.sam);
}

TEST_P(SweepEngineTest, SweepMatchesPerReadUnderSharding) {
  const auto genome = test_genome(20000, 23);
  ReadSimConfig rconfig;
  rconfig.num_reads = 120;
  rconfig.read_length = 40;
  rconfig.mapping_ratio = 0.7;
  const auto records = reads_to_fastq(simulate_reads(genome, rconfig));

  // Ground truth: sequential per-read. Shard size 7 forces many shards
  // whose completion order is up to the thread pool; each shard runs its
  // own sweep and the spliced SAM must still match byte for byte.
  const MappingOutcome truth =
      run_mode(genome, records, GetParam(), SearchMode::kPerRead);
  const MappingOutcome sharded_sweep = run_mode(
      genome, records, GetParam(), SearchMode::kSweep, /*threads=*/4,
      /*shard_size=*/7);
  EXPECT_GE(sharded_sweep.shards, 1u);
  EXPECT_EQ(sharded_sweep.mapped, truth.mapped);
  ASSERT_EQ(sharded_sweep.sam, truth.sam);
}

TEST_P(SweepEngineTest, RandomizedBatchSizesIncludingEmptyAndSingle) {
  const auto genome = test_genome(12000, 31);
  ReadSimConfig rconfig;
  rconfig.num_reads = 64;
  rconfig.read_length = 36;
  rconfig.mapping_ratio = 0.5;
  const auto all = reads_to_fastq(simulate_reads(genome, rconfig));

  Xoshiro256 rng(99);
  std::vector<std::size_t> sizes{0, 1, 2, all.size()};
  for (int k = 0; k < 4; ++k) sizes.push_back(1 + rng.below(all.size() - 1));

  for (const std::size_t n : sizes) {
    const std::vector<FastqRecord> batch(all.begin(), all.begin() + n);
    const MappingOutcome per_read =
        run_mode(genome, batch, GetParam(), SearchMode::kPerRead);
    const MappingOutcome sweep =
        run_mode(genome, batch, GetParam(), SearchMode::kSweep);
    EXPECT_EQ(sweep.reads, n);
    ASSERT_EQ(sweep.sam, per_read.sam) << "batch size " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, SweepEngineTest,
    ::testing::Values(MappingEngine::kFpga, MappingEngine::kCpu,
                      MappingEngine::kBowtie2Like, MappingEngine::kVector,
                      MappingEngine::kEpr),
    [](const ::testing::TestParamInfo<MappingEngine>& info) {
      return std::string(kernels::engine_spec(info.param).name);
    });

TEST(SweepStatsCounters, PopulatedInSweepModeOnly) {
  const auto genome = test_genome(10000, 41);
  ReadSimConfig rconfig;
  rconfig.num_reads = 50;
  rconfig.read_length = 30;
  rconfig.mapping_ratio = 0.8;
  const auto records = reads_to_fastq(simulate_reads(genome, rconfig));

  const MappingOutcome per_read =
      run_mode(genome, records, MappingEngine::kCpu, SearchMode::kPerRead);
  EXPECT_EQ(per_read.sweep.batches, 0u);
  EXPECT_EQ(per_read.sweep.passes, 0u);

  const MappingOutcome sweep =
      run_mode(genome, records, MappingEngine::kCpu, SearchMode::kSweep);
  EXPECT_GT(sweep.sweep.batches, 0u);
  EXPECT_GT(sweep.sweep.passes, 0u);
  EXPECT_GT(sweep.sweep.state_steps, 0u);
  // Both strands of every read are in flight at the first pass.
  EXPECT_EQ(sweep.sweep.peak_active, 2 * records.size());
}

TEST(SweepStatsCounters, FpgaEngineIgnoresSweepMode) {
  // The modeled device already streams query packets; requesting sweep is
  // a documented no-op there and must not invent scheduler counters.
  const auto genome = test_genome(10000, 43);
  ReadSimConfig rconfig;
  rconfig.num_reads = 30;
  rconfig.read_length = 30;
  const auto records = reads_to_fastq(simulate_reads(genome, rconfig));
  const MappingOutcome sweep =
      run_mode(genome, records, MappingEngine::kFpga, SearchMode::kSweep);
  EXPECT_EQ(sweep.sweep.batches, 0u);
}

TEST(SweepMapBatchLowLevel, RaggedReadLengthsMatchPerRead) {
  // Variable-length reads (including length 0 and length 1) exercise the
  // scheduler's retire-at-seed and slot bookkeeping off the FASTQ path.
  const auto genome = test_genome(15000, 53);
  const FmIndex<RrrWaveletOcc> index(
      genome, [](std::span<const std::uint8_t> bwt) {
        return RrrWaveletOcc(bwt, RrrParams{15, 50});
      });

  Xoshiro256 rng(7);
  ReadBatch batch;
  batch.add({});  // empty read: retired before the first pass
  for (int k = 0; k < 200; ++k) {
    const std::size_t len = 1 + rng.below(64);
    const std::size_t start = rng.below(genome.size() - len);
    std::vector<std::uint8_t> codes(genome.begin() + start,
                                    genome.begin() + start + len);
    if (k % 3 == 0) {  // corrupt a random base so some searches die early
      const std::size_t at = rng.below(len);
      codes[at] = static_cast<std::uint8_t>((codes[at] + 1) & 3);
    }
    batch.add(codes);
  }

  for (const unsigned threads : {1u, 4u}) {
    const auto per_read = detail::map_batch(index, batch, threads, nullptr);
    SoftwareMapReport report;
    const auto sweep = detail::sweep_map_batch(index, batch, threads, &report);
    ASSERT_EQ(sweep.size(), per_read.size());
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      EXPECT_EQ(sweep[i].id, per_read[i].id) << "read " << i;
      EXPECT_EQ(sweep[i].fwd_lo, per_read[i].fwd_lo) << "read " << i;
      EXPECT_EQ(sweep[i].fwd_hi, per_read[i].fwd_hi) << "read " << i;
      EXPECT_EQ(sweep[i].rev_lo, per_read[i].rev_lo) << "read " << i;
      EXPECT_EQ(sweep[i].rev_hi, per_read[i].rev_hi) << "read " << i;
    }
    EXPECT_GT(report.sweep.passes, 0u);
  }
}

TEST(SweepMapBatchLowLevel, SeededAndUnseededIndexesBothMatchPerRead) {
  // The sweep must replicate count()'s seed-table decision exactly: with a
  // seed table the search starts mid-pattern, without one it starts at the
  // full depth — in both cases per-read and sweep intervals must agree.
  const auto genome = test_genome(15000, 59);
  for (const bool seeded : {false, true}) {
    FmIndex<RrrWaveletOcc> index(genome, [](std::span<const std::uint8_t> bwt) {
      return RrrWaveletOcc(bwt, RrrParams{15, 50});
    });
    if (seeded) index.build_seed_table(genome, KmerSeedTable::kDefaultK);

    ReadSimConfig rconfig;
    rconfig.num_reads = 100;
    rconfig.read_length = 48;
    rconfig.mapping_ratio = 0.6;
    const auto batch = ReadBatch::from_simulated(simulate_reads(genome, rconfig));

    const auto per_read = detail::map_batch(index, batch, 1, nullptr);
    const auto sweep = detail::sweep_map_batch(index, batch, 1, nullptr);
    ASSERT_EQ(sweep.size(), per_read.size());
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      EXPECT_EQ(sweep[i].fwd_lo, per_read[i].fwd_lo) << (seeded ? "seeded " : "unseeded ") << i;
      EXPECT_EQ(sweep[i].fwd_hi, per_read[i].fwd_hi) << (seeded ? "seeded " : "unseeded ") << i;
      EXPECT_EQ(sweep[i].rev_lo, per_read[i].rev_lo) << (seeded ? "seeded " : "unseeded ") << i;
      EXPECT_EQ(sweep[i].rev_hi, per_read[i].rev_hi) << (seeded ? "seeded " : "unseeded ") << i;
    }
  }
}

}  // namespace
}  // namespace bwaver
