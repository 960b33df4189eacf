// K-mer seed-table benchmark: the exact-search hot path (both strands per
// read, the query the FPGA kernel and the software mappers both run) with
// and without the precomputed seed table.
//
// Short reads are the table's sweet spot: with the default k = 12, a 36 bp
// read skips a third of its backward-search steps — and precisely the wide
// early intervals whose two occ lookups land in distant superblocks, the
// most expensive steps of the search. The bench runs interleaved trials of
// both paths and reports the median reads/sec of each and the median of the
// per-trial ratios with its range; CI holds the median ratio above the floor
// in bench/baseline.json.
#include <cstdio>
#include <memory>

#include "bench_util.hpp"
#include "fmindex/fm_index.hpp"
#include "fmindex/kmer_table.hpp"
#include "fmindex/occ_backends.hpp"
#include "fmindex/reference_set.hpp"
#include "mapper/map_service.hpp"
#include "mapper/pipeline.hpp"
#include "mapper/read_batch.hpp"
#include "sim/read_sim.hpp"
#include "util/timer.hpp"

namespace {

using namespace bwaver;
using namespace bwaver::bench;

constexpr int kTrials = 7;

/// One timed pass over the batch: the per-read two-strand exact search.
/// Returns wall ms; folds every interval into `checksum` so the seeded and
/// unseeded passes can be cross-checked (and the loop cannot be elided).
double time_pass(const FmIndex<RrrWaveletOcc>& index, const ReadBatch& batch,
                 std::uint64_t& checksum) {
  checksum = 0;
  WallTimer timer;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto [fwd, rev] = index.count_both_strands(batch.read(i));
    checksum += fwd.lo + fwd.hi + rev.lo + rev.hi;
  }
  return timer.milliseconds();
}

}  // namespace

int main(int argc, char** argv) {
  const auto setup = parse_setup(argc, argv, /*default_scale=*/1.0);
  print_header("K-mer seed table: seeded vs unseeded exact search", setup);

  const auto genome = ecoli_reference(setup);
  std::printf("building index over %zu bp...\n", genome.size());
  WallTimer timer;
  FmIndex<RrrWaveletOcc> index(genome, [](std::span<const std::uint8_t> bwt) {
    return RrrWaveletOcc(bwt, RrrParams{15, 50});
  });
  const double index_build_ms = timer.milliseconds();

  ReadSimConfig rconfig;
  rconfig.num_reads = scaled(20000, setup.scale);
  rconfig.read_length = 36;  // short reads: seed skips 12 of 36 steps
  rconfig.mapping_ratio = 1.0;
  rconfig.seed = setup.seed;
  const auto reads = simulate_reads(genome, rconfig);
  const ReadBatch batch = ReadBatch::from_simulated(reads);

  timer.reset();
  index.build_seed_table(genome, KmerSeedTable::kDefaultK);
  const double table_build_ms = timer.milliseconds();
  const unsigned k = index.seed_table()->k();
  const auto table = index.shared_seed_table();

  std::printf("%zu reads of %u bp, seed k = %u (table %.1f MiB, built in %.1f ms)\n\n",
              batch.size(), rconfig.read_length, k,
              static_cast<double>(table->size_in_bytes()) / (1024.0 * 1024.0),
              table_build_ms);
  std::printf("%d interleaved trials; medians, speedup = median per-trial ratio\n", kTrials);
  std::printf("%-10s %12s %12s %9s\n", "path", "wall [ms]", "reads/s", "speedup");

  std::uint64_t unseeded_sum = 0, seeded_sum = 0;
  const InterleavedTrials trials = interleaved_trials(
      kTrials,
      [&] {
        index.set_seed_table(nullptr);
        return time_pass(index, batch, unseeded_sum);
      },
      [&] {
        index.set_seed_table(table);
        return time_pass(index, batch, seeded_sum);
      });
  index.set_seed_table(table);
  const TrialSummary unseeded_ms = summarize(trials.a_ms);
  const TrialSummary seeded_ms = summarize(trials.b_ms);
  const TrialSummary speedup = summarize(trials.ratio);
  const double num_reads = static_cast<double>(batch.size());
  const double unseeded_rps = 1000.0 * num_reads / unseeded_ms.median;
  const double seeded_rps = 1000.0 * num_reads / seeded_ms.median;
  std::printf("%-10s %12.1f %12.0f %9s\n", "unseeded", unseeded_ms.median, unseeded_rps,
              "1.00x");
  std::printf("%-10s %12.1f %12.0f %8.2fx  (trials %.2f-%.2fx)\n", "seeded",
              seeded_ms.median, seeded_rps, speedup.median, speedup.lo, speedup.hi);

  if (seeded_sum != unseeded_sum) {
    std::printf("!! seeded/unseeded interval checksum mismatch (%llu vs %llu)\n",
                static_cast<unsigned long long>(seeded_sum),
                static_cast<unsigned long long>(unseeded_sum));
    return 1;
  }

  std::printf("\nboth passes run the identical two-strand exact search; the\n"
              "seed table only replaces each search's first %u steps with one\n"
              "table lookup (empty entries fall back to the full recurrence).\n",
              k);

  // One full seeded mapping pass for the per-stage decomposition the
  // observability subsystem tracks (no job layer here, so queue wait is 0).
  ReferenceSet reference;
  reference.add("bench_ref", genome);
  PipelineConfig map_config;
  map_config.engine = MappingEngine::kCpu;
  const MappingOutcome outcome =
      map_records_over(PreparedEngine(index, nullptr, map_config), reference, map_config,
                       reads_to_fastq(reads));
  std::printf("seeded full-map stage split: seed %.1f ms, search %.1f ms, "
              "locate %.1f ms, sam %.1f ms\n",
              outcome.stages.seed_ms, outcome.stages.search_ms,
              outcome.stages.locate_ms, outcome.stages.sam_ms);

  JsonReport report("bench_kmer_seed", setup.json);
  report.metric("index_build_ms", index_build_ms);
  report.metric("table_build_ms", table_build_ms);
  report.metric("seed_k", k);
  report.metric("unseeded_reads_per_sec", unseeded_rps);
  report.metric("seeded_reads_per_sec", seeded_rps);
  report.metric("trials", kTrials);
  report.metric("speedup", speedup.median);
  report.metric("speedup_lo", speedup.lo);
  report.metric("speedup_hi", speedup.hi);
  report.metric("seed_ms", outcome.stages.seed_ms);
  report.metric("search_ms", outcome.stages.search_ms);
  report.metric("locate_ms", outcome.stages.locate_ms);
  report.metric("sam_ms", outcome.stages.sam_ms);
  report.metric("queue_wait_ms", 0.0);
  report.emit();
  return 0;
}
