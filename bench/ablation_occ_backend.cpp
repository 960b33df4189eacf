// Ablation: Occ-backend choice. The same FM-index backward search over
//   * the paper's RRR wavelet tree (BWaveR),
//   * an uncompressed wavelet tree with two-level rank directories,
//   * the Bowtie-style 2-bit-packed BWT with checkpointed counters,
// measuring count-only throughput and index memory. This quantifies the
// paper's premise that succinct structures trade CPU time for memory —
// the gap the FPGA then closes in hardware.
#include <cstdio>

#include "bench_util.hpp"
#include "fmindex/fm_index.hpp"
#include "fmindex/occ_backends.hpp"
#include "mapper/read_batch.hpp"
#include "sim/read_sim.hpp"
#include "util/timer.hpp"

namespace {

using namespace bwaver;
using namespace bwaver::bench;

template <typename Occ>
void run_backend(const char* label, const FmIndex<Occ>& index, const ReadBatch& batch,
                 std::size_t extra_shared_bytes) {
  WallTimer timer;
  std::uint64_t mapped = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (!index.count(batch.read(i)).empty()) ++mapped;
  }
  const double seconds = timer.seconds();
  const double bytes = static_cast<double>(index.occ_size_in_bytes()) +
                       static_cast<double>(extra_shared_bytes);
  std::printf("%-28s %12.1f %14.1f %12.3f %10llu\n", label, seconds * 1e3,
              static_cast<double>(batch.size()) / seconds / 1e3, bytes / 1e6,
              static_cast<unsigned long long>(mapped));
}

}  // namespace

int main(int argc, char** argv) {
  const auto setup = parse_setup(argc, argv, /*default_scale=*/0.05);
  print_header("Ablation: Occ backend (count-only, single thread)", setup);

  const auto genome = ecoli_reference(setup);
  ReadSimConfig rc;
  rc.num_reads = scaled(200'000, setup.scale * 5);
  rc.read_length = 50;
  rc.mapping_ratio = 0.9;
  const ReadBatch batch = ReadBatch::from_simulated(simulate_reads(genome, rc));
  std::printf("reference: %zu bp, reads: %zu x %u bp\n\n", genome.size(), batch.size(),
              rc.read_length);
  std::printf("%-28s %12s %14s %12s %10s\n", "backend", "time [ms]", "kreads/s",
              "occ [MB]", "mapped");

  for (const RrrParams params : {RrrParams{15, 50}, RrrParams{15, 200}, RrrParams{7, 50}}) {
    const FmIndex<RrrWaveletOcc> index(
        genome, [params](std::span<const std::uint8_t> bwt) {
          return RrrWaveletOcc(bwt, params);
        });
    char label[64];
    std::snprintf(label, sizeof(label), "RRR wavelet (b=%u, sf=%u)", params.block_bits,
                  params.superblock_factor);
    run_backend(label, index, batch, index.occ_backend().shared_table_bytes());
  }

  const FmIndex<PlainWaveletOcc> plain(
      genome, [](std::span<const std::uint8_t> bwt) { return PlainWaveletOcc(bwt); });
  run_backend("plain wavelet (2-level rank)", plain, batch, 0);

  for (unsigned words : {1u, 4u, 16u}) {
    const FmIndex<SampledOcc> sampled(
        genome, [words](std::span<const std::uint8_t> bwt) {
          return SampledOcc(bwt, words);
        });
    char label[64];
    std::snprintf(label, sizeof(label), "sampled occ (%u words/ckpt)", words);
    run_backend(label, sampled, batch, 0);
  }

  std::printf("\nexpected shape: RRR is the smallest and slowest on CPU; the\n"
              "sampled-occ layout (Bowtie's) is the fastest; larger sf shrinks\n"
              "memory and adds time. The FPGA erases the RRR scan cost.\n");
  return 0;
}
