// Approximate-search strategy shootout: branch recursion vs bidirectional
// search schemes.
//
// The staged mapper's mismatch stages run precomputed bidirectional search
// schemes over a fwd+rev FM-index pair, which anchor one pattern piece
// exactly before branching. The branch side here is the classic
// per-stratum branch-everywhere recursion (approx_count, restarting a full
// 4-way backward search per stratum) driven through the same staged loop.
// Both must produce byte-identical results — this bench verifies that on
// every read, then times 2-mismatch mapping of error-injected reads through
// both. The scheme-vs-branch ratio is the optimization's payoff and is
// enforced as a hard `scheme_vs_branch_speedup_min` floor in
// bench/baseline.json.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_util.hpp"
#include "fmindex/approx_search.hpp"
#include "fmindex/bidir_index.hpp"
#include "fmindex/dna.hpp"
#include "fmindex/fm_index.hpp"
#include "fmindex/occ_backends.hpp"
#include "mapper/read_batch.hpp"
#include "mapper/staged_mapper.hpp"
#include "sim/read_sim.hpp"
#include "util/timer.hpp"

namespace {

using namespace bwaver;
using namespace bwaver::bench;

/// One read through the staged semantics with the branch recursion: the
/// exact stage, then budgets 1..max_mismatches while the read stays
/// unaligned. Positions are sorted per strand, forward first, as the staged
/// mapper reports them.
StagedReadResult branch_stage_read(const FmIndex<RrrWaveletOcc>& index,
                                   std::span<const std::uint8_t> codes,
                                   unsigned max_mismatches) {
  StagedReadResult result;
  const auto rc = dna_reverse_complement(codes);
  const SaInterval fwd_iv = index.count(codes);
  const SaInterval rev_iv = index.count(rc);
  if (!fwd_iv.empty() || !rev_iv.empty()) {
    result.stage = 0;
    result.reverse_strand = fwd_iv.empty();
    for (const SaInterval& hit : {fwd_iv, rev_iv}) {
      for (std::uint32_t row = hit.lo; row < hit.hi; ++row) {
        result.positions.push_back(index.suffix_array()[row]);
      }
    }
    return result;
  }
  for (unsigned budget = 1; budget <= max_mismatches; ++budget) {
    std::vector<std::uint32_t> strand_positions[2];
    for (int strand = 0; strand < 2; ++strand) {
      for (const ApproxHit& hit :
           approx_count(index, strand == 0 ? codes : std::span<const std::uint8_t>(rc),
                        budget)) {
        if (hit.mismatches != budget) continue;
        for (std::uint32_t row = hit.interval.lo; row < hit.interval.hi; ++row) {
          strand_positions[strand].push_back(index.suffix_array()[row]);
        }
      }
      std::sort(strand_positions[strand].begin(), strand_positions[strand].end());
    }
    if (strand_positions[0].empty() && strand_positions[1].empty()) continue;
    result.stage = static_cast<std::uint8_t>(budget);
    result.reverse_strand = strand_positions[0].empty();
    result.positions = std::move(strand_positions[0]);
    result.positions.insert(result.positions.end(), strand_positions[1].begin(),
                            strand_positions[1].end());
    return result;
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const auto setup = parse_setup(argc, argv, /*default_scale=*/0.25);
  JsonReport report("bench_approx_search", setup.json);
  print_header("Approximate search: branch recursion vs search schemes", setup);

  const auto genome = ecoli_reference(setup);
  const auto builder = [](std::span<const std::uint8_t> bwt) {
    return RrrWaveletOcc(bwt, RrrParams{15, 50});
  };
  const FmIndex<RrrWaveletOcc> index(genome, builder);
  const BidirFmIndex<RrrWaveletOcc> bidir(index, genome, builder);
  std::printf("reference: %zu bp (fwd+rev FM-indexes built)\n", genome.size());

  // Substitution-error reads so a meaningful fraction needs the 1- and
  // 2-mismatch stages — the regime the schemes were built for.
  ReadSimConfig rc;
  rc.num_reads = scaled(20'000, setup.scale);
  rc.read_length = 64;
  rc.mapping_ratio = 0.95;
  rc.error_rate = 0.03;
  rc.seed = setup.seed + 7;
  const ReadBatch batch = ReadBatch::from_simulated(simulate_reads(genome, rc));
  std::printf("reads: %zu x %u bp, %.0f%% genomic, %.1f%% per-base error\n\n",
              batch.size(), rc.read_length, rc.mapping_ratio * 100.0,
              rc.error_rate * 100.0);

  // Best of three passes per mode: the enforced floor is the ratio of
  // these two numbers, and a single pass is at the mercy of frequency
  // ramps and cold caches.
  double branch_seconds = 0.0, scheme_seconds = 0.0;
  std::vector<StagedReadResult> branch, scheme;
  for (int rep = 0; rep < 3; ++rep) {
    double seconds = 0.0;
    WallTimer timer;
    branch.clear();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      branch.push_back(branch_stage_read(index, batch.read(i), 2));
    }
    seconds = timer.seconds();
    if (rep == 0 || seconds < branch_seconds) branch_seconds = seconds;
  }
  for (int rep = 0; rep < 3; ++rep) {
    double seconds = 0.0;
    scheme = approx_map_batch(bidir, batch, 2, 1, &seconds);
    if (rep == 0 || seconds < scheme_seconds) scheme_seconds = seconds;
  }

  // A wrong answer can never look fast: the modes must agree on every read.
  if (branch.size() != scheme.size()) {
    std::fprintf(stderr, "FATAL: result count mismatch\n");
    return 1;
  }
  std::uint64_t aligned = 0;
  std::size_t per_stage[3] = {0, 0, 0};
  for (std::size_t i = 0; i < branch.size(); ++i) {
    if (branch[i].stage != scheme[i].stage ||
        branch[i].reverse_strand != scheme[i].reverse_strand ||
        branch[i].positions != scheme[i].positions) {
      std::fprintf(stderr, "FATAL: branch/scheme disagree on read %zu\n", i);
      return 1;
    }
    if (branch[i].stage != StagedReadResult::kUnaligned) {
      ++aligned;
      ++per_stage[branch[i].stage];
    }
  }

  const double branch_rps = static_cast<double>(batch.size()) / branch_seconds;
  const double scheme_rps = static_cast<double>(batch.size()) / scheme_seconds;
  const double speedup = branch_seconds / scheme_seconds;
  std::printf("aligned %llu/%zu reads (stage 0/1/2: %zu/%zu/%zu), "
              "results byte-identical\n",
              static_cast<unsigned long long>(aligned), batch.size(),
              per_stage[0], per_stage[1], per_stage[2]);
  std::printf("%-24s %12s %12s\n", "mode", "time [ms]", "reads/s");
  std::printf("%-24s %12.1f %12.0f\n", "branch (per-stratum)",
              branch_seconds * 1e3, branch_rps);
  std::printf("%-24s %12.1f %12.0f\n", "scheme (bidirectional)",
              scheme_seconds * 1e3, scheme_rps);
  std::printf("scheme vs branch speedup: %.2fx\n", speedup);

  report.metric("branch_reads_per_sec", branch_rps);
  report.metric("scheme_reads_per_sec", scheme_rps);
  report.metric("aligned_fraction",
                static_cast<double>(aligned) / static_cast<double>(batch.size()));
  report.metric("scheme_vs_branch_speedup", speedup);
  report.emit();
  return 0;
}
