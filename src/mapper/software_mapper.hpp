// Software mappers.
//
//   * BwaverCpuMapper   — the paper's "optimized pure software
//     implementation": the identical RRR-wavelet-tree backward search run
//     on the host CPU, optionally across T worker threads.
//   * Bowtie2LikeMapper — the Bowtie2 stand-in for the paper's
//     `-a --score-min C,0,-1` configuration (all exact matches): an
//     FM-index over a 2-bit-packed BWT with checkpointed Occ counters
//     (the index layout CPU mappers actually use), multithreaded.
//
// Both return the same QueryResult records as the FPGA kernel, so results
// can be compared bit-for-bit ("without any loss in accuracy").
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fmindex/epr_occ.hpp"
#include "fmindex/fm_index.hpp"
#include "fmindex/occ_backends.hpp"
#include "fpga/query_packet.hpp"
#include "kernels/vector_occ.hpp"
#include "mapper/batch_scheduler.hpp"
#include "mapper/read_batch.hpp"
#include "util/thread_pool.hpp"

namespace bwaver {

/// Wall-clock report of one software mapping run.
struct SoftwareMapReport {
  double seconds = 0.0;
  unsigned threads = 1;
  std::uint64_t reads = 0;
  std::uint64_t mapped = 0;
  /// Scheduler occupancy counters; all-zero under SearchMode::kPerRead.
  SweepStats sweep;
};

namespace detail {
/// Shared implementation: forward + reverse-complement backward search of
/// every read in `batch` over `index`, chunked across `threads` workers.
template <typename Occ>
std::vector<QueryResult> map_batch(const FmIndex<Occ>& index, const ReadBatch& batch,
                                   unsigned threads, SoftwareMapReport* report);

/// Mode dispatch shared by every software mapper: per-read recurrence or
/// the batched sweep scheduler (batch_scheduler.hpp). Identical results
/// either way.
template <typename Occ>
std::vector<QueryResult> map_batch_mode(const FmIndex<Occ>& index,
                                        const ReadBatch& batch, unsigned threads,
                                        SoftwareMapReport* report, SearchMode mode) {
  return mode == SearchMode::kSweep ? sweep_map_batch(index, batch, threads, report)
                                    : map_batch(index, batch, threads, report);
}
}  // namespace detail

class BwaverCpuMapper {
 public:
  /// Builds the succinct index over the reference (2-bit codes).
  BwaverCpuMapper(std::span<const std::uint8_t> reference, RrrParams params);

  /// Wraps an existing index (not owned).
  explicit BwaverCpuMapper(const FmIndex<RrrWaveletOcc>& index) : index_(&index) {}

  std::vector<QueryResult> map(const ReadBatch& batch, unsigned threads = 1,
                               SoftwareMapReport* report = nullptr,
                               SearchMode mode = SearchMode::kPerRead) const;

  const FmIndex<RrrWaveletOcc>& index() const noexcept { return *index_; }

 private:
  std::unique_ptr<FmIndex<RrrWaveletOcc>> owned_;
  const FmIndex<RrrWaveletOcc>* index_;
};

class Bowtie2LikeMapper {
 public:
  /// `checkpoint_words`: 64-bit words per Occ checkpoint block.
  explicit Bowtie2LikeMapper(std::span<const std::uint8_t> reference,
                             unsigned checkpoint_words = 4);

  std::vector<QueryResult> map(const ReadBatch& batch, unsigned threads = 1,
                               SoftwareMapReport* report = nullptr,
                               SearchMode mode = SearchMode::kPerRead) const;

  const FmIndex<SampledOcc>& index() const noexcept { return index_; }

 private:
  FmIndex<SampledOcc> index_;
};

/// Mapper over an Occ backend re-encoded from an existing index: the BWT,
/// suffix array and seed table are borrowed (zero-copy views) from the
/// base RRR index, only the Occ structure itself is rebuilt — so registry
/// engines beyond the archive's native backend cost one O(n) encode, not a
/// suffix-array reconstruction. Searches give identical SA intervals to
/// the base index by construction.
template <typename Occ>
class DerivedOccMapper {
 public:
  DerivedOccMapper(const FmIndex<RrrWaveletOcc>& base,
                   const typename FmIndex<Occ>::OccBuilder& builder)
      : index_(Bwt{FlatArray<std::uint8_t>::view_of(base.bwt().symbols),
                   base.bwt().primary, base.bwt().text_length},
               FlatArray<std::uint32_t>::view_of(base.suffix_array()), builder),
        base_(&base) {
    index_.set_seed_table(base.shared_seed_table());
  }

  std::vector<QueryResult> map(const ReadBatch& batch, unsigned threads = 1,
                               SoftwareMapReport* report = nullptr,
                               SearchMode mode = SearchMode::kPerRead) const {
    return detail::map_batch_mode(index_, batch, threads, report, mode);
  }

  const FmIndex<Occ>& index() const noexcept { return index_; }
  const FmIndex<RrrWaveletOcc>& base() const noexcept { return *base_; }

 private:
  FmIndex<Occ> index_;  ///< views into base_ — base_ must outlive this
  const FmIndex<RrrWaveletOcc>* base_;
};

using VectorMapper = DerivedOccMapper<VectorOcc>;
using EprMapper = DerivedOccMapper<EprOcc>;

}  // namespace bwaver
