// Engine preparation, dispatch and result resolution over *borrowed* index
// state.
//
// Pipeline owns its index and maps against it; the multi-tenant web service
// instead borrows refcounted read handles from the IndexRegistry and must
// run many mapping requests concurrently against shared, immutable indexes.
// Both paths take their engine from one PreparedEngine factory, cached per
// loaded index, and map through the same free functions, so their SAM output
// is byte-identical by construction.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fmindex/fm_index.hpp"
#include "fmindex/occ_backends.hpp"
#include "fmindex/reference_set.hpp"
#include "fpga/query_packet.hpp"
#include "io/fastq.hpp"
#include "io/sam.hpp"
#include "mapper/software_mapper.hpp"
#include "store/index_archive.hpp"
#include "util/cancellation.hpp"

namespace bwaver {

struct PipelineConfig;
struct MappingOutcome;
class HlsMapperKernel;

/// @SQ header lines for `reference`, in sequence order.
std::vector<SamSequence> sam_sequences_for(const ReferenceSet& reference);

/// Resolves one batch's SA intervals to per-sequence SAM alignments
/// (boundary filtering, `max_hits_per_read` cap) and accumulates the
/// outcome counters.
void resolve_query_results(const ReferenceSet& reference,
                           std::span<const std::uint32_t> suffix_array,
                           std::span<const FastqRecord> records,
                           std::span<const QueryResult> results,
                           std::size_t max_hits_per_read, MappingOutcome& outcome,
                           std::vector<SamAlignment>& alignments,
                           const CancelToken* cancel = nullptr);

/// One mapping engine prepared over a loaded index: the single factory every
/// mapping path (CLI Pipeline, job/replica serving, tests, benches) takes an
/// engine from. What an engine needs beyond the archive is built here once
/// and then shared read-only by any number of concurrent requests:
///   rrr     — nothing; searches the archive's RRR wavelet tree;
///   epr     — aliases the archive's "epr" section zero-copy, or transposes
///             the BWT once when `epr` is null;
///   sampled, vector — encode their Occ once over the archive's BWT,
///             borrowing its suffix array and seed table (DerivedOccMapper);
///             sampled keeps 4-word checkpoints;
///   fpga    — builds (programs) the HlsMapperKernel once; every map call
///             drives it through its own FpgaRuntime.
/// `index` and `epr` must outlive the engine.
class PreparedEngine {
 public:
  using Search = std::function<std::vector<QueryResult>(const ReadBatch&, unsigned,
                                                        SoftwareMapReport*, SearchMode)>;

  /// Prepares `config.engine`; the FPGA model is programmed for config.device.
  PreparedEngine(const FmIndex<RrrWaveletOcc>& index, const EprOcc* epr,
                 const PipelineConfig& config);

  MappingEngine engine() const noexcept { return engine_; }
  const FmIndex<RrrWaveletOcc>& index() const noexcept { return *index_; }
  /// Heap bytes the preparation allocated (0 for rrr and an aliased epr).
  std::size_t bytes() const noexcept { return bytes_; }
  /// Wall time the preparation took.
  double prepare_seconds() const noexcept { return prepare_seconds_; }
  /// Modeled one-time device program time (fpga only, else 0).
  double program_seconds() const noexcept { return program_seconds_; }
  /// The programmed kernel (fpga only, else null).
  const std::shared_ptr<const HlsMapperKernel>& kernel() const noexcept { return kernel_; }
  /// Backward search of one batch (software engines only).
  const Search& search() const noexcept { return search_; }

 private:
  MappingEngine engine_;
  const FmIndex<RrrWaveletOcc>* index_;
  std::size_t bytes_ = 0;
  double prepare_seconds_ = 0.0;
  double program_seconds_ = 0.0;
  std::shared_ptr<const HlsMapperKernel> kernel_;
  Search search_;
};

/// `config.engine` prepared over `stored`, taken from the index's
/// EngineCache: prepared on the first call per (generation, engine), with
/// that call's config (e.g. device), and shared afterwards. Each preparation
/// counts in the ambient (or default) metrics registry as
/// bwaver_engine_prepare_total/_seconds{engine}.
std::shared_ptr<const PreparedEngine> prepared_engine(const StoredIndex& stored,
                                                      const PipelineConfig& config);

/// Maps `records` with a prepared engine against `reference` and renders the
/// SAM document. `config` supplies the per-request knobs (threads, shard
/// size, search mode, hit cap, FPGA verify stride); the engine is
/// `engine.engine()`. If `mapping_seconds` is non-null it receives the
/// engine's wall-clock (software) or modeled (FPGA) time.
///
/// A non-null `cancel` token is polled at cooperative checkpoints (before
/// each engine sub-batch and per chunk of result resolution); once it
/// reports a stop the call unwinds with OperationCancelled. The job
/// subsystem uses this for DELETE /jobs/{id} and deadline enforcement.
MappingOutcome map_records_over(const PreparedEngine& engine, const ReferenceSet& reference,
                                const PipelineConfig& config,
                                const std::vector<FastqRecord>& records,
                                double* mapping_seconds = nullptr,
                                const CancelToken* cancel = nullptr);

/// Same over a loaded index, taking `config.engine` from prepared_engine()
/// under a "prepare" span — the path of every registry handle and Pipeline.
MappingOutcome map_records_over(const StoredIndex& stored, const PipelineConfig& config,
                                const std::vector<FastqRecord>& records,
                                double* mapping_seconds = nullptr,
                                const CancelToken* cancel = nullptr);

}  // namespace bwaver
