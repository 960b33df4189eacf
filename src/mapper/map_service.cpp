#include "mapper/map_service.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>

#include "mapper/fpga_mapper.hpp"
#include "mapper/pipeline.hpp"
#include "mapper/read_batch.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace bwaver {

namespace {

/// Reads dispatched to the engine between cancellation checkpoints. Large
/// enough that the per-chunk engine call amortizes, small enough that a
/// DELETE /jobs/{id} or deadline takes effect promptly.
constexpr std::size_t kCancellableChunk = 2048;

/// Rows resolved between checkpoints inside one chunk.
constexpr std::size_t kResolveCheckStride = 1024;

/// Smallest worthwhile parallel shard: below this the batch/dispatch
/// overhead beats the parallelism.
constexpr std::size_t kMinShardSize = 64;

/// Reads per shard for the parallel software path. Auto mode aims for a
/// few shards per worker (load balancing without excessive batch-building
/// overhead); a cancel token caps the shard so cancellation latency stays
/// bounded like the sequential chunked path.
std::size_t effective_shard_size(std::size_t total, unsigned threads,
                                 std::size_t configured, bool cancellable) {
  std::size_t shard = configured;
  if (shard == 0) {
    const std::size_t target_shards = static_cast<std::size_t>(threads) * 4;
    shard = std::max(kMinShardSize, (total + target_shards - 1) / target_shards);
  }
  if (cancellable) shard = std::min(shard, kCancellableChunk);
  return std::max<std::size_t>(shard, 1);
}

/// Stage-latency bucket ladder (seconds): finer than the request-latency
/// ladder because stage splits of small batches live in the 10 µs .. 100 ms
/// range.
std::vector<double> stage_time_bounds() {
  return {1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0};
}

/// Records the per-stage split into the ambient metrics registry (if one is
/// installed) and appends aggregated stage spans under `parent` (if the
/// ambient trace is live). `mode` labels the series with the effective
/// search-scheduling order; `sweep` (non-zero only under sweep mode) feeds
/// the bwaver_sweep_* scheduler counters. `fpga` optionally adds the
/// modeled device-phase children under the search span.
void publish_stages(const obs::ObsContext& ctx, std::uint32_t parent,
                    const MappingStageTimings& stages, const char* engine,
                    const char* mode, const SweepStats& sweep,
                    const FpgaMapReport* fpga) {
  if (ctx.metrics != nullptr) {
    static constexpr const char* kName = "bwaver_map_stage_seconds";
    static constexpr const char* kHelp =
        "Per-stage mapping time, by engine, search mode and stage";
    ctx.metrics
        ->histogram(kName, kHelp, stage_time_bounds(),
                    {{"engine", engine}, {"search_mode", mode}, {"stage", "seed"}})
        .observe_ms(stages.seed_ms);
    ctx.metrics
        ->histogram(kName, kHelp, stage_time_bounds(),
                    {{"engine", engine}, {"search_mode", mode}, {"stage", "search"}})
        .observe_ms(stages.search_ms);
    ctx.metrics
        ->histogram(kName, kHelp, stage_time_bounds(),
                    {{"engine", engine}, {"search_mode", mode}, {"stage", "locate"}})
        .observe_ms(stages.locate_ms);
    ctx.metrics
        ->histogram(kName, kHelp, stage_time_bounds(),
                    {{"engine", engine}, {"search_mode", mode}, {"stage", "sam"}})
        .observe_ms(stages.sam_ms);
    if (sweep.batches != 0) {
      const obs::Labels labels{{"engine", engine}};
      ctx.metrics
          ->counter("bwaver_sweep_batches_total",
                    "Sweep-scheduler invocations (one per shard or chunk)", labels)
          .inc(sweep.batches);
      ctx.metrics
          ->counter("bwaver_sweep_passes_total",
                    "Step sweeps over the in-flight state pool (search depth)",
                    labels)
          .inc(sweep.passes);
      ctx.metrics
          ->counter("bwaver_sweep_state_steps_total",
                    "Single-read search steps executed by the sweep scheduler",
                    labels)
          .inc(sweep.state_steps);
      ctx.metrics
          ->gauge("bwaver_sweep_peak_active",
                  "Largest in-flight state pool of the latest sweep run (batch "
                  "occupancy)",
                  labels)
          .set(static_cast<double>(sweep.peak_active));
    }
  }
  if (ctx.trace != nullptr) {
    ctx.trace->emit("seed", parent, -1.0, stages.seed_ms);
    const std::uint32_t search = ctx.trace->emit("search", parent, -1.0, stages.search_ms);
    if (fpga != nullptr) {
      // Modeled device phases nested under the search span — the split the
      // paper's OpenCL event profiling reports (transfer = buffer movement;
      // the one-time structure load, fpga:program, sits under "prepare").
      ctx.trace->emit("fpga:transfer", search, -1.0, fpga->transfer_seconds * 1e3);
      ctx.trace->emit("fpga:kernel", search, -1.0, fpga->kernel_seconds * 1e3);
    }
    ctx.trace->emit("locate", parent, -1.0, stages.locate_ms);
    ctx.trace->emit("sam", parent, -1.0, stages.sam_ms);
  }
}

}  // namespace

std::vector<SamSequence> sam_sequences_for(const ReferenceSet& reference) {
  std::vector<SamSequence> sequences;
  sequences.reserve(reference.num_sequences());
  for (const auto& seq : reference.sequences()) {
    sequences.push_back(SamSequence{seq.name, seq.length});
  }
  return sequences;
}

void resolve_query_results(const ReferenceSet& reference,
                           std::span<const std::uint32_t> suffix_array,
                           std::span<const FastqRecord> records,
                           std::span<const QueryResult> results,
                           std::size_t max_hits_per_read, MappingOutcome& outcome,
                           std::vector<SamAlignment>& alignments,
                           const CancelToken* cancel) {
  // Resolve SA intervals to per-sequence positions, dropping matches that
  // straddle a concatenation boundary.
  outcome.reads += results.size();
  std::size_t since_check = 0;
  for (const QueryResult& result : results) {
    if (cancel != nullptr && ++since_check >= kResolveCheckStride) {
      since_check = 0;
      cancel->throw_if_stopped();
    }
    const auto& record = records[result.id];
    const auto read_length = static_cast<std::uint32_t>(record.sequence.size());
    std::size_t survivors = 0;
    std::size_t emitted = 0;
    for (int strand = 0; strand < 2; ++strand) {
      const bool reverse = strand == 1;
      const std::uint32_t lo = reverse ? result.rev_lo : result.fwd_lo;
      const std::uint32_t hi = reverse ? result.rev_hi : result.fwd_hi;
      for (std::uint32_t row = lo; row < hi; ++row) {
        const auto local = reference.resolve_span(suffix_array[row], read_length);
        if (!local) continue;  // straddles a sequence boundary
        ++survivors;
        ++outcome.occurrences;
        if (emitted < max_hits_per_read) {
          alignments.push_back(SamAlignment{
              record.name, reverse, reference.sequence(local->sequence_index).name,
              local->offset, read_length, true});
          ++emitted;
        }
      }
    }
    if (survivors == 0) {
      alignments.push_back(
          SamAlignment{record.name, false, "", 0, read_length, /*mapped=*/false});
    } else {
      ++outcome.mapped;
    }
  }
}

PreparedEngine::PreparedEngine(const FmIndex<RrrWaveletOcc>& index, const EprOcc* epr,
                               const PipelineConfig& config)
    : engine_(config.engine), index_(&index) {
  WallTimer timer;
  // The other software engines search an Occ derived from the archive's BWT;
  // the mapper is shared by every request, so its search is const.
  const auto derive = [this, &index](auto builder) {
    using Occ = decltype(builder(std::span<const std::uint8_t>{}));
    auto mapper = std::make_shared<const DerivedOccMapper<Occ>>(index, builder);
    bytes_ = mapper->index().occ_size_in_bytes();
    search_ = [mapper](const ReadBatch& batch, unsigned threads, SoftwareMapReport* report,
                       SearchMode mode) { return mapper->map(batch, threads, report, mode); };
  };
  switch (engine_) {
    case MappingEngine::kFpga: {
      FpgaRuntime runtime(config.device);
      program_seconds_ = static_cast<double>(runtime.program(index)->duration_ns()) * 1e-9;
      kernel_ = runtime.kernel();
      break;
    }
    case MappingEngine::kCpu:
      search_ = [base = &index](const ReadBatch& batch, unsigned threads,
                                SoftwareMapReport* report, SearchMode mode) {
        return detail::map_batch_mode(*base, batch, threads, report, mode);
      };
      break;
    case MappingEngine::kBowtie2Like:
      derive([](std::span<const std::uint8_t> bwt) { return SampledOcc(bwt, 4); });
      break;
    case MappingEngine::kVector:
      derive([](std::span<const std::uint8_t> bwt) { return VectorOcc(bwt); });
      break;
    case MappingEngine::kEpr:
      if (epr != nullptr && epr->size() == index.bwt().symbols.size()) {
        derive([epr](std::span<const std::uint8_t>) { return EprOcc::view_of(*epr); });
        bytes_ = 0;  // aliases the archive section
      } else {
        derive([](std::span<const std::uint8_t> bwt) { return EprOcc(bwt); });
      }
      break;
  }
  prepare_seconds_ = timer.seconds();
}

std::shared_ptr<const PreparedEngine> prepared_engine(const StoredIndex& stored,
                                                      const PipelineConfig& config) {
  return stored.engines->get_or_prepare(config.engine, [&] {
    auto engine = std::make_shared<const PreparedEngine>(stored.index, stored.epr.get(), config);
    const obs::ObsContext& ctx = obs::current_context();
    obs::MetricsRegistry& metrics =
        ctx.metrics != nullptr ? *ctx.metrics : obs::default_registry();
    const obs::Labels labels{{"engine", kernels::engine_spec(config.engine).name}};
    metrics
        .counter("bwaver_engine_prepare_total",
                 "Engine preparations (one per index generation and engine)", labels)
        .inc(1);
    metrics
        .histogram("bwaver_engine_prepare_seconds", "Wall time of engine preparations",
                   stage_time_bounds(), labels)
        .observe(engine->prepare_seconds());
    if (ctx.trace != nullptr && engine->kernel() != nullptr) {
      ctx.trace->emit("fpga:program", ctx.parent_span, -1.0, engine->program_seconds() * 1e3);
    }
    return std::pair{EngineCache::Engine(engine), engine->bytes()};
  });
}

namespace {

/// Frees the alignment records once the SAM document is rendered from them,
/// inside the sam stage's timer: on a fast engine the teardown of a large
/// batch's records is otherwise a visible unattributed tail of the map span.
void release(std::vector<SamAlignment>& alignments) {
  std::vector<SamAlignment>().swap(alignments);
}

/// map_records_over's body, run inside the caller's "map_records" span.
MappingOutcome map_prepared(const PreparedEngine& engine, const ReferenceSet& reference,
                            const PipelineConfig& config,
                            const std::vector<FastqRecord>& records, double* mapping_seconds,
                            const CancelToken* cancel) {
  if (cancel != nullptr) cancel->throw_if_stopped();

  // Ambient observability: a no-op unless a job/CLI run installed a context.
  // The open map span parents the per-stage spans; the context is
  // snapshotted here so shard workers can re-install it on their own threads.
  const obs::ObsContext obs_ctx = obs::current_context();

  // The engine is prepared; per call only the FPGA gets a fresh host driver
  // (its runtime records events, so concurrent requests cannot share one).
  // With no cancel token everything goes in one chunk; with a token each
  // chunk boundary is a checkpoint.
  const FmIndex<RrrWaveletOcc>& index = engine.index();
  const bool device = engine.engine() == MappingEngine::kFpga;
  std::optional<BwaverFpgaMapper> fpga;
  if (device) fpga.emplace(engine.kernel(), index, 8192, config.fpga_verify_stride);
  const PreparedEngine::Search& search = engine.search();
  const SearchMode mode = config.search_mode;
  const char* engine_name = kernels::engine_spec(engine.engine()).name;
  // The FPGA kernel already streams query packets — the scheduling flag is
  // a documented no-op there, and its series stay labeled per-read.
  const char* mode_name = search_mode_name(device ? SearchMode::kPerRead : mode);

  MappingOutcome outcome;
  std::vector<SamAlignment> alignments;
  alignments.reserve(records.size());
  double seconds = 0.0;

  const std::span<const FastqRecord> all(records);

  // Software engines shard the batch across a pool: each shard maps and
  // resolves into its own buffers (single-threaded engine call per shard),
  // and the buffers are merged in shard order afterwards — so the SAM and
  // every counter are byte-identical to the sequential path regardless of
  // completion order. The FPGA model stays sequential: its modeled runtime
  // mutates device state per batch.
  const bool sharded = !device && config.threads > 1 && records.size() > 1;
  if (sharded) {
    const std::size_t shard_size = effective_shard_size(
        records.size(), config.threads, config.shard_size, cancel != nullptr);
    const std::size_t num_shards = (records.size() + shard_size - 1) / shard_size;

    struct ShardResult {
      MappingOutcome outcome;
      std::vector<SamAlignment> alignments;
    };
    std::vector<ShardResult> shards(num_shards);

    WallTimer timer;
    ThreadPool pool(config.threads);
    // Exceptions (OperationCancelled from a checkpoint, engine failures)
    // propagate out of parallel_for; the pool's destructor joins every
    // in-flight shard before the shard buffers go out of scope.
    pool.parallel_for(num_shards, [&, obs_ctx](std::size_t begin_shard,
                                               std::size_t end_shard) {
      // Re-install the submitting thread's context so shard spans land in
      // the request's trace and stage times in its registry.
      obs::ScopedObsContext scoped(obs_ctx);
      for (std::size_t s = begin_shard; s < end_shard; ++s) {
        if (cancel != nullptr) cancel->throw_if_stopped();
        obs::TraceSpan shard_span("shard");
        const std::span<const FastqRecord> chunk = all.subspan(
            s * shard_size, std::min(shard_size, records.size() - s * shard_size));
        WallTimer stage_timer;
        const ReadBatch batch = ReadBatch::from_fastq(chunk);
        shards[s].outcome.stages.seed_ms = stage_timer.milliseconds();
        stage_timer.reset();
        SoftwareMapReport report;
        std::vector<QueryResult> results = search(batch, 1, &report, mode);
        shards[s].outcome.stages.search_ms = stage_timer.milliseconds();
        shards[s].outcome.sweep = report.sweep;
        stage_timer.reset();
        shards[s].alignments.reserve(results.size());
        resolve_query_results(reference, index.suffix_array(), chunk, results,
                              config.max_hits_per_read, shards[s].outcome,
                              shards[s].alignments, cancel);
        shards[s].outcome.stages.locate_ms = stage_timer.milliseconds();
      }
    });
    seconds = timer.seconds();

    outcome.shards = num_shards;
    for (ShardResult& shard : shards) {
      outcome.reads += shard.outcome.reads;
      outcome.mapped += shard.outcome.mapped;
      outcome.occurrences += shard.outcome.occurrences;
      outcome.stages += shard.outcome.stages;
      outcome.sweep += shard.outcome.sweep;
      alignments.insert(alignments.end(),
                        std::make_move_iterator(shard.alignments.begin()),
                        std::make_move_iterator(shard.alignments.end()));
    }
    if (mapping_seconds != nullptr) *mapping_seconds = seconds;
    WallTimer sam_timer;
    outcome.sam = format_sam(sam_sequences_for(reference), alignments);
    release(alignments);
    outcome.stages.sam_ms = sam_timer.milliseconds();
    publish_stages(obs_ctx, obs_ctx.parent_span, outcome.stages, engine_name, mode_name,
                   outcome.sweep, nullptr);
    return outcome;
  }

  // Accumulated modeled device phases across chunks (FPGA engine only) —
  // feeds the fpga:* child spans under "search".
  FpgaMapReport fpga_total;
  const std::size_t chunk_size =
      cancel == nullptr ? std::max<std::size_t>(records.size(), 1) : kCancellableChunk;
  for (std::size_t begin = 0; begin < records.size(); begin += chunk_size) {
    if (cancel != nullptr) cancel->throw_if_stopped();
    const std::span<const FastqRecord> chunk =
        all.subspan(begin, std::min(chunk_size, records.size() - begin));
    WallTimer stage_timer;
    const ReadBatch batch = ReadBatch::from_fastq(chunk);
    outcome.stages.seed_ms += stage_timer.milliseconds();
    stage_timer.reset();

    std::vector<QueryResult> results;
    if (device) {
      FpgaMapReport report;
      results = fpga->map(batch, &report);
      seconds += report.total_seconds();
      // The FPGA search stage is modeled device time, not host wall time.
      outcome.stages.search_ms += report.total_seconds() * 1e3;
      fpga_total.transfer_seconds += report.transfer_seconds;
      fpga_total.kernel_seconds += report.kernel_seconds;
    } else {
      SoftwareMapReport report;
      results = search(batch, config.threads, &report, mode);
      seconds += report.seconds;
      outcome.stages.search_ms += stage_timer.milliseconds();
      outcome.sweep += report.sweep;
    }
    stage_timer.reset();
    resolve_query_results(reference, index.suffix_array(), chunk, results,
                          config.max_hits_per_read, outcome, alignments, cancel);
    outcome.stages.locate_ms += stage_timer.milliseconds();
  }
  if (mapping_seconds != nullptr) *mapping_seconds = seconds;

  WallTimer sam_timer;
  outcome.sam = format_sam(sam_sequences_for(reference), alignments);
  release(alignments);
  outcome.stages.sam_ms = sam_timer.milliseconds();
  publish_stages(obs_ctx, obs_ctx.parent_span, outcome.stages, engine_name, mode_name,
                 outcome.sweep, device ? &fpga_total : nullptr);
  return outcome;
}

}  // namespace

MappingOutcome map_records_over(const PreparedEngine& engine, const ReferenceSet& reference,
                                const PipelineConfig& config,
                                const std::vector<FastqRecord>& records,
                                double* mapping_seconds, const CancelToken* cancel) {
  obs::TraceSpan map_span("map_records");
  return map_prepared(engine, reference, config, records, mapping_seconds, cancel);
}

MappingOutcome map_records_over(const StoredIndex& stored, const PipelineConfig& config,
                                const std::vector<FastqRecord>& records,
                                double* mapping_seconds, const CancelToken* cancel) {
  obs::TraceSpan map_span("map_records");
  std::shared_ptr<const PreparedEngine> engine;
  {
    obs::TraceSpan prepare_span("prepare");
    engine = prepared_engine(stored, config);
  }
  return map_prepared(*engine, stored.reference, config, records, mapping_seconds, cancel);
}

}  // namespace bwaver
