// Engine preparation is paid once per (index generation, engine): the
// serving path takes its engines from the registry handle's EngineCache, so
// after the first request to a (reference, engine) no request prepares
// again, concurrent first requests prepare once, the prepared engines are
// released with their generation, and the served SAM stays byte-identical
// to the CLI pipeline for every engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "app/web_service.hpp"
#include "fleet/http_client.hpp"
#include "fmindex/dna.hpp"
#include "io/fasta.hpp"
#include "io/fastq.hpp"
#include "kernels/registry.hpp"
#include "mapper/map_service.hpp"
#include "mapper/pipeline.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/genome_sim.hpp"
#include "sim/read_sim.hpp"
#include "store/index_registry.hpp"
#include "test_temp_dir.hpp"

namespace bwaver {
namespace {

constexpr const char* kPrepareTotal = "bwaver_engine_prepare_total";

std::uint64_t prepare_count(obs::MetricsRegistry& metrics, MappingEngine engine) {
  return metrics
      .counter(kPrepareTotal, "Engine preparations",
               {{"engine", kernels::engine_spec(engine).name}})
      .value();
}

class EngineCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::unique_test_dir("bwaver_engine_cache");
    GenomeSimConfig genome_config;
    genome_config.length = 30000;
    genome_config.seed = 404;
    genome_ = simulate_genome(genome_config);
    ReadSimConfig read_config;
    read_config.num_reads = 80;
    read_config.read_length = 40;
    read_config.mapping_ratio = 0.8;
    read_config.seed = 17;
    reads_ = reads_to_fastq(simulate_reads(genome_, read_config));
    fastq_ = format_fastq(reads_);

    // A store holding one archive, as `bwaver index build` writes it.
    Pipeline builder;
    builder.build_from_sequence("refA", dna_decode_string(genome_));
    store_ = (dir_ / "store").string();
    IndexRegistry seed_registry(store_);
    seed_registry.adopt("refA", write_archive(builder));
  }

  void TearDown() override {
    std::error_code discard;
    std::filesystem::remove_all(dir_, discard);
  }

  std::string write_archive(const Pipeline& pipeline) {
    const std::string path = (dir_ / ("staged" + std::to_string(staged_++) + ".bwva")).string();
    pipeline.save_index(path);
    return path;
  }

  /// A fresh generation of refA, loaded from its own archive.
  StoredIndex rebuilt_index() {
    Pipeline pipeline;
    pipeline.build_from_sequence("refA", dna_decode_string(genome_));
    return read_index_archive(write_archive(pipeline));
  }

  std::filesystem::path dir_;
  std::string store_;
  int staged_ = 0;
  std::vector<std::uint8_t> genome_;
  std::vector<FastqRecord> reads_;
  std::string fastq_;
};

TEST_F(EngineCacheTest, ReplicaPathPreparesEachEngineOnce) {
  WebServiceOptions options;
  options.store_dir = store_;
  options.jobs.workers = 2;
  WebService service(options);
  service.start(0);
  fleet::HttpClient client;

  for (const auto& spec : kernels::engines()) {
    const std::string query = std::string("?ref=refA&engine=") + spec.name;
    std::string first_sam;
    for (int round = 0; round < 3; ++round) {
      const fleet::ClientResponse mapped =
          client.request("127.0.0.1", service.port(), "POST", "/map" + query, fastq_);
      ASSERT_EQ(mapped.status, 200) << spec.name << ": " << mapped.body;
      if (round == 0) first_sam = mapped.body;
      EXPECT_EQ(mapped.body, first_sam) << spec.name;

      const fleet::ClientResponse submitted =
          client.request("127.0.0.1", service.port(), "POST", "/jobs" + query, fastq_);
      ASSERT_EQ(submitted.status, 202) << spec.name << ": " << submitted.body;
      const std::uint64_t id = std::stoull(submitted.body.substr(submitted.body.find(':') + 1));
      EXPECT_EQ(service.jobs().wait(id).state, JobState::kDone) << spec.name;
      EXPECT_EQ(*service.jobs().result(id), first_sam) << spec.name;
      // Warm after the first request: the counter never moves again.
      EXPECT_EQ(prepare_count(service.metrics(), spec.engine), 1u)
          << spec.name << " round " << round;
    }
  }
  const fleet::ClientResponse metrics =
      client.request("127.0.0.1", service.port(), "GET", "/metrics");
  EXPECT_NE(metrics.body.find("bwaver_engine_prepare_seconds_count{engine=\"sampled\"} 1"),
            std::string::npos)
      << metrics.body;
  client.close_idle();  // the server's stop waits out kept-alive connections
  service.stop();
}

TEST_F(EngineCacheTest, ConcurrentFirstRequestsPrepareOnce) {
  IndexRegistry registry(store_);
  const IndexRegistry::Handle handle = registry.acquire("refA");
  for (const auto& spec : kernels::engines()) {
    obs::MetricsRegistry metrics;
    PipelineConfig config;
    config.engine = spec.engine;
    constexpr int kThreads = 8;
    std::atomic<int> ready{0};
    std::vector<std::shared_ptr<const PreparedEngine>> seen(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        obs::ScopedObsContext scoped(obs::ObsContext{nullptr, 0, &metrics});
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
        seen[t] = prepared_engine(*handle, config);
      });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(prepare_count(metrics, spec.engine), 1u) << spec.name;
    for (const auto& engine : seen) EXPECT_EQ(engine, seen.front()) << spec.name;
  }
}

TEST_F(EngineCacheTest, EprAliasesTheArchiveSectionAndEnginesAreCharged) {
  IndexRegistry registry(store_);
  const IndexRegistry::Handle handle = registry.acquire("refA");
  ASSERT_NE(handle->epr, nullptr) << "archives carry the epr section";
  const std::size_t heap_before = registry.heap_bytes();

  PipelineConfig config;
  config.engine = MappingEngine::kEpr;
  EXPECT_EQ(prepared_engine(*handle, config)->bytes(), 0u) << "epr must alias the archive";
  config.engine = MappingEngine::kBowtie2Like;
  const std::size_t sampled_bytes = prepared_engine(*handle, config)->bytes();
  EXPECT_GT(sampled_bytes, 0u);
  EXPECT_EQ(registry.heap_bytes(), heap_before + sampled_bytes);
  EXPECT_EQ(registry.list().front().heap_bytes, heap_before + sampled_bytes);

  // An index without the section (built in memory) transposes once instead.
  IndexRegistry memory_only;
  memory_only.add("refA", [&] {
    StoredIndex stored = rebuilt_index();
    stored.epr.reset();
    return stored;
  }());
  config.engine = MappingEngine::kEpr;
  EXPECT_GT(prepared_engine(*memory_only.acquire("refA"), config)->bytes(), 0u);
}

TEST_F(EngineCacheTest, RolloverReleasesTheOldGenerationsEnginesOnceDrained) {
  IndexRegistry registry(store_);
  IndexRegistry::Handle in_flight = registry.acquire("refA");
  std::vector<std::weak_ptr<const PreparedEngine>> old_engines;
  for (const auto& spec : kernels::engines()) {
    PipelineConfig config;
    config.engine = spec.engine;
    old_engines.push_back(prepared_engine(*in_flight, config));
  }
  const std::size_t sampled = static_cast<std::size_t>(MappingEngine::kBowtie2Like);

  registry.rollover("refA", rebuilt_index());
  for (const auto& engine : old_engines) {
    EXPECT_FALSE(engine.expired()) << "an in-flight handle keeps its generation's engines";
  }
  PipelineConfig config;
  config.engine = MappingEngine::kBowtie2Like;
  EXPECT_NE(prepared_engine(*registry.acquire("refA"), config), old_engines[sampled].lock())
      << "the new generation prepares its own engines";

  in_flight.reset();
  for (const auto& engine : old_engines) EXPECT_TRUE(engine.expired());
}

TEST_F(EngineCacheTest, EvictReleasesEnginesOnceDrained) {
  IndexRegistry registry(store_);
  IndexRegistry::Handle in_flight = registry.acquire("refA");
  PipelineConfig config;
  config.engine = MappingEngine::kVector;
  const std::weak_ptr<const PreparedEngine> engine = prepared_engine(*in_flight, config);

  ASSERT_TRUE(registry.evict("refA"));
  EXPECT_FALSE(engine.expired());
  in_flight.reset();
  EXPECT_TRUE(engine.expired());
}

TEST_F(EngineCacheTest, ServedSamMatchesTheCliForEveryEngine) {
  WebServiceOptions options;
  options.store_dir = store_;
  WebService service(options);
  service.start(0);
  fleet::HttpClient client;
  IndexRegistry registry(store_);
  for (const auto& spec : kernels::engines()) {
    PipelineConfig config;
    config.engine = spec.engine;
    Pipeline cli = Pipeline::from_archive(registry.archive_path("refA"), config);
    const std::string expected = cli.map_records(reads_).sam;
    const fleet::ClientResponse served =
        client.request("127.0.0.1", service.port(), "POST",
                       std::string("/map?ref=refA&engine=") + spec.name, fastq_);
    ASSERT_EQ(served.status, 200) << spec.name;
    EXPECT_EQ(served.body, expected) << spec.name;
  }
  client.close_idle();  // the server's stop waits out kept-alive connections
  service.stop();
}

}  // namespace
}  // namespace bwaver
