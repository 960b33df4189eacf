// The mapping-engine registry.
//
// Promotes the implicit software/FPGA split of the mapper into an
// enumerable registry: every engine — the modeled FPGA device and the four
// software Occ backends — carries a canonical name, the Occ structure it
// searches, and capability/size metadata. The CLI, the web service, the
// shared correctness testbed and the kernel bench all resolve engines
// through this one table, so adding a backend is a registry entry plus an
// Occ class, not a mapper change — the EPR dictionary ("epr") arrived
// exactly that way.
#pragma once

#include <optional>
#include <span>
#include <string_view>

namespace bwaver {

/// All mapping engines. The first three values predate the registry and
/// keep their order (kCpu = the paper's RRR software search, kBowtie2Like
/// = the sampled-occ baseline).
enum class MappingEngine {
  kFpga,         ///< modeled FPGA device over the RRR wavelet tree
  kCpu,          ///< software search, RrrWaveletOcc ("rrr")
  kBowtie2Like,  ///< software search, SampledOcc ("sampled")
  kVector,       ///< software search, VectorOcc + SIMD kernels ("vector")
  kEpr,          ///< software search, EprOcc constant-time rank ("epr")
};
/// Number of MappingEngine values (kEpr stays last).
inline constexpr std::size_t kMappingEngineCount =
    static_cast<std::size_t>(MappingEngine::kEpr) + 1;

namespace kernels {

struct EngineSpec {
  MappingEngine engine;
  const char* name;         ///< canonical CLI/JSON name
  const char* alias;        ///< accepted legacy spelling (nullptr if none)
  const char* occ_backend;  ///< Occ class the engine searches
  const char* description;
  bool device_model;            ///< modeled hardware rather than host execution
  bool vectorized;              ///< ranks dispatch through the SIMD kernels
  double approx_bytes_per_base; ///< occ-structure size estimate (metadata only)
};

/// Every registered engine, in enum order.
std::span<const EngineSpec> engines();

/// The spec for one engine.
const EngineSpec& engine_spec(MappingEngine engine);

/// Canonical-name or alias lookup ("fpga", "rrr"/"cpu",
/// "sampled"/"bowtie2like", "vector", "epr"); nullopt for anything else.
std::optional<MappingEngine> parse_engine_name(std::string_view name);

/// Engine used when no --engine flag is given: $BWAVER_ENGINE if set to a
/// valid name, else the FPGA model (the paper's primary configuration).
MappingEngine default_engine();

/// The counting-kernel name a run of this engine dispatches to right now:
/// the active SIMD kernel for vectorized engines, "scalar" otherwise.
const char* engine_kernel_name(MappingEngine engine);

}  // namespace kernels
}  // namespace bwaver
