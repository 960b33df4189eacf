// OpenCL-style host runtime model.
//
// The paper benchmarks through "OpenCL events that provide an easy to use
// API to profile the code that runs on the FPGA device". This runtime
// reproduces that interface shape: a command queue with enqueue_write /
// enqueue_kernel / enqueue_read returning events carrying
// queued/submitted/start/end timestamps on a modeled device timeline
// (nanoseconds since runtime creation). Data moves functionally through the
// calls; durations come from the DeviceSpec link/clock model:
//
//   * buffer writes/reads — PCIe transfer at the modeled link bandwidth;
//   * kernel runs         — HlsMapperKernel cycle counts at the kernel clock;
//   * program()           — structure PCIe transfer + on-chip load.
//
// Commands execute in-order (a single in-order command queue, as in the
// paper's host code).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fpga/hls_kernel.hpp"

namespace bwaver {

enum class CommandType { kProgram, kWriteBuffer, kReadBuffer, kKernel };

/// Profiling record, mirroring clGetEventProfilingInfo's four timestamps.
struct Event {
  CommandType type{};
  std::uint64_t queued_ns = 0;
  std::uint64_t submitted_ns = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;

  std::uint64_t duration_ns() const noexcept { return end_ns - start_ns; }
};

using EventPtr = std::shared_ptr<const Event>;

class FpgaRuntime {
 public:
  explicit FpgaRuntime(DeviceSpec spec = DeviceSpec{}) : spec_(spec) {}

  /// A runtime over an already-programmed kernel, shared read-only with
  /// other runtimes: no program event is recorded, the load was paid once.
  explicit FpgaRuntime(std::shared_ptr<const HlsMapperKernel> kernel)
      : spec_(kernel->spec()), kernel_(std::move(kernel)) {}

  /// Loads the succinct structure onto the device (bitstream + data load in
  /// the real flow). Must be called before enqueue_kernel.
  EventPtr program(const FmIndex<RrrWaveletOcc>& index);

  /// Host-to-device transfer of `bytes` (e.g. a batch of query packets).
  EventPtr enqueue_write(std::size_t bytes);

  /// Kernel execution over a batch; results are appended to `results`.
  EventPtr enqueue_kernel(std::span<const QueryPacket> batch,
                          std::vector<QueryResult>& results);

  /// Device-to-host transfer of `bytes` (e.g. the result records).
  EventPtr enqueue_read(std::size_t bytes);

  /// Blocks until all enqueued commands completed. (The model executes
  /// eagerly, so this only exists for interface fidelity.)
  void finish() const noexcept {}

  bool programmed() const noexcept { return kernel_ != nullptr; }
  const std::shared_ptr<const HlsMapperKernel>& kernel() const noexcept { return kernel_; }
  const DeviceSpec& spec() const noexcept { return spec_; }

  /// Current end of the modeled device timeline.
  std::uint64_t device_time_ns() const noexcept { return timeline_ns_; }

  /// Cumulative kernel statistics across all enqueued batches.
  const KernelStats& total_kernel_stats() const noexcept { return kernel_stats_; }

  /// Events issued so far, in completion order.
  const std::vector<EventPtr>& events() const noexcept { return events_; }

 private:
  EventPtr record(CommandType type, std::uint64_t duration_ns);
  std::uint64_t transfer_ns(std::size_t bytes) const noexcept;

  DeviceSpec spec_;
  std::shared_ptr<const HlsMapperKernel> kernel_;
  std::uint64_t timeline_ns_ = 0;
  KernelStats kernel_stats_;
  std::vector<EventPtr> events_;
};

}  // namespace bwaver
