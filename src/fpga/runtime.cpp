#include "fpga/runtime.hpp"

#include <cmath>
#include <stdexcept>

namespace bwaver {

EventPtr FpgaRuntime::record(CommandType type, std::uint64_t duration_ns) {
  auto event = std::make_shared<Event>();
  event->type = type;
  event->queued_ns = timeline_ns_;
  event->submitted_ns = timeline_ns_;
  event->start_ns = timeline_ns_;
  event->end_ns = timeline_ns_ + duration_ns;
  timeline_ns_ = event->end_ns;
  events_.push_back(event);
  return event;
}

std::uint64_t FpgaRuntime::transfer_ns(std::size_t bytes) const noexcept {
  const double seconds =
      static_cast<double>(bytes) / spec_.pcie_bandwidth_bytes_per_sec;
  return static_cast<std::uint64_t>(std::llround(seconds * 1e9));
}

EventPtr FpgaRuntime::program(const FmIndex<RrrWaveletOcc>& index) {
  kernel_ = std::make_shared<const HlsMapperKernel>(spec_, index);
  kernel_stats_ = KernelStats{};
  const std::uint64_t bitstream = static_cast<std::uint64_t>(
      std::llround(spec_.bitstream_program_seconds * 1e9));
  const std::uint64_t pcie = transfer_ns(kernel_->structure_bytes());
  const std::uint64_t load = static_cast<std::uint64_t>(
      std::llround(spec_.cycles_to_seconds(kernel_->structure_load_cycles()) * 1e9));
  return record(CommandType::kProgram, bitstream + pcie + load);
}

EventPtr FpgaRuntime::enqueue_write(std::size_t bytes) {
  return record(CommandType::kWriteBuffer, transfer_ns(bytes));
}

EventPtr FpgaRuntime::enqueue_kernel(std::span<const QueryPacket> batch,
                                     std::vector<QueryResult>& results) {
  if (!kernel_) {
    throw std::logic_error("FpgaRuntime: enqueue_kernel before program()");
  }
  const KernelStats stats = kernel_->run_batch(batch, results);
  kernel_stats_ += stats;
  const std::uint64_t duration = static_cast<std::uint64_t>(
      std::llround(spec_.cycles_to_seconds(stats.compute_cycles) * 1e9));
  return record(CommandType::kKernel, duration);
}

EventPtr FpgaRuntime::enqueue_read(std::size_t bytes) {
  return record(CommandType::kReadBuffer, transfer_ns(bytes));
}

}  // namespace bwaver
