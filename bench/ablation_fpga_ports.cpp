// Ablation: FPGA device-model sensitivity. Varies the port width (the
// paper fixes 512-bit bursts), the kernel clock and the superblock factor,
// reporting the modeled kernel time for a fixed workload. Shows where the
// paper's 512-bit choice sits: at sf=50, narrower ports inflate the
// backward-search step II and the mapping time with it.
#include <cstdio>

#include "bench_util.hpp"
#include "mapper/fpga_mapper.hpp"
#include "mapper/software_mapper.hpp"
#include "sim/read_sim.hpp"

int main(int argc, char** argv) {
  using namespace bwaver;
  using namespace bwaver::bench;

  const auto setup = parse_setup(argc, argv, /*default_scale=*/0.05);
  print_header("Ablation: FPGA model port width / clock / sf", setup);

  const auto genome = ecoli_reference(setup);
  ReadSimConfig rc;
  rc.num_reads = scaled(200'000, setup.scale * 5);
  rc.read_length = 50;
  rc.mapping_ratio = 0.9;
  const ReadBatch batch = ReadBatch::from_simulated(simulate_reads(genome, rc));
  std::printf("reference: %zu bp, reads: %zu x %u bp\n\n", genome.size(), batch.size(),
              rc.read_length);

  std::printf("%6s %6s %10s %8s %16s %14s\n", "sf", "port", "clock", "step II",
              "kernel [ms]", "total [ms]");
  for (unsigned sf : {50u, 100u, 200u}) {
    const BwaverCpuMapper cpu(genome, RrrParams{15, sf});
    for (unsigned port : {64u, 128u, 256u, 512u}) {
      for (double clock_mhz : {250.0}) {
        DeviceSpec spec;
        spec.port_width_bits = port;
        spec.kernel_clock_hz = clock_mhz * 1e6;
        BwaverFpgaMapper fpga(cpu.index(), spec);
        FpgaMapReport report;
        fpga.map(batch, &report);
        std::printf("%6u %6u %7.0fMHz %8u %16.3f %14.3f\n", sf, port, clock_mhz,
                    fpga.runtime().kernel()->step_initiation_interval(),
                    report.kernel_seconds * 1e3, report.total_seconds() * 1e3);
      }
    }
  }

  std::printf("\nclock sweep at the paper's 512-bit port, sf=50:\n");
  std::printf("%10s %16s\n", "clock", "kernel [ms]");
  const BwaverCpuMapper cpu(genome, RrrParams{15, 50});
  for (double clock_mhz : {150.0, 250.0, 300.0, 500.0}) {
    DeviceSpec spec;
    spec.kernel_clock_hz = clock_mhz * 1e6;
    BwaverFpgaMapper fpga(cpu.index(), spec);
    FpgaMapReport report;
    fpga.map(batch, &report);
    std::printf("%7.0fMHz %16.3f\n", clock_mhz, report.kernel_seconds * 1e3);
  }
  return 0;
}
