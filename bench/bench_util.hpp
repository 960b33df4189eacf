// Shared scaffolding for the table/figure reproduction benches.
//
// Every bench accepts `--scale F` (default well under the paper's workload
// so the whole suite runs in minutes on a laptop) and `--full` to run the
// paper-sized experiment. Output is a stdout table shaped like the paper's,
// with the paper's own numbers printed alongside for comparison.
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "app/cli.hpp"
#include "sim/genome_sim.hpp"

namespace bwaver::bench {

struct ScaledSetup {
  double scale = 1.0;     ///< fraction of the paper workload
  bool full = false;
  bool json = false;      ///< emit a machine-readable metrics line at the end
  std::uint64_t seed = 42;
};

inline ScaledSetup parse_setup(int argc, char** argv, double default_scale) {
  ArgParser args(argc, argv);
  ScaledSetup setup;
  setup.full = args.has("full");
  setup.scale = setup.full ? 1.0 : args.get_double("scale", default_scale);
  setup.json = args.has("json");
  setup.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  return setup;
}

/// Flat metric collector. With --json the bench prints its human table as
/// usual and then one `{"bench":...,"metrics":{...}}` line (the last '{'
/// line of stdout), which CI captures as an artifact and checks against
/// the floors in bench/baseline.json.
class JsonReport {
 public:
  JsonReport(std::string bench, bool enabled)
      : bench_(std::move(bench)), enabled_(enabled) {}

  void metric(const std::string& key, double value) {
    if (enabled_) metrics_.emplace_back(key, value);
  }

  void emit() const {
    if (!enabled_) return;
    std::printf("\n{\"bench\":\"%s\",\"metrics\":{", bench_.c_str());
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\":%.6g", i == 0 ? "" : ",", metrics_[i].first.c_str(),
                  metrics_[i].second);
    }
    std::printf("}}\n");
  }

 private:
  std::string bench_;
  bool enabled_;
  std::vector<std::pair<std::string, double>> metrics_;
};

/// Median and range of repeated trials. Ratio gates read the median, so
/// one trial slowed by a neighbour on a shared box cannot flip them.
struct TrialSummary {
  double median = 0.0;
  double lo = 0.0;
  double hi = 0.0;
};

inline TrialSummary summarize(std::vector<double> samples) {
  TrialSummary summary;
  if (samples.empty()) return summary;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  summary.median = n % 2 == 1 ? samples[n / 2] : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
  summary.lo = samples.front();
  summary.hi = samples.back();
  return summary;
}

/// Wall times (ms) of `trials` interleaved runs of two timed passes. The
/// pass that goes first alternates, so warm-up and frequency drift land on
/// both sides; ratio[i] = a[i] / b[i] pairs the two passes of one trial.
struct InterleavedTrials {
  std::vector<double> a_ms;
  std::vector<double> b_ms;
  std::vector<double> ratio;
};

template <typename PassA, typename PassB>
InterleavedTrials interleaved_trials(int trials, PassA&& pass_a, PassB&& pass_b) {
  InterleavedTrials out;
  for (int trial = 0; trial < trials; ++trial) {
    double a = 0.0, b = 0.0;
    if (trial % 2 == 0) {
      a = pass_a();
      b = pass_b();
    } else {
      b = pass_b();
      a = pass_a();
    }
    out.a_ms.push_back(a);
    out.b_ms.push_back(b);
    out.ratio.push_back(a / (b > 0.0 ? b : 1.0));
  }
  return out;
}

inline std::size_t scaled(std::size_t paper_value, double scale) {
  const auto value = static_cast<std::size_t>(static_cast<double>(paper_value) * scale);
  return value == 0 ? 1 : value;
}

inline void print_header(const std::string& title, const ScaledSetup& setup) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("scale: %.4f of the paper workload%s (use --full for paper size)\n",
              setup.scale, setup.full ? " [FULL]" : "");
  std::printf("==============================================================\n");
}

/// E. coli-like reference at `scale` of the paper's 4,641,652 bp.
inline std::vector<std::uint8_t> ecoli_reference(const ScaledSetup& setup) {
  GenomeSimConfig config = ecoli_like_config(setup.seed);
  config.length = scaled(config.length, setup.scale);
  return simulate_genome(config);
}

/// Human-chr21-like reference at `scale` of the paper's 40,088,619 bp.
inline std::vector<std::uint8_t> chr21_reference(const ScaledSetup& setup) {
  GenomeSimConfig config = chr21_like_config(setup.seed);
  config.length = scaled(config.length, setup.scale);
  return simulate_genome(config);
}

}  // namespace bwaver::bench
