// Shared pieces of the repository benchmark: run options, the metric
// catalogues, the per-run outcome, and the helpers every workload uses.
//
// Every run reports one fixed set of metric names (README.md here has the
// definitions). A plain run reports the end-to-end catalogue; a traced run
// reports the per-layer catalogue, with 0 for layers the workload never
// reaches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/app.hpp"
#include "trace.hpp"

namespace iw::perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for temporary files (checkpoints) and the span dump.
  std::string work_dir = ".";
  /// Worker threads of the fleet workloads (min(4, hardware threads)).
  int threads = 4;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by every plain run.
const std::vector<MetricSpec>& end_to_end_catalogue();
/// Per-layer metrics, reported by every traced run.
const std::vector<MetricSpec>& per_layer_catalogue();

/// What one run of one workload produced.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Metric values by name; emitted in catalogue order, missing ones as 0.
  std::map<std::string, double> values;

  /// Counts checked operations; reports `what` when any of them failed.
  void count(std::uint64_t ops, std::uint64_t bad, const std::string& what);
  /// Counts `ops` operations as attempted, and as failed unless `ok`.
  void check(bool ok, std::uint64_t ops, const std::string& what) {
    count(ops, ok ? 0 : ops, what);
  }
};

/// Nearest-rank quantile (q in (0, 1]) of a non-empty sample.
double quantile(std::vector<double> sample, double q);
double median(std::vector<double> sample);

/// Set-ups per plain run: at least kSetupReps, and more (up to
/// kSetupMaxReps) until they took kSetupMinSeconds; setup_s is their median.
inline constexpr std::size_t kSetupReps = 5;
inline constexpr std::size_t kSetupMaxReps = 40;
inline constexpr double kSetupMinSeconds = 1.0;

/// Runs `setup` as often as the constants above say and returns the median
/// wall time in seconds.
double median_setup_s(const std::function<void()>& setup);

/// Units per latency window; see windowed_quantile.
inline constexpr std::size_t kLatencyWindow = 100;

/// Median over consecutive windows of kLatencyWindow units (the last one
/// takes the remainder) of each window's nearest-rank quantile q. A sample
/// shorter than two windows is one window, i.e. the plain quantile. One
/// burst of host noise then moves one window, not the run's tail.
double windowed_quantile(const std::vector<double>& sample, double q);

/// Fills the latency/throughput metrics from per-unit wall times, in the
/// order the units ran.
void report_units(Outcome& out, double ops, double busy_s,
                  const std::vector<double>& unit_walls_s);

/// Fills every end-to-end metric that does not depend on the workload:
/// peak RSS and the Table III error.
void report_common(Outcome& out);

/// Mean relative error (%) of simulated cycles against the paper's Table III
/// over its 8 (network, target) cells: the networks, inputs and paper values
/// of bench/bench_table3_runtime.cpp. Simulated, so exact.
double table3_error_pct(Outcome& out);

/// Builds the stress-detection app. With a tracer, spans core.app.build_s
/// around the build and, on a replica of its steps, bio.dataset_s,
/// nn.train_s and nn.quantize_s (all on the side lane).
core::StressDetectionApp build_app(const core::AppConfig& config, Tracer* tracer);

/// Per-layer bookkeeping shared by the traced runs: span totals divided by
/// the number of units, the unattributed remainder, and the trace overhead.
void report_trace(Outcome& out, const Tracer& tracer, double units,
                  double traced_wall_s, double untraced_unit_s);

Outcome run_fleet_energy(const Options& options);
Outcome run_fleet_app_ckpt(const Options& options);
Outcome run_detect_stream(const Options& options);
Outcome run_table3_sweep(const Options& options);

}  // namespace iw::perfbench
