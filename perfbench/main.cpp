// iw_perfbench — the repository benchmark program (one workload per process).
//
//   iw_perfbench --workload fleet_energy --seed 1 --seconds 15 --trace 0
//
// Prints a host fingerprint line, one line per metric, and as its last line
// one JSON object {"correct", "attempted", "failed", "metrics"}. Exits 1 when
// any output check failed, 2 on bad arguments. perfbench/run.py builds this
// binary and is the usual way to call it.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/hostinfo.hpp"
#include "common/simd.hpp"

namespace iw::perfbench {

const std::vector<MetricSpec>& end_to_end_catalogue() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"ops_per_s", "1/s"},
      {"latency_p90_ms", "ms"},
      {"latency_p99_ms", "ms"},
      {"peak_rss_mib", "MiB"},
      {"table3_err_pct", "%"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_catalogue() {
  static const std::vector<MetricSpec> specs = {
      {"fleet.worker.busy_frac", "frac"},
      {"fleet.shard.count", "count"},
      {"fleet.scenario.sample_s", "s"},
      {"fleet.shard.begin_s", "s"},
      {"fleet.shard.resume_s", "s"},
      {"fleet.shard.step_day_s", "s"},
      {"fleet.shard.ns_per_device_day", "ns"},
      {"fleet.ckpt.save_s", "s"},
      {"fleet.ckpt.load_s", "s"},
      {"fleet.ckpt.bytes", "bytes"},
      {"fleet.stats.merge_s", "s"},
      {"fleet.stats.serialize_s", "s"},
      {"platform.detections_attempted", "count"},
      {"platform.detections_completed", "count"},
      {"platform.detection_skip_frac", "frac"},
      {"platform.harvested_j", "J"},
      {"platform.consumed_j", "J"},
      {"nn.classified", "count"},
      {"nn.classify_s", "s"},
      {"core.app.build_s", "s"},
      {"bio.dataset_s", "s"},
      {"nn.train_s", "s"},
      {"nn.quantize_s", "s"},
      {"bio.features_s", "s"},
      {"kernels.hrv_s", "s"},
      {"kernels.gsr_s", "s"},
      {"kernels.mlp_s.m4.net_a", "s"},
      {"kernels.mlp_s.ibex.net_a", "s"},
      {"kernels.mlp_s.ri5cy.net_a", "s"},
      {"kernels.mlp_s.ri5cy8.net_a", "s"},
      {"kernels.mlp_s.m4.net_b", "s"},
      {"kernels.mlp_s.ibex.net_b", "s"},
      {"kernels.mlp_s.ri5cy.net_b", "s"},
      {"kernels.mlp_s.ri5cy8.net_b", "s"},
      {"asmx.assemble_s", "s"},
      {"rvsim.analysis.analyze_s", "s"},
      {"rvsim.ns_per_instr", "ns"},
      {"rvsim.instructions", "count"},
      {"rvsim.cycles", "count"},
      {"rvsim.bank_conflict_stalls", "count"},
      {"rvsim.barrier_wait_cycles", "count"},
      {"power.classify_energy_uj.m4", "uJ"},
      {"power.classify_energy_uj.ibex", "uJ"},
      {"power.classify_energy_uj.ri5cy", "uJ"},
      {"power.classify_energy_uj.ri5cy8", "uJ"},
      {"trace.wall_s", "s"},
      {"unattributed_s", "s"},
      {"trace_overhead_frac", "frac"},
  };
  return specs;
}

void Outcome::count(std::uint64_t ops, std::uint64_t bad, const std::string& what) {
  attempted += ops;
  failed += bad;
  if (bad > 0) {
    std::fprintf(stderr, "perfbench: CHECK FAILED (%llu of %llu): %s\n",
                 static_cast<unsigned long long>(bad),
                 static_cast<unsigned long long>(ops), what.c_str());
  }
}

double quantile(std::vector<double> sample, double q) {
  std::sort(sample.begin(), sample.end());
  const double rank = std::ceil(q * static_cast<double>(sample.size()));
  const std::size_t index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return sample[std::min(index, sample.size() - 1)];
}

double median(std::vector<double> sample) {
  std::sort(sample.begin(), sample.end());
  const std::size_t n = sample.size();
  return n % 2 == 1 ? sample[n / 2] : 0.5 * (sample[n / 2 - 1] + sample[n / 2]);
}

double median_setup_s(const std::function<void()>& setup) {
  std::vector<double> walls;
  double spent = 0.0;
  while (walls.size() < kSetupReps ||
         (spent < kSetupMinSeconds && walls.size() < kSetupMaxReps)) {
    const Clock::time_point t0 = Clock::now();
    setup();
    walls.push_back(seconds_between(t0, Clock::now()));
    spent += walls.back();
  }
  return median(walls);
}

double windowed_quantile(const std::vector<double>& sample, double q) {
  const std::size_t windows = std::max<std::size_t>(1, sample.size() / kLatencyWindow);
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    // The last window takes the remainder.
    const auto first = sample.begin() + static_cast<std::ptrdiff_t>(w * kLatencyWindow);
    const auto last = w + 1 == windows ? sample.end() : first + kLatencyWindow;
    per_window.push_back(quantile({first, last}, q));
  }
  return median(per_window);
}

void report_units(Outcome& out, double ops, double busy_s,
                  const std::vector<double>& unit_walls_s) {
  out.values["ops_per_s"] = ops / busy_s;
  out.values["latency_p90_ms"] = 1e3 * windowed_quantile(unit_walls_s, 0.90);
  out.values["latency_p99_ms"] = 1e3 * windowed_quantile(unit_walls_s, 0.99);
  // The median is printed, not gated: when the host's speed flips between two
  // levels for seconds at a time, the median lands on either level from run
  // to run, while p90 and p99 sit on the slower one in nearly every window
  // (see README.md).
  std::printf("latency_p50_ms %.6f ms over %zu units (printed, not gated)\n",
              1e3 * median(unit_walls_s), unit_walls_s.size());
  std::printf("latency_p99_ms over the whole run %.6f ms (printed, not gated)\n",
              1e3 * quantile(unit_walls_s, 0.99));
}

void report_common(Outcome& out) {
  out.values["table3_err_pct"] = table3_error_pct(out);
  out.values["peak_rss_mib"] =
      static_cast<double>(hostinfo::peak_rss_bytes()) / (1024.0 * 1024.0);
}

void report_trace(Outcome& out, const Tracer& tracer, double units,
                  double traced_wall_s, double untraced_unit_s) {
  for (const auto& [name, total] : tracer.totals()) {
    // Set-up spans are per run; every other span is per unit of work.
    const bool per_run = name == "core.app.build_s" || name == "bio.dataset_s" ||
                         name == "nn.train_s" || name == "nn.quantize_s";
    out.values[name] += per_run ? total : total / units;
  }
  out.values["trace.wall_s"] = traced_wall_s / units;
  out.values["unattributed_s"] = (traced_wall_s - tracer.top_level_total()) / units;
  out.values["trace_overhead_frac"] = traced_wall_s / units / untraced_unit_s - 1.0;
}

namespace {

struct Workload {
  const char* name;
  Outcome (*run)(const Options&);
};

const Workload kWorkloads[] = {
    {"fleet_energy", run_fleet_energy},
    {"fleet_app_ckpt", run_fleet_app_ckpt},
    {"detect_stream", run_detect_stream},
    {"table3_sweep", run_table3_sweep},
};

int usage() {
  std::fprintf(stderr,
               "usage: iw_perfbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--work-dir DIR]\nworkloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

void print_fingerprint() {
  std::string cpu = hostinfo::cpu_model();
  std::replace(cpu.begin(), cpu.end(), '"', '\'');
  std::printf("fingerprint: {\"cpu\": \"%s\", \"nproc\": %u, \"simd\": \"%s\", "
              "\"build\": \"%s\", \"compiler\": \"%s\"}\n",
              cpu.c_str(), std::thread::hardware_concurrency(),
              simd::tier_name(simd::active_tier()), IW_PERFBENCH_BUILD_TYPE,
              IW_PERFBENCH_COMPILER);
}

}  // namespace

}  // namespace iw::perfbench

int main(int argc, char** argv) {
  using namespace iw::perfbench;
  Options options;
  for (int i = 1; i < argc; ++i) {
    const bool more = i + 1 < argc;
    if (std::strcmp(argv[i], "--workload") == 0 && more) {
      options.workload = argv[++i];
    } else if (std::strcmp(argv[i], "--seed") == 0 && more) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seconds") == 0 && more) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--trace") == 0 && more) {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (std::strcmp(argv[i], "--work-dir") == 0 && more) {
      options.work_dir = argv[++i];
    } else {
      return usage();
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (options.workload == w.name) workload = &w;
  }
  if (workload == nullptr || !(options.seconds > 0.0)) return usage();
  options.threads =
      static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1u, 4u));

  print_fingerprint();
  Outcome outcome;
  try {
    std::filesystem::create_directories(options.work_dir);
    outcome = workload->run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", workload->name, e.what());
    return 1;
  }

  const auto& catalogue =
      options.trace ? per_layer_catalogue() : end_to_end_catalogue();
  for (const auto& [name, value] : outcome.values) {
    const bool known = std::any_of(catalogue.begin(), catalogue.end(),
                                   [&](const MetricSpec& s) { return name == s.name; });
    // Spans that only structure the trace (e.g. fleet.pool) are not metrics.
    if (!known && !options.trace) {
      std::fprintf(stderr, "perfbench: unknown metric %s\n", name.c_str());
      return 1;
    }
  }
  std::string metrics;
  for (const MetricSpec& spec : catalogue) {
    const auto it = outcome.values.find(spec.name);
    const double value = it == outcome.values.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", spec.name);
      ++outcome.failed;
    }
    std::printf("%-32s %18.6f %s\n", spec.name, value, spec.unit);
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", spec.name,
                  std::isfinite(value) ? value : 0.0, spec.unit);
    metrics += buf;
  }
  const bool correct = outcome.failed == 0 && outcome.attempted > 0;
  std::printf("attempted %llu, failed %llu, fail_frac %.6g\n",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              outcome.attempted > 0 ? static_cast<double>(outcome.failed) /
                                          static_cast<double>(outcome.attempted)
                                    : 1.0);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(outcome.attempted, 1)),
              static_cast<unsigned long long>(outcome.failed), metrics.c_str());
  return correct ? 0 : 1;
}
