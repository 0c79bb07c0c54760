// The paper-path workloads, plus the helpers every workload shares with them.
//
//   detect_stream  one caller, closed loop: each operation takes one 60 s
//                  ECG + GSR window from a seeded pool and runs host R-peak /
//                  RR and GSR slope features, the RI5CY HRV and GSR kernels,
//                  then Network A on the 8-core RI5CY cluster.
//   table3_sweep   Table III: Networks A and B on all four targets, with a
//                  fresh seeded input per sweep.
//
// The traced run alternates plain and traced units (one detection, or one
// sweep) and times assembly and static analysis per call on the side.
#include <array>
#include <cmath>
#include <cstdio>
#include <optional>
#include <span>
#include <sstream>
#include <utility>
#include <vector>

#include "asmx/assembler.hpp"
#include "bench.hpp"
#include "bio/dataset.hpp"
#include "bio/ecg.hpp"
#include "bio/features.hpp"
#include "bio/gsr.hpp"
#include "bio/rpeak.hpp"
#include "common/rng.hpp"
#include "core/comparison.hpp"
#include "kernels/feature_kernel.hpp"
#include "kernels/kernel_source.hpp"
#include "kernels/runner.hpp"
#include "nn/presets.hpp"
#include "nn/quantize.hpp"
#include "nn/train.hpp"
#include "platform/detection_cost.hpp"
#include "rvsim/analysis/analysis.hpp"
#include "rvsim/cluster.hpp"
#include "rvsim/memory.hpp"

namespace iw::perfbench {

core::StressDetectionApp build_app(const core::AppConfig& config, Tracer* tracer) {
  if (tracer == nullptr) return core::StressDetectionApp::build(config);
  Tracer::Lane* side = tracer->side();
  std::optional<core::StressDetectionApp> app;
  {
    Span span(side, "core.app.build_s");
    app.emplace(core::StressDetectionApp::build(config));
  }
  // build()'s steps once more, one span each: spans cannot go inside build().
  bio::StressDataset dataset;
  {
    Span span(side, "bio.dataset_s");
    dataset = bio::build_stress_dataset(config.dataset);
  }
  Rng rng(config.seed);
  auto split = nn::split(dataset.data, config.test_fraction, rng);
  nn::Network net = nn::make_network_a(rng);
  {
    Span span(side, "nn.train_s");
    nn::train_rprop(net, split.first, config.training);
  }
  {
    Span span(side, "nn.quantize_s");
    nn::QuantizedNetwork::from(net, config.max_frac_bits);
  }
  return std::move(*app);
}

namespace {

using kernels::Target;

constexpr std::array<Target, 4> kTargets = {Target::kCortexM4, Target::kIbex,
                                            Target::kRi5cySingle, Target::kRi5cyMulti};
constexpr std::array<const char*, 4> kTargetKeys = {"m4", "ibex", "ri5cy", "ri5cy8"};
constexpr std::array<std::array<const char*, 4>, 2> kMlpSpans = {{
    {"kernels.mlp_s.m4.net_a", "kernels.mlp_s.ibex.net_a", "kernels.mlp_s.ri5cy.net_a",
     "kernels.mlp_s.ri5cy8.net_a"},
    {"kernels.mlp_s.m4.net_b", "kernels.mlp_s.ibex.net_b", "kernels.mlp_s.ri5cy.net_b",
     "kernels.mlp_s.ri5cy8.net_b"},
}};

/// Simulated-execution tallies of kernel runs.
struct SimCounts {
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  std::uint64_t bank_conflict_stalls = 0;
  std::uint64_t barrier_wait_cycles = 0;

  void add(std::uint64_t instr, std::uint64_t cyc) {
    instructions += instr;
    cycles += cyc;
  }
  void add(const kernels::KernelRunResult& r) {
    add(r.instructions, r.cycles);
    bank_conflict_stalls += r.bank_conflict_stalls;
    barrier_wait_cycles += r.barrier_wait_cycles;
  }
};

template <typename Result>
bool within_static_bounds(const Result& r) {
  return r.static_min_cycles <= r.cycles && r.cycles <= r.static_max_cycles;
}

/// An MLP kernel program and the memory placement it expects.
struct MlpKernel {
  std::string source;
  std::vector<std::uint32_t> weight_addrs;
  std::uint32_t output_addr = 0;
};

/// Kernel parameters, layer table and placement as the MLP runner builds them
/// (kernels/runner.cpp keeps its own private). The source is what
/// asmx.assemble_s times; mlp_kernel_matches_runner() checks it has not
/// drifted from the program run_fixed_mlp runs.
MlpKernel mlp_kernel(const nn::QuantizedNetwork& net, Target target) {
  kernels::FixedKernelParams params;
  params.frac_bits = net.format().frac_bits;
  params.range_fixed = net.tanh_table().range_fixed();
  params.step_mask = net.tanh_table().step_fixed() - 1;
  while ((1 << params.step_shift) < net.tanh_table().step_fixed()) ++params.step_shift;
  params.n_layers = static_cast<int>(net.layers().size());
  MlpKernel kernel;
  std::ostringstream table;
  std::uint32_t w_addr = kernels::Layout::kWeights;
  std::uint32_t in_addr = kernels::Layout::kAct0;
  std::uint32_t out_addr = kernels::Layout::kAct1;
  for (const nn::QuantizedLayer& layer : net.layers()) {
    kernel.weight_addrs.push_back(w_addr);
    table << "    .word " << layer.n_in << ", " << layer.n_out << ", " << w_addr << ", "
          << in_addr << ", " << out_addr << "\n";
    w_addr += static_cast<std::uint32_t>(4 * (layer.n_in + 1) * layer.n_out);
    std::swap(in_addr, out_addr);
  }
  kernel.output_addr = in_addr;
  switch (target) {
    case Target::kCortexM4:
      kernel.source = kernels::fixed_kernel_source(kernels::Flavor::kM4, params, table.str());
      break;
    case Target::kIbex:
      kernel.source =
          kernels::fixed_kernel_source(kernels::Flavor::kGeneric, params, table.str());
      break;
    case Target::kRi5cySingle:
      kernel.source =
          kernels::fixed_kernel_source(kernels::Flavor::kRi5cy, params, table.str());
      break;
    case Target::kRi5cyMulti:
      kernel.source = kernels::parallel_kernel_source(params, table.str());
      break;
  }
  return kernel;
}

/// Assembles mlp_kernel()'s source, runs it on `input` with run_fixed_mlp's
/// memory layout and cluster set-up (kernels/runner.cpp), and compares the
/// outputs and cycles with run_fixed_mlp's own run: false when the copy no
/// longer builds the program the runner runs.
bool mlp_kernel_matches_runner(const nn::QuantizedNetwork& net,
                               std::span<const std::int32_t> input, Target target) {
  const MlpKernel kernel = mlp_kernel(net, target);
  const asmx::Program program = asmx::assemble(kernel.source);
  const auto load = [&](rv::Memory& mem) {
    for (std::size_t l = 0; l < net.layers().size(); ++l) {
      mem.write_words(kernel.weight_addrs[l],
                      std::span<const std::int32_t>(net.layers()[l].weights));
    }
    mem.write_words(kernels::Layout::kTanhTable,
                    std::span<const std::int32_t>(net.tanh_table().samples()));
    mem.write_words(kernels::Layout::kAct0, input);
  };
  const std::size_t n_outputs = net.layers().back().n_out;
  std::uint64_t cycles = 0;
  std::vector<std::int32_t> outputs;
  if (target == Target::kRi5cyMulti) {
    rv::ClusterConfig cfg;
    cfg.num_cores = kernels::Layout::kClusterCores;
    cfg.mem_bytes = kernels::Layout::kMemBytes;
    cfg.tcdm_base = kernels::Layout::kTanhTable;
    cfg.tcdm_size =
        static_cast<std::uint32_t>(kernels::Layout::kMemBytes) - kernels::Layout::kTanhTable;
    cfg.num_banks = 8;
    cfg.barrier_addr = kernels::Layout::kBarrier;
    cfg.stack_bytes = 0x1000;
    rv::Cluster cluster(kernels::profile_for(target), cfg);
    cluster.load_program(program.words);
    load(cluster.memory());
    cycles = cluster.run(program.symbol("main")).cycles;
    outputs = cluster.memory().read_words_i32(kernel.output_addr, n_outputs);
  } else {
    rv::Machine machine(kernels::profile_for(target), kernels::Layout::kMemBytes);
    machine.load_program(program.words);
    load(machine.memory());
    cycles = machine.run(program.symbol("main")).cycles;
    outputs = machine.memory().read_words_i32(kernel.output_addr, n_outputs);
  }
  const kernels::KernelRunResult want = kernels::run_fixed_mlp(net, input, target);
  return cycles == want.cycles && outputs == want.outputs_fixed;
}

const char* image_name(Target target) {
  switch (target) {
    case Target::kCortexM4: return "mlp-fixed-m4";
    case Target::kIbex: return "mlp-fixed-generic";
    case Target::kRi5cySingle: return "mlp-fixed-ri5cy";
    case Target::kRi5cyMulti: return "mlp-fixed-parallel";
  }
  return "";
}

/// Mean host seconds per call of `fn` over `reps` calls, each in a span.
template <typename Fn>
double mean_call_s(Tracer::Lane* side, const char* span_name, int reps, Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < reps; ++i) {
    Span span(side, span_name);
    fn();
  }
  return seconds_between(t0, Clock::now()) / reps;
}

/// Per-call assembly and static-analysis time of the kernels one unit runs:
/// sources for the networks the unit runs, analysis on the matching images
/// of kernels::reference_kernel_images(). Returns per-unit sums.
std::pair<double, double> assemble_and_analyze_s(
    const std::vector<std::string>& sources, const std::vector<std::string>& images,
    Tracer::Lane* side) {
  constexpr int kReps = 50;
  double assemble_s = 0.0;
  for (const std::string& source : sources) {
    assemble_s += mean_call_s(side, "asmx.assemble_side", kReps,
                              [&] { asmx::assemble(source); });
  }
  const std::vector<kernels::KernelImage> reference = kernels::reference_kernel_images();
  double analyze_s = 0.0;
  for (const std::string& name : images) {
    for (const kernels::KernelImage& image : reference) {
      if (image.name != name) continue;
      rv::Memory mem(image.mem_bytes);
      mem.write_words(image.program.base,
                      std::span<const std::uint32_t>(image.program.words));
      analyze_s += mean_call_s(side, "rvsim.analysis.analyze_side", kReps, [&] {
        rv::analysis::analyze(mem, image.entry, image.profile, image.analyze_options);
      });
    }
  }
  return {assemble_s, analyze_s};
}

/// Simulated counts per unit, from `exact` (a fixed set of `exact_units`
/// units, so the counts repeat exactly), and host time per simulated
/// instruction of the traced kernel runs.
void report_sim(Outcome& out, const SimCounts& exact, double exact_units,
                const Tracer& tracer, std::initializer_list<const char*> kernel_spans,
                const SimCounts& traced) {
  out.values["rvsim.instructions"] = static_cast<double>(exact.instructions) / exact_units;
  out.values["rvsim.cycles"] = static_cast<double>(exact.cycles) / exact_units;
  out.values["rvsim.bank_conflict_stalls"] =
      static_cast<double>(exact.bank_conflict_stalls) / exact_units;
  out.values["rvsim.barrier_wait_cycles"] =
      static_cast<double>(exact.barrier_wait_cycles) / exact_units;
  const std::map<std::string, double> totals = tracer.totals();
  double kernel_s = 0.0;
  for (const char* name : kernel_spans) {
    const auto it = totals.find(name);
    if (it != totals.end()) kernel_s += it->second;
  }
  out.values["rvsim.ns_per_instr"] = 1e9 * kernel_s / static_cast<double>(traced.instructions);
}

// ---------------------------------------------------------------------------
// detect_stream

struct Window {
  bio::EcgSignal ecg;
  bio::GsrSignal gsr;
  /// The GSR samples as the AFE delivers them to the kernel: microsiemens, Q8.
  std::vector<std::int32_t> gsr_q8;
};

/// `per_level` 60 s windows per stress level, interleaved by level.
std::vector<Window> build_pool(std::uint64_t seed, int per_level) {
  Rng rng(seed);
  std::vector<Window> pool;
  for (int i = 0; i < per_level; ++i) {
    for (const bio::StressLevel level :
         {bio::StressLevel::kNone, bio::StressLevel::kMedium, bio::StressLevel::kHigh}) {
      Window w;
      w.ecg = bio::synthesize_ecg(
          bio::generate_rr_intervals(bio::rr_params_for(level), 60.0, rng), {}, rng);
      w.gsr = bio::synthesize_gsr(bio::gsr_params_for(level), 60.0, rng);
      for (const float v : w.gsr.samples) {
        w.gsr_q8.push_back(static_cast<std::int32_t>(std::lround(v * 256.0f)));
      }
      pool.push_back(std::move(w));
    }
  }
  return pool;
}

std::vector<std::int32_t> to_ms(const std::vector<double>& rr_s) {
  std::vector<std::int32_t> rr_ms;
  rr_ms.reserve(rr_s.size());
  for (const double v : rr_s) rr_ms.push_back(static_cast<std::int32_t>(std::lround(v * 1e3)));
  return rr_ms;
}

/// What one detection produced, kept for the checks after the timed loop.
struct Detection {
  std::size_t window = 0;
  kernels::HrvFixedValues hrv;
  kernels::GsrFixedValues gsr;
  std::vector<std::int32_t> scores;
  std::vector<std::int32_t> input;
  bool within_bounds = false;
};

Detection detect(const core::StressDetectionApp& app, const std::vector<Window>& pool,
                 std::size_t index, Tracer::Lane* lane, SimCounts& sim) {
  const Window& w = pool[index];
  Detection d;
  d.window = index;
  bio::RawFeatures raw{};
  std::vector<std::int32_t> rr_ms;
  {
    Span span(lane, "bio.features_s");
    const std::vector<double> rr_s = bio::rr_from_peaks(bio::detect_r_peaks(w.ecg));
    raw = bio::compute_features(rr_s, bio::detect_gsr_slopes(w.gsr));
    rr_ms = to_ms(rr_s);
  }
  kernels::HrvKernelResult hrv;
  {
    Span span(lane, "kernels.hrv_s");
    hrv = kernels::run_hrv_kernel(rr_ms);
  }
  kernels::GsrKernelResult gsr;
  {
    Span span(lane, "kernels.gsr_s");
    gsr = kernels::run_gsr_kernel(w.gsr_q8);
  }
  d.input = app.quantized().quantize_input(app.normalizer().apply(raw));
  kernels::KernelRunResult mlp;
  {
    Span span(lane, "kernels.mlp_s.ri5cy8.net_a");
    mlp = kernels::run_fixed_mlp(app.quantized(), d.input, Target::kRi5cyMulti);
  }
  d.hrv = hrv.values;
  d.gsr = gsr.values;
  d.scores = std::move(mlp.outputs_fixed);
  d.within_bounds =
      within_static_bounds(hrv) && within_static_bounds(gsr) && within_static_bounds(mlp);
  sim.add(hrv.instructions, hrv.cycles);
  sim.add(gsr.instructions, gsr.cycles);
  sim.add(mlp);
  return d;
}

/// Host references per pool window: the RR series, and the HRV and GSR
/// kernels' golden models.
struct WindowReference {
  kernels::HrvFixedValues hrv;
  kernels::GsrFixedValues gsr;
};

bool same(const kernels::HrvFixedValues& a, const kernels::HrvFixedValues& b) {
  return a.rmssd_q4_ms == b.rmssd_q4_ms && a.sdsd_q4_ms == b.sdsd_q4_ms && a.nn50 == b.nn50;
}
bool same(const kernels::GsrFixedValues& a, const kernels::GsrFixedValues& b) {
  return a.slope_count == b.slope_count && a.total_height_q8 == b.total_height_q8 &&
         a.total_length_samples == b.total_length_samples;
}

}  // namespace

Outcome run_detect_stream(const Options& options) {
  constexpr int kWindowsPerLevel = 16;
  Outcome out;
  Tracer tracer;
  std::optional<core::StressDetectionApp> app;
  std::vector<Window> pool;
  SimCounts warm_sim;
  const auto setup = [&](Tracer* traced) {
    app.reset();
    app.emplace(build_app(core::AppConfig{}, traced));
    pool = build_pool(options.seed, kWindowsPerLevel);
    detect(*app, pool, 0, nullptr, warm_sim);
  };
  if (options.trace) {
    setup(&tracer);
  } else {
    out.values["setup_s"] = median_setup_s([&] { setup(nullptr); });
  }

  std::vector<Detection> detections;
  std::vector<double> plain_walls;
  double plain_s = 0.0;
  double traced_s = 0.0;
  std::size_t traced_units = 0;
  SimCounts plain_sim;
  SimCounts traced_sim;
  const Clock::time_point start = Clock::now();
  double elapsed = 0.0;
  for (std::size_t i = 0; elapsed < options.seconds || (traced_units == 0 && options.trace);
       ++i) {
    const bool traced = options.trace && i % 2 == 1;
    const Clock::time_point t0 = Clock::now();
    detections.push_back(detect(*app, pool, i % pool.size(),
                                traced ? tracer.main() : nullptr,
                                traced ? traced_sim : plain_sim));
    const Clock::time_point t1 = Clock::now();
    const double wall = seconds_between(t0, t1);
    if (traced) {
      traced_s += wall;
      ++traced_units;
    } else {
      plain_s += wall;
      plain_walls.push_back(wall);
    }
    elapsed = seconds_between(start, t1);
  }

  // Checks: ISS results against the host golden models, static bounds.
  std::vector<std::optional<WindowReference>> refs(pool.size());
  std::uint64_t bad = 0;
  for (const Detection& d : detections) {
    std::optional<WindowReference>& ref = refs[d.window];
    if (!ref) {
      const Window& w = pool[d.window];
      ref = WindowReference{
          kernels::hrv_fixed_reference(
              to_ms(bio::rr_from_peaks(bio::detect_r_peaks(w.ecg)))),
          kernels::gsr_fixed_reference(w.gsr_q8, 13, 1)};
    }
    const bool ok = d.within_bounds && same(d.hrv, ref->hrv) && same(d.gsr, ref->gsr) &&
                    d.scores == app->quantized().infer_fixed(d.input);
    bad += ok ? 0 : 1;
  }
  out.count(detections.size(), bad, "detections match the host references");

  if (!options.trace) {
    std::printf("sim_mips %.3f MIPS (simulated instructions per host second)\n",
                static_cast<double>(plain_sim.instructions) / elapsed / 1e6);
    report_units(out, static_cast<double>(detections.size()), elapsed, plain_walls);
    report_common(out);
    return out;
  }

  const double units = static_cast<double>(traced_units);
  report_trace(out, tracer, units, traced_s, plain_s / static_cast<double>(plain_walls.size()));
  // Simulated counts over one pass of the pool, and Network A's energy on
  // its first window: both exact for a given seed.
  SimCounts pool_sim;
  for (std::size_t w = 0; w < pool.size(); ++w) detect(*app, pool, w, nullptr, pool_sim);
  report_sim(out, pool_sim, static_cast<double>(pool.size()), tracer,
             {"kernels.hrv_s", "kernels.gsr_s", "kernels.mlp_s.ri5cy8.net_a"}, traced_sim);
  const auto [assemble_s, analyze_s] = assemble_and_analyze_s(
      {kernels::hrv_kernel_source(), kernels::gsr_kernel_source(),
       mlp_kernel(app->quantized(), Target::kRi5cyMulti).source},
      {"hrv-ri5cy", "gsr-ri5cy", "mlp-fixed-parallel"}, tracer.side());
  out.values["asmx.assemble_s"] = assemble_s;
  out.values["rvsim.analysis.analyze_s"] = analyze_s;
  out.check(mlp_kernel_matches_runner(app->quantized(), detections.front().input,
                                      Target::kRi5cyMulti),
            1, "the MLP kernel source asmx.assemble_s times is run_fixed_mlp's");
  const kernels::KernelRunResult first =
      kernels::run_fixed_mlp(app->quantized(), detections.front().input, Target::kRi5cyMulti);
  out.values["power.classify_energy_uj.ri5cy8"] =
      1e6 * core::power_model_for(Target::kRi5cyMulti).energy_j(first.cycles);
  tracer.write_chrome_trace(options.work_dir + "/trace-" + options.workload + ".json");
  return out;
}

// ---------------------------------------------------------------------------
// table3_sweep and the Table III error

namespace {

struct Table3Networks {
  std::array<nn::QuantizedNetwork, 2> nets;
  static Table3Networks make() {
    Rng rng_a(1);
    Rng rng_b(2);
    return {{nn::QuantizedNetwork::from(nn::make_network_a(rng_a)),
             nn::QuantizedNetwork::from(nn::make_network_b(rng_b))}};
  }
};

std::vector<std::int32_t> random_input(const nn::QuantizedNetwork& net, Rng& rng) {
  std::vector<float> input(net.num_inputs());
  for (float& v : input) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return net.quantize_input(input);
}

/// One sweep: both networks on all four targets. True when every run's
/// outputs match the host fixed-point reference and its cycles sit inside the
/// static bounds; the cells' cycles go to `cycles` ([network][target]).
bool sweep(const Table3Networks& t3, const std::array<std::vector<std::int32_t>, 2>& inputs,
           Tracer::Lane* lane, SimCounts& sim,
           std::array<std::array<std::uint64_t, 4>, 2>* cycles = nullptr) {
  bool ok = true;
  for (std::size_t n = 0; n < 2; ++n) {
    const std::vector<std::int32_t> want = t3.nets[n].infer_fixed(inputs[n]);
    for (std::size_t t = 0; t < kTargets.size(); ++t) {
      kernels::KernelRunResult r;
      {
        Span span(lane, kMlpSpans[n][t]);
        r = kernels::run_fixed_mlp(t3.nets[n], inputs[n], kTargets[t]);
      }
      ok = ok && within_static_bounds(r) && r.outputs_fixed == want;
      sim.add(r);
      if (cycles != nullptr) (*cycles)[n][t] = r.cycles;
    }
  }
  return ok;
}

}  // namespace

namespace {

/// bench/bench_table3_runtime.cpp's sweep: networks from Rng(1) / Rng(2) and
/// one input from Rng(2020) per network. Simulated, so exact.
struct ReferenceSweep {
  std::array<std::array<std::uint64_t, 4>, 2> cycles{};
  SimCounts sim;
  bool ok = false;

  ReferenceSweep() {
    const Table3Networks t3 = Table3Networks::make();
    std::array<std::vector<std::int32_t>, 2> inputs;
    for (std::size_t n = 0; n < 2; ++n) {
      Rng rng(2020);
      inputs[n] = random_input(t3.nets[n], rng);
    }
    ok = sweep(t3, inputs, nullptr, sim, &cycles);
  }
};

}  // namespace

double table3_error_pct(Outcome& out) {
  constexpr std::array<std::array<double, 4>, 2> kPaper = {{
      {30210, 40661, 22772,
       static_cast<double>(platform::kPaperClassificationCyclesMulti8)},
      {902763, 955588, 519354, 108316},
  }};
  const ReferenceSweep ref;
  out.check(ref.ok, 8, "Table III reference sweep");
  double sum = 0.0;
  for (std::size_t n = 0; n < 2; ++n) {
    for (std::size_t t = 0; t < 4; ++t) {
      sum += std::abs(static_cast<double>(ref.cycles[n][t]) - kPaper[n][t]) / kPaper[n][t];
    }
  }
  return 100.0 * sum / 8.0;
}

Outcome run_table3_sweep(const Options& options) {
  Outcome out;
  Tracer tracer;
  std::optional<Table3Networks> t3;
  Rng rng(options.seed);
  SimCounts warm_sim;
  const auto setup = [&] {
    t3.reset();
    t3.emplace(Table3Networks::make());
    Rng warm_rng(options.seed);
    sweep(*t3, {random_input(t3->nets[0], warm_rng), random_input(t3->nets[1], warm_rng)},
          nullptr, warm_sim);
  };
  if (options.trace) {
    setup();
  } else {
    out.values["setup_s"] = median_setup_s(setup);
  }

  std::vector<double> plain_walls;
  double plain_s = 0.0;
  double traced_s = 0.0;
  std::size_t traced_units = 0;
  std::uint64_t sweeps = 0;
  std::uint64_t bad_sweeps = 0;
  SimCounts plain_sim;
  SimCounts traced_sim;
  const Clock::time_point start = Clock::now();
  double elapsed = 0.0;
  for (std::size_t i = 0; elapsed < options.seconds || (traced_units == 0 && options.trace);
       ++i) {
    const bool traced = options.trace && i % 2 == 1;
    const std::array<std::vector<std::int32_t>, 2> inputs = {
        random_input(t3->nets[0], rng), random_input(t3->nets[1], rng)};
    const Clock::time_point t0 = Clock::now();
    const bool ok = sweep(*t3, inputs, traced ? tracer.main() : nullptr,
                          traced ? traced_sim : plain_sim);
    const Clock::time_point t1 = Clock::now();
    const double wall = seconds_between(t0, t1);
    if (traced) {
      traced_s += wall;
      ++traced_units;
    } else {
      plain_s += wall;
      plain_walls.push_back(wall);
    }
    ++sweeps;
    bad_sweeps += ok ? 0 : 1;
    elapsed = seconds_between(start, t1);
  }
  out.count(8 * sweeps, 8 * bad_sweeps, "sweeps match the host references");

  if (!options.trace) {
    std::printf("sim_mips %.3f MIPS (simulated instructions per host second)\n",
                static_cast<double>(plain_sim.instructions) / elapsed / 1e6);
    report_units(out, 8.0 * static_cast<double>(sweeps), elapsed, plain_walls);
    report_common(out);
    return out;
  }

  const double units = static_cast<double>(traced_units);
  report_trace(out, tracer, units, traced_s, plain_s / static_cast<double>(plain_walls.size()));
  const ReferenceSweep ref;
  const auto& spans = kMlpSpans;
  report_sim(out, ref.sim, 1.0, tracer,
             {spans[0][0], spans[0][1], spans[0][2], spans[0][3], spans[1][0], spans[1][1],
              spans[1][2], spans[1][3]},
             traced_sim);
  std::vector<std::string> sources;
  std::vector<std::string> images;
  bool sources_match = true;
  for (const nn::QuantizedNetwork& net : t3->nets) {
    const std::vector<std::int32_t> input = random_input(net, rng);
    for (const Target target : kTargets) {
      sources.push_back(mlp_kernel(net, target).source);
      images.push_back(image_name(target));
      sources_match = sources_match && mlp_kernel_matches_runner(net, input, target);
    }
  }
  out.check(sources_match, 8, "the MLP kernel sources asmx.assemble_s times are run_fixed_mlp's");
  const auto [assemble_s, analyze_s] = assemble_and_analyze_s(sources, images, tracer.side());
  out.values["asmx.assemble_s"] = assemble_s;
  out.values["rvsim.analysis.analyze_s"] = analyze_s;
  for (std::size_t t = 0; t < kTargets.size(); ++t) {
    out.values[std::string("power.classify_energy_uj.") + kTargetKeys[t]] =
        1e6 * core::power_model_for(kTargets[t]).energy_j(ref.cycles[0][t]);
  }
  tracer.write_chrome_trace(options.work_dir + "/trace-" + options.workload + ".json");
  return out;
}

}  // namespace iw::perfbench
