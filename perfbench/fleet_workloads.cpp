// The product-path workloads: fleet::LongitudinalRunner jobs.
//
//   fleet_energy    40,000 devices x 7 days, default shard size, no app.
//   fleet_app_ckpt  16,000 devices x 14 days with the stress app (iw_fleetd's
//                   CLI training defaults), checkpointed at day 7 to a file
//                   and resumed by a fresh runner to day 14.
//
// One unit of work is one job (both legs on fleet_app_ckpt); an operation is
// a device-day. The plain run times LongitudinalRunner::run(). The traced run
// alternates plain jobs with jobs driven through a mirror of the runner's
// shard loop (traced_leg below), which calls the same public pieces — scenario
// sampling, ShardSimulator, checkpoint records, stats merge — with a span
// around each call, and must reproduce the runner's aggregates and checkpoint
// file byte for byte. The fleet.ckpt.*, fleet.stats.merge_s and fleet.shard.*
// spans therefore time this mirror, not runner.cpp itself.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "core/app.hpp"
#include "fleet/device_instance.hpp"
#include "fleet/fleet_stats.hpp"
#include "fleet/longitudinal/checkpoint.hpp"
#include "fleet/longitudinal/runner.hpp"
#include "fleet/scenario.hpp"
#include "nn/batch.hpp"

namespace iw::perfbench {
namespace {

using fleet::LongitudinalConfig;
using fleet::LongitudinalStats;

struct FleetWorkload {
  std::uint64_t devices;
  int days;
  /// Day the first leg checkpoints at (0: one uninterrupted leg).
  int checkpoint_day;
  bool with_app;
};

/// Devices checked against the event-engine oracle, and the sub-population
/// cut by a checkpoint and resumed, per run.
constexpr std::uint64_t kOracleDevices = 8;
constexpr std::uint64_t kResumeCheckDevices = 256;

/// iw_fleetd's CLI training defaults (tools/iw_fleetd.cpp): fleet runs want
/// the classification plumbing and its duty-cycle cost, not accuracy.
core::AppConfig cli_app_config() {
  core::AppConfig config;
  config.dataset.subjects = 2;
  config.dataset.minutes_per_level = 2.0;
  config.training.max_epochs = 40;
  return config;
}

struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

void seek_to(std::FILE* f, std::uint64_t offset) {
  ensure(std::fseek(f, static_cast<long>(offset), SEEK_SET) == 0,
         "checkpoint file: seek failed");
}

/// The legs of one job over devices [first, first + devices): one leg, or a
/// leg that checkpoints at `checkpoint_day` and one that resumes from it.
std::vector<LongitudinalConfig> job_legs(const Options& options,
                                         const core::StressDetectionApp* app,
                                         std::uint64_t first, std::uint64_t devices,
                                         int days, int checkpoint_day,
                                         const std::string& ckpt_path) {
  LongitudinalConfig base;
  base.num_devices = devices;
  base.first_device = first;
  base.fleet_seed = options.seed;
  base.days = days;
  base.threads = options.threads;
  base.app = app;
  if (checkpoint_day <= 0) return {base};
  LongitudinalConfig save = base;
  save.checkpoint_path = ckpt_path;
  save.checkpoint_day = checkpoint_day;
  LongitudinalConfig resume = base;
  resume.resume_path = ckpt_path;
  return {save, resume};
}

struct JobResult {
  LongitudinalStats stats;
  /// Summed wall time of the legs' LongitudinalRunner::run() calls.
  double run_s = 0.0;
};

JobResult run_job(const std::vector<LongitudinalConfig>& legs) {
  JobResult job;
  for (const LongitudinalConfig& leg : legs) {
    const fleet::LongitudinalRunner runner(leg);
    const Clock::time_point t0 = Clock::now();
    fleet::LongitudinalResult result = runner.run();
    job.run_s += seconds_between(t0, Clock::now());
    job.stats = std::move(result.stats);
  }
  return job;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// One leg of LongitudinalRunner::run() rebuilt from its public pieces, with a
/// span around each call into a layer. Same shard partition, same claim
/// order, same checkpoint file layout.
LongitudinalStats traced_leg(const LongitudinalConfig& cfg, Tracer& tracer) {
  Tracer::Lane* main = tracer.main();
  int start_day = 0;
  LongitudinalStats banked(cfg.days, cfg.soc_bins);
  std::uint64_t resume_table_off = 0;
  const bool resuming = !cfg.resume_path.empty();
  if (resuming) {
    Span span(main, "fleet.ckpt.load_s");
    FilePtr in(std::fopen(cfg.resume_path.c_str(), "rb"));
    ensure(in != nullptr, "traced leg: cannot open the resume checkpoint");
    std::vector<std::uint8_t> head(fleet::kCheckpointHeaderBytes);
    ensure(std::fread(head.data(), 1, head.size(), in.get()) == head.size(),
           "traced leg: truncated checkpoint header");
    ByteReader head_reader(head);
    const fleet::CheckpointHeader header = fleet::load_checkpoint_header(head_reader);
    std::vector<std::uint8_t> blob(header.stats_bytes);
    ensure(std::fread(blob.data(), 1, blob.size(), in.get()) == blob.size(),
           "traced leg: truncated checkpoint aggregates");
    ByteReader blob_reader(blob);
    banked = LongitudinalStats::load(blob_reader);
    start_day = static_cast<int>(header.day);
    resume_table_off = fleet::kCheckpointHeaderBytes + header.stats_bytes;
  }
  const int stop_day = cfg.checkpoint_day > 0 ? cfg.checkpoint_day : cfg.days;

  const bool saving = !cfg.checkpoint_path.empty();
  FilePtr save_file;
  std::uint64_t save_table_off = 0;
  std::mutex save_mutex;
  if (saving) {
    Span span(main, "fleet.ckpt.save_s");
    ByteWriter probe;
    LongitudinalStats(cfg.days, cfg.soc_bins).save(probe);
    save_table_off = fleet::kCheckpointHeaderBytes + probe.size();
    save_file.reset(std::fopen(cfg.checkpoint_path.c_str(), "wb"));
    ensure(save_file != nullptr, "traced leg: cannot create the checkpoint");
  }

  const std::uint64_t n = cfg.num_devices;
  const std::uint64_t shard = cfg.shard_size;
  const std::uint64_t num_shards = (n + shard - 1) / shard;
  const int threads = static_cast<int>(
      std::min<std::uint64_t>(static_cast<std::uint64_t>(cfg.threads), num_shards));
  std::vector<LongitudinalStats> worker_stats(static_cast<std::size_t>(threads),
                                              LongitudinalStats(cfg.days, cfg.soc_bins));
  std::atomic<std::uint64_t> next_shard{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  const auto worker = [&](int w) {
    try {
      Tracer::Lane* lane = tracer.worker(w);
      std::unique_ptr<nn::FixedBatch> batch;
      if (cfg.app != nullptr) batch = std::make_unique<nn::FixedBatch>(cfg.app->quantized());
      fleet::ShardSimulator sim(cfg.app, batch.get());
      LongitudinalStats& local = worker_stats[static_cast<std::size_t>(w)];
      FilePtr resume_file;
      if (resuming) {
        resume_file.reset(std::fopen(cfg.resume_path.c_str(), "rb"));
        ensure(resume_file != nullptr, "traced leg: cannot reopen the checkpoint");
      }
      std::vector<fleet::Scenario> scenarios;
      std::vector<fleet::DeviceCheckpoint> checkpoints;
      std::vector<std::uint8_t> record_buf;
      ByteWriter record_writer;
      while (true) {
        const std::uint64_t s = next_shard.fetch_add(1, std::memory_order_relaxed);
        if (s >= num_shards || failed.load(std::memory_order_relaxed)) break;
        Span shard_span(lane, "fleet.shard");
        const std::uint64_t begin = cfg.first_device + s * shard;
        const std::uint64_t end = std::min(cfg.first_device + n, begin + shard);
        const std::size_t count = static_cast<std::size_t>(end - begin);
        {
          Span span(lane, "fleet.scenario.sample_s");
          scenarios.clear();
          for (std::uint64_t id = begin; id < end; ++id) {
            fleet::Scenario scenario = fleet::sample_scenario(cfg.fleet_seed, id);
            scenario.days = cfg.days;
            scenarios.push_back(scenario);
          }
        }
        if (resuming) {
          {
            Span span(lane, "fleet.ckpt.load_s");
            record_buf.resize(count * fleet::kDeviceCheckpointBytes);
            seek_to(resume_file.get(),
                    resume_table_off +
                        (begin - cfg.first_device) * fleet::kDeviceCheckpointBytes);
            ensure(std::fread(record_buf.data(), 1, record_buf.size(),
                              resume_file.get()) == record_buf.size(),
                   "traced leg: truncated checkpoint records");
            ByteReader reader(record_buf);
            checkpoints.clear();
            for (std::size_t i = 0; i < count; ++i) {
              checkpoints.push_back(fleet::load_device_checkpoint(reader));
            }
          }
          Span span(lane, "fleet.shard.resume_s");
          sim.resume(scenarios, checkpoints);
        } else {
          Span span(lane, "fleet.shard.begin_s");
          sim.begin(scenarios);
        }
        for (int d = start_day; d < stop_day; ++d) {
          Span span(lane, "fleet.shard.step_day_s");
          sim.step_day(&local);
        }
        if (saving) {
          Span span(lane, "fleet.ckpt.save_s");
          sim.save_checkpoints(checkpoints);
          record_writer.clear();
          for (const fleet::DeviceCheckpoint& cp : checkpoints) {
            fleet::save_device_checkpoint(cp, record_writer);
          }
          std::lock_guard<std::mutex> lock(save_mutex);
          seek_to(save_file.get(),
                  save_table_off +
                      (begin - cfg.first_device) * fleet::kDeviceCheckpointBytes);
          ensure(std::fwrite(record_writer.data().data(), 1, record_writer.size(),
                             save_file.get()) == record_writer.size(),
                 "traced leg: checkpoint record write failed");
        }
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
      failed.store(true, std::memory_order_relaxed);
    }
  };
  {
    Span span(main, "fleet.pool");
    std::vector<std::thread> pool;
    for (int w = 0; w < threads; ++w) pool.emplace_back(worker, w);
    for (std::thread& t : pool) t.join();
  }
  if (first_error) std::rethrow_exception(first_error);

  LongitudinalStats stats = std::move(banked);
  {
    Span span(main, "fleet.stats.merge_s");
    for (const LongitudinalStats& local : worker_stats) stats.merge(local);
  }
  if (saving) {
    Span span(main, "fleet.ckpt.save_s");
    fleet::CheckpointHeader header;
    header.fleet_seed = cfg.fleet_seed;
    header.first_device = cfg.first_device;
    header.num_devices = cfg.num_devices;
    header.days_total = static_cast<std::uint32_t>(cfg.days);
    header.day = static_cast<std::uint32_t>(stop_day);
    header.soc_bins = static_cast<std::uint32_t>(cfg.soc_bins);
    ByteWriter head;
    ByteWriter blob;
    stats.save(blob);
    header.stats_bytes = blob.size();
    fleet::save_checkpoint_header(header, head);
    seek_to(save_file.get(), 0);
    ensure(std::fwrite(head.data().data(), 1, head.size(), save_file.get()) ==
                   head.size() &&
               std::fwrite(blob.data().data(), 1, blob.size(), save_file.get()) ==
                   blob.size(),
           "traced leg: checkpoint header write failed");
    ensure(std::fclose(save_file.release()) == 0, "traced leg: checkpoint close failed");
  }
  return stats;
}

/// Runs `count` devices from `first` through the runner (rows retained) and
/// one by one through DeviceInstance on the discrete-event engine (the
/// sim::Engine oracle); true when the rows agree byte for byte.
bool matches_engine_oracle(const LongitudinalConfig& cfg, std::uint64_t first,
                           std::uint64_t count) {
  LongitudinalConfig sub = cfg;
  sub.first_device = first;
  sub.num_devices = count;
  sub.threads = 1;
  sub.record_outcomes = true;
  sub.checkpoint_path.clear();
  sub.checkpoint_day = 0;
  sub.resume_path.clear();
  const std::string got = fleet::LongitudinalRunner(sub).run().outcomes.serialize();
  fleet::FleetStats want;
  for (std::uint64_t id = first; id < first + count; ++id) {
    fleet::Scenario scenario = fleet::sample_scenario(cfg.fleet_seed, id);
    scenario.days = cfg.days;
    fleet::DeviceInstance device(scenario, cfg.app);
    device.set_fast_day(false);
    device.run();
    want.add(device.outcome());
  }
  return got == want.serialize();
}

/// Replays a job's classification volume through nn::FixedBatch::classify:
/// `rows` rows of the app's test set in batches of `batch_rows`, split over
/// the worker lanes like the shards are.
void replay_classification(const core::StressDetectionApp& app, std::uint64_t rows,
                           std::uint64_t batch_rows, int threads, Tracer& tracer) {
  const nn::Dataset& test = app.test_set();
  const auto worker = [&](int w) {
    Span span(tracer.worker(w), "nn.classify_s");
    nn::FixedBatch batch(app.quantized());
    std::vector<const float*> inputs;
    std::vector<std::size_t> labels;
    std::uint64_t next = 0;
    for (std::uint64_t done = static_cast<std::uint64_t>(w) * batch_rows; done < rows;
         done += static_cast<std::uint64_t>(threads) * batch_rows) {
      const std::uint64_t n = std::min(batch_rows, rows - done);
      inputs.clear();
      for (std::uint64_t i = 0; i < n; ++i) {
        inputs.push_back(test.inputs[next++ % test.size()].data());
      }
      labels.resize(inputs.size());
      batch.classify(inputs, labels);
    }
  };
  std::vector<std::thread> pool;
  for (int w = 0; w < threads; ++w) pool.emplace_back(worker, w);
  for (std::thread& t : pool) t.join();
}

Outcome run_fleet(const Options& options, const FleetWorkload& w) {
  Outcome out;
  Tracer tracer(options.threads);
  const std::string ckpt_path = options.work_dir + "/fleet-" +
                                std::to_string(static_cast<long>(::getpid())) + ".ckpt";
  const std::string check_path = ckpt_path + ".check";

  // Set-up: the app (when the workload has one) and one warm-up job of one
  // shard per worker for one day, so lazily built state and first-touch
  // costs stay out of the timed jobs.
  std::optional<core::StressDetectionApp> app;
  const auto setup = [&](Tracer* traced) {
    if (w.with_app) {
      app.reset();
      app.emplace(build_app(cli_app_config(), traced));
    }
    const std::uint64_t warm_devices = static_cast<std::uint64_t>(options.threads) *
                                       LongitudinalConfig{}.shard_size;
    run_job(job_legs(options, app ? &*app : nullptr, 0, warm_devices, 1, 0, ckpt_path));
  };
  if (options.trace) {
    setup(&tracer);
  } else {
    out.values["setup_s"] = median_setup_s([&] { setup(nullptr); });
  }
  const core::StressDetectionApp* app_ptr = app ? &*app : nullptr;
  const std::vector<LongitudinalConfig> legs =
      job_legs(options, app_ptr, 0, w.devices, w.days, w.checkpoint_day, ckpt_path);
  const std::uint64_t job_ops = w.devices * static_cast<std::uint64_t>(w.days);
  const double job_device_days = static_cast<double>(job_ops);

  // Timed jobs (plain; the traced run alternates plain and traced jobs).
  std::vector<double> plain_walls;
  double traced_wall = 0.0;
  int traced_jobs = 0;
  std::string reference;
  bool jobs_agree = true;
  // The traced run's checkpoint files: the runner's (from the first plain
  // job) and whether every traced job's mirror wrote the same bytes.
  std::string runner_ckpt;
  bool ckpts_agree = true;
  std::uint64_t checked_ops = 0;
  std::optional<LongitudinalStats> last_stats;
  const Clock::time_point start = Clock::now();
  while (plain_walls.empty() || (traced_jobs == 0 && options.trace) ||
         seconds_between(start, Clock::now()) < options.seconds) {
    const bool traced = options.trace && traced_jobs < static_cast<int>(plain_walls.size());
    LongitudinalStats stats;
    if (traced) {
      const Clock::time_point t0 = Clock::now();
      for (const LongitudinalConfig& leg : legs) stats = traced_leg(leg, tracer);
      traced_wall += seconds_between(t0, Clock::now());
      ++traced_jobs;
      if (w.checkpoint_day > 0) ckpts_agree = ckpts_agree && file_bytes(ckpt_path) == runner_ckpt;
    } else {
      JobResult job = run_job(legs);
      plain_walls.push_back(job.run_s);
      stats = std::move(job.stats);
      if (options.trace && w.checkpoint_day > 0 && runner_ckpt.empty()) {
        runner_ckpt = file_bytes(ckpt_path);
      }
    }
    // The job digest for the check below. run() never serializes its stats,
    // so fleet.stats.serialize_s times this step, not a part of run().
    std::string digest;
    {
      Span span(traced ? tracer.side() : nullptr, "fleet.stats.serialize_s");
      digest = stats.serialize();
    }
    if (reference.empty()) reference = digest;
    jobs_agree = jobs_agree && digest == reference &&
                 stats.day_counters(w.days).devices == w.devices;
    checked_ops += job_ops;
    last_stats = std::move(stats);
  }
  std::filesystem::remove(ckpt_path);
  double plain_s = 0.0;
  for (const double wall : plain_walls) plain_s += wall;
  out.check(jobs_agree, checked_ops,
            "every job (plain and traced) reproduces the first job's aggregates");
  if (options.trace && w.checkpoint_day > 0) {
    out.check(ckpts_agree && !runner_ckpt.empty(),
              w.devices * static_cast<std::uint64_t>(w.checkpoint_day * traced_jobs),
              "the traced mirror's checkpoint files equal the runner's byte for byte");
    out.values["fleet.ckpt.bytes"] = static_cast<double>(runner_ckpt.size());
  }

  // Checks outside the timed region.
  Rng pick(options.seed ^ 0x5eedf1ee7ULL);
  const std::uint64_t oracle_first = pick.next() % (w.devices - kOracleDevices);
  out.check(matches_engine_oracle(legs.front(), oracle_first, kOracleDevices),
            kOracleDevices * static_cast<std::uint64_t>(w.days),
            "sampled devices match the sim::Engine oracle");
  if (w.checkpoint_day > 0) {
    const std::uint64_t first = pick.next() % (w.devices - kResumeCheckDevices);
    const std::string uninterrupted =
        run_job(job_legs(options, app_ptr, first, kResumeCheckDevices, w.days, 0,
                         check_path))
            .stats.serialize();
    const std::string resumed =
        run_job(job_legs(options, app_ptr, first, kResumeCheckDevices, w.days,
                         w.checkpoint_day, check_path))
            .stats.serialize();
    std::filesystem::remove(check_path);
    out.check(uninterrupted == resumed,
              2 * kResumeCheckDevices * static_cast<std::uint64_t>(w.days),
              "checkpoint + resume aggregates equal an uninterrupted run's");
  }

  if (!options.trace) {
    report_units(out, job_device_days * static_cast<double>(plain_walls.size()), plain_s,
                 plain_walls);
    report_common(out);
    return out;
  }

  const LongitudinalStats::DayCounters totals = last_stats->day_counters(w.days);
  if (app_ptr != nullptr && totals.classified > 0) {
    const std::uint64_t shard_days =
        (w.devices + LongitudinalConfig{}.shard_size - 1) / LongitudinalConfig{}.shard_size *
        static_cast<std::uint64_t>(w.days);
    for (int i = 0; i < traced_jobs; ++i) {
      replay_classification(*app_ptr, totals.classified,
                            std::max<std::uint64_t>(1, totals.classified / shard_days),
                            options.threads, tracer);
    }
  }
  const double units = traced_jobs;
  report_trace(out, tracer, units, traced_wall,
               plain_s / static_cast<double>(plain_walls.size()));
  const std::map<std::string, double> spans = tracer.totals();
  const auto span_total = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second;
  };
  out.values["fleet.worker.busy_frac"] =
      span_total("fleet.shard") / (options.threads * traced_wall);
  out.values["fleet.shard.count"] =
      static_cast<double>(tracer.count("fleet.shard")) / units;
  out.values["fleet.shard.ns_per_device_day"] =
      1e9 * span_total("fleet.shard.step_day_s") / (job_device_days * units);
  out.values["platform.detections_attempted"] =
      static_cast<double>(totals.detections_attempted);
  out.values["platform.detections_completed"] =
      static_cast<double>(totals.detections_completed);
  out.values["platform.detection_skip_frac"] =
      totals.detections_attempted == 0
          ? 0.0
          : static_cast<double>(totals.detections_skipped) /
                static_cast<double>(totals.detections_attempted);
  out.values["platform.harvested_j"] = LongitudinalStats::dequantize_j(totals.harvested_qj);
  out.values["platform.consumed_j"] = LongitudinalStats::dequantize_j(totals.consumed_qj);
  out.values["nn.classified"] = static_cast<double>(totals.classified);
  tracer.write_chrome_trace(options.work_dir + "/trace-" + options.workload + ".json");
  return out;
}

}  // namespace

Outcome run_fleet_energy(const Options& options) {
  return run_fleet(options, FleetWorkload{40000, 7, 0, false});
}

Outcome run_fleet_app_ckpt(const Options& options) {
  return run_fleet(options, FleetWorkload{16000, 14, 7, true});
}

}  // namespace iw::perfbench
